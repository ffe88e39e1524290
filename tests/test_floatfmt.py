"""The numpy CSV formatter against ``repr`` and ``str``: a property over
float64 bit patterns, the cases where shortest-digit algorithms go wrong,
the layout rules, and memory that does not grow with the rows."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survstrat import floatfmt


def formatted(*columns) -> str:
    buf = io.StringIO()
    floatfmt.write_csv(buf, list(columns))
    return buf.getvalue()


def reference(*columns) -> str:
    """The per-row writer: ``repr`` of every float, ``str`` of every integer."""
    return "".join(",".join(map(repr, row)) + "\n" for row in zip(*(c.tolist() for c in columns)))


def floats_from_bits(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


class TestMatchesRepr:
    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), max_size=300), block=st.integers(1, 64))
    def test_every_bit_pattern(self, bits, block):
        """Any float64, NaN and infinities included, in blocks of 1 to 64 values."""
        x = floats_from_bits(bits)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(floatfmt, "BLOCK_VALUES", block)
            assert formatted(x, -x) == reference(x, -x)

    @settings(max_examples=100, deadline=None)
    @given(ints=st.lists(st.integers(-2**53, 2**53), min_size=1, max_size=50), data=st.data())
    def test_integer_columns_beside_floats(self, ints, data):
        n = len(ints)
        bits = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n))
        x = floats_from_bits(bits)
        k = np.array(ints)
        assert formatted(k, x, np.abs(k) % 7, x) == reference(k, x, np.abs(k) % 7, x)

    @settings(max_examples=200, deadline=None)
    @given(kinds=st.lists(st.booleans(), min_size=1, max_size=7), rows=st.integers(0, 30),
           data=st.data())
    def test_integer_and_float_columns_in_any_order(self, kinds, rows, data):
        """Integer columns (``True`` in ``kinds``) first, among the float columns,
        last, or alone, in blocks that hold no whole number of rows."""
        width = len(kinds)
        block = data.draw(st.integers(1, 64).filter(lambda b: width == 1 or b % width))
        ints = st.one_of(st.sampled_from([0, 1, -1, 2**53, -2**53]), st.integers(-2**53, 2**53))
        columns = [np.array(data.draw(st.lists(ints, min_size=rows, max_size=rows)), np.int64)
                   if is_int else floats_from_bits(data.draw(st.lists(
                       st.integers(0, 2**64 - 1), min_size=rows, max_size=rows)))
                   for is_int in kinds]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(floatfmt, "BLOCK_VALUES", block)
            assert formatted(*columns) == reference(*columns)

    def test_signed_zeros_infinities_and_nan(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
        assert formatted(x) == "0.0\n-0.0\ninf\n-inf\nnan\nnan\n"

    def test_subnormals(self):
        """The 1,000 smallest and largest subnormals, 5e-324 first, and every
        power of two among them."""
        low = np.arange(1, 1001, dtype=np.uint64)
        bits = np.concatenate([low, 2**52 - low, 2 ** np.arange(52, dtype=np.uint64)])
        x = bits.view(np.float64)
        assert formatted(x)[:7] == "5e-324\n"
        assert formatted(x) == reference(x)

    @pytest.mark.parametrize("powers", [np.ldexp(1.0, np.arange(-1074, 1024)),
                                        np.array([float(f"1e{e}") for e in range(-323, 309)])],
                             ids=["two", "ten"])
    def test_powers_with_both_neighbours(self, powers):
        """A normal power of two has a lower neighbour half as far away as its
        upper one; powers of ten are where digit counts change."""
        columns = (powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf))
        assert formatted(*columns) == reference(*columns)

    def test_notation_boundaries(self):
        """Positional notation from 1e-4 up to below 1e16, exponent form outside."""
        x = np.array([1e-4, 1e-5, 1e16, 1e15, 9999999999999998.0, 1.5e-5, 0.00015, 1.234e16, 1e22])
        x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
        assert formatted(x).splitlines()[:9] == [
            "0.0001", "1e-05", "1e+16", "1000000000000000.0", "9999999999999998.0",
            "1.5e-05", "0.00015", "1.234e+16", "1e+22"]
        assert formatted(x) == reference(x)

    def test_seventeen_digits(self):
        """Values whose shortest digits are 17 long, the most a float64 needs."""
        x = np.array([float.fromhex(h) for h in (
            "0x1.0000000000001p+0", "0x1.fffffffffffffp+1023", "0x1.0000000000000p-1022",
            "0x1.ffffffffffffdp+500", "0x1.91b752265b1f5p+735", "0x1.1e2fe414c343cp+14",
            "0x1.7311dc2ce6f44p-33", "0x1.612e7a6cecc1bp+615", "0x1.6ec9d63ca828dp+244")])
        assert all(len(repr(v).split("e")[0].replace(".", "").replace("-", "").lstrip("0")) == 17
                   for v in x.tolist())
        assert formatted(x, -x) == reference(x, -x)

    def test_random_normal_values_at_several_scales(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(3000) * 10.0 ** rng.integers(-30, 30, 3000)
        assert formatted(x, np.round(x, 3)) == reference(x, np.round(x, 3))


class TestColumns:
    def test_integers_are_written_as_str(self):
        k = np.array([0, 7, -12, 10**15, -(2**53), 2**53])
        assert formatted(k, np.arange(6)) == reference(k, np.arange(6))

    @pytest.mark.parametrize("kinds", ["ifff", "fiff", "fffi", "iffi", "iii", "fff"])
    @pytest.mark.parametrize("block", [5, 7])
    def test_integer_columns_first_among_and_last(self, kinds, block):
        """Each layout (``i`` an integer column, ``f`` a float one) in blocks
        that hold no whole number of rows."""
        k = np.array([0, 1, -1, 10, -200, 2**53, -(2**53), 12345678901234])
        x = np.array([0.0, -0.0, 0.1, -2.5, 1e300, -1e-300, np.nan, 2.0**53])
        columns = [k * (-1) ** j if kind == "i" else x * (j + 1) for j, kind in enumerate(kinds)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(floatfmt, "BLOCK_VALUES", block)
            assert formatted(*columns) == reference(*columns)

    def test_every_integer_dtype(self):
        k = np.array([0, 1, 7, 200])
        columns = [k.astype(t) for t in (np.uint8, np.int16, np.int32, np.uint64)]
        assert formatted(*columns, -k) == reference(*columns, -k)

    def test_no_rows(self):
        assert formatted(np.array([]), np.array([], dtype=np.int64)) == ""

    def test_an_integer_beyond_two_to_the_53_is_refused(self):
        with pytest.raises(ValueError, match="2\\*\\*53"):
            formatted(np.array([2**53 + 1]))

    def test_memory_does_not_grow_with_the_rows(self):
        """Eight blocks of 20 columns peak as high as one: every buffer is one
        block's, and the text goes to the file block by block."""

        class Sink:
            def write(self, text):
                pass

        def peak(rows):
            columns = [np.arange(rows), *np.random.default_rng(0).standard_normal((16, rows)),
                       np.arange(rows) % 3, np.linspace(0.1, 9.0, rows), np.arange(rows) % 2]
            tracemalloc.start()
            try:
                floatfmt.write_csv(Sink(), columns)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rows = floatfmt.BLOCK_VALUES // 20
        assert peak(8 * rows) <= 1.1 * peak(rows)

    def test_one_block_peak(self):
        """One block of ``latents.csv``'s shape (an index, 16 latents, the cluster,
        the time and the event) peaks at 1.64 MB, about 200 bytes a value at
        8,192 values (Python 3.11, numpy 2.4). The bound leaves 25% and fails
        at 10,240 values, so a larger block must first shrink what a value
        costs."""

        class Sink:
            def write(self, text):
                pass

        rows = floatfmt.BLOCK_VALUES // 20
        rng = np.random.default_rng(0)
        columns = [np.arange(rows), *rng.standard_normal((16, rows)), np.arange(rows) % 2,
                   np.round(rng.exponential(50.0, rows), 2), np.arange(rows) % 3 % 2]
        tracemalloc.start()
        try:
            floatfmt.write_csv(Sink(), columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_050_000
