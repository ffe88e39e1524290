"""CSV lines of float64 and integer columns, byte-identical to ``repr`` and
``str``, as numpy ufuncs over blocks of values. The shortest round-trip digits
come from Schubfach (Giulietti 2020; Java's ``Double.toString`` less its rule
of at least two digits): three 126-bit products with a power of ten, in
``uint64`` pieces. An integer column skips that search: its digits are its
absolute value. A block stacks its float columns and its integer columns
apart, floats first, and lays both out in one buffer. A field's layout
depends only on its sign, decimal point and digit count: a block's text is
one gather of template rows, one ``take`` and one compress. Under numpy < 2,
``uint64`` with a signed integer promotes to float64, so ``uint64`` arrays
meet ``uint64`` operands only."""

from itertools import accumulate, repeat
from operator import mul

import numpy as np

# a block peaks at about 200 bytes a value, in its float columns' digit search:
# 8,192 values peak as 4,096 did when every column ran it; 16,384 raised the
# fits' peak RSS by 2-3 MB, and 32k and 64k blocks were slower
BLOCK_VALUES = 8192

_U = np.uint64
_0, _1, _2, _10, _32, _63 = _U(0), _U(1), _U(2), _U(10), _U(32), _U(63)
_M32, _C_MIN, _K_MIN = _U(2**32 - 1), _U(2**52), -324
_POW10 = np.array([10**i for i in range(20)], dtype=_U)


def _g_table():
    """g = floor(10**-k / 2**r) + 1 in [2**125, 2**126), k = -324..292, as two 63-bit halves."""
    r = (((-np.arange(_K_MIN, 293) * 913124641741) >> 38) - 125).tolist()
    pow10 = list(accumulate(repeat(10, -_K_MIN), mul, initial=1))
    # k <= 0: 10**-k shifted by r >= -125; k > 0: 2**-r over 10**k
    g = [((p << 200) >> (rk + 200)) + 1 for p, rk in zip(reversed(pow10), r[:-_K_MIN + 1])]
    g += [(1 << -rk) // p + 1 for p, rk in zip(pow10[1:], r[-_K_MIN + 1:])]
    return np.array([v >> 63 for v in g], _U), np.array([v & (2**63 - 1) for v in g], _U)


_G1, _G0 = _g_table()

# A field's 32 source bytes, 8 words of 4: "inf", the first digit, the other 16
# in words 1-4, the exponent's last 4 digits in word 5, "-.0e+a", the separator
_INF, _DIGIT, _EXP, _MINUS, _DOT, _ZERO, _E, _PLUS, _A, _SEP = 0, 3, 20, 24, 25, 26, 27, 28, 29, 30
_WIDTH, _LONGEST = 32, 25  # "-1.2345678901234567e-308" and its separator
# "0000" to "9999", one word of 4 ASCII bytes each
_WORDS = np.empty((10, 10, 10, 10, 4), np.uint8)
for _i in range(4):
    _WORDS[..., _i] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - _i))
_WORDS = _WORDS.view(np.uint32).ravel()


def _templates():
    """Each key's source bytes, separator and -1s. Keys: positional ``(p + 3) *
    17 + d - 1`` (point after digit p, -3 <= p <= 16; d digits), exponent form
    ``340 + x * 34 + (n - 2) * 17 + d - 1`` (x if negative, n digits), integers
    ``408 + p - 1``, ``inf`` 424; a minus sign adds 425; ``nan`` is 850."""
    j, key = np.arange(_LONGEST), np.arange(340)[:, None]
    # positional: digits min(p - 1, 0) .. p - 1, '.', digits p .. max(d, p + 1) - 1,
    # where a digit below 0 is a leading '0' and one from d on a trailing '0'
    p, d = key // 17 - 3, key % 17 + 1
    lo = np.minimum(p - 1, 0)
    k = np.where(j < p - lo, lo + j, lo + j - 1)
    fields = [(np.where(j == p - lo, _DOT, np.where(k >= 0, _DIGIT + k, _ZERO)),
               1 - lo + np.maximum(d, p + 1))]
    # exponent form: the first digit, '.' and the others if any, 'e', the sign, n digits
    key = key[:68]
    n, m = key // 17 % 2 + 2, np.where(key % 17 > 0, key % 17 + 2, 1)
    exponent = np.where(j == m, _E, np.where(j == m + 1, np.where(key < 34, _PLUS, _MINUS),
                                             _EXP + 2 - n + j - m))
    fields += [(np.where(j < m, np.where(j == 1, _DOT, _DIGIT + np.maximum(j - 1, 0)), exponent),
                m + 2 + n), (_DIGIT + j, key[1:17]),
               (np.array([[_INF, _INF + 1, _INF + 2] + [0] * 22, [_INF + 1, _A, _INF + 1] + [0] * 22]), 3)]
    unsigned = np.concatenate([np.where(j < end, col, np.where(j == end, _SEP, -1))
                               for col, end in fields])
    signed = np.concatenate([np.full((len(unsigned), 1), _MINUS), unsigned[:, :-1]], axis=1)
    return np.concatenate([unsigned[:-1], signed[:-1], unsigned[-1:]]).astype(np.int8)


_TEMPLATES = _templates()
_EXPONENT, _INT, _INF_KEY, _SIGNED, _NAN_KEY = 340, 408, 424, 425, 850


def _shortest(bits):
    """``(f, e)``: the shortest ``f * 10**e`` (closest on a tie; ``f`` may end in
    zeros) that reads back as each finite nonzero float64 given by its ``bits``."""
    biased = (bits >> _U(52)) & _U(2047)
    c = bits & (_C_MIN - _1)
    # the lower neighbour of a power of two above the smallest normal is half as far away
    irregular = (c == _0) & (biased > _1)
    c |= (biased != _0) * _C_MIN
    q = np.maximum(biased, _1).view(np.int64) - 1075
    k = (q * 661971961083 - np.where(irregular, 274743187321, 0)) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).view(_U)
    del biased, q  # a block's peak memory is here, in its float columns' temporaries
    g1, g0 = _G1[k - _K_MIN], _G0[k - _K_MIN]
    g1_halves, g0_halves = (g1 >> _32, g1 & _M32), (g0 >> _32, g0 & _M32)
    del g0

    def mulhi(a, b):  # the high 64 bits of a * b, given as 32-bit halves; no sum overflows
        (ah, al), (bh, bl) = a, b
        lolo, hilo = al * bl, ah * bl
        return ah * bh + (hilo >> _32) + (((lolo >> _32) + (hilo & _M32) + al * bh) >> _32)

    def rop(cp):  # g * cp / 2**127 rounded to odd, g = g1 * 2**63 + g0
        cp_halves = cp >> _32, cp & _M32
        z = ((g1 * cp) >> _1) + mulhi(g0_halves, cp_halves)
        return (mulhi(g1_halves, cp_halves) + (z >> _63)) | ((z << _1) != _0)

    cb = c << _2
    vb = rop(cb << h)
    # the ends of the values that read back as this float, times 4 / 10**k;
    # they are among them when c is even
    low = rop((cb - _2 + irregular) << h) + (c & _1)
    high = rop((cb + _2) << h) - (c & _1)
    # the candidates: the multiples of 10 around s = floor(vb / 4) if exactly
    # one reads back, else s or s + 1, the closer to vb / 4 (even on a tie)
    s = vb >> _2
    s4, s40 = s << _2, s // _10 * _U(40)
    sp_in, tp_in = low <= s40, s40 + _U(40) <= high
    s_in, t_in = low <= s4, s4 + _U(4) <= high
    up = (vb > s4 + _2) | ((vb == s4 + _2) & (s & _1).astype(bool))
    return np.where(sp_in != tp_in, (s40 >> _2) + _10 * tp_in, s + np.where(s_in != t_in, t_in, up)), k


def _float_digits(values):
    """``(f, e)``: the shortest ``f * 10**e`` without trailing zeros in ``f`` that
    reads back as each float64 of ``values``; ``(0, 0)`` for a zero."""
    finite, zero = np.isfinite(values), values == 0
    f, e = _shortest(np.where(finite & ~zero, values.view(_U), _U(0x3FF0000000000000)))  # 1.0 for 0, inf, nan
    for p in (16, 8, 4, 2, 1):  # strip trailing zeros
        quotient = f // _POW10[p]
        whole = quotient * _POW10[p] == f
        f, e = np.where(whole, quotient, f), e + whole * p
    return np.where(zero, _0, f), np.where(zero, 0, e)


def _keys(floats, ints, src):
    """Write the digits of a block's float columns ``floats`` and integer columns
    ``ints``, side by side in that order, into ``src``; return each field's template key."""
    f, e = _float_digits(floats)
    f = np.concatenate([f, np.abs(ints).view(_U)], axis=1)  # an integer's digits are its own
    digits = np.searchsorted(_POW10[1:], f, side="right") + 1
    # 17 digits: the first, then two groups of 8 split into four words of 4
    f = f * _POW10[17 - digits]
    top = (f // _POW10[8]).view(np.int64)
    lead = top // 10**8
    eight = np.stack([top - lead * 10**8, f.view(np.int64) - top * 10**8], axis=-1)
    four = eight // 10**4
    src[..., _DIGIT] = lead + 48
    words = src.view(np.uint32)
    words[..., 1:5] = _WORDS[np.stack([four, eight - four * 10**4], axis=-1)].reshape(*f.shape, 4)
    digits, int_digits = np.split(digits, [floats.shape[1]], axis=1)
    point = e + digits  # the decimal point follows digit `point`
    exponent = np.abs(point - 1)
    words[:, :floats.shape[1], _EXP // 4] = _WORDS[exponent]
    key = np.where((point >= -3) & (point <= 16), (point + 3) * 17 + digits - 1,
                   _EXPONENT + (point < 0) * 34 + (exponent >= 100) * 17 + digits - 1)
    key = np.where(np.isfinite(floats), key, _INF_KEY)
    key = np.where(np.isnan(floats), _NAN_KEY, key + (floats.view(_U) >> _63).astype(np.intp) * _SIGNED)
    return np.concatenate([key, _INT - 1 + int_digits + (ints < 0) * _SIGNED], axis=1)


def _text(keys, src, base) -> str:
    """The lines of a block's fields, given by their template ``keys``, from
    ``src``, whose fields' bytes start at ``base``."""
    fields = _TEMPLATES[keys]
    text, quarter = np.empty(fields.shape, np.uint8), -(-len(fields) // 4)
    for at in range(0, len(fields), quarter):  # a quarter at a time: a byte's index takes 8 bytes
        src.ravel().take(fields[at:at + quarter] + base[at:at + quarter], out=text[at:at + quarter])
    # a -1 past a field's end reads a byte of another field, which the mask drops
    return text[fields >= 0].tobytes().decode("ascii")


def write_csv(fh, columns) -> None:
    """Write equal-length 1-D ``columns`` to the text file ``fh`` as comma-separated
    lines, ``BLOCK_VALUES`` values at a time: an integer column (within +-2**53) as
    ``str`` writes it, any other as ``repr`` writes its float64 values."""
    is_int = [col.dtype.kind in "iu" for col in columns]
    if any(k and c.size and not -2**53 <= c.min() <= c.max() <= 2**53 for c, k in zip(columns, is_int)):
        raise ValueError("cannot format an integer beyond +-2**53")
    groups = [[c for c, k in zip(columns, is_int) if k == kind] for kind in (False, True)]
    # the file's column j is column place[j] of a block: the float columns, then the integer ones
    place = np.argsort(np.argsort(is_int, kind="stable"))
    rows = max(min(BLOCK_VALUES // len(columns), len(columns[0])), 1)
    blocks = np.empty((rows, len(groups[0]))), np.empty((rows, len(groups[1])), np.int64)
    src = np.tile(np.frombuffer(b"inf".ljust(_MINUS) + b"-.0e+a,".ljust(_WIDTH - _MINUS), np.uint8),
                  (rows, len(columns), 1))
    src[:, place[-1], _SEP] = ord("\n")
    base = ((np.arange(rows)[:, None] * len(columns) + place) * _WIDTH)[..., None]
    for start in range(0, len(columns[0]), rows):
        n = min(rows, len(columns[0]) - start)
        for block, group in zip(blocks, groups):
            for j, col in enumerate(group):
                block[:n, j] = col[start:start + n]
        fh.write(_text(_keys(blocks[0][:n], blocks[1][:n], src[:n])[:, place], src[:n], base[:n]))
