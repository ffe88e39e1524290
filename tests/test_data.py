"""Ingestion, preprocessing, and split protocol behavior."""

import gc
import json
import os
import re
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survstrat import data
from survstrat.data import (
    RawTable,
    Schema,
    apply_transforms,
    column_names,
    fit_transforms,
    load_csv,
    load_splits,
    make_splits,
    preprocess,
    save_splits,
)
from survstrat.errors import ConfigurationError, DataError, UsageError

from csvgen import survival_csvs
from oracles import load_csv_rows, load_splits_tokens


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")
    return str(path)


BASIC_SCHEMA = Schema(time="t", event="e", features={"age": "numeric", "grade": "categorical"})


def assert_same_features(got, want):
    """Two ``features`` dicts hold the same columns in the same order. A
    numeric column (an array in ``want``) has the same dtype and shape, nan at
    the same rows and the same bytes elsewhere; a categorical column is an
    equal list. ``repr`` would elide the values of a large array."""
    assert list(got) == list(want)
    for col, b in want.items():
        a = got[col]
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and (a.dtype, a.shape) == (b.dtype, b.shape)
            missing = np.isnan(b)
            assert np.array_equal(np.isnan(a), missing)
            assert a[~missing].tobytes() == b[~missing].tobytes()
        else:
            assert isinstance(a, list) and a == b


class TestLoadCsv:
    def test_well_formed_three_rows(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["t", "e", "age", "grade"],
                      [[5, 1, 60, "II"], [3, 0, 41, "I"], [9, 1, 77, "III"]])
        table = load_csv(p, BASIC_SCHEMA)
        assert table.n_rows == 3
        assert_same_features(table.features, {"age": np.array([60.0, 41.0, 77.0]),
                                               "grade": ["II", "I", "III"]})
        np.testing.assert_array_equal(table.time, [5, 3, 9])
        np.testing.assert_array_equal(table.event, [1, 0, 1])

    def test_event_value_two_rejected(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["t", "e", "age", "grade"],
                      [[5, 2, 60, "II"]])
        with pytest.raises(DataError, match="0 or 1"):
            load_csv(p, BASIC_SCHEMA)

    def test_missing_column_named(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["t", "e", "age"], [[5, 1, 60]])
        with pytest.raises(DataError, match="grade"):
            load_csv(p, BASIC_SCHEMA)

    def test_unparsable_cell_addressed(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["t", "e", "age", "grade"],
                      [[5, 1, 60, "II"], [3, 1, "sixty", "I"]])
        with pytest.raises(DataError, match="row 3.*age"):
            load_csv(p, BASIC_SCHEMA)

    def test_rows_missing_time_or_event_dropped(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["t", "e", "age", "grade"],
                      [[5, 1, 60, "II"], ["", 1, 50, "I"], [4, "NA", 30, "I"]])
        with pytest.warns(UserWarning, match="dropped 2 rows"):
            table = load_csv(p, BASIC_SCHEMA)
        assert table.n_rows == 1

    def test_nonpositive_time_rejected(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["t", "e", "age", "grade"],
                      [[0, 1, 60, "II"]])
        with pytest.raises(DataError, match="positive"):
            load_csv(p, BASIC_SCHEMA)

    def test_auto_inferred_kinds(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["t", "e", "age", "grade"],
                      [[5, 1, 60, "II"], [3, 0, 41, "I"]])
        table = load_csv(p, Schema(time="t", event="e", features=None))
        assert table.features["age"].dtype == np.float64
        assert table.features["grade"] == ["II", "I"]

    def test_missing_file(self):
        with pytest.raises(DataError, match="not found"):
            load_csv("/nonexistent/file.csv", BASIC_SCHEMA)



class TestLoadCsvRobustness:
    HEADER = ["t", "e", "age", "grade"]

    def test_short_row_named(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", self.HEADER, [[5, 1, 60, "II"], [3, 1, 41]])
        with pytest.raises(DataError, match="row 3 has 3 fields, the header has 4"):
            load_csv(p, BASIC_SCHEMA)

    def test_long_row_named(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", self.HEADER, [[5, 1, 60, "II", 7]])
        with pytest.raises(DataError, match="row 2 has 5 fields"):
            load_csv(p, BASIC_SCHEMA)

    @pytest.mark.parametrize("token", ["inf", "1e999", "-nan"])
    def test_nonfinite_time_named(self, tmp_path, token):
        p = write_csv(tmp_path / "d.csv", self.HEADER, [[5, 1, 60, "II"], [token, 1, 41, "I"]])
        with pytest.raises(DataError, match="row 3, column 't'.*not finite"):
            load_csv(p, BASIC_SCHEMA)

    @pytest.mark.parametrize("token", ["inf", "-inf", "1e999", "-1e999"])
    def test_nonfinite_feature_named(self, tmp_path, token):
        p = write_csv(tmp_path / "d.csv", self.HEADER, [[5, 1, 60, "II"], [3, 1, token, "I"]])
        with pytest.raises(DataError, match="row 3, column 'age'.*not finite"):
            load_csv(p, BASIC_SCHEMA)

    def test_row_number_counts_dropped_rows(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", self.HEADER,
                      [["", 1, 60, "II"], [4, "NA", 1, "I"], [5, 1, 2, "I"], [6, 0, "inf", "I"]])
        with pytest.raises(DataError, match="row 5, column 'age'"):
            load_csv(p, BASIC_SCHEMA)

    def test_inferred_numeric_column_checked(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", self.HEADER, [[5, 1, 60, "II"], [3, 0, "-inf", "I"]])
        with pytest.raises(DataError, match="row 3, column 'age'"):
            load_csv(p, Schema(time="t", event="e", features=None))

    @pytest.mark.parametrize("features", [None, {"age": "numeric"}])
    def test_duplicate_used_column_rejected(self, tmp_path, features):
        p = write_csv(tmp_path / "d.csv", ["t", "e", "age", "age"], [[5, 1, 60, 61]])
        with pytest.raises(DataError, match="column 'age' appears 2 times in the header"):
            load_csv(p, Schema(time="t", event="e", features=features))

    def test_duplicate_unused_column_allowed(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["t", "e", "age", "note", "note"], [[5, 1, 60, "a", "b"]])
        table = load_csv(p, Schema(time="t", event="e", features={"age": "numeric"}))
        assert_same_features(table.features, {"age": np.array([60.0])})

    @pytest.mark.parametrize("digits", ["1" * 200_000, "0" * 200_000 + "1"])
    def test_field_over_the_csv_limit_named(self, tmp_path, digits):
        path = tmp_path / "d.csv"
        path.write_text(f"t,e,age\n5,1,60\n3,0,{digits}\n")
        with pytest.raises(DataError, match=r"^data file .*d\.csv, line 3: field larger than field limit"):
            load_csv(str(path), Schema(time="t", event="e", features=None))

    def test_missing_numeric_still_allowed(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", self.HEADER, [[5, 1, "NA", "II"], [3, 0, 41, "I"]])
        table = load_csv(p, BASIC_SCHEMA)
        assert_same_features(table.features,
                             {"age": np.array([np.nan, 41.0]), "grade": ["II", "I"]})


class TestSchema:
    def test_presets_available(self):
        for name in ("gbsg", "metabric", "whas", "tcga_brca"):
            schema = Schema.from_preset(name)
            assert schema.time and schema.event

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            Schema.from_preset("unknown_study")

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="ordinal"):
            Schema.from_dict({"time": "t", "event": "e", "features": {"x": "ordinal"}})

    @pytest.mark.parametrize("raw,message", [
        (json.dumps(["time", "event"]).encode(), "JSON object"),
        (json.dumps({"time": "t", "event": "e", "features": ["x"]}).encode(), "'features'"),
        (json.dumps({"time": 1, "event": "e"}).encode(), "'time'"),
        (json.dumps({"time": "t", "event": ["e"]}).encode(), "'event'"),
        (b"\xff\xfe", "not valid JSON"),
    ])
    def test_malformed_schema_file_rejected(self, tmp_path, raw, message):
        path = tmp_path / "schema.json"
        path.write_bytes(raw)
        with pytest.raises(ConfigurationError, match=message) as info:
            Schema.from_file(str(path))
        assert "\n" not in str(info.value)


class TestPreprocess:
    def make_table(self, tmp_path, rows, header=("t", "e", "age", "grade")):
        p = write_csv(tmp_path / "d.csv", list(header), rows)
        return load_csv(p, BASIC_SCHEMA)

    def test_zscore_population_std(self, tmp_path):
        table = self.make_table(tmp_path, [[1, 1, 1, "A"], [2, 1, 2, "A"], [3, 1, 3, "A"]])
        X, transforms = preprocess(table, [0, 1, 2])
        col = X[:, column_names(transforms).index("age")]
        np.testing.assert_allclose(col, [-1.224745, 0.0, 1.224745], atol=1e-6)

    def test_one_hot_columns(self, tmp_path):
        table = self.make_table(tmp_path, [[1, 1, 5, "A"], [2, 1, 6, "B"], [3, 1, 7, "A"]])
        X, transforms = preprocess(table, [0, 1, 2])
        names = column_names(transforms)
        assert "grade=A" in names and "grade=B" in names
        a = X[:, names.index("grade=A")]
        b = X[:, names.index("grade=B")]
        np.testing.assert_array_equal(a, [1, 0, 1])
        np.testing.assert_array_equal(b, [0, 1, 0])

    def test_unseen_category_zeros_with_warning(self, tmp_path):
        table = self.make_table(tmp_path, [[1, 1, 5, "A"], [2, 1, 6, "B"], [3, 1, 7, "C"]])
        with pytest.warns(UserWarning, match="vocabulary"):
            X, transforms = preprocess(table, [0, 1])
        names = column_names(transforms)
        row = X[2, [names.index("grade=A"), names.index("grade=B")]]
        np.testing.assert_array_equal(row, [0, 0])

    def test_constant_column_warns_and_centers_to_zero(self, tmp_path):
        table = self.make_table(tmp_path, [[1, 1, 5, "A"], [2, 1, 5, "A"], [3, 1, 5, "B"]])
        with pytest.warns(UserWarning, match="constant"):
            X, transforms = preprocess(table, [0, 1, 2])
        np.testing.assert_array_equal(X[:, column_names(transforms).index("age")], [0, 0, 0])

    def test_median_imputation_from_train(self, tmp_path):
        table = self.make_table(
            tmp_path, [[1, 1, 10, "A"], [2, 1, 20, "A"], [3, 1, 40, "A"], [4, 1, "NA", "A"]]
        )
        tr = fit_transforms(table, [0, 1, 2])
        assert tr["age"]["median"] == 20.0
        X, _ = apply_transforms(table, tr)
        assert X[3, 0] == pytest.approx((20.0 - tr["age"]["mean"]) / tr["age"]["std"])

    def test_no_leakage_from_heldout_rows(self, tmp_path):
        rows = [[1, 1, 10, "A"], [2, 1, 20, "B"], [3, 0, 30, "A"], [4, 1, 40, "B"]]
        t1 = self.make_table(tmp_path, rows)
        mutated = [r[:] for r in rows]
        mutated[3] = [4, 1, 99999, "ZZZ"]
        t2 = self.make_table(tmp_path, mutated)
        assert fit_transforms(t1, [0, 1, 2]) == fit_transforms(t2, [0, 1, 2])

    def test_one_hot_argmax_recovers_categories(self, tmp_path):
        rows = [[i + 1, 1, i, g] for i, g in enumerate(["A", "B", "C", "B", "A", "C"])]
        table = self.make_table(tmp_path, rows)
        X, transforms = preprocess(table, list(range(6)))
        names = column_names(transforms)
        block_names = [n for n in names if n.startswith("grade=")]
        block = X[:, [names.index(n) for n in block_names]]
        recovered = [block_names[k].split("=", 1)[1] for k in block.argmax(axis=1)]
        assert recovered == ["A", "B", "C", "B", "A", "C"]

    def test_empty_train_rejected(self, tmp_path):
        table = self.make_table(tmp_path, [[1, 1, 5, "A"]])
        with pytest.raises(UsageError):
            fit_transforms(table, [])

    def test_table_unchanged_by_preprocessing(self, tmp_path):
        # every fourth age is missing; the two splits impute different medians
        rows = [[i + 1, i % 2, "NA" if i % 4 == 0 else 10 * i, "AB"[i % 3 % 2]]
                for i in range(12)]
        table = self.make_table(tmp_path, rows)
        arrays = [table.time, table.event, table.features["age"]]
        before = [a.tobytes() for a in arrays]
        _, first = preprocess(table, range(6))
        X, second = preprocess(table, range(6, 12))
        assert first["age"]["median"] != second["age"]["median"]
        assert [a.tobytes() for a in arrays] == before
        np.testing.assert_array_equal(np.isnan(table.features["age"]),
                                      [i % 4 == 0 for i in range(12)])
        assert table.features["grade"] == ["AB"[i % 3 % 2] for i in range(12)]
        fresh_table = self.make_table(tmp_path, rows)
        fresh_X, fresh = preprocess(fresh_table, range(6, 12))
        assert second == fresh
        for got, want in ((X, fresh_X), (table.time, fresh_table.time),
                          (table.event, fresh_table.event)):
            assert got.tobytes() == want.tobytes()


class TestSplits:
    def test_exact_proportions_n10(self):
        ss = make_splits(10, seed=0)
        assert len(ss.splits) == 5
        for sp in ss.splits:
            assert (len(sp["train"]), len(sp["val"]), len(sp["test"])) == (6, 2, 2)

    def test_gbsg_sized_arithmetic(self):
        ss = make_splits(2232, seed=1)
        for sp in ss.splits:
            assert (len(sp["train"]), len(sp["val"]), len(sp["test"])) == (1339, 446, 447)

    def test_partition_disjoint_and_complete(self):
        ss = make_splits(53, seed=2)
        for sp in ss.splits:
            merged = np.concatenate([sp["train"], sp["val"], sp["test"]])
            assert sorted(merged) == list(range(53))

    def test_splits_differ_from_each_other(self):
        ss = make_splits(100, seed=3)
        trains = {tuple(sp["train"]) for sp in ss.splits}
        assert len(trains) == 5

    def test_deterministic(self):
        a = make_splits(40, seed=9)
        b = make_splits(40, seed=9)
        for x, y in zip(a.splits, b.splits):
            for role in ("train", "val", "test"):
                np.testing.assert_array_equal(x[role], y[role])

    def test_roundtrip_persistence(self, tmp_path):
        ss = make_splits(37, seed=5)
        path = str(tmp_path / "splits.txt")
        save_splits(ss, path)
        back = load_splits(path)
        assert back.seed == 5
        assert len(back.splits) == 5
        for x, y in zip(ss.splits, back.splits):
            for role in ("train", "val", "test"):
                np.testing.assert_array_equal(x[role], y[role])

    @pytest.mark.parametrize("ending", ["\r", "\r\n"])
    def test_other_line_endings_load_the_same_splits(self, tmp_path, ending):
        ss = make_splits(37, seed=5)
        path = tmp_path / "splits.txt"
        save_splits(ss, str(path))
        path.write_bytes(path.read_bytes().replace(b"\n", ending.encode()))
        back = load_splits(str(path))
        assert back.seed == 5 and len(back.splits) == 5
        for x, y in zip(ss.splits, back.splits):
            for role in ("train", "val", "test"):
                np.testing.assert_array_equal(x[role], y[role])

    def test_with_replacement_resamples_train(self):
        ss = make_splits(50, seed=7, with_replacement=True)
        sp = ss.splits[0]
        assert len(sp["train"]) == 30
        assert len(np.unique(sp["train"])) < 30
        merged = np.concatenate([sp["val"], sp["test"]])
        assert len(np.unique(merged)) == 20

    def test_too_small_rejected(self):
        with pytest.raises(UsageError):
            make_splits(9, seed=0)


def _index_tokens(hi):
    """Index tokens around the edges of the split parser's fast path, for
    files read with rows below ``hi``."""
    edges = ["", "0", "-0", "-1", "+5", " 5", "5\t", "\t5", "1_000", "\u0663", "\uff17", "\u00b2",
             "0x1f", "1e3", "5.0", "x", "9" * 18, "9" * 19, "1" + "0" * 19, "0" * 19 + "7",
             str(2 ** 63 - 1), str(2 ** 63), str(-2 ** 63), str(hi), str(hi - 1)]
    return st.one_of(
        st.integers(0, 30).map(str),
        st.integers(0, 30).map(lambda i: "00" + str(i)),
        st.integers(-2 ** 65, 2 ** 65).map(str),
        st.sampled_from(edges),
    )


@st.composite
def split_files(draw):
    """The text of a split file and the ``n_rows`` it is read with."""
    n_rows = draw(st.sampled_from([None, 25]))
    role = st.lists(_index_tokens(2 ** 63 if n_rows is None else n_rows), max_size=8).map(",".join)
    lines = draw(st.lists(st.tuples(role, role, role).map(
        lambda t: f"train:{t[0]} val:{t[1]} test:{t[2]}"), min_size=1, max_size=3))
    return "\n".join(lines) + "\n", n_rows


def _split_outcome(load, path, n_rows):
    try:
        return load(path, n_rows)
    except DataError as exc:
        return f"DataError: {exc}"


_PLAIN_SPLITS = "train:" + ",".join(map(str, range(15))) + " val:15,16,017,18,19 test:20,21,22,23,24\n"


class TestSplitParserMatchesTokenReader:
    """``load_splits`` against the token-by-token reader: the same arrays, or
    the same error text, on every generated file."""

    @settings(max_examples=600, deadline=None)
    @given(case=split_files())
    @example(case=("# seed 4\n" + _PLAIN_SPLITS, None))
    @example(case=("# seed 4\n" + _PLAIN_SPLITS, 25))
    @example(case=(_PLAIN_SPLITS.replace("24", "25"), 25))
    @example(case=(_PLAIN_SPLITS.replace("24", str(2 ** 63)), None))
    @example(case=(_PLAIN_SPLITS.replace("24", "9" * 19), None))
    @example(case=(_PLAIN_SPLITS.replace("24", "24,"), 25))
    @example(case=(_PLAIN_SPLITS.replace("20,21", "20,,21"), None))
    def test_same_splits_or_same_error(self, tmp_path_factory, case):
        text, n_rows = case
        path = tmp_path_factory.getbasetemp() / "splits.txt"
        path.write_text(text, encoding="utf-8")
        new = _split_outcome(load_splits, str(path), n_rows)
        old = _split_outcome(load_splits_tokens, str(path), n_rows)
        if isinstance(old, str):
            assert new == old
            return
        assert new.seed == old.seed and len(new.splits) == len(old.splits)
        for a, b in zip(new.splits, old.splits):
            for role in ("train", "val", "test"):
                x, y = a[role], b[role]
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def _load_outcome(load, path, schema):
    """The table (or the DataError message) and the warnings one load gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load(path, schema)
        except DataError as exc:
            result = f"DataError: {exc}"
    return result, [str(w.message) for w in caught]


class TestLoadCsvMatchesRowReader:
    """The column-wise parser against the row-by-row oracle: the same table,
    or the same first error, on every generated file."""

    @settings(max_examples=400, deadline=None)
    @given(case=survival_csvs())
    @example(case=("t,e,f0\n5,1,x\n3,-nan,y\n-1,1,abc\n", Schema("t", "e", {"f0": "numeric"})))
    @example(case=("t,e,f0\n5,1,inf\n4,1\nabc,0,1\n", Schema("t", "e", None)))
    @example(case=("t,e,f0\n5,1,inf\n1e999,0,2\n", Schema("t", "e", {"f0": "numeric"})))
    @example(case=("e,f0,t\n1,\" 2 ,x\",3\n0, NA ,\t4\x1c\n1,-nan,1e999\n", Schema("t", "e", None)))
    # files numpy's C reader would read differently, which must fall back
    @example(case=("t,e,f0\n5,1,2\n\n3,0,4\n", Schema("t", "e", None)))
    @example(case=("t,e,f0\n5,1,2\n3,0,4\n\n", Schema("t", "e", None)))
    @example(case=("t,e,f0\n", Schema("t", "e", None)))
    @example(case=("t,e,f0\n5,1,2\n3,0,4\n", Schema("t", "e", {"f0": "categorical"})))
    @example(case=("t,e,f0,note\n5,1,2,a\n3,0,4,b\n", Schema("t", "e", {"f0": "numeric"})))
    @example(case=("t,e,f0\n5,1,2\n-0,0,4\n", Schema("t", "e", None)))
    @example(case=("t,e,f0\n5,1,2\n3,0.5,4\n", Schema("t", "e", None)))
    # clean files: other line endings, and \x1c padding, which float() alone rejects
    @example(case=("t,e,f0\r5,1,2\r3,0,4\r", Schema("t", "e", None)))
    @example(case=("t,e,f0\r\n5,1,2\r\n3,0,4\r\n", Schema("t", "e", {"f0": "numeric"})))
    @example(case=("t,e,f0,f1\n5,1,-0,1e-320\n\x1c3\x1c,-0,\x1c-0, 4\x1c\n", Schema("t", "e", None)))
    def test_same_table_or_same_error(self, tmp_path_factory, case):
        text, schema = case
        path = tmp_path_factory.getbasetemp() / "property.csv"
        path.write_text(text)
        new, new_warnings = _load_outcome(load_csv, str(path), schema)
        old, old_warnings = _load_outcome(load_csv_rows, str(path), schema)
        assert new_warnings == old_warnings
        if isinstance(old, str):
            assert new == old
            return
        assert isinstance(new, RawTable)
        for name in ("time", "event"):
            a, b = getattr(new, name), getattr(old, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert_same_features(new.features, old.features)

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    @settings(max_examples=400, deadline=None)
    @given(case=survival_csvs())
    # a quoted field holding a newline, across a boundary of the line blocks
    @example(case=("t,e,f0\n5,1,2\n3,0,\"a\nb\"\n4,1,x\n", Schema("t", "e", None)))
    # an inferred column numeric in the first block, with an inf, and categorical in the next
    @example(case=("t,e,f0\n5,1,inf\n3,0,x\n4,1,2\n", Schema("t", "e", None)))
    # a non-finite value in the first block and a parse fault in the next
    @example(case=("t,e,f0\n5,1,inf\n4,1,2\nabc,0,2\n", Schema("t", "e", {"f0": "numeric"})))
    # a block of nothing but an empty line
    @example(case=("t,e,f0\n5,1,2\n\n3,0,4\n", Schema("t", "e", {"f0": "numeric"})))
    def test_blocks_smaller_than_the_file(self, tmp_path_factory, block_rows, case):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "BLOCK_ROWS", block_rows)
            self.test_same_table_or_same_error.hypothesis.inner_test(self, tmp_path_factory, case)

    @pytest.mark.parametrize("block_rows", [1, 1000])
    @pytest.mark.parametrize("raw, message", [
        # a ragged row 2, then a field over the csv module's limit in row 4
        (b"t,e,age\n5,1\n3,0,41\n4,1," + b"1" * 200_000 + b"\n",
         r"^data file .*d\.csv, line 4: field larger than field limit"),
        # a time that does not parse in row 2, then bytes that are not UTF-8 in row 4
        (b"t,e,age\nabc,1,60\n3,0,41\n4,1,\xff\n", r"^data file .*d\.csv is not UTF-8 text"),
        # a field over the limit in row 2, then bytes that are not UTF-8 some 15 kB on
        (b"t,e,age\n5,1," + b"1" * 200_000 + b"\n" + b"3,0,41.0000000000000000000000000\n" * 500
         + b"4,1,\xff\n", r"^data file .*d\.csv, line 2: field larger than field limit"),
    ], ids=["ragged-then-over-limit", "unparsable-then-not-utf8", "over-limit-then-not-utf8"])
    def test_a_read_error_comes_first(self, tmp_path, monkeypatch, raw, message, block_rows):
        monkeypatch.setattr(data, "BLOCK_ROWS", block_rows)
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        with pytest.raises(DataError, match=message):
            load_csv(str(path), Schema("t", "e", None))


def _clean_cohort(path, n, ending):
    """A clean GBSG-shaped CSV of ``n`` rows written with ``repr`` floats."""
    rng = np.random.default_rng(11)
    X = rng.standard_normal((n, 7))
    times = rng.exponential(5.0, n) + 0.05
    events = rng.integers(0, 2, n)
    lines = [",".join([f"x{j}" for j in range(7)] + ["duration", "event"])]
    lines += [",".join(map(repr, row + [t])) + f",{e}"
              for row, t, e in zip(X.tolist(), times.tolist(), events.tolist())]
    path.write_bytes((ending.join(lines) + ending).encode())
    return str(path)


def _blank_cohort(path, clean_path, marker=""):
    """The cohort at ``clean_path`` with one feature given as the missing
    ``marker`` (left blank by default) in 1% of its rows."""
    lines = Path(clean_path).read_text().split("\n")
    rng = np.random.default_rng(12)
    for i in rng.choice(np.arange(1, len(lines) - 1), size=(len(lines) - 2) // 100, replace=False):
        fields = lines[i].split(",")
        fields[rng.integers(7)] = marker
        lines[i] = ",".join(fields)
    path.write_text("\n".join(lines))
    return str(path)


class TestCleanFiles:
    """Clean all-numeric files take numpy's C reader and still give the
    row reader's table byte for byte."""

    def spy(self, monkeypatch):
        """The results of every per-block ``_c_block`` call, None for a block
        left to the column-wise parse."""
        real, results = data._c_block, []
        monkeypatch.setattr(data, "_c_block",
                            lambda *args: results.append(real(*args)) or results[-1])
        return results

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_many_rows_match_the_row_reader(self, tmp_path, monkeypatch, ending):
        path = _clean_cohort(tmp_path / "cohort.csv", 30_000, ending)
        schema = Schema.from_preset("gbsg")
        results = self.spy(monkeypatch)
        new, old = load_csv(path, schema), load_csv_rows(path, schema)
        assert len(results) == -(-30_000 // data.BLOCK_ROWS)
        assert all(values is not None for values in results)
        for name in ("time", "event"):
            a, b = getattr(new, name), getattr(old, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert a.flags.c_contiguous
        assert_same_features(new.features, old.features)

    def test_peak_memory_is_at_most_twice_what_is_kept(self, tmp_path):
        path = _clean_cohort(tmp_path / "cohort.csv", 20_000, "\n")
        schema = Schema.from_preset("gbsg")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = load_csv(path, schema)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.n_rows == 20_000
        assert peak - base <= 2 * (kept - base)

    def test_blank_values_keep_peak_memory_at_twice_what_is_kept(self, tmp_path):
        path = _blank_cohort(tmp_path / "blank.csv", _clean_cohort(tmp_path / "clean.csv", 50_000, "\n"))
        schema = Schema.from_preset("gbsg")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = load_csv(path, schema)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.n_rows == 50_000
        assert np.isnan(np.column_stack(list(table.features.values()))).sum() == 500
        assert peak - base <= 2 * (kept - base)

    @pytest.mark.parametrize("marker", ["", "NA", " ? "], ids=["blank", "NA", "question mark"])
    def test_blank_values_load_within_one_and_a_half_times_a_clean_file(self, tmp_path, marker):
        clean = _clean_cohort(tmp_path / "clean.csv", 50_000, "\n")
        paths = [clean, _blank_cohort(tmp_path / "blank.csv", clean, marker)]
        schema = Schema.from_preset("gbsg")
        seconds = [[], []]
        # the min of 11 interleaved loads each, every one timed with the
        # collector off and on this thread's CPU clock, so neither a burst of
        # other work on the host nor the BLAS threads' spinning decides it
        for _ in range(11):
            for path, times in zip(paths, seconds):
                gc.collect()
                gc.disable()
                try:
                    start = time.thread_time()
                    load_csv(path, schema)
                    times.append(time.thread_time() - start)
                finally:
                    gc.enable()
        assert min(seconds[1]) <= 1.5 * min(seconds[0])

    @pytest.mark.parametrize("marker", ["", "NA", "na", " nA\t", "None", "NULL", "?", " ? "])
    def test_missing_markers_take_the_c_reader(self, tmp_path, monkeypatch, marker):
        path = write_csv(tmp_path / "m.csv", ["t", "e", "x", "y"],
                         [[5, 1, marker, 2.5], [3, 0, 1.5, marker], [marker, 1, 0.5, 1.0]])
        results = self.spy(monkeypatch)
        schema = Schema("t", "e", {"x": "numeric", "y": "numeric"})
        with pytest.warns(UserWarning, match="dropped 1 rows"):
            table = load_csv(path, schema)
        assert [values is not None for values in results] == [True]
        with pytest.warns(UserWarning, match="dropped 1 rows"):
            assert_same_features(table.features, load_csv_rows(path, schema).features)
        assert_same_features(table.features, {"x": np.array([np.nan, 1.5]),
                                              "y": np.array([2.5, np.nan])})

    @pytest.mark.parametrize("token", ["nab", "n a", "?!", "nulls", "-na"])
    def test_a_near_marker_is_still_a_parse_error(self, tmp_path, token):
        path = write_csv(tmp_path / "m.csv", ["t", "e", "x"], [[5, 1, 1.0], [3, 0, token]])
        with pytest.raises(DataError, match=re.escape(f"row 3, column 'x': cannot parse '{token}'")):
            load_csv(path, Schema("t", "e", {"x": "numeric"}))

    def test_a_pipe_is_parsed_without_rewinding(self, monkeypatch):
        results = self.spy(monkeypatch)
        for text, ages in [("t,e,age\n5,1,60\n3,0,41\n", [60.0, 41.0]),
                           ("t,e,age\n5,1,NA\n3,0,41\n", [np.nan, 41.0])]:
            read, write = os.pipe()
            try:
                os.write(write, text.encode())
                os.close(write)
                table = load_csv(f"/dev/fd/{read}", Schema("t", "e", None))
            finally:
                os.close(read)
            assert_same_features(table.features, {"age": np.array(ages)})
        # both pipes are parsed by the C reader, the one with NA given nan in its place
        assert [values is not None for values in results] == [True, True]
