"""CSV ingestion, preprocessing, and the five-way 60/20/20 split protocol.

Transforms (z-scoring, one-hot vocabularies, imputation medians) are always
fitted on a training index set and then applied everywhere, so no statistic
of the validation or test rows can leak into the model inputs.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, UsageError, open_text, read_json, read_text

_MISSING_TOKENS = {"", "na", "nan", "none", "null", "?"}

# splits that make_splits draws; load_splits reads files with any number
N_SPLITS = 5

DATASET_PRESETS = {
    "gbsg": {
        "time": "duration",
        "event": "event",
        "features": {f"x{i}": "numeric" for i in range(7)},
    },
    "metabric": {
        "time": "duration",
        "event": "event",
        "features": {f"x{i}": "numeric" for i in range(9)},
    },
    "whas": {
        "time": "duration",
        "event": "event",
        "features": {f"x{i}": "numeric" for i in range(6)},
    },
    "tcga_brca": {
        "time": "duration",
        "event": "event",
        "features": None,
    },
}


@dataclass
class Schema:
    """Column roles: one time column, one event column, typed features.

    ``features`` maps column name to "numeric" or "categorical"; None means
    every remaining CSV column is a feature with its kind inferred (numeric
    when all non-missing values parse as floats).
    """

    time: str
    event: str
    features: dict | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "Schema":
        if not isinstance(d, dict):
            raise ConfigurationError("a schema must be a JSON object")
        for key in ("time", "event"):
            if not isinstance(d.get(key), str):
                raise ConfigurationError(f"schema needs the '{key}' column name as a string")
        feats = d.get("features")
        if feats is not None and not isinstance(feats, dict):
            raise ConfigurationError("schema 'features' must map column names to kinds")
        for col, kind in (feats or {}).items():
            if kind not in ("numeric", "categorical"):
                raise ConfigurationError(f"schema feature {col!r} has unknown kind {kind!r}")
        return cls(time=d["time"], event=d["event"], features=feats)

    @classmethod
    def from_preset(cls, name: str) -> "Schema":
        if name not in DATASET_PRESETS:
            raise ConfigurationError(
                f"unknown dataset preset '{name}'; choose from {sorted(DATASET_PRESETS)}"
            )
        return cls.from_dict(DATASET_PRESETS[name])

    @classmethod
    def from_file(cls, path: str) -> "Schema":
        return cls.from_dict(read_json(path, "schema file"))


@dataclass
class RawTable:
    """Parsed but untransformed survival records. ``features`` maps each
    feature column, in schema or header order, to a float64 array with nan
    exactly at its missing rows ("numeric" in ``kinds``) or to a list of
    stripped tokens with None for a missing one ("categorical")."""

    time: np.ndarray
    event: np.ndarray
    features: dict
    kinds: dict

    @property
    def n_rows(self) -> int:
        return int(self.time.size)


@dataclass
class SplitSet:
    """Five train/val/test index triples plus the master seed that made them."""

    splits: list
    seed: int


def _parse_column(tokens) -> tuple:
    """Parse one column of raw CSV tokens.

    Returns the float values and the masks of missing markers and of
    unparsable tokens (both nan in the values). A clean column is parsed by
    one C-level ``float`` pass; tokens are inspected one by one only at nan
    positions and in a column ``float`` rejects. ``float`` ignores the
    surrounding whitespace that ``str.strip`` removes, except ``\\x1c``-``\\x1f``,
    which only the one-by-one pass strips.
    """
    n = len(tokens)
    failed = np.zeros(n, dtype=bool)
    try:
        values = np.array(list(map(float, tokens)), dtype=np.float64)
    except ValueError:
        values = np.full(n, np.nan)
        for i, tok in enumerate(tokens):
            try:
                values[i] = float(tok.strip())
            except ValueError:
                failed[i] = True
    nan_at = np.flatnonzero(np.isnan(values))
    missing = np.zeros(n, dtype=bool)
    missing[nan_at] = [tokens[i].strip().lower() in _MISSING_TOKENS for i in nan_at]
    return values, missing, failed & ~missing


def _columns(path: str, header, schema: Schema) -> tuple:
    """The column index and the declared kinds (None for an inferred one) of
    a CSV header's feature columns, in schema or header order. A missing
    header or schema column, or a used column named twice, is a DataError."""
    if header is None:
        raise DataError(f"{path} is empty")
    col_index = {name: i for i, name in enumerate(header)}
    for required in (schema.time, schema.event):
        if required not in col_index:
            raise DataError(f"column '{required}' not found in {path}")
    if schema.features is None:
        kinds = {c: None for c in header if c not in (schema.time, schema.event)}
    else:
        kinds = dict(schema.features)
        for col in kinds:
            if col not in col_index:
                raise DataError(f"column '{col}' not found in {path}")
    for col in [schema.time, schema.event, *kinds]:
        if header.count(col) > 1:
            raise DataError(f"column '{col}' appears {header.count(col)} times in the header of {path}")
    return col_index, kinds


def _checked_lines(fh):
    """The remaining lines of ``fh``. ``np.loadtxt`` skips a blank line, where
    the csv module reads a row of no fields, and takes a field of any length,
    where the csv module raises beyond its field size limit; both end the
    clean path with a ValueError."""
    limit = csv.field_size_limit()
    for line in fh:
        if line.isspace() or len(line) > limit:
            raise ValueError("a line the csv module reads differently")
        yield line


def _load_clean(fh, path: str, schema: Schema) -> RawTable | None:
    """The table of a clean file, its data rows parsed by numpy's C reader,
    or None for any other file, which ``load_csv`` then parses from the start.

    A file is clean when no feature is declared categorical, the header has
    every used column once, and every data line holds as many fields as the
    header, each a finite float, with times above 0 and events 0 or 1. Such
    a file has no missing value, dropped row or error, and gives the bytes
    the column-wise parser gives: numpy and ``float`` parse the same
    numerals to the same doubles and strip the same whitespace, and every
    token one of them rejects sends the file back to that parser. Each
    feature column is a view of its column of the parsed block, so the
    table keeps that one float64 block (plus a time copy and the events).
    """
    try:
        header = next(csv.reader(fh), None)
        col_index, kinds = _columns(path, header, schema)
        if "categorical" in kinds.values():
            return None
        lines = _checked_lines(fh)
        first = next(lines, None)
        if first is None:  # np.loadtxt warns about a file with no data line
            return None
        data = np.loadtxt(itertools.chain([first], lines), delimiter=",", comments=None,
                          quotechar=None, ndmin=2)
    # a decode error is a ValueError; load_csv meets it again from the start
    except (csv.Error, DataError, ValueError):
        return None
    if data.shape[1] != len(header) or not np.isfinite(data).all():
        return None
    time, event = data[:, col_index[schema.time]], data[:, col_index[schema.event]]
    if not ((time > 0).all() and ((event == 0) | (event == 1)).all()):
        return None
    return RawTable(
        time=time.copy(),
        event=event.astype(np.int64),
        features={col: data[:, col_index[col]] for col in kinds},
        kinds=dict.fromkeys(kinds, "numeric"),
    )


def load_csv(path: str, schema: Schema) -> RawTable:
    """Read a headered CSV into a RawTable, dropping rows without time/event.

    A clean all-numeric file (see ``_load_clean``) is parsed by numpy's C
    reader. Any other file is parsed column by column, yet a malformed file
    raises the error a row-by-row reading meets first: the earliest faulty
    row wins and, within a row, the time, the event and then the features
    in order. Non-finite values are reported only when every row parses.
    """
    with open_text(path, "data file", DataError, newline="") as fh:
        # a pipe cannot be rewound for the column-wise parser
        if fh.seekable():
            table = _load_clean(fh, path, schema)
            if table is not None:
                return table
            fh.seek(0)
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            rows = list(reader)
        except csv.Error as exc:
            raise DataError(f"data file {path}, line {reader.line_num}: {exc}") from None
    col_index, kinds = _columns(path, header, schema)

    # rows after the first ragged one are never read
    width = len(header)
    ragged = np.flatnonzero(np.fromiter(map(len, rows), np.intp, len(rows)) != width)
    n = int(ragged[0]) if ragged.size else len(rows)
    columns = list(zip(*rows[:n])) or [()] * width
    tokens = {name: columns[i] for name, i in col_index.items()}

    def unparsable(col):
        return lambda i: (f"row {i + 2}, column '{col}': cannot parse "
                          f"'{tokens[col][i].strip()}' as a number")

    time, t_missing, t_bad = _parse_column(tokens[schema.time])
    event, e_missing, e_bad = _parse_column(tokens[schema.event])
    keep = ~(t_missing | e_missing)
    # (rows at fault, message) in the order one row's checks run
    faults = [
        (t_bad, unparsable(schema.time)),
        (time <= 0, lambda i: f"row {i + 2}: time must be positive, got {float(time[i])}"),
        (e_bad, unparsable(schema.event)),
        ((event != 0) & (event != 1), lambda i: (
            f"row {i + 2}: event flag must be 0 or 1, got {tokens[schema.event][i].strip()}")),
    ]
    numeric = {}  # column -> (values, missing)
    for col in kinds:
        if kinds[col] == "categorical":
            continue
        values, missing, bad = _parse_column(tokens[col])
        if kinds[col] == "numeric":
            faults.append((bad, unparsable(col)))
        elif (bad & keep).any():
            kinds[col] = "categorical"
            continue
        kinds[col] = "numeric"
        numeric[col] = values, missing

    row = n
    message = f"row {n + 2} has {len(rows[n])} fields, the header has {width}" if ragged.size else None
    for at_fault, describe in faults:
        hit = np.flatnonzero(at_fault & keep)
        if hit.size and hit[0] < row:
            row, message = hit[0], describe(hit[0])
    if message is not None:
        raise DataError(message)

    # a missing numeric is allowed; a parsed nan or +-inf is not
    for col, (values, missing) in [(schema.time, (time, t_missing))] + list(numeric.items()):
        bad = np.flatnonzero(keep & ~missing & ~np.isfinite(values))
        if bad.size:
            raise DataError(f"row {bad[0] + 2}, column '{col}': value {values[bad[0]]} is not finite")

    kept = np.flatnonzero(keep)
    features = {}
    for col in kinds:
        if col in numeric:
            vals = numeric[col][0][kept]  # nan at the missing rows
        else:
            vals = [None if s.lower() in _MISSING_TOKENS else s
                    for s in map(str.strip, tokens[col])]
            if kept.size < n:
                vals = [vals[i] for i in kept.tolist()]
        features[col] = vals

    if kept.size < n:
        warnings.warn(f"dropped {n - kept.size} rows with missing time or event")
    return RawTable(
        time=time[kept],
        event=event[kept].astype(np.int64),
        features=features,
        kinds=kinds,
    )


def fit_transforms(table: RawTable, train_idx) -> dict:
    """Per-column transform metadata computed from the training rows only.

    Numeric columns get train mean/std (population std, floored at 1e-8)
    and the train median for imputation; categorical columns get their
    train vocabulary in sorted order.
    """
    train_idx = np.asarray(train_idx, dtype=np.int64)
    if train_idx.size == 0:
        raise UsageError("cannot fit transforms on an empty training split")
    transforms = {}
    for col, values in table.features.items():
        if table.kinds[col] == "numeric":
            vals = values[train_idx]
            missing = np.isnan(vals)
            # values near the float limit overflow these sums; that is a data error
            with np.errstate(over="ignore", invalid="ignore"):
                median = float(np.median(vals[~missing])) if not missing.all() else 0.0
                filled = np.where(missing, median, vals)
                mean, std = float(filled.mean()), float(filled.std())
            if not np.isfinite([median, mean, std]).all():
                raise DataError(f"column '{col}': a value overflows when standardized")
            if std < 1e-8:
                warnings.warn(f"numeric column '{col}' is constant on the training split")
            transforms[col] = {
                "kind": "numeric",
                "mean": mean,
                "std": max(std, 1e-8),
                "median": median,
            }
        else:
            cats = sorted({values[i] for i in train_idx.tolist()} - {None})
            transforms[col] = {"kind": "categorical", "categories": cats}
    return transforms


def column_names(transforms: dict) -> list:
    """The design-matrix columns ``transforms`` produces, in order: ``col``
    for a numeric column, ``col=cat`` for each category of a categorical one."""
    names = []
    for col, tr in transforms.items():
        if tr["kind"] == "numeric":
            names.append(col)
        else:
            names.extend(f"{col}={c}" for c in tr["categories"])
    return names


def apply_transforms(table: RawTable, transforms: dict):
    """Build the design matrix for every row, with its ``column_names``; the
    table, shared by every split, is only read."""
    n = table.n_rows
    columns = []
    unseen = 0
    for col, tr in transforms.items():
        vals = table.features[col]
        if tr["kind"] == "numeric":
            arr = np.where(np.isnan(vals), tr["median"], vals)
            with np.errstate(over="ignore", invalid="ignore"):
                scaled = (arr - tr["mean"]) / tr["std"]
            if not np.isfinite(scaled).all():
                raise DataError(f"column '{col}': a value overflows when standardized")
            columns.append(scaled)
        else:
            # code -1 is a missing value, -2 one outside the vocabulary
            index = {c: k for k, c in enumerate(tr["categories"])}
            codes = np.array([index.get(v, -1 if v is None else -2) for v in vals], dtype=np.intp)
            unseen += int(np.count_nonzero(codes == -2))
            columns.extend((np.arange(len(index))[:, None] == codes).astype(np.float64))
    if unseen:
        warnings.warn(
            f"{unseen} categorical values outside the training vocabulary "
            "were encoded as all-zero rows"
        )
    X = np.column_stack(columns) if columns else np.zeros((n, 0))
    return X, column_names(transforms)


def preprocess(table: RawTable, train_idx) -> tuple:
    """Fit transforms on the training rows, then transform the whole table:
    ``(X, transforms)``."""
    transforms = fit_transforms(table, train_idx)
    X, _ = apply_transforms(table, transforms)
    return X, transforms


def make_splits(n: int, seed: int, with_replacement: bool = False) -> SplitSet:
    """Independent shuffled 60/20/20 partitions from one master seed.

    Sizes follow floor(0.6 n) / floor(0.2 n) / remainder. When
    ``with_replacement`` is set the training block of each split is
    resampled with replacement (size preserved) for sensitivity checks.
    """
    if n < 10:
        raise UsageError(f"need at least 10 rows to split, got {n}")
    seeds = np.random.SeedSequence(seed).spawn(N_SPLITS)
    n_train = int(np.floor(0.6 * n))
    n_val = int(np.floor(0.2 * n))
    splits = []
    for child in seeds:
        rng = np.random.default_rng(child)
        perm = rng.permutation(n)
        train = perm[:n_train]
        if with_replacement:
            train = rng.choice(train, size=n_train, replace=True)
        splits.append({
            "train": np.sort(train) if not with_replacement else train,
            "val": np.sort(perm[n_train:n_train + n_val]),
            "test": np.sort(perm[n_train + n_val:]),
        })
    return SplitSet(splits=splits, seed=seed)


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def save_splits(split_set: SplitSet, path: str) -> None:
    """One line per split: role:comma-separated-indices triples."""
    with open(path, "w") as fh:
        fh.write(f"# seed {split_set.seed}\n")
        for sp in split_set.splits:
            parts = [
                role + ":" + ",".join(map(str, sp[role].tolist()))
                for role in ("train", "val", "test")
            ]
            fh.write(" ".join(parts) + "\n")


def load_splits(path: str, n_rows: int | None = None) -> SplitSet:
    """Read a ``save_splits`` file. A token that is not an integer, or a
    negative index, or one not below ``n_rows`` when given, is a DataError."""
    # universal newlines: a file with bare \r line endings splits into lines too
    text = read_text(path, "split file", DataError)
    lines = [ln.strip() for ln in text.split("\n") if ln.strip()]
    seed = 0
    splits = []
    for ln in lines:
        if ln.startswith("#"):
            tokens = ln[1:].split()
            if len(tokens) == 2 and tokens[0] == "seed":
                try:
                    seed = int(tokens[1])
                except ValueError:
                    raise DataError(f"split file {path}: seed '{tokens[1]}' is not an integer")
            continue
        sp = {}
        for part in ln.split():
            role, _, idx = part.partition(":")
            if role not in ("train", "val", "test"):
                raise DataError(f"split file {path}: unknown role '{role}'")
            tokens = [x for x in idx.split(",") if x]
            try:
                values = list(map(int, tokens))
            except ValueError:
                bad = next(x for x in tokens if not _is_int(x))
                raise DataError(f"split file {path}: {role} index '{bad}' is not an integer")
            hi = 2 ** 63 if n_rows is None else n_rows
            if values and not (0 <= min(values) and max(values) < hi):
                bad = next(i for i in values if not 0 <= i < hi)
                raise DataError(f"split file {path}: {role} index {bad} is outside [0, {hi})")
            sp[role] = np.array(values, dtype=np.int64)
        if set(sp) != {"train", "val", "test"}:
            raise DataError(f"split file {path}: a line is missing a role")
        splits.append(sp)
    if not splits:
        raise DataError(f"split file {path} contains no splits")
    return SplitSet(splits=splits, seed=seed)
