"""CSV ingestion, preprocessing, and the five-way 60/20/20 split protocol.

Transforms (z-scoring, one-hot vocabularies, imputation medians) are always
fitted on a training index set and then applied everywhere, so no statistic
of the validation or test rows can leak into the model inputs.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import operator
import re
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
    exactly at its missing rows (a numeric column) or to a list of stripped
    tokens with None for a missing one (a categorical column)."""

    time: np.ndarray
    event: np.ndarray
    features: dict

    @property
    def n_rows(self) -> int:
        return int(self.time.size)


@dataclass
class SplitSet:
    """Five train/val/test index triples plus the master seed that made them."""

    splits: list
    seed: int


# data records parsed at once: what a load holds of a file besides its table
BLOCK_ROWS = 1024
# a whole field (from a line's start or a delimiter to one or the line's end) that is
# a missing marker but nan, which numpy reads, with its spaces and tabs
_MISSING_FIELD = re.compile(r"(?:^|(?<=,))[ \t]*(?:na|none|null|\?)?[ \t]*(?=,|\r|\n|$)", re.I | re.A)


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
    if schema.features is None:
        kinds = {c: None for c in header if c not in (schema.time, schema.event)}
    else:
        kinds = dict(schema.features)
    for col in [schema.time, schema.event, *kinds]:
        if col not in col_index:
            raise DataError(f"column '{col}' not found in {path}")
    for col in [schema.time, schema.event, *kinds]:
        if header.count(col) > 1:
            raise DataError(f"column '{col}' appears {header.count(col)} times in the header of {path}")
    return col_index, kinds


def _blocks(fh, path: str):
    """Yield the header record of ``fh`` (None for an empty file), then its
    data records in blocks of at most BLOCK_ROWS: lists of lines, one record
    each, until a line holds a quote, which may open a field with a newline,
    and from that block on lists of ``csv.reader`` rows. A csv.Error is a
    DataError naming its line."""
    done, reader = 0, csv.reader(fh)  # the lines read before ``reader``'s first
    try:
        yield next(reader, None)
        done = reader.line_num
        while True:
            lines = []
            try:
                lines.extend(itertools.islice(fh, BLOCK_ROWS))  # keeps those before a decode error
            finally:
                # lines the csv module may reject are checked first: its error beats a later decode error
                text = "".join(lines)
                if '"' in text or "\0" in text or max(map(len, lines), default=0) > csv.field_size_limit():
                    list(reader := csv.reader(lines))  # raises its csv.Error
            if not lines or '"' in text:
                reader = csv.reader(itertools.chain(lines, fh))
                yield from iter(lambda: list(itertools.islice(reader, BLOCK_ROWS)), [])
                return
            del text  # hold no more than the block while the caller parses it
            yield lines
            done += len(lines)
    except csv.Error as exc:
        raise DataError(f"data file {path}, line {done + reader.line_num}: {exc}") from None


def _c_block(lines, width: int, filled_first: bool):
    """The columns (one row each) of quote-free lines, one record each, as
    numpy's C reader parses them with nan for every missing marker; None if a
    line is blank, has not ``width`` fields or holds a token numpy rejects.
    ``filled_first`` tries the lines with their markers filled first, as a
    block with an n, N or ? always is; either order gives the same columns.
    numpy and ``float`` give the numerals both take the same doubles; numpy
    also strips ``\\x1c``-``\\x1f``, as ``_parse_column`` does after ``float``."""
    # np.loadtxt skips an empty line (see the shape check) and warns about a block of them
    if lines[0].isspace():
        return None
    # a block with an n, N or ? (a clean one has none) is tried with its markers filled first;
    # the pattern runs only on a line that may hold one: an empty field, an n or N, or a ?
    words = any(map("".join(lines).__contains__, "nN?"))
    filled = (_MISSING_FIELD.sub("nan", s) if ",," in s or s[0] == "," or s.rstrip("\r\n").endswith(",")
              or words and ("n" in s or "N" in s or "?" in s) else s for s in lines)
    for attempt in (filled, lines) if words or filled_first else (lines, filled):
        with contextlib.suppress(ValueError):
            values = np.loadtxt(attempt, delimiter=",", comments=None, quotechar=None, ndmin=2)
            return values.T if values.shape == (len(lines), width) else None
    return None


def load_csv(path: str, schema: Schema) -> RawTable:
    """Read a headered CSV into a RawTable, dropping rows without time/event.

    The records are read in blocks (see ``_blocks``): quote-free lines with
    no categorical column are parsed by numpy's C reader (``_c_block``), any
    other block column by column. Yet a malformed file raises the error a
    row-by-row reading meets first: a read error (bytes that are not UTF-8,
    a ``csv`` error) anywhere in the file, else the earliest faulty row and,
    within a row, the time, the event and then the features in order.
    Non-finite values are reported only when every row parses. Besides its
    table, a load holds one block, but a feature of inferred kind keeps its
    tokens until the last block, which may make it categorical.
    """
    with open_text(path, "data file", DataError, newline="") as fh:
        blocks = _blocks(fh, path)
        try:
            header = next(blocks)
            col_index, kinds = _columns(path, header, schema)
            width, t, e = len(header), col_index[schema.time], col_index[schema.event]
            times, events = [np.empty(0)], [np.empty(0, np.int64)]  # the kept rows' values
            arrays = {col: [np.empty(0)] for col in kinds}  # by feature
            words = {col: [] for col in kinds if kinds[col] != "numeric"}  # and tokens
            nonfinite = {}  # column -> its first non-finite value, raised once kinds are final
            first = dropped = 0  # the data rows before the block, and those dropped
            # a block after one with a missing value is tried filled first; finding an empty
            # field in a block's text would take five searches, which a clean block pays too
            missing = False
            for block in blocks:
                # rows of V (values), M (missing), F (unparsable): time, event, the features not categorical
                names = [schema.time, schema.event, *(c for c in kinds if kinds[c] != "categorical")]
                idx = [col_index[c] for c in names]
                lines = isinstance(block[0], str)  # quote-free lines, one record each
                values = _c_block(block, width, missing) if lines and len(names) == len(kinds) + 2 else None
                if values is not None:
                    n, V = len(block), values[idx]
                    M, F = np.zeros_like(V, dtype=bool), np.zeros_like(V, dtype=bool)
                    nan_r, nan_i = np.divmod(np.isnan(V).ravel().nonzero()[0], n)
                    M[nan_r, nan_i] = [next(csv.reader([block[i]]))[idx[r]].strip().lower()
                                       in _MISSING_TOKENS for r, i in zip(nan_r.tolist(), nan_i.tolist())]
                    # split only where read: the C reader took every token
                    columns = [map(operator.itemgetter(j), csv.reader(block)) for j in range(width)]
                else:
                    block = list(csv.reader(block)) if lines else block
                    # rows after the first ragged one are never parsed
                    n = next((i for i, row in enumerate(block) if len(row) != width), len(block))
                    columns = list(zip(*block[:n])) or [()] * width
                    V, M, F = map(np.array, zip(*[_parse_column(columns[j]) for j in idx]))
                keep, missing = ~(M[0] | M[1]), M.any()
                declared = [r for r, c in enumerate(names) if r > 1 and kinds[c] == "numeric"]
                # (rows at fault) in the order one row's checks run; the first row at fault wins
                checks = np.vstack([F[0], V[0] <= 0, F[1], (V[1] != 0) & (V[1] != 1), F[declared]]) & keep
                if checks.any():
                    i, check = divmod(int(checks.T.argmax()), len(checks))
                    j = [t, t, e, e, *(idx[r] for r in declared)][check]
                    token = next(itertools.islice(columns[j], i, None)).strip()
                    raise DataError(
                        f"row {first + i + 2}: time must be positive, got {float(V[0, i])}" if check == 1 else
                        f"row {first + i + 2}: event flag must be 0 or 1, got {token}" if check == 3 else
                        f"row {first + i + 2}, column '{header[j]}': cannot parse '{token}' as a number")
                if n < len(block):
                    raise DataError(f"row {first + n + 2} has {len(block[n])} fields, the header has {width}")
                words_seen = (F & keep).any(axis=1)  # only an inferred feature gets here with a word
                # a missing numeric is allowed; a parsed nan or +-inf is not
                bad = keep & ~M & ~np.isfinite(V) & ~words_seen[:, None]
                for r in bad.any(axis=1).nonzero()[0]:
                    i = bad[r].argmax()
                    nonfinite.setdefault(names[r], f"row {first + i + 2}, column '{names[r]}': "
                                                   f"value {V[r, i]} is not finite")
                kept = keep.nonzero()[0]
                times.append(V[0].take(kept))
                events.append(V[1].take(kept).astype(np.int64))
                for r in range(2, len(names)):
                    arrays[names[r]].append(V[r].take(kept))
                    if words_seen[r]:
                        kinds[names[r]], arrays[names[r]] = "categorical", []
                for col in words:
                    words[col].append(itertools.compress(columns[col_index[col]], keep))
                first, dropped = first + n, dropped + n - kept.size
                del block, columns, values, V  # before the next block is read
        except DataError:
            for _ in blocks:  # a read error later in the file comes first
                pass
            raise

    kinds = {col: kind or "numeric" for col, kind in kinds.items()}
    for col in [schema.time] + [c for c in kinds if kinds[c] == "numeric"]:
        if col in nonfinite:
            raise DataError(nonfinite[col])
    if dropped:
        warnings.warn(f"dropped {dropped} rows with missing time or event")

    features = {col: np.concatenate(arrays.pop(col)) if kind == "numeric" else
                [None if s.lower() in _MISSING_TOKENS else s
                 for s in map(str.strip, itertools.chain.from_iterable(words[col]))]
                for col, kind in kinds.items()}
    return RawTable(time=np.concatenate(times), event=np.concatenate(events), features=features)


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
        if isinstance(values, np.ndarray):
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


# a role's indices as np.fromstring reads them whole: ASCII digits only, no
# empty token, and at most 18 digits a token, so every value is below 2**63
_PLAIN_INDICES = re.compile(r"[0-9]{1,18}(?:,[0-9]{1,18})*")


def _parse_indices(path: str, role: str, idx: str, hi: int) -> np.ndarray:
    if _PLAIN_INDICES.fullmatch(idx):
        values = np.fromstring(idx, dtype=np.int64, sep=",")
        if int(values.max()) < hi:
            return values
    # any other text, or an index out of range: token by token, naming the bad one
    tokens = [x for x in idx.split(",") if x]
    try:
        values = list(map(int, tokens))
    except ValueError:
        bad = next(x for x in tokens if not _is_int(x))
        raise DataError(f"split file {path}: {role} index '{bad}' is not an integer")
    if values and not (0 <= min(values) and max(values) < hi):
        bad = next(i for i in values if not 0 <= i < hi)
        raise DataError(f"split file {path}: {role} index {bad} is outside [0, {hi})")
    return np.array(values, dtype=np.int64)


def load_splits(path: str, n_rows: int | None = None) -> SplitSet:
    """Read a ``save_splits`` file. A token that is not an integer, or a
    negative index, or one not below ``n_rows`` when given, is a DataError.

    A role whose text is plain ASCII digits and commas, with no empty token
    and no token over 18 digits, is parsed in one numpy call and range-checked
    at once. Every other text (a sign, spaces, ``_``, non-ASCII digits, empty
    tokens, longer tokens), and one holding an index out of range, is read
    token by token as ``int`` reads it, so the accepted files and every error
    message are the same either way."""
    # universal newlines: a file with bare \r line endings splits into lines too
    text = read_text(path, "split file", DataError)
    lines = [ln.strip() for ln in text.split("\n") if ln.strip()]
    hi = 2 ** 63 if n_rows is None else n_rows
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
            sp[role] = _parse_indices(path, role, idx, hi)
        if set(sp) != {"train", "val", "test"}:
            raise DataError(f"split file {path}: a line is missing a role")
        splits.append(sp)
    if not splits:
        raise DataError(f"split file {path} contains no splits")
    return SplitSet(splits=splits, seed=seed)
