"""CSV ingestion, preprocessing, and the five-way 60/20/20 split protocol.

Transforms (z-scoring, one-hot vocabularies, imputation medians) are always
fitted on a training index set and then applied everywhere, so no statistic
of the validation or test rows can leak into the model inputs.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, UsageError

_MISSING_TOKENS = {"", "na", "nan", "none", "null", "?"}

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
        for key in ("time", "event"):
            if key not in d:
                raise ConfigurationError(f"schema is missing the '{key}' column name")
        feats = d.get("features")
        if feats is not None:
            for col, kind in feats.items():
                if kind not in ("numeric", "categorical"):
                    raise ConfigurationError(
                        f"schema feature '{col}' has unknown kind '{kind}'"
                    )
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
        try:
            with open(path) as fh:
                return cls.from_dict(json.load(fh))
        except FileNotFoundError:
            raise ConfigurationError(f"schema file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"schema file {path} is not valid JSON: {exc}")


@dataclass
class RawTable:
    """Parsed but untransformed survival records."""

    time: np.ndarray
    event: np.ndarray
    features: dict
    kinds: dict
    feature_order: list
    n_dropped: int = 0

    @property
    def n_rows(self) -> int:
        return int(self.time.size)


@dataclass
class SurvivalDataset:
    """Model-ready design matrix with times, event flags, and fitted transforms."""

    X: np.ndarray
    t: np.ndarray
    e: np.ndarray
    feature_names: list
    transforms: dict


@dataclass
class SplitSet:
    """Five train/val/test index triples plus the master seed that made them."""

    splits: list
    seed: int


def _parse_float(token: str, row: int, col: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise DataError(f"row {row}, column '{col}': cannot parse '{token}' as a number")


def load_csv(path: str, schema: Schema) -> RawTable:
    """Read a headered CSV into a RawTable, dropping rows without time/event."""
    try:
        fh = open(path, newline="")
    except FileNotFoundError:
        raise DataError(f"data file not found: {path}")
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty")
        rows = list(reader)

    col_index = {name: i for i, name in enumerate(header)}
    for required in (schema.time, schema.event):
        if required not in col_index:
            raise DataError(f"column '{required}' not found in {path}")
    if schema.features is None:
        feature_order = [c for c in header if c not in (schema.time, schema.event)]
        kinds = {c: None for c in feature_order}
    else:
        feature_order = list(schema.features)
        kinds = dict(schema.features)
        for col in feature_order:
            if col not in col_index:
                raise DataError(f"column '{col}' not found in {path}")

    times, events = [], []
    features = {c: [] for c in feature_order}
    dropped = []
    for r, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataError(f"row {r} has {len(row)} fields, the header has {len(header)}")
        t_tok = row[col_index[schema.time]].strip()
        e_tok = row[col_index[schema.event]].strip()
        if t_tok.lower() in _MISSING_TOKENS or e_tok.lower() in _MISSING_TOKENS:
            dropped.append(r)
            continue
        t = _parse_float(t_tok, r, schema.time)
        if t <= 0:
            raise DataError(f"row {r}: time must be positive, got {t}")
        e = _parse_float(e_tok, r, schema.event)
        if e not in (0.0, 1.0):
            raise DataError(f"row {r}: event flag must be 0 or 1, got {e_tok}")
        times.append(t)
        events.append(int(e))
        for col in feature_order:
            tok = row[col_index[col]].strip()
            if tok.lower() in _MISSING_TOKENS:
                features[col].append(None)
            elif kinds[col] == "numeric":
                features[col].append(_parse_float(tok, r, col))
            else:
                features[col].append(tok)

    # infer kinds for auto-discovered feature columns
    for col in feature_order:
        if kinds[col] is not None:
            continue
        vals = [v for v in features[col] if v is not None]
        try:
            features[col] = [None if v is None else float(v) for v in features[col]]
            kinds[col] = "numeric"
        except (ValueError, TypeError):
            kinds[col] = "categorical"
        if not vals:
            kinds[col] = "numeric"

    # finiteness is checked on whole columns; a missing numeric (None) is nan
    # here and allowed, a parsed nan or +-inf is not
    time = np.asarray(times, dtype=np.float64)
    numeric = [c for c in feature_order if kinds[c] == "numeric"]
    for col, vals in [(schema.time, time)] + [
        (c, np.asarray(features[c], dtype=np.float64)) for c in numeric
    ]:
        bad = [i for i in np.flatnonzero(~np.isfinite(vals))
               if col == schema.time or features[col][i] is not None]
        if bad:
            line = np.setdiff1d(np.arange(2, len(rows) + 2), dropped)[bad[0]]
            raise DataError(f"row {line}, column '{col}': value {vals[bad[0]]} is not finite")

    if dropped:
        warnings.warn(f"dropped {len(dropped)} rows with missing time or event")
    return RawTable(
        time=time,
        event=np.asarray(events, dtype=np.int64),
        features=features,
        kinds=kinds,
        feature_order=feature_order,
        n_dropped=len(dropped),
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
    for col in table.feature_order:
        vals = [table.features[col][i] for i in train_idx]
        if table.kinds[col] == "numeric":
            present = np.asarray([v for v in vals if v is not None], dtype=np.float64)
            median = float(np.median(present)) if present.size else 0.0
            filled = np.asarray(
                [median if v is None else v for v in vals], dtype=np.float64
            )
            std = float(filled.std())
            if std < 1e-8:
                warnings.warn(f"numeric column '{col}' is constant on the training split")
            transforms[col] = {
                "kind": "numeric",
                "mean": float(filled.mean()),
                "std": max(std, 1e-8),
                "median": median,
            }
        else:
            cats = sorted({str(v) for v in vals if v is not None})
            transforms[col] = {"kind": "categorical", "categories": cats}
    return transforms


def apply_transforms(table: RawTable, transforms: dict):
    """Build the design matrix for every row of the table."""
    n = table.n_rows
    columns, names = [], []
    unseen = 0
    for col, tr in transforms.items():
        vals = table.features[col]
        if tr["kind"] == "numeric":
            arr = np.asarray(
                [tr["median"] if v is None else v for v in vals], dtype=np.float64
            )
            columns.append((arr - tr["mean"]) / tr["std"])
            names.append(col)
        else:
            index = {c: k for k, c in enumerate(tr["categories"])}
            block = np.zeros((n, len(index)))
            for i, v in enumerate(vals):
                if v is None:
                    continue
                k = index.get(str(v))
                if k is None:
                    unseen += 1
                else:
                    block[i, k] = 1.0
            for c in tr["categories"]:
                names.append(f"{col}={c}")
            columns.extend(block.T)
    if unseen:
        warnings.warn(
            f"{unseen} categorical values outside the training vocabulary "
            "were encoded as all-zero rows"
        )
    X = np.column_stack(columns) if columns else np.zeros((n, 0))
    return X, names


def preprocess(table: RawTable, train_idx) -> SurvivalDataset:
    """Fit transforms on the training rows, then transform the whole table."""
    transforms = fit_transforms(table, train_idx)
    X, names = apply_transforms(table, transforms)
    return SurvivalDataset(
        X=X,
        t=table.time.copy(),
        e=table.event.copy(),
        feature_names=names,
        transforms=transforms,
    )


def make_splits(n: int, seed: int, n_splits: int = 5,
                with_replacement: bool = False) -> SplitSet:
    """Independent shuffled 60/20/20 partitions from one master seed.

    Sizes follow floor(0.6 n) / floor(0.2 n) / remainder. When
    ``with_replacement`` is set the training block of each split is
    resampled with replacement (size preserved) for sensitivity checks.
    """
    if n < 10:
        raise UsageError(f"need at least 10 rows to split, got {n}")
    seeds = np.random.SeedSequence(seed).spawn(n_splits)
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


def save_splits(split_set: SplitSet, path: str) -> None:
    """One line per split: role:comma-separated-indices triples."""
    with open(path, "w") as fh:
        fh.write(f"# seed {split_set.seed}\n")
        for sp in split_set.splits:
            parts = [
                role + ":" + ",".join(str(int(i)) for i in sp[role])
                for role in ("train", "val", "test")
            ]
            fh.write(" ".join(parts) + "\n")


def load_splits(path: str) -> SplitSet:
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except FileNotFoundError:
        raise DataError(f"split file not found: {path}")
    seed = 0
    splits = []
    for ln in lines:
        if ln.startswith("#"):
            tokens = ln[1:].split()
            if len(tokens) == 2 and tokens[0] == "seed":
                seed = int(tokens[1])
            continue
        sp = {}
        for part in ln.split():
            role, _, idx = part.partition(":")
            if role not in ("train", "val", "test"):
                raise DataError(f"split file {path}: unknown role '{role}'")
            sp[role] = np.asarray(
                [int(x) for x in idx.split(",") if x], dtype=np.int64
            )
        if set(sp) != {"train", "val", "test"}:
            raise DataError(f"split file {path}: a line is missing a role")
        splits.append(sp)
    if not splits:
        raise DataError(f"split file {path} contains no splits")
    return SplitSet(splits=splits, seed=seed)
