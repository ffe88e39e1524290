"""Versioned JSON checkpoints of a fitted model: weights, frozen cluster
centers, time grid, training distribution and preprocessing.

Formats 2 and 3 store every numeric array as one JSON object,
``{"dtype": "float64" | "int64", "shape": [...], "data": "<base64>"}``,
whose data is the array's little-endian bytes in C order, so values
round-trip bit-exactly and load without parsing float literals. Format 1
stored nested JSON lists. Format 3 drops the training assignments and the
stage counter, which no scorer reads; all three are read by one decoder,
which ignores those fields of older files.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass
from math import prod

import numpy as np

from .config import ExperimentConfig, _is_number
from .data import column_names
from .errors import ConfigurationError, read_json
from .metrics import TimeGrid
from .networks import Model
from .trainer import TrainState

FORMAT_VERSION = 3
READABLE_VERSIONS = (1, 2, 3)

_DTYPES = {"float64": np.dtype("<f8"), "int64": np.dtype("<i8")}


@dataclass
class Checkpoint:
    """A fitted model, ready to score, plus the preprocessing it was fitted with."""

    state: TrainState
    transforms: dict
    columns: dict | None = None  # the data's {"time": name, "event": name}; None in older files


def _encode(array, dtype: str) -> dict:
    """One array as a format-2 blob of its little-endian bytes."""
    arr = np.asarray(array, dtype=_DTYPES[dtype])
    return {
        "dtype": dtype,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _decode(value, dtype: str, field: str) -> np.ndarray:
    """A format-2 blob or a format-1 nested list as a fresh ``dtype`` array.

    Anything else, or a blob or list that does not hold exactly one
    ``dtype`` array, raises ConfigurationError naming ``field``."""
    def bad(why: str) -> ConfigurationError:
        return ConfigurationError(f"checkpoint field '{field}' {why}")

    if isinstance(value, dict):
        if set(value) != {"dtype", "shape", "data"}:
            raise bad("must be an array blob with keys dtype, shape and data")
        if value["dtype"] != dtype:
            raise bad(f"has dtype {value['dtype']!r}, expected {dtype!r}")
        shape = value["shape"]
        if not isinstance(shape, list) or not all(
            type(n) is int and n >= 0 for n in shape
        ):
            raise bad(f"has shape {shape!r}, expected a list of non-negative integers")
        if not isinstance(value["data"], str):
            raise bad("has data that is not a base64 string")
        try:
            raw = base64.b64decode(value["data"], validate=True)
        except (binascii.Error, ValueError):
            raise bad("has data that is not valid base64")
        item = _DTYPES[dtype].itemsize
        if len(raw) != prod(shape) * item:
            raise bad(f"holds {len(raw)} bytes, shape {shape} needs {prod(shape) * item}")
        return np.frombuffer(raw, dtype=_DTYPES[dtype]).reshape(shape).astype(dtype)
    if not isinstance(value, list):
        raise bad(f"must be an array, got {type(value).__name__}")
    try:
        arr = np.array(value)
    except ValueError:
        raise bad("is a ragged list")
    if arr.dtype.kind not in "if":
        # bools, strings, nulls and integers beyond int64; [] parses as float64
        raise bad("must hold only numbers")
    if dtype == "int64" and arr.dtype.kind == "f" and not (
        (np.abs(arr) < 2.0 ** 63).all() and (arr == np.round(arr)).all()
    ):
        raise bad("holds values that are not int64 integers")
    return arr.astype(dtype)


def save_checkpoint(state: TrainState, path: str, transforms: dict | None = None,
                    columns: dict | None = None) -> None:
    def optional(array, dtype):
        return None if array is None else _encode(array, dtype)

    payload = {
        "version": FORMAT_VERSION,
        "config": state.config.to_dict(),
        "state": {
            name: _encode(values, "float64")
            for name, values in state.model.state_dict().items()
        },
        "clusters": [{"centers": _encode(centers, "float64")} for centers in state.centers],
        "grid_edges": _encode(state.grid.edges, "float64"),
        "train_times": optional(state.train_times, "float64"),
        "train_events": optional(state.train_events, "int64"),
        "transforms": transforms or {},
        "columns": columns,
    }
    # dumps uses the C encoder, json.dump the pure-Python one; the bytes are equal
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))


def load_checkpoint(path: str) -> Checkpoint:
    payload = read_json(path, "checkpoint file")
    if not isinstance(payload, dict):
        raise ConfigurationError(f"checkpoint {path} must hold a JSON object")
    version = payload.get("version")
    if version not in READABLE_VERSIONS or type(version) is not int:
        raise ConfigurationError(
            f"checkpoint format version {version!r} is not supported "
            f"(expected one of {', '.join(map(str, READABLE_VERSIONS))})"
        )
    missing = [k for k in ("config", "state", "grid_edges") if k not in payload]
    if missing:
        raise ConfigurationError(f"checkpoint is missing keys: {', '.join(missing)}")
    config = ExperimentConfig.from_dict(payload["config"])
    config.validate()
    if not isinstance(payload["state"], dict):
        raise ConfigurationError("checkpoint field 'state' must map parameter names to arrays")
    params = {
        name: _decode(value, "float64", f"state.{name}")
        for name, value in payload["state"].items()
    }
    edges = _decode(payload["grid_edges"], "float64", "grid_edges")
    if edges.ndim != 1:
        raise ConfigurationError(
            f"checkpoint field 'grid_edges' has shape {edges.shape}, expected 1-D"
        )
    width, grid = _infer_input_dim(params, config), TimeGrid(edges)
    state = TrainState(model=Model(config, width, grid.n_bins), config=config, grid=grid)
    state.model.load_state_dict(params)
    times, events = payload.get("train_times"), payload.get("train_events")
    if (times is None) != (events is None):
        raise ConfigurationError(
            "checkpoint fields 'train_times' and 'train_events' must both be arrays or both null"
        )
    if times is not None:
        state.train_times = _decode(times, "float64", "train_times")
        state.train_events = _decode(events, "int64", "train_events")
        if state.train_times.ndim != 1 or state.train_events.shape != state.train_times.shape:
            raise ConfigurationError(
                f"checkpoint fields 'train_times' and 'train_events' have shapes "
                f"{state.train_times.shape} and {state.train_events.shape}, "
                "expected two 1-D arrays of one length"
            )
    state.centers = _read_centers(payload, config)
    # older files' fields are ignored: "assignments", "stage", "feature_names" and
    # each cluster's "algorithm", "nu" and "assignments"
    transforms = payload.get("transforms", {})
    if not isinstance(transforms, dict):
        raise ConfigurationError("checkpoint field 'transforms' must be an object")
    for col, tr in transforms.items():
        _check_transform(col, tr)
    produced = column_names(transforms)
    if produced and len(produced) != width:
        raise ConfigurationError(f"checkpoint feature mismatch: its transforms produce {len(produced)} "
                                 f"columns ({produced[:4]}...), its encoder takes {width}")
    columns = payload.get("columns")
    if columns is not None and not (isinstance(columns, dict) and set(columns) == {"time", "event"}
                                    and all(isinstance(c, str) for c in columns.values())):
        raise ConfigurationError("checkpoint field 'columns' must map 'time' and 'event' to column names")
    return Checkpoint(state=state, transforms=transforms, columns=columns)


def _check_transform(col: str, tr) -> None:
    """A column's preprocessing entry must be numeric, with a finite mean and
    median and a finite std > 0, or categorical, with a list of strings."""
    kind = tr.get("kind") if isinstance(tr, dict) else None
    if kind == "numeric":
        stats = [tr.get(k) for k in ("mean", "std", "median")]
        if all(map(_is_number, stats)) and stats[1] > 0:
            return
        why = "needs a finite mean and median and a finite std > 0"
    elif kind == "categorical":
        cats = tr.get("categories")
        if isinstance(cats, list) and all(isinstance(c, str) for c in cats):
            return
        why = "needs a list of strings in 'categories'"
    else:
        why = "must have kind 'numeric' or 'categorical'"
    raise ConfigurationError(f"checkpoint transform for column {col!r} {why}")


def _read_centers(payload: dict, config: ExperimentConfig) -> list:
    """Each view's frozen cluster centers, from the "clusters" field, which
    holds one entry per view."""
    clusters = payload.get("clusters", [])
    n_views = 2 if config.siamese else 1
    if not isinstance(clusters, list) or len(clusters) != n_views:
        raise ConfigurationError(
            f"checkpoint field 'clusters' must be a list of one entry per view ({n_views})"
        )
    all_centers = []
    for v, entry in enumerate(clusters):
        if not isinstance(entry, dict) or "centers" not in entry:
            raise ConfigurationError(f"checkpoint cluster entry {v} needs 'centers'")
        centers = _decode(entry["centers"], "float64", f"clusters.{v}.centers")
        if centers.shape != (config.n_clusters, config.latent_dim):
            raise ConfigurationError(
                f"cluster centers have shape {centers.shape}, expected "
                f"({config.n_clusters}, {config.latent_dim})"
            )
        all_centers.append(centers)
    return all_centers


def _infer_input_dim(params: dict, config: ExperimentConfig) -> int:
    """Recover the input width from the first encoder layer's weight matrix."""
    key = "enc1.trunk.0.W" if config.variational else "enc1.net.0.W"
    if key not in params:
        raise ConfigurationError("checkpoint has no encoder weights to size the model")
    if params[key].ndim != 2:
        raise ConfigurationError(
            f"checkpoint parameter '{key}' has shape {params[key].shape}, expected a matrix"
        )
    return params[key].shape[0]
