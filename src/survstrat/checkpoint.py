"""Versioned JSON checkpoints: model weights, cluster state, preprocessing.

Format 2 stores every numeric array as one JSON object,
``{"dtype": "float64" | "int64", "shape": [...], "data": "<base64>"}``,
whose data is the array's little-endian bytes in C order, so values
round-trip bit-exactly and load without parsing float literals. Format 1
stored nested JSON lists; it is still read, through the same decoder.
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
from .trainer import TrainState, _new_state

FORMAT_VERSION = 2
READABLE_VERSIONS = (1, 2)

_DTYPES = {"float64": np.dtype("<f8"), "int64": np.dtype("<i8")}


@dataclass
class Checkpoint:
    """A restored training state plus the preprocessing it was fitted with."""

    state: TrainState
    transforms: dict


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


def save_checkpoint(state: TrainState, path: str, transforms: dict | None = None) -> None:
    def optional(array, dtype):
        return None if array is None else _encode(array, dtype)

    payload = {
        "version": FORMAT_VERSION,
        "config": state.config.to_dict(),
        "state": {
            name: _encode(values, "float64")
            for name, values in state.model.state_dict().items()
        },
        "clusters": [
            {
                "algorithm": state.config.clustering,
                "nu": state.config.nu,
                "centers": _encode(centers, "float64"),
            }
            for centers in state.centers
        ],
        "assignments": [_encode(a, "int64") for a in state.assignments],
        "grid_edges": _encode(state.grid.edges, "float64"),
        "train_times": optional(state.train_times, "float64"),
        "train_events": optional(state.train_events, "int64"),
        "transforms": transforms or {},
        # derived, kept for readers of the file; load_checkpoint checks it
        "feature_names": column_names(transforms or {}),
        "stage": state.stage,
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
    state = _new_state(config, _infer_input_dim(params, config), TimeGrid(edges))
    state.model.load_state_dict(params)
    stage = payload.get("stage", 0)
    if type(stage) is not int:
        raise ConfigurationError(f"checkpoint field 'stage' must be an integer, got {stage!r}")
    state.stage = stage
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
    n_train = None if state.train_times is None else state.train_times.size
    state.centers, state.assignments = _read_clusters(payload, config, n_train)
    transforms = payload.get("transforms", {})
    names = payload.get("feature_names", [])
    if not isinstance(transforms, dict) or not isinstance(names, list):
        raise ConfigurationError(
            "checkpoint fields 'transforms' and 'feature_names' must be an object and a list"
        )
    for col, tr in transforms.items():
        _check_transform(col, tr)
    produced = column_names(transforms)
    if names and names != produced:
        raise ConfigurationError(
            f"checkpoint feature mismatch: its transforms produce {len(produced)} columns "
            f"({produced[:4]}...), its feature_names list {len(names)} ({names[:4]}...)"
        )
    return Checkpoint(state=state, transforms=transforms)


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


def _read_clusters(payload: dict, config: ExperimentConfig, n_train: int | None) -> tuple:
    """Each view's cluster centers and assignments, from the "clusters" and
    "assignments" fields, which hold one entry per view."""
    assignments = payload.get("assignments", [])
    clusters = payload.get("clusters", [])
    if not isinstance(assignments, list) or not isinstance(clusters, list):
        raise ConfigurationError("checkpoint fields 'clusters' and 'assignments' must be lists")
    n_views = 2 if config.siamese else 1
    if len(clusters) != n_views or len(assignments) != n_views:
        raise ConfigurationError(
            f"checkpoint needs one cluster entry and one assignment list per view ({n_views}), "
            f"got {len(clusters)} and {len(assignments)}"
        )
    all_centers, all_labels = [], []
    # format 1 also wrote a per-cluster "assignments" copy; it is ignored
    for v, (entry, value) in enumerate(zip(clusters, assignments)):
        if not isinstance(entry, dict) or "centers" not in entry:
            raise ConfigurationError(f"checkpoint cluster entry {v} needs 'centers'")
        centers = _decode(entry["centers"], "float64", f"clusters.{v}.centers")
        if centers.shape != (config.n_clusters, config.latent_dim):
            raise ConfigurationError(
                f"cluster centers have shape {centers.shape}, expected "
                f"({config.n_clusters}, {config.latent_dim})"
            )
        labels = _decode(value, "int64", f"assignments.{v}")
        if labels.ndim != 1 or (n_train is not None and labels.size != n_train):
            raise ConfigurationError(
                f"checkpoint field 'assignments.{v}' has shape {labels.shape}, "
                f"expected one id per training row ({n_train})"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= config.n_clusters):
            raise ConfigurationError(
                f"checkpoint field 'assignments.{v}' holds cluster ids outside "
                f"[0, {config.n_clusters - 1}]"
            )
        if type(entry.get("nu", 1.0)) not in (int, float):
            raise ConfigurationError(f"checkpoint field 'clusters.{v}.nu' must be a number")
        all_centers.append(centers)
        all_labels.append(labels)
    return all_centers, all_labels


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
