"""Versioned JSON checkpoints: model weights, cluster state, preprocessing."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .clustering import ClusterModel
from .config import ExperimentConfig
from .errors import ConfigurationError
from .metrics import TimeGrid
from .trainer import TrainState, _new_state

FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    """A restored training state plus the preprocessing it was fitted with."""

    state: TrainState
    transforms: dict
    feature_names: list


def save_checkpoint(state: TrainState, path: str, transforms: dict | None = None,
                    feature_names: list | None = None) -> None:
    payload = {
        "version": FORMAT_VERSION,
        "config": state.config.to_dict(),
        "state": state.model.state_dict(),
        "clusters": [
            {
                "algorithm": cm.algorithm,
                "nu": cm.nu,
                "centers": cm.centers.tolist(),
            }
            for cm in state.cluster_models
        ],
        "assignments": [np.asarray(a).tolist() for a in state.assignments],
        "grid_edges": state.grid.edges.tolist(),
        "train_times": state.train_times.tolist() if state.train_times is not None else None,
        "train_events": state.train_events.tolist() if state.train_events is not None else None,
        "transforms": transforms or {},
        "feature_names": list(feature_names or []),
        "stage": state.stage,
    }
    # dumps uses the C encoder, json.dump the pure-Python one; the bytes are equal
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"checkpoint file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"checkpoint {path} is not valid JSON: {exc}")
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"checkpoint format version {version!r} is not supported "
            f"(expected {FORMAT_VERSION})"
        )
    missing = [k for k in ("config", "state", "grid_edges") if k not in payload]
    if missing:
        raise ConfigurationError(f"checkpoint is missing keys: {', '.join(missing)}")
    config = ExperimentConfig.from_dict(payload["config"])
    config.validate()
    grid = TimeGrid(np.asarray(payload["grid_edges"], dtype=np.float64))
    state = _new_state(config, _infer_input_dim(payload["state"], config), grid)
    state.model.load_state_dict(payload["state"])
    state.stage = int(payload.get("stage", 0))
    # format 1 also wrote a per-cluster "assignments" copy; it is ignored
    state.assignments = [
        np.asarray(a, dtype=np.int64) for a in payload.get("assignments", [])
    ]
    clusters = payload.get("clusters", [])
    if len(clusters) != len(state.assignments):
        raise ConfigurationError("checkpoint needs one assignment list per cluster entry")
    for entry, assignments in zip(clusters, state.assignments):
        centers = np.asarray(entry["centers"], dtype=np.float64)
        if centers.ndim != 2 or centers.shape[1] != config.latent_dim:
            raise ConfigurationError(
                f"cluster centers have shape {centers.shape}, expected "
                f"(K, {config.latent_dim})"
            )
        state.cluster_models.append(
            ClusterModel(
                centers=centers,
                assignments=assignments.copy(),
                nu=float(entry.get("nu", 1.0)),
                algorithm=entry.get("algorithm", "kmeans"),
            )
        )
    if payload.get("train_times") is not None:
        state.train_times = np.asarray(payload["train_times"], dtype=np.float64)
        state.train_events = np.asarray(payload["train_events"], dtype=np.int64)
    return Checkpoint(
        state=state,
        transforms=payload.get("transforms", {}),
        feature_names=list(payload.get("feature_names", [])),
    )


def _infer_input_dim(state_dict: dict, config: ExperimentConfig) -> int:
    """Recover the input width from the first encoder layer's weight matrix."""
    key = "enc1.trunk.0.W" if config.variational else "enc1.net.0.W"
    if key not in state_dict:
        raise ConfigurationError("checkpoint has no encoder weights to size the model")
    return len(np.asarray(state_dict[key]))
