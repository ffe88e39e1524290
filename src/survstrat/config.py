"""Experiment configuration and its loss weights: loading, exhaustive validation, hashing."""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace

from .clustering import SUPPORTED_ALGORITHMS
from .errors import ConfigurationError, read_json

HEAD_MODES = ("shared", "per-cluster")
# the most time bins a grid may have: its quantile levels are allocated from
# n_bins before any model exists
MAX_BINS = 10**6


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    # exact for ints too: an integer beyond the float range is not finite
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_widths(v) -> bool:
    return isinstance(v, list) and all(_is_int(w) and w >= 1 for w in v)


# what a field accepts, by its annotation; bool is never an int or a number,
# and the only tuple fields are the hidden-layer widths, shown as JSON lists
_KINDS = {
    "int": ("an integer", _is_int),
    "float": ("a finite number", _is_number),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "tuple": ("a list of positive integers", _is_widths),
}


def _typed(obj, prefix: str, problems: list):
    """``obj`` with each field whose value does not fit its annotation reset
    to its default; one message per such field is appended to ``problems``.
    Fields of other annotations (nested objects) are left to the caller."""
    defaults = type(obj)()
    bad = {}
    for f in fields(obj):
        if f.type not in _KINDS:
            continue
        kind, accepts = _KINDS[f.type]
        value = getattr(obj, f.name)
        value = list(value) if isinstance(value, tuple) else value
        if not accepts(value):
            problems.append(
                f"{prefix}{f.name} must be {kind}, got {type(value).__name__} {value!r}"
            )
            bad[f.name] = getattr(defaults, f.name)
    return replace(obj, **bad) if bad else obj


@dataclass
class LossWeights:
    """Objective weights plus the contrastive and ranking scales; their
    values are checked by ``ExperimentConfig.validate``."""

    alpha_rec: float = 1.0
    alpha_kld: float = 1.0
    alpha_clus: float = 1.0
    alpha_spl: float = 1.0
    alpha_cl: float = 1.0
    alpha_surv: float = 1.0
    alpha_ivcg: float = 1.0
    alpha_iviw: float = 0.0
    alpha_ivcw: float = 0.0
    beta: float = 1.0
    tau: float = 0.5
    sigma_rank: float = 0.1


@dataclass
class ExperimentConfig:
    """Everything one training run needs, serializable to and from JSON."""

    # data
    dataset_preset: str | None = None
    schema_file: str | None = None
    # architecture
    variational: bool = True
    siamese: bool = False
    heads: str = "shared"
    clustering: str = "kmeans"
    n_clusters: int = 2
    latent_dim: int = 16
    n_bins: int = 20
    nu: float = 1.0
    routing_view: int = 1
    encoder_hidden: tuple = (64, 32)
    head_hidden: tuple = (64,)
    # objectives
    weights: LossWeights = field(default_factory=LossWeights)
    # optimization
    learning_rate: float = 1e-3
    batch_size: int = 256
    pretrain_epochs: int = 100
    max_epochs: int = 200
    patience: int = 25
    early_stopping: bool = True
    spl_scope: str = "batch"
    seed: int = 0

    def validate(self) -> None:
        """Collect every violation and raise one single-line error naming them
        all. A field of the wrong type is reported as such and its value
        checks see the default instead."""
        problems = []
        checked = _typed(self, "", problems)
        if isinstance(self.weights, LossWeights):
            weights = _typed(self.weights, "weights.", problems)
        else:
            problems.append(
                f"weights must be an object of loss weights, got {type(self.weights).__name__}"
            )
            weights = LossWeights()
        checked = replace(checked, weights=weights)
        if checked.clustering == "spectral":
            problems.append(
                "clustering 'spectral' is excluded from this toolkit; "
                f"choose from {list(SUPPORTED_ALGORITHMS)}"
            )
        elif checked.clustering not in SUPPORTED_ALGORITHMS:
            problems.append(
                f"unknown clustering '{checked.clustering}'; choose from {list(SUPPORTED_ALGORITHMS)}"
            )
        if checked.heads not in HEAD_MODES:
            problems.append(f"heads must be one of {HEAD_MODES}, got '{checked.heads}'")
        if checked.n_clusters < 1:
            problems.append(f"n_clusters must be >= 1, got {checked.n_clusters}")
        if checked.latent_dim < 1:
            problems.append(f"latent_dim must be >= 1, got {checked.latent_dim}")
        if checked.n_bins < 1:
            problems.append(f"n_bins must be >= 1, got {checked.n_bins}")
        if checked.n_bins > MAX_BINS:
            problems.append(f"n_bins must be at most {MAX_BINS}, got {checked.n_bins}")
        if checked.nu <= 0:
            problems.append(f"nu must be positive, got {checked.nu}")
        if checked.routing_view not in (1, 2):
            problems.append(f"routing_view must be 1 or 2, got {checked.routing_view}")
        if checked.routing_view == 2 and not checked.siamese:
            problems.append("routing_view=2 requires siamese=true")
        if not checked.encoder_hidden or not checked.head_hidden:
            problems.append("encoder_hidden and head_hidden each need at least one layer")
        if checked.learning_rate <= 0:
            problems.append(f"learning_rate must be positive, got {checked.learning_rate}")
        if checked.batch_size < 1:
            problems.append(f"batch_size must be >= 1, got {checked.batch_size}")
        if checked.pretrain_epochs < 0 or checked.max_epochs < 0:
            problems.append("epoch counts cannot be negative")
        if checked.patience < 1:
            problems.append(f"patience must be >= 1, got {checked.patience}")
        if checked.seed < 0:
            problems.append(f"seed must be non-negative, got {checked.seed}")
        if checked.spl_scope not in ("batch", "dataset"):
            problems.append(f"spl_scope must be 'batch' or 'dataset', got '{checked.spl_scope}'")
        for f in fields(weights):
            value = getattr(weights, f.name)
            if f.name in ("tau", "sigma_rank"):
                if value <= 0:
                    problems.append(f"{f.name} must be positive, got {value}")
            elif value < 0:
                problems.append(f"{f.name} must be non-negative, got {value}")
        if not checked.siamese and (weights.alpha_iviw != 0 or weights.alpha_ivcw != 0):
            problems.append(
                "alpha_iviw and alpha_ivcw require a Siamese encoder pair; "
                "set them to 0 in single-encoder mode"
            )
        if problems:
            raise ConfigurationError(
                "invalid configuration: " + "; ".join(problems)
            )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["encoder_hidden"] = list(self.encoder_hidden)
        d["head_hidden"] = list(self.head_hidden)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Build from parsed JSON; types are checked later by ``validate``."""
        if not isinstance(d, dict):
            raise ConfigurationError(
                f"a configuration must be a JSON object, got {type(d).__name__}"
            )
        d = dict(d)
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(d) - known)
        if unknown:
            raise ConfigurationError(f"unknown configuration keys: {', '.join(map(repr, unknown))}")
        if "weights" in d and isinstance(d["weights"], dict):
            w = d["weights"]
            unknown_w = sorted(set(w) - set(LossWeights.__dataclass_fields__))
            if unknown_w:
                raise ConfigurationError(
                    f"unknown loss-weight keys: {', '.join(map(repr, unknown_w))}"
                )
            d["weights"] = LossWeights(**w)
        for key in ("encoder_hidden", "head_hidden"):
            if isinstance(d.get(key), list):
                d[key] = tuple(d[key])
        return cls(**d)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        return cls.from_dict(read_json(path, "config file"))

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]
