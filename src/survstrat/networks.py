"""Encoders, decoders, and discrete-time survival heads.

Encoders are deterministic or variational MLPs; the variational form
predicts (mu, log sigma^2) and samples z by reparameterization during
training while returning z = mu in eval mode. Siamese setups keep two
encoder/decoder pairs with independent parameters. Survival heads map
[latent ; raw features] to T+1 logits (T time bins plus a beyond-horizon
mass) whose row-softmax is a proper distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError
from .tensor import Tensor, concat_cols, concat_rows, linear, mlp, softmax_rows, take_rows, weighted_sum


@dataclass
class ModelConfig:
    input_dim: int
    latent_dim: int = 16
    n_bins: int = 20
    variational: bool = True
    siamese: bool = False
    head_mode: str = "shared"
    n_clusters: int = 2
    encoder_hidden: tuple = (64, 32)
    head_hidden: tuple = (64,)
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1 or self.latent_dim < 1 or self.n_bins < 1:
            raise ConfigurationError("input_dim, latent_dim, and n_bins must be positive")
        if self.head_mode not in ("shared", "ensemble"):
            raise ConfigurationError(f"unknown head_mode '{self.head_mode}'")
        if self.n_clusters < 1:
            raise ConfigurationError("n_clusters must be >= 1")
        if not self.encoder_hidden or not self.head_hidden:
            raise ConfigurationError("encoder and head MLPs need at least one hidden layer")


@dataclass
class EncoderOutput:
    mu: Tensor
    log_var: Tensor | None
    z: Tensor
    eps: np.ndarray | None = None


class Linear:
    """Affine layer with He-initialized weights and zero biases."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, name: str):
        scale = np.sqrt(2.0 / n_in)
        self.W = Tensor(rng.standard_normal((n_in, n_out)) * scale, requires_grad=True)
        self.b = Tensor(np.zeros((1, n_out)), requires_grad=True)
        self.name = name

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.W, self.b)

    def parameters(self):
        return [(f"{self.name}.W", self.W), (f"{self.name}.b", self.b)]


class Mlp:
    """Stack of Linear layers, relu between them and a linear output, as one tape node."""

    def __init__(self, widths, rng: np.random.Generator, name: str, activation="relu"):
        if len(widths) < 3:
            raise ConfigurationError("an MLP needs at least one hidden layer")
        if any(w < 1 for w in widths):
            raise ConfigurationError("all MLP layer widths must be positive")
        if activation != "relu":
            raise ConfigurationError(f"unsupported activation '{activation}'")
        self.layers = [
            Linear(widths[i], widths[i + 1], rng, f"{name}.{i}")
            for i in range(len(widths) - 1)
        ]

    def __call__(self, x: Tensor) -> Tensor:
        return mlp(x, [(layer.W, layer.b) for layer in self.layers])

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]


def reparameterize(mu: Tensor, log_var: Tensor, rng: np.random.Generator,
                   eps: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """z = mu + exp(log_var / 2) * eps with eps ~ N(0, I) held constant, as one node."""
    if mu.values.shape != log_var.values.shape:
        raise UsageError("mu and log_var must have the same shape")
    if eps is None:
        eps = rng.standard_normal(mu.values.shape)
    with np.errstate(over="ignore"):
        std = np.exp(log_var.values * 0.5)

    def backward_fn(grad):
        if mu.requires_grad:
            mu._accumulate(grad)
        if log_var.requires_grad:
            log_var._accumulate(grad * eps * std * 0.5)

    return Tensor._from_op(mu.values + std * eps, (mu, log_var), "reparameterize", backward_fn), eps


def survival_curve(probs: Tensor, cum: np.ndarray) -> Tensor:
    """``1 - probs @ cum`` as one node, for a constant ``cum``."""
    def backward_fn(grad):
        probs._accumulate(-grad @ cum.T)

    return Tensor._from_op(1.0 - probs.values @ cum, (probs,), "survival", backward_fn)


class Encoder:
    """Feature encoder; variational mode has separate mu and log-var heads."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator, name: str):
        self.variational = config.variational
        if self.variational:
            widths = (config.input_dim, *config.encoder_hidden)
            self.trunk = [
                Linear(widths[i], widths[i + 1], rng, f"{name}.trunk.{i}")
                for i in range(len(widths) - 1)
            ]
            width_last = config.encoder_hidden[-1]
            self.mu_head = Linear(width_last, config.latent_dim, rng, f"{name}.mu")
            self.logvar_head = Linear(width_last, config.latent_dim, rng, f"{name}.logvar")
        else:
            widths = (config.input_dim, *config.encoder_hidden, config.latent_dim)
            self.net = Mlp(widths, rng, f"{name}.net")

    def __call__(self, x: Tensor, train: bool,
                 rng: np.random.Generator | None = None,
                 eps: np.ndarray | None = None) -> EncoderOutput:
        if not self.variational:
            z = self.net(x)
            return EncoderOutput(mu=z, log_var=None, z=z)
        h = mlp(x, [(layer.W, layer.b) for layer in self.trunk], relu_last=True)
        mu = self.mu_head(h)
        log_var = self.logvar_head(h)
        if train:
            if rng is None and eps is None:
                raise UsageError("training-mode encoding needs an rng or fixed eps")
            z, eps = reparameterize(mu, log_var, rng, eps)
            return EncoderOutput(mu=mu, log_var=log_var, z=z, eps=eps)
        return EncoderOutput(mu=mu, log_var=log_var, z=mu)

    def parameters(self):
        if self.variational:
            params = [p for layer in self.trunk for p in layer.parameters()]
            return params + self.mu_head.parameters() + self.logvar_head.parameters()
        return self.net.parameters()


class Model:
    """Full assembly: encoder(s), decoder(s), and one or K survival heads."""

    def __init__(self, config: ModelConfig):
        self.config = config
        children = np.random.SeedSequence(config.seed).spawn(4 + config.n_clusters)
        rngs = [np.random.default_rng(s) for s in children]
        self.encoders = [Encoder(config, rngs[0], "enc1")]
        dec_widths = (
            config.latent_dim, *reversed(config.encoder_hidden), config.input_dim
        )
        self.decoders = [Mlp(dec_widths, rngs[1], "dec1")]
        if config.siamese:
            self.encoders.append(Encoder(config, rngs[2], "enc2"))
            self.decoders.append(Mlp(dec_widths, rngs[3], "dec2"))
        head_widths = (
            config.latent_dim + config.input_dim, *config.head_hidden, config.n_bins + 1
        )
        n_heads = config.n_clusters if config.head_mode == "ensemble" else 1
        self.heads = [
            Mlp(head_widths, rngs[4 + k], f"head{k}") for k in range(n_heads)
        ]
        # constant cumulative-sum matrix: survival_t = 1 - sum_{s<=t} prob_s
        self._cum = np.triu(np.ones((config.n_bins + 1, config.n_bins)))

    def encode(self, x: Tensor, view: int = 1, train: bool = False,
               rng: np.random.Generator | None = None,
               eps: np.ndarray | None = None) -> EncoderOutput:
        if view not in (1, 2):
            raise UsageError(f"view must be 1 or 2, got {view}")
        if view == 2 and not self.config.siamese:
            raise ConfigurationError("view 2 requested but the model is not Siamese")
        return self.encoders[view - 1](x, train=train, rng=rng, eps=eps)

    def decode(self, z: Tensor, view: int = 1) -> Tensor:
        return self.decoders[view - 1](z)

    def survival_input(self, x: Tensor, outputs) -> Tensor:
        """[z ; x] for one view, [(z1+z2)/2 ; x] for Siamese pairs."""
        zbar = weighted_sum([(out.z, 1.0) for out in outputs], 1.0 / len(outputs))
        return concat_cols(zbar, x)

    def survival_forward(self, h: Tensor, cluster_ids=None) -> "SurvivalDistribution":
        """One head for all rows, or (ensemble) each row through its cluster's head."""
        if self.config.head_mode == "shared":
            return self._distribution(self.heads[0](h))
        if cluster_ids is None:
            raise UsageError("ensemble heads need cluster ids for routing")
        ids = np.asarray(cluster_ids, dtype=np.int64).ravel()
        if ids.size != h.values.shape[0]:
            raise UsageError("one cluster id per row is required")
        if ids.min() < 0 or ids.max() >= len(self.heads):
            raise UsageError(
                f"cluster ids must lie in [0, {len(self.heads) - 1}]"
            )
        groups = [np.flatnonzero(ids == k) for k in range(len(self.heads))]
        stacked = concat_rows(
            [head(take_rows(h, rows)) for head, rows in zip(self.heads, groups) if rows.size]
        )
        # stacked row j holds original row order[j]; argsort inverts that
        order = np.concatenate(groups)
        return self._distribution(take_rows(stacked, np.argsort(order)))

    def head_distributions(self, h: Tensor) -> list:
        """Every head's distribution over every row of ``h``."""
        return [self._distribution(head(h)) for head in self.heads]

    def _distribution(self, logits: Tensor) -> "SurvivalDistribution":
        probs = softmax_rows(logits)
        return SurvivalDistribution(probs=probs, survival=survival_curve(probs, self._cum))

    def latents(self, X: np.ndarray, view: int = 1) -> np.ndarray:
        """Eval-mode latent codes (mu for variational encoders) as numpy."""
        return self.encode(Tensor(X), view=view, train=False).mu.values.copy()

    def parameters(self):
        params = []
        for enc in self.encoders:
            params.extend(enc.parameters())
        for dec in self.decoders:
            params.extend(dec.parameters())
        for head in self.heads:
            params.extend(head.parameters())
        return params

    def state_dict(self) -> dict:
        return {name: t.values.tolist() for name, t in self.parameters()}

    def load_state_dict(self, state: dict) -> None:
        for name, t in self.parameters():
            if name not in state:
                raise ConfigurationError(f"checkpoint is missing parameter '{name}'")
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != t.values.shape:
                raise ConfigurationError(
                    f"checkpoint parameter '{name}' has shape {arr.shape}, "
                    f"expected {t.values.shape}"
                )
            t.values = arr


@dataclass
class SurvivalDistribution:
    """Row-stochastic bin probabilities and the implied survival curve."""

    probs: Tensor
    survival: Tensor
