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

from .config import ExperimentConfig
from .errors import ConfigurationError, UsageError
from .tensor import Tensor, concat_cols, mlp, no_tape, scatter_rows, softmax_rows, take_rows, weighted_sum

# the most parameters a model may have; it is refused before any is allocated.
# Training one at the cap takes about 56 bytes a parameter, 5.6 GB: the flat
# store, its gradients and Adam's five buffers
MAX_PARAMETERS = 10**8


def _mlp_size(widths) -> int:
    """Weights and biases of an MLP with these layer widths."""
    return sum((n_in + 1) * n_out for n_in, n_out in zip(widths, widths[1:]))


@dataclass
class EncoderOutput:
    mu: Tensor
    log_var: Tensor | None
    z: Tensor


class Linear:
    """One affine layer's weights ``W`` and biases ``b``; ``mlp`` runs them
    and ``Model`` binds them to its store."""

    def __init__(self, n_in: int, n_out: int, name: str):
        self.W = Tensor(np.zeros((n_in, n_out)), requires_grad=True)
        self.b = Tensor(np.zeros((1, n_out)), requires_grad=True)
        self.name = name


class Mlp:
    """Stack of Linear layers, relu between them and a linear output (a relu
    output with ``relu_last``), as one tape node."""

    def __init__(self, widths, name: str, relu_last: bool = False):
        self.layers = [
            Linear(widths[i], widths[i + 1], f"{name}.{i}") for i in range(len(widths) - 1)
        ]
        self.relu_last = relu_last

    def __call__(self, x: Tensor) -> Tensor:
        return mlp(x, [(layer.W, layer.b) for layer in self.layers], relu_last=self.relu_last)


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


def survival_curve(probs: Tensor) -> Tensor:
    """``1 - cumsum`` of each row's T bin masses (not its tail mass), as one node."""
    def backward_fn(grad):
        # the adjoint of a running sum is a reverse running sum; the tail gets 0
        delta = np.zeros_like(probs.values)
        np.cumsum(-grad[:, ::-1], axis=1, out=delta[:, -2::-1])
        probs._accumulate(delta)

    values = np.cumsum(probs.values[:, :-1], axis=1)
    return Tensor._from_op(np.subtract(1.0, values, out=values), (probs,), "survival",
                           backward_fn)


class Encoder:
    """Feature encoder; variational mode has separate mu and log-var heads."""

    def __init__(self, config: ExperimentConfig, input_dim: int, name: str):
        self.variational = config.variational
        if self.variational:
            self.trunk = Mlp((input_dim, *config.encoder_hidden), f"{name}.trunk", relu_last=True)
            width_last = config.encoder_hidden[-1]
            self.mu_head = Linear(width_last, config.latent_dim, f"{name}.mu")
            self.logvar_head = Linear(width_last, config.latent_dim, f"{name}.logvar")
            self.layers = [*self.trunk.layers, self.mu_head, self.logvar_head]
        else:
            self.net = Mlp((input_dim, *config.encoder_hidden, config.latent_dim), f"{name}.net")
            self.layers = self.net.layers

    def __call__(self, x: Tensor, train: bool,
                 rng: np.random.Generator | None = None) -> EncoderOutput:
        if not self.variational:
            z = self.net(x)
            return EncoderOutput(mu=z, log_var=None, z=z)
        h = self.trunk(x)
        mu = mlp(h, [(self.mu_head.W, self.mu_head.b)])
        log_var = mlp(h, [(self.logvar_head.W, self.logvar_head.b)])
        if train:
            if rng is None:
                raise UsageError("training-mode encoding needs an rng")
            z, _ = reparameterize(mu, log_var, rng)
            return EncoderOutput(mu=mu, log_var=log_var, z=z)
        return EncoderOutput(mu=mu, log_var=log_var, z=mu)


class Model:
    """Full assembly: encoder(s), decoder(s), and one or K survival heads.

    ``config`` is a validated ExperimentConfig; ``n_bins`` is the fitted
    grid's count, which tied times can make smaller than ``config.n_bins``.

    Every weight and bias is a view of one flat buffer, ``flat``, in
    ``parameters()`` order; it starts at zero until ``initialize`` or
    ``load_state_dict`` fills it. Code that replaces weights writes into the
    buffer or the views and never rebinds a parameter's ``values``."""

    def __init__(self, config: ExperimentConfig, input_dim: int, n_bins: int):
        if input_dim < 1:
            raise ConfigurationError("the model needs at least one feature column")
        dec_widths = (config.latent_dim, *reversed(config.encoder_hidden), input_dim)
        head_widths = (config.latent_dim + input_dim, *config.head_hidden, n_bins + 1)
        n_heads = config.n_clusters if config.heads == "per-cluster" else 1
        # a variational encoder has a log-variance layer beside its mean layer
        log_var = (config.encoder_hidden[-1] + 1) * config.latent_dim if config.variational else 0
        view = _mlp_size((input_dim, *config.encoder_hidden, config.latent_dim)) + log_var
        size = ((2 if config.siamese else 1) * (view + _mlp_size(dec_widths))
                + n_heads * _mlp_size(head_widths))
        if size > MAX_PARAMETERS:
            # Python prints no integer of more than 4,300 digits
            count = size if size < 10**100 else "over 10**100"
            raise ConfigurationError(
                f"the model would have {count} parameters, more than the cap of {MAX_PARAMETERS}"
            )
        self.config = config
        self.encoders = [Encoder(config, input_dim, "enc1")]
        self.decoders = [Mlp(dec_widths, "dec1")]
        if config.siamese:
            self.encoders.append(Encoder(config, input_dim, "enc2"))
            self.decoders.append(Mlp(dec_widths, "dec2"))
        self.heads = [Mlp(head_widths, f"head{k}") for k in range(n_heads)]
        self.flat = np.zeros(sum(t.values.size for _, t in self.parameters()))
        self._bind()

    def _bind(self) -> None:
        """Make every parameter's ``values`` a view of its slice of ``flat``."""
        start = 0
        for _, t in self.parameters():
            size = t.values.size
            t.values = self.flat[start:start + size].reshape(t.values.shape)
            start += size

    def __setstate__(self, state: dict) -> None:
        # a deep copy or pickle turns every view into an array of its own
        self.__dict__.update(state)
        self._bind()

    def initialize(self) -> None:
        """He-initialized weights and zero biases, drawn from the config seed:
        view v's encoder and decoder from its children 2v-2 and 2v-1, head k
        from child 4+k, each module's layers in order."""
        children = np.random.SeedSequence(self.config.seed).spawn(4 + self.config.n_clusters)
        views = [m for pair in zip(self.encoders, self.decoders) for m in pair]
        for seed, module in [*zip(children, views), *zip(children[4:], self.heads)]:
            rng = np.random.default_rng(seed)
            for layer in module.layers:
                n_in, n_out = layer.W.values.shape
                layer.W.values[...] = rng.standard_normal((n_in, n_out)) * np.sqrt(2.0 / n_in)
                layer.b.values[...] = 0.0

    def encode(self, x: Tensor, view: int = 1, train: bool = False,
               rng: np.random.Generator | None = None) -> EncoderOutput:
        if view not in (1, 2):
            raise UsageError(f"view must be 1 or 2, got {view}")
        if view == 2 and not self.config.siamese:
            raise ConfigurationError("view 2 requested but the model is not Siamese")
        return self.encoders[view - 1](x, train=train, rng=rng)

    def decode(self, z: Tensor, view: int = 1) -> Tensor:
        return self.decoders[view - 1](z)

    def survival_input(self, x: Tensor, outputs) -> Tensor:
        """[z ; x] for one view, [(z1+z2)/2 ; x] for Siamese pairs."""
        zbar = weighted_sum([(out.z, 1.0) for out in outputs], 1.0 / len(outputs))
        return concat_cols(zbar, x)

    def survival_forward(self, h: Tensor, cluster_ids=None) -> "SurvivalDistribution":
        """One head for all rows, or (per-cluster) each row through its
        cluster's head: each group of rows is gathered, run through its head
        and scattered back; a lone head or a lone group runs on ``h`` itself."""
        if self.config.heads == "per-cluster":
            if cluster_ids is None:
                raise UsageError("per-cluster heads need cluster ids for routing")
            ids = np.asarray(cluster_ids, dtype=np.int64).ravel()
            if ids.size != h.values.shape[0]:
                raise UsageError("one cluster id per row is required")
            # zero rows run through head 0
            first, last = (ids.min(), ids.max()) if ids.size else (0, 0)
            if first < 0 or last >= len(self.heads):
                raise UsageError(f"cluster ids must lie in [0, {len(self.heads) - 1}]")
        if len(self.heads) == 1:
            return self._distribution(self.heads[0](h))
        if first == last:
            return self._distribution(self.heads[first](h))
        groups = [np.flatnonzero(ids == k) for k in range(len(self.heads))]
        used = [k for k, rows in enumerate(groups) if rows.size]
        parts = [self.heads[k](take_rows(h, groups[k])) for k in used]
        return self._distribution(scatter_rows(parts, [groups[k] for k in used], ids.size))

    def _distribution(self, logits: Tensor) -> "SurvivalDistribution":
        probs = softmax_rows(logits)
        return SurvivalDistribution(probs=probs, survival=survival_curve(probs))

    def latents(self, X: np.ndarray, view: int = 1) -> np.ndarray:
        """Eval-mode latent codes (mu for variational encoders) as numpy, untaped."""
        with no_tape():
            return self.encode(Tensor(X), view=view, train=False).mu.values

    def parameters(self) -> list:
        """(name, tensor) of every weight and bias: encoders, decoders, heads."""
        return [
            (f"{layer.name}.{kind}", t)
            for module in (*self.encoders, *self.decoders, *self.heads)
            for layer in module.layers
            for kind, t in (("W", layer.W), ("b", layer.b))
        ]

    def state_dict(self) -> dict:
        """A copy of every parameter array, by name."""
        return {name: t.values.copy() for name, t in self.parameters()}

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
            np.copyto(t.values, arr)


@dataclass
class SurvivalDistribution:
    """Row-stochastic bin probabilities and the implied survival curve."""

    probs: Tensor
    survival: Tensor
