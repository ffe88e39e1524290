"""Seeded loss instances for finite-difference gradient checking.

Each builder returns (build_loss, leaves): a zero-argument closure producing
the scalar loss Tensor from the current leaf values, plus the leaf Tensors
whose gradients get compared against central differences. The leaves are
package tensors; the weightings that reduce a node's output to a scalar are
reference-tape ops (``reftape.py``). Shared between the gradient test module
and the acceptance gate.
"""

from functools import partial
from types import SimpleNamespace

import numpy as np

from survstrat.config import ExperimentConfig, LossWeights
from survstrat.losses import (
    loss_clus,
    loss_ivcg,
    loss_ivcw,
    loss_iviw,
    loss_kld,
    loss_nll,
    loss_rank,
    loss_rec,
    soft_assign_tensor,
)
from survstrat.networks import EncoderOutput, SurvivalDistribution, reparameterize, survival_curve
from survstrat.tensor import Tensor, mlp, scatter_rows, softmax_rows, take_rows, weighted_sum
from survstrat.trainer import _contrastive_loss, _curriculum_losses, _survival_loss

from reftape import RefTensor, lift


def dist_from_logits(logits: Tensor) -> SurvivalDistribution:
    n_bins = logits.values.shape[1] - 1
    cum = np.zeros((n_bins + 1, n_bins))
    for s in range(n_bins):
        cum[s, s:] = 1.0
    probs = softmax_rows(logits)
    survival = RefTensor(np.ones((1, 1))) - lift(probs) @ RefTensor(cum)
    return SurvivalDistribution(probs=probs, survival=survival)


def decoding_to(x_hat: Tensor, variational: bool = True):
    """A stand-in model for the trainer's loss helpers: every view decodes to ``x_hat``."""
    return SimpleNamespace(config=SimpleNamespace(variational=variational),
                           decode=lambda z, view: x_hat)


def _survival_batch(rng, n, n_bins):
    logits = Tensor(rng.standard_normal((n, n_bins + 1)), requires_grad=True)
    bins = rng.integers(0, n_bins, size=n)
    events = rng.integers(0, 2, size=n)
    events[0] = 1
    events[1] = 0
    bins[0] = 0
    bins[1] = n_bins - 1
    return logits, bins, events


def case_rec(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 5))
    x_hat = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    return lambda: loss_rec(x, x_hat)[0], [x_hat]


def case_kld(seed):
    rng = np.random.default_rng(seed)
    mu = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    log_var = Tensor(rng.standard_normal((4, 3)) * 0.5, requires_grad=True)
    return lambda: loss_kld(mu, log_var)[0], [mu, log_var]


def case_clus(seed):
    rng = np.random.default_rng(seed)
    z = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    centers = rng.standard_normal((2, 3))
    assign = rng.integers(0, 2, size=5)
    return lambda: loss_clus(z, centers, assign)[0], [z]


def case_reparameterize(seed):
    rng = np.random.default_rng(seed)
    mu = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    log_var = Tensor(rng.standard_normal((4, 3)) * 0.5, requires_grad=True)
    eps = rng.standard_normal((4, 3))
    w = RefTensor(rng.standard_normal((4, 3)))
    return lambda: (reparameterize(mu, log_var, None, eps)[0] * w).sum(), [mu, log_var]


def case_soft_assign(seed):
    rng = np.random.default_rng(seed)
    z = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    centers = rng.standard_normal((3, 3))
    nu = (0.5, 1.0, 3.0)[seed % 3]
    w = RefTensor(rng.standard_normal((6, 3)))
    return lambda: (soft_assign_tensor(z, centers, nu) * w).sum(), [z]


def case_survival_curve(seed):
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.standard_normal((5, 5)), requires_grad=True)
    w = RefTensor(rng.standard_normal((5, 4)))
    return lambda: (survival_curve(softmax_rows(logits)) * w).sum(), [logits]


def case_weighted_sum(seed):
    rng = np.random.default_rng(seed)
    terms = [Tensor(rng.standard_normal((4, 2)), requires_grad=True) for _ in range(3)]
    weights = rng.standard_normal(3)
    w = RefTensor(rng.standard_normal((4, 2)))

    def build():
        out = lift(weighted_sum(list(zip(terms, weights)), 0.7))
        return (out * out * w).sum()

    return build, terms


def case_mean(seed):
    rng = np.random.default_rng(seed)
    x = RefTensor(rng.standard_normal((5, 3)), requires_grad=True)
    mask = (rng.random((5, 3)) < 0.6).astype(np.float64)
    mask[0, 0] = 1.0

    def build():
        sq = x * x
        return (lift(sq.mean()) + sq.mean(axis=0).mean() + sq.mean(axis=1).mean()
                + sq.mean(mask=mask))

    return build, [x]


def case_ivcg(seed):
    rng = np.random.default_rng(seed)
    z = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    events = np.array([0, 1, 1, 0, 1, 0])
    assign = np.array([0, 0, 1, 1, 1, 0])
    return lambda: loss_ivcg(z, events, assign, tau=0.7), [z]


def case_iviw(seed):
    rng = np.random.default_rng(seed)
    z1 = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    z2 = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    return lambda: loss_iviw(z1, z2, tau=0.5), [z1, z2]


def case_ivcw(seed):
    rng = np.random.default_rng(seed)
    z1 = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    z2 = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    centers = rng.standard_normal((3, 3))

    def build():
        q1 = soft_assign_tensor(z1, centers, nu=1.0)
        q2 = soft_assign_tensor(z2, centers, nu=1.0)
        return loss_ivcw(q1, q2, tau=0.5)

    return build, [z1, z2]


def case_nll(seed):
    rng = np.random.default_rng(seed)
    logits, bins, events = _survival_batch(rng, 5, 4)
    return lambda: loss_nll(dist_from_logits(logits), bins, events), [logits]


def case_rank(seed):
    rng = np.random.default_rng(seed)
    logits, bins, events = _survival_batch(rng, 6, 4)
    return lambda: loss_rank(dist_from_logits(logits), bins, events, 0.25), [logits]


def case_combined_cl(seed):
    rng = np.random.default_rng(seed)
    z1 = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    z2 = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    centers = rng.standard_normal((2, 3))
    events = np.array([0, 1, 1, 0, 1, 1])
    assign = np.array([0, 0, 1, 1, 0, 1])
    config = ExperimentConfig(
        siamese=True, weights=LossWeights(alpha_ivcg=0.8, alpha_iviw=0.5, alpha_ivcw=0.4, tau=0.6)
    )
    outs = [EncoderOutput(mu=z, log_var=None, z=z) for z in (z1, z2)]

    def build():
        return _contrastive_loss(outs, events, [assign, assign], [centers, centers], config)

    return build, [z1, z2]


def case_combined_surv(seed):
    rng = np.random.default_rng(seed)
    logits, bins, events = _survival_batch(rng, 6, 4)
    weights = LossWeights(beta=0.7, sigma_rank=0.3)

    def build():
        return _survival_loss(dist_from_logits(logits), bins, events, weights)

    return build, [logits]


def case_combined_instance(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 5))
    x_hat = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    mu = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    log_var = Tensor(rng.standard_normal((4, 3)) * 0.5, requires_grad=True)
    z = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    centers = rng.standard_normal((2, 3))
    assign = rng.integers(0, 2, size=4)
    weights = LossWeights(alpha_rec=0.9, alpha_kld=0.6, alpha_clus=1.3)
    out = EncoderOutput(mu=mu, log_var=log_var, z=z)

    def build():
        *_, per = _curriculum_losses(decoding_to(x_hat), Tensor(x), [out], [assign], [centers], weights)
        return per.mean()

    return build, [x_hat, mu, log_var, z]


def case_take_rows(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    rows = np.array([3, 0, 3, 1])  # row 3 twice: its gradient must add up
    w = RefTensor(rng.standard_normal((4, 3)))
    return lambda: (take_rows(a, rows) * w).sum(), [a]


def case_take_rows_permutation(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    rows = rng.permutation(5)  # distinct rows: the plain scatter
    w = RefTensor(rng.standard_normal((5, 3)))
    return lambda: (take_rows(a, rows) * w).sum(), [a]


def case_scatter_rows(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    rows = [np.array([3, 0]), np.array([1, 4, 2])]  # interleaved, out of order
    w = RefTensor(rng.standard_normal((5, 3)))
    return lambda: (scatter_rows([a, b], rows, 5) * w).sum(), [a, b]


def case_routed_nll(seed):
    """Rows split between two linear heads and scattered back to their places."""
    rng = np.random.default_rng(seed)
    h = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    heads = [Tensor(rng.standard_normal((3, 5)), requires_grad=True) for _ in range(2)]
    ids = np.array([1, 0, 1, 1, 0, 1])
    groups = [np.flatnonzero(ids == k) for k in range(2)]
    _, bins, events = _survival_batch(rng, 6, 4)

    def build():
        parts = [lift(take_rows(h, g)) @ w for g, w in zip(groups, heads)]
        return loss_nll(dist_from_logits(scatter_rows(parts, groups, 6)), bins, events)

    return build, [h, *heads]


def case_linear(seed, relu=False):
    """A one-layer ``mlp`` (the ``linear`` node, relu optional) feeding a
    second one, gradients to all."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    w1 = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b1 = Tensor(rng.standard_normal((1, 3)), requires_grad=True)
    w2 = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b2 = Tensor(rng.standard_normal((1, 2)), requires_grad=True)

    def build():
        out = lift(mlp(mlp(x, [(w1, b1)], relu), [(w2, b2)]))
        return (out * out).sum()

    return build, [x, w1, b1, w2, b2]


def case_mlp(seed, relu_last=False):
    """Three layers as one fused node, gradients to the input and every layer."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    widths = (4, 6, 3, 2)
    layers = [
        (Tensor(rng.standard_normal((a, b)), requires_grad=True),
         Tensor(rng.standard_normal((1, b)), requires_grad=True))
        for a, b in zip(widths, widths[1:])
    ]

    def build():
        out = lift(mlp(x, layers, relu_last))
        return (out * out).sum()

    return build, [x, *(p for layer in layers for p in layer)]


ALL_CASES = [
    ("rec", case_rec),
    ("kld", case_kld),
    ("clus", case_clus),
    ("reparameterize", case_reparameterize),
    ("soft_assign", case_soft_assign),
    ("survival_curve", case_survival_curve),
    ("weighted_sum", case_weighted_sum),
    ("mean", case_mean),
    ("ivcg", case_ivcg),
    ("iviw", case_iviw),
    ("ivcw", case_ivcw),
    ("nll", case_nll),
    ("rank", case_rank),
    ("combined_cl", case_combined_cl),
    ("combined_surv", case_combined_surv),
    ("combined_instance", case_combined_instance),
    ("take_rows", case_take_rows),
    ("take_rows_permutation", case_take_rows_permutation),
    ("scatter_rows", case_scatter_rows),
    ("routed_nll", case_routed_nll),
    ("linear", case_linear),
    ("linear_relu", partial(case_linear, relu=True)),
    ("mlp", case_mlp),
    ("mlp_relu_last", partial(case_mlp, relu_last=True)),
]
