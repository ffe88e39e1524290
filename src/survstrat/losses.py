"""Training objectives, each differentiable through the tensor core.

Reconstruction, KL divergence, and cluster-distance losses come in scalar
and per-instance form (the per-instance vectors feed self-paced filtering).
The three contrastive losses follow the InfoNCE pattern with cosine
similarity and temperature tau; denominators include the anchor term.
Survival losses cover calibration (negative log-likelihood over time bins)
and discrimination (exponential ranking penalty). Every loss, weighted sum
and soft assignment is one tape node with a closed-form backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .tensor import Tensor, weighted_sum

_CLAMP = 1e-12


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


def _squared_error(a: Tensor, target: np.ndarray, op: str) -> tuple[Tensor, Tensor]:
    """Mean and per-instance node of the row sums of (a - target)^2 for a
    constant ``target``."""
    diff = a.values - target
    values = (diff * diff).sum(axis=1, keepdims=True)

    def backward_fn(grad):
        half = grad * diff
        a._accumulate(half + half)

    per_instance = Tensor._from_op(values, (a,), op, backward_fn)
    return per_instance.mean(), per_instance


def loss_rec(x, x_hat: Tensor) -> tuple[Tensor, Tensor]:
    """Squared reconstruction error: scalar mean and per-instance row norms."""
    target = x.values if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    return _squared_error(x_hat, target, "loss_rec")


def loss_kld(mu: Tensor, log_var: Tensor) -> tuple[Tensor, Tensor]:
    """KL(q || N(0, I)) per instance: 0.5 * sum(mu^2 + sigma^2 - 1 - log sigma^2)."""
    m, lv = mu.values, log_var.values
    with np.errstate(over="ignore"):
        var = np.exp(lv)
    values = (((m * m + var) - 1.0) - lv).sum(axis=1, keepdims=True) * 0.5

    # one accumulate per use of mu and log_var, so the sums round as composed
    def backward_fn(grad):
        g = grad * 0.5
        if mu.requires_grad:
            half = g * m
            mu._accumulate(half)
            mu._accumulate(half)
        if log_var.requires_grad:
            log_var._accumulate(-g)
            log_var._accumulate(g * var)

    per_instance = Tensor._from_op(values, (mu, log_var), "loss_kld", backward_fn)
    return per_instance.mean(), per_instance


def loss_clus(z: Tensor, centers: np.ndarray, assignments) -> tuple[Tensor, Tensor]:
    """Squared distance from each latent to its assigned (frozen) center."""
    assigned = np.asarray(centers, dtype=np.float64)[np.asarray(assignments, dtype=np.int64)]
    return _squared_error(z, assigned, "loss_clus")


def average_views(parts):
    """Mean of per-view loss tensors (scalars or per-instance vectors)."""
    return weighted_sum([(p, 1.0) for p in parts], 1.0 / len(parts))


def _unit_rows(x: np.ndarray):
    """Rows over their norms floored at 1e-12, and the map from d/du to d/dx."""
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    floored = np.maximum(norms, _CLAMP)
    u = x / floored

    def grad(du):
        # the radial part goes only where the norm is above the floor
        return (du - u * ((du * u).sum(axis=1, keepdims=True) * (norms > _CLAMP))) / floored

    return u, grad


def _shifted_exp(s: np.ndarray, axis: int):
    """exp(s - max) along ``axis`` written over ``s``; the max and the sums."""
    shift = s.max(axis=axis, keepdims=True)
    s -= shift
    np.exp(s, out=s)
    return shift, s.sum(axis=axis, keepdims=True)


def loss_ivcg(z: Tensor, events, assignments, tau: float) -> Tensor:
    """Cluster-guided InfoNCE for censored anchors.

    Every censored patient i is pulled toward each uncensored patient of its
    own cluster against a denominator over the whole batch (anchor included);
    the summed terms are divided by the number of censored anchors. Only the
    anchor rows A with a positive carry weight, so the similarities are the
    |A| x n block u_A u^T / tau.
    """
    if tau <= 0:
        raise ConfigurationError(f"tau must be positive, got {tau}")
    events = np.asarray(events).ravel()
    assignments = np.asarray(assignments).ravel()
    censored = events == 0
    uncensored = events == 1
    n_cens = int(censored.sum())
    _, cluster = np.unique(assignments, return_inverse=True)
    n_pos = censored * np.bincount(cluster, weights=uncensored)[cluster]
    if n_cens == 0 or n_pos.sum() == 0:
        return Tensor(np.zeros((1, 1)))
    # cluster-by-row indicators: the positives summed over all anchors are
    # sum_k (censored u of cluster k) . (uncensored u of cluster k) / tau
    groups = (cluster == np.arange(cluster.max() + 1)[:, None]).astype(np.float64)
    anchor_groups, positive_groups = groups * (censored / n_cens), groups * uncensored
    u, u_grad = _unit_rows(z.values)
    anchors = np.flatnonzero(n_pos)
    u_a = u[anchors]
    # one |A| x n buffer for the sims and their exp (a gemm; u @ u.T is a slower syrk)
    e = u_a @ u.T
    e *= 1.0 / tau
    shift, total = _shifted_exp(e, 1)
    # zeros off the anchors keep the full batch's summation order, so the value is unchanged
    lse = np.zeros(n_pos.size)
    lse[anchors] = (shift + np.log(total)).ravel()
    anchor_sum = anchor_groups @ u
    positive_sum = positive_groups @ u
    values = np.array([[(lse * n_pos).sum() * (1.0 / n_cens)
                        - (anchor_sum * positive_sum).sum() * (1.0 / tau)]])

    def backward_fn(grad):
        g = grad[0, 0] / tau
        # d loss / d sims on the anchor rows: the softmax times n_pos, in place
        d_sims = e
        d_sims /= total
        d_sims *= (n_pos[anchors] * (g / n_cens))[:, None]
        du = d_sims.T @ u_a
        du[anchors] += d_sims @ u
        du -= g * (anchor_groups.T @ positive_sum + positive_groups.T @ anchor_sum)
        z._accumulate(u_grad(du))

    return Tensor._from_op(values, (z,), "loss_ivcg", backward_fn)


def _paired_nce(a: Tensor, b: Tensor, tau: float, cols: bool = False) -> Tensor:
    """Symmetric InfoNCE, sum_i [lse_j(s_ij) + lse_j(s_ji) - 2 s_ii] / n, over
    the cosine similarities s = u v^T / tau of the unit rows (or, with
    ``cols``, columns) of ``a`` and ``b``; d loss / d s is (row softmax +
    column softmax - 2 I) / n."""
    flip = (lambda m: m.T) if cols else (lambda m: m)
    u, u_grad = _unit_rows(np.ascontiguousarray(flip(a.values)))
    v, v_grad = _unit_rows(np.ascontiguousarray(flip(b.values)))
    n = u.shape[0]
    sims = u @ v.T
    sims *= 1.0 / tau
    diag = (u * v).sum(axis=1, keepdims=True) * (1.0 / tau)
    # two n x n buffers: the row-shifted exp, and the column-shifted exp over sims
    row_e = sims.copy()
    row_shift, row_total = _shifted_exp(row_e, 1)
    col_e = sims
    col_shift, col_total = _shifted_exp(col_e, 0)
    row_lse = row_shift + np.log(row_total)
    col_lse = col_shift + np.log(col_total)
    values = np.array([[((row_lse - diag) + (col_lse.T - diag)).sum() * (1.0 / n)]])

    def backward_fn(grad):
        # the two softmaxes, normalised in place, summed into the row buffer
        d_sims = row_e
        d_sims /= row_total
        d_sims += np.divide(col_e, col_total, out=col_e)
        d_sims.flat[::n + 1] -= 2.0
        d_sims *= grad[0, 0] / (n * tau)
        if a.requires_grad:
            a._accumulate(flip(u_grad(d_sims @ v)))
        if b.requires_grad:
            b._accumulate(flip(v_grad(d_sims.T @ u)))

    return Tensor._from_op(values, (a, b), "paired_nce", backward_fn)


def loss_iviw(z1: Tensor, z2: Tensor, tau: float) -> Tensor:
    """Symmetric cross-view InfoNCE pairing each patient with itself."""
    if tau <= 0:
        raise ConfigurationError(f"tau must be positive, got {tau}")
    if z1.values.shape[0] != z2.values.shape[0]:
        raise ConfigurationError("both views must contain the same patients")
    return _paired_nce(z1, z2, tau)


def loss_ivcw(q1: Tensor, q2: Tensor, tau: float) -> Tensor:
    """Cross-view InfoNCE over cluster soft-assignment column vectors."""
    if tau <= 0:
        raise ConfigurationError(f"tau must be positive, got {tau}")
    k1, k2 = q1.values.shape[1], q2.values.shape[1]
    if k1 != k2:
        raise ConfigurationError(f"views disagree on cluster count: {k1} vs {k2}")
    return _paired_nce(q1, q2, tau, cols=True)


def soft_assign_tensor(z: Tensor, centers: np.ndarray, nu: float = 1.0) -> Tensor:
    """Differentiable Student's-t soft assignment, rows normalized to 1."""
    if nu <= 0:
        raise ConfigurationError(f"nu must be positive, got {nu}")
    c = np.asarray(centers, dtype=np.float64)
    zv, ct = z.values, c.T.copy()
    if zv.shape[1] != c.shape[1]:
        raise ConfigurationError(f"soft_assign: column counts differ, {zv.shape} vs {c.shape}")
    # squared distances with tiny negatives from cancellation clipped to zero
    d2 = ((zv * zv).sum(axis=1, keepdims=True) - (zv @ ct) * 2.0) + (c * c).sum(axis=1)
    base = np.maximum(d2, 0.0) * (1.0 / nu) + 1.0
    power = -(nu + 1.0) / 2.0
    unnorm = np.exp(np.log(base) * power)
    total = unnorm.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = unnorm / total

    def backward_fn(grad):
        d_unnorm = grad / total + (-grad * unnorm / total ** 2).sum(axis=1, keepdims=True)
        d_d2 = (d_unnorm * unnorm) * power / base * (1.0 / nu) * (d2 > 0.0)
        # the |z|^2 term's two uses of z, then the cross term's, as composed
        d_self = d_d2.sum(axis=1, keepdims=True) * zv
        z._accumulate(d_self)
        z._accumulate(d_self)
        z._accumulate((-d_d2 * 2.0) @ ct.T)

    return Tensor._from_op(values, (z,), "soft_assign", backward_fn)


def loss_nll(dist, bins, events) -> Tensor:
    """Discrete-time likelihood: event mass at the event bin for uncensored
    patients, survival past the censoring bin for censored ones."""
    bins = np.asarray(bins, dtype=np.int64).ravel()
    events = np.asarray(events).ravel()
    n = bins.size
    rows = np.arange(n)
    died = events == 1
    picks = [(dist.probs, rows[died], bins[died]), (dist.survival, rows[~died], bins[~died])]
    floored = [np.maximum(t.values[r, c], _CLAMP) for t, r, c in picks]
    values = np.array([[(np.log(floored[0]).sum() + np.log(floored[1]).sum()) * (-1.0 / n)]])

    def backward_fn(grad):
        g = grad[0, 0] * (-1.0 / n)
        for (t, r, c), f in zip(picks, floored):
            if t.requires_grad:
                delta = np.zeros_like(t.values)
                delta[r, c] = g / f * (t.values[r, c] > _CLAMP)
                t._accumulate(delta)

    return Tensor._from_op(values, (dist.probs, dist.survival), "loss_nll", backward_fn)


def loss_rank(dist, bins, events, sigma_rank: float) -> Tensor:
    """Exponential ranking penalty over comparable pairs.

    For pairs with e_i = 1 and bin_i < bin_j, penalize the anchor's own
    survival at its event bin exceeding the later patient's survival at the
    same bin. Normalized by the number of comparable pairs.

    The pair sum factorises per anchor bin b = bin_i:
    sum_j exp((S_i(b) - S_j(b)) / sigma) = exp(S_i(b) / sigma) * R(b) with
    R(b) = sum_{j: bin_j > b} exp(-S_j(b) / sigma), so the loss is O(n*T).
    R is taken per bin over the later rows only, shifted by their max.
    """
    if sigma_rank <= 0:
        raise ConfigurationError(f"sigma_rank must be positive, got {sigma_rank}")
    bins = np.asarray(bins, dtype=np.int64).ravel()
    events = np.asarray(events).ravel()
    n, n_bins = dist.survival.shape
    # later[b] = number of rows whose bin is after b
    later = n - np.cumsum(np.bincount(bins, minlength=n_bins))
    anchors = np.flatnonzero((events == 1) & (later[bins] > 0))
    if anchors.size == 0:
        return Tensor(np.zeros((1, 1)))
    at = bins[anchors]
    n_pairs = float(later[at].sum())
    x = dist.survival.values * (-1.0 / sigma_rank)
    masked = np.where(bins[:, None] > np.arange(n_bins), x, -np.inf)
    shift = np.where(later > 0, masked.max(axis=0), 0.0)
    terms = np.exp(masked - shift)
    # R(b) / exp(shift(b)); 1 where no row is later, so its unused log is 0
    r = np.where(later > 0, terms.sum(axis=0), 1.0)
    with np.errstate(over="ignore"):
        own = np.exp(np.log(r[at]) - (x[anchors, at] - shift[at]))
    values = np.array([[own.sum() / n_pairs]])

    def backward_fn(grad):
        g = grad[0, 0] / (sigma_rank * n_pairs)
        delta = terms * (np.bincount(at, weights=own, minlength=n_bins) * (-g) / r)
        delta[anchors, at] += g * own
        dist.survival._accumulate(delta)

    return Tensor._from_op(values, (dist.survival,), "loss_rank", backward_fn)


def combine_cl(weights: LossWeights, l_ivcg=None, l_iviw=None, l_ivcw=None) -> Tensor:
    """Weighted contrastive total: alpha_ivcg*IVCG + alpha_iviw*IVIW + alpha_ivcw*IVCW."""
    terms = [(loss, alpha) for loss, alpha in ((l_ivcg, weights.alpha_ivcg),
                                               (l_iviw, weights.alpha_iviw),
                                               (l_ivcw, weights.alpha_ivcw))
             if alpha and loss is not None]
    return weighted_sum(terms) if terms else Tensor(np.zeros((1, 1)))


def combine_surv(weights: LossWeights, l_nll: Tensor, l_rank: Tensor) -> Tensor:
    """Survival total: NLL + beta * ranking."""
    return weighted_sum([(l_nll, 1.0), (l_rank, weights.beta)])


def combine_instance(weights: LossWeights, rec_i: Tensor, kld_i, clus_i: Tensor) -> Tensor:
    """Per-instance curriculum loss; the KLD part is dropped when None."""
    kld_term = [] if kld_i is None else [(kld_i, weights.alpha_kld)]
    return weighted_sum([(rec_i, weights.alpha_rec), (clus_i, weights.alpha_clus)] + kld_term)
