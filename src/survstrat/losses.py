"""Training objectives, each differentiable through the tensor core.

Reconstruction, KL divergence, and cluster-distance losses come in scalar
and per-instance form (the per-instance vectors feed self-paced filtering).
The three contrastive losses follow the InfoNCE pattern with cosine
similarity and temperature tau; denominators include the anchor term.
Survival losses cover calibration (negative log-likelihood over time bins)
and discrimination (exponential ranking penalty).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .tensor import (
    Tensor,
    logsumexp_rows,
    squared_distances,
    unit_rows,
)

_CLAMP = 1e-12


@dataclass
class LossWeights:
    """Objective weights plus the contrastive and ranking scales."""

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

    def validate(self, siamese: bool) -> None:
        if self.tau <= 0:
            raise ConfigurationError(f"tau must be positive, got {self.tau}")
        if self.sigma_rank <= 0:
            raise ConfigurationError(f"sigma_rank must be positive, got {self.sigma_rank}")
        for name in ("alpha_rec", "alpha_kld", "alpha_clus", "alpha_spl",
                     "alpha_cl", "alpha_surv", "alpha_ivcg", "alpha_iviw",
                     "alpha_ivcw", "beta"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if not siamese and (self.alpha_iviw != 0 or self.alpha_ivcw != 0):
            raise ConfigurationError(
                "alpha_iviw and alpha_ivcw require a Siamese encoder pair; "
                "set them to 0 in single-encoder mode"
            )


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def loss_rec(x, x_hat: Tensor) -> tuple[Tensor, Tensor]:
    """Squared reconstruction error: scalar mean and per-instance row norms."""
    diff = x_hat - _as_tensor(x)
    per_instance = (diff * diff).sum(axis=1)
    return per_instance.mean(), per_instance


def loss_kld(mu: Tensor, log_var: Tensor) -> tuple[Tensor, Tensor]:
    """KL(q || N(0, I)) per instance: 0.5 * sum(mu^2 + sigma^2 - 1 - log sigma^2)."""
    var = log_var.exp()
    inner = mu * mu + var - 1.0 - log_var
    per_instance = inner.sum(axis=1) * 0.5
    return per_instance.mean(), per_instance


def loss_clus(z: Tensor, centers: np.ndarray, assignments) -> tuple[Tensor, Tensor]:
    """Squared distance from each latent to its assigned (frozen) center."""
    assigned = np.asarray(centers, dtype=np.float64)[np.asarray(assignments, dtype=np.int64)]
    diff = z - Tensor(assigned)
    per_instance = (diff * diff).sum(axis=1)
    return per_instance.mean(), per_instance


def average_views(parts):
    """Mean of per-view loss tensors (scalars or per-instance vectors)."""
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total * (1.0 / len(parts))


def loss_ivcg(z: Tensor, events, assignments, tau: float) -> Tensor:
    """Cluster-guided InfoNCE for censored anchors.

    Every censored patient i is pulled toward each uncensored patient of its
    own cluster against a denominator over the whole batch (anchor included);
    the summed terms are divided by the number of censored anchors.

    With unit rows u, anchor i's terms sum to n_pos(i) * lse_i minus the
    similarities to its positives, and those similarities summed over all
    anchors are sum_k (censored u of cluster k) . (uncensored u of cluster k)
    / tau, so only the denominators need the n x n similarity matrix.
    """
    if tau <= 0:
        raise ConfigurationError(f"tau must be positive, got {tau}")
    events = np.asarray(events).ravel()
    assignments = np.asarray(assignments).ravel()
    n = events.size
    censored = events == 0
    uncensored = events == 1
    n_cens = int(censored.sum())
    _, cluster = np.unique(assignments, return_inverse=True)
    n_pos = censored * np.bincount(cluster, weights=uncensored)[cluster]
    if n_cens == 0 or n_pos.sum() == 0:
        return Tensor(np.zeros((1, 1)))
    n_clusters = cluster.max() + 1
    anchor_groups = np.zeros((n_clusters, n))
    anchor_groups[cluster[censored], np.flatnonzero(censored)] = 1.0
    positive_groups = np.zeros((n_clusters, n))
    positive_groups[cluster[uncensored], np.flatnonzero(uncensored)] = 1.0
    u = unit_rows(z)
    lse = logsumexp_rows(u.matmul(u.T) * (1.0 / tau))
    positives = ((Tensor(anchor_groups) @ u) * (Tensor(positive_groups) @ u)).sum()
    total = (lse * Tensor(n_pos[:, None])).sum() - positives * (1.0 / tau)
    return total * (1.0 / n_cens)


def _paired_nce(a: Tensor, b: Tensor, tau: float) -> Tensor:
    """Symmetric InfoNCE pairing row i of ``a`` with row i of ``b``.

    The positive similarities are the row-wise products of the unit rows,
    O(n*d), instead of the diagonal of the n x n similarity matrix.
    """
    an, bn = unit_rows(a), unit_rows(b)
    sims = an.matmul(bn.transpose()) * (1.0 / tau)
    diag = (an * bn).sum(axis=1) * (1.0 / tau)
    forward = logsumexp_rows(sims) - diag
    backward = logsumexp_rows(sims.T) - diag
    return (forward + backward).sum() * (1.0 / a.values.shape[0])


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
    return _paired_nce(q1.T, q2.T, tau)


def soft_assign_tensor(z: Tensor, centers: np.ndarray, nu: float = 1.0) -> Tensor:
    """Differentiable Student's-t soft assignment, rows normalized to 1."""
    if nu <= 0:
        raise ConfigurationError(f"nu must be positive, got {nu}")
    d2 = squared_distances(z, Tensor(np.asarray(centers, dtype=np.float64)))
    base = d2 * (1.0 / nu) + 1.0
    unnorm = (base.log() * (-(nu + 1.0) / 2.0)).exp()
    return unnorm / unnorm.sum(axis=1)


def loss_nll(dist, bins, events) -> Tensor:
    """Discrete-time likelihood: event mass at the event bin for uncensored
    patients, survival past the censoring bin for censored ones."""
    bins = np.asarray(bins, dtype=np.int64).ravel()
    events = np.asarray(events).ravel()
    n, t_plus_1 = dist.probs.values.shape
    event_mask = np.zeros((n, t_plus_1))
    surv_mask = np.zeros((n, t_plus_1 - 1))
    rows = np.arange(n)
    died = events == 1
    event_mask[rows[died], bins[died]] = 1.0
    surv_mask[rows[~died], bins[~died]] = 1.0
    log_p = dist.probs.clamp_min(_CLAMP).log()
    log_s = dist.survival.clamp_min(_CLAMP).log()
    picked = (Tensor(event_mask) * log_p).sum() + (Tensor(surv_mask) * log_s).sum()
    return picked * (-1.0 / n)


def loss_rank(dist, bins, events, sigma_rank: float) -> Tensor:
    """Exponential ranking penalty over comparable pairs.

    For pairs with e_i = 1 and bin_i < bin_j, penalize the anchor's own
    survival at its event bin exceeding the later patient's survival at the
    same bin. Normalized by the number of comparable pairs.

    The pair sum factorises per anchor bin b = bin_i:
    sum_j exp((S_i(b) - S_j(b)) / sigma) = exp(S_i(b) / sigma) * R(b) with
    R(b) = sum_{j: bin_j > b} exp(-S_j(b) / sigma), so the loss is O(n*T).
    log R is taken per bin over the later rows only, shifted by their max.
    """
    if sigma_rank <= 0:
        raise ConfigurationError(f"sigma_rank must be positive, got {sigma_rank}")
    bins = np.asarray(bins, dtype=np.int64).ravel()
    events = np.asarray(events).ravel()
    n, n_bins = dist.survival.values.shape
    # later[b] = number of rows whose bin is after b
    later = n - np.cumsum(np.bincount(bins, minlength=n_bins))
    anchors = np.flatnonzero((events == 1) & (later[bins] > 0))
    if anchors.size == 0:
        return Tensor(np.zeros((1, 1)))
    n_pairs = float(later[bins[anchors]].sum())
    is_later = bins[:, None] > np.arange(n_bins)[None, :]
    x = dist.survival * (-1.0 / sigma_rank)
    # per-bin shift: the max over the later rows (0 for bins without any)
    shift = np.where(is_later, x.values, -np.inf).max(axis=0, keepdims=True)
    shift[:, later == 0] = 0.0
    y = x - Tensor(shift)
    mask = Tensor(is_later.astype(np.float64))
    # masked entries enter exp as 0 and leave it multiplied by 0
    terms = (y * mask).exp() * mask
    # log R(b) - shift(b); a bin without later rows sums to 0 and gets 1 added
    # so that its (unused) log stays finite
    log_r = (terms.sum(axis=0) + Tensor((later == 0)[None, :].astype(np.float64))).log()
    at_bin = np.zeros((n, n_bins))
    at_bin[anchors, bins[anchors]] = 1.0
    # exponent of anchor i: log R(b_i) + S_i(b_i) / sigma; 0 for other rows
    exponent = ((log_r - y) * Tensor(at_bin)).sum(axis=1)
    is_anchor = np.zeros((n, 1))
    is_anchor[anchors] = 1.0
    return (exponent.exp() * Tensor(is_anchor)).sum() * (1.0 / n_pairs)


def combine_cl(weights: LossWeights, siamese: bool, l_ivcg=None, l_iviw=None,
               l_ivcw=None) -> Tensor:
    """Weighted contrastive total: alpha_ivcg*IVCG + alpha_iviw*IVIW + alpha_ivcw*IVCW."""
    weights.validate(siamese)
    total = Tensor(np.zeros((1, 1)))
    if weights.alpha_ivcg and l_ivcg is not None:
        total = total + l_ivcg * weights.alpha_ivcg
    if weights.alpha_iviw and l_iviw is not None:
        total = total + l_iviw * weights.alpha_iviw
    if weights.alpha_ivcw and l_ivcw is not None:
        total = total + l_ivcw * weights.alpha_ivcw
    return total


def combine_surv(weights: LossWeights, l_nll: Tensor, l_rank: Tensor) -> Tensor:
    """Survival total: NLL + beta * ranking."""
    return l_nll + l_rank * weights.beta


def combine_instance(weights: LossWeights, rec_i: Tensor, kld_i, clus_i: Tensor) -> Tensor:
    """Per-instance curriculum loss; the KLD part is dropped when None."""
    total = rec_i * weights.alpha_rec + clus_i * weights.alpha_clus
    if kld_i is not None:
        total = total + kld_i * weights.alpha_kld
    return total
