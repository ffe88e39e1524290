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
    cosine_similarity,
    logsumexp_rows,
    squared_distances,
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
    inner = mu * mu + var - Tensor(np.ones((1, 1))) - log_var
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
    """
    if tau <= 0:
        raise ConfigurationError(f"tau must be positive, got {tau}")
    events = np.asarray(events).ravel()
    assignments = np.asarray(assignments).ravel()
    n = events.size
    censored = events == 0
    n_cens = int(censored.sum())
    pos_mask = (
        censored[:, None]
        & (events == 1)[None, :]
        & (assignments[:, None] == assignments[None, :])
    ).astype(np.float64)
    if n_cens == 0 or pos_mask.sum() == 0:
        return Tensor(np.zeros((1, 1)))
    sims = cosine_similarity(z, z) * (1.0 / tau)
    lse = logsumexp_rows(sims)
    terms = Tensor(pos_mask) * (lse - sims)
    return terms.sum() * (1.0 / n_cens)


def loss_iviw(z1: Tensor, z2: Tensor, tau: float) -> Tensor:
    """Symmetric cross-view InfoNCE pairing each patient with itself."""
    if tau <= 0:
        raise ConfigurationError(f"tau must be positive, got {tau}")
    n = z1.values.shape[0]
    if z2.values.shape[0] != n:
        raise ConfigurationError("both views must contain the same patients")
    sims = cosine_similarity(z1, z2) * (1.0 / tau)
    eye = Tensor(np.eye(n))
    diag = (sims * eye).sum(axis=1)
    forward = logsumexp_rows(sims) - diag
    backward = logsumexp_rows(sims.T) - diag
    return (forward + backward).sum() * (1.0 / n)


def loss_ivcw(q1: Tensor, q2: Tensor, tau: float) -> Tensor:
    """Cross-view InfoNCE over cluster soft-assignment column vectors."""
    if tau <= 0:
        raise ConfigurationError(f"tau must be positive, got {tau}")
    k1, k2 = q1.values.shape[1], q2.values.shape[1]
    if k1 != k2:
        raise ConfigurationError(f"views disagree on cluster count: {k1} vs {k2}")
    sims = cosine_similarity(q1.T, q2.T) * (1.0 / tau)
    eye = Tensor(np.eye(k1))
    diag = (sims * eye).sum(axis=1)
    forward = logsumexp_rows(sims) - diag
    backward = logsumexp_rows(sims.T) - diag
    return (forward + backward).sum() * (1.0 / k1)


def soft_assign_tensor(z: Tensor, centers: np.ndarray, nu: float = 1.0) -> Tensor:
    """Differentiable Student's-t soft assignment, rows normalized to 1."""
    if nu <= 0:
        raise ConfigurationError(f"nu must be positive, got {nu}")
    d2 = squared_distances(z, Tensor(np.asarray(centers, dtype=np.float64)))
    base = d2 * (1.0 / nu) + Tensor(np.ones((1, 1)))
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
    """
    if sigma_rank <= 0:
        raise ConfigurationError(f"sigma_rank must be positive, got {sigma_rank}")
    bins = np.asarray(bins, dtype=np.int64).ravel()
    events = np.asarray(events).ravel()
    n = bins.size
    pair_mask = ((events == 1)[:, None] & (bins[:, None] < bins[None, :])).astype(np.float64)
    n_pairs = pair_mask.sum()
    if n_pairs == 0:
        return Tensor(np.zeros((1, 1)))
    onehot = np.zeros((n, dist.survival.values.shape[1]))
    onehot[np.arange(n), bins] = 1.0
    # at_anchor_bin[j, i] = survival of patient j evaluated at patient i's bin
    at_anchor_bin = dist.survival @ Tensor(onehot.T)
    own = (at_anchor_bin * Tensor(np.eye(n))).sum(axis=1)
    diffs = (own - at_anchor_bin.T) * (1.0 / sigma_rank)
    return (Tensor(pair_mask) * diffs.exp()).sum() * (1.0 / n_pairs)


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
