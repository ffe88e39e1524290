"""Latent-space partitioning: K-means, diagonal GMM, Ward agglomerative.

All fits are deterministic given (Z, K, seed) and return a
:class:`ClusterModel` with K centers and hard assignments. Assignments are
0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericError, UsageError

SUPPORTED_ALGORITHMS = ("kmeans", "gmm", "agglomerative")


@dataclass
class ClusterModel:
    centers: np.ndarray          # (K, d)
    assignments: np.ndarray      # (N,) ints in [0, K)
    algorithm: str = "kmeans"
    extra: dict = field(default_factory=dict)


def _validate_algorithm(name: str) -> None:
    if name == "spectral":
        raise ConfigurationError(
            "spectral clustering is deliberately unsupported; "
            f"choose one of {SUPPORTED_ALGORITHMS}"
        )
    if name not in SUPPORTED_ALGORITHMS:
        raise ConfigurationError(f"unknown clustering algorithm {name!r}; choose one of {SUPPORTED_ALGORITHMS}")


def fit(Z: np.ndarray, algorithm: str, K: int, seed: int) -> ClusterModel:
    """Dispatch to the requested clustering algorithm."""
    _validate_algorithm(algorithm)
    if algorithm == "kmeans":
        return kmeans_fit(Z, K, seed)
    if algorithm == "gmm":
        return gmm_fit(Z, K, seed)
    return agglomerative_fit(Z, K)


def assign_nearest(Z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center hard assignment; ties resolved to the lowest index."""
    if centers.shape[0] == 0:
        raise UsageError("assign_nearest requires at least one center")
    d = _sq_dists(Z, centers)
    return np.argmin(d, axis=1)


def soft_assign(Z: np.ndarray, centers: np.ndarray, nu: float = 1.0) -> np.ndarray:
    """Student's-t kernel soft assignments; each row sums to 1.

    q_ik = (1 + ||z_i - m_k||^2 / nu)^(-(nu+1)/2), normalized over k.
    """
    if nu <= 0:
        raise UsageError(f"degrees of freedom must be > 0, got {nu}")
    d = _sq_dists(Z, centers)
    kernel = (1.0 + d / nu) ** (-(nu + 1.0) / 2.0)
    return kernel / kernel.sum(axis=1, keepdims=True)


def _sq_dists(Z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        d = (Z * Z).sum(axis=1)[:, None] - 2.0 * Z @ centers.T + (centers * centers).sum(axis=1)[None, :]
    if not np.isfinite(d).all():
        raise NumericError("non-finite output in op 'sq_dists'")
    return np.maximum(d, 0.0)


def within_cluster_sse(Z: np.ndarray, centers: np.ndarray, assignments: np.ndarray) -> float:
    return float(((Z - centers[assignments]) ** 2).sum())


# -- K-means -----------------------------------------------------------------


def _kmeans_pp_init(Z: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    n = Z.shape[0]
    centers = np.empty((K, Z.shape[1]))
    centers[0] = Z[rng.integers(n)]
    d2 = ((Z - centers[0]) ** 2).sum(axis=1)
    for k in range(1, K):
        total = d2.sum()
        if total <= 0.0:
            centers[k] = Z[rng.integers(n)]
            continue
        probs = d2 / total
        centers[k] = Z[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((Z - centers[k]) ** 2).sum(axis=1))
    return centers


def kmeans_fit(Z: np.ndarray, K: int, seed: int, max_iter: int = 300) -> ClusterModel:
    """Lloyd iterations from a k-means++ seeding until the assignment fixpoint.

    Empty clusters are repaired by reseeding the center to the point farthest
    from its current center. Within-cluster SSE is non-increasing.
    """
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[0]
    if K < 1:
        raise UsageError(f"K must be >= 1, got {K}")
    if n < K:
        raise UsageError(f"need at least K={K} points, got {n}")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(Z, K, rng)
    assignments = assign_nearest(Z, centers)
    sse_history = [within_cluster_sse(Z, centers, assignments)]
    for _ in range(max_iter):
        for k in range(K):
            members = assignments == k
            if members.any():
                centers[k] = Z[members].mean(axis=0)
            else:
                far = np.argmax(((Z - centers[assignments]) ** 2).sum(axis=1))
                centers[k] = Z[far]
        new_assignments = assign_nearest(Z, centers)
        sse_history.append(within_cluster_sse(Z, centers, new_assignments))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    return ClusterModel(centers=centers, assignments=assignments, algorithm="kmeans",
                        extra={"sse": sse_history})


# -- Gaussian mixture (diagonal covariances) ----------------------------------

_VAR_FLOOR = 1e-6


def gmm_fit(Z: np.ndarray, K: int, seed: int, max_iter: int = 200,
            tol: float = 1e-8) -> ClusterModel:
    """EM for a diagonal-covariance Gaussian mixture, K-means initialized.

    The per-iteration log-likelihood sequence is non-decreasing and is kept in
    ``extra["log_likelihood"]``; hard assignments are argmax responsibilities.
    """
    Z = np.asarray(Z, dtype=np.float64)
    n, d = Z.shape
    if n < K:
        raise UsageError(f"need at least K={K} points, got {n}")
    km = kmeans_fit(Z, K, seed)
    means = km.centers.copy()
    variances = np.empty((K, d))
    for k in range(K):
        members = Z[km.assignments == k]
        variances[k] = members.var(axis=0) if len(members) else Z.var(axis=0)
    variances = np.maximum(variances, _VAR_FLOOR)
    weights = np.bincount(km.assignments, minlength=K) / n

    history: list[float] = []
    resp = None
    for _ in range(max_iter):
        # E-step in log space
        log_prob = -0.5 * (
            ((Z[:, None, :] - means[None]) ** 2 / variances[None]).sum(axis=2)
            + np.log(2.0 * np.pi * variances).sum(axis=1)[None, :]
        )
        log_weighted = log_prob + np.log(np.maximum(weights, 1e-300))[None, :]
        m = log_weighted.max(axis=1, keepdims=True)
        log_norm = m + np.log(np.exp(log_weighted - m).sum(axis=1, keepdims=True))
        ll = float(log_norm.sum())
        resp = np.exp(log_weighted - log_norm)
        if history and ll < history[-1] - 1e-9 * max(1.0, abs(history[-1])):
            raise NumericError("GMM log-likelihood decreased; numeric breakdown")
        converged = bool(history) and abs(ll - history[-1]) < tol * max(1.0, abs(ll))
        history.append(ll)
        if converged:
            break
        # M-step
        nk = resp.sum(axis=0)
        if np.any(nk <= 0.0):
            raise NumericError("GMM component collapsed to zero responsibility")
        weights = nk / n
        means = (resp.T @ Z) / nk[:, None]
        variances = (resp.T @ (Z ** 2)) / nk[:, None] - means ** 2
        variances = np.maximum(variances, _VAR_FLOOR)
        if not np.all(np.isfinite(variances)):
            raise NumericError("GMM produced singular component variances")
    assignments = np.argmax(resp, axis=1)
    return ClusterModel(
        centers=means,
        assignments=assignments,
        algorithm="gmm",
        extra={"variances": variances, "weights": weights, "log_likelihood": history},
    )


# -- agglomerative (Ward) ------------------------------------------------------


def agglomerative_fit(Z: np.ndarray, K: int) -> ClusterModel:
    """Bottom-up Ward merging via the Lance-Williams update until K clusters.

    Deterministic: among equal merge costs the lexicographically lowest pair
    of active cluster indices is merged. Centers are final cluster means.
    """
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[0]
    if n < K:
        raise UsageError(f"need at least K={K} points, got {n}")
    # Ward cost between singletons: ||a-b||^2 / 2
    d2 = _sq_dists(Z, Z)
    cost = d2 / 2.0
    np.fill_diagonal(cost, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n)
    labels = np.arange(n)

    for _ in range(n - K):
        flat = np.argmin(cost)
        i, j = divmod(int(flat), n)
        if i > j:
            i, j = j, i
        ni, nj = sizes[i], sizes[j]
        # Lance-Williams (Ward): cost to every other active cluster k
        others = active.copy()
        others[i] = others[j] = False
        nk = sizes[others]
        merged = ((ni + nk) * cost[i, others] + (nj + nk) * cost[j, others]
                  - nk * cost[i, j]) / (ni + nj + nk)
        cost[i, others] = merged
        cost[others, i] = merged
        cost[j, :] = np.inf
        cost[:, j] = np.inf
        active[j] = False
        sizes[i] = ni + nj
        labels[labels == labels[j]] = labels[i]

    keep = np.flatnonzero(active)
    remap = {old: new for new, old in enumerate(keep)}
    assignments = np.array([remap[labels[i]] for i in range(n)])
    centers = np.vstack([Z[assignments == k].mean(axis=0) for k in range(K)])
    return ClusterModel(centers=centers, assignments=assignments, algorithm="agglomerative")
