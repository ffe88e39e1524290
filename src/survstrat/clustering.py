"""Latent-space partitioning: K-means, diagonal GMM, Ward agglomerative.

All fits are deterministic given (Z, K, seed) and return ``(centers,
assignments)``: a (K, d) array of centers and an (N,) array of 0-based hard
assignments.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, NumericError, UsageError

SUPPORTED_ALGORITHMS = ("kmeans", "gmm", "agglomerative")

KMEANS_MAX_ITER = 300
GMM_MAX_ITER = 200
GMM_TOL = 1e-8


def fit(Z: np.ndarray, algorithm: str, K: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch to the requested clustering algorithm."""
    if algorithm == "kmeans":
        return kmeans_fit(Z, K, seed)
    if algorithm == "gmm":
        return gmm_fit(Z, K, seed)
    if algorithm == "agglomerative":
        return agglomerative_fit(Z, K)
    raise ConfigurationError(f"unknown clustering algorithm {algorithm!r}; choose one of {SUPPORTED_ALGORITHMS}")


def assign_nearest(Z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center hard assignment; ties resolved to the lowest index."""
    if centers.shape[0] == 0:
        raise UsageError("assign_nearest requires at least one center")
    d = _sq_dists(Z, centers)
    return np.argmin(d, axis=1)


def _sq_dists(Z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        cross = np.einsum("nd,kd->nk", Z, centers)  # row by row, unlike a BLAS product
        d = (Z * Z).sum(axis=1)[:, None] - 2.0 * cross + (centers * centers).sum(axis=1)[None, :]
    if not np.isfinite(d).all():
        raise NumericError("non-finite output in op 'sq_dists'")
    return np.maximum(d, 0.0)


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


def kmeans_fit(Z: np.ndarray, K: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations from a k-means++ seeding until the assignment fixpoint.

    Empty clusters are repaired by reseeding the center to the point farthest
    from its current center. Within-cluster SSE is non-increasing.
    """
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[0]
    if n < K:
        raise UsageError(f"need at least K={K} points, got {n}")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(Z, K, rng)
    assignments = assign_nearest(Z, centers)
    for _ in range(KMEANS_MAX_ITER):
        for k in range(K):
            members = assignments == k
            if members.any():
                centers[k] = Z[members].mean(axis=0)
            else:
                far = np.argmax(((Z - centers[assignments]) ** 2).sum(axis=1))
                centers[k] = Z[far]
        new_assignments = assign_nearest(Z, centers)
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    return centers, assignments


# -- Gaussian mixture (diagonal covariances) ----------------------------------

_VAR_FLOOR = 1e-6


def gmm_fit(Z: np.ndarray, K: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """EM for a diagonal-covariance Gaussian mixture, K-means initialized.

    The per-iteration log-likelihood is non-decreasing (a decrease beyond
    rounding raises NumericError); the centers are the component means and
    the hard assignments are argmax responsibilities.
    """
    Z = np.asarray(Z, dtype=np.float64)
    n, d = Z.shape
    if n < K:
        raise UsageError(f"need at least K={K} points, got {n}")
    means, km_assignments = kmeans_fit(Z, K, seed)
    variances = np.empty((K, d))
    for k in range(K):
        members = Z[km_assignments == k]
        variances[k] = members.var(axis=0) if len(members) else Z.var(axis=0)
    variances = np.maximum(variances, _VAR_FLOOR)
    weights = np.bincount(km_assignments, minlength=K) / n

    # -inf makes both tests below false on the first iteration
    prev_ll = -np.inf
    for _ in range(GMM_MAX_ITER):
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
        if ll < prev_ll - 1e-9 * max(1.0, abs(prev_ll)):
            raise NumericError("GMM log-likelihood decreased; numeric breakdown")
        if abs(ll - prev_ll) < GMM_TOL * max(1.0, abs(ll)):
            break
        prev_ll = ll
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
    return means, np.argmax(resp, axis=1)


# -- agglomerative (Ward) ------------------------------------------------------


def agglomerative_fit(Z: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Bottom-up Ward merging via the Lance-Williams update until K clusters.

    Deterministic: among equal merge costs the lexicographically lowest pair
    of active cluster indices is merged. Clusters are numbered in the order of
    their lowest member row; centers are final cluster means.
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

    # each label is its cluster's lowest member row, so sorted labels number
    # the clusters in that order
    assignments = np.unique(labels, return_inverse=True)[1]
    centers = np.vstack([Z[assignments == k].mean(axis=0) for k in range(K)])
    return centers, assignments
