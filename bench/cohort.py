"""Synthetic survival cohorts for the benchmark, generated from a seed.

The generator belongs to the benchmark, so editing the test helpers cannot
move it. It follows the two-population design of the test suite: latent
groups are separated along the first two features and differ in their
survival scale, with independent exponential censoring on top.
"""

from __future__ import annotations

import numpy as np

# mean survival time of each latent group; group 0 is the high-risk one
GROUP_SCALES = (2.0, 12.0, 6.0)
CENSOR_SCALE = 25.0
# end of follow-up: every row still event-free at this time is censored
FOLLOW_UP = 10.0


def generate(n: int, p: int, n_groups: int, seed: int, stream: int = 0):
    """Return (X, times, events, groups) for one synthetic cohort.

    ``seed`` is the workload seed; ``stream`` tells apart the cohorts one
    workload draws from the same seed.

    Group centres sit on a circle of radius 2.5 in the plane of features 0
    and 1; every feature also carries N(0, 0.5^2) noise.
    """
    if not 2 <= n_groups <= len(GROUP_SCALES):
        raise ValueError(f"n_groups must lie in [2, {len(GROUP_SCALES)}]")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, stream), spawn_key=(n, p)))
    groups = rng.integers(n_groups, size=n)
    X = rng.standard_normal((n, p)) * 0.5
    angle = 2.0 * np.pi * groups / n_groups
    X[:, 0] += 2.5 * np.cos(angle)
    X[:, 1] += 2.5 * np.sin(angle)
    scale = np.asarray(GROUP_SCALES)[groups]
    true_t = rng.exponential(scale=scale) + 0.05
    cens_t = np.minimum(rng.exponential(scale=CENSOR_SCALE, size=n) + 0.05, FOLLOW_UP)
    times = np.minimum(true_t, cens_t)
    events = (true_t <= cens_t).astype(np.int64)
    return X, times, events, groups


def write_csv(path: str, X, times, events) -> None:
    """Write a cohort with the column names of the dataset presets."""
    p = X.shape[1]
    header = ",".join([f"x{j}" for j in range(p)] + ["duration", "event"])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row, t, e in zip(X.tolist(), times.tolist(), events.tolist()):
            fh.write(",".join(repr(v) for v in row) + f",{t!r},{e}\n")


def group_risk(groups) -> np.ndarray:
    """The oracle risk score: minus the true mean survival of each row's group."""
    return -np.asarray(GROUP_SCALES)[np.asarray(groups)]
