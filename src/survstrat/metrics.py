"""Survival evaluation statistics.

Time-grid construction, curve interpolation, Harrell's concordance index,
the IPCW integrated Brier score, the Kaplan-Meier estimator, and the
two-sample log-rank test. Everything here is a pure function over numpy
arrays so callers can fan out across bootstrap replicates freely.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

# floats in one block of the IBS: one (points, n_patients) temporary is
# about 256 KB, and a block holds at least one point whatever n_patients is
BUDGET = 2 ** 15
# points of the IBS integration grid, evenly spaced over [0, horizon]
N_POINTS = 100


@dataclass
class TimeGrid:
    """Strictly increasing bin edges tau_1 < ... < tau_T."""

    edges: np.ndarray

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.float64).ravel()
        if self.edges.size == 0:
            raise UsageError("time grid needs at least one edge")
        if np.any(np.diff(self.edges) <= 0):
            raise UsageError("time grid edges must be strictly increasing")

    @property
    def n_bins(self) -> int:
        return int(self.edges.size)

    @property
    def horizon(self) -> float:
        return float(self.edges[-1])

    def midpoints(self) -> np.ndarray:
        """Interval midpoints with an implicit left edge at 0."""
        left = np.concatenate(([0.0], self.edges[:-1]))
        return (left + self.edges) / 2.0

    def bin_of(self, times) -> np.ndarray:
        """Smallest bin t with tau_t >= time; beyond tau_T maps to the last bin."""
        idx = np.searchsorted(self.edges, np.asarray(times, dtype=np.float64), side="left")
        return np.minimum(idx, self.n_bins - 1).astype(np.int64)


@dataclass
class StepCurve:
    """Right-continuous survival step function with S(0) = 1 before the first knot."""

    times: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64).ravel()
        self.probs = np.asarray(self.probs, dtype=np.float64).ravel()
        if self.times.shape != self.probs.shape:
            raise UsageError("step curve knots must pair one time with one probability")

    def evaluate(self, t) -> np.ndarray:
        """S(t): value at the largest knot time <= t."""
        idx = np.searchsorted(self.times, np.asarray(t, dtype=np.float64), side="right") - 1
        vals = np.where(idx >= 0, self.probs[np.maximum(idx, 0)], 1.0)
        return vals if np.ndim(t) else float(vals)

    def evaluate_before(self, t) -> np.ndarray:
        """Left limit S(t-): value at the largest knot time strictly < t."""
        idx = np.searchsorted(self.times, np.asarray(t, dtype=np.float64), side="left") - 1
        vals = np.where(idx >= 0, self.probs[np.maximum(idx, 0)], 1.0)
        return vals if np.ndim(t) else float(vals)


def build_time_grid(times, events, n_bins: int) -> TimeGrid:
    """Edges at the {1/T, ..., T/T} empirical quantiles of uncensored times.

    Duplicate quantiles are collapsed (with a warning) so the grid stays
    strictly increasing even on heavily tied data.
    """
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events)
    if n_bins < 1:
        raise UsageError(f"n_bins must be >= 1, got {n_bins}")
    uncensored = times[events == 1]
    if uncensored.size == 0:
        raise DataError("cannot build a time grid without any uncensored events")
    qs = np.arange(1, n_bins + 1) / n_bins
    edges = np.quantile(uncensored, qs, method="inverted_cdf")
    edges = np.unique(edges)
    if edges.size < n_bins:
        warnings.warn(
            f"time grid collapsed from {n_bins} to {edges.size} bins "
            "because quantiles coincided"
        )
    return TimeGrid(edges)


def interpolate_curve(surv, grid: TimeGrid, t):
    """Piecewise-linear survival through (0,1),(tau_1,S_1),...,(tau_T,S_T).

    Constant at S_T beyond the horizon. ``surv`` is one curve of length T.
    """
    surv = np.asarray(surv, dtype=np.float64).ravel()
    if surv.size != grid.n_bins:
        raise UsageError("curve length must match the number of grid edges")
    x = np.concatenate(([0.0], grid.edges))
    y = np.concatenate(([1.0], surv))
    return np.interp(t, x, y)


def expected_event_time(probs, grid: TimeGrid) -> np.ndarray:
    """E[T] under a discrete distribution of T bin masses plus a tail mass.

    Bin t contributes at its interval midpoint; the tail mass beyond the
    horizon contributes at tau_T.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] != grid.n_bins + 1:
        raise UsageError("expected T+1 probabilities per row (bins plus tail)")
    supports = np.concatenate([grid.midpoints(), [grid.horizon]])
    return np.einsum("nt,t->n", probs, supports)  # row by row, unlike a BLAS product


def _same_length(**columns) -> None:
    """UsageError naming the lengths when per-row arrays differ in length."""
    if len({c.size for c in columns.values()}) > 1:
        sizes = ", ".join(f"{name} {c.size}" for name, c in columns.items())
        raise UsageError(f"per-row arrays differ in length: {sizes}")


def concordance_index(risk, times, events) -> float:
    """Harrell's C over pairs (i, j) with e_i = 1 and t_i < t_j.

    Concordant when risk_i > risk_j; risk ties score half. The concordant,
    tied and comparable pairs are exact integer counts, so the result is
    the same float as an all-pairs count.

    The rows, sorted by time and ranked densely by risk, form a wavelet
    matrix: one level per rank bit from the top, each a stable partition
    with the 0 bits first. Each event row carries its range of later rows
    down the levels by prefix counts of the 1 bits; where its own bit is 1,
    the range's rows with a 0 bit have lower risk. The range left after
    the last level holds its risk ties; a range moves to the 1 bits by a
    0/1 product. O(n log n) time, O(n) memory, no Python loop over rows.
    """
    risk = np.asarray(risk, dtype=np.float64).ravel()
    times = np.asarray(times, dtype=np.float64).ravel()
    events = np.asarray(events).ravel()
    _same_length(risk=risk, times=times, events=events)
    if not (np.isfinite(risk).all() and np.isfinite(times).all()):
        raise UsageError("concordance_index needs finite risk and times")
    n = times.size
    order = np.argsort(times)
    t = times[order]
    dead = events[order] == 1
    lo = np.searchsorted(t, t[dead], side="right")  # each event row's later rows: [lo, n)
    pairs = n * lo.size - int(lo.sum())
    if pairs == 0:
        raise DataError("concordance undefined: no comparable pairs")
    rank = np.unique(risk[order], return_inverse=True)[1].ravel()
    query = rank[dead]
    hi = np.full(lo.size, n)
    ones = np.zeros(n + 1, dtype=np.intp)
    less = 0
    for level in reversed(range(int(rank.max()).bit_length())):
        is_one = ((rank >> level) & 1).astype(bool)
        np.cumsum(is_one, out=ones[1:])
        up = ((query >> level) & 1).astype(bool)
        lo_ones, hi_ones = ones[lo], ones[hi]
        lo -= lo_ones
        hi -= hi_ones
        less += int(np.dot(hi - lo, up))
        zeros = n - int(ones[-1])
        lo += up * (lo_ones + zeros - lo)
        hi += up * (hi_ones + zeros - hi)
        rank = rank[np.argsort(is_one, kind="stable")]
    ties = int((hi - lo).sum())
    return float((less + 0.5 * ties) / pairs)


def _risk_sets(inv: np.ndarray, size: int, dead: np.ndarray):
    """Per distinct time t (``inv`` indexes them): rows with time >= t, deaths at t."""
    at_risk = np.cumsum(np.bincount(inv, minlength=size)[::-1])[::-1]
    return at_risk, np.bincount(inv[dead], minlength=size)


def kaplan_meier(times, events) -> StepCurve:
    """Product-limit estimator under right censoring, from cumulative counts."""
    times = np.asarray(times, dtype=np.float64).ravel()
    events = np.asarray(events).ravel()
    _same_length(times=times, events=events)
    if times.size == 0:
        raise UsageError("kaplan_meier needs at least one observation")
    uniq, inv = np.unique(times, return_inverse=True)
    at_risk, d = _risk_sets(inv, uniq.size, events == 1)
    return StepCurve(uniq, np.cumprod((at_risk - d) / at_risk))


def integrated_brier_score(surv, grid: TimeGrid, times, events,
                           censor_times=None, censor_events=None) -> float:
    """Graf's IPCW Brier score averaged over [0, tau_T] by the trapezoid rule.

    ``surv`` holds per-patient survival probabilities at the grid edges and
    is linearly interpolated between them. Censoring weights come from the
    Kaplan-Meier fit of the censoring distribution on ``censor_times`` /
    ``censor_events`` (the evaluation data itself when omitted). Grid points
    where the censoring survival hits zero are dropped with a warning and
    the integral renormalized over the remaining span, a DataError if none
    is left. Zero patients score nan, as a C-index without comparable pairs
    does. ``surv`` must be finite and within rounding of [0, 1]: nan, inf
    and a term that overflows (|S| above about 1e4) are a UsageError.

    Points are scored ``BUDGET // n_patients`` at a time (working set near
    ``BUDGET`` floats, with no copy of ``surv``); 0/1 products select terms.
    """
    surv = np.asarray(surv, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64).ravel()
    events = np.asarray(events).ravel()
    _same_length(times=times, events=events)
    if surv.ndim != 2 or surv.shape[0] != times.size or surv.shape[1] != grid.n_bins:
        raise UsageError("surv must be (n_patients, n_bins)")
    if not np.isfinite(surv).all():
        raise UsageError("integrated_brier_score needs finite survival probabilities")
    if censor_times is None:
        censor_times, censor_events = times, events
    censor_times = np.asarray(censor_times, dtype=np.float64).ravel()
    censor_events = np.asarray(censor_events).ravel()
    _same_length(censor_times=censor_times, censor_events=censor_events)
    if times.size == 0:
        return float("nan")
    G = kaplan_meier(censor_times, 1 - censor_events)

    pts = np.linspace(0.0, grid.horizon, N_POINTS)
    Gt = np.asarray(G.evaluate(pts))
    # Gt does not increase, so it is positive on a prefix of the points
    last = int(np.count_nonzero(Gt > 0.0)) - 1
    if last < 1:
        raise DataError("censoring survival is zero at t=0 or at every later grid point")
    if last < pts.size - 1:
        warnings.warn(
            "censoring survival reaches zero before the horizon; "
            f"integrating over [0, {pts[last]:g}] instead"
        )
        pts, Gt = pts[: last + 1], Gt[: last + 1]

    # interpolate between knots k and k + 1 by w; the horizon is k = T - 1, w = 1
    x = np.concatenate(([0.0], grid.edges))
    k = np.minimum(np.searchsorted(x, pts, side="right") - 1, grid.n_bins - 1)
    w = ((pts - x[k]) / (x[k + 1] - x[k]))[:, None]
    dead = events == 1
    g_event = np.maximum(np.asarray(G.evaluate_before(times)), 1e-300)
    bs = np.empty(pts.size)
    step = max(1, BUDGET // times.size)
    have = None
    try:
        with np.errstate(over="raise"):
            for lo in range(0, pts.size, step):
                # row i of a block is point lo + i; the row means keep one
                # order of summation whatever the block size
                b = slice(lo, lo + step)
                t = pts[b, None]
                # the block's knots as contiguous rows, gathered again only when
                # they change: knot 0 is all ones and knot j > 0 is surv.T[j - 1]
                need = np.union1d(k[b], k[b] + 1)
                if not np.array_equal(need, have):
                    have, knots = need, surv.T[np.maximum(need - 1, 0)]
                    knots[need == 0] = 1.0
                s_t = knots[np.searchsorted(have, k[b])]
                s_t *= 1.0 - w[b]
                term = knots[np.searchsorted(have, k[b] + 1)]
                term *= w[b]
                s_t += term
                # alive past t: (1 - S)^2 / G(t); dead by t: S^2 / G(T_i-); else 0
                np.subtract(1.0, s_t, out=term)
                np.square(term, out=term)
                term /= Gt[b, None]
                term *= times > t
                np.square(s_t, out=s_t)
                s_t /= g_event
                s_t *= (times <= t) & dead
                term += s_t
                bs[b] = term.mean(axis=1)
    except FloatingPointError:
        raise UsageError("integrated_brier_score: a term overflowed; surv must lie near [0, 1]") from None
    return float(_trapezoid(bs, pts) / pts[-1])


def log_rank_test(labels, times, events) -> tuple[float, float]:
    """Two-sample log-rank test: chi-square statistic (1 df) and p-value.

    Terms come from cumulative at-risk and death counts, summed in time order.
    The p-value is the regularized upper incomplete gamma Q(1/2, x/2),
    which for one degree of freedom equals erfc(sqrt(x/2)).
    """
    labels = np.asarray(labels).ravel()
    times = np.asarray(times, dtype=np.float64).ravel()
    events = np.asarray(events).ravel()
    _same_length(labels=labels, times=times, events=events)
    groups = np.unique(labels)
    if groups.size != 2:
        raise UsageError(f"log-rank test needs exactly 2 nonempty groups, got {groups.size}")
    in_a = labels == groups[0]
    dead = events == 1
    uniq, inv = np.unique(times, return_inverse=True)
    n, d = _risk_sets(inv, uniq.size, dead)
    # group a's at-risk counts without a copy of its rows; freeing inv lowers the peak
    n_a = np.cumsum(np.bincount(inv, weights=in_a, minlength=uniq.size)[::-1])[::-1]
    del uniq, inv
    observed = float(np.count_nonzero(dead & in_a))
    # cumsum adds in time order, as a scalar loop would; times without deaths
    # and a lone row at risk (n - d = 0) add exact zeros
    q = n_a / n
    expected = np.cumsum(d * n_a / n)[-1]
    variance = np.cumsum(d * q * (1.0 - q) * (n - d) / np.maximum(n - 1, 1))[-1]
    if variance <= 0.0:
        return 0.0, 1.0
    stat = (observed - expected) ** 2 / variance
    return float(stat), float(math.erfc(math.sqrt(stat / 2.0)))
