"""Property tests: the metrics against the scalar-loop oracles on small
cohorts with heavy ties in times and risks, the C-index to exact equality
on up to 300 rows, and the blocked IBS to exact equality with its earlier
16-point layout."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survstrat import metrics
from survstrat.errors import DataError
from survstrat.metrics import (
    TimeGrid,
    build_time_grid,
    concordance_index,
    integrated_brier_score,
    kaplan_meier,
    log_rank_test,
)

from oracles import cindex_bruteforce, ibs_direct, ibs_where_blocks, km_scan, logrank_direct


@st.composite
def cohorts(draw):
    """n <= 40 rows; times from a few integers, tied integer risks, mixed
    events, two labelled groups, and a seed for survival curves."""
    n = draw(st.integers(2, 40))
    n_times = draw(st.integers(1, 5))

    def column(lo, hi):
        return draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))

    times = np.asarray(column(1, n_times), dtype=np.float64)
    events = np.asarray(column(0, 1))
    risk = np.asarray(column(-2, 2), dtype=np.float64)
    labels = np.asarray([0, 1] + column(0, 1)[2:])
    seed = draw(st.integers(0, 2 ** 31 - 1))
    return times, events, risk, labels, seed


@settings(max_examples=200, deadline=None)
@given(cohorts())
def test_concordance_matches_bruteforce(cohort):
    times, events, risk, _, _ = cohort
    comparable = any(
        events[i] == 1 and times[i] < times[j]
        for i in range(times.size) for j in range(times.size)
    )
    if not comparable:
        with pytest.raises(DataError):
            concordance_index(risk, times, events)
        return
    got = concordance_index(risk, times, events)
    assert got == pytest.approx(cindex_bruteforce(risk, times, events), abs=1e-12)


@st.composite
def wide_cohorts(draw, kind):
    """n <= 300 rows of one of three kinds: distinct float risks, integer
    risks with 1 to 512 distinct values, or times from three values."""
    n = draw(st.integers(0, 300))

    def column(elements, **kw):
        return np.asarray(draw(st.lists(elements, min_size=n, max_size=n, **kw)))

    if kind == "distinct":
        risk = column(st.floats(-1e6, 1e6, allow_subnormal=False), unique=True)
        times = column(st.floats(0.01, 100.0))
    elif kind == "integer":
        risk = column(st.integers(0, draw(st.integers(0, 511))))
        times = column(st.integers(1, 60))
    else:
        risk = column(st.integers(-40, 40)) / 8.0
        times = column(st.integers(1, 3))
    events = column(st.integers(0, 1))
    return risk.astype(np.float64), times.astype(np.float64), events


@pytest.mark.parametrize("kind", ["distinct", "integer", "tied_times"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_concordance_equals_bruteforce_exactly(kind, data):
    risk, times, events = data.draw(wide_cohorts(kind))
    if not any(events[i] == 1 and (times > times[i]).any() for i in range(times.size)):
        with pytest.raises(DataError):
            concordance_index(risk, times, events)
        return
    assert concordance_index(risk, times, events) == cindex_bruteforce(risk, times, events)


@settings(max_examples=200, deadline=None)
@given(cohorts())
def test_kaplan_meier_matches_scan_at_every_knot(cohort):
    times, events, _, _, _ = cohort
    curve = kaplan_meier(times, events)
    np.testing.assert_array_equal(curve.times, np.unique(times))
    for q in np.concatenate([[0.5], curve.times]):
        want = km_scan(list(times), list(events), q)
        assert curve.evaluate(q) == pytest.approx(want, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(cohorts())
def test_integrated_brier_score_matches_direct(cohort):
    times, events, _, _, seed = cohort
    # an event at the last time keeps the censoring survival above zero
    events[times.argmax()] = 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tied times collapse the grid
        grid = build_time_grid(times, events, 4)
    rng = np.random.default_rng(seed)
    surv = np.sort(rng.uniform(0, 1, size=(times.size, grid.n_bins)), axis=1)[:, ::-1]
    got = integrated_brier_score(surv, grid, times, events)
    want = ibs_direct(surv, grid, times, events, times, events)
    assert got == pytest.approx(want, abs=1e-10)


@st.composite
def ibs_cases(draw):
    """1 to 400 rows with times tied on a few integers or spread, 1 to 6
    grid edges (the horizon before, inside or past the times), separate
    censoring data or none, a latest time that may be censored (the
    censoring survival then reaches zero), and a block budget from one
    point per block to every point in one block."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    n = draw(st.integers(1, 400))

    def cohort(size):
        if draw(st.booleans()):
            times = rng.integers(1, draw(st.integers(1, 6)) + 1, size).astype(np.float64)
        else:
            times = rng.uniform(0.1, 20.0, size)
        events = rng.integers(0, 2, size)
        events[times.argmax()] = draw(st.integers(0, 1))
        return times, events

    times, events = cohort(n)
    censor = cohort(draw(st.integers(1, 60))) if draw(st.booleans()) else (None, None)
    edges = np.cumsum(rng.uniform(0.2, 6.0, draw(st.integers(1, 6))))
    surv = np.sort(rng.uniform(0, 1, size=(n, edges.size)), axis=1)[:, ::-1]
    budget = draw(st.sampled_from([1, 7, 100, 2 ** 15]) | st.integers(1, 50_000))
    return surv, TimeGrid(edges), times, events, *censor, budget


def _scored_with_warnings(ibs, *args):
    """The score, or the message of the DataError raised when no span is
    left to integrate over, and the warnings on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = ibs(*args)
        except DataError as exc:
            value = str(exc)
    return value, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=150, deadline=None)
@given(ibs_cases())
def test_integrated_brier_score_equals_the_where_blocks_exactly(case):
    *args, budget = case
    with mock.patch.object(metrics, "BUDGET", budget):
        got, got_warnings = _scored_with_warnings(integrated_brier_score, *args)
    want, want_warnings = _scored_with_warnings(ibs_where_blocks, *args)
    assert got == want or (np.isnan(got) and np.isnan(want))
    assert got_warnings == want_warnings


@pytest.mark.parametrize("n", [20_000, 40_000])
def test_integrated_brier_score_equals_the_where_blocks_at_scale(n):
    """At 20k rows ``BUDGET // n`` is one point per block; at 40k it is 0,
    which the block size raises to one."""
    rng = np.random.default_rng(n)
    times = rng.exponential(10.0, n) + 0.1
    events = rng.integers(0, 2, n)
    train_t = rng.exponential(10.0, 2000) + 0.1
    train_e = rng.integers(0, 2, 2000)
    train_e[train_t.argmax()] = 1
    grid = build_time_grid(train_t, train_e, 16)
    surv = np.sort(rng.uniform(0, 1, size=(n, 16)), axis=1)[:, ::-1]
    args = (surv, grid, times, events, train_t, train_e)
    assert integrated_brier_score(*args) == ibs_where_blocks(*args)


@settings(max_examples=200, deadline=None)
@given(cohorts())
def test_log_rank_matches_direct(cohort):
    times, events, _, labels, _ = cohort
    stat, p = log_rank_test(labels, times, events)
    want_stat, want_p = logrank_direct(list(labels), list(times), list(events))
    assert stat == pytest.approx(want_stat, rel=1e-12, abs=1e-12)
    assert p == pytest.approx(want_p, abs=1e-10)
