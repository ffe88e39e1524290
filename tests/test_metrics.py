"""Metrics against hand calculations and independently coded oracles."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from survstrat import metrics
from survstrat.errors import DataError, UsageError
from survstrat.metrics import (
    StepCurve,
    TimeGrid,
    build_time_grid,
    concordance_index,
    expected_event_time,
    integrated_brier_score,
    interpolate_curve,
    kaplan_meier,
    log_rank_test,
)

from oracles import (
    cindex_bruteforce,
    cindex_sweep,
    ibs_direct,
    ibs_where_blocks,
    km_scan,
    reg_upper_gamma_half,
)


class TestTimeGrid:
    def test_quarter_quantiles(self):
        times = np.arange(1, 101, dtype=float)
        grid = build_time_grid(times, np.ones(100), 4)
        np.testing.assert_array_equal(grid.edges, [25, 50, 75, 100])

    def test_single_bin_is_max(self):
        grid = build_time_grid([3.0, 7.0, 5.0], [1, 1, 1], 1)
        np.testing.assert_array_equal(grid.edges, [7.0])

    def test_identical_times_collapse_with_warning(self):
        with pytest.warns(UserWarning, match="collapsed"):
            grid = build_time_grid([4.0] * 10, [1] * 10, 5)
        assert grid.n_bins == 1

    def test_censored_times_ignored(self):
        times = np.concatenate([np.arange(1, 101), [1e6] * 50])
        events = np.concatenate([np.ones(100), np.zeros(50)])
        grid = build_time_grid(times, events, 4)
        np.testing.assert_array_equal(grid.edges, [25, 50, 75, 100])

    def test_no_events_rejected(self):
        with pytest.raises(UsageError):
            build_time_grid([1.0, 2.0], [0, 0], 2)

    def test_bin_mapping(self):
        grid = TimeGrid([25.0, 50.0, 75.0, 100.0])
        np.testing.assert_array_equal(grid.bin_of([10, 25, 26, 100, 150]), [0, 0, 1, 3, 3])

    def test_nonincreasing_edges_rejected(self):
        with pytest.raises(UsageError):
            TimeGrid([1.0, 1.0, 2.0])


class TestInterpolation:
    def test_anchor_at_zero(self):
        grid = TimeGrid([10.0])
        assert interpolate_curve([0.5], grid, 0.0) == 1.0

    def test_linear_midpoint(self):
        grid = TimeGrid([10.0])
        assert interpolate_curve([0.5], grid, 5.0) == pytest.approx(0.75)

    def test_constant_beyond_horizon(self):
        grid = TimeGrid([10.0, 20.0])
        assert interpolate_curve([0.6, 0.4], grid, 35.0) == pytest.approx(0.4)

    def test_exact_at_every_knot(self):
        rng = np.random.default_rng(0)
        edges = np.sort(rng.uniform(1, 100, size=8))
        surv = np.sort(rng.uniform(0, 1, size=8))[::-1]
        grid = TimeGrid(edges)
        for tau, s in zip(edges, surv):
            assert interpolate_curve(surv, grid, tau) == pytest.approx(s, abs=1e-12)


class TestExpectedEventTime:
    def test_hand_value(self):
        # mids (1, 3), tail at 4: 0.5*1 + 0.25*3 + 0.25*4 = 2.25
        grid = TimeGrid([2.0, 4.0])
        got = expected_event_time([[0.5, 0.25, 0.25]], grid)
        assert got[0] == pytest.approx(2.25)

    def test_all_tail_mass(self):
        grid = TimeGrid([2.0, 4.0])
        assert expected_event_time([[0.0, 0.0, 1.0]], grid)[0] == pytest.approx(4.0)


class TestConcordance:
    def test_perfect_ordering(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        risk = -times
        assert concordance_index(risk, times, np.ones(4)) == 1.0

    def test_reversed_ordering(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        assert concordance_index(times, times, np.ones(4)) == 0.0

    def test_matches_bruteforce_n50(self):
        rng = np.random.default_rng(7)
        times = rng.integers(1, 20, size=50).astype(float)
        events = rng.integers(0, 2, size=50)
        risk = np.round(rng.standard_normal(50), 1)
        got = concordance_index(risk, times, events)
        assert got == pytest.approx(cindex_bruteforce(risk, times, events), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(8)
        times = rng.uniform(1, 10, size=30)
        events = rng.integers(0, 2, size=30)
        events[0] = 1
        risk = rng.standard_normal(30)
        a = concordance_index(risk, times, events)
        b = concordance_index(np.exp(3.0 * risk), times, events)
        assert a == pytest.approx(b)

    def test_no_comparable_pairs_rejected(self):
        with pytest.raises(DataError):
            concordance_index([1.0, 2.0], [5.0, 6.0], [0, 0])

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_rows_rejected(self, n):
        with pytest.raises(DataError, match="no comparable pairs"):
            concordance_index(np.zeros(n), np.ones(n), np.ones(n))

    # the rank bit loop gains a level at 2^k distinct risks
    @pytest.mark.parametrize("distinct", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 255, 256, 257])
    def test_level_boundaries_match_bruteforce(self, distinct):
        rng = np.random.default_rng(distinct)
        n = 2 * distinct + 3
        risk = rng.permutation(np.arange(n) % distinct).astype(float)
        times = rng.integers(1, 12, size=n).astype(float)
        events = rng.integers(0, 2, size=n)
        events[:2] = 1
        times[:2] = [1.0, 11.0]
        assert concordance_index(risk, times, events) == cindex_bruteforce(risk, times, events)

    # one distinct risk runs no level; at every level a range moves to the
    # 1 bits by a 0/1 product, and here every row carries a range
    @pytest.mark.parametrize("distinct", [1, 2, 3, 4, 8, 15, 16, 17, 64])
    def test_every_row_an_event_matches_bruteforce(self, distinct):
        rng = np.random.default_rng(200 + distinct)
        n = 3 * distinct + 4
        risk = rng.permutation(np.arange(n) % distinct).astype(float)
        times = rng.integers(1, 10, size=n).astype(float)
        times[:2] = [1.0, 10.0]
        assert concordance_index(risk, times, np.ones(n)) == cindex_bruteforce(risk, times, np.ones(n))

    def test_all_risks_tied_score_half(self):
        times = np.array([3.0, 1.0, 2.0, 2.0, 5.0])
        assert concordance_index(np.full(5, 0.25), times, [1, 1, 0, 1, 0]) == 0.5

    def test_one_distinct_time_has_no_pairs(self):
        with pytest.raises(DataError, match="no comparable pairs"):
            concordance_index([3.0, 1.0, 2.0], [4.0, 4.0, 4.0], [1, 1, 1])

    def test_single_event_row(self):
        risk = np.array([0.3, 0.9, -1.0, 0.3, 0.3])
        times = np.array([2.0, 1.0, 4.0, 5.0, 2.0])
        events = [0, 0, 1, 0, 0]
        assert concordance_index(risk, times, events) == 0.0
        events = [1, 0, 0, 0, 0]  # rows 2 and 3 outlive row 0; row 4 shares its time
        assert concordance_index(risk, times, events) == cindex_bruteforce(risk, times, events) == 0.75

    def test_50k_cohort_matches_sweep(self):
        rng = np.random.default_rng(50_000)
        risk = rng.standard_normal(50_000)
        times = np.round(rng.exponential(5.0, size=50_000), 1) + 0.1
        events = rng.integers(0, 2, size=50_000)
        assert concordance_index(risk, times, events) == cindex_sweep(risk, times, events)

    def test_peak_memory_is_linear(self):
        # a (levels x n) int64 table alone would be 128 B/row at 50k rows
        rng = np.random.default_rng(9)
        n = 50_000
        risk, times = rng.standard_normal(n), rng.exponential(5.0, size=n)
        events = rng.integers(0, 2, size=n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            concordance_index(risk, times, events)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 160 * n

    @pytest.mark.parametrize("risk, times, events", [
        ([1.0, 2.0, 3.0, 9.0], [1.0, 2.0, 3.0], [1, 1, 1]),
        ([1.0, 2.0], [1.0, 2.0, 3.0], [1, 1, 1]),
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1, 1]),
    ])
    def test_mismatched_lengths_rejected(self, risk, times, events):
        with pytest.raises(UsageError, match="differ in length"):
            concordance_index(risk, times, events)

    @pytest.mark.parametrize("risk, times", [
        ([np.nan, 2.0, 1.0, 0.5], [1.0, 2.0, 3.0, 4.0]),
        ([1.0, 2.0, np.inf, 0.5], [1.0, 2.0, 3.0, 4.0]),
        ([1.0, 2.0, 3.0, 0.5], [1.0, np.nan, 3.0, 4.0]),
        ([1.0, 2.0, 3.0, 0.5], [1.0, 2.0, 3.0, np.inf]),
    ])
    def test_non_finite_rejected(self, risk, times):
        with pytest.raises(UsageError, match="finite"):
            concordance_index(risk, times, [1, 1, 1, 1])


class TestKaplanMeier:
    def test_no_events_flat(self):
        curve = kaplan_meier([1.0, 2.0, 3.0], [0, 0, 0])
        np.testing.assert_array_equal(curve.probs, [1.0, 1.0, 1.0])

    def test_hand_product_limit(self):
        curve = kaplan_meier([1.0, 2.0, 3.0], [1, 0, 1])
        assert curve.evaluate(1.0) == pytest.approx(2.0 / 3.0)
        assert curve.evaluate(2.5) == pytest.approx(2.0 / 3.0)
        assert curve.evaluate(3.0) == 0.0

    def test_all_events_at_once(self):
        curve = kaplan_meier([1.0, 1.0, 1.0], [1, 1, 1])
        assert curve.evaluate(1.0) == 0.0
        assert curve.evaluate(0.5) == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        times = rng.uniform(1, 10, size=40)
        events = rng.integers(0, 2, size=40)
        perm = rng.permutation(40)
        a = kaplan_meier(times, events)
        b = kaplan_meier(times[perm], events[perm])
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_matches_sequential_scan(self):
        rng = np.random.default_rng(4)
        times = rng.integers(1, 15, size=25).astype(float)
        events = rng.integers(0, 2, size=25)
        curve = kaplan_meier(times, events)
        for q in [0.0, 3.0, 7.5, 14.0, 20.0]:
            assert curve.evaluate(q) == pytest.approx(km_scan(list(times), list(events), q))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(UsageError, match="times 3, events 2"):
            kaplan_meier([1.0, 2.0, 3.0], [1, 0])

    def test_left_limit(self):
        curve = StepCurve([2.0, 5.0], [0.8, 0.4])
        assert curve.evaluate_before(2.0) == 1.0
        assert curve.evaluate_before(5.0) == pytest.approx(0.8)
        assert curve.evaluate_before(6.0) == pytest.approx(0.4)


class TestBrierScore:
    def test_oracle_predictor_near_zero(self):
        times = np.arange(1, 101, dtype=float)
        events = np.ones(100)
        grid = build_time_grid(times, events, 10)
        surv = (grid.edges[None, :] < times[:, None]).astype(float)
        ibs = integrated_brier_score(surv, grid, times, events)
        assert ibs < 0.05

    def test_constant_half_single_patient(self):
        # S = 0.5 from just past 0 onward; BS(t) = 0.25 away from the origin
        grid = TimeGrid([1e-9, 10.0])
        ibs = integrated_brier_score(
            np.array([[0.5, 0.5]]), grid, [5.0], [1]
        )
        assert ibs == pytest.approx(0.25, abs=5e-3)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(11)
        n = 30
        times = rng.uniform(1, 20, size=n)
        events = rng.integers(0, 2, size=n)
        events[times.argmax()] = 1
        grid = build_time_grid(times, events, 5)
        raw = rng.uniform(0, 1, size=(n, 5))
        surv = np.sort(raw, axis=1)[:, ::-1]
        got = integrated_brier_score(surv, grid, times, events)
        want = ibs_direct(surv, grid, times, events, times, events)
        assert got == pytest.approx(want, abs=1e-10)

    def test_separate_censoring_data(self):
        rng = np.random.default_rng(12)
        n = 20
        times = rng.uniform(1, 20, size=n)
        events = rng.integers(0, 2, size=n)
        events[times.argmax()] = 1
        train_t = rng.uniform(1, 20, size=50)
        train_e = rng.integers(0, 2, size=50)
        grid = build_time_grid(times, events, 4)
        surv = np.sort(rng.uniform(0, 1, size=(n, 4)), axis=1)[:, ::-1]
        got = integrated_brier_score(surv, grid, times, events, train_t, train_e)
        want = ibs_direct(surv, grid, times, events, train_t, train_e)
        assert got == pytest.approx(want, abs=1e-10)

    def test_km_beats_constant_half(self):
        rng = np.random.default_rng(13)
        n = 60
        times = rng.exponential(10.0, size=n) + 0.5
        events = rng.integers(0, 2, size=n)
        events[times.argmax()] = 1
        grid = build_time_grid(times, events, 6)
        km = kaplan_meier(times, events)
        km_surv = np.tile(km.evaluate(grid.edges), (n, 1))
        half = np.full((n, grid.n_bins), 0.5)
        ibs_km = integrated_brier_score(km_surv, grid, times, events)
        ibs_half = integrated_brier_score(half, grid, times, events)
        assert ibs_km <= ibs_half + 1e-12

    def test_heavy_censoring_truncates_with_warning(self):
        # last observation censored: censoring KM hits zero inside the horizon
        times = np.array([1.0, 2.0, 3.0, 10.0])
        events = np.array([1, 1, 1, 0])
        grid = TimeGrid([2.0, 30.0])
        surv = np.full((4, 2), 0.7)
        with pytest.warns(UserWarning, match="zero before the horizon"):
            ibs = integrated_brier_score(surv, grid, times, events)
        assert np.isfinite(ibs)

    def test_censoring_survival_zero_after_t0_is_a_data_error(self):
        # both censoring times fall before the first grid point after 0
        # (10 / 99), so nothing is left to integrate over
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="every later grid point"):
                integrated_brier_score(np.array([[0.5, 0.4]]), TimeGrid([5.0, 10.0]),
                                       [3.0], [1], [0.01, 0.02], [0, 0])

    def test_zero_patients_score_nan_without_warnings(self):
        grid = TimeGrid([2.0, 4.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ibs = integrated_brier_score(np.empty((0, 2)), grid, [], [],
                                         [1.0, 3.0, 5.0], [1, 0, 1])
        assert np.isnan(ibs)

    def test_working_set_stays_within_three_quarters_of_the_survival_matrix(self):
        # the blocks gather their knots from surv itself; measured (numpy 2.4):
        # 0.46 surv.nbytes, against 1.34 while a (T + 1, n) copy was made
        rng = np.random.default_rng(15)
        n = 20_000
        times = rng.exponential(10.0, n) + 0.1
        events = rng.integers(0, 2, n)
        train_t = rng.exponential(10.0, 2000) + 0.1
        train_e = rng.integers(0, 2, 2000)
        grid = build_time_grid(train_t, train_e, 16)
        surv = np.sort(rng.uniform(0, 1, size=(n, 16)), axis=1)[:, ::-1].copy()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            integrated_brier_score(surv, grid, times, events, train_t, train_e)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * surv.nbytes

    @pytest.mark.parametrize("budget", [1, metrics.BUDGET])
    @pytest.mark.parametrize("layout", ["fortran", "column block", "every other column"])
    def test_layout_of_surv_does_not_change_the_score(self, layout, budget):
        rng = np.random.default_rng(17)
        n, T = 300, 7
        times = rng.uniform(1, 20, size=n)
        events = rng.integers(0, 2, size=n)
        events[times.argmax()] = 1
        grid = build_time_grid(times, events, T)
        surv = np.sort(rng.uniform(0, 1, size=(n, T)), axis=1)[:, ::-1].copy()
        wide = np.zeros((n, 2 * T + 3))
        if layout == "fortran":
            other = np.asfortranarray(surv)
        elif layout == "column block":
            wide[:, 3:3 + T] = surv
            other = wide[:, 3:3 + T]
        else:
            wide[:, 3::2] = surv
            other = wide[:, 3::2]
        assert np.array_equal(other, surv) and not other.flags.c_contiguous
        with mock.patch.object(metrics, "BUDGET", budget):
            want = integrated_brier_score(surv, grid, times, events)
            assert integrated_brier_score(other, grid, times, events) == want

    @pytest.mark.parametrize("budget", [1, metrics.BUDGET])
    def test_one_rounding_step_outside_the_unit_interval_matches_the_where_blocks(self, budget):
        # 1 - probs @ cum can land one step outside [0, 1]; a product with a
        # 0/1 mask must still give each term the masked copy's value
        rng = np.random.default_rng(16)
        n = 80
        times = rng.uniform(1, 20, size=n)
        events = rng.integers(0, 2, size=n)
        events[times.argmax()] = 1
        grid = build_time_grid(times, events, 6)
        surv = np.sort(rng.uniform(0, 1, size=(n, 6)), axis=1)[:, ::-1].copy()
        surv[: n // 2, :2] = 1.0 + 2.2e-16
        surv[n // 4:, 4:] = -2.2e-16
        args = (surv, grid, times, events)
        with mock.patch.object(metrics, "BUDGET", budget):
            got = integrated_brier_score(*args)
        assert got == ibs_where_blocks(*args)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_survival_rejected(self, bad):
        surv = np.full((3, 2), 0.5)
        surv[1, 0] = bad
        with pytest.raises(UsageError, match="finite survival probabilities"):
            integrated_brier_score(surv, TimeGrid([2.0, 4.0]), [1.0, 3.0, 5.0], [1, 0, 1])

    def test_overflowing_term_rejected_without_warnings(self):
        # finite, but (1 - S)^2 overflows: a product would carry it as inf * 0
        surv = np.full((3, 2), 0.5)
        surv[2] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError, match="overflowed"):
                integrated_brier_score(surv, TimeGrid([2.0, 4.0]), [1.0, 3.0, 5.0], [1, 0, 1])

    def test_mismatched_event_length_rejected(self):
        grid = TimeGrid([2.0, 4.0])
        surv = np.full((3, 2), 0.5)
        with pytest.raises(UsageError, match="times 3, events 2"):
            integrated_brier_score(surv, grid, [1.0, 2.0, 3.0], [1, 0])

    def test_mismatched_censoring_lengths_rejected(self):
        grid = TimeGrid([2.0, 4.0])
        surv = np.full((3, 2), 0.5)
        with pytest.raises(UsageError, match="censor_times 3, censor_events 4"):
            integrated_brier_score(surv, grid, [1.0, 2.0, 3.0], [1, 0, 1],
                                   [1.0, 2.0, 3.0], [1, 0, 1, 1])


class TestLogRank:
    def test_identical_groups(self):
        times = np.array([1.0, 2.0, 3.0, 4.0] * 2)
        events = np.ones(8)
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        stat, p = log_rank_test(labels, times, events)
        assert stat == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0)

    def test_disjoint_groups_strongly_separated(self):
        times = np.concatenate([np.arange(1, 21), np.arange(101, 121)]).astype(float)
        events = np.ones(40)
        labels = np.array([0] * 20 + [1] * 20)
        stat, p = log_rank_test(labels, times, events)
        assert p < 0.01
        # at the k-th early event: group A has 20-k at risk, group B all 20
        expected = sum((20 - k) / (40 - k) for k in range(20))
        expected += 0.0  # late events: group A fully exited, n_a = 0
        var = sum(
            ((20 - k) / (40 - k)) * (1 - (20 - k) / (40 - k)) for k in range(20)
        )
        want = (20 - expected) ** 2 / var
        assert stat == pytest.approx(want, rel=1e-12)

    def test_chi_square_quantile(self):
        # force a statistic near 3.841 is fiddly; check the p transform itself
        for x in [0.5, 1.0, 3.841, 6.635, 10.83]:
            assert math.erfc(math.sqrt(x / 2.0)) == pytest.approx(
                reg_upper_gamma_half(x / 2.0), abs=1e-10
            )
        assert math.erfc(math.sqrt(3.841 / 2.0)) == pytest.approx(0.05, abs=1e-3)

    def test_single_group_rejected(self):
        with pytest.raises(UsageError):
            log_rank_test([0, 0, 0], [1.0, 2.0, 3.0], [1, 1, 1])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(UsageError, match="labels 3, times 4, events 4"):
            log_rank_test([0, 1, 0], [1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])

    def test_label_swap_invariance(self):
        rng = np.random.default_rng(5)
        times = rng.uniform(1, 10, size=30)
        events = rng.integers(0, 2, size=30)
        events[:5] = 1
        labels = rng.integers(0, 2, size=30)
        labels[:2] = [0, 1]
        a = log_rank_test(labels, times, events)
        b = log_rank_test(1 - labels, times, events)
        assert a[0] == pytest.approx(b[0])


def test_scoring_20k_rows_raises_no_warning():
    """Any inf * 0 or nan in a product would surface as a RuntimeWarning.
    Some scored times run past the censoring data's last, censored time, so
    their G(T_i-) is zero, floored at 1e-300, and their dead-by terms, up to
    1e300, are multiplied by 0 at every grid point."""
    rng = np.random.default_rng(20_000)
    n = 20_000
    times = rng.exponential(10.0, n) + 0.1
    events = rng.integers(0, 2, n)
    train_t = rng.exponential(4.0, 2000) + 0.1
    train_e = rng.integers(0, 2, 2000)
    train_e[train_t.argmax()] = 0
    assert np.count_nonzero(times > train_t.max()) > 100
    grid = build_time_grid(train_t, train_e, 16)
    surv = np.sort(rng.uniform(0, 1, size=(n, 16)), axis=1)[:, ::-1].copy()
    surv[:, 0] = 1.0
    surv[: n // 2, -1] = 0.0
    risk = np.round(rng.standard_normal(n), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ibs = integrated_brier_score(surv, grid, times, events, train_t, train_e)
        c = concordance_index(risk, times, events)
    assert np.isfinite(ibs) and 0.0 <= c <= 1.0
