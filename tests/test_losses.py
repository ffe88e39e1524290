"""Loss hand values, symmetry properties, and the fused nodes against their oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survstrat.config import ExperimentConfig, LossWeights
from survstrat.errors import ConfigurationError
from survstrat.losses import (
    _paired_nce,
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
from survstrat.tensor import Tensor, mlp, softmax_rows, weighted_sum
from survstrat.trainer import _contrastive_loss, _curriculum_losses, _survival_loss, _view_mean

from gradcases import decoding_to, dist_from_logits
from reftape import RefTensor, lift, zero_grad
from oracles import (
    clus_composed,
    ivcg_composed,
    ivcg_of_units,
    ivcg_pairwise,
    ivcw_transposed,
    kld_composed,
    mean_composed,
    mlp_composed,
    nll_composed,
    paired_nce_composed,
    rank_composed,
    rank_pairwise,
    rec_composed,
    reparameterize_composed,
    soft_assign,
    soft_assign_composed,
    survival_curve_composed,
    unit_rows,
    weighted_sum_composed,
)

TOL = 1e-5


def scalar(t):
    return float(t.values[0, 0])


def make_dist(probs):
    probs = np.asarray(probs, dtype=np.float64)
    survival = 1.0 - np.cumsum(probs[:, :-1], axis=1)
    return SurvivalDistribution(probs=Tensor(probs), survival=Tensor(survival))


class TestReconstruction:
    def test_perfect_reconstruction(self):
        x = np.ones((3, 4))
        total, per = loss_rec(x, Tensor(x.copy()))
        assert scalar(total) == 0.0
        np.testing.assert_array_equal(per.values, np.zeros((3, 1)))

    def test_unit_offsets(self):
        total, _ = loss_rec(np.zeros((1, 2)), Tensor(np.ones((1, 2))))
        assert scalar(total) == pytest.approx(2.0, abs=TOL)

    def test_mean_of_residual_norms(self):
        x = np.zeros((2, 2))
        x_hat = Tensor(np.array([[1.0, 1.0], [2.0, 0.0]]))
        total, per = loss_rec(x, x_hat)
        np.testing.assert_allclose(per.values.ravel(), [2.0, 4.0])
        assert scalar(total) == pytest.approx(3.0, abs=TOL)


class TestKld:
    def test_prior_match(self):
        total, _ = loss_kld(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        assert scalar(total) == pytest.approx(0.0, abs=TOL)

    def test_unit_mean(self):
        total, _ = loss_kld(Tensor(np.ones((1, 1))), Tensor(np.zeros((1, 1))))
        assert scalar(total) == pytest.approx(0.5, abs=TOL)

    def test_doubled_sigma(self):
        # sigma = 2: 0.5 * (0 + 4 - 1 - ln 4) = 0.80685
        log_var = Tensor(np.full((1, 1), np.log(4.0)))
        total, _ = loss_kld(Tensor(np.zeros((1, 1))), log_var)
        assert scalar(total) == pytest.approx(0.80685, abs=TOL)


class TestClusterDistance:
    def test_all_at_centers(self):
        centers = np.array([[1.0, 2.0], [3.0, 4.0]])
        z = Tensor(centers[[0, 1, 0]])
        total, _ = loss_clus(z, centers, [0, 1, 0])
        assert scalar(total) == 0.0

    def test_distance_two(self):
        total, _ = loss_clus(Tensor(np.array([[2.0, 0.0]])), np.zeros((1, 2)), [0])
        assert scalar(total) == pytest.approx(4.0, abs=TOL)

    def test_siamese_view_average(self):
        per_view_a = Tensor(np.array([[4.0]]))
        per_view_b = Tensor(np.array([[0.0]]))
        (avg,) = _view_mean([(per_view_a,), (per_view_b,)])
        assert scalar(avg) == pytest.approx(2.0, abs=TOL)


class TestIvcg:
    def test_no_censored_anchors(self):
        z = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
        out = loss_ivcg(z, np.ones(4), np.zeros(4), tau=1.0)
        assert scalar(out) == 0.0

    def test_three_point_hand_value(self):
        # anchor/positive colinear, negative orthogonal: -log(e / (2e + 1))
        z = Tensor(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]]))
        events = np.array([0, 1, 1])
        assign = np.array([0, 0, 1])
        out = loss_ivcg(z, events, assign, tau=1.0)
        assert scalar(out) == pytest.approx(0.86199, abs=TOL)

    def test_higher_positive_similarity_lowers_loss(self):
        events = np.array([0, 1, 1])
        assign = np.array([0, 0, 1])
        near = Tensor(np.array([[1.0, 0.1], [1.0, 0.0], [0.0, 1.0]]))
        far = Tensor(np.array([[0.1, 1.0], [1.0, 0.0], [0.0, 1.0]]))
        assert scalar(loss_ivcg(near, events, assign, 1.0)) < scalar(
            loss_ivcg(far, events, assign, 1.0)
        )

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((8, 4))
        events = rng.integers(0, 2, size=8)
        events[:2] = [0, 1]
        assign = rng.integers(0, 2, size=8)
        assign[:2] = [0, 0]
        perm = rng.permutation(8)
        a = scalar(loss_ivcg(Tensor(z), events, assign, 0.5))
        b = scalar(loss_ivcg(Tensor(z[perm]), events[perm], assign[perm], 0.5))
        assert a == pytest.approx(b, abs=1e-10)

    @pytest.mark.parametrize("case", ["no_censored", "no_positives", "all_censored_anchors",
                                      "singleton_clusters", "random"])
    @pytest.mark.parametrize("tau", [0.3, 0.5])
    def test_edge_batch_matches_oracles(self, case, tau):
        """The anchor-row loss against the pairwise loop and the composed
        graph over all n rows, value and gradient."""
        rng = np.random.default_rng(11)
        n = 40
        events, assign = np.tile([0, 1], n // 2), rng.integers(0, 3, size=n)
        if case == "no_censored":
            events = np.ones(n, dtype=int)
        elif case == "no_positives":
            assign = events.copy()
        elif case == "all_censored_anchors":
            assign = np.arange(n) // 4
        elif case == "singleton_clusters":
            # one censored row with a positive; every other row alone
            assign = np.arange(n)
            assign[1] = 0
        elif case == "random":
            events = rng.integers(0, 2, size=n)
        z = Tensor(rng.standard_normal((n, 5)), requires_grad=True)
        fused = loss_ivcg(z, events, assign, tau)
        want = ivcg_pairwise(z.values.tolist(), events, assign, tau)
        assert scalar(fused) == pytest.approx(want, rel=1e-12, abs=1e-12)
        if case in ("no_censored", "no_positives"):
            assert scalar(fused) == 0.0 and not fused.requires_grad
            return
        got, (got_grad,) = _value_and_grads(lambda: loss_ivcg(z, events, assign, tau), [z])
        want, (want_grad,) = _value_and_grads(
            lambda: ivcg_composed(z, events, assign, tau), [z])
        assert got == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(got_grad, want_grad, rtol=1e-12,
                                   atol=1e-12 * max(np.abs(want_grad).max(), 1.0))


@pytest.mark.parametrize("n", [1, 2, 33, 130])
@pytest.mark.parametrize("cols", [False, True])
def test_paired_nce_matches_composed_graph(n, cols):
    rng = np.random.default_rng(n)
    a = Tensor(rng.standard_normal((n, 6)), requires_grad=True)
    b = Tensor(rng.standard_normal((n, 6)), requires_grad=True)
    if cols:
        composed = lambda: paired_nce_composed(lift(a).T, lift(b).T, 0.5)  # noqa: E731
    else:
        composed = lambda: paired_nce_composed(a, b, 0.5)  # noqa: E731
    got, got_grads = _value_and_grads(lambda: _paired_nce(a, b, 0.5, cols), [a, b])
    want, want_grads = _value_and_grads(composed, [a, b])
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * max(np.abs(w).max(), 1.0))


class TestIviw:
    def test_single_patient_zero(self):
        z = Tensor(np.array([[1.0, 2.0]]))
        assert scalar(loss_iviw(z, z, tau=1.0)) == pytest.approx(0.0, abs=TOL)

    def test_orthogonal_hand_value(self):
        z = Tensor(np.eye(2))
        out = loss_iviw(z, Tensor(np.eye(2)), tau=1.0)
        assert scalar(out) == pytest.approx(0.62652, abs=TOL)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        z1 = rng.standard_normal((6, 3))
        z2 = rng.standard_normal((6, 3))
        perm = rng.permutation(6)
        a = scalar(loss_iviw(Tensor(z1), Tensor(z2), 0.5))
        b = scalar(loss_iviw(Tensor(z1[perm]), Tensor(z2[perm]), 0.5))
        assert a == pytest.approx(b, abs=1e-10)


class TestIvcw:
    def test_orthogonal_hand_value(self):
        q = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
        out = loss_ivcw(q, q, tau=1.0)
        assert scalar(out) == pytest.approx(0.62652, abs=TOL)

    def test_single_cluster_zero(self):
        q = Tensor(np.ones((5, 1)))
        assert scalar(loss_ivcw(q, q, tau=1.0)) == pytest.approx(0.0, abs=TOL)

    def test_consistent_label_swap_invariance(self):
        rng = np.random.default_rng(3)
        q1 = rng.uniform(0.1, 1.0, size=(6, 3))
        q2 = rng.uniform(0.1, 1.0, size=(6, 3))
        swap = [2, 0, 1]
        a = scalar(loss_ivcw(Tensor(q1), Tensor(q2), 0.5))
        b = scalar(loss_ivcw(Tensor(q1[:, swap]), Tensor(q2[:, swap]), 0.5))
        assert a == pytest.approx(b, abs=1e-10)

    def test_cluster_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            loss_ivcw(Tensor(np.ones((4, 2))), Tensor(np.ones((4, 3))), 1.0)


class TestSoftAssignTensor:
    def test_matches_numpy_path(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((10, 3))
        centers = rng.standard_normal((4, 3))
        got = soft_assign_tensor(Tensor(z), centers, nu=1.5).values
        want = soft_assign(z, centers, nu=1.5)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        q = soft_assign_tensor(Tensor(rng.standard_normal((7, 2))), rng.standard_normal((3, 2)))
        np.testing.assert_allclose(q.values.sum(axis=1), 1.0, atol=1e-12)


class TestNll:
    def test_perfect_uncensored(self):
        dist = make_dist([[1.0, 0.0, 0.0]])
        assert scalar(loss_nll(dist, [0], [1])) == pytest.approx(0.0, abs=1e-9)

    def test_perfect_censored(self):
        # all mass beyond the horizon: survival stays 1 everywhere
        dist = make_dist([[0.0, 0.0, 1.0]])
        assert scalar(loss_nll(dist, [1], [0])) == pytest.approx(0.0, abs=1e-9)

    def test_hand_mean(self):
        dist = make_dist([
            [0.5, 0.25, 0.25],   # uncensored at bin 0: -log 0.5
            [0.5, 0.25, 0.25],   # censored at bin 1: survival 0.25
        ])
        out = loss_nll(dist, [0, 1], [1, 0])
        assert scalar(out) == pytest.approx(1.03972, abs=TOL)

    def test_clamp_keeps_loss_finite(self):
        dist = make_dist([[0.0, 1.0, 0.0]])
        out = loss_nll(dist, [0], [1])
        assert np.isfinite(scalar(out))


class TestRank:
    def test_no_comparable_pairs(self):
        dist = make_dist([[0.5, 0.3, 0.2]] * 2)
        assert scalar(loss_rank(dist, [0, 1], [0, 0], 0.1)) == 0.0

    def test_equal_survival_gives_one(self):
        probs = np.array([[0.5, 0.3, 0.2], [0.5, 0.3, 0.2]])
        dist = make_dist(probs)
        out = loss_rank(dist, [0, 1], [1, 0], 1.0)
        assert scalar(out) == pytest.approx(1.0, abs=TOL)

    def test_hand_exponent(self):
        survival = np.array([[0.2, 0.1], [0.8, 0.6]])
        probs = np.zeros((2, 3))
        dist = SurvivalDistribution(probs=Tensor(probs), survival=Tensor(survival))
        out = loss_rank(dist, [0, 1], [1, 0], 0.1)
        assert scalar(out) == pytest.approx(np.exp(-6.0), abs=TOL)

    def test_correct_ordering_scores_below_one(self):
        # anchor dies early with low survival: exp of a negative number
        dist = make_dist([[0.9, 0.05, 0.05], [0.05, 0.05, 0.9]])
        out = loss_rank(dist, [0, 1], [1, 1], 0.5)
        assert 0 < scalar(out) < 1.0


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 10).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
                 min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
    )),
    st.sampled_from([0.1, 0.5, 2.0]),
)
def test_ivcg_matches_pairwise_loop(batch, tau):
    z, events, assign = batch
    got = scalar(loss_ivcg(Tensor(np.asarray(z)), events, assign, tau))
    assert got == pytest.approx(ivcg_pairwise(z, events, assign, tau), rel=1e-9, abs=1e-9)


@st.composite
def rank_batches(draw):
    """n <= 12 rows over T <= 4 bins (so bins tie), survival in [0, 1] and a
    sigma down to 0.01."""
    n = draw(st.integers(1, 12))
    n_bins = draw(st.integers(1, 4))
    survival = draw(st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=n_bins, max_size=n_bins),
        min_size=n, max_size=n,
    ))
    bins = draw(st.lists(st.integers(0, n_bins - 1), min_size=n, max_size=n))
    events = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    sigma = draw(st.sampled_from([0.01, 0.1, 0.25, 1.0, 3.0]))
    return survival, bins, events, sigma


class TestRankOracle:
    """loss_rank's O(n*T) form against the dense pairwise loop."""

    @settings(max_examples=300, deadline=None)
    @given(rank_batches())
    # tied bins: two anchors share bin 0, two later rows share bin 2
    @example(([[0.9, 0.5, 0.2]] * 2 + [[0.8, 0.6, 0.1]] * 2, [0, 0, 2, 2], [1, 1, 0, 1], 0.1))
    # all censored: no anchors, zero loss and zero gradient
    @example(([[0.7, 0.3], [0.6, 0.2], [0.9, 0.8]], [0, 1, 0], [0, 0, 0], 0.25))
    # events in the last bin have no later rows and are no anchors
    @example(([[0.9, 0.4, 0.1], [0.8, 0.7, 0.6], [0.5, 0.5, 0.5]], [2, 0, 2], [1, 1, 1], 0.5))
    # sigma = 0.01 with spread survival: terms near exp(100)
    @example(([[1.0, 1.0], [0.0, 0.0], [0.5, 0.0]], [0, 1, 1], [1, 0, 1], 0.01))
    def test_value_and_gradient_match_pairwise_loop(self, batch):
        survival, bins, events, sigma = batch
        want, want_grad = rank_pairwise(survival, bins, events, sigma)
        leaf = Tensor(np.asarray(survival), requires_grad=True)
        dist = SurvivalDistribution(probs=Tensor(np.zeros((len(bins), 1))), survival=leaf)
        out = loss_rank(dist, bins, events, sigma)
        if want == 0.0:
            assert scalar(out) == 0.0
        else:
            assert scalar(out) == pytest.approx(want, rel=1e-12)
        out.backward()
        scale = np.abs(want_grad).max()
        np.testing.assert_allclose(leaf.grad, want_grad, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("survival,bins,events,want", [
        # (S_2(1) - S_0(1)) / sigma = 1000 would overflow exp, but row 2's
        # event is in the last bin, so that pair is never compared
        ([[0.5, 0.0], [0.5, 0.5], [0.5, 1.0]], [0, 1, 1], [1, 0, 1], 1.0),
        # bin 0's only later row has -S/sigma = -1000, 1000 below row 0's
        # own -S/sigma; row 0 must not enter that bin's exp
        ([[0.0, 0.0], [1.0, 0.0]], [0, 1], [1, 0], 0.0),
    ])
    def test_no_overflow_where_pairwise_form_is_finite(self, survival, bins, events, want):
        dist = SurvivalDistribution(
            probs=Tensor(np.zeros((len(bins), 3))), survival=Tensor(survival)
        )
        out = loss_rank(dist, bins, events, 0.001)
        assert scalar(out) == rank_pairwise(survival, bins, events, 0.001)[0] == want


# the three-point batch of TestIvcg: its IVCG at tau = 1 is 0.86199
THREE_POINTS = Tensor(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]]))
THREE_EVENTS = np.array([0, 1, 1])
THREE_ASSIGN = np.array([0, 0, 1])
THREE_CENTERS = np.array([[1.0, 0.0], [0.0, 1.0]])


def contrastive(weights, views, siamese=False):
    """The trainer's contrastive total of the three-point batch, one view per latent."""
    outs = [EncoderOutput(mu=z, log_var=None, z=z) for z in views]
    config = ExperimentConfig(siamese=siamese, weights=weights)
    return _contrastive_loss(outs, THREE_EVENTS, [THREE_ASSIGN] * len(outs),
                             [THREE_CENTERS] * len(outs), config)


def curriculum_per_instance(weights, variational):
    """The trainer's per-instance curriculum loss of one row with rec 2, KL 0.5
    and cluster distance 4."""
    z = Tensor(np.array([[2.0]]))
    out = EncoderOutput(mu=Tensor(np.array([[1.0]])), log_var=Tensor(np.zeros((1, 1))), z=z)
    model = decoding_to(Tensor(np.ones((1, 2))), variational)
    *_, per = _curriculum_losses(model, Tensor(np.zeros((1, 2))), [out], [np.array([0])],
                                 [np.zeros((1, 1))], weights)
    return per


class TestCombine:
    def test_all_weights_zero(self):
        w = LossWeights(alpha_ivcg=0.0, alpha_iviw=0.0, alpha_ivcw=0.0)
        out = contrastive(w, [THREE_POINTS])
        assert scalar(out) == 0.0

    def test_projection_to_ivcg(self):
        w = LossWeights(alpha_ivcg=1.0, alpha_iviw=0.0, alpha_ivcw=0.0, tau=1.0)
        out = contrastive(w, [THREE_POINTS])
        assert scalar(out) == pytest.approx(0.86199, abs=TOL)

    def test_instance_hand_sum(self):
        w = LossWeights(alpha_rec=1.0, alpha_kld=1.0, alpha_clus=1.0)
        out = curriculum_per_instance(w, variational=True)
        assert scalar(out) == pytest.approx(6.5, abs=TOL)

    def test_instance_without_kld(self):
        w = LossWeights(alpha_rec=2.0, alpha_clus=0.5)
        out = curriculum_per_instance(w, variational=False)
        assert scalar(out) == pytest.approx(6.0, abs=TOL)

    def test_surv_total(self):
        w = LossWeights(beta=0.5)
        dist = make_dist([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]])
        bins, events = np.array([0, 1, 1]), np.array([1, 1, 0])
        nll = scalar(loss_nll(dist, bins, events))
        rank = scalar(loss_rank(dist, bins, events, w.sigma_rank))
        out = _survival_loss(dist, bins, events, w)
        assert scalar(out) == pytest.approx(nll + 0.5 * rank, abs=TOL)

    def test_siamese_mode_accepts_cross_view_weights(self):
        w = LossWeights(alpha_ivcg=1.0, alpha_iviw=0.5, alpha_ivcw=0.5)
        ExperimentConfig(siamese=True, weights=w).validate()
        z2 = Tensor(np.array([[0.0, 1.0], [1.0, 1.0], [3.0, 0.0]]))
        out = contrastive(w, [THREE_POINTS, z2], siamese=True)
        want = (scalar(loss_ivcg(THREE_POINTS, THREE_EVENTS, THREE_ASSIGN, w.tau))
                + scalar(loss_ivcg(z2, THREE_EVENTS, THREE_ASSIGN, w.tau))
                + 0.5 * scalar(loss_iviw(THREE_POINTS, z2, w.tau))
                + 0.5 * scalar(loss_ivcw(soft_assign_tensor(THREE_POINTS, THREE_CENTERS),
                                         soft_assign_tensor(z2, THREE_CENTERS), w.tau)))
        assert scalar(out) == pytest.approx(want, abs=TOL)


class TestNllReference:
    def test_matches_per_row_loop(self):
        rng = np.random.default_rng(8)
        logits = Tensor(rng.standard_normal((9, 5)))
        bins = rng.integers(0, 4, size=9)
        events = rng.integers(0, 2, size=9)
        dist = dist_from_logits(logits)
        p, s = dist.probs.values, dist.survival.values
        want = -np.mean([
            np.log(p[i, b]) if ev == 1 else np.log(s[i, b])
            for i, (b, ev) in enumerate(zip(bins, events))
        ])
        assert scalar(loss_nll(dist, bins, events)) == pytest.approx(want, rel=1e-12)


class TestNonNegativity:
    def test_losses_nonnegative_on_random_batches(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            z = Tensor(rng.standard_normal((8, 4)))
            z2 = Tensor(rng.standard_normal((8, 4)))
            events = rng.integers(0, 2, size=8)
            assign = rng.integers(0, 2, size=8)
            logits = Tensor(rng.standard_normal((8, 5)))
            bins = rng.integers(0, 4, size=8)
            dist = dist_from_logits(logits)
            vals = [
                scalar(loss_ivcg(z, events, assign, 0.5)),
                scalar(loss_iviw(z, z2, 0.5)),
                scalar(loss_nll(dist, bins, events)),
                scalar(loss_rank(dist, bins, events, 0.2)),
            ]
            assert all(np.isfinite(v) and v >= 0 for v in vals)


def _fused_and_composed(kind, rng):
    """(fused loss, composed-oracle loss, leaves, d loss / d u) on one random
    batch; both builders rebuild the graph from the leaves. The last is None,
    or for ``ivcg`` a function giving the oracle's gradient with respect to
    the floored unit rows u of its one leaf."""
    n = int(rng.integers(1, 9))
    if kind in ("nll", "rank"):
        n_bins = int(rng.integers(1, 5))
        logits = Tensor(rng.standard_normal((n, n_bins + 1)) * 2.0, requires_grad=True)
        bins = rng.integers(0, n_bins, size=n)
        events = rng.integers(0, 2, size=n)
        # row 0's bin probability falls below the 1e-12 floor
        logits.values[0, bins[0]] -= 40.0
        if kind == "nll":
            return (lambda: loss_nll(dist_from_logits(logits), bins, events),
                    lambda: nll_composed(dist_from_logits(logits), bins, events), [logits], None)
        sigma = float(rng.choice([0.05, 0.3, 2.0]))
        return (lambda: loss_rank(dist_from_logits(logits), bins, events, sigma),
                lambda: rank_composed(dist_from_logits(logits), bins, events, sigma), [logits],
                None)
    tau = float(rng.choice([0.1, 0.5, 2.0]))
    d = int(rng.integers(1, 5))
    # a zero row exercises the norm floor
    z1 = Tensor(rng.standard_normal((n, d)) * (rng.random((n, 1)) > 0.1), requires_grad=True)
    z2 = Tensor(rng.standard_normal((n, d)), requires_grad=True)
    if kind == "ivcg":
        events = rng.integers(0, 2, size=n)
        assign = rng.integers(0, 3, size=n)

        def unit_grad():
            u = RefTensor(unit_rows(z1).values, requires_grad=True)
            ivcg_of_units(u, events, assign, tau).backward()
            return u.grad

        return (lambda: loss_ivcg(z1, events, assign, tau),
                lambda: ivcg_composed(z1, events, assign, tau), [z1], unit_grad)
    if kind == "iviw":
        return (lambda: loss_iviw(z1, z2, tau),
                lambda: paired_nce_composed(z1, z2, tau), [z1, z2], None)
    # ivcw: soft assignments of n rows over d clusters
    q1 = Tensor(rng.uniform(0.05, 1.0, size=(n, d)), requires_grad=True)
    q2 = Tensor(rng.uniform(0.05, 1.0, size=(n, d)), requires_grad=True)
    return (lambda: loss_ivcw(q1, q2, tau),
            lambda: paired_nce_composed(lift(q1).T, lift(q2).T, tau), [q1, q2], None)


def _step_node_and_composed(kind, rng):
    """(fused node, composed-oracle graph, leaves) for the nodes of a training
    step, each reduced to a scalar by one fixed random weighting."""
    n, d = int(rng.integers(1, 9)), int(rng.integers(1, 5))

    def leaf(shape, scale=1.0):
        return RefTensor(rng.standard_normal(shape) * scale, requires_grad=True)

    def weighted(make):
        # the per-instance or matrix output of ``make``, weighted and summed
        out = make()
        if isinstance(out, tuple):
            return out[0] + (out[1] * RefTensor(w[:, :1])).sum()
        return (out * RefTensor(w[:, :out.values.shape[1]])).sum()

    w = rng.standard_normal((n, d + 2))
    a, b = leaf((n, d)), leaf((n, d), 0.5)
    if kind == "reparameterize":
        eps = rng.standard_normal((n, d))
        return (lambda: weighted(lambda: reparameterize(a, b, None, eps)[0]),
                lambda: weighted(lambda: reparameterize_composed(a, b, None, eps)[0]), [a, b])
    if kind == "rec":
        x = rng.standard_normal((n, d))
        return (lambda: weighted(lambda: loss_rec(x, a)),
                lambda: weighted(lambda: rec_composed(x, a)), [a])
    if kind == "kld":
        return (lambda: weighted(lambda: loss_kld(a, b)),
                lambda: weighted(lambda: kld_composed(a, b)), [a, b])
    if kind in ("clus", "soft_assign"):
        centers = rng.standard_normal((int(rng.integers(1, 4)), d))
        # a latent on a center puts a squared distance at the clip to zero
        a.values[0] = centers[0]
        if kind == "clus":
            assign = rng.integers(0, centers.shape[0], size=n)
            return (lambda: weighted(lambda: loss_clus(a, centers, assign)),
                    lambda: weighted(lambda: clus_composed(a, centers, assign)), [a])
        nu = float(rng.choice([0.5, 1.0, 3.0]))
        return (lambda: weighted(lambda: soft_assign_tensor(a, centers, nu)),
                lambda: weighted(lambda: soft_assign_composed(a, centers, nu)), [a])
    if kind == "survival_curve":
        logits = leaf((n, d + 1), 2.0)
        return (lambda: weighted(lambda: survival_curve(softmax_rows(logits))),
                lambda: weighted(lambda: survival_curve_composed(softmax_rows(logits))),
                [logits])
    if kind == "weighted_sum":
        terms = [(leaf((n, 1)), float(rng.choice([0.0, 0.5, 1.0, 2.5])))
                 for _ in range(int(rng.integers(1, 4)))]
        scale = float(rng.choice([1.0, 0.5, 1.0 / 3.0]))
        return (lambda: weighted(lambda: weighted_sum(terms, scale)),
                lambda: weighted(lambda: weighted_sum_composed(terms, scale)),
                [t for t, _ in terms])
    if kind == "mean":
        mask = (rng.random((n, d)) < 0.5).astype(np.float64)
        mask[0, 0] = 1.0
        axis = [None, 0, 1][int(rng.integers(0, 3))]
        return (lambda: lift(a.mean(axis=axis).mean()) + (a * a).mean(mask=mask),
                lambda: mean_composed(mean_composed(a, axis)) + mean_composed(a * a, mask=mask),
                [a])
    # ivcw: the columns of n x d soft assignments
    q1 = Tensor(rng.uniform(0.05, 1.0, size=(n, d)), requires_grad=True)
    q2 = Tensor(rng.uniform(0.05, 1.0, size=(n, d)), requires_grad=True)
    return (lambda: loss_ivcw(q1, q2, 0.5), lambda: ivcw_transposed(q1, q2, 0.5), [q1, q2])


_FLOOR = 1e-12  # the norm floor of the fused nodes' row normalisation


def _smallest_norm(values):
    """The smallest nonzero row or column norm, at most 1: the composed
    oracle's rounding in a gradient through x / ||x|| grows as 1 / ||x||."""
    norms = np.concatenate([np.linalg.norm(values, axis=0), np.linalg.norm(values, axis=1)])
    return min(1.0, norms[norms > 0].min(initial=1.0))


def _value_and_grads(build, leaves):
    for leaf in leaves:
        zero_grad(leaf)
    out = build()
    out.backward()
    return scalar(out), [leaf.grad.copy() for leaf in leaves]


class TestFusedNodes:
    """Each fused loss node against the composed tape graph it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["nll", "rank", "ivcg", "iviw", "ivcw"]), st.integers(0, 2 ** 32 - 1))
    # ivcg seeds at which the two graphs' zero-row gradients differ by 3e-9 to 3e-8
    @example("ivcg", 5635)
    @example("ivcg", 11908)
    @example("ivcg", 13130)
    @example("ivcg", 16313)
    @example("ivcg", 18085)
    def test_value_and_gradient_match_composed_graph(self, kind, seed):
        fused, composed, leaves, unit_grad = _fused_and_composed(kind, np.random.default_rng(seed))
        got, got_grads = _value_and_grads(fused, leaves)
        want, want_grads = _value_and_grads(composed, leaves)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        for leaf, g, w in zip(leaves, got_grads, want_grads):
            scale = max(np.abs(w).max(), 1.0) / _smallest_norm(leaf.values)
            floored = np.zeros(len(g), dtype=bool)
            if unit_grad is not None:
                floored = np.linalg.norm(leaf.values, axis=1) <= _FLOOR
                # there d loss / d x is (d loss / d u) / floor: compare d loss / d u,
                # whose rounding is relative to its largest entry
                np.testing.assert_allclose(_FLOOR * g[floored], _FLOOR * w[floored], rtol=1e-12,
                                           atol=1e-12 * np.abs(unit_grad()).max())
            np.testing.assert_allclose(g[~floored], w[~floored], rtol=1e-12, atol=1e-12 * scale)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["reparameterize", "rec", "kld", "clus", "soft_assign",
                            "survival_curve", "weighted_sum", "mean", "ivcw"]),
           st.integers(0, 2 ** 32 - 1))
    # a seed whose softmax backward cancels to 1e-5 of the gradient's scale, where
    # a suffix summed in another order than the fused node's differs at 1.4e-12
    @example("survival_curve", 616722)
    def test_step_node_matches_composed_graph(self, kind, seed):
        fused, composed, leaves = _step_node_and_composed(kind, np.random.default_rng(seed))
        got, got_grads = _value_and_grads(fused, leaves)
        want, want_grads = _value_and_grads(composed, leaves)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
        for g, w in zip(got_grads, want_grads):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=2, max_size=5), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    def test_mlp_is_bit_identical_to_composed_layers(self, widths, relu_last, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((4, widths[0])), requires_grad=True)
        layers = [
            (Tensor(rng.standard_normal((a, b)), requires_grad=True),
             Tensor(rng.standard_normal((1, b)), requires_grad=True))
            for a, b in zip(widths, widths[1:])
        ]
        leaves = [x, *(p for layer in layers for p in layer)]
        weight = RefTensor(rng.standard_normal((4, widths[-1])))
        got, got_grads = _value_and_grads(lambda: (mlp(x, layers, relu_last) * weight).sum(), leaves)
        np.testing.assert_array_equal(
            mlp(x, layers, relu_last).values, mlp_composed(x, layers, relu_last).values
        )
        want, want_grads = _value_and_grads(
            lambda: (mlp_composed(x, layers, relu_last) * weight).sum(), leaves
        )
        assert got == want
        for g, w in zip(got_grads, want_grads):
            np.testing.assert_array_equal(g, w)
