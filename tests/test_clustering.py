"""Clustering fits against brute-force and hand-worked oracles."""

import itertools

import numpy as np
import pytest

from survstrat.clustering import (
    ClusterModel,
    agglomerative_fit,
    assign_nearest,
    fit,
    gmm_fit,
    kmeans_fit,
    soft_assign,
    within_cluster_sse,
)
from survstrat.errors import ConfigurationError, UsageError


def make_blobs(seed=0, n_per=20, centers=((0.0, 0.0), (10.0, 10.0))):
    rng = np.random.default_rng(seed)
    parts, labels = [], []
    for k, c in enumerate(centers):
        parts.append(rng.standard_normal((n_per, len(c))) * 0.3 + np.asarray(c))
        labels += [k] * n_per
    return np.vstack(parts), np.asarray(labels)


def partitions_agree(a, b):
    """True when two label vectors induce the same partition."""
    mapping = {}
    for x, y in zip(a, b):
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


class TestKMeans:
    def test_separated_blobs_perfect_split(self):
        Z = np.array([[0.0, 0.0]] * 5 + [[10.0, 10.0]] * 5)
        model = kmeans_fit(Z, 2, seed=1)
        got = {tuple(c) for c in model.centers}
        assert got == {(0.0, 0.0), (10.0, 10.0)}
        assert partitions_agree(model.assignments, [0] * 5 + [1] * 5)

    def test_k1_center_is_column_mean(self):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((12, 3))
        model = kmeans_fit(Z, 1, seed=0)
        np.testing.assert_allclose(model.centers[0], Z.mean(axis=0), rtol=1e-12)

    def test_six_points_vs_bruteforce(self):
        # brute-force over all 2-partitions: optimum is {0,1,2} | {9,10,11}
        Z = np.array([[0.0], [1.0], [2.0], [9.0], [10.0], [11.0]])
        best_sse, best_labels = np.inf, None
        for bits in itertools.product([0, 1], repeat=6):
            if len(set(bits)) < 2:
                continue
            labels = np.asarray(bits)
            centers = np.vstack([Z[labels == k].mean(axis=0) for k in (0, 1)])
            sse = within_cluster_sse(Z, centers, labels)
            if sse < best_sse:
                best_sse, best_labels = sse, labels
        assert best_sse == pytest.approx(4.0)
        model = kmeans_fit(Z, 2, seed=3)
        assert sorted(model.centers.ravel()) == pytest.approx([1.0, 10.0])
        assert within_cluster_sse(Z, model.centers, model.assignments) == pytest.approx(4.0)
        assert partitions_agree(model.assignments, best_labels)

    def test_sse_monotone_over_iterations(self):
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((60, 4))
        model = kmeans_fit(Z, 4, seed=5)
        sse = model.extra["sse"]
        assert all(b <= a + 1e-9 for a, b in zip(sse, sse[1:]))

    def test_deterministic_given_seed(self):
        Z, _ = make_blobs(seed=7)
        a = kmeans_fit(Z, 3, seed=11)
        b = kmeans_fit(Z, 3, seed=11)
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_n_less_than_k_rejected(self):
        with pytest.raises(UsageError):
            kmeans_fit(np.zeros((2, 2)), 3, seed=0)

    def test_no_empty_clusters_after_fit(self):
        rng = np.random.default_rng(9)
        Z = rng.standard_normal((30, 2))
        model = kmeans_fit(Z, 5, seed=9)
        assert set(model.assignments) == set(range(5))


class TestGmm:
    def test_blobs_match_kmeans_partition(self):
        Z, _ = make_blobs(seed=1)
        km = kmeans_fit(Z, 2, seed=4)
        gm = gmm_fit(Z, 2, seed=4)
        assert partitions_agree(km.assignments, gm.assignments)

    def test_k1_recovers_sample_moments(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((40, 2)) * 2.0 + 1.0
        model = gmm_fit(Z, 1, seed=0)
        np.testing.assert_allclose(model.centers[0], Z.mean(axis=0), atol=1e-8)
        np.testing.assert_allclose(model.extra["variances"][0], Z.var(axis=0), atol=1e-6)

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(2)
        Z = np.vstack([
            rng.standard_normal((30, 2)) + (0.0, 0.0),
            rng.standard_normal((30, 2)) + (1.5, 1.5),
            rng.standard_normal((30, 2)) + (-1.5, 1.5),
        ])
        model = gmm_fit(Z, 3, seed=2)
        ll = model.extra["log_likelihood"]
        assert len(ll) >= 2
        assert all(b >= a - 1e-7 * max(1.0, abs(a)) for a, b in zip(ll, ll[1:]))


class TestAgglomerative:
    def test_k_equals_n_no_merges(self):
        Z = np.arange(8.0).reshape(4, 2)
        model = agglomerative_fit(Z, 4)
        assert sorted(model.assignments) == [0, 1, 2, 3]

    def test_three_points_enumerated(self):
        # all merge orders leave {0,1} together, {10} alone
        Z = np.array([[0.0], [1.0], [10.0]])
        model = agglomerative_fit(Z, 2)
        assert partitions_agree(model.assignments, [0, 0, 1])

    def test_blobs_match_kmeans_partition(self):
        Z, _ = make_blobs(seed=3)
        km = kmeans_fit(Z, 2, seed=6)
        ag = agglomerative_fit(Z, 2)
        assert partitions_agree(km.assignments, ag.assignments)

    def test_centers_are_cluster_means(self):
        Z, _ = make_blobs(seed=4, n_per=10)
        model = agglomerative_fit(Z, 2)
        for k in range(2):
            np.testing.assert_allclose(model.centers[k], Z[model.assignments == k].mean(axis=0))

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        Z = rng.standard_normal((25, 3))
        a = agglomerative_fit(Z, 3)
        b = agglomerative_fit(Z, 3)
        np.testing.assert_array_equal(a.assignments, b.assignments)


class TestAssignment:
    def test_exact_center_match(self):
        centers = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 9.0]])
        assert assign_nearest(np.array([[5.0, 5.0]]), centers)[0] == 1

    def test_tie_goes_to_lowest_index(self):
        centers = np.array([[0.0], [2.0]])
        assert assign_nearest(np.array([[1.0]]), centers)[0] == 0

    def test_matches_bruteforce_scan(self):
        rng = np.random.default_rng(12)
        Z = rng.standard_normal((50, 4))
        centers = rng.standard_normal((6, 4))
        got = assign_nearest(Z, centers)
        for i in range(len(Z)):
            dists = [np.sum((Z[i] - c) ** 2) for c in centers]
            assert got[i] == int(np.argmin(dists))

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        Z = rng.standard_normal((30, 2))
        model = kmeans_fit(Z, 3, seed=13)
        again = assign_nearest(Z, model.centers)
        np.testing.assert_array_equal(again, model.assignments)


class TestSoftAssign:
    def test_equidistant_is_uniform(self):
        centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
        q = soft_assign(np.array([[0.0, 0.0]]), centers, nu=1.0)
        np.testing.assert_allclose(q, [[0.5, 0.5]])

    def test_hand_value_nu1(self):
        # z at center 1, distance^2 = 1 to center 2: kernels 1 and 1/2
        centers = np.array([[0.0], [1.0]])
        q = soft_assign(np.array([[0.0]]), centers, nu=1.0)
        np.testing.assert_allclose(q, [[2.0 / 3.0, 1.0 / 3.0]], rtol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(21)
        q = soft_assign(rng.standard_normal((40, 5)), rng.standard_normal((4, 5)), nu=2.0)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)

    def test_argmax_matches_hard_assignment(self):
        rng = np.random.default_rng(22)
        Z = rng.standard_normal((60, 3))
        centers = rng.standard_normal((4, 3))
        hard = assign_nearest(Z, centers)
        soft = soft_assign(Z, centers, nu=1.0)
        np.testing.assert_array_equal(np.argmax(soft, axis=1), hard)

    def test_bad_nu_rejected(self):
        with pytest.raises(UsageError):
            soft_assign(np.zeros((2, 2)), np.zeros((2, 2)), nu=0.0)


class TestDispatch:
    def test_spectral_rejected_with_message(self):
        with pytest.raises(ConfigurationError, match="spectral"):
            fit(np.zeros((5, 2)), "spectral", 2, seed=0)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            fit(np.zeros((5, 2)), "dbscan", 2, seed=0)

    def test_dispatch_sets_nu(self):
        Z, _ = make_blobs(seed=5, n_per=5)
        model = fit(Z, "kmeans", 2, seed=1)
        assert isinstance(model, ClusterModel)
        assert model.algorithm == "kmeans"
