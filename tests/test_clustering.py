"""Clustering fits against brute-force and hand-worked oracles."""

import itertools

import numpy as np
import pytest

from survstrat import clustering
from survstrat.clustering import agglomerative_fit, assign_nearest, fit, gmm_fit, kmeans_fit
from survstrat.errors import ConfigurationError, UsageError

from oracles import gmm_em_reference, soft_assign


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


def within_cluster_sse(Z, centers, labels):
    return float(((Z - centers[labels]) ** 2).sum())


def em_reference_matching_fit(Z, K, seed):
    """The EM reference's outputs, after checking that it reproduces
    ``gmm_fit``'s means and assignments exactly."""
    means, labels, variances, log_likelihoods = gmm_em_reference(Z, K, seed)
    fit_means, fit_labels = gmm_fit(Z, K, seed)
    np.testing.assert_array_equal(means, fit_means)
    np.testing.assert_array_equal(labels, fit_labels)
    return means, labels, variances, log_likelihoods


class TestKMeans:
    def test_separated_blobs_perfect_split(self):
        Z = np.array([[0.0, 0.0]] * 5 + [[10.0, 10.0]] * 5)
        centers, labels = kmeans_fit(Z, 2, seed=1)
        got = {tuple(c) for c in centers}
        assert got == {(0.0, 0.0), (10.0, 10.0)}
        assert partitions_agree(labels, [0] * 5 + [1] * 5)

    def test_k1_center_is_column_mean(self):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((12, 3))
        centers, _ = kmeans_fit(Z, 1, seed=0)
        np.testing.assert_allclose(centers[0], Z.mean(axis=0), rtol=1e-12)

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
        centers, labels = kmeans_fit(Z, 2, seed=3)
        assert sorted(centers.ravel()) == pytest.approx([1.0, 10.0])
        assert within_cluster_sse(Z, centers, labels) == pytest.approx(4.0)
        assert partitions_agree(labels, best_labels)

    def test_sse_monotone_over_iterations(self, monkeypatch):
        # the fit truncated after 0, 1, 2, ... Lloyd iterations, up to the full fit
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((60, 4))
        final_centers, final_labels = kmeans_fit(Z, 4, seed=5)
        sse = []
        for iterations in range(clustering.KMEANS_MAX_ITER + 1):
            monkeypatch.setattr(clustering, "KMEANS_MAX_ITER", iterations)
            centers, labels = kmeans_fit(Z, 4, seed=5)
            sse.append(within_cluster_sse(Z, centers, labels))
            if np.array_equal(centers, final_centers) and np.array_equal(labels, final_labels):
                break
        else:
            pytest.fail("no truncated fit reached the full fit")
        assert len(sse) >= 3
        assert all(b <= a + 1e-9 for a, b in zip(sse, sse[1:]))

    def test_deterministic_given_seed(self):
        Z, _ = make_blobs(seed=7)
        a = kmeans_fit(Z, 3, seed=11)
        b = kmeans_fit(Z, 3, seed=11)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_n_less_than_k_rejected(self):
        with pytest.raises(UsageError):
            kmeans_fit(np.zeros((2, 2)), 3, seed=0)

    def test_no_empty_clusters_after_fit(self):
        rng = np.random.default_rng(9)
        Z = rng.standard_normal((30, 2))
        _, labels = kmeans_fit(Z, 5, seed=9)
        assert set(labels) == set(range(5))


class TestGmm:
    def test_blobs_match_kmeans_partition(self):
        Z, _ = make_blobs(seed=1)
        _, km_labels = kmeans_fit(Z, 2, seed=4)
        _, gm_labels = gmm_fit(Z, 2, seed=4)
        assert partitions_agree(km_labels, gm_labels)

    def test_k1_recovers_sample_moments(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((40, 2)) * 2.0 + 1.0
        means, _, variances, _ = em_reference_matching_fit(Z, 1, seed=0)
        np.testing.assert_allclose(means[0], Z.mean(axis=0), atol=1e-8)
        np.testing.assert_allclose(variances[0], Z.var(axis=0), atol=1e-6)

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(2)
        Z = np.vstack([
            rng.standard_normal((30, 2)) + (0.0, 0.0),
            rng.standard_normal((30, 2)) + (1.5, 1.5),
            rng.standard_normal((30, 2)) + (-1.5, 1.5),
        ])
        *_, ll = em_reference_matching_fit(Z, 3, seed=2)
        assert len(ll) >= 2
        assert all(b >= a - 1e-7 * max(1.0, abs(a)) for a, b in zip(ll, ll[1:]))


class TestAgglomerative:
    def test_k_equals_n_no_merges(self):
        Z = np.arange(8.0).reshape(4, 2)
        _, labels = agglomerative_fit(Z, 4)
        assert sorted(labels) == [0, 1, 2, 3]

    def test_three_points_enumerated(self):
        # all merge orders leave {0,1} together, {10} alone
        Z = np.array([[0.0], [1.0], [10.0]])
        _, labels = agglomerative_fit(Z, 2)
        assert partitions_agree(labels, [0, 0, 1])

    def test_blobs_match_kmeans_partition(self):
        Z, _ = make_blobs(seed=3)
        _, km_labels = kmeans_fit(Z, 2, seed=6)
        _, ag_labels = agglomerative_fit(Z, 2)
        assert partitions_agree(km_labels, ag_labels)

    def test_centers_are_cluster_means(self):
        Z, _ = make_blobs(seed=4, n_per=10)
        centers, labels = agglomerative_fit(Z, 2)
        for k in range(2):
            np.testing.assert_allclose(centers[k], Z[labels == k].mean(axis=0))

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        Z = rng.standard_normal((25, 3))
        a = agglomerative_fit(Z, 3)
        b = agglomerative_fit(Z, 3)
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_clusters_numbered_by_lowest_member_row(self, seed, grid):
        # on an integer grid many merge costs tie
        rng = np.random.default_rng(seed)
        Z = rng.integers(0, 3, (20, 2)).astype(float) if grid else rng.standard_normal((20, 2))
        K = 4
        _, labels = agglomerative_fit(Z, K)
        lowest_rows = [np.flatnonzero(labels == k)[0] for k in range(K)]
        assert lowest_rows == sorted(lowest_rows)


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
        centers, labels = kmeans_fit(Z, 3, seed=13)
        np.testing.assert_array_equal(assign_nearest(Z, centers), labels)


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


class TestDispatch:
    def test_spectral_rejected_with_message(self):
        with pytest.raises(ConfigurationError, match="spectral"):
            fit(np.zeros((5, 2)), "spectral", 2, seed=0)

    def test_unknown_rejected(self):
        for name in ("dbscan", "ward", ""):
            with pytest.raises(ConfigurationError, match="unknown clustering"):
                fit(np.zeros((5, 2)), name, 2, seed=0)

    def test_dispatch_matches_direct_fits(self):
        Z, _ = make_blobs(seed=5, n_per=5)
        for name, direct in [("kmeans", kmeans_fit(Z, 2, seed=1)),
                             ("gmm", gmm_fit(Z, 2, seed=1)),
                             ("agglomerative", agglomerative_fit(Z, 2))]:
            centers, labels = fit(Z, name, 2, seed=1)
            np.testing.assert_array_equal(centers, direct[0])
            np.testing.assert_array_equal(labels, direct[1])
