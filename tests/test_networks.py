"""Encoder/decoder/head behavior: shapes, routing, sampling, determinism."""

import numpy as np
import pytest

from conftest import assert_step_moves_parameters, check_gradients
from reftape import RefTensor, lift
from survstrat.config import ExperimentConfig
from survstrat.errors import ConfigurationError, UsageError
from survstrat.networks import Mlp, Model, reparameterize
from survstrat.tensor import Adam, Tensor


def small_model(**overrides):
    """A model over 5 input features and 4 time bins."""
    base = dict(latent_dim=3, encoder_hidden=(8, 6), head_hidden=(7,), seed=0)
    base.update(overrides)
    config = ExperimentConfig(**base)
    config.validate()
    model = Model(config, 5, 4)
    model.initialize()
    return model


class TestReparameterize:
    def test_unit_transform(self):
        mu = Tensor(np.zeros((1, 2)))
        log_var = Tensor(np.zeros((1, 2)))
        z, _ = reparameterize(mu, log_var, None, eps=np.array([[1.0, -1.0]]))
        np.testing.assert_array_equal(z.values, [[1.0, -1.0]])

    def test_sample_mean_concentrates(self):
        n = 100_000
        rng = np.random.default_rng(0)
        mu = Tensor(np.full((n, 1), 2.5))
        log_var = Tensor(np.full((n, 1), np.log(4.0)))
        z, _ = reparameterize(mu, log_var, rng)
        assert abs(z.values.mean() - 2.5) < 3 * 2.0 / np.sqrt(n)

    def test_gradient_reaches_mu_and_logvar_not_eps(self):
        eps = np.array([[0.5, -0.5]])
        mu = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        log_var = Tensor(np.array([[0.2, -0.3]]), requires_grad=True)
        z, _ = reparameterize(mu, log_var, None, eps=eps)
        lift(z).sum().backward()
        np.testing.assert_array_equal(mu.grad, [[1.0, 1.0]])
        assert log_var.grad is not None and np.all(log_var.grad != 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(UsageError):
            reparameterize(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 3))), None)


class TestEncoder:
    def test_eval_mode_deterministic_and_equals_mu(self):
        model = small_model()
        x = Tensor(np.random.default_rng(1).standard_normal((6, 5)))
        a = model.encode(x)
        b = model.encode(x)
        np.testing.assert_array_equal(a.z.values, b.z.values)
        np.testing.assert_array_equal(a.z.values, a.mu.values)

    def test_train_mode_uses_sampled_noise(self):
        model = small_model()
        x = Tensor(np.zeros((3, 5)))
        out = model.encode(x, train=True, rng=np.random.default_rng(2))
        # the noise is the rng's first standard-normal draw
        eps = np.random.default_rng(2).standard_normal(out.mu.values.shape)
        assert np.any(eps != 0)
        expected = out.mu.values + np.exp(0.5 * out.log_var.values) * eps
        np.testing.assert_allclose(out.z.values, expected, rtol=1e-12)

    def test_train_mode_without_rng_rejected(self):
        model = small_model()
        with pytest.raises(UsageError):
            model.encode(Tensor(np.zeros((2, 5))), train=True)

    def test_deterministic_encoder_has_no_logvar(self):
        model = small_model(variational=False)
        out = model.encode(Tensor(np.ones((2, 5))))
        assert out.log_var is None
        again = model.encode(Tensor(np.ones((2, 5))), train=True)
        np.testing.assert_array_equal(out.z.values, again.z.values)

    def test_siamese_views_differ(self):
        model = small_model(siamese=True)
        x = Tensor(np.random.default_rng(3).standard_normal((4, 5)))
        z1 = model.encode(x, view=1).z.values
        z2 = model.encode(x, view=2).z.values
        assert not np.allclose(z1, z2)

    def test_view_two_needs_siamese(self):
        model = small_model()
        with pytest.raises(ConfigurationError):
            model.encode(Tensor(np.zeros((1, 5))), view=2)

    def test_siamese_parameters_are_independent_storage(self):
        model = small_model(siamese=True)
        params = dict(model.parameters())
        before = params["enc2.trunk.0.W"].values.copy()
        params["enc1.trunk.0.W"].values += 100.0
        np.testing.assert_array_equal(params["enc2.trunk.0.W"].values, before)


class TestDecoder:
    def test_roundtrip_shape(self):
        model = small_model()
        x = Tensor(np.random.default_rng(4).standard_normal((7, 5)))
        x_hat = model.decode(model.encode(x).z)
        assert x_hat.values.shape == (7, 5)

    def test_reconstruction_gradient_matches_fd(self):
        model = small_model(encoder_hidden=(4, 3))
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 5))
        w = model.decoders[0].layers[-1].W

        def loss():
            x_hat = model.decode(model.encode(Tensor(x)).z)
            diff = lift(x_hat) - Tensor(x)
            return (diff * diff).sum()

        check_gradients(loss, [w])


class TestSurvivalForward:
    def test_uniform_logits_give_uniform_probs(self):
        model = small_model()
        head = model.heads[0]
        for layer in head.layers:
            layer.W.values[:] = 0.0
            layer.b.values[:] = 0.0
        h = Tensor(np.random.default_rng(6).standard_normal((3, 8)))
        dist = model.survival_forward(h)
        np.testing.assert_allclose(dist.probs.values, 1.0 / 5.0)
        np.testing.assert_allclose(dist.survival.values[:, -1], 1.0 / 5.0)

    def test_prob_rows_sum_to_one(self):
        model = small_model()
        h = Tensor(np.random.default_rng(7).standard_normal((10, 8)))
        dist = model.survival_forward(h)
        np.testing.assert_allclose(dist.probs.values.sum(axis=1), 1.0, atol=1e-9)

    def test_survival_monotone_and_bounded(self):
        model = small_model()
        h = Tensor(np.random.default_rng(8).standard_normal((10, 8)))
        s = model.survival_forward(h).survival.values
        assert np.all(np.diff(s, axis=1) <= 1e-12)
        assert np.all(s >= -1e-12) and np.all(s <= 1 + 1e-12)

    def test_survival_consistent_with_probs(self):
        model = small_model()
        h = Tensor(np.random.default_rng(9).standard_normal((5, 8)))
        dist = model.survival_forward(h)
        manual = 1.0 - np.cumsum(dist.probs.values[:, :-1], axis=1)
        np.testing.assert_allclose(dist.survival.values, manual, atol=1e-12)

    def test_shared_mode_ignores_cluster_ids(self):
        model = small_model()
        h = Tensor(np.random.default_rng(10).standard_normal((4, 8)))
        a = model.survival_forward(h).probs.values
        b = model.survival_forward(h, cluster_ids=[0, 1, 0, 1]).probs.values
        np.testing.assert_array_equal(a, b)

    def test_ensemble_routes_by_cluster(self):
        model = small_model(heads="per-cluster", n_clusters=2)
        h = Tensor(np.tile(np.random.default_rng(11).standard_normal((1, 8)), (2, 1)))
        dist = model.survival_forward(h, cluster_ids=[0, 1])
        assert not np.allclose(dist.probs.values[0], dist.probs.values[1])

    def test_ensemble_rows_match_single_head_outputs(self):
        model = small_model(heads="per-cluster", n_clusters=3)
        rng = np.random.default_rng(12)
        h = Tensor(rng.standard_normal((6, 8)))
        ids = np.array([0, 1, 2, 0, 1, 2])
        from survstrat.tensor import softmax_rows

        dist = model.survival_forward(h, cluster_ids=ids)
        for i, k in enumerate(ids):
            solo = softmax_rows(model.heads[k](h)).values[i]
            np.testing.assert_allclose(dist.probs.values[i], solo, atol=1e-12)

    def test_ensemble_requires_ids(self):
        model = small_model(heads="per-cluster")
        h = Tensor(np.zeros((2, 8)))
        with pytest.raises(UsageError):
            model.survival_forward(h)
        with pytest.raises(UsageError):
            model.survival_forward(h, cluster_ids=[0, 5])


class TestEnsembleRouting:
    def test_each_head_sees_only_its_rows(self, monkeypatch):
        model = small_model(heads="per-cluster", n_clusters=3)
        h = Tensor(np.random.default_rng(14).standard_normal((7, 8)))
        ids = np.array([2, 0, 2, 1, 0, 2, 1])
        seen = {}
        call = Mlp.__call__

        def recording_call(mlp, x):
            seen[mlp.layers[0].name.split(".")[0]] = x.values.copy()
            return call(mlp, x)

        monkeypatch.setattr(Mlp, "__call__", recording_call)
        model.survival_forward(h, cluster_ids=ids)
        assert sorted(seen) == ["head0", "head1", "head2"]
        for k in range(3):
            np.testing.assert_array_equal(seen[f"head{k}"], h.values[ids == k])

    def test_empty_cluster_is_skipped(self):
        model = small_model(heads="per-cluster", n_clusters=3)
        rng = np.random.default_rng(15)
        h = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
        ids = np.array([0, 2, 2, 0, 0])
        dist = model.survival_forward(h, cluster_ids=ids)
        assert dist.probs.values.shape == (5, 5)
        assert dist.survival.values.shape == (5, 4)
        lift(dist.survival).sum().backward()
        head1 = [t for name, t in model.parameters() if name.startswith("head1.")]
        assert all(np.all(t.grad == 0) for t in head1)
        w0 = model.heads[0].layers[0].W
        w2 = model.heads[2].layers[-1].W

        def loss():
            return lift(model.survival_forward(h, cluster_ids=ids).survival).sum()

        check_gradients(loss, [h, w0, w2])


    @pytest.mark.parametrize("ids", [
        [2, 0, 2, 1, 0, 2, 1],
        [1, 1, 1, 1, 1, 1, 1],
        [0, 2, 2, 0, 0, 2, 0],
    ], ids=["every_head", "one_head_has_every_row", "one_head_has_no_rows"])
    def test_routing_equals_each_head_alone_bit_for_bit(self, ids):
        """Values, and gradients of ``h`` and of every head weight, equal
        those of each head run by itself on its own rows."""
        model = small_model(heads="per-cluster", n_clusters=3)
        rng = np.random.default_rng(16)
        ids = np.array(ids)
        h = Tensor(rng.standard_normal((7, 8)), requires_grad=True)
        g_probs, g_surv = rng.standard_normal((7, 5)), rng.standard_normal((7, 4))

        def backward(dist, rows):
            """Backward of sum(probs * g_probs) + sum(survival * g_surv) over
            ``rows``; returns the gradients of every head weight."""
            for _, t in model.parameters():
                t.grad = None
            loss = ((lift(dist.probs) * RefTensor(g_probs[rows])).sum()
                    + (lift(dist.survival) * RefTensor(g_surv[rows])).sum())
            loss.backward()
            return {name: t.grad for name, t in model.parameters() if name.startswith("head")}

        routed = model.survival_forward(h, cluster_ids=ids)
        routed_grads = backward(routed, slice(None))
        for k in range(3):
            rows = np.flatnonzero(ids == k)
            own = [name for name in routed_grads if name.startswith(f"head{k}.")]
            if rows.size == 0:
                assert all(routed_grads[name] is None for name in own)
                continue
            alone = Tensor(h.values[rows], requires_grad=True)
            dist = model._distribution(model.heads[k](alone))
            grads = backward(dist, rows)
            assert np.array_equal(routed.probs.values[rows], dist.probs.values)
            assert np.array_equal(routed.survival.values[rows], dist.survival.values)
            assert np.array_equal(h.grad[rows], alone.grad)
            for name in own:
                assert np.array_equal(routed_grads[name], grads[name]), name

    def test_zero_rows_give_an_empty_distribution(self):
        model = small_model(heads="per-cluster", n_clusters=3)
        dist = model.survival_forward(Tensor(np.zeros((0, 8))), cluster_ids=[])
        assert dist.probs.values.shape == (0, 5)
        assert dist.survival.values.shape == (0, 4)

    def test_routed_forward_records_one_scatter(self):
        """A forward over K groups records K gathers, K heads and one scatter
        below the softmax."""
        model = small_model(heads="per-cluster", n_clusters=3)
        h = Tensor(np.random.default_rng(17).standard_normal((6, 8)), requires_grad=True)
        dist = model.survival_forward(h, cluster_ids=[0, 1, 2, 2, 1, 0])
        scatter = dist.probs._parents[0]
        assert scatter._op == "scatter_rows" and len(scatter._parents) == 3
        assert [p._op for p in scatter._parents] == ["mlp"] * 3
        assert [q._op for p in scatter._parents for q in p._parents[:1]] == ["take_rows"] * 3


class TestStatePersistence:
    def test_state_dict_roundtrip(self):
        a = small_model(seed=1)
        b = small_model(seed=2)
        x = Tensor(np.random.default_rng(13).standard_normal((3, 5)))
        assert not np.allclose(a.encode(x).z.values, b.encode(x).z.values)
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.encode(x).z.values, b.encode(x).z.values)

    def test_optimizer_steps_loaded_parameters(self):
        model = small_model(seed=1)
        optimizer = Adam(model.flat, [t for _, t in model.parameters()])
        loaded = small_model(seed=2).state_dict()
        model.load_state_dict(loaded)
        for name, t in model.parameters():
            np.testing.assert_array_equal(t.values, loaded[name])
        assert_step_moves_parameters(optimizer, model)

    def test_state_dict_does_not_alias_parameters(self):
        model = small_model(seed=1)
        optimizer = Adam(model.flat, [t for _, t in model.parameters()])
        state = model.state_dict()
        kept = {name: arr.copy() for name, arr in state.items()}
        assert not any(np.shares_memory(arr, model.flat) for arr in state.values())
        assert_step_moves_parameters(optimizer, model)
        for name, arr in state.items():
            np.testing.assert_array_equal(arr, kept[name])

    def test_missing_parameter_rejected(self):
        a = small_model()
        state = a.state_dict()
        state.pop("enc1.mu.W")
        with pytest.raises(ConfigurationError, match="enc1.mu.W"):
            a.load_state_dict(state)

    def test_same_seed_same_init(self):
        a = small_model(seed=42)
        b = small_model(seed=42)
        for (an, at), (bn, bt) in zip(a.parameters(), b.parameters()):
            assert an == bn
            np.testing.assert_array_equal(at.values, bt.values)

