"""Three-stage trainer: self-paced thresholds, cluster freezing, determinism."""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from survstrat import clustering, losses, networks, tensor, trainer
from survstrat.config import ExperimentConfig
from survstrat.errors import UsageError
from survstrat.losses import LossWeights
from survstrat.metrics import expected_event_time
from survstrat.networks import Model

import oracles
from conftest import assert_step_moves_parameters
from reftape import zero_grad


def small_config(**overrides):
    base = dict(
        latent_dim=4, n_bins=5, encoder_hidden=(16,), head_hidden=(8,),
        pretrain_epochs=3, max_epochs=3, batch_size=64, seed=3,
        early_stopping=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def make_data(n=120, n_features=5, seed=7, n_bins=5, val=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    t = rng.exponential(5.0, size=n) + 0.1
    e = (rng.random(n) < 0.7).astype(int)
    if val:
        cut = int(n * 0.75)
        return trainer.prepare_training_data(
            X[:cut], t[:cut], e[:cut], n_bins, X[cut:], t[cut:], e[cut:]
        )
    return trainer.prepare_training_data(X, t, e, n_bins)


def one_taped_forward(state, X):
    """The model's own distribution by the unchunked path: one taped
    eval-mode forward over every row, with the probabilities and latents
    that ``predict`` does not return."""
    model = state.model
    x = tensor.Tensor(X)
    outs = trainer._encode_views(model, x, train=False, rng=None)
    view = state.config.routing_view
    labels = clustering.assign_nearest(outs[view - 1].mu.values, state.centers[view - 1])
    dist = model.survival_forward(model.survival_input(x, outs), cluster_ids=labels)
    assert dist.survival._parents
    return {"latents": outs[0].mu.values, "labels": labels, "probs": dist.probs.values,
            "survival": dist.survival.values,
            "risk": -expected_event_time(dist.probs.values, state.grid)}


def assert_same_arrays(got, want):
    """Every array of ``got`` equals ``want``'s of the same key, bit for bit."""
    for k in got:
        assert (got[k].dtype, got[k].shape) == (want[k].dtype, want[k].shape), k
        assert got[k].tobytes() == want[k].tobytes(), k


class TestSplThreshold:
    def test_pinned_value_at_final_epoch(self):
        # mean 2, population std sqrt(2/3); at e = E_max the threshold is
        # mean + std = 2.81650
        lam = trainer.spl_threshold([1.0, 2.0, 3.0], 10, 10)
        assert lam == pytest.approx(2.81650, abs=1e-5)

    def test_epoch_zero_is_the_mean(self):
        assert trainer.spl_threshold([1.0, 2.0, 3.0], 0, 10) == pytest.approx(2.0)

    def test_equal_losses_any_epoch(self):
        for e in range(5):
            assert trainer.spl_threshold([4.0, 4.0, 4.0], e, 4) == pytest.approx(4.0)

    def test_non_decreasing_in_epoch(self):
        rng = np.random.default_rng(0)
        vals = rng.exponential(1.0, size=50)
        lams = [trainer.spl_threshold(vals, e, 10) for e in range(11)]
        assert all(b >= a for a, b in zip(lams, lams[1:]))

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            trainer.spl_threshold([], 1, 10)

    def test_bad_max_epochs(self):
        with pytest.raises(UsageError):
            trainer.spl_threshold([1.0], 1, 0)


class TestSplFilter:
    def test_hand_case(self):
        mask = trainer.spl_filter([1.0, 2.0, 3.0], 2.0)
        assert mask.tolist() == [True, True, False]

    def test_threshold_above_all_admits_all(self):
        assert trainer.spl_filter([1.0, 2.0, 3.0], 100.0).all()

    def test_admitted_count_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=40)
        counts = [
            trainer.spl_filter(vals, lam).sum()
            for lam in np.linspace(vals.min(), vals.max(), 9)
        ]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_never_empty_even_below_minimum(self):
        mask = trainer.spl_filter([5.0, 6.0], -100.0)
        assert mask.tolist() == [True, False]

    def test_threshold_from_spl_threshold_admits_at_least_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            vals = rng.exponential(1.0, size=10)
            lam = trainer.spl_threshold(vals, 0, 10)
            assert trainer.spl_filter(vals, lam).any()


class TestPretrain:
    def test_zero_epochs_leaves_init_untouched(self):
        config = small_config(pretrain_epochs=0)
        data = make_data()
        state = trainer.pretrain(data, config)
        fresh = Model(config, data.X.shape[1], data.grid.n_bins)
        fresh.initialize()
        for (_, got), (_, want) in zip(state.model.parameters(), fresh.parameters()):
            assert np.array_equal(got.values, want.values)
        assert state.logs == []
        assert state.stage == 1

    def test_loss_decreases(self):
        config = small_config(pretrain_epochs=8)
        data = make_data()
        state = trainer.pretrain(data, config)
        first = state.logs[0]["loss_total"]
        last = state.logs[-1]["loss_total"]
        assert last < first

    def test_reconstruction_improves_on_low_rank_data(self):
        rng = np.random.default_rng(11)
        Z = rng.normal(size=(150, 2))
        W = rng.normal(size=(2, 6))
        X = Z @ W
        t = rng.exponential(3.0, size=150) + 0.1
        e = np.ones(150, dtype=int)
        config = small_config(
            latent_dim=2, pretrain_epochs=25, variational=False,
            learning_rate=3e-3, seed=1,
        )
        data = trainer.prepare_training_data(X, t, e, config.n_bins)
        state = trainer.pretrain(data, config)
        assert state.logs[-1]["loss_rec"] < 0.5 * state.logs[0]["loss_rec"]

    def test_log_has_one_row_per_epoch(self):
        state = trainer.pretrain(make_data(), small_config())
        assert [r["epoch"] for r in state.logs] == [1, 2, 3]
        assert all(r["stage"] == 1 for r in state.logs)

    def test_deterministic_kld_absent_when_not_variational(self):
        state = trainer.pretrain(make_data(), small_config(variational=False))
        assert all(r["loss_kld"] == 0.0 for r in state.logs)

    def test_ensemble_epoch_updates_every_head(self):
        config = small_config(heads="per-cluster", n_clusters=3, pretrain_epochs=1)
        data = make_data()
        state = trainer.pretrain(data, config)
        model = Model(config, data.X.shape[1], data.grid.n_bins)
        model.initialize()
        fresh = dict(model.parameters())
        for name, t in state.model.parameters():
            if name.startswith("head"):
                assert not np.array_equal(t.values, fresh[name].values), name


class TestInitClusters:
    def test_requires_pretrained_state(self):
        config = small_config()
        data = make_data()
        model = Model(config, data.X.shape[1], data.grid.n_bins)
        from survstrat.tensor import Adam
        bare = trainer.TrainState(
            model=model, optimizer=Adam(model.flat, [t for _, t in model.parameters()]),
            config=config, grid=data.grid,
        )
        with pytest.raises(UsageError):
            trainer.init_clusters(bare, data)

    def test_both_clusters_populated(self):
        data = make_data()
        state = trainer.pretrain(data, small_config())
        state = trainer.init_clusters(state, data)
        assert len(state.centers) == 1
        counts = np.bincount(state.assignments[0], minlength=2)
        assert (counts > 0).all()
        assert state.stage == 2

    def test_idempotent(self):
        data = make_data()
        state = trainer.pretrain(data, small_config())
        state = trainer.init_clusters(state, data)
        first = state.centers[0].copy()
        state = trainer.init_clusters(state, data)
        assert np.array_equal(state.centers[0], first)

    def test_siamese_gets_one_model_per_view(self):
        data = make_data()
        state = trainer.pretrain(data, small_config(siamese=True))
        state = trainer.init_clusters(state, data)
        assert len(state.centers) == 2
        assert len(state.assignments) == 2

    def test_assignments_match_nearest_center(self):
        data = make_data()
        state = trainer.pretrain(data, small_config())
        state = trainer.init_clusters(state, data)
        latents = state.model.latents(data.X, view=1)
        want = clustering.assign_nearest(latents, state.centers[0])
        assert np.array_equal(state.assignments[0], want)


class TestStage3:
    def fitted(self, config=None, data=None):
        config = config or small_config()
        data = data if data is not None else make_data()
        state = trainer.pretrain(data, config)
        state = trainer.init_clusters(state, data)
        return state, data

    def test_requires_clusters(self):
        data = make_data()
        state = trainer.pretrain(data, small_config())
        with pytest.raises(UsageError):
            trainer.train_stage3(state, data)

    def test_centers_bitwise_frozen(self):
        state, data = self.fitted()
        before = [c.tobytes() for c in state.centers]
        state = trainer.train_stage3(state, data)
        after = [c.tobytes() for c in state.centers]
        assert before == after

    def test_assignments_refreshed_to_nearest_center(self):
        state, data = self.fitted()
        initial = state.assignments[0].copy()
        state = trainer.train_stage3(state, data)
        latents = state.model.latents(data.X, view=1)
        want = clustering.assign_nearest(latents, state.centers[0])
        assert np.array_equal(state.assignments[0], want)
        # the encoder moved, so at least the invariant (not staleness) is what held
        assert state.assignments[0].shape == initial.shape

    def test_zero_epochs_is_a_no_op(self):
        state, data = self.fitted(small_config(max_epochs=0))
        before = {k: v.values.copy() for k, v in state.model.parameters()}
        state = trainer.train_stage3(state, data)
        for k, v in state.model.parameters():
            assert np.array_equal(before[k], v.values)
        assert state.stage == 3

    def test_admitted_fraction_positive_every_epoch(self):
        state, data = self.fitted(small_config(max_epochs=6))
        state = trainer.train_stage3(state, data)
        rows = [r for r in state.logs if r["stage"] == 3]
        assert len(rows) == 6
        assert all(r["admitted_frac"] > 0 for r in rows)

    def test_survival_only_decomposition(self):
        w = LossWeights(alpha_spl=0.0, alpha_cl=0.0, alpha_ivcg=0.0, alpha_surv=1.0)
        state, data = self.fitted(small_config(weights=w, max_epochs=2))
        state = trainer.train_stage3(state, data)
        rows = [r for r in state.logs if r["stage"] == 3]
        for r in rows:
            assert r["loss_total"] == pytest.approx(r["loss_surv"], rel=1e-12)

    def test_starvation_warning_for_empty_cluster(self):
        config = small_config(heads="per-cluster", max_epochs=1)
        state, data = self.fitted(config)
        state.assignments[0][:] = 0
        with pytest.warns(UserWarning, match="no training instances"):
            trainer.train_stage3(state, data)

    def test_dataset_scope_threshold_is_deterministic(self):
        state, data = self.fitted(small_config(spl_scope="dataset"))
        a = trainer._dataset_spl_threshold(state, data, 1, 10)
        b = trainer._dataset_spl_threshold(state, data, 1, 10)
        assert a == b
        assert trainer._dataset_spl_threshold(state, data, 10, 10) >= a

    def test_early_stopping_restores_best_validation_params(self):
        config = small_config(max_epochs=8, early_stopping=True, patience=3)
        data = make_data(val=True)
        state = trainer.fit(data, config)
        rows = [r for r in state.logs if r["stage"] == 3]
        best_logged = max(r["val_c_index"] for r in rows)
        assert trainer.validation_c_index(state, data) == pytest.approx(
            best_logged, abs=1e-12
        )

    def test_optimizer_steps_parameters_after_restore(self, monkeypatch):
        config = small_config(max_epochs=4, early_stopping=True, patience=1)
        data = make_data(val=True)
        scored = []
        score = trainer.validation_c_index

        def recording_score(state, data):
            val_c = score(state, data)
            scored.append((val_c, state.model.flat.copy()))
            return val_c

        monkeypatch.setattr(trainer, "validation_c_index", recording_score)
        state = trainer.fit(data, config)
        best = max(range(len(scored)), key=lambda i: scored[i][0])
        assert not np.array_equal(scored[-1][1], scored[best][1])  # a later epoch moved them
        np.testing.assert_array_equal(state.model.flat, scored[best][1])
        assert_step_moves_parameters(state.optimizer, state.model)

    @pytest.mark.parametrize("route", ["deepcopy", "pickle"])
    def test_copied_state_steps_its_own_model(self, route):
        state = trainer.pretrain(make_data(), small_config(siamese=True, heads="per-cluster"))
        copied = (copy.deepcopy(state) if route == "deepcopy"
                  else pickle.loads(pickle.dumps(state)))
        before = state.model.state_dict()
        assert_step_moves_parameters(copied.optimizer, copied.model)
        for name, t in state.model.parameters():
            np.testing.assert_array_equal(t.values, before[name], err_msg=name)
        assert_step_moves_parameters(state.optimizer, state.model)

    def test_patience_limits_epochs(self):
        config = small_config(max_epochs=40, early_stopping=True, patience=2)
        data = make_data(val=True)
        state = trainer.fit(data, config)
        rows = [r for r in state.logs if r["stage"] == 3]
        assert len(rows) <= 40


class TestFit:
    def test_deterministic_end_to_end(self):
        config = small_config()
        s1 = trainer.fit(make_data(), config)
        s2 = trainer.fit(make_data(), config)
        p1 = dict(s1.model.parameters())
        p2 = dict(s2.model.parameters())
        assert set(p1) == set(p2)
        for k in p1:
            assert np.array_equal(p1[k].values, p2[k].values)
        assert np.array_equal(s1.assignments[0], s2.assignments[0])

    def test_seed_changes_outcome(self):
        s1 = trainer.fit(make_data(), small_config(seed=3))
        s2 = trainer.fit(make_data(), small_config(seed=4))
        p1 = dict(s1.model.parameters())
        p2 = dict(s2.model.parameters())
        assert any(not np.array_equal(p1[k].values, p2[k].values) for k in p1)

    def test_single_cluster_is_valid(self):
        state = trainer.fit(make_data(), small_config(n_clusters=1))
        assert state.centers[0].shape[0] == 1
        assert (state.assignments[0] == 0).all()

    def test_ensemble_heads_route_by_cluster(self):
        config = small_config(heads="per-cluster")
        state = trainer.fit(make_data(), config)
        X = make_data().X[:10]
        pred = trainer.predict(state, X)
        assert pred["labels"] is not None
        want = one_taped_forward(state, X)
        assert want["probs"].shape == (10, config.n_bins + 1)
        assert_same_arrays(pred, want)


class TestFusedStepNodes:
    def test_fit_matches_composed_graphs(self, monkeypatch):
        """A Siamese per-cluster fit equals, to 1e-12, the same fit with every
        fused step node swapped for its composed oracle graph."""
        config = small_config(
            siamese=True, heads="per-cluster", encoder_hidden=(16, 8),
            weights=LossWeights(alpha_kld=0.3, alpha_clus=0.2, alpha_cl=0.5, beta=0.7,
                                alpha_iviw=0.4, alpha_ivcw=0.6),
        )
        fused = trainer.fit(make_data(), config)
        for module, name, oracle in [
            (losses, "loss_rec", oracles.rec_composed),
            (losses, "loss_kld", oracles.kld_composed),
            (losses, "loss_clus", oracles.clus_composed),
            (losses, "soft_assign_tensor", oracles.soft_assign_composed),
            (losses, "loss_ivcw", oracles.ivcw_transposed),
            (networks, "reparameterize", oracles.reparameterize_composed),
            (networks, "survival_curve", oracles.survival_curve_composed),
            (losses, "weighted_sum", oracles.weighted_sum_composed),
            (networks, "weighted_sum", oracles.weighted_sum_composed),
            (trainer, "weighted_sum", oracles.weighted_sum_composed),
            (tensor.Tensor, "mean", oracles.mean_composed),
            (tensor.Adam, "zero_grad", lambda opt: [zero_grad(p) for p in opt.params]),
        ]:
            monkeypatch.setattr(module, name, oracle)
        composed = trainer.fit(make_data(), config)

        def log_values(state):
            lines = trainer.format_epoch_log(state.logs).splitlines()[1:]
            return np.array([[float(v or "nan") for v in line.split(",")] for line in lines])

        np.testing.assert_allclose(log_values(fused), log_values(composed), rtol=1e-12)
        want = dict(composed.model.parameters())
        for name, got in fused.model.parameters():
            np.testing.assert_allclose(got.values, want[name].values, rtol=1e-12, atol=1e-15)


class TestDegenerateData:
    def test_tied_integer_times_size_heads_from_grid(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(160, 5))
        t = np.ceil((rng.exponential(5.0, size=160) + 0.1) / 4)
        e = (rng.random(160) < 0.7).astype(int)
        config = small_config(n_bins=20, heads="per-cluster")
        with pytest.warns(UserWarning, match="time grid collapsed"):
            data = trainer.prepare_training_data(
                X[:120], t[:120], e[:120], config.n_bins, X[120:], t[120:], e[120:]
            )
        assert data.grid.n_bins < config.n_bins
        state = trainer.fit(data, config)
        pred = trainer.predict(state, X[120:])
        assert one_taped_forward(state, X[120:])["probs"].shape == (40, data.grid.n_bins + 1)
        assert pred["survival"].shape == (40, data.grid.n_bins)

    def test_all_censored_validation_gives_no_signal(self):
        data = make_data(val=True)
        data.e_val[:] = 0
        config = small_config(max_epochs=4, early_stopping=True, patience=1)
        state = trainer.fit(data, config)
        assert trainer.validation_c_index(state, data) is None
        rows = [r for r in state.logs if r["stage"] == 3]
        assert len(rows) == 4
        assert all(r["val_c_index"] == "" for r in rows)


class TestPredictEvaluate:
    def test_risk_is_negative_expected_event_time(self):
        data = make_data()
        state = trainer.fit(data, small_config())
        pred = trainer.predict(state, data.X[:20])
        want = -expected_event_time(one_taped_forward(state, data.X[:20])["probs"], state.grid)
        assert np.array_equal(pred["risk"], want)

    def test_survival_rows_well_formed(self):
        data = make_data()
        state = trainer.fit(data, small_config())
        probs = one_taped_forward(state, data.X)["probs"]
        surv = trainer.predict(state, data.X)["survival"]
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert (np.diff(surv, axis=1) <= 1e-12).all()

    def test_evaluate_reports_both_metrics(self):
        data = make_data(val=True)
        state = trainer.fit(data, small_config())
        out = trainer.evaluate(state, data.X_val, data.t_val, data.e_val)
        assert 0.0 <= out["c_index"] <= 1.0
        assert 0.0 <= out["ibs"] <= 1.0

    def test_predict_is_deterministic(self):
        data = make_data()
        state = trainer.fit(data, small_config())
        a = trainer.predict(state, data.X[:15])
        b = trainer.predict(state, data.X[:15])
        assert np.array_equal(a["survival"], b["survival"])
        assert np.array_equal(a["labels"], b["labels"])


    def test_encode_gives_predict_latents_and_labels(self):
        # labels come from the routing view (2), latents from view 1
        data = make_data()
        state = trainer.fit(data, small_config(siamese=True, routing_view=2))
        enc = trainer.encode(state, data.X[:15])
        pred = trainer.predict(state, data.X[:15])
        assert np.array_equal(enc["latents"], state.model.latents(data.X[:15], view=1))
        assert np.array_equal(enc["labels"], pred["labels"])
        assert enc["labels"].tolist() == clustering.assign_nearest(
            state.model.latents(data.X[:15], view=2), state.centers[1]).tolist()

class TestChunkedInference:
    """``predict`` and ``encode`` run tape-free over ``CHUNK_ROWS``-row chunks."""

    CONFIGS = [{}, {"siamese": True, "heads": "per-cluster", "n_clusters": 3, "routing_view": 2}]

    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_chunks_equal_one_taped_forward_bit_for_bit(self, overrides):
        state = trainer.fit(make_data(), small_config(**overrides))
        # four chunks, the last one partial
        X = np.random.default_rng(1).normal(size=(3 * trainer.CHUNK_ROWS + 1000, 5))
        want = one_taped_forward(state, X)
        pred = trainer.predict(state, X)
        enc = trainer.encode(state, X)
        assert sorted(pred) == ["labels", "risk", "survival"]
        assert sorted(enc) == ["labels", "latents"]
        if overrides:
            assert len(np.unique(want["labels"])) == 3
        assert_same_arrays(pred, want)
        assert_same_arrays(enc, want)

    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_peak_memory_does_not_grow_with_the_rows(self, overrides):
        # tracemalloc peak of predict above its returned arrays, at 4 chunks
        # of rows against 1 chunk. Measured (Python 3.11, numpy 2.4): 1.96
        # with a shared head and 1.52 with Siamese per-cluster heads; the
        # one-shot taped forward gave 3.99 for both. At 1 chunk the outputs
        # are also the chunk's own working arrays, so the ratio is not 1.
        state = trainer.fit(make_data(), small_config(**overrides))
        X = np.random.default_rng(1).normal(size=(4 * trainer.CHUNK_ROWS, 5))

        def peak_above_outputs(rows):
            tracemalloc.start()
            try:
                pred = trainer.predict(state, X[:rows])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - sum(v.nbytes for v in pred.values())

        one = peak_above_outputs(trainer.CHUNK_ROWS)
        assert peak_above_outputs(len(X)) <= 2.5 * one


class TestEpochLog:
    def test_csv_shape_and_headers(self):
        data = make_data()
        state = trainer.fit(data, small_config())
        text = trainer.format_epoch_log(state.logs)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(trainer.LOG_COLUMNS)
        assert len(lines) == 1 + len(state.logs)
        for line in lines[1:]:
            assert len(line.split(",")) == len(trainer.LOG_COLUMNS)

    def test_round_trips_through_float(self):
        data = make_data()
        state = trainer.fit(data, small_config())
        text = trainer.format_epoch_log(state.logs)
        last = text.strip().split("\n")[-1].split(",")
        idx = trainer.LOG_COLUMNS.index("loss_total")
        assert float(last[idx]) == state.logs[-1]["loss_total"]
