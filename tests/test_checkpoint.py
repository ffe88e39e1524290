"""Checkpoint persistence: exact restoration and validation failures."""

import json

import numpy as np
import pytest

from survstrat import trainer
from survstrat.checkpoint import load_checkpoint, save_checkpoint
from survstrat.config import ExperimentConfig
from survstrat.errors import ConfigurationError


def fitted_state(**overrides):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(100, 5))
    t = rng.exponential(5.0, size=100) + 0.1
    e = (rng.random(100) < 0.7).astype(int)
    base = dict(
        latent_dim=4, n_bins=5, encoder_hidden=(16,), head_hidden=(8,),
        pretrain_epochs=2, max_epochs=2, batch_size=64, seed=3,
        early_stopping=False,
    )
    base.update(overrides)
    config = ExperimentConfig(**base)
    data = trainer.prepare_training_data(X, t, e, config.n_bins)
    return trainer.fit(data, config), X


class TestRoundTrip:
    def test_predictions_survive_bitwise(self, tmp_path):
        state, X = fitted_state()
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        restored = load_checkpoint(str(path)).state
        a = trainer.predict(state, X[:20])
        b = trainer.predict(restored, X[:20])
        assert np.array_equal(a["survival"], b["survival"])
        assert np.array_equal(a["risk"], b["risk"])
        assert np.array_equal(a["labels"], b["labels"])

    def test_evaluate_survives(self, tmp_path):
        state, X = fitted_state()
        rng = np.random.default_rng(0)
        t = rng.exponential(5.0, size=20) + 0.1
        e = np.ones(20, dtype=int)
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        restored = load_checkpoint(str(path)).state
        assert trainer.evaluate(state, X[:20], t, e) == trainer.evaluate(
            restored, X[:20], t, e
        )

    def test_ensemble_and_siamese_round_trip(self, tmp_path):
        state, X = fitted_state(siamese=True, heads="per-cluster")
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        restored = load_checkpoint(str(path)).state
        a = trainer.predict(state, X[:10])
        b = trainer.predict(restored, X[:10])
        assert np.array_equal(a["survival"], b["survival"])

    def test_transforms_and_names_round_trip(self, tmp_path):
        state, _ = fitted_state()
        transforms = {"age": {"kind": "numeric", "mean": 1.0, "std": 2.0, "median": 1.5}}
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path), transforms=transforms, feature_names=["age"])
        ck = load_checkpoint(str(path))
        assert ck.transforms == transforms
        assert ck.feature_names == ["age"]

    def test_grid_and_training_distribution_round_trip(self, tmp_path):
        state, _ = fitted_state()
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        restored = load_checkpoint(str(path)).state
        assert np.array_equal(restored.grid.edges, state.grid.edges)
        assert np.array_equal(restored.train_times, state.train_times)
        assert np.array_equal(restored.train_events, state.train_events)


    def test_file_bytes_match_json_dump(self, tmp_path):
        state, _ = fitted_state(siamese=True, heads="per-cluster")
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path), {"f0": {"mean": 0.5}}, ["f0"])
        with open(tmp_path / "dumped.json", "w") as fh:
            json.dump(json.loads(path.read_text()), fh)
        assert path.read_bytes() == (tmp_path / "dumped.json").read_bytes()

    def test_assignments_written_once(self, tmp_path):
        state, _ = fitted_state()
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        payload = json.loads(path.read_text())
        assert all("assignments" not in entry for entry in payload["clusters"])
        restored = load_checkpoint(str(path)).state
        assert np.array_equal(restored.assignments[0], state.assignments[0])

    def test_loads_format_one_per_cluster_assignments(self, tmp_path):
        state, X = fitted_state(siamese=True, heads="per-cluster")
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        payload = json.loads(path.read_text())
        for entry, cm in zip(payload["clusters"], state.cluster_models):
            entry["assignments"] = cm.assignments.tolist()
        path.write_text(json.dumps(payload))
        restored = load_checkpoint(str(path)).state
        for got, want in zip(restored.assignments, state.assignments):
            assert np.array_equal(got, want)
        a = trainer.predict(state, X[:10])
        b = trainer.predict(restored, X[:10])
        assert np.array_equal(a["survival"], b["survival"])

    def test_tied_times_grid_sizes_restored_heads(self, tmp_path):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(100, 5))
        t = np.ceil((rng.exponential(5.0, size=100) + 0.1) / 4)
        e = (rng.random(100) < 0.7).astype(int)
        config = ExperimentConfig(
            latent_dim=4, n_bins=20, encoder_hidden=(16,), head_hidden=(8,),
            pretrain_epochs=1, max_epochs=1, batch_size=64, seed=3,
        )
        with pytest.warns(UserWarning, match="time grid collapsed"):
            data = trainer.prepare_training_data(X, t, e, config.n_bins)
        state = trainer.fit(data, config)
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        restored = load_checkpoint(str(path)).state
        a = trainer.predict(state, X[:10])
        b = trainer.predict(restored, X[:10])
        assert np.array_equal(a["survival"], b["survival"])


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_checkpoint(str(tmp_path / "absent.json"))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{broken")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_checkpoint(str(path))

    def test_unsupported_version(self, tmp_path):
        state, _ = fitted_state()
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="version"):
            load_checkpoint(str(path))

    def test_missing_sections(self, tmp_path):
        state, _ = fitted_state()
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        payload = json.loads(path.read_text())
        del payload["grid_edges"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="missing keys: grid_edges"):
            load_checkpoint(str(path))

    def test_missing_parameter(self, tmp_path):
        state, _ = fitted_state()
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        payload = json.loads(path.read_text())
        name = next(k for k in payload["state"] if k.startswith("head0"))
        del payload["state"][name]
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="missing parameter"):
            load_checkpoint(str(path))

    def test_center_dimension_mismatch(self, tmp_path):
        state, _ = fitted_state()
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        payload = json.loads(path.read_text())
        payload["clusters"][0]["centers"] = [[0.0, 1.0]]
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="centers have shape"):
            load_checkpoint(str(path))

    def test_parameter_shape_mismatch(self, tmp_path):
        state, _ = fitted_state()
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        payload = json.loads(path.read_text())
        name = next(k for k in payload["state"] if k.endswith(".b"))
        payload["state"][name] = [[0.0, 0.0, 0.0]]
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="shape"):
            load_checkpoint(str(path))
