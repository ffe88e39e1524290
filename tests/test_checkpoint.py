"""Checkpoint persistence: exact restoration and validation failures."""

import base64
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from survstrat import trainer
from survstrat.checkpoint import _decode, _encode, load_checkpoint, save_checkpoint
from survstrat.cli import main
from survstrat.config import ExperimentConfig
from survstrat.data import column_names
from survstrat.errors import ConfigurationError, UsageError
from survstrat.metrics import TimeGrid
from survstrat.networks import Model
from survstrat.tensor import Adam

from conftest import assert_step_moves_parameters


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
        # five design-matrix columns, the width of the fitted encoder
        transforms = {"age": {"kind": "numeric", "mean": 1.0, "std": 2.0, "median": 1.5},
                      "grade": {"kind": "categorical", "categories": ["A", "B", "C", "D"]}}
        columns = {"time": "months", "event": "died"}
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path), transforms=transforms, columns=columns)
        payload = json.loads(path.read_text())
        assert payload["columns"] == columns and "feature_names" not in payload
        restored = load_checkpoint(str(path))
        assert restored.transforms == transforms and restored.columns == columns
        assert column_names(transforms) == ["age", "grade=A", "grade=B", "grade=C", "grade=D"]

    def test_copies_are_not_written(self, tmp_path):
        state, _ = fitted_state(siamese=True)
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        payload = json.loads(path.read_text())
        assert all(set(entry) == {"centers"} for entry in payload["clusters"])
        assert "feature_names" not in payload and payload["columns"] is None
        assert load_checkpoint(str(path)).columns is None

    def test_copies_in_older_files_are_ignored(self, tmp_path):
        state, X = fitted_state(siamese=True, heads="per-cluster")
        transforms = {f"f{j}": {"kind": "numeric", "mean": 0.0, "std": 1.0, "median": 0.0}
                      for j in range(5)}
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path), transforms)
        payload = json.loads(path.read_text())
        # an older writer's copies of the config and the transforms, even stale ones
        del payload["columns"]
        for entry in payload["clusters"]:
            entry.update(algorithm="gmm", nu="x")
        payload["feature_names"] = ["a", "b"]
        path.write_text(json.dumps(payload))
        restored = load_checkpoint(str(path))
        assert restored.columns is None and restored.transforms == transforms
        a, b = trainer.predict(state, X[:10]), trainer.predict(restored.state, X[:10])
        assert np.array_equal(a["survival"], b["survival"])

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
        save_checkpoint(state, str(path),
                        {"f0": {"kind": "numeric", "mean": 0.5, "std": 1.0, "median": 0.5}})
        with open(tmp_path / "dumped.json", "w") as fh:
            json.dump(json.loads(path.read_text()), fh)
        assert path.read_bytes() == (tmp_path / "dumped.json").read_bytes()

    def test_writes_a_fitted_model_only(self, tmp_path):
        state, _ = fitted_state(siamese=True)
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        payload = json.loads(path.read_text())
        assert set(payload) == {"version", "config", "state", "clusters", "grid_edges",
                                "train_times", "train_events", "transforms", "columns"}
        assert all(set(entry) == {"centers"} for entry in payload["clusters"])
        restored = load_checkpoint(str(path)).state
        assert restored.optimizer is None and restored.assignments == [] and restored.logs == []

    def test_a_loaded_state_does_not_resume_training(self, tmp_path):
        state, _ = fitted_state()
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        restored = load_checkpoint(str(path)).state
        data = trainer.prepare_training_data(np.zeros((4, 5)), np.arange(1.0, 5.0), np.ones(4), 2)
        with pytest.raises(UsageError, match="not a loaded checkpoint"):
            trainer.train_stage3(restored, data)

    def test_loads_format_one_per_cluster_assignments(self, tmp_path):
        state, X = fitted_state(siamese=True, heads="per-cluster")
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        payload = json.loads(path.read_text())
        # format 1's per-cluster copy; the reader ignores it
        for entry, labels in zip(payload["clusters"], state.assignments):
            entry["assignments"] = labels[::-1].tolist()
        path.write_text(json.dumps(payload))
        restored = load_checkpoint(str(path)).state
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


def _variational_encoder(name):
    return [
        (f"{name}.trunk.0.W", (5, 8)), (f"{name}.trunk.0.b", (1, 8)),
        (f"{name}.trunk.1.W", (8, 6)), (f"{name}.trunk.1.b", (1, 6)),
        (f"{name}.mu.W", (6, 3)), (f"{name}.mu.b", (1, 3)),
        (f"{name}.logvar.W", (6, 3)), (f"{name}.logvar.b", (1, 3)),
    ]


def _decoder(name):
    return [
        (f"{name}.0.W", (3, 6)), (f"{name}.0.b", (1, 6)),
        (f"{name}.1.W", (6, 8)), (f"{name}.1.b", (1, 8)),
        (f"{name}.2.W", (8, 5)), (f"{name}.2.b", (1, 5)),
    ]


def _head(k):
    return [
        (f"head{k}.0.W", (8, 7)), (f"head{k}.0.b", (1, 7)),
        (f"head{k}.1.W", (7, 5)), (f"head{k}.1.b", (1, 5)),
    ]


_PLAIN_ENCODER = [
    ("enc1.net.0.W", (5, 8)), ("enc1.net.0.b", (1, 8)),
    ("enc1.net.1.W", (8, 6)), ("enc1.net.1.b", (1, 6)),
    ("enc1.net.2.W", (6, 3)), ("enc1.net.2.b", (1, 3)),
]


class TestParameterNames:
    """The checkpoint stores parameters by these names, in this order."""

    @pytest.mark.parametrize("overrides,expected", [
        ({}, _variational_encoder("enc1") + _decoder("dec1") + _head(0)),
        ({"variational": False}, _PLAIN_ENCODER + _decoder("dec1") + _head(0)),
        ({"siamese": True},
         _variational_encoder("enc1") + _variational_encoder("enc2")
         + _decoder("dec1") + _decoder("dec2") + _head(0)),
        ({"heads": "per-cluster", "n_clusters": 3},
         _variational_encoder("enc1") + _decoder("dec1") + _head(0) + _head(1) + _head(2)),
    ], ids=["shared", "plain", "siamese", "per-cluster"])
    def test_names_and_shapes(self, overrides, expected):
        # 5 input features, latent 3, 4 time bins
        config = ExperimentConfig(
            latent_dim=3, encoder_hidden=(8, 6), head_hidden=(7,), **overrides
        )
        config.validate()
        model = Model(config, 5, TimeGrid([1.0, 2.0, 3.0, 4.0]).n_bins)
        got = [(name, arr.shape) for name, arr in model.state_dict().items()]
        assert got == expected


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


def bits(a):
    """The raw bytes of a float64 array in C order: equal only when every bit is."""
    return np.asarray(a, dtype=np.float64).tobytes()


class TestArrayCodec:
    @settings(max_examples=200, deadline=None)
    @given(a=arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                    elements=st.floats(allow_nan=True, allow_infinity=True)))
    @example(a=np.array([-0.0, 0.0, 5e-324, -5e-324, 1.797e308, -1.797e308]))
    @example(a=np.array([np.nan, np.inf, -np.inf, 2.2250738585072014e-308]))
    def test_float64_round_trip_is_bit_exact(self, a):
        blob = json.loads(json.dumps(_encode(a, "float64")))
        b = _decode(blob, "float64", "x")
        assert b.dtype == np.float64 and b.shape == a.shape
        assert bits(b) == bits(a)

    @settings(max_examples=100, deadline=None)
    @given(a=arrays(np.int64, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
                    elements=st.integers(-2 ** 63, 2 ** 63 - 1)))
    @example(a=np.array([-2 ** 63, 2 ** 63 - 1, 0, -1], dtype=np.int64))
    def test_int64_round_trip_is_exact(self, a):
        b = _decode(json.loads(json.dumps(_encode(a, "int64"))), "int64", "x")
        assert b.dtype == np.int64 and b.shape == a.shape
        assert np.array_equal(a, b)

    def test_blob_is_little_endian_base64(self):
        blob = _encode(np.array([[1.0, -2.0]]), "float64")
        assert blob["dtype"] == "float64" and blob["shape"] == [1, 2]
        assert base64.b64decode(blob["data"]) == np.array([1.0, -2.0], dtype="<f8").tobytes()

    def test_decoded_array_is_writable(self):
        b = _decode(_encode(np.arange(3.0), "float64"), "float64", "x")
        b[0] = 7.0
        assert b[0] == 7.0

    def test_format_one_lists_decode(self):
        assert np.array_equal(_decode([[1.5, 2.0]], "float64", "x"), [[1.5, 2.0]])
        assert _decode([0, 1, 1], "int64", "x").dtype == np.int64
        assert np.array_equal(_decode([0.0, 2.0], "int64", "x"), [0, 2])
        assert _decode([], "int64", "x").shape == (0,)

    @pytest.mark.parametrize("value, dtype, message", [
        ("abc", "float64", "must be an array"),
        (None, "float64", "must be an array"),
        (3.5, "float64", "must be an array"),
        ([[1.0, 2.0], [3.0]], "float64", "ragged"),
        ([1.0, "x"], "float64", "only numbers"),
        ([1.0, None], "float64", "only numbers"),
        ([True, False], "float64", "only numbers"),
        ([0, 1.5], "int64", "not int64 integers"),
        ([0, float("nan")], "int64", "not int64 integers"),
        ([2 ** 64], "int64", "only numbers"),
        ([2 ** 63], "int64", "only numbers"),
        ([1e30], "int64", "not int64 integers"),
        ({"dtype": "float64", "shape": [1]}, "float64", "keys dtype, shape and data"),
        ({"dtype": "float32", "shape": [1], "data": "AAAAAA=="}, "float64", "dtype 'float32'"),
        ({"dtype": "int64", "shape": [1], "data": "AAAAAAAAAAA="}, "float64", "dtype 'int64'"),
        ({"dtype": "float64", "shape": [1], "data": "AAAA!AAAAAA="}, "float64", "base64"),
        ({"dtype": "float64", "shape": [1], "data": "AAAAAAAAAAA"}, "float64", "base64"),
        ({"dtype": "float64", "shape": [1], "data": 12}, "float64", "base64"),
        ({"dtype": "float64", "shape": [2], "data": "AAAAAAAAAAA="}, "float64", "8 bytes"),
        ({"dtype": "float64", "shape": [1], "data": "AAAAAAAA"}, "float64", "6 bytes"),
        ({"dtype": "float64", "shape": [-1], "data": ""}, "float64", "shape"),
        ({"dtype": "float64", "shape": "1", "data": ""}, "float64", "shape"),
        ({"dtype": "float64", "shape": [True], "data": ""}, "float64", "shape"),
    ])
    def test_malformed_value_names_the_field(self, value, dtype, message):
        with pytest.raises(ConfigurationError, match=message) as info:
            _decode(value, dtype, "state.head0.W")
        assert "'state.head0.W'" in str(info.value)


class TestFormatTwo:
    def test_every_array_is_a_blob(self, tmp_path):
        state, _ = fitted_state(siamese=True, heads="per-cluster")
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        payload = json.loads(path.read_text())
        assert payload["version"] == 3
        blobs = list(payload["state"].values()) + [
            payload["grid_edges"], payload["train_times"], payload["train_events"],
        ] + [entry["centers"] for entry in payload["clusters"]]
        assert all(set(b) == {"dtype", "shape", "data"} for b in blobs)
        assert payload["train_events"]["dtype"] == "int64"

    def test_weights_restore_bit_exactly(self, tmp_path):
        state, _ = fitted_state(siamese=True, heads="per-cluster")
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        restored = load_checkpoint(str(path)).state
        for (name, a), (_, b) in zip(state.model.parameters(), restored.model.parameters()):
            assert bits(a.values) == bits(b.values), name
        for a, b in zip(state.centers, restored.centers):
            assert bits(a) == bits(b)

    def test_loading_fills_the_store_without_initializing(self, tmp_path, monkeypatch):
        state, _ = fitted_state(siamese=True, heads="per-cluster")
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))

        def initialize(model):
            raise AssertionError("load_checkpoint drew weights that it then replaces")

        monkeypatch.setattr(Model, "initialize", initialize)
        restored = load_checkpoint(str(path)).state
        assert bits(restored.model.flat) == bits(state.model.flat)
        model = restored.model
        assert_step_moves_parameters(Adam(model.flat, [t for _, t in model.parameters()]), model)

    def test_format_one_lists_load_to_the_same_state(self, tmp_path):
        state, X = fitted_state(siamese=True, heads="per-cluster")
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        payload = json.loads(path.read_text())

        def as_lists(value):
            if isinstance(value, dict) and set(value) == {"dtype", "shape", "data"}:
                raw = base64.b64decode(value["data"])
                return np.frombuffer(raw, dtype=value["dtype"]).reshape(value["shape"]).tolist()
            if isinstance(value, dict):
                return {k: as_lists(v) for k, v in value.items()}
            if isinstance(value, list):
                return [as_lists(v) for v in value]
            return value

        payload = as_lists(payload)
        payload["version"] = 1
        path.write_text(json.dumps(payload))
        restored = load_checkpoint(str(path)).state
        a = trainer.predict(state, X[:10])
        b = trainer.predict(restored, X[:10])
        assert bits(a["survival"]) == bits(b["survival"])

    @pytest.mark.parametrize("field, value, message", [
        ("grid_edges", [[1.0, 2.0]], "grid_edges"),
        ("train_times", [1.0], "train_times"),
        ("train_events", None, "both be arrays or both null"),
        ("clusters", "abc", "'clusters' must be a list"),
        ("version", "3", "version"),
        ("state", [1.0], "state"),
        ("columns", 5, "columns"),
        ("transforms", [], "transforms"),
        ("clusters", [], "one entry per view"),
        ("columns", {"time": "t"}, "columns"),
        ("columns", {"time": "t", "event": 1}, "columns"),
        ("columns", {"time": "t", "event": "e", "id": "i"}, "columns"),
        ("columns", ["t", "e"], "columns"),
    ])
    def test_malformed_field_is_a_configuration_error(self, tmp_path, field, value, message):
        state, _ = fitted_state()
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match=message):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("entry, message", [
        (5, "kind 'numeric' or 'categorical'"),
        ({"kind": "numeric", "mean": 0.0, "std": 0.0, "median": 0.0}, "std > 0"),
        ({"kind": "numeric", "mean": float("nan"), "std": 1.0, "median": 0.0}, "finite mean"),
        ({"kind": "numeric", "mean": 0.0, "std": 1.0}, "finite mean and median"),
        ({"kind": "categorical", "categories": ["a", 2]}, "list of strings"),
    ])
    def test_malformed_transform_names_the_column(self, tmp_path, entry, message):
        state, _ = fitted_state()
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        payload = json.loads(path.read_text())
        payload["transforms"] = {"f0": {"kind": "categorical", "categories": ["a", "b"]},
                                 "f1": entry}
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match=f"column 'f1' .*{message}"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("variational", [True, False])
    @pytest.mark.parametrize("categories", [["a"], ["a", "b", "c"], ["a", "b", "c", "d", "e"]],
                             ids=["4 columns", "6 columns", "8 columns"])
    def test_transforms_must_match_the_encoder_width(self, tmp_path, capsys, categories,
                                                     variational):
        state, _ = fitted_state(variational=variational)  # an encoder that takes 5 columns
        path = tmp_path / "ck.json"
        transforms = {
            **{f"f{j}": {"kind": "numeric", "mean": 0.0, "std": 1.0, "median": 0.0}
               for j in range(3)},
            "g": {"kind": "categorical", "categories": categories},
        }
        save_checkpoint(state, str(path), transforms=transforms)
        with pytest.raises(ConfigurationError, match="feature mismatch.* encoder takes 5"):
            load_checkpoint(str(path))
        assert main(["evaluate", "--checkpoint", str(path), "--data", "unread.csv"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "feature mismatch" in err

    def test_non_object_payload_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="JSON object"):
            load_checkpoint(str(path))
