"""Configuration loading, exhaustive validation, and hashing."""

import json
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survstrat.config import _KINDS, ExperimentConfig
from survstrat.errors import ConfigurationError
from survstrat.losses import LossWeights


def expect_rejection(match, **overrides):
    config = ExperimentConfig(**overrides)
    with pytest.raises(ConfigurationError, match=match):
        config.validate()


class TestValidate:
    def test_defaults_are_valid(self):
        ExperimentConfig().validate()

    def test_every_listed_violation_is_rejected(self):
        cases = [
            ("spectral.*excluded", dict(clustering="spectral")),
            ("unknown clustering", dict(clustering="dbscan")),
            ("heads must be", dict(heads="mixture")),
            ("n_clusters", dict(n_clusters=0)),
            ("latent_dim", dict(latent_dim=0)),
            ("n_bins", dict(n_bins=0)),
            ("nu must be positive", dict(nu=0.0)),
            ("routing_view must be", dict(routing_view=3)),
            ("routing_view=2 requires", dict(routing_view=2, siamese=False)),
            ("at least one layer", dict(encoder_hidden=())),
            ("at least one layer", dict(head_hidden=())),
            ("learning_rate", dict(learning_rate=0.0)),
            ("batch_size", dict(batch_size=0)),
            ("epoch counts", dict(pretrain_epochs=-1)),
            ("epoch counts", dict(max_epochs=-1)),
            ("patience", dict(patience=0)),
            ("spl_scope", dict(spl_scope="minibatch")),
            ("tau must be positive", dict(weights=LossWeights(tau=0.0))),
            ("sigma_rank", dict(weights=LossWeights(sigma_rank=-1.0))),
            ("non-negative", dict(weights=LossWeights(alpha_rec=-0.5))),
            ("Siamese encoder pair", dict(weights=LossWeights(alpha_iviw=0.5))),
            ("Siamese encoder pair", dict(weights=LossWeights(alpha_ivcw=0.5))),
        ]
        for match, overrides in cases:
            expect_rejection(match, **overrides)

    def test_cross_view_weights_valid_when_siamese(self):
        ExperimentConfig(
            siamese=True, weights=LossWeights(alpha_iviw=0.5, alpha_ivcw=0.5)
        ).validate()

    def test_routing_view_2_valid_when_siamese(self):
        ExperimentConfig(siamese=True, routing_view=2).validate()

    def test_multiple_violations_reported_together(self):
        config = ExperimentConfig(n_clusters=0, latent_dim=-1, spl_scope="bad")
        with pytest.raises(ConfigurationError) as err:
            config.validate()
        text = str(err.value)
        assert "n_clusters" in text
        assert "latent_dim" in text
        assert "spl_scope" in text

    def test_every_weight_violation_reported(self):
        config = ExperimentConfig.from_dict(
            {"n_bins": 0, "weights": {"tau": -1, "sigma_rank": -1, "alpha_rec": -1,
                                      "alpha_iviw": 0.5}}
        )
        with pytest.raises(ConfigurationError) as err:
            config.validate()
        text = str(err.value)
        for part in ("n_bins must be >= 1", "tau must be positive, got -1",
                     "sigma_rank must be positive, got -1",
                     "alpha_rec must be non-negative, got -1", "Siamese encoder pair"):
            assert part in text

    def test_single_encoder_cross_view_weights_rejected(self):
        with pytest.raises(ConfigurationError, match="Siamese encoder pair"):
            ExperimentConfig(weights=LossWeights(alpha_ivcw=0.1)).validate()

    def test_bad_scales_rejected(self):
        for weights in (LossWeights(tau=0.0), LossWeights(sigma_rank=-1.0),
                        LossWeights(alpha_rec=-0.1)):
            with pytest.raises(ConfigurationError):
                ExperimentConfig(weights=weights).validate()

    def test_types_checked_with_values_in_one_error(self):
        config = ExperimentConfig.from_dict({
            "n_clusters": "2", "batch_size": 2.5, "early_stopping": "yes",
            "routing_view": True, "encoder_hidden": [8, 0], "seed": None,
            "learning_rate": float("nan"), "weights": {"beta": False},
            "patience": 0,
        })
        with pytest.raises(ConfigurationError) as err:
            config.validate()
        text = str(err.value)
        assert "\n" not in text
        for part in (
            "n_clusters must be an integer, got str '2'",
            "batch_size must be an integer, got float 2.5",
            "early_stopping must be true or false",
            "routing_view must be an integer, got bool True",
            "encoder_hidden must be a list of positive integers",
            "seed must be an integer, got NoneType None",
            "learning_rate must be a finite number, got float nan",
            "weights.beta must be a finite number, got bool False",
            "patience must be >= 1, got 0",
        ):
            assert part in text

    def test_every_field_has_a_checked_type(self):
        for f in fields(ExperimentConfig) + fields(LossWeights):
            assert f.type in _KINDS or f.name == "weights", f.name

    def test_ints_accepted_as_numbers(self):
        ExperimentConfig.from_dict({"nu": 2, "learning_rate": 1, "weights": {"tau": 1}}).validate()

    def test_non_object_weights_rejected(self):
        with pytest.raises(ConfigurationError, match="weights must be an object"):
            ExperimentConfig.from_dict({"weights": [1.0]}).validate()

    def test_non_object_config_rejected(self):
        with pytest.raises(ConfigurationError, match="must be a JSON object"):
            ExperimentConfig.from_dict([1, 2])

    def test_zero_epochs_allowed(self):
        ExperimentConfig(pretrain_epochs=0, max_epochs=0).validate()


class TestSerialization:
    def test_round_trip(self):
        config = ExperimentConfig(
            siamese=True, heads="per-cluster", n_clusters=3,
            encoder_hidden=(8, 4), weights=LossWeights(alpha_iviw=0.2),
        )
        back = ExperimentConfig.from_dict(config.to_dict())
        assert back == config

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown configuration keys: 'dropout'"):
            ExperimentConfig.from_dict({"dropout": 0.5})

    @pytest.mark.parametrize("d", [{"\n": None}, {"weights": {"a\nb": 1.0}}])
    def test_unknown_keys_quoted_on_one_line(self, d):
        with pytest.raises(ConfigurationError) as info:
            ExperimentConfig.from_dict(d)
        assert "\n" not in str(info.value)
        assert "\\n" in str(info.value)

    def test_unknown_weight_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown loss-weight keys"):
            ExperimentConfig.from_dict({"weights": {"alpha_magic": 1.0}})

    def test_hidden_lists_become_tuples(self):
        config = ExperimentConfig.from_dict({"encoder_hidden": [32, 16]})
        assert config.encoder_hidden == (32, 16)

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_clusters": 4, "seed": 9}))
        config = ExperimentConfig.from_file(str(path))
        assert config.n_clusters == 4
        assert config.seed == 9

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            ExperimentConfig.from_file(str(tmp_path / "absent.json"))

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            ExperimentConfig.from_file(str(path))


class TestHash:
    def test_stable_for_equal_configs(self):
        a = ExperimentConfig(seed=1)
        b = ExperimentConfig(seed=1)
        assert a.config_hash() == b.config_hash()

    def test_changes_with_any_field(self):
        base = ExperimentConfig().config_hash()
        assert ExperimentConfig(seed=1).config_hash() != base
        assert ExperimentConfig(latent_dim=8).config_hash() != base
        assert (
            ExperimentConfig(weights=LossWeights(beta=2.0)).config_hash() != base
        )

    def test_is_short_hex(self):
        h = ExperimentConfig().config_hash()
        assert len(h) == 16
        int(h, 16)


_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(10 ** 308, 10 ** 400).map(lambda v: -v),
    st.integers(10 ** 308, 10 ** 400), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.sampled_from(["kmeans", "gmm", "ward", "spectral", "shared", "per-cluster", "dataset", "gbsg"]),
)
_JSON_VALUES = st.one_of(
    _JSON_LEAVES, st.lists(_JSON_LEAVES, max_size=3),
    st.dictionaries(st.text(max_size=5), _JSON_LEAVES, max_size=2),
)
_WEIGHTS = st.dictionaries(st.sampled_from(sorted(LossWeights.__dataclass_fields__) + ["bogus"]),
                           _JSON_VALUES, max_size=4)
_CONFIGS = st.dictionaries(st.sampled_from(sorted(ExperimentConfig.__dataclass_fields__) + ["bogus"]),
                           st.one_of(_JSON_VALUES, _WEIGHTS), max_size=6)


class TestFuzzedConfigs:
    @settings(max_examples=200, deadline=None)
    @given(d=st.one_of(_CONFIGS, _JSON_VALUES))
    @example(d={"learning_rate": 10 ** 400})
    @example(d={"weights": {"tau": -10 ** 400}})
    def test_returns_or_raises_configuration_error(self, d):
        try:
            ExperimentConfig.from_dict(d).validate()
        except ConfigurationError:
            pass

    def test_integer_beyond_float_range_is_not_a_number(self):
        expect_rejection("learning_rate must be a finite number, got int", learning_rate=10 ** 400)
