"""Command surface: determinism, exit codes, rank-sum search, stratification."""

import base64
import contextlib
import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survstrat.cli import (
    average_ranks,
    build_parser,
    format_report,
    load_search_space,
    main,
    rank_leaderboard,
    sample_trials,
    standardized_mean_differences,
)
from survstrat import floatfmt, trainer
from survstrat.checkpoint import load_checkpoint, save_checkpoint
from survstrat.data import (Schema, apply_transforms, column_names, load_csv, make_splits,
                             save_splits)
from survstrat.errors import ConfigurationError, DataError, NumericError
from survstrat.metrics import interpolate_curve, kaplan_meier, log_rank_test
from survstrat.networks import Model

from csvgen import survival_csvs
from oracles import average_ranks_loop, load_csv_rows


def write_toy_dataset(path, n=150, seed=42, informative=True):
    """CSV where f0 drives the hazard (or nothing does when informative=False)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    if informative:
        t = rng.exponential(np.exp(0.5 * x[:, 0]) * 4) + 0.05
    else:
        t = rng.exponential(5.0, size=n) + 0.05
    c = rng.exponential(10.0, size=n)
    e = (t <= c).astype(int)
    obs = np.minimum(t, c)
    with open(path, "w") as fh:
        fh.write("duration,event,f0,f1,f2\n")
        for i in range(n):
            fh.write(
                f"{obs[i]:.6f},{e[i]},{x[i, 0]:.6f},{x[i, 1]:.6f},{x[i, 2]:.6f}\n"
            )


def write_schema(path):
    schema = {
        "time": "duration",
        "event": "event",
        "features": {"f0": "numeric", "f1": "numeric", "f2": "numeric"},
    }
    with open(path, "w") as fh:
        json.dump(schema, fh)


def base_config(schema_path, **overrides):
    config = {
        "schema_file": str(schema_path), "latent_dim": 3, "n_bins": 4,
        "encoder_hidden": [8], "head_hidden": [8], "pretrain_epochs": 2,
        "max_epochs": 2, "batch_size": 64, "seed": 1, "patience": 3,
    }
    config.update(overrides)
    return config


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared toy dataset plus one finished training run."""
    root = tmp_path_factory.mktemp("cli")
    write_toy_dataset(root / "toy.csv")
    write_schema(root / "schema.json")
    config = base_config(root / "schema.json")
    with open(root / "config.json", "w") as fh:
        json.dump(config, fh)
    rc = main([
        "train", "--config", str(root / "config.json"),
        "--data", str(root / "toy.csv"), "--out", str(root / "run"),
    ])
    assert rc == 0
    return root


class TestRankSum:
    def make(self, trial, c, ibs):
        return {
            "trial": trial, "config": {}, "config_hash": f"h{trial}",
            "val_c": [c], "val_ibs": [ibs], "test_c": [c], "test_ibs": [ibs],
        }

    def test_hand_table_with_tradeoff(self):
        # C ranks: A=1 B=2 C=3; IBS ranks: B=1 A=2 C=3
        # sums: A=3 B=3 C=6; the A/B tie breaks on higher C-index
        results = [
            self.make(0, 0.70, 0.20),
            self.make(1, 0.68, 0.15),
            self.make(2, 0.66, 0.25),
        ]
        board = rank_leaderboard(results)
        assert [row["trial"] for row in board] == [0, 1, 2]
        assert [row["rank_sum"] for row in board] == [3.0, 3.0, 6.0]

    def test_dominance(self):
        results = [self.make(0, 0.70, 0.15), self.make(1, 0.65, 0.20)]
        board = rank_leaderboard(results)
        assert board[0]["trial"] == 0
        assert board[0]["rank_sum"] == 2.0

    def test_single_trial(self):
        board = rank_leaderboard([self.make(0, 0.6, 0.2)])
        assert len(board) == 1
        assert board[0]["position"] == 1

    def test_failed_trials_excluded(self):
        results = [
            self.make(0, 0.60, 0.20),
            {"trial": 1, "config": {}, "error": "NumericError: diverged"},
        ]
        board = rank_leaderboard(results)
        assert [row["trial"] for row in board] == [0]

    def test_all_failed_raises(self):
        results = [{"trial": 0, "config": {}, "error": "boom"}]
        with pytest.raises(ConfigurationError, match="all trials failed"):
            rank_leaderboard(results)

    def test_average_ranks_ties(self):
        ranks = average_ranks(np.array([1.0, 1.0, 2.0]), descending=True)
        assert ranks.tolist() == [2.5, 2.5, 1.0]
        ranks = average_ranks(np.array([1.0, 1.0, 2.0]), descending=False)
        assert ranks.tolist() == [1.5, 1.5, 3.0]

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, float("nan"), float("inf")])
                           | st.floats(), max_size=30),
           descending=st.booleans())
    def test_average_ranks_match_the_loop(self, values, descending):
        got = average_ranks(values, descending=descending)
        want = average_ranks_loop(values, descending=descending)
        assert got.tobytes() == want.tobytes()

    def test_per_split_mode_can_flip_the_winner(self):
        # trial 0 wins one split big, loses two small; means favor it but
        # split-wise ranks favor trial 1 (IBS identical, so tied there)
        results = [
            {"trial": 0, "config": {}, "config_hash": "h0",
             "val_c": [0.9, 0.4, 0.4], "val_ibs": [0.1, 0.1, 0.1],
             "test_c": [0.5], "test_ibs": [0.1]},
            {"trial": 1, "config": {}, "config_hash": "h1",
             "val_c": [0.5, 0.5, 0.5], "val_ibs": [0.1, 0.1, 0.1],
             "test_c": [0.5], "test_ibs": [0.1]},
        ]
        averaged = rank_leaderboard(results)
        assert [row["trial"] for row in averaged] == [0, 1]
        # mean C 0.567 against 0.5 ranks 1 and 2; the tied mean IBS adds 1.5
        assert [row["rank_sum"] for row in averaged] == [2.5, 3.5]
        # per-split C ranks: t0 gets 1+2+2=5, t1 gets 2+1+1=4;
        # IBS adds 1.5 * 3 to both
        split_wise = rank_leaderboard(results, per_split=True)
        assert [row["trial"] for row in split_wise] == [1, 0]
        assert split_wise[0]["rank_sum"] == 8.5
        assert split_wise[1]["rank_sum"] == 9.5


class TestSearchSpace:
    def space_dict(self):
        return {
            "base": {"seed": 0},
            "space": {
                "learning_rate": {"type": "log_uniform", "low": 1e-4, "high": 1e-2},
                "latent_dim": {"type": "choice", "values": [4, 8]},
                "n_clusters": {"type": "int_range", "low": 2, "high": 4},
                "weights.alpha_cl": {"type": "uniform", "low": 0.1, "high": 1.0},
            },
        }

    def test_sampling_respects_bounds(self):
        trials = sample_trials(self.space_dict(), 30, seed=0)
        assert len(trials) == 30
        for d in trials:
            assert 1e-4 <= d["learning_rate"] <= 1e-2
            assert d["latent_dim"] in (4, 8)
            assert d["n_clusters"] in (2, 3, 4)
            assert 0.1 <= d["weights"]["alpha_cl"] <= 1.0

    def test_sampling_deterministic(self):
        a = sample_trials(self.space_dict(), 5, seed=3)
        b = sample_trials(self.space_dict(), 5, seed=3)
        assert a == b
        assert sample_trials(self.space_dict(), 5, seed=4) != a

    def test_int_range_hits_both_ends(self):
        trials = sample_trials(self.space_dict(), 200, seed=0)
        seen = {d["n_clusters"] for d in trials}
        assert seen == {2, 3, 4}

    def test_validation_errors(self, tmp_path):
        cases = [
            ({"space": {}}, "non-empty"),
            ({"space": {"x": {"type": "choice", "values": []}}}, "empty choices"),
            ({"space": {"x": {"type": "uniform", "low": 2, "high": 1}}}, "low < high"),
            ({"space": {"x": {"type": "log_uniform", "low": 0, "high": 1}}}, "positive"),
            ({"space": {"x": {"type": "gaussian", "low": 0, "high": 1}}}, "unknown type"),
            ({"space": {"x": {"type": "choice", "values": [1]}}, "budget": 0}, "budget"),
            ([{"space": {"x": {"type": "choice", "values": [1]}}}], "non-empty"),
            ({"space": {"lr": 5}}, "unknown type"),
            ({"space": {"x": {"type": "uniform", "low": "a", "high": 1}}}, "low < high"),
            ({"space": {"x": {"type": "choice", "values": [1]}}, "budget": "3"}, "budget"),
            ({"space": {"x": {"type": "choice", "values": [1]}}, "budget": 2.5}, "budget"),
            ({"space": {"x": {"type": "choice", "values": 5}}}, "empty choices"),
            ({"space": {"x": {"type": "uniform", "low": -1e308, "high": 1e308}}}, "overflows"),
            ({"space": {"x": {"type": "int_range", "low": 0, "high": 2 ** 70}}}, "within int64"),
            ({"space": {"x": {"type": "int_range", "low": 0.5, "high": 3.5}}}, "integer bounds"),
            # a dotted name may cross only objects
            ({"base": {"seed": 1}, "space": {"seed.x": {"type": "choice", "values": [1]}}},
             "'seed.x': base 'seed' is not an object"),
            ({"base": {"w": {"a": [2]}}, "space": {"w.a.b": {"type": "choice", "values": [1]}}},
             "'w.a.b': base 'w.a' is not an object"),
            ({"space": {"seed": {"type": "choice", "values": [1]},
                        "seed.x": {"type": "choice", "values": [1]}}},
             "names both 'seed' and 'seed.x'"),
            ({"space": {"seed.x": {"type": "choice", "values": [1]},
                        "seed": {"type": "choice", "values": [1]}}},
             "names both 'seed' and 'seed.x'"),
        ]
        for payload, match in cases:
            path = tmp_path / "space.json"
            path.write_text(json.dumps(payload))
            with pytest.raises(ConfigurationError, match=match):
                load_search_space(str(path))

    def test_readme_space_loads_and_samples(self, tmp_path):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        path = tmp_path / "space.json"
        path.write_text(readme.split("cat > space.json <<'EOF'\n")[1].split("EOF\n")[0])
        space = load_search_space(str(path))
        assert {d["n_clusters"] for d in sample_trials(space, 50, seed=0)} == {2, 3, 4, 5}

    def test_integer_bounds_beyond_int64_sample(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"space": {
            "a": {"type": "uniform", "low": 0, "high": 2 ** 70},
            "b": {"type": "log_uniform", "low": 1, "high": 2 ** 70},
        }}))
        (d,) = sample_trials(load_search_space(str(path)), 1, seed=0)
        assert 0 <= d["a"] <= 2.0 ** 70 and 1 <= d["b"] <= 2.0 ** 70

    def test_malformed_space_exits_1_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"space": {"x": {"type": "uniform", "low": "a", "high": 1}}}))
        assert main(["hpo", "--space", str(path), "--out", str(tmp_path / "hpo")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: search space 'x'") and err.count("\n") == 1

    def test_dotted_name_across_a_number_exits_1_with_one_line(self, workspace, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"base": base_config(workspace / "schema.json"),
                                    "space": {"seed.x": {"type": "choice", "values": [1]}}}))
        argv = ["hpo", "--space", str(path), "--data", str(workspace / "toy.csv"),
                "--out", str(tmp_path / "hpo")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: search space 'seed.x': base 'seed' is not an object\n"


class TestReportAndSmd:
    def test_format_report_uses_full_precision(self):
        text = format_report({"c_index": 0.123456789012345678, "split": 1})
        assert "c_index: 0.12345678901234568" in text
        assert "split: 1" in text

    def test_smd_hand_value(self):
        # means 0 vs 2, both variances 1 -> SMD = 2
        X = np.array([[-1.0], [1.0], [1.0], [3.0]])
        labels = np.array([0, 0, 1, 1])
        out = standardized_mean_differences(X, labels, ["f"])
        assert out[0][0] == "f"
        assert out[0][1] == pytest.approx(2.0)

    def test_smd_ranked_descending(self):
        rng = np.random.default_rng(0)
        labels = np.repeat([0, 1], 50)
        strong = labels * 3.0 + rng.normal(0, 0.1, 100)
        weak = rng.normal(size=100)
        out = standardized_mean_differences(
            np.column_stack([weak, strong]), labels, ["weak", "strong"]
        )
        assert [name for name, _ in out] == ["strong", "weak"]
        assert out[0][1] > out[1][1]


class TestTrainCommand:
    def test_outputs_written(self, workspace):
        run = workspace / "run"
        for name in ("checkpoint.json", "epochs.csv", "metrics.txt", "splits.txt"):
            assert (run / name).exists()
        report = (run / "metrics.txt").read_text()
        for key in ("dataset", "split", "c_index", "ibs", "seed", "config_hash"):
            assert f"{key}:" in report

    def test_byte_identical_reruns(self, workspace):
        rc = main([
            "train", "--config", str(workspace / "config.json"),
            "--data", str(workspace / "toy.csv"), "--out", str(workspace / "rerun"),
        ])
        assert rc == 0
        first = (workspace / "run" / "metrics.txt").read_bytes()
        second = (workspace / "rerun" / "metrics.txt").read_bytes()
        assert first == second
        assert (workspace / "run" / "epochs.csv").read_bytes() == (
            workspace / "rerun" / "epochs.csv"
        ).read_bytes()

    def test_seed_flag_overrides_config(self, workspace, tmp_path):
        rc = main([
            "train", "--config", str(workspace / "config.json"),
            "--data", str(workspace / "toy.csv"), "--out", str(tmp_path / "s9"),
            "--seed", "9",
        ])
        assert rc == 0
        report = (tmp_path / "s9" / "metrics.txt").read_text()
        assert "seed: 9" in report
        assert report != (workspace / "run" / "metrics.txt").read_text()

    def test_invalid_weight_combination_fails(self, workspace, tmp_path, capsys):
        config = base_config(workspace / "schema.json")
        config["siamese"] = False
        config["weights"] = {"alpha_iviw": 0.5}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        rc = main([
            "train", "--config", str(path),
            "--data", str(workspace / "toy.csv"), "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        assert "Siamese" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("n_clusters", "2"), ("batch_size", 2.5), ("latent_dim", True),
        ("siamese", 1), ("encoder_hidden", [8, "x"]), ("weights", {"tau": "0.5"}),
    ])
    def test_mistyped_field_exit_1_one_line(self, workspace, tmp_path, capsys,
                                            field, value):
        config = base_config(workspace / "schema.json", **{field: value})
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(config))
        rc = main([
            "train", "--config", str(path),
            "--data", str(workspace / "toy.csv"), "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration: ")
        assert err.count("\n") == 1
        assert field in err
        assert not (tmp_path / "o").exists()

    def test_missing_data_file_exit_2(self, workspace, tmp_path):
        rc = main([
            "train", "--config", str(workspace / "config.json"),
            "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o"),
        ])
        assert rc == 2

    def test_missing_cli_argument_exit_1(self):
        assert main(["train"]) == 1

    def test_split_out_of_range(self, workspace, tmp_path):
        rc = main([
            "train", "--config", str(workspace / "config.json"),
            "--data", str(workspace / "toy.csv"), "--out", str(tmp_path / "o"),
            "--split", "6",
        ])
        assert rc == 1

    def test_all_censored_validation_reports_nan(self, workspace, tmp_path):
        events = np.loadtxt(workspace / "toy.csv", delimiter=",", skiprows=1)[:, 1]
        censored = np.flatnonzero(events == 0)
        val = censored[:20]
        rest = np.setdiff1d(np.arange(events.size), val)
        train, test = rest[:90], rest[90:]
        splits = tmp_path / "splits.txt"
        splits.write_text(" ".join(
            f"{role}:" + ",".join(str(i) for i in idx)
            for role, idx in (("train", train), ("val", val), ("test", test))
        ) + "\n")
        rc = main([
            "train", "--config", str(workspace / "config.json"),
            "--data", str(workspace / "toy.csv"), "--splits-file", str(splits),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 0
        report = dict(
            line.split(": ")
            for line in (tmp_path / "o" / "metrics.txt").read_text().strip().split("\n")
        )
        assert report["val_c_index"] == "nan"
        assert np.isfinite(float(report["val_ibs"]))
        assert np.isfinite(float(report["c_index"]))

    def test_empty_validation_role_scores_nan_without_warnings(self, workspace, tmp_path,
                                                              capsys):
        splits = tmp_path / "splits.txt"
        splits.write_text("train:" + ",".join(map(str, range(120))) + " val: test:"
                          + ",".join(map(str, range(120, 150))) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main([
                "train", "--config", str(workspace / "config.json"),
                "--data", str(workspace / "toy.csv"), "--splits-file", str(splits),
                "--out", str(tmp_path / "o"),
            ])
        assert rc == 0
        report = capsys.readouterr().out
        assert "val_c_index: nan\n" in report and "val_ibs: nan\n" in report

    def test_ragged_csv_exit_2(self, workspace, tmp_path, capsys):
        lines = (workspace / "toy.csv").read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0]
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("\n".join(lines) + "\n")
        rc = main([
            "train", "--config", str(workspace / "config.json"),
            "--data", str(ragged), "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "row 6 has 4 fields" in capsys.readouterr().err

    def test_schema_without_features_exit_1_one_line(self, workspace, tmp_path, capsys):
        schema = {"time": "duration", "event": "event", "features": {}}
        (tmp_path / "empty.json").write_text(json.dumps(schema))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(tmp_path / "empty.json")))
        rc = main([
            "train", "--config", str(path),
            "--data", str(workspace / "toy.csv"), "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("heads", ["shared", "per-cluster"])
    def test_more_clusters_than_training_rows_exit_1_before_a_model_is_built(
            self, workspace, tmp_path, capsys, monkeypatch, heads):
        # 150 rows split 90/30/30: K = 91 cannot be clustered from the 90 training rows
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            base_config(workspace / "schema.json", n_clusters=91, heads=heads)))

        def no_model(*args):
            raise AssertionError("a model was built")

        monkeypatch.setattr(trainer, "Model", no_model)
        rc = main([
            "train", "--config", str(path),
            "--data", str(workspace / "toy.csv"), "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: need at least K=91 points, got 90\n"

    def test_overflowing_column_exit_2_without_numpy_warnings(self, workspace, tmp_path,
                                                              capsys):
        rows = [line.split(",") for line in (workspace / "toy.csv").read_text().splitlines()]
        for i, row in enumerate(rows[1:]):
            row[4] = "1e308" if i % 2 else "-1e308"
        big = tmp_path / "big.csv"
        big.write_text("\n".join(",".join(row) for row in rows) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([
                "train", "--config", str(workspace / "config.json"),
                "--data", str(big), "--out", str(tmp_path / "o"),
            ])
        assert rc == 2
        assert capsys.readouterr().err == "error: column 'f2': a value overflows when standardized\n"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestEvaluateCommand:
    def test_idempotent(self, workspace, tmp_path):
        argv = [
            "evaluate", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
            "--data", str(workspace / "toy.csv"), "--split", "1",
            "--splits-file", str(workspace / "run" / "splits.txt"),
        ]
        rc = main(argv + ["--out", str(tmp_path / "a")])
        assert rc == 0
        rc = main(argv + ["--out", str(tmp_path / "b")])
        assert rc == 0
        assert (tmp_path / "a" / "metrics.txt").read_bytes() == (
            tmp_path / "b" / "metrics.txt"
        ).read_bytes()

    def test_splits_file_alone_means_split_one(self, workspace, tmp_path):
        argv = [
            "evaluate", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
            "--data", str(workspace / "toy.csv"), "--role", "test",
            "--splits-file", str(workspace / "run" / "splits.txt"),
        ]
        rc = main(argv + ["--out", str(tmp_path / "implied")])
        assert rc == 0
        rc = main(argv + ["--split", "1", "--out", str(tmp_path / "explicit")])
        assert rc == 0
        implied = (tmp_path / "implied" / "metrics.txt").read_bytes()
        assert implied == (tmp_path / "explicit" / "metrics.txt").read_bytes()
        assert b"split: 1\n" in implied

    def test_role_without_a_split_exits_1(self, workspace, capsys):
        rc = main(["evaluate", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                   "--data", str(workspace / "toy.csv"), "--role", "val"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: --role needs --split or --splits-file\n"

    def test_matches_train_report(self, workspace, tmp_path, capsys):
        rc = main([
            "evaluate", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
            "--data", str(workspace / "toy.csv"), "--split", "1", "--role", "test",
            "--splits-file", str(workspace / "run" / "splits.txt"),
        ])
        assert rc == 0
        evaluated = dict(
            line.split(": ") for line in capsys.readouterr().out.strip().split("\n")
        )
        trained = dict(
            line.split(": ")
            for line in (workspace / "run" / "metrics.txt").read_text().strip().split("\n")
        )
        assert evaluated["c_index"] == trained["c_index"]
        assert evaluated["ibs"] == trained["ibs"]

    def test_censoring_survival_zero_after_t0_exits_2(self, tmp_path, capsys):
        # without training data the censoring weights come from these rows,
        # whose censoring survival is zero from t = 0.02, before any grid point
        golden = FIXTURES / "golden" / "gbsg_shared_variational" / "checkpoint.json"
        ck = json.loads(golden.read_text())
        ck["train_times"] = ck["train_events"] = None
        (tmp_path / "ck.json").write_text(json.dumps(ck))
        (tmp_path / "d.csv").write_text(rows_text(
            ["duration", "event", *(f"x{i}" for i in range(7))],
            [[t, e, *[0.1] * 7] for t, e in [(0.005, 1), (0.01, 0), (0.02, 0)]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["evaluate", "--checkpoint", str(tmp_path / "ck.json"),
                       "--data", str(tmp_path / "d.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "every later grid point" in err

    def test_missing_checkpoint_exit_1(self, workspace, tmp_path):
        rc = main([
            "evaluate", "--checkpoint", str(tmp_path / "absent.json"),
            "--data", str(workspace / "toy.csv"),
        ])
        assert rc == 1

    def test_feature_mismatch_is_descriptive(self, workspace, tmp_path, capsys):
        narrow = tmp_path / "narrow.csv"
        with open(workspace / "toy.csv") as src, open(narrow, "w") as dst:
            for line in src:
                dst.write(",".join(line.strip().split(",", 4)[:4]) + "\n")
        schema = {"time": "duration", "event": "event",
                  "features": {"f0": "numeric", "f1": "numeric"}}
        (tmp_path / "schema2.json").write_text(json.dumps(schema))
        ck = json.loads((workspace / "run" / "checkpoint.json").read_text())
        ck["config"]["schema_file"] = str(tmp_path / "schema2.json")
        del ck["transforms"]["f2"]
        (tmp_path / "ck.json").write_text(json.dumps(ck))
        rc = main([
            "evaluate", "--checkpoint", str(tmp_path / "ck.json"),
            "--data", str(narrow),
        ])
        assert rc == 1
        assert "mismatch" in capsys.readouterr().err

    def test_overflowing_feature_exit_3_names_op(self, workspace, tmp_path, capsys):
        # f0 = 1e308 overflows the encoder's first layer, whose relu would
        # otherwise clip the resulting -inf units to 0
        rows = [line.split(",") for line in (workspace / "toy.csv").read_text().splitlines()]
        rows[3][2] = "1e308"
        big = tmp_path / "big.csv"
        big.write_text("\n".join(",".join(row) for row in rows) + "\n")
        rc = main([
            "evaluate", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
            "--data", str(big),
        ])
        assert rc == 3
        assert capsys.readouterr().err == "error: non-finite output in op 'linear'\n"

    def test_curve_export_parses(self, workspace, tmp_path):
        curves = tmp_path / "curves.csv"
        rc = main([
            "evaluate", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
            "--data", str(workspace / "toy.csv"), "--curves", str(curves),
        ])
        assert rc == 0
        with open(curves) as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            s = float(row["survival"])
            assert 0.0 <= s <= 1.0
            float(row["time"])
            int(row["group"])

    def test_curves_are_mean_of_row_interpolations(self, workspace, tmp_path):
        curves = tmp_path / "curves.csv"
        checkpoint = workspace / "run" / "checkpoint.json"
        rc = main([
            "evaluate", "--checkpoint", str(checkpoint),
            "--data", str(workspace / "toy.csv"), "--curves", str(curves),
        ])
        assert rc == 0
        ck = load_checkpoint(str(checkpoint))
        table = load_csv(str(workspace / "toy.csv"), Schema.from_file(str(workspace / "schema.json")))
        pred = trainer.predict(ck.state, apply_transforms(table, ck.transforms)[0])
        with open(curves) as fh:
            rows = list(csv.DictReader(fh))
        ts = np.linspace(0.0, ck.state.grid.horizon, 101)
        for g in np.unique(pred["labels"]):
            got = [float(r["survival"]) for r in rows if int(r["group"]) == g]
            want = np.mean([
                interpolate_curve(row, ck.state.grid, ts)
                for row in pred["survival"][pred["labels"] == g]
            ], axis=0)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_curves_directory_created(self, workspace, tmp_path):
        curves = tmp_path / "new" / "dir" / "curves.csv"
        rc = main([
            "evaluate", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
            "--data", str(workspace / "toy.csv"), "--curves", str(curves),
        ])
        assert rc == 0
        assert curves.read_text().startswith("time,survival,group\n")

    def test_overfit_train_beats_test(self, tmp_path, capsys):
        # noise-only hazard: a memorizing run must score better on its own
        # training rows than on held-out rows
        write_toy_dataset(tmp_path / "noise.csv", n=90, seed=9, informative=False)
        write_schema(tmp_path / "schema.json")
        config = base_config(
            tmp_path / "schema.json", latent_dim=6, encoder_hidden=[32],
            head_hidden=[32], pretrain_epochs=150, max_epochs=0,
            batch_size=16, learning_rate=0.005, seed=0, early_stopping=False,
        )
        (tmp_path / "config.json").write_text(json.dumps(config))
        rc = main([
            "train", "--config", str(tmp_path / "config.json"),
            "--data", str(tmp_path / "noise.csv"), "--out", str(tmp_path / "run"),
        ])
        assert rc == 0
        capsys.readouterr()
        scores = {}
        for role in ("train", "test"):
            rc = main([
                "evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                "--data", str(tmp_path / "noise.csv"), "--split", "1",
                "--role", role, "--splits-file", str(tmp_path / "run" / "splits.txt"),
            ])
            assert rc == 0
            out = dict(
                line.split(": ")
                for line in capsys.readouterr().out.strip().split("\n")
            )
            scores[role] = float(out["c_index"])
        assert scores["train"] > scores["test"]


@pytest.fixture(scope="module")
def inferred_workspace(tmp_path_factory):
    """A run trained with inferred kinds: 'a' numeric, and 'b' categorical
    because one of its tokens, 'II', is not a number."""
    root = tmp_path_factory.mktemp("inferred")
    rng = np.random.default_rng(5)
    a = rng.normal(size=120)
    b = rng.choice(["1", "2", "II"], size=120)
    t = rng.exponential(np.exp(0.5 * a) * 4) + 0.05
    e = rng.integers(0, 2, size=120)
    lines = ["duration,event,a,b"] + [
        f"{t[i]:.6f},{e[i]},{a[i]:.6f},{b[i]}" for i in range(120)
    ]
    (root / "data.csv").write_text("\n".join(lines) + "\n")
    (root / "schema.json").write_text(json.dumps(
        {"time": "duration", "event": "event", "features": None}))
    (root / "config.json").write_text(json.dumps(base_config(root / "schema.json")))
    assert main(["train", "--config", str(root / "config.json"),
                 "--data", str(root / "data.csv"), "--out", str(root / "run")]) == 0
    return root


class TestInferredKindsCheckpoint:
    """A checkpoint trained with inferred kinds reads a new CSV with the
    kinds it recorded, not with kinds inferred again from that file."""

    def evaluate(self, root, lines):
        path = root / "new.csv"
        path.write_text("\n".join(lines) + "\n")
        return main(["evaluate", "--checkpoint", str(root / "run" / "checkpoint.json"),
                     "--data", str(path)])

    def test_absent_trained_column_exits_2(self, inferred_workspace, capsys):
        lines = (inferred_workspace / "data.csv").read_text().splitlines()
        assert self.evaluate(inferred_workspace, [ln.rsplit(",", 1)[0] for ln in lines]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: column 'b' not found in ") and err.count("\n") == 1

    def test_word_in_numeric_column_exits_2(self, inferred_workspace, capsys):
        lines = (inferred_workspace / "data.csv").read_text().splitlines()
        t, e, _, b = lines[4].split(",")
        lines[4] = ",".join([t, e, "high", b])
        assert self.evaluate(inferred_workspace, lines) == 2
        assert capsys.readouterr().err == (
            "error: row 5, column 'a': cannot parse 'high' as a number\n")

    def test_numeral_categories_keep_their_encoding(self, inferred_workspace, capsys):
        # without 'II' every token of 'b' parses as a number
        lines = (inferred_workspace / "data.csv").read_text().splitlines()
        lines = lines[:1] + [ln for ln in lines[1:] if not ln.endswith(",II")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self.evaluate(inferred_workspace, lines) == 0
        assert not caught
        ck = load_checkpoint(str(inferred_workspace / "run" / "checkpoint.json"))
        table = load_csv(str(inferred_workspace / "new.csv"),
                         Schema("duration", "event", {"a": "numeric", "b": "categorical"}))
        X, _ = apply_transforms(table, ck.transforms)
        assert X[:, 1:].sum(axis=1).tolist() == [1.0] * table.n_rows
        metrics = trainer.score(ck.state, trainer.predict(ck.state, X), table.time, table.event)
        out = capsys.readouterr().out
        assert f"c_index: {metrics['c_index']!r}\n" in out and f"ibs: {metrics['ibs']!r}\n" in out


class TestHpoCommand:
    def space_file(self, root, workspace, **space_overrides):
        space = {
            "base": base_config(
                workspace / "schema.json", pretrain_epochs=1, max_epochs=1, seed=0
            ),
            "space": {
                "learning_rate": {"type": "log_uniform", "low": 1e-4, "high": 1e-2},
                "n_clusters": {"type": "int_range", "low": 2, "high": 3},
            },
        }
        space.update(space_overrides)
        path = root / "space.json"
        path.write_text(json.dumps(space))
        return path

    def test_budget_one(self, workspace, tmp_path):
        rc = main([
            "hpo", "--space", str(self.space_file(tmp_path, workspace)),
            "--budget", "1", "--seed", "5",
            "--data", str(workspace / "toy.csv"), "--out", str(tmp_path / "hpo"),
        ])
        assert rc == 0
        board = (tmp_path / "hpo" / "leaderboard.csv").read_text().strip().split("\n")
        assert len(board) == 2
        assert board[1].startswith("1,0,2.0,")

    def test_rank_per_split_flag(self, workspace, tmp_path):
        rc = main([
            "hpo", "--space", str(self.space_file(tmp_path, workspace)),
            "--budget", "2", "--seed", "5", "--rank-per-split",
            "--data", str(workspace / "toy.csv"), "--out", str(tmp_path / "hpo"),
        ])
        assert rc == 0
        board = (tmp_path / "hpo" / "leaderboard.csv").read_text().strip().split("\n")
        assert len(board) == 3
        # five splits, two metrics, two trials: rank sums total 10 * 3
        sums = [float(line.split(",")[2]) for line in board[1:]]
        assert sum(sums) == 30.0
        assert sums[0] <= sums[1]

    def test_jobs_do_not_change_results(self, workspace, tmp_path):
        space = self.space_file(tmp_path, workspace)
        for jobs, out in (("1", "a"), ("2", "b")):
            rc = main([
                "hpo", "--space", str(space), "--budget", "2", "--jobs", jobs,
                "--seed", "5", "--data", str(workspace / "toy.csv"),
                "--out", str(tmp_path / out),
            ])
            assert rc == 0
        for name in ("leaderboard.csv", "summary.txt", "winner.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_failing_trials_recorded_and_skipped(self, workspace, tmp_path):
        space = self.space_file(
            tmp_path, workspace,
            space={"clustering": {"type": "choice", "values": ["kmeans", "spectral"]}},
        )
        rc = main([
            "hpo", "--space", str(space), "--budget", "6", "--seed", "0",
            "--data", str(workspace / "toy.csv"), "--out", str(tmp_path / "hpo"),
        ])
        assert rc == 0
        trials = json.loads((tmp_path / "hpo" / "trials.json").read_text())
        failed = [r for r in trials if "error" in r]
        assert failed and len(failed) < 6
        assert all("spectral" in r["error"] for r in failed)
        summary = (tmp_path / "hpo" / "summary.txt").read_text()
        assert f"n_failed: {len(failed)}" in summary

    def test_unexpected_exception_propagates(self, workspace, tmp_path, monkeypatch):
        def broken_fit(data, config):
            raise RuntimeError("bug in fit")

        monkeypatch.setattr(trainer, "fit", broken_fit)
        with pytest.raises(RuntimeError, match="bug in fit"):
            main([
                "hpo", "--space", str(self.space_file(tmp_path, workspace)),
                "--budget", "2", "--jobs", "1", "--seed", "5",
                "--data", str(workspace / "toy.csv"), "--out", str(tmp_path / "hpo"),
            ])

    def test_package_error_recorded_as_failed_trial(self, workspace, tmp_path, monkeypatch):
        real_fit = trainer.fit
        calls = []

        def first_fit_diverges(data, config):
            calls.append(1)
            if len(calls) == 1:
                raise NumericError("loss diverged")
            return real_fit(data, config)

        monkeypatch.setattr(trainer, "fit", first_fit_diverges)
        rc = main([
            "hpo", "--space", str(self.space_file(tmp_path, workspace)),
            "--budget", "2", "--jobs", "1", "--seed", "5",
            "--data", str(workspace / "toy.csv"), "--out", str(tmp_path / "hpo"),
        ])
        assert rc == 0
        trials = json.loads((tmp_path / "hpo" / "trials.json").read_text())
        assert trials[0]["error"] == "NumericError: loss diverged"
        assert "error" not in trials[1]

    def test_mistyped_choice_recorded_as_failed_trial(self, workspace, tmp_path):
        space = self.space_file(
            tmp_path, workspace,
            space={"n_clusters": {"type": "choice", "values": [2, "2"]}},
        )
        rc = main([
            "hpo", "--space", str(space), "--budget", "6", "--seed", "0",
            "--data", str(workspace / "toy.csv"), "--out", str(tmp_path / "hpo"),
        ])
        assert rc == 0
        trials = json.loads((tmp_path / "hpo" / "trials.json").read_text())
        assert len(trials) == 6
        failed = [r for r in trials if "error" in r]
        assert failed and len(failed) < 6
        for r in failed:
            assert r["config"]["n_clusters"] == "2"
            assert r["error"] == (
                "ConfigurationError: invalid configuration: "
                "n_clusters must be an integer, got str '2'"
            )

    def test_invalid_base_exit_1_one_line(self, workspace, tmp_path, capsys):
        base = base_config(workspace / "schema.json", dataset_preset=["gbsg"])
        space = self.space_file(tmp_path, workspace, base=base)
        rc = main([
            "hpo", "--space", str(space), "--budget", "1",
            "--data", str(workspace / "toy.csv"), "--out", str(tmp_path / "hpo"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: invalid configuration: dataset_preset must be a string or null, "
            "got list ['gbsg']\n"
        )

    def test_all_trials_failed_is_an_error(self, workspace, tmp_path):
        space = self.space_file(
            tmp_path, workspace,
            space={"clustering": {"type": "choice", "values": ["spectral"]}},
        )
        rc = main([
            "hpo", "--space", str(space), "--budget", "2", "--seed", "0",
            "--data", str(workspace / "toy.csv"), "--out", str(tmp_path / "hpo"),
        ])
        assert rc == 1

    # fault: (config sizes, whether the 40 rows have events, exit code, message)
    SHARED_FAULTS = {
        "DataError": ({}, False, 2, "cannot build a time grid without any uncensored events"),
        # 40 rows split 24/8/8
        "UsageError": ({"n_clusters": 30}, True, 1, "need at least K=30 points, got 24"),
        # a size no allocation could hold, so a missed cap fails without allocating
        "ConfigurationError": ({"latent_dim": 10**30}, True, 1,
                               "the model would have 34000000000000000000000000000144 "
                               "parameters, more than the cap of 100000000"),
    }

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("fault", list(SHARED_FAULTS))
    def test_one_fault_in_every_trial_exits_as_train_does(self, workspace, tmp_path, capsys,
                                                          fault, jobs):
        sizes, events, code, message = self.SHARED_FAULTS[fault]
        data = tmp_path / "cohort.csv"
        data.write_text(rows_text(["duration", "event", "f0", "f1", "f2"],
                                  [[1.0 + i, int(events) * (i % 2), 0.1 * i, i % 3, -0.1 * i]
                                   for i in range(40)]))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(base_config(workspace / "schema.json", **sizes)))
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / "train")]) == code
        assert capsys.readouterr().err == f"error: {message}\n"
        base = base_config(workspace / "schema.json", pretrain_epochs=1, max_epochs=1, seed=0,
                           **sizes)
        space = self.space_file(tmp_path, workspace, base=base, space={
            "learning_rate": {"type": "log_uniform", "low": 1e-4, "high": 1e-2}})
        assert main(["hpo", "--space", str(space), "--budget", "2", "--jobs", jobs,
                     "--data", str(data), "--out", str(tmp_path / "hpo")]) == code
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "hpo").exists()

    def test_winner_reproduces_through_train(self, workspace, tmp_path):
        rc = main([
            "hpo", "--space", str(self.space_file(tmp_path, workspace)), "--budget", "1",
            "--seed", "5", "--data", str(workspace / "toy.csv"),
            "--out", str(tmp_path / "hpo"),
        ])
        assert rc == 0
        trials = json.loads((tmp_path / "hpo" / "trials.json").read_text())
        rc = main([
            "train", "--config", str(tmp_path / "hpo" / "winner.json"),
            "--data", str(workspace / "toy.csv"),
            "--splits-file", str(tmp_path / "hpo" / "splits.txt"),
            "--split", "1", "--out", str(tmp_path / "repro"),
        ])
        assert rc == 0
        report = dict(
            line.split(": ")
            for line in (tmp_path / "repro" / "metrics.txt").read_text().strip().split("\n")
        )
        assert float(report["val_c_index"]) == trials[0]["val_c"][0]
        assert float(report["val_ibs"]) == trials[0]["val_ibs"][0]


class TestOutputPaths:
    """An output path that cannot be written exits 1 with one line."""

    def test_curves_on_existing_directory(self, workspace, tmp_path, capsys):
        rc = main([
            "evaluate", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
            "--data", str(workspace / "toy.csv"), "--curves", str(tmp_path),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1

    def test_stratify_out_on_existing_file(self, workspace, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        rc = main([
            "stratify", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
            "--data", str(workspace / "toy.csv"), "--out", str(taken),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File exists" in err and err.count("\n") == 1


def _input_argv(which, bad, workspace, tmp_path):
    """A command line that reads ``bad`` as its ``which`` input, every other
    input being the workspace's good one."""
    config, data = str(workspace / "config.json"), str(workspace / "toy.csv")
    checkpoint = str(workspace / "run" / "checkpoint.json")
    if which == "schema":
        config = tmp_path / "config.json"
        config.write_text(json.dumps(base_config(bad)))
    return {
        "config": ["train", "--config", bad, "--data", data],
        "schema": ["train", "--config", str(config), "--data", data],
        "search space": ["hpo", "--space", bad, "--data", data],
        "checkpoint": ["evaluate", "--checkpoint", bad, "--data", data],
        "data CSV": ["evaluate", "--checkpoint", checkpoint, "--data", bad],
        "split file": ["evaluate", "--checkpoint", checkpoint, "--data", data,
                       "--splits-file", bad],
    }[which] + (["--out", str(tmp_path / "out")] if which != "checkpoint" else [])


_INPUT_CODES = {"config": 1, "schema": 1, "search space": 1, "checkpoint": 1,
                "data CSV": 2, "split file": 2}
_JSON_INPUTS = ("config", "schema", "search space", "checkpoint")
# fault -> the file's bytes, None for no file; a directory takes its place
# for "directory" (no permission case: tests may run as root)
_FAULTS = {"missing": None, "not UTF-8": b"\xff", "not JSON": b"{not json",
           "nested too deeply": b"[" * 100_000, "directory": None,
           # json.loads refuses an integer literal over Python's 4,300-digit limit
           "integer over the digit limit": b'{"latent_dim": 1' + b"0" * 5000 + b"}",
           "field over the csv limit": b"t,e\n" + b"1" * 200_000 + b",1\n"}
# fault -> the inputs it applies to, when not every input
_FAULT_INPUTS = {"not JSON": _JSON_INPUTS, "nested too deeply": _JSON_INPUTS,
                 "integer over the digit limit": _JSON_INPUTS,
                 "field over the csv limit": ("data CSV",)}


@pytest.mark.parametrize("where", ["config", "train --seed", "hpo --seed", "checkpoint"])
def test_negative_seed_exits_1_with_one_line(workspace, tmp_path, capsys, where):
    """A seed below 0 is refused with one line, wherever it comes from; hpo
    refuses it before it reads the data, here a file that does not exist."""
    config, data = str(workspace / "config.json"), str(workspace / "toy.csv")
    out = ["--out", str(tmp_path / "out")]
    if where == "config":
        (tmp_path / "c.json").write_text(json.dumps(base_config(workspace / "schema.json", seed=-1)))
        argv = ["train", "--config", str(tmp_path / "c.json"), "--data", data, *out]
    elif where == "train --seed":
        argv = ["train", "--config", config, "--data", data, "--seed", "-1", *out]
    elif where == "hpo --seed":
        (tmp_path / "space.json").write_text(json.dumps({
            "base": base_config(workspace / "schema.json"),
            "space": {"learning_rate": {"type": "log_uniform", "low": 0.001, "high": 0.01}},
        }))
        argv = ["hpo", "--space", str(tmp_path / "space.json"), "--data",
                str(tmp_path / "absent.csv"), "--seed", "-1", *out]
    else:
        payload = json.loads((workspace / "run" / "checkpoint.json").read_text())
        payload["config"]["seed"] = -1
        (tmp_path / "ck.json").write_text(json.dumps(payload))
        argv = ["evaluate", "--checkpoint", str(tmp_path / "ck.json"), "--data", data]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "seed must be non-negative, got -1" in err


class TestInputFiles:
    """Every input file that is missing, is a directory, holds bytes that are
    not UTF-8 or does not parse (as JSON, or for the data CSV, as CSV) exits
    with its input's code and one line naming the file."""

    @pytest.mark.parametrize("which,fault", [
        (which, fault) for which in _INPUT_CODES for fault in _FAULTS
        if which in _FAULT_INPUTS.get(fault, _INPUT_CODES)
    ])
    def test_exit_code_and_one_line(self, workspace, tmp_path, capsys, which, fault):
        bad = tmp_path / "input"
        content = _FAULTS[fault]
        if fault == "directory":
            bad.mkdir()
        elif content is not None:
            bad.write_bytes(content)
        rc = main(_input_argv(which, str(bad), workspace, tmp_path))
        err = capsys.readouterr().err
        assert rc == _INPUT_CODES[which]
        assert err.startswith("error: ") and err.count("\n") == 1
        if fault == "directory":
            assert f"{bad} cannot be read: " in err
        elif content is None:
            assert f"not found: {bad}" in err
        elif fault == "field over the csv limit":
            assert f"data file {bad}, line 2: field larger than field limit" in err
        elif which in _JSON_INPUTS:
            assert f"{bad} is not valid JSON: " in err
        else:
            assert f"{bad} is not UTF-8 text: " in err

    def test_csv_bytes_far_into_the_stream_still_map_to_exit_2(self, workspace, tmp_path,
                                                                capsys):
        # the data CSV is decoded as it is parsed; a 0xff at row 5,000 lies
        # far beyond the first buffer the reader decodes
        header, *rows = (workspace / "toy.csv").read_bytes().splitlines(keepends=True)
        rows = (rows * 40)[:6000]
        head = header + b"".join(rows[:4999])
        assert len(head) > 1 << 16
        bad = tmp_path / "late.csv"
        bad.write_bytes(head + b"\xff" + b"".join(rows[4999:]))
        rc = main(["evaluate", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                   "--data", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: data file {bad} is not UTF-8 text: ")
        assert err.count("\n") == 1


    @pytest.mark.parametrize("command", ["evaluate", "stratify", "train", "hpo"])
    @pytest.mark.parametrize("rows", [[], [["", 1, 0.1, 0.2, 0.3], ["NA", 0, 0.4, 0.5, 0.6]]],
                             ids=["header only", "no row has a time"])
    def test_no_usable_row_exits_2_naming_the_file(self, workspace, tmp_path, capsys,
                                                   command, rows):
        data = tmp_path / "d.csv"
        data.write_text(rows_text(["duration", "event", "f0", "f1", "f2"], rows))
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"base": base_config(workspace / "schema.json"), "space": {
            "learning_rate": {"type": "log_uniform", "low": 1e-4, "high": 1e-2}}}))
        checkpoint = ["--checkpoint", str(workspace / "run" / "checkpoint.json")]
        argv = {"evaluate": checkpoint, "stratify": checkpoint,
                "train": ["--config", str(workspace / "config.json")],
                "hpo": ["--space", str(space)]}[command]
        out = [] if command == "evaluate" else ["--out", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the dropped rows and numpy's empty-file warning
            rc = main([command, *argv, "--data", str(data), *out])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: data file {data}: no row has both a time and an event\n"

    @pytest.mark.parametrize("command, events, message", [
        ("train", [1, 0] * 3, "data file {data}: need at least 10 rows to split, got 6"),
        ("hpo", [1, 0] * 3, "data file {data}: need at least 10 rows to split, got 6"),
        ("evaluate", [1, 0] * 3, "data file {data}: need at least 10 rows to split, got 6"),
        ("train", [0] * 30, "cannot build a time grid without any uncensored events"),
    ], ids=["train, 6 rows", "hpo, 6 rows", "evaluate --split, 6 rows", "train, no event"])
    def test_data_too_small_to_fit_exits_2(self, workspace, tmp_path, capsys, command, events,
                                           message):
        data = tmp_path / "d.csv"
        data.write_text(rows_text(["duration", "event", "f0", "f1", "f2"],
                                  [[1.0 + i, e, 0.1 * i, i % 3, -0.1 * i] for i, e in enumerate(events)]))
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"base": base_config(workspace / "schema.json"), "space": {
            "learning_rate": {"type": "log_uniform", "low": 1e-4, "high": 1e-2}}}))
        argv = {"evaluate": ["--checkpoint", str(workspace / "run" / "checkpoint.json"),
                             "--split", "1"],
                "train": ["--config", str(workspace / "config.json"), "--out", str(tmp_path / "out")],
                "hpo": ["--space", str(space), "--out", str(tmp_path / "out")]}[command]
        assert main([command, *argv, "--data", str(data)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(data=data)}\n"


class TestStratifyCommand:
    def test_outputs_parse_back(self, workspace, tmp_path):
        out = tmp_path / "strat"
        rc = main([
            "stratify", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
            "--data", str(workspace / "toy.csv"), "--out", str(out),
        ])
        assert rc == 0
        with open(out / "latents.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 150
        for row in rows[:5]:
            float(row["z0"])
            int(row["cluster"])
            float(row["time"])
            assert row["event"] in ("0", "1")
        with open(out / "km_clusters.csv") as fh:
            km = list(csv.DictReader(fh))
        by_cluster = {}
        for row in km:
            by_cluster.setdefault(row["cluster"], []).append(float(row["survival"]))
        for curve in by_cluster.values():
            assert curve[0] == 1.0
            assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))
        with open(out / "smd.csv") as fh:
            smd = [(r["feature"], float(r["smd"])) for r in csv.DictReader(fh)]
        values = [v for _, v in smd]
        assert values == sorted(values, reverse=True)
        text = (out / "logrank.txt").read_text()
        assert "chi_square:" in text and "p_value:" in text

    def test_single_cluster_checkpoint_rejected(self, workspace, tmp_path, capsys):
        config = base_config(workspace / "schema.json", n_clusters=1)
        (tmp_path / "k1.json").write_text(json.dumps(config))
        rc = main([
            "train", "--config", str(tmp_path / "k1.json"),
            "--data", str(workspace / "toy.csv"), "--out", str(tmp_path / "k1run"),
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main([
            "stratify", "--checkpoint", str(tmp_path / "k1run" / "checkpoint.json"),
            "--data", str(workspace / "toy.csv"), "--out", str(tmp_path / "s"),
        ])
        assert rc == 1
        assert "nothing to stratify" in capsys.readouterr().err

    def test_two_population_data_separates(self, tmp_path):
        # x0 is bimodal and sets the hazard scale; the learned clusters must
        # differ in survival and rank f0 first by standardized mean difference
        rng = np.random.default_rng(3)
        n = 240
        group = np.arange(n) % 2
        x0 = group * 4.0 + rng.normal(0, 0.25, size=n)
        noise = rng.normal(0, 0.3, size=(n, 2))
        scale = np.where(group == 1, 1.5, 14.0)
        t = rng.exponential(scale) + 0.05
        c = rng.exponential(25.0, size=n)
        e = (t <= c).astype(int)
        obs = np.minimum(t, c)
        with open(tmp_path / "two.csv", "w") as fh:
            fh.write("duration,event,f0,f1,f2\n")
            for i in range(n):
                fh.write(
                    f"{obs[i]:.6f},{e[i]},{x0[i]:.6f},"
                    f"{noise[i, 0]:.6f},{noise[i, 1]:.6f}\n"
                )
        write_schema(tmp_path / "schema.json")
        config = base_config(
            tmp_path / "schema.json", latent_dim=2, n_bins=5,
            encoder_hidden=[16], pretrain_epochs=80, max_epochs=30,
            batch_size=32, learning_rate=0.003, seed=0, patience=10,
        )
        (tmp_path / "config.json").write_text(json.dumps(config))
        rc = main([
            "train", "--config", str(tmp_path / "config.json"),
            "--data", str(tmp_path / "two.csv"), "--out", str(tmp_path / "run"),
        ])
        assert rc == 0
        rc = main([
            "stratify", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
            "--data", str(tmp_path / "two.csv"), "--out", str(tmp_path / "strat"),
        ])
        assert rc == 0
        text = (tmp_path / "strat" / "logrank.txt").read_text()
        p = float(text.strip().split("p_value: ")[1])
        assert p < 0.05
        with open(tmp_path / "strat" / "smd.csv") as fh:
            top = list(csv.DictReader(fh))[0]
        assert top["feature"] == "f0"

    def test_summary_reports_the_first_pair_of_three_clusters(self, workspace, tmp_path,
                                                               capsys):
        # with K = 3 the printed chi_square and p_value are the unadjusted
        # two-sample test of the two lowest populated cluster ids, the first
        # line of logrank.txt; every key of the summary is pinned
        config = base_config(workspace / "schema.json", n_clusters=3)
        (tmp_path / "k3.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(tmp_path / "k3.json"),
                     "--data", str(workspace / "toy.csv"), "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        out = tmp_path / "strat"
        assert main(["stratify", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                     "--data", str(workspace / "toy.csv"), "--out", str(out)]) == 0
        summary = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        with open(out / "latents.csv") as fh:
            rows = list(csv.DictReader(fh))
        labels = np.array([int(r["cluster"]) for r in rows])
        times = np.array([float(r["time"]) for r in rows])
        events = np.array([int(r["event"]) for r in rows])
        ids = np.unique(labels).tolist()
        assert len(ids) == 3
        pairs = [line.split(":")[0] for line in (out / "logrank.txt").read_text().splitlines()]
        assert pairs == [f"clusters {a} vs {b}" for a, b in [ids[:2], ids[::2], ids[1:]]]
        pair = np.isin(labels, ids[:2])
        stat, p = log_rank_test(labels[pair], times[pair], events[pair])
        with open(out / "smd.csv") as fh:
            top = next(csv.DictReader(fh))["feature"]
        assert summary == {
            "clusters": "3",
            "sizes": " ".join(f"{g}:{np.count_nonzero(labels == g)}" for g in ids),
            "chi_square": repr(stat),
            "p_value": repr(p),
            "top_feature": top,
        }

    def test_siamese_stratify_runs_view_one_only(self, workspace, tmp_path, monkeypatch):
        """With ``routing_view`` 1 the labels and the latents both come from
        view 1: view 2's encoder never runs, and every file has the bytes the
        full two-view forward gives."""
        config = base_config(workspace / "schema.json", siamese=True, heads="per-cluster",
                             n_clusters=3)
        (tmp_path / "siamese.json").write_text(json.dumps(config))
        data = str(workspace / "toy.csv")
        assert main(["train", "--config", str(tmp_path / "siamese.json"), "--data", data,
                     "--out", str(tmp_path / "run")]) == 0
        checkpoint = str(tmp_path / "run" / "checkpoint.json")
        ck = load_checkpoint(checkpoint)
        X = apply_transforms(load_csv(data, Schema.from_file(str(workspace / "schema.json"))),
                             ck.transforms)[0]
        both_views = {"labels": trainer.predict(ck.state, X)["labels"],
                      "latents": ck.state.model.latents(X, view=1)}

        def stratify(out):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["stratify", "--checkpoint", checkpoint, "--data", data,
                             "--out", str(out)]) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}

        with monkeypatch.context() as patch:
            patch.setattr(trainer, "encode", lambda state, X: both_views)
            want = stratify(tmp_path / "both")
        encode = Model.encode

        def view_one_only(self, x, view=1, **kwargs):
            assert view == 1, "stratify ran view 2's encoder"
            return encode(self, x, view=view, **kwargs)

        monkeypatch.setattr(Model, "encode", view_one_only)
        assert stratify(tmp_path / "one") == want

    def test_latents_are_written_in_bounded_memory(self, workspace, tmp_path):
        """20k rows of 16 latents: the at-once ``tolist`` of every latent
        held about 4x the latent matrix as Python floats on top of it."""
        config = base_config(workspace / "schema.json", latent_dim=16)
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(tmp_path / "config.json"),
                     "--data", str(workspace / "toy.csv"), "--out", str(tmp_path / "run")]) == 0
        n = 20000
        write_toy_dataset(tmp_path / "big.csv", n=n, seed=5)
        argv = ["stratify", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                "--data", str(tmp_path / "big.csv"), "--out", str(tmp_path / "strat")]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        latents_nbytes = n * 16 * 8
        assert peak <= 4 * latents_nbytes


def rows_text(header, rows):
    return "".join(",".join(map(str, row)) + "\n" for row in [header] + rows)


class TestOutputBytes:
    """The written CSVs against a per-row ``repr`` reference writer."""

    def test_files_match_row_writer(self, workspace, tmp_path):
        checkpoint = str(workspace / "run" / "checkpoint.json")
        data = str(workspace / "toy.csv")
        assert main(["evaluate", "--checkpoint", checkpoint, "--data", data,
                     "--curves", str(tmp_path / "curves.csv")]) == 0
        assert main(["stratify", "--checkpoint", checkpoint, "--data", data,
                     "--out", str(tmp_path / "strat")]) == 0
        ck = load_checkpoint(checkpoint)
        table = load_csv(data, Schema.from_file(str(workspace / "schema.json")))
        X = apply_transforms(table, ck.transforms)[0]
        pred, enc = trainer.predict(ck.state, X), trainer.encode(ck.state, X)
        latents, labels = enc["latents"], enc["labels"]
        assert np.array_equal(labels, pred["labels"])
        d = latents.shape[1]

        header = ["index"] + [f"z{k}" for k in range(d)] + ["cluster", "time", "event"]
        rows = [
            [i] + [repr(float(v)) for v in latents[i]]
            + [int(labels[i]), repr(float(table.time[i])), int(table.event[i])]
            for i in range(latents.shape[0])
        ]
        written = (tmp_path / "strat" / "latents.csv").read_text()
        assert written == rows_text(header, rows)
        with open(tmp_path / "strat" / "latents.csv") as fh:
            parsed = [[float(r[f"z{k}"]) for k in range(d)] for r in csv.DictReader(fh)]
        assert np.array_equal(np.asarray(parsed), latents)

        rows = []
        for g in np.unique(labels):
            curve = kaplan_meier(table.time[labels == g], table.event[labels == g])
            rows.append([int(g), "0.0", "1.0"])
            rows += [[int(g), repr(float(t)), repr(float(s))]
                     for t, s in zip(curve.times, curve.probs)]
        written = (tmp_path / "strat" / "km_clusters.csv").read_text()
        assert written == rows_text(["cluster", "time", "survival"], rows)

        ts = np.linspace(0.0, ck.state.grid.horizon, 101)
        rows = []
        for g in np.unique(labels):
            mean = interpolate_curve(pred["survival"][labels == g].mean(axis=0), ck.state.grid, ts)
            rows += [[repr(float(t)), repr(float(s)), int(g)] for t, s in zip(ts, mean)]
        written = (tmp_path / "curves.csv").read_text()
        assert written == rows_text(["time", "survival", "group"], rows)

    def test_row_blocks_match_row_writer(self, workspace, tmp_path, monkeypatch):
        # 150 rows encoded in chunks of 7 and written in blocks of 21 values: 3 rows
        # of latents.csv and 7 of the curve files, each with a short last block
        monkeypatch.setattr(trainer, "CHUNK_ROWS", 7)
        monkeypatch.setattr(floatfmt, "BLOCK_VALUES", 21)
        self.test_files_match_row_writer(workspace, tmp_path)


def scoring_outputs(checkpoint, data, out):
    """The report and every file that ``evaluate --curves`` and ``stratify``
    write for one data file, by name."""
    got = {}
    for name, argv in (("evaluate", ["evaluate", "--curves", str(out / "curves.csv")]),
                       ("stratify", ["stratify", "--out", str(out / "strat")])):
        with contextlib.redirect_stdout(io.StringIO()) as report:
            assert main([*argv, "--checkpoint", checkpoint, "--data", str(data)]) == 0
        got[name] = report.getvalue()
    for path in [out / "curves.csv", *sorted((out / "strat").iterdir())]:
        got[path.name] = path.read_bytes()
    return got


class TestScoringInvariance:
    """What a row scores does not depend on where its columns stand in the
    file or on the rows scored with it."""

    @pytest.mark.parametrize("order", [[4, 3, 2, 1, 0], [2, 4, 0, 3, 1]])
    def test_column_order_leaves_every_output_unchanged(self, workspace, tmp_path, order):
        checkpoint = str(workspace / "run" / "checkpoint.json")
        lines = (workspace / "toy.csv").read_text().splitlines()
        moved = [",".join(np.array(line.split(","))[order]) for line in lines]
        # the report names the file's stem, so the moved file keeps it
        (tmp_path / "moved").mkdir()
        (tmp_path / "moved" / "toy.csv").write_text("\n".join(moved) + "\n")
        (tmp_path / "a").mkdir()
        want = scoring_outputs(checkpoint, workspace / "toy.csv", tmp_path / "a")
        got = scoring_outputs(checkpoint, tmp_path / "moved" / "toy.csv", tmp_path / "moved")
        assert got == want

    def test_appended_row_leaves_the_latents_of_the_others_unchanged(self, workspace, tmp_path):
        # 4,097 rows end in a one-row chunk, 4,098 rows in a two-row chunk
        rows = trainer.CHUNK_ROWS + 1
        write_toy_dataset(tmp_path / "longer.csv", n=rows + 1, seed=5)
        lines = (tmp_path / "longer.csv").read_text().splitlines(keepends=True)
        (tmp_path / "file.csv").write_text("".join(lines[:rows + 1]))
        latents = []
        for name in ("file", "longer"):
            assert main(["stratify", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                         "--data", str(tmp_path / f"{name}.csv"),
                         "--out", str(tmp_path / name)]) == 0
            latents.append((tmp_path / name / "latents.csv").read_text().splitlines())
        assert len(latents[0]) == rows + 1
        assert latents[1][:rows + 1] == latents[0]


# floats whose shortest repr takes every form: signed zero, subnormal,
# exponent and positional notation
SPECIAL_FLOATS = [-0.0, 5e-324, 1e-05, 0.1, 1.0, 1e16, 1e300]

class TestLatentsAcrossProcesses:
    """``latents.csv`` formatted in blocks of rows in the command's own
    process: the bytes never depend on where the blocks end or on how many
    cores the process may use, and no child process is started."""

    @pytest.fixture
    def special(self, workspace, tmp_path, monkeypatch):
        """``(argv, expected latents.csv)`` of a stratify whose latents and
        times hold ``SPECIAL_FLOATS``."""
        n = 150
        rng = np.random.default_rng(3)
        times = np.resize([v for v in SPECIAL_FLOATS if v > 0], n)
        events = np.arange(n) % 3 % 2
        x = rng.normal(size=(n, 3))
        (tmp_path / "special.csv").write_text(rows_text(
            ["duration", "event", "f0", "f1", "f2"],
            [[repr(t), ev, *map(repr, row)] for t, ev, row in zip(times.tolist(), events, x.tolist())]))
        latents = np.resize(SPECIAL_FLOATS + [-v for v in SPECIAL_FLOATS], (n, 3))
        labels = np.arange(n) % 2
        monkeypatch.setattr(trainer, "encode",
                            lambda state, X: {"labels": labels, "latents": latents})
        rows = [[i, *map(repr, z), label, repr(t), ev] for i, (z, label, t, ev) in
                enumerate(zip(latents.tolist(), labels.tolist(), times.tolist(), events.tolist()))]
        expected = rows_text(["index", "z0", "z1", "z2", "cluster", "time", "event"], rows)
        argv = ["stratify", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                "--data", str(tmp_path / "special.csv"), "--out", str(tmp_path / "strat")]
        return argv, expected

    @pytest.mark.parametrize("block_rows", [11, 37, 149])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_bytes_at_every_worker_count(self, special, tmp_path, monkeypatch,
                                         cpus, block_rows):
        """Blocks of 11 rows leave a last block of 7 rows, 37 one of 2 and 149
        one of 1; each row has 7 fields. The process sees ``cpus`` cores and
        may not start a child."""
        def no_child(*args, **kwargs):
            raise AssertionError("stratify started a child process")

        monkeypatch.setattr(subprocess, "Popen", no_child)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(trainer, "CHUNK_ROWS", block_rows)
        monkeypatch.setattr(floatfmt, "BLOCK_VALUES", 7 * block_rows)
        argv, expected = special
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert (tmp_path / "strat" / "latents.csv").read_text() == expected


class TestFuzzedCsv:
    @settings(max_examples=100, deadline=None)
    @given(case=survival_csvs(time="duration", event="event", n_features=3))
    def test_evaluate_exits_with_a_code(self, workspace, case):
        """A malformed CSV exits 2 (data) or 1 (usage) with a one-line
        message; any CSV exits with a documented code, never a traceback,
        and no numpy RuntimeWarning escapes."""
        path = workspace / "fuzzed.csv"
        path.write_text(case[0])
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            # dropped rows warn; every warning is recorded
            warnings.simplefilter("always")
            try:
                load_csv_rows(str(path), Schema.from_file(str(workspace / "schema.json")))
                malformed = False
            except DataError:
                malformed = True
            rc = main(["evaluate", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                       "--data", str(path)])
        assert rc in ((1, 2) if malformed else (0, 1, 2, 3))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if rc:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1


def write_split_file(path, test_tokens):
    """One split line: the first 90 rows train, the next 30 validate, and
    ``test_tokens`` (raw strings) as the test role."""
    path.write_text(
        "train:" + ",".join(map(str, range(90))) + " val:"
        + ",".join(map(str, range(90, 120))) + " test:" + ",".join(test_tokens) + "\n"
    )
    return path


class TestSplitFiles:
    """A malformed split file exits 2 with one line naming file, role and token."""

    def evaluate(self, workspace, splits, capsys):
        rc = main(["evaluate", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                   "--data", str(workspace / "toy.csv"), "--splits-file", str(splits),
                   "--role", "test"])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return rc, err

    def test_non_integer_token(self, workspace, tmp_path, capsys):
        splits = write_split_file(tmp_path / "s.txt", ["4", "x"])
        rc, err = self.evaluate(workspace, splits, capsys)
        assert rc == 2
        assert str(splits) in err and "test index 'x' is not an integer" in err

    def test_index_beyond_the_data(self, workspace, tmp_path, capsys):
        splits = write_split_file(tmp_path / "s.txt", ["4", "999999"])
        rc, err = self.evaluate(workspace, splits, capsys)
        assert rc == 2
        assert "test index 999999 is outside [0, 150)" in err

    def test_negative_index(self, workspace, tmp_path, capsys):
        splits = write_split_file(tmp_path / "s.txt", ["-1", "-2", "-3"])
        rc, err = self.evaluate(workspace, splits, capsys)
        assert rc == 2
        assert "test index -1 is outside [0, 150)" in err

    @pytest.mark.parametrize("heads", ["shared", "per-cluster"])
    def test_empty_role_has_no_comparable_pairs(self, workspace, tmp_path, capsys, heads):
        """Zero rows to score exit 2, also where per-cluster heads route them."""
        if heads == "shared":
            checkpoint, data, n = workspace / "run" / "checkpoint.json", workspace / "toy.csv", 150
        else:
            checkpoint, data, n = FORMAT1_CHECKPOINT, FORMAT1_CSV, 60
        splits = tmp_path / "s.txt"
        splits.write_text("train:" + ",".join(map(str, range(n - 10))) + " val:"
                          + ",".join(map(str, range(n - 10, n))) + " test:\n")
        rc = main(["evaluate", "--checkpoint", str(checkpoint), "--data", str(data),
                   "--splits-file", str(splits), "--role", "test"])
        assert rc == 2
        assert capsys.readouterr().err == "error: concordance undefined: no comparable pairs\n"

    def test_train_rejects_an_index_beyond_the_data(self, workspace, tmp_path, capsys):
        splits = write_split_file(tmp_path / "s.txt", [str(i) for i in range(120, 150)] + ["150"])
        rc = main(["train", "--config", str(workspace / "config.json"),
                   "--data", str(workspace / "toy.csv"), "--splits-file", str(splits),
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2 and err.count("\n") == 1
        assert "test index 150 is outside [0, 150)" in err
        assert not (tmp_path / "o").exists()

    def test_saved_bytes_unchanged(self, tmp_path):
        split_set = make_splits(1000, seed=4)
        save_splits(split_set, str(tmp_path / "splits.txt"))
        # the per-scalar writer this file format was defined by
        lines = [f"# seed {split_set.seed}\n"] + [
            " ".join(role + ":" + ",".join(str(int(i)) for i in sp[role])
                     for role in ("train", "val", "test")) + "\n"
            for sp in split_set.splits
        ]
        assert (tmp_path / "splits.txt").read_text() == "".join(lines)


class TestParserBuiltOnce:
    """``main`` parses with one parser per process; calls share no state."""

    def run(self, workspace, cwd, capsys, monkeypatch, fresh):
        """Six commands in a row from ``cwd``: (exit code, stdout, stderr) of
        each and the bytes of every file they wrote. With ``fresh`` set, the
        parser is built anew for each command."""
        ck, data = str(workspace / "run" / "checkpoint.json"), str(workspace / "toy.csv")
        split = ["evaluate", "--checkpoint", ck, "--data", data, "--split", "2", "--role", "val"]
        commands = [
            ["train", "--config", str(workspace / "config.json"), "--data", data, "--out", "run"],
            split,
            ["evaluate", "--checkpoint", ck, "--data", data],
            ["stratify", "--checkpoint", ck, "--data", data, "--out", "strat"],
            # sets --curves and --out before the bad --role stops the parse
            ["evaluate", "--checkpoint", ck, "--data", data, "--curves", "leak.csv",
             "--out", "leak", "--role", "nope"],
            split,
        ]
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        outputs = []
        for argv in commands:
            if fresh:
                build_parser.cache_clear()
            rc = main(argv)
            captured = capsys.readouterr()
            outputs.append((rc, captured.out, captured.err))
        files = {str(p.relative_to(cwd)): p.read_bytes()
                 for p in sorted(cwd.rglob("*")) if p.is_file()}
        return outputs, files

    def test_repeated_calls_match_a_fresh_parser_each(self, workspace, tmp_path, capsys,
                                                      monkeypatch):
        build_parser.cache_clear()
        shared, shared_files = self.run(workspace, tmp_path / "shared", capsys, monkeypatch,
                                        fresh=False)
        fresh, fresh_files = self.run(workspace, tmp_path / "fresh", capsys, monkeypatch,
                                      fresh=True)
        assert shared == fresh
        assert shared_files == fresh_files
        assert [rc for rc, _, _ in shared] == [0, 0, 0, 0, 1, 0]
        rc, out, err = shared[4]
        assert out == "" and err.startswith("error: argument --role: invalid choice: 'nope'")
        assert err.count("\n") == 1
        # the evaluate after the usage error neither writes the curves nor
        # metrics.txt the failed parse had named, and prints what it did before
        assert shared[5] == shared[1]
        assert not any(f.startswith("leak") for f in shared_files)
        assert {"run/checkpoint.json", "strat/latents.csv"} <= set(shared_files)


FIXTURES = pathlib.Path(__file__).parent / "fixtures"
# a Siamese per-cluster model (2 clusters, 2 latent dimensions) saved in
# checkpoint format 1 (nested JSON lists), trained on the CSV next to it
FORMAT1_CHECKPOINT = FIXTURES / "format1_siamese.json"
FORMAT1_CSV = FIXTURES / "format1_siamese.csv"


@pytest.fixture(scope="module")
def current_checkpoint(tmp_path_factory):
    """The format-1 fixture's model re-saved in the current format."""
    ck = load_checkpoint(str(FORMAT1_CHECKPOINT))
    path = tmp_path_factory.mktemp("current") / "checkpoint.json"
    save_checkpoint(ck.state, str(path), ck.transforms)
    return path


class TestCheckpointFormats:
    def score(self, checkpoint, out, data=FORMAT1_CSV):
        assert main(["evaluate", "--checkpoint", str(checkpoint), "--data", str(data),
                     "--curves", str(out / "curves.csv"), "--out", str(out / "eval")]) == 0
        assert main(["stratify", "--checkpoint", str(checkpoint), "--data", str(data),
                     "--out", str(out / "strat")]) == 0
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    def test_scores_from_a_sibling_directory(self, tmp_path, monkeypatch, capsys):
        """A run trained with a relative ``schema_file`` scores the same from
        another directory: its checkpoint names the time and event columns."""
        a, b = tmp_path / "a", tmp_path / "b"
        b.mkdir()
        a.mkdir()
        write_toy_dataset(a / "toy.csv")
        write_schema(a / "schema.json")
        (a / "config.json").write_text(json.dumps(base_config("schema.json")))
        monkeypatch.chdir(a)
        assert main(["train", "--config", "config.json", "--data", "toy.csv", "--out", "run"]) == 0
        capsys.readouterr()
        scored = []
        for where, run in [(a, ""), (b, "../a/")]:
            monkeypatch.chdir(where)
            files = self.score(run + "run/checkpoint.json", where / "scored", run + "toy.csv")
            scored.append((files, capsys.readouterr().out))
        assert len(scored[0][0]) == 6 and "c_index: " in scored[0][1]
        assert scored[0] == scored[1]

    def test_a_checkpoint_without_columns_gives_identical_outputs(self, workspace, tmp_path):
        """A file as written before the columns were stored, with the copies
        of the config and the transforms, scores the same as the current one."""
        current = workspace / "run" / "checkpoint.json"
        payload = json.loads(current.read_text())
        assert payload.pop("columns") == {"time": "duration", "event": "event"}
        for entry in payload["clusters"]:
            entry.update(algorithm=payload["config"]["clustering"], nu=payload["config"]["nu"])
        payload["feature_names"] = column_names(payload["transforms"])
        older = tmp_path / "older.json"
        older.write_text(json.dumps(payload))
        (tmp_path / "current").mkdir()
        (tmp_path / "older").mkdir()
        assert (self.score(current, tmp_path / "current", workspace / "toy.csv")
                == self.score(older, tmp_path / "older", workspace / "toy.csv"))

    @pytest.mark.parametrize("columns", [{"time": 1, "event": "event"}, "duration"])
    def test_malformed_columns_exit_1_naming_the_field(self, workspace, tmp_path, capsys, columns):
        payload = json.loads((workspace / "run" / "checkpoint.json").read_text())
        payload["columns"] = columns
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(payload))
        rc = main(["evaluate", "--checkpoint", str(path), "--data", str(workspace / "toy.csv")])
        assert rc == 1
        assert capsys.readouterr().err == ("error: checkpoint field 'columns' must map 'time' "
                                           "and 'event' to column names\n")

    def version_two(self, current_checkpoint, path, **old_fields):
        """The current file as format 2 wrote it, with the training assignments
        and stage of the format-1 fixture unless ``old_fields`` replace them."""
        older = json.loads(FORMAT1_CHECKPOINT.read_text())
        payload = json.loads(current_checkpoint.read_text())
        payload.update({"version": 2, "stage": older["stage"],
                        "assignments": [_blob(np.array(a), "int64") for a in older["assignments"]],
                        **old_fields})
        path.write_text(json.dumps(payload))
        return path

    def test_format_one_and_two_give_identical_outputs(self, current_checkpoint, tmp_path):
        assert json.loads(FORMAT1_CHECKPOINT.read_text())["version"] == 1
        assert json.loads(current_checkpoint.read_text())["version"] == 3
        v2 = self.version_two(current_checkpoint, tmp_path / "v2.json")
        outputs = []
        for version, path in [(1, FORMAT1_CHECKPOINT), (2, v2), (3, current_checkpoint)]:
            (tmp_path / f"v{version}").mkdir()
            outputs.append(self.score(path, tmp_path / f"v{version}"))
        assert len(outputs[0]) == 6
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("old_fields", [
        {"stage": "3"},
        {"assignments": "abc"},
        {"assignments": []},
        {"assignments": [[5, -1]], "stage": None},
        {"assignments": [{"dtype": "int64", "shape": [1], "data": "!"}, None]},
    ], ids=["stage-string", "assignments-string", "assignments-empty", "assignments-out-of-range",
            "assignments-bad-blob"])
    def test_malformed_format_two_training_fields_are_ignored(self, current_checkpoint, tmp_path,
                                                              old_fields):
        """Format 3 reads no training assignments or stage, so a format-2
        file's, even malformed, change no output byte."""
        v2 = self.version_two(current_checkpoint, tmp_path / "v2.json", **old_fields)
        (tmp_path / "v2").mkdir()
        (tmp_path / "v3").mkdir()
        assert self.score(v2, tmp_path / "v2") == self.score(current_checkpoint, tmp_path / "v3")

    def test_a_later_format_exits_1_with_one_line(self, current_checkpoint, tmp_path, capsys):
        payload = {**json.loads(current_checkpoint.read_text()), "version": 4}
        path = tmp_path / "v4.json"
        path.write_text(json.dumps(payload))
        rc = main(["evaluate", "--checkpoint", str(path), "--data", str(FORMAT1_CSV)])
        assert rc == 1
        assert capsys.readouterr().err == ("error: checkpoint format version 4 is not supported "
                                           "(expected one of 1, 2, 3)\n")


def test_cli_import_leaves_out_the_process_pool():
    """Only ``hpo`` runs a process pool and no command starts a child
    process, so importing the CLI loads neither module."""
    code = ("import sys, survstrat.cli; "
            "print('concurrent.futures.process' in sys.modules or 'subprocess' in sys.modules)")
    src = str(pathlib.Path(trainer.__file__).parents[1])
    # -B: the stripped environment drops a caller's PYTHONDONTWRITEBYTECODE
    out = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "False"


# runs each command line of argv[1] through ``main`` under a 3 GB address-space
# limit and prints, per line, its exit code (or the exception that escaped) and stderr
_CAPPED_RUNNER = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from survstrat.cli import main
results = []
for argv in json.load(open(sys.argv[1])):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except BaseException as exc:
            code = type(exc).__name__
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""

OVERSIZED = {
    "latent_dim_1e30": {"latent_dim": 10**30},
    "latent_dim_1e8": {"latent_dim": 10**8},
    "n_bins_1e30": {"n_bins": 10**30},
    "encoder_hidden_1e30": {"encoder_hidden": [10**30]},
    "head_hidden_1e30": {"head_hidden": [10**30]},
    # a count too long for Python to print
    "latent_dim_and_encoder_hidden_1e2200": {"latent_dim": 10**2200, "encoder_hidden": [10**2200]},
}


def test_oversized_models_exit_1_one_line_before_allocating(workspace, tmp_path):
    """A size no host could hold, in a config or a checkpoint's config, is one
    error line and exit 1 from train, evaluate and stratify; the cases run in a
    child whose address space is capped, so a missed bound cannot exhaust the host."""
    payload = json.loads((workspace / "run" / "checkpoint.json").read_text())
    data = str(workspace / "toy.csv")
    cases = {}
    for name, sizes in OVERSIZED.items():
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(base_config(workspace / "schema.json", **sizes)))
        cases[f"train {name}"] = ["train", "--config", str(config), "--data", data,
                                  "--out", str(tmp_path / name)]
    per_cluster = {"per_cluster_n_clusters_1e30": {"heads": "per-cluster", "n_clusters": 10**30}}
    for name, sizes in {**OVERSIZED, **per_cluster}.items():
        checkpoint = tmp_path / f"{name}.checkpoint.json"
        checkpoint.write_text(json.dumps({**payload, "config": {**payload["config"], **sizes}}))
        cases[f"evaluate {name}"] = ["evaluate", "--checkpoint", str(checkpoint), "--data", data]
        cases[f"stratify {name}"] = ["stratify", "--checkpoint", str(checkpoint), "--data", data,
                                     "--out", str(tmp_path / f"strat_{name}")]
    argvs = tmp_path / "argvs.json"
    argvs.write_text(json.dumps(list(cases.values())))
    src = str(pathlib.Path(trainer.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-B", "-c", _CAPPED_RUNNER, str(argvs)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    results = dict(zip(cases, json.loads(out.stdout)))
    bad = {case: r for case, r in results.items()
           if r[0] != 1 or not (r[1].startswith("error: ") and r[1].count("\n") == 1)}
    assert bad == {}


ARRAY_MUTATIONS = ("wrong_type", "ragged", "wrong_length", "non_numeric",
                   "bad_base64", "truncated", "unknown_dtype")


def _as_array(value):
    if isinstance(value, dict):
        raw = base64.b64decode(value["data"])
        return np.frombuffer(raw, dtype=value["dtype"]).reshape(value["shape"])
    return np.array(value)


def _blob(arr, dtype, raw=None):
    raw = arr.astype(dtype).tobytes() if raw is None else raw
    return {"dtype": dtype, "shape": list(arr.shape),
            "data": base64.b64encode(raw).decode("ascii")}


@st.composite
def mutated_array(draw, value, dtype):
    """``value`` (a format-1 list or format-2 blob) broken in one way."""
    arr = _as_array(value)
    as_blob = isinstance(value, dict)
    kind = draw(st.sampled_from(ARRAY_MUTATIONS))
    if kind == "wrong_type":
        return draw(st.sampled_from(["abc", 3.5, None, True, {"dtype": dtype}]))
    if kind == "ragged":
        return [arr.tolist(), 0.0]
    if kind == "wrong_length":
        arr = arr[:-1] if draw(st.booleans()) else np.concatenate([arr, arr[-1:]])
        return _blob(arr, dtype) if as_blob else arr.tolist()
    if kind == "non_numeric":
        bad = draw(st.sampled_from(["x", None, "1.0"] + (["0.5"] if dtype == "float64" else [0.5])))
        cells = arr.astype(object)
        cells.flat[draw(st.integers(0, arr.size - 1))] = bad
        return cells.tolist()
    blob = _blob(arr, dtype)
    if kind == "bad_base64":
        data = blob["data"]
        at = draw(st.integers(0, len(data) - 1))
        blob["data"] = data[:at] + draw(st.sampled_from(["!", "*", " ", "é", ""])) + data[at + 1:]
    elif kind == "truncated":
        raw = arr.astype(dtype).tobytes()
        blob = _blob(arr, dtype, raw[:-draw(st.integers(1, 8))])
    else:
        blob["dtype"] = draw(st.sampled_from(
            ["float32", "int32", "complex128", "<f8", "float", None]
            + ["int64" if dtype == "float64" else "float64"]))
    return blob


@st.composite
def broken_transform(draw, entry):
    """A numeric column's preprocessing ``entry`` broken in one way."""
    kind = draw(st.sampled_from(["not_an_object", "bad_kind", "bad_stat", "bad_categories"]))
    if kind == "not_an_object":
        return draw(st.sampled_from([5, "numeric", None, [], ["numeric"]]))
    entry = dict(entry)
    if kind == "bad_kind":
        return {**entry, "kind": draw(st.sampled_from(["ordinal", None, 1, "Numeric"]))}
    if kind == "bad_stat":
        stat = draw(st.sampled_from(["mean", "std", "median"]))
        bad = [None, "1.0", True, [1.0], float("nan"), float("inf"), -float("inf"), 10 ** 400]
        bad += [0.0, 0, -1.0] if stat == "std" else []
        if draw(st.booleans()):
            del entry[stat]
        else:
            entry[stat] = draw(st.sampled_from(bad))
        return entry
    entry = {"kind": "categorical"}
    if draw(st.booleans()):
        entry["categories"] = draw(st.sampled_from(["a", None, ["a", 1], [None], {"a": 1}]))
    return entry


@st.composite
def broken_payloads(draw, payload):
    """``payload`` (a parsed checkpoint) with one array field or one
    column's transform broken."""
    field = draw(st.sampled_from(["state", "centers", "grid_edges", "train_times",
                                  "train_events", "transforms"]))
    if field == "transforms":
        col = draw(st.sampled_from(sorted(payload["transforms"])))
        payload["transforms"][col] = draw(broken_transform(payload["transforms"][col]))
        return payload
    if field == "state":
        holder, key = payload["state"], draw(st.sampled_from(sorted(payload["state"])))
    elif field == "centers":
        holder, key = draw(st.sampled_from(payload["clusters"])), "centers"
    else:
        holder, key = payload, field
    dtype = "int64" if field == "train_events" else "float64"
    holder[key] = draw(mutated_array(holder[key], dtype))
    return payload


class TestMalformedCheckpoints:
    @pytest.mark.parametrize("command", ["evaluate", "stratify"])
    @pytest.mark.parametrize("views", ["none", "one_of_two"])
    def test_cluster_state_of_each_view_required(self, current_checkpoint, tmp_path, capsys,
                                                 command, views):
        """A Siamese checkpoint needs one cluster entry per view, also where
        routing reads view 2."""
        payload = json.loads(current_checkpoint.read_text())
        keep = 0 if views == "none" else 1
        payload["config"]["routing_view"] = 2
        del payload["clusters"][keep:]
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(payload))
        rc = main([command, "--checkpoint", str(path), "--data", str(FORMAT1_CSV),
                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1
        assert err == "error: checkpoint field 'clusters' must be a list of one entry per view (2)\n"

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_evaluate_exits_1_with_one_line(self, current_checkpoint, tmp_path_factory, data):
        """Every broken array or transform in a format-1 or format-3
        checkpoint is a configuration error: exit 1 and one ``error:`` line,
        no traceback."""
        source = data.draw(st.sampled_from([FORMAT1_CHECKPOINT, current_checkpoint]))
        payload = data.draw(broken_payloads(json.loads(source.read_text())))
        path = tmp_path_factory.getbasetemp() / "mutated.json"
        path.write_text(json.dumps(payload))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["evaluate", "--checkpoint", str(path), "--data", str(FORMAT1_CSV)])
        assert rc == 1
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
