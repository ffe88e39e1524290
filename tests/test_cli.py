"""Command surface: determinism, exit codes, rank-sum search, stratification."""

import contextlib
import csv
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from survstrat.cli import (
    average_ranks,
    format_report,
    load_search_space,
    main,
    rank_leaderboard,
    sample_trials,
    standardized_mean_differences,
)
from survstrat import trainer
from survstrat.checkpoint import load_checkpoint
from survstrat.data import Schema, apply_transforms, load_csv
from survstrat.errors import ConfigurationError, DataError, NumericError
from survstrat.metrics import interpolate_curve, kaplan_meier

from csvgen import survival_csvs
from oracles import load_csv_rows


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
        ]
        for payload, match in cases:
            path = tmp_path / "space.json"
            path.write_text(json.dumps(payload))
            with pytest.raises(ConfigurationError, match=match):
                load_search_space(str(path))


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
        ck = json.load(open(workspace / "run" / "checkpoint.json"))
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
        trials = json.load(open(tmp_path / "hpo" / "trials.json"))
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
        trials = json.load(open(tmp_path / "hpo" / "trials.json"))
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
        trials = json.load(open(tmp_path / "hpo" / "trials.json"))
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

    def test_winner_reproduces_through_train(self, workspace, tmp_path):
        rc = main([
            "hpo", "--space", str(self.space_file(tmp_path, workspace)), "--budget", "1",
            "--seed", "5", "--data", str(workspace / "toy.csv"),
            "--out", str(tmp_path / "hpo"),
        ])
        assert rc == 0
        trials = json.load(open(tmp_path / "hpo" / "trials.json"))
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
        pred = trainer.predict(ck.state, apply_transforms(table, ck.transforms)[0])
        latents, labels = pred["latents"], pred["labels"]
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
