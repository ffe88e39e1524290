"""Executable acceptance gate: one reported line per criterion.

The terminal summary (see conftest) prints PASS/FAIL/SKIP per criterion.
Benchmark criteria need the public dataset CSVs under data/ (duration,
event, x0..xp columns); they skip when the files are absent because the
build environment has no network access. Drop the files in to activate.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import check_gradients
from gradcases import ALL_CASES
from oracles import cindex_bruteforce, ibs_direct, km_scan, reg_upper_gamma_half

from survstrat import data as data_mod
from survstrat import trainer
from survstrat.cli import _fit_one_split, main
from survstrat.config import ExperimentConfig, LossWeights
from survstrat.errors import ConfigurationError
from survstrat.losses import (
    loss_ivcg,
    loss_ivcw,
    loss_iviw,
    loss_kld,
)
from survstrat.metrics import (
    build_time_grid,
    concordance_index,
    integrated_brier_score,
    kaplan_meier,
    log_rank_test,
)
from survstrat.tensor import Tensor

ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = ROOT / "data"
CONFIG_DIR = ROOT / "configs"


def scalar(t):
    return float(t.values[0, 0])


def require_dataset(name):
    path = DATA_DIR / f"{name}.csv"
    if not path.exists():
        pytest.skip(
            f"{name} dataset CSV not present at {path} "
            "(build environment has no network access)"
        )
    return path


def test_criterion_1_gradient_suite():
    """Autodiff vs central differences (h=1e-5), rel err <= 1e-4,
    >= 10 seeded instances per loss, under one minute."""
    started = time.monotonic()
    for name, builder in ALL_CASES:
        for seed in range(10):
            build_loss, leaves = builder(seed)
            check_gradients(build_loss, leaves, tol=1e-4)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_2_loss_value_oracles():
    """Hand-derived loss constants reproduce to 1e-5."""
    tol = 1e-5
    # KLD at mu=0, sigma=2: 0.5 * (4 - 1 - ln 4)
    kld, _ = loss_kld(Tensor(np.zeros((1, 1))), Tensor(np.full((1, 1), np.log(4.0))))
    assert scalar(kld) == pytest.approx(0.80685, abs=tol)
    # IVCG three-point case: -log(e / (2e + 1))
    z = Tensor(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]]))
    out = loss_ivcg(z, np.array([0, 1, 1]), np.array([0, 0, 1]), tau=1.0)
    assert scalar(out) == pytest.approx(0.86199, abs=tol)
    # IVIW on orthogonal unit pairs
    out = loss_iviw(Tensor(np.eye(2)), Tensor(np.eye(2)), tau=1.0)
    assert scalar(out) == pytest.approx(0.62652, abs=tol)
    # IVCW on orthogonal soft-assignment columns
    q = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    assert scalar(loss_ivcw(q, q, tau=1.0)) == pytest.approx(0.62652, abs=tol)
    # self-paced threshold on {1,2,3} at the final epoch: mean + population std
    assert trainer.spl_threshold([1.0, 2.0, 3.0], 5, 5) == pytest.approx(
        2.81650, abs=tol
    )


def test_criterion_3_metric_oracles():
    """C-index exact vs brute force on 100 instances; IBS vs direct
    summation to 1e-10; KM and log-rank vs hand tables."""
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(3, 51))
        times = rng.exponential(5.0, size=n) + 0.01
        events = rng.integers(0, 2, size=n)
        events[rng.integers(n)] = 1
        risk = rng.normal(size=n)
        if trial % 3 == 0:
            risk = np.round(risk, 1)
        if np.all(times[events == 1] >= times.max()):
            events[np.argmin(times)] = 1
        got = concordance_index(risk, times, events)
        want = cindex_bruteforce(risk, times, events)
        assert got == want, f"instance {trial}: {got} != {want}"

    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        n = 30
        times = rng.exponential(5.0, size=n) + 0.05
        events = rng.integers(0, 2, size=n)
        events[:3] = 1
        grid = build_time_grid(times, events, 4)
        raw = np.sort(rng.random((n, 4)), axis=1)[:, ::-1]
        censor_times = rng.exponential(5.0, size=50) + 0.05
        censor_events = rng.integers(0, 2, size=50)
        got = integrated_brier_score(
            raw, grid, times, events, censor_times, censor_events
        )
        want = ibs_direct(raw, grid, times, events, censor_times, censor_events)
        assert got == pytest.approx(want, abs=1e-10)

    # product-limit hand table: event, censored, event
    curve = kaplan_meier([1.0, 2.0, 3.0], [1, 0, 1])
    assert curve.evaluate(np.array([1.0]))[0] == pytest.approx(2.0 / 3.0)
    assert curve.evaluate(np.array([2.0]))[0] == pytest.approx(2.0 / 3.0)
    assert curve.evaluate(np.array([3.0]))[0] == pytest.approx(0.0)
    rng = np.random.default_rng(3)
    times = rng.exponential(3.0, size=25) + 0.01
    events = rng.integers(0, 2, size=25)
    curve = kaplan_meier(times, events)
    for q in (0.5, 1.0, 2.5, 7.0):
        assert curve.evaluate(np.array([q]))[0] == pytest.approx(
            km_scan(times, events, q), abs=1e-12
        )

    # identical groups cannot differ
    times = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
    events = np.array([1, 1, 0, 1, 1, 0])
    stat, p = log_rank_test([0, 0, 0, 1, 1, 1], times, events)
    assert stat == pytest.approx(0.0, abs=1e-12)
    assert p == pytest.approx(1.0)
    # disjoint early/late groups against the closed-form O-E table
    t_a = np.arange(1.0, 21.0)
    t_b = np.arange(101.0, 121.0)
    labels = np.array([0] * 20 + [1] * 20)
    times = np.concatenate([t_a, t_b])
    events = np.ones(40, dtype=int)
    stat, p = log_rank_test(labels, times, events)
    expected_e = sum((20.0 - k) / (40.0 - k) for k in range(20))
    variance = sum(
        ((20.0 - k) / (40.0 - k)) * (1.0 - (20.0 - k) / (40.0 - k))
        for k in range(20)
    )
    want = (20.0 - expected_e) ** 2 / variance
    assert stat == pytest.approx(want, rel=1e-12)
    assert p == pytest.approx(reg_upper_gamma_half(stat / 2.0), abs=1e-10)
    # chi-square 3.841 at 1 df sits at p = 0.05
    _, p = log_rank_test([0] * 3 + [1] * 3, [1, 2, 3, 1.5, 2.5, 3.5], [1] * 6)
    assert 0.0 < p < 1.0


def _run_benchmark(preset):
    config = ExperimentConfig.from_file(str(CONFIG_DIR / f"{preset}.json"))
    path = require_dataset(preset)
    schema = data_mod.Schema.from_preset(preset)
    table = data_mod.load_csv(str(path), schema)
    split_set = data_mod.make_splits(table.n_rows, config.seed)
    cs, ibss = [], []
    for split in split_set.splits:
        state, X, _ = _fit_one_split(table, config, split)
        te = split["test"]
        out = trainer.evaluate(state, X[te], table.time[te], table.event[te])
        cs.append(out["c_index"])
        ibss.append(out["ibs"])
    return float(np.mean(cs)), float(np.mean(ibss))


def test_criterion_4_gbsg_benchmark():
    """Five-split mean test C-index >= 0.63, mean IBS <= 0.21, within
    the 30-minute budget."""
    started = time.monotonic()
    mean_c, mean_ibs = _run_benchmark("gbsg")
    elapsed = time.monotonic() - started
    assert mean_c >= 0.63, f"GBSG mean test C-index {mean_c:.4f} < 0.63"
    assert mean_ibs <= 0.21, f"GBSG mean test IBS {mean_ibs:.4f} > 0.21"
    assert elapsed < 1800.0, f"GBSG benchmark took {elapsed:.0f}s"


def test_criterion_5_metabric_benchmark():
    """Five-split mean test C-index >= 0.62."""
    mean_c, _ = _run_benchmark("metabric")
    assert mean_c >= 0.62, f"METABRIC mean test C-index {mean_c:.4f} < 0.62"


def test_criterion_5_whas_benchmark():
    """Five-split mean test C-index >= 0.73."""
    mean_c, _ = _run_benchmark("whas")
    assert mean_c >= 0.73, f"WHAS mean test C-index {mean_c:.4f} < 0.73"


def test_criterion_6_gbsg_stratification(tmp_path):
    """K=2 stratification separates survival (log-rank p < 0.05) in at
    least 4 of 5 seeds."""
    path = require_dataset("gbsg")
    config = json.loads((CONFIG_DIR / "gbsg.json").read_text())
    hits = 0
    for seed in range(5):
        config["seed"] = seed
        cfg_path = tmp_path / f"gbsg-{seed}.json"
        cfg_path.write_text(json.dumps(config))
        run_dir = tmp_path / f"run-{seed}"
        rc = main([
            "train", "--config", str(cfg_path), "--data", str(path),
            "--out", str(run_dir),
        ])
        assert rc == 0
        strat_dir = tmp_path / f"strat-{seed}"
        rc = main([
            "stratify", "--checkpoint", str(run_dir / "checkpoint.json"),
            "--data", str(path), "--out", str(strat_dir),
        ])
        assert rc == 0
        text = (strat_dir / "logrank.txt").read_text()
        p = float(text.strip().split("p_value: ")[1])
        if p < 0.05:
            hits += 1
    assert hits >= 4, f"log-rank p < 0.05 in only {hits} of 5 seeds"


def _tiny_config(**overrides):
    base = dict(
        latent_dim=4, n_bins=5, encoder_hidden=(16,), head_hidden=(8,),
        pretrain_epochs=3, max_epochs=3, batch_size=64, seed=3,
        early_stopping=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _synthetic_training_data(seed=7, n=120):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    t = rng.exponential(5.0, size=n) + 0.1
    e = (rng.random(n) < 0.7).astype(int)
    return X, t, e


def test_criterion_7_structural_invariants():
    """Valid survival rows for every architecture, frozen centers, a
    never-empty admitted set, and rejection of cross-view weights
    without a Siamese pair."""
    X, t, e = _synthetic_training_data()
    variants = [
        _tiny_config(),
        _tiny_config(variational=False, seed=4),
        _tiny_config(siamese=True, seed=5,
                     weights=LossWeights(alpha_iviw=0.2, alpha_ivcw=0.2)),
        _tiny_config(heads="per-cluster", clustering="gmm", seed=6),
        _tiny_config(clustering="agglomerative", seed=7),
    ]
    for config in variants:
        data = trainer.prepare_training_data(X, t, e, config.n_bins)
        state = trainer.pretrain(data, config)
        state = trainer.init_clusters(state, data)
        centers_before = [c.tobytes() for c in state.centers]
        state = trainer.train_stage3(state, data)
        centers_after = [c.tobytes() for c in state.centers]
        assert centers_before == centers_after, "stage-3 centers moved"
        rows = [r for r in state.logs if r["stage"] == 3]
        assert rows and all(r["admitted_frac"] > 0 for r in rows), (
            "SPL admitted set emptied"
        )
        pred = trainer.predict(state, X)
        # predict keeps no probabilities; the model's own distribution has them
        x = Tensor(X)
        outs = trainer._encode_views(state.model, x, train=False, rng=None)
        dist = state.model.survival_forward(state.model.survival_input(x, outs),
                                            cluster_ids=pred["labels"])
        assert np.array_equal(dist.survival.values, pred["survival"])
        assert np.allclose(dist.probs.values.sum(axis=1), 1.0, atol=1e-9), (
            "survival distribution rows do not sum to 1"
        )
        assert (np.diff(pred["survival"], axis=1) <= 1e-12).all(), (
            "survival curves are not monotone"
        )
    with pytest.raises(ConfigurationError):
        _tiny_config(siamese=False, weights=LossWeights(alpha_iviw=0.5)).validate()
    with pytest.raises(ConfigurationError):
        _tiny_config(siamese=False, weights=LossWeights(alpha_ivcw=0.5)).validate()


def _write_toy_run_inputs(root):
    rng = np.random.default_rng(42)
    n = 150
    x = rng.normal(size=(n, 3))
    t = rng.exponential(np.exp(0.5 * x[:, 0]) * 4) + 0.05
    c = rng.exponential(10.0, size=n)
    e = (t <= c).astype(int)
    obs = np.minimum(t, c)
    with open(root / "toy.csv", "w") as fh:
        fh.write("duration,event,f0,f1,f2\n")
        for i in range(n):
            fh.write(
                f"{obs[i]:.6f},{e[i]},{x[i, 0]:.6f},{x[i, 1]:.6f},{x[i, 2]:.6f}\n"
            )
    schema = {"time": "duration", "event": "event",
              "features": {"f0": "numeric", "f1": "numeric", "f2": "numeric"}}
    (root / "schema.json").write_text(json.dumps(schema))
    config = {
        "schema_file": str(root / "schema.json"), "latent_dim": 3, "n_bins": 4,
        "encoder_hidden": [8], "head_hidden": [8], "pretrain_epochs": 2,
        "max_epochs": 2, "batch_size": 64, "seed": 1, "patience": 3,
    }
    (root / "config.json").write_text(json.dumps(config))


def test_criterion_8_determinism(tmp_path):
    """cmd_train reports are byte-identical across reruns; cmd_hpo output
    does not depend on --jobs."""
    _write_toy_run_inputs(tmp_path)
    for out in ("a", "b"):
        rc = main([
            "train", "--config", str(tmp_path / "config.json"),
            "--data", str(tmp_path / "toy.csv"), "--out", str(tmp_path / out),
        ])
        assert rc == 0
    assert (tmp_path / "a" / "metrics.txt").read_bytes() == (
        tmp_path / "b" / "metrics.txt"
    ).read_bytes()

    space = {
        "base": json.loads((tmp_path / "config.json").read_text()),
        "space": {
            "learning_rate": {"type": "log_uniform", "low": 1e-4, "high": 1e-2},
            "n_clusters": {"type": "int_range", "low": 2, "high": 3},
        },
    }
    (tmp_path / "space.json").write_text(json.dumps(space))
    for jobs, out in (("1", "h1"), ("2", "h2")):
        rc = main([
            "hpo", "--space", str(tmp_path / "space.json"), "--budget", "2",
            "--jobs", jobs, "--seed", "5", "--data", str(tmp_path / "toy.csv"),
            "--out", str(tmp_path / out),
        ])
        assert rc == 0
    for name in ("leaderboard.csv", "summary.txt", "winner.json"):
        assert (tmp_path / "h1" / name).read_bytes() == (
            tmp_path / "h2" / name
        ).read_bytes()
