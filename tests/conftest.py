"""Shared test helpers: finite-difference gradient oracle and synthetic data."""

from __future__ import annotations

import re

import numpy as np

from survstrat.tensor import Tensor

from reftape import item, zero_grad

CRITERIA = {
    1: "gradient suite matches central finite differences",
    2: "loss-value oracles reproduce hand-derived constants",
    3: "metric oracles: C-index, IBS, KM, log-rank",
    4: "GBSG benchmark: mean test C-index and IBS",
    5: "METABRIC and WHAS benchmarks: mean test C-index",
    6: "GBSG stratification: log-rank p < 0.05 in >= 4 of 5 seeds",
    7: "structural invariants of trained models",
    8: "determinism of cmd_train and cmd_hpo",
}

_acceptance_outcomes: dict = {}


def pytest_runtest_logreport(report):
    match = re.search(r"test_acceptance\.py::\w*test_criterion_(\d+)", report.nodeid)
    if not match:
        return
    num = int(match.group(1))
    rows = _acceptance_outcomes.setdefault(num, [])
    if report.failed:
        rows.append("FAIL")
    elif report.skipped:
        rows.append(("SKIP", report.longrepr[2] if isinstance(report.longrepr, tuple) else ""))
    elif report.when == "call" and report.passed:
        rows.append("PASS")


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    write = terminalreporter.write_line
    write("")
    write("ACCEPTANCE CRITERIA")
    for num in sorted(CRITERIA):
        rows = _acceptance_outcomes.get(num)
        if not rows:
            continue
        if any(r == "FAIL" for r in rows):
            status = "FAIL"
        elif all(isinstance(r, tuple) for r in rows):
            reasons = {r[1].replace("Skipped: ", "") for r in rows}
            status = "SKIP (" + "; ".join(sorted(reasons)) + ")"
        else:
            status = "PASS"
        write(f"  criterion {num} ({CRITERIA[num]}): {status}")


def numeric_gradient(loss_fn, leaf: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_fn() w.r.t. every entry of `leaf`.

    loss_fn must rebuild the graph from leaf.values on each call (define-by-run),
    returning a scalar float.
    """
    base = leaf.values
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = base[idx]
        base[idx] = orig + h
        f_plus = loss_fn()
        base[idx] = orig - h
        f_minus = loss_fn()
        base[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
        it.iternext()
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-7) -> float:
    """Max relative error, ignoring entries where both gradients are ~0."""
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.abs(analytic - numeric)
    rel = np.where(scale > floor, err / np.maximum(scale, floor), 0.0)
    return float(rel.max()) if rel.size else 0.0


def check_gradients(build_loss, leaves: list[Tensor], tol: float = 1e-4) -> float:
    """Assert autodiff gradients of build_loss() match finite differences.

    build_loss must construct the loss Tensor from the current leaf values.
    Returns the worst relative error seen.
    """
    loss = build_loss()
    for leaf in leaves:
        zero_grad(leaf)
    loss = build_loss()
    loss.backward()
    worst = 0.0
    for leaf in leaves:
        analytic = leaf.grad.copy()
        numeric = numeric_gradient(lambda: item(build_loss()), leaf)
        worst = max(worst, max_rel_error(analytic, numeric))
    assert worst <= tol, f"gradient mismatch: max rel err {worst:.3e} > {tol}"
    return worst


def assert_step_moves_parameters(optimizer, model) -> None:
    """One optimizer step under a gradient of ones changes every weight of
    ``model``: its parameters are still the arrays the optimizer updates."""
    before = model.state_dict()
    for _, t in model.parameters():
        t.grad = np.ones_like(t.values)
    optimizer.step()
    for name, t in model.parameters():
        assert (t.values != before[name]).all(), name


def synthetic_survival_data(n: int = 400, p: int = 6, seed: int = 0,
                            censor_frac: float = 0.3):
    """Synthetic right-censored data where feature 0 drives the hazard.

    Returns (X, times, events): higher X[:,0] means shorter survival.
    """
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    risk = 1.5 * X[:, 0] + 0.5 * X[:, 1]
    true_t = rng.exponential(scale=np.exp(-risk)) * 10.0 + 0.05
    cens_t = rng.exponential(scale=10.0 / max(censor_frac, 1e-9) * 0.5) + 0.05
    times = np.minimum(true_t, cens_t)
    events = (true_t <= cens_t).astype(np.int64)
    return X, times, events


def two_population_survival_data(n: int = 300, p: int = 5, seed: int = 0):
    """Two latent subpopulations with distinct survival scales.

    Feature 0 separates the groups; group 1 has much shorter survival.
    Returns (X, times, events, group_labels).
    """
    rng = np.random.default_rng(seed)
    group = (rng.random(n) < 0.5).astype(np.int64)
    X = rng.standard_normal((n, p)) * 0.5
    X[:, 0] += np.where(group == 1, 2.5, -2.5)
    scale = np.where(group == 1, 2.0, 12.0)
    true_t = rng.exponential(scale=scale) + 0.05
    cens_t = rng.exponential(scale=25.0) + 0.05
    times = np.minimum(true_t, cens_t)
    events = (true_t <= cens_t).astype(np.int64)
    return X, times, events, group
