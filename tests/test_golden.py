"""Golden runs: three short training runs, and the commands run on them,
whose outputs are pinned.

Each case runs ``survstrat train`` on a seeded synthetic cohort and compares
what it writes with the committed run in ``tests/fixtures/golden/<case>/``:
every float of ``checkpoint.json`` (the weights and cluster centres are
format-2 blobs, exact binary), and every number of ``epochs.csv`` and of
``metrics.txt``. The
cases are the three configurations that simplicity and speed changes are
held to: a GBSG-shaped shared variational model, a METABRIC-shaped Siamese
model with per-cluster heads and both cross-view losses, and a
deterministic (``variational: false``) encoder.

Each case's committed checkpoint is also scored on its cohort by
``evaluate --curves`` (``evaluate/``: ``metrics.txt`` and ``curves.csv``)
and by ``stratify`` (``stratify/``: its four files and the printed
``summary.txt``). One ``hpo`` run, two trials around the GBSG case's config
with ``--jobs 1``, pins ``leaderboard.csv``, ``trials.json``,
``winner.json`` and ``summary.txt`` in ``hpo_gbsg_shared_variational/``.
Every number in a text file, a JSON value or a CSV cell is compared as a
number.

Cluster ids and every other integer or non-numeric field must be equal.
Floats must be equal too on the build that wrote the fixtures
(``build.json``: the numpy version, its BLAS, the CPU's SIMD extensions),
because a one-ulp change anywhere in the arithmetic, such as adding a
weighted sum's terms in another order, moves them by far less than any
useful tolerance. Other builds round some kernels differently, so there
every float must agree to ``RTOL`` relative to the pinned value, element by
element. Each case prints its largest relative deviation, which
``pytest -rA`` shows.

A change that alters the training arithmetic on purpose regenerates the
fixtures with ``PYTHONPATH=src python tests/test_golden.py`` and says so in
CHANGES.md.
"""

import contextlib
import io
import json
import pathlib
import shutil
import sys
import tempfile

import numpy as np
import pytest

from survstrat.checkpoint import _decode
from survstrat.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "golden"
RTOL = 1e-9
N_ROWS = 300
OUTPUTS = ("checkpoint.json", "epochs.csv", "metrics.txt")
COMMAND_OUTPUTS = ("evaluate/metrics.txt", "evaluate/curves.csv", "stratify/latents.csv",
                   "stratify/km_clusters.csv", "stratify/logrank.txt", "stratify/smd.csv",
                   "stratify/summary.txt")
HPO_CASE = "gbsg_shared_variational"
HPO_OUTPUTS = ("leaderboard.csv", "trials.json", "winner.json", "summary.txt")

_SMALL = {
    "latent_dim": 4, "n_bins": 6, "encoder_hidden": [16, 8], "head_hidden": [16],
    "pretrain_epochs": 3, "max_epochs": 4, "patience": 5, "batch_size": 64, "seed": 0,
}
# case -> (dataset preset, number of features, config overrides)
CASES = {
    "gbsg_shared_variational": ("gbsg", 7, {}),
    "metabric_siamese_per_cluster": ("metabric", 9, {
        "siamese": True, "heads": "per-cluster", "n_clusters": 3,
        "weights": {"alpha_iviw": 0.4, "alpha_ivcw": 0.3},
    }),
    "whas_deterministic": ("whas", 6, {"variational": False}),
}


def build() -> dict | None:
    """What decides the rounding of numpy's kernels here, or None where numpy
    cannot report it."""
    try:
        info = np.show_config(mode="dicts")
        blas = info["Build Dependencies"]["blas"]
        return {
            "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "machine": info["Machine Information"]["host"]["cpu"],
            "simd": info["SIMD Extensions"]["found"],
        }
    except (TypeError, KeyError):
        return None


def write_cohort(path, p: int, seed: int) -> None:
    """Two latent groups apart along feature 0, the second with shorter
    survival, under independent exponential censoring."""
    rng = np.random.default_rng(seed)
    group = rng.integers(2, size=N_ROWS)
    X = rng.standard_normal((N_ROWS, p)) * 0.5
    X[:, 0] += np.where(group == 1, 1.5, -1.5)
    true_t = rng.exponential(np.where(group == 1, 2.0, 10.0)) + 0.05
    cens_t = rng.exponential(20.0, size=N_ROWS) + 0.05
    times = np.minimum(true_t, cens_t)
    events = (true_t <= cens_t).astype(int)
    with open(path, "w") as fh:
        fh.write(",".join([f"x{j}" for j in range(p)] + ["duration", "event"]) + "\n")
        for row, t, e in zip(X.tolist(), times.tolist(), events.tolist()):
            fh.write(",".join(map(repr, row)) + f",{t!r},{e}\n")


def case_config(case: str) -> dict:
    preset, _, overrides = CASES[case]
    return {**_SMALL, "dataset_preset": preset, **overrides}


def write_case_cohort(case: str, work: pathlib.Path) -> str:
    path = work / "cohort.csv"
    write_cohort(path, CASES[case][1], seed=len(case))
    return str(path)


def run_cli(argv: list) -> str:
    """``main(argv)``, which must exit 0; returns what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def run_case(case: str, work: pathlib.Path) -> pathlib.Path:
    """Train ``case`` in ``work``; returns the run directory, which holds
    checkpoint.json, epochs.csv and metrics.txt."""
    cohort = write_case_cohort(case, work)
    (work / "config.json").write_text(json.dumps(case_config(case)))
    run_cli(["train", "--config", str(work / "config.json"), "--data", cohort,
             "--out", str(work / "run")])
    return work / "run"


def run_commands(case: str, work: pathlib.Path) -> pathlib.Path:
    """Score ``case``'s committed checkpoint on its cohort with ``evaluate
    --curves`` and ``stratify``; returns the directory that holds their
    ``COMMAND_OUTPUTS``."""
    cohort = write_case_cohort(case, work)
    checkpoint = str(FIXTURES / case / "checkpoint.json")
    out = work / "commands"
    run_cli(["evaluate", "--checkpoint", checkpoint, "--data", cohort,
             "--curves", str(out / "evaluate" / "curves.csv"), "--out", str(out / "evaluate")])
    summary = run_cli(["stratify", "--checkpoint", checkpoint, "--data", cohort,
                       "--out", str(out / "stratify")])
    (out / "stratify" / "summary.txt").write_text(summary)
    return out


def run_hpo(work: pathlib.Path) -> pathlib.Path:
    """Two ``hpo`` trials around ``HPO_CASE``'s config with ``--jobs 1``;
    returns the output directory."""
    cohort = write_case_cohort(HPO_CASE, work)
    space = {"base": case_config(HPO_CASE), "space": {
        "learning_rate": {"type": "log_uniform", "low": 1e-3, "high": 1e-2},
        "latent_dim": {"type": "choice", "values": [2, 4]},
    }}
    (work / "space.json").write_text(json.dumps(space))
    summary = run_cli(["hpo", "--space", str(work / "space.json"), "--data", cohort,
                       "--budget", "2", "--jobs", "1", "--out", str(work / "hpo")])
    assert summary == (work / "hpo" / "summary.txt").read_text()
    return work / "hpo"


def _json_numbers(value, numbers: list):
    """``value`` with every float, as a JSON number or in a float64 blob,
    blanked and appended to ``numbers``; integer blobs become lists."""
    if isinstance(value, dict) and set(value) == {"dtype", "shape", "data"}:
        array = _decode(value, value["dtype"], "golden")
        if value["dtype"] != "float64":
            return array.tolist()
        numbers.extend(array.ravel().tolist())
        return ["#", value["shape"]]
    if isinstance(value, dict):
        return {k: _json_numbers(v, numbers) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_numbers(v, numbers) for v in value]
    if isinstance(value, float):
        numbers.append(value)
        return "#"
    return value


def _table_numbers(text: str, sep: str):
    """(numbers, the text with every number blanked) of a CSV (``sep`` ",")
    or a report (``sep`` " ", so every number on a line is found)."""
    numbers, skeleton = [], []
    for line in text.splitlines():
        cells = []
        for cell in line.split(sep):
            try:
                numbers.append(float(cell))
                cells.append("#")
            except ValueError:
                cells.append(cell)
        skeleton.append(sep.join(cells))
    return np.array(numbers), skeleton


def relative_deviation(got, want) -> float:
    """Largest ``|got - want| / |want|`` over the elements; 0 where both are 0."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    diff = np.abs(got - want)
    both_nan = np.isnan(got) & np.isnan(want)
    rel = np.where(diff == 0.0, 0.0, diff / np.maximum(np.abs(want), np.finfo(float).tiny))
    return float(np.where(both_nan, 0.0, rel).max(initial=0.0))


def compare_runs(got: pathlib.Path, want: pathlib.Path, outputs=OUTPUTS) -> dict:
    """The largest relative deviation of each of ``outputs`` of ``got`` from
    ``want``; asserts that everything but the floats is equal."""
    deviations = {}
    for name in outputs:
        parsed = []
        for run in (got, want):
            text = (run / name).read_text()
            if name.endswith(".json"):
                numbers = []
                rest = _json_numbers(json.loads(text), numbers)
                parsed.append((np.array(numbers), rest))
            else:
                parsed.append(_table_numbers(text, "," if name.endswith(".csv") else " "))
        (got_nums, got_rest), (want_nums, want_rest) = parsed
        assert got_rest == want_rest, name
        deviations[name] = relative_deviation(got_nums, want_nums)
    return deviations


def assert_matches(label: str, deviations: dict) -> None:
    worst = max(deviations.values())
    pinned = json.loads((FIXTURES / "build.json").read_text())
    rtol = 0.0 if build() == pinned else RTOL
    print(f"golden {label}: largest relative deviation {worst:.3e} (allowed {rtol:g}) "
          + " ".join(f"{k}={v:.3e}" for k, v in deviations.items()))
    assert worst <= rtol, deviations


@pytest.mark.parametrize("case", sorted(CASES))
def test_fit_matches_golden_run(case, tmp_path):
    assert_matches(case, compare_runs(run_case(case, tmp_path), FIXTURES / case))


@pytest.mark.parametrize("case", sorted(CASES))
def test_commands_match_golden_run(case, tmp_path):
    got = run_commands(case, tmp_path)
    assert_matches(f"{case} commands", compare_runs(got, FIXTURES / case, COMMAND_OUTPUTS))


def test_hpo_matches_golden_run(tmp_path):
    got = run_hpo(tmp_path)
    assert_matches("hpo", compare_runs(got, FIXTURES / f"hpo_{HPO_CASE}", HPO_OUTPUTS))


def _copy_outputs(run: pathlib.Path, dest: pathlib.Path, outputs) -> None:
    for output in outputs:
        (dest / output).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(run / output, dest / output)


if __name__ == "__main__":
    # the checkpoints are written first: the commands score the committed ones
    for name in sys.argv[1:] or sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            _copy_outputs(run_case(name, pathlib.Path(tmp)), FIXTURES / name, OUTPUTS)
        with tempfile.TemporaryDirectory() as tmp:
            _copy_outputs(run_commands(name, pathlib.Path(tmp)), FIXTURES / name,
                          COMMAND_OUTPUTS)
        print(f"wrote {FIXTURES / name}")
    with tempfile.TemporaryDirectory() as tmp:
        _copy_outputs(run_hpo(pathlib.Path(tmp)), FIXTURES / f"hpo_{HPO_CASE}", HPO_OUTPUTS)
    print(f"wrote {FIXTURES / f'hpo_{HPO_CASE}'}")
    (FIXTURES / "build.json").write_text(json.dumps(build(), indent=1) + "\n")
