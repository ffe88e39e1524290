"""survstrat benchmark: the real CLI on cohorts generated from a seed.

    python3 bench/run.py --workload gbsg_fit --seed 1 --seconds 25 --trace 0

Run from the repository root. The package is imported from ``src/`` next to
this directory, single-process; numpy's BLAS threads are the only
parallelism. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-module metrics with ``--trace 1``. The
line before it records the machine. A full record (and, when traced, every
span) goes to ``.bench_out/``. See ``bench/README.md`` for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

# One BLAS thread. The matrices here are small, so a second thread adds no
# speed, but its spin-waiting makes every timing swing with other load on
# the host. This must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import cohort  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 5
# cohorts per fit run; every one is trained at least once, and the accuracy
# metrics average over them
FIT_COHORTS = 4
# evaluate + stratify passes after each fit: each pass is short, so more
# samples per run steady their medians
FIT_SCORES = 3
# the model must recover this share of the true groups' C-index above 0.5
FLOOR_SHARE = 0.5
# no run goes on past this many seconds of measuring, whatever its minimum
HARD_STOP_S = 100.0
# seeds this benchmark was tuned on; see README.md for the held-out seed
TUNING_SEEDS = range(1, 21)

# span names each workload must and must not show in a traced run
_TRAIN_SPANS = {
    "cli.cmd_train", "checkpoint.save_checkpoint", "data.preprocess",
    "trainer.pretrain", "trainer.init_clusters", "trainer.train_stage3",
    "trainer.validation_c_index", "networks.decode", "networks.latents",
    "losses.loss_rec", "losses.loss_kld", "losses.loss_clus", "losses.loss_ivcg",
    "losses.loss_nll", "losses.loss_rank", "clustering.fit",
    "tensor.backward", "tensor.adam_step",
}
_REPORT_SPANS = {
    "cli.cmd_evaluate", "cli.cmd_stratify", "checkpoint.load_checkpoint",
    "data.load_csv", "data.apply_transforms", "trainer.predict",
    "networks.encode", "networks.head", "networks.survival_forward",
    "clustering.assign_nearest", "metrics.concordance_index",
    "metrics.integrated_brier_score", "metrics.kaplan_meier",
    "metrics.log_rank_test", "metrics.interpolate_curve",
}
_CROSS_VIEW_SPANS = {"losses.loss_iviw", "losses.loss_ivcw", "losses.soft_assign_tensor"}

WORKLOADS = {
    "gbsg_fit": {
        "kind": "fit", "config": "gbsg", "n": 2232, "p": 7, "groups": 2,
        "overrides": {}, "weights": {},
        "required": _TRAIN_SPANS | _REPORT_SPANS,
        "forbidden": _CROSS_VIEW_SPANS,
    },
    "siamese_ensemble_fit": {
        "kind": "fit", "config": "metabric", "n": 1904, "p": 9, "groups": 3,
        "overrides": {"siamese": True, "heads": "per-cluster", "n_clusters": 3},
        "weights": {"alpha_iviw": 0.1, "alpha_ivcw": 0.1},
        "required": _TRAIN_SPANS | _REPORT_SPANS | _CROSS_VIEW_SPANS,
        "forbidden": set(),
    },
    "cohort_report": {
        "kind": "report", "config": "gbsg", "n": 2232, "p": 7, "groups": 2,
        "n_report": 20000, "overrides": {}, "weights": {},
        "required": _REPORT_SPANS,
        "forbidden": _TRAIN_SPANS | _CROSS_VIEW_SPANS,
    },
}

E2E_UNITS = {
    "train_s": "s", "train_rows_per_s": "rows/s", "test_c_index": "1",
    "test_ibs": "1", "evaluate_s": "s", "stratify_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "success_rate": "1",
}

_TIMED_SPANS = [
    "tensor.backward", "tensor.adam_step",
    "networks.encode", "networks.decode", "networks.head",
    "networks.survival_forward", "networks.latents",
    "losses.loss_rec", "losses.loss_kld", "losses.loss_clus", "losses.loss_ivcg",
    "losses.loss_iviw", "losses.loss_ivcw", "losses.loss_nll", "losses.loss_rank",
    "losses.soft_assign_tensor",
    "trainer.pretrain", "trainer.init_clusters", "trainer.train_stage3",
    "trainer.validation_c_index", "trainer.predict",
    "clustering.fit", "clustering.assign_nearest",
    "metrics.concordance_index", "metrics.integrated_brier_score",
    "metrics.kaplan_meier", "metrics.log_rank_test", "metrics.interpolate_curve",
    "data.load_csv", "data.preprocess", "data.apply_transforms",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
    "cli.cmd_train", "cli.cmd_evaluate", "cli.cmd_stratify",
]
_COUNTED_SPANS = [n for n in _TIMED_SPANS if n.startswith("metrics.")]
# fields of each operation kept in the run record
_RECORDED = ("index", "traced", "scale", "cohort", "train_s", "evaluate_s", "stratify_s",
             "rows", "stage3_epochs", "test_c_index", "test_ibs")


def per_layer_units() -> dict:
    """Name and unit of every per-module metric, in report order."""
    units = {f"{n}_s": "s" for n in _TIMED_SPANS}
    units.update({f"{n}_calls": "count" for n in _COUNTED_SPANS})
    for stage in ("", "pretrain_", "stage3_"):
        units[f"tensor.{stage}op_nodes_per_step"] = "count"
        units[f"tensor.{stage}leaf_nodes_per_step"] = "count"
    units.update({
        "trainer.pretrain_steps": "count", "trainer.stage3_steps": "count",
        "trainer.stage3_epochs": "count",
        "trainer.pretrain_steps_per_s": "1/s", "trainer.stage3_steps_per_s": "1/s",
        "trace.untraced_op_s": "s", "trace.traced_op_s": "s",
        "trace.overhead_s": "s", "trace.overhead_share": "1",
        "trace.tape_walk_s": "s", "trace.spans_per_op": "count",
    })
    return units


class SetupError(Exception):
    """The benchmark could not prepare its inputs; no result is printed."""


class Bench:
    """One benchmark run: its working directory, calls, timings and checks."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(OUT, f"work-{name}-{seed}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.tracer = spans.Tracer()
        self.ops = []            # one dict per measured operation
        self.setup_s = []
        self.setup_trains = []   # results of the trainings done in set-up
        self.timer = probe.ScaledTimer()
        self.calls = []          # (command, wall seconds, scaled seconds) per call

    # -- program access ------------------------------------------------

    def import_program(self) -> float:
        """Import the package from ``src/``; returns the scaled import time."""
        src = os.path.join(ROOT, "src")
        sys.path.insert(0, src)
        names = ("cli", "trainer", "networks", "losses", "metrics", "data", "clustering",
                 "tensor", "checkpoint")
        try:
            modules, _, seconds = self.timer.time(
                lambda: {m: importlib.import_module(f"survstrat.{m}") for m in names})
        except ImportError as exc:
            raise SetupError(f"cannot import survstrat from {src}: {exc}")
        if not modules["cli"].__file__.startswith(src + os.sep):
            raise SetupError(f"survstrat resolved outside {src}")
        self.mods = modules
        return seconds

    def call(self, argv) -> tuple[str | None, float]:
        """Run one CLI command; returns its stdout (None on failure) and scaled time."""
        self.attempted += 1
        buf = io.StringIO()

        def run():
            try:
                with contextlib.redirect_stdout(buf):
                    return self.mods["cli"].main(argv)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                return "exception"

        code, wall, seconds = self.timer.time(run)
        self.calls.append((argv[0], wall, seconds))
        if code != 0:
            self.fail(f"`survstrat {' '.join(argv)}` exited with {code}")
            return None, seconds
        return buf.getvalue(), seconds

    def parse_metrics(self, text: str, what: str):
        """(c_index, ibs) from a ``key: value`` report, or None after a failed check."""
        report = checks.parse_report(text)
        try:
            return float(report["c_index"]), float(report["ibs"])
        except (KeyError, ValueError):
            self.fail(f"{what} does not parse: {report}")
            return None

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)
        sys.stderr.write(f"check failed: {problem}\n")

    def check(self, problems) -> None:
        """Count an output that fails any check as one failed call."""
        if problems:
            self.fail("; ".join(problems))

    # -- inputs ----------------------------------------------------------

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def write_config(self, filename: str, **extra) -> str:
        with open(os.path.join(ROOT, "configs", f"{self.spec['config']}.json")) as fh:
            cfg = json.load(fh)
        # the earliest epoch early stopping can stop at, so every fit runs
        # the same number of stage-3 epochs whatever the validation curve does
        cfg["max_epochs"] = cfg["patience"] + 1
        cfg.update(self.spec["overrides"])
        cfg["weights"].update(self.spec["weights"])
        cfg.update(extra)
        path = self.path(filename)
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path

    def write_cohort(self, stream: int, n: int) -> dict:
        X, t, e, g = cohort.generate(n, self.spec["p"], self.spec["groups"], self.seed, stream)
        path = self.path(f"cohort{stream}.csv")
        cohort.write_csv(path, X, t, e)
        return {"csv": path, "t": t, "e": e, "groups": g, "n": n}

    def c_floor(self, data: dict, rows) -> float:
        oracle = checks.harrell_c(cohort.group_risk(data["groups"][rows]),
                                  data["t"][rows], data["e"][rows])
        return 0.5 + FLOOR_SHARE * (oracle - 0.5)

    def predicted_c(self, ckpt: str, data: dict, rows) -> float:
        """The benchmark's own Harrell's C on the checkpoint's predicted risk."""
        m = self.mods
        ck = m["checkpoint"].load_checkpoint(ckpt)
        schema = m["data"].Schema.from_preset(ck.state.config.dataset_preset)
        X, _ = m["data"].apply_transforms(m["data"].load_csv(data["csv"], schema), ck.transforms)
        risk = m["trainer"].predict(ck.state, X[rows])["risk"]
        return checks.harrell_c(risk, data["t"][rows], data["e"][rows])

    # -- operations --------------------------------------------------------

    def train(self, config: str, data: dict, out: str):
        """``survstrat train``: its time, the rows its optimizer steps saw, its test metrics."""
        stdout, seconds = self.call(["train", "--config", config, "--data", data["csv"],
                                     "--out", out])
        if stdout is None:
            return None
        with open(os.path.join(out, "epochs.csv")) as fh:
            stages = [line.split(",")[1] for line in fh.read().splitlines()[1:]]
        with open(os.path.join(out, "metrics.txt")) as fh:
            metrics = self.parse_metrics(fh.read(), f"{out}/metrics.txt")
        if metrics is None:
            return None
        c, ibs = metrics
        split = read_split(os.path.join(out, "splits.txt"))
        return {"train_s": seconds, "rows": len(stages) * len(split["train"]),
                "stage3_epochs": stages.count("3"), "test_c_index": c, "test_ibs": ibs,
                "test_rows": split["test"], "checkpoint": os.path.join(out, "checkpoint.json")}

    def score(self, ckpt: str, data: dict, extra, out: str):
        """``evaluate --curves`` then ``stratify`` into ``out``: their times and outputs."""
        os.makedirs(out, exist_ok=True)
        curves = os.path.join(out, "curves.csv")
        strat = os.path.join(out, "strat")
        ev, ev_s = self.call(["evaluate", "--checkpoint", ckpt, "--data", data["csv"],
                              *extra, "--curves", curves])
        st, st_s = self.call(["stratify", "--checkpoint", ckpt, "--data", data["csv"],
                              "--out", strat])
        if ev is None or st is None:
            return None
        metrics = self.parse_metrics(ev, "evaluate output")
        if metrics is None:
            return None
        c, ibs = metrics
        return {"evaluate_s": ev_s, "stratify_s": st_s, "curves": curves, "strat": strat,
                "eval_c_index": c, "eval_ibs": ibs}

    def check_score(self, rep: dict, data: dict) -> list:
        return (checks.check_curves(rep["curves"], 2, 1)
                + checks.check_stratify(rep["strat"], data["n"]))

    def warm_up(self, data: dict) -> None:
        """One-epoch ``train``, then ``evaluate`` and ``stratify`` on its checkpoint.

        The first call of each command in a process pays one-off costs that
        later calls are spared; this pays them outside the timed window.
        """
        tiny = self.write_config("warmup.json", pretrain_epochs=1, max_epochs=1)
        fit = self.train(tiny, data, self.path("warmup"))
        if fit is not None:
            rep = self.score(fit["checkpoint"], data, [], self.path("warmup", "score"))
            if rep is not None:
                self.check(self.check_score(rep, data))

    def measure(self, op, check, min_ops: int) -> None:
        """Repeat ``op(i)`` for the run's seconds, and at least ``min_ops`` times.

        Traced runs alternate untraced and traced operations, so the tracing
        overhead is measured on the same inputs. ``check`` runs on each
        result after the patches are undone, so its work is never traced.
        """
        start = time.perf_counter()
        i = 0
        while True:
            traced = self.trace and i % 2 == 1
            patches = None
            if traced:
                self.tracer.op_id = i
                patches = self.tracer.install(self.mods)
            first_call = len(self.calls)
            try:
                result = op(i)
            finally:
                if patches is not None:
                    patches.restore()
            if result is not None:
                self.check(check(result))
                calls = self.calls[first_call:]
                # scaled over wall seconds, to scale this operation's span times
                scale = sum(c[2] for c in calls) / sum(c[1] for c in calls)
                result.update(index=i, traced=traced, scale=scale)
                self.ops.append(result)
            shutil.rmtree(self.path(f"run{i}"), ignore_errors=True)
            i += 1
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_STOP_S or (elapsed >= self.seconds and i >= min_ops):
                break

    # -- workloads ---------------------------------------------------------

    def run_fit(self) -> None:
        def set_up():
            cohorts = [self.write_cohort(k, self.spec["n"]) for k in range(FIT_COHORTS)]
            self.warm_up(cohorts[0])
            return self.write_config("config.json"), cohorts

        for _ in range(SETUP_REPEATS):
            (config, cohorts), _, seconds = self.timer.time(set_up)
            self.setup_s.append(seconds)
        verified = set()

        def op(i):
            k = (i // 2 if self.trace else i) % FIT_COHORTS
            out = self.path(f"run{i}")
            fit = self.train(config, cohorts[k], out)
            if fit is None:
                return None
            split = ["--splits-file", os.path.join(out, "splits.txt"), "--role", "test"]
            reps = [self.score(fit["checkpoint"], cohorts[k], split, os.path.join(out, f"score{r}"))
                    for r in range(FIT_SCORES)]
            if None in reps:
                return None
            return dict(fit, cohort=k, scores=reps,
                        evaluate_s=[r["evaluate_s"] for r in reps],
                        stratify_s=[r["stratify_s"] for r in reps])

        def check(fit):
            data = cohorts[fit["cohort"]]
            rows = fit["test_rows"]
            c, ibs = fit["test_c_index"], fit["test_ibs"]
            problems = []
            for rep in fit["scores"]:
                problems += self.check_score(rep, data)
                problems += checks.check_c_index(rep["eval_c_index"], c, "evaluate")
            floor = self.c_floor(data, rows)
            if not c >= floor:
                problems.append(f"test c_index {c!r} below the floor {floor:.4f}")
            if not 0.0 <= ibs <= 1.0:
                problems.append(f"test ibs {ibs!r} outside [0, 1]")
            if fit["cohort"] not in verified:
                verified.add(fit["cohort"])
                problems += checks.check_c_index(
                    c, self.predicted_c(fit["checkpoint"], data, rows), "train")
            return problems

        self.measure(op, check, min_ops=2 if self.trace else FIT_COHORTS)

    def run_report(self) -> None:
        def set_up():
            train_data = self.write_cohort(0, self.spec["n"])
            report_data = self.write_cohort(1, self.spec["n_report"])
            self.warm_up(train_data)
            fit = self.train(self.write_config("config.json"), train_data, self.path("model"))
            if fit is None:
                raise SetupError("the set-up checkpoint did not train")
            self.setup_trains.append(fit)
            return fit["checkpoint"], report_data

        for _ in range(SETUP_REPEATS):
            (ckpt, report_data), _, seconds = self.timer.time(set_up)
            self.setup_s.append(seconds)
        everyone = np.arange(report_data["n"])
        expected_c = self.predicted_c(ckpt, report_data, everyone)
        floor = self.c_floor(report_data, everyone)

        def op(i):
            rep = self.score(ckpt, report_data, [], self.path(f"run{i}"))
            if rep is not None:
                rep.update(test_c_index=rep["eval_c_index"], test_ibs=rep["eval_ibs"],
                           evaluate_s=[rep["evaluate_s"]], stratify_s=[rep["stratify_s"]])
            return rep

        def check(rep):
            c = rep["test_c_index"]
            problems = self.check_score(rep, report_data)
            problems += checks.check_c_index(c, expected_c, "evaluate")
            if not c >= floor:
                problems.append(f"c_index {c!r} below the floor {floor:.4f}")
            return problems

        self.measure(op, check, min_ops=2 if self.trace else 3)

    # -- metrics -------------------------------------------------------------

    def end_to_end(self, import_s: float) -> dict:
        ops = [o for o in self.ops if not o["traced"]]
        trains = self.setup_trains if self.spec["kind"] == "report" else ops
        per_cohort = {}
        for o in ops:
            per_cohort.setdefault(o.get("cohort", 0), o)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "train_s": median(t["train_s"] for t in trains),
            "train_rows_per_s": median(t["rows"] / t["train_s"] for t in trains),
            "test_c_index": mean(o["test_c_index"] for o in per_cohort.values()),
            "test_ibs": mean(o["test_ibs"] for o in per_cohort.values()),
            "evaluate_s": median(t for o in ops for t in o["evaluate_s"]),
            "stratify_s": median(t for o in ops for t in o["stratify_s"]),
            "setup_s": import_s + statistics.median(self.setup_s),
            "peak_rss_mb": peak_kb / 1024.0,
            "success_rate": 1.0 - self.failed / max(self.attempted, 1),
        }
        return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    def per_layer(self) -> dict:
        units = per_layer_units()
        plain = [o for o in self.ops if not o["traced"]]
        traced = [o for o in self.ops if o["traced"]]
        rows = []
        seen = set()
        for o in traced:
            op_id = o["index"]
            self_t = self.tracer.self_times(op_id)
            total = self.tracer.total_times(op_id)
            seen.update(self_t)
            scale = o["scale"]
            row = {f"{n}_s": self_t.get(n, (0.0, 0))[0] * scale for n in _TIMED_SPANS}
            row.update({f"{n}_calls": self_t.get(n, (0.0, 0))[1] for n in _COUNTED_SPANS})
            tape = self.tracer.tape
            for stage, span in (("pretrain", "trainer.pretrain"),
                                ("stage3", "trainer.train_stage3")):
                steps = tape.get((op_id, stage, "steps"), 0)
                for field in ("op_nodes", "leaf_nodes"):
                    row[f"tensor.{stage}_{field}_per_step"] = (
                        tape.get((op_id, stage, field), 0) / steps if steps else 0.0)
                row[f"trainer.{stage}_steps"] = steps
                stage_s = total.get(span, 0.0) * scale
                row[f"trainer.{stage}_steps_per_s"] = steps / stage_s if stage_s else 0.0
            all_steps = sum(v for (op, _, f), v in tape.items() if op == op_id and f == "steps")
            for field in ("op_nodes", "leaf_nodes"):
                nodes = sum(v for (op, _, f), v in tape.items() if op == op_id and f == field)
                row[f"tensor.{field}_per_step"] = nodes / all_steps if all_steps else 0.0
            row["trainer.stage3_epochs"] = o.get("stage3_epochs", 0)
            row["trace.tape_walk_s"] = self_t.get("bench.tape_walk", (0.0, 0))[0] * scale
            row["trace.spans_per_op"] = sum(n for _, n in self_t.values())
            rows.append(row)
        values = {k: median(r[k] for r in rows) for k in rows[0]} if rows else {}
        untraced_s = median(op_seconds(o) for o in plain)
        traced_s = median(op_seconds(o) for o in traced)
        values.update({
            "trace.untraced_op_s": untraced_s,
            "trace.traced_op_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_share": (traced_s - untraced_s) / untraced_s if untraced_s else 0.0,
        })
        missing = sorted(self.spec["required"] - seen)
        present = sorted(self.spec["forbidden"] & seen)
        if missing:
            self.fail(f"span coverage: required spans not seen: {missing}")
        if present:
            self.fail(f"span coverage: forbidden spans seen: {present}")
        return {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()}


def read_split(path: str) -> dict:
    """Index arrays of the first split in a splits.txt file."""
    with open(path) as fh:
        line = next(ln for ln in fh if ln.strip() and not ln.startswith("#"))
    return {
        role: np.asarray([int(x) for x in idx.split(",") if x], dtype=np.int64)
        for role, _, idx in (part.partition(":") for part in line.split())
    }


def op_seconds(o: dict) -> float:
    return o.get("train_s", 0.0) + sum(o["evaluate_s"]) + sum(o["stratify_s"])


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def machine_facts(seed: int) -> dict:
    """nproc, versions, BLAS library and threads, seed and git commit."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
        "tuning_seed": seed in TUNING_SEEDS,
        "commit": git_commit(),
    }


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if unknown."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(bench.work, exist_ok=True)
    try:
        import_s = bench.import_program()
        if bench.spec["kind"] == "fit":
            bench.run_fit()
        else:
            bench.run_report()
        if not bench.ops:
            raise SetupError("no operation completed")
        if bench.trace:
            metrics = bench.per_layer()
            bench.tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        else:
            metrics = bench.end_to_end(import_s)
    except (SetupError, OSError) as exc:
        sys.stderr.write(f"benchmark set-up failed: {exc}\n")
        return 2
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    facts = machine_facts(args.seed)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, trace=args.trace,
                  seconds=args.seconds, machine=facts, problems=bench.problems,
                  calls=bench.calls, probes=bench.timer.probes,
                  ops=[{k: v for k, v in o.items() if k in _RECORDED} for o in bench.ops])
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"machine": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
