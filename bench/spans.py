"""In-memory span tracing around survstrat's public functions.

The tracer is installed from outside the package: each traced name is
replaced, for the duration of one operation, by a wrapper that records a
span (name, start, end, parent span, operation id) and then calls the
original. Each name is patched where its caller looks it up, so a call that
bypasses the patched attribute is simply not seen; the per-workload span
coverage lists in ``run.py`` catch that.

``Tensor.backward`` is also where the tape is counted: before the sweep
the wrapper walks the graph from the loss and counts op nodes (recorded
with parents) and leaves. The walk is recorded as its own ``bench.tape_walk``
span, so its cost lands in no layer's self time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module, attribute, span name) for functions patched on their module
_MODULE_FUNCS = [
    ("cli", "cmd_train", "cli.cmd_train"),
    ("cli", "cmd_evaluate", "cli.cmd_evaluate"),
    ("cli", "cmd_stratify", "cli.cmd_stratify"),
    ("cli", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("cli", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("cli", "kaplan_meier", "metrics.kaplan_meier"),
    ("cli", "log_rank_test", "metrics.log_rank_test"),
    ("cli", "interpolate_curve", "metrics.interpolate_curve"),
    ("trainer", "concordance_index", "metrics.concordance_index"),
    ("trainer", "pretrain", "trainer.pretrain"),
    ("trainer", "init_clusters", "trainer.init_clusters"),
    ("trainer", "train_stage3", "trainer.train_stage3"),
    ("trainer", "validation_c_index", "trainer.validation_c_index"),
    ("trainer", "predict", "trainer.predict"),
    ("metrics", "integrated_brier_score", "metrics.integrated_brier_score"),
    ("data", "load_csv", "data.load_csv"),
    ("data", "preprocess", "data.preprocess"),
    ("data", "apply_transforms", "data.apply_transforms"),
    ("clustering", "fit", "clustering.fit"),
    ("clustering", "assign_nearest", "clustering.assign_nearest"),
] + [
    ("losses", fn, f"losses.{fn}")
    for fn in ("loss_rec", "loss_kld", "loss_clus", "loss_ivcg", "loss_iviw",
               "loss_ivcw", "loss_nll", "loss_rank", "soft_assign_tensor")
]

# (module, class, method, span name) for methods patched on their class
_METHODS = [
    ("networks", "Encoder", "__call__", "networks.encode"),
    ("networks", "Model", "decode", "networks.decode"),
    ("networks", "Model", "survival_forward", "networks.survival_forward"),
    ("networks", "Model", "latents", "networks.latents"),
    ("tensor", "Adam", "step", "tensor.adam_step"),
]

_STAGES = {"trainer.pretrain": "pretrain", "trainer.train_stage3": "stage3"}


class Tracer:
    """Spans and tape counts of the operations of one benchmark run."""

    def __init__(self):
        self.spans = []          # (span id, name, start, end, parent id, op id)
        self.tape = defaultdict(int)  # (op id, stage, field) -> count
        self.op_id = None
        self._stack = []         # open (span id, name, start)
        self._next_id = 0

    def begin(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        self._stack.append((span_id, name, time.perf_counter()))

    def end(self) -> None:
        end = time.perf_counter()
        span_id, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((span_id, name, start, end, parent, self.op_id))

    def stage(self) -> str | None:
        for _, name, _ in reversed(self._stack):
            if name in _STAGES:
                return _STAGES[name]
        return None

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end()

        return wrapper

    def count_tape(self, loss) -> None:
        """Count the distinct nodes reachable from ``loss`` for the current stage."""
        seen = {id(loss)}
        stack = [loss]
        ops = leaves = 0
        while stack:
            node = stack.pop()
            if node._parents:
                ops += 1
            else:
                leaves += 1
            for p in node._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        stage = self.stage() or "other"
        self.tape[(self.op_id, stage, "steps")] += 1
        self.tape[(self.op_id, stage, "op_nodes")] += ops
        self.tape[(self.op_id, stage, "leaf_nodes")] += leaves

    def install(self, modules: dict) -> "Patches":
        """Patch every traced name; ``modules`` maps short names to modules."""
        patches = Patches()
        for mod, attr, name in _MODULE_FUNCS:
            patches.set(modules[mod], attr, self.wrap(name, getattr(modules[mod], attr)))
        for mod, cls_name, attr, name in _METHODS:
            cls = getattr(modules[mod], cls_name)
            patches.set(cls, attr, self.wrap(name, getattr(cls, attr)))

        mlp_call = modules["networks"].Mlp.__call__
        head_call = self.wrap("networks.head", mlp_call)

        def mlp_wrapper(mlp, x):
            if mlp.layers[0].name.startswith("head"):
                return head_call(mlp, x)
            return mlp_call(mlp, x)

        patches.set(modules["networks"].Mlp, "__call__", mlp_wrapper)

        tensor_cls = modules["tensor"].Tensor
        backward = self.wrap("tensor.backward", tensor_cls.backward)
        tracer = self

        def backward_wrapper(loss):
            tracer.begin("bench.tape_walk")
            try:
                tracer.count_tape(loss)
            finally:
                tracer.end()
            return backward(loss)

        patches.set(tensor_cls, "backward", backward_wrapper)
        return patches

    # -- aggregation -----------------------------------------------------

    def self_times(self, op_id) -> dict:
        """Self seconds and call count per span name within one operation."""
        spans = [s for s in self.spans if s[5] == op_id]
        child_cover = defaultdict(float)
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                child_cover[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for span_id, name, start, end, _, _ in spans:
            entry = out[name]
            entry[0] += (end - start) - child_cover[span_id]
            entry[1] += 1
        return dict(out)

    def total_times(self, op_id) -> dict:
        """Inclusive seconds per span name within one operation."""
        out = defaultdict(float)
        for _, name, start, end, _, op in self.spans:
            if op == op_id:
                out[name] += end - start
        return dict(out)

    def write(self, path: str) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
