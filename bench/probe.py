"""Host-speed probe: scales measured times to a reference speed.

The host this benchmark was built on changes speed by up to 1.75x, in
spells that last from seconds to minutes, because other tenants share its
cores. A spell can cover every operation of a run, so medians over a run
do not average it out. A fixed piece of the benchmark's own
work, timed just before and just after each measured interval, tracks the
host's speed at that moment; dividing by it cancels most of the drift.

The probe mimics the program's cost profile: a small define-by-run tape of
Python objects over small numpy arrays, then a backward sweep. It never
calls survstrat, so no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

# probe seconds on the reference host in its fast state; the scaled times
# read as seconds on that host
REFERENCE_S = 0.05
_REPS = 500

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((256, 16))
_WEIGHTS = [_rng.standard_normal(shape) * 0.3 for shape in ((16, 32), (32, 32), (32, 8))]


class _Node:
    __slots__ = ("value", "parents", "op")

    def __init__(self, value, parents=(), op="leaf"):
        self.value = value
        self.parents = parents
        self.op = op


def probe() -> float:
    """Seconds taken by a fixed amount of tape-building and backward work."""
    start = time.perf_counter()
    for _ in range(_REPS):
        h = _Node(_X)
        tape = []
        for w in _WEIGHTS:
            wn = _Node(w)
            m = _Node(h.value @ w, (h, wn), "matmul")
            h = _Node(np.maximum(m.value, 0.0), (m,), "relu")
            tape += [m, h]
            if not np.all(np.isfinite(h.value)):
                raise ArithmeticError("probe overflowed")
        grad = 2.0 * h.value
        for node in reversed(tape):
            if node.op == "relu":
                grad = grad * (node.parents[0].value > 0.0)
            else:
                grad = grad @ node.parents[1].value.T
    return time.perf_counter() - start


class ScaledTimer:
    """Wall time of an interval, and the same time at the reference speed.

    Probes taken inside a measured interval (for a nested interval) are
    not counted in the outer one.
    """

    def __init__(self):
        self.probes = []          # every probe time, for the run record
        self._probing = 0.0
        probe()                   # the first pass pays one-off costs

    def _probe(self) -> float:
        seconds = probe()
        self.probes.append(seconds)
        self._probing += seconds
        return seconds

    def time(self, fn, *args):
        """Run ``fn(*args)``; return its result, wall seconds and scaled seconds."""
        before = self._probe()
        probing = self._probing
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start - (self._probing - probing)
        after = self._probe()
        return result, wall, wall * REFERENCE_S / ((before + after) / 2.0)
