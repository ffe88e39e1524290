"""Output checks for the benchmark's CLI calls.

Each check returns a list of problems; an empty list means the output is
correct. The C-index here is the benchmark's own implementation, so a bug
shared by the program and its tests cannot hide.
"""

from __future__ import annotations

import numpy as np


def harrell_c(risk, times, events) -> float:
    """Harrell's C over pairs with e_i = 1 and t_i < t_j; risk ties score half.

    A sweep over distinct times, latest first, keeps a Fenwick tree of the
    risk ranks of every row seen so far, i.e. of every row that outlived
    the current time.
    """
    risk = np.asarray(risk, dtype=np.float64).ravel()
    times = np.asarray(times, dtype=np.float64).ravel()
    events = np.asarray(events).ravel()
    ranks = np.unique(risk, return_inverse=True)[1] + 1
    tree = [0] * (int(ranks.max()) + 1)

    def prefix(k):
        total = 0
        while k > 0:
            total += tree[k]
            k -= k & -k
        return total

    order = np.argsort(-times, kind="stable")
    uniq_desc, starts = np.unique(-times[order], return_index=True)
    bounds = list(starts) + [times.size]
    seen = 0
    less = ties = pairs = 0
    for g in range(len(uniq_desc)):
        block = order[bounds[g]:bounds[g + 1]]
        for i in block:
            if events[i] == 1:
                below = prefix(int(ranks[i]) - 1)
                upto = prefix(int(ranks[i]))
                less += below
                ties += upto - below
                pairs += seen
        for i in block:
            k = int(ranks[i])
            while k < len(tree):
                tree[k] += 1
                k += k & -k
        seen += block.size
    if pairs == 0:
        raise ValueError("no comparable pairs")
    return (less + 0.5 * ties) / pairs


def parse_report(text: str) -> dict:
    """``key: value`` lines, as the CLI prints them."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def check_curves(path: str, key_col: int, value_col: int) -> list:
    """Every curve in a delimited file is non-increasing and within [0, 1]."""
    curves = {}
    with open(path) as fh:
        next(fh)
        for line in fh:
            cols = line.rstrip("\n").split(",")
            curves.setdefault(cols[key_col], []).append(float(cols[value_col]))
    problems = []
    if not curves:
        problems.append(f"{path}: no curves")
    for key, values in curves.items():
        v = np.asarray(values)
        if not np.all((v >= 0.0) & (v <= 1.0)):
            problems.append(f"{path}: curve {key} leaves [0, 1]")
        if np.any(np.diff(v) > 1e-12):
            problems.append(f"{path}: curve {key} increases")
    return problems


def check_stratify(out_dir: str, n_rows: int) -> list:
    """latents.csv has one row per cohort row, KM curves and p-values are valid."""
    problems = []
    with open(f"{out_dir}/latents.csv") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != n_rows:
        problems.append(f"latents.csv has {rows} rows, cohort has {n_rows}")
    problems += check_curves(f"{out_dir}/km_clusters.csv", 0, 2)
    with open(f"{out_dir}/logrank.txt") as fh:
        lines = fh.read().splitlines()
    if not lines:
        problems.append("logrank.txt is empty")
    for line in lines:
        p = float(line.rsplit("p_value: ", 1)[1])
        if not 0.0 <= p <= 1.0:
            problems.append(f"log-rank p-value {p} outside [0, 1]")
    return problems


def check_c_index(reported: float, expected: float, what: str) -> list:
    if abs(reported - expected) > 1e-12:
        return [f"{what}: c_index {reported!r} differs from the benchmark's {expected!r}"]
    return []
