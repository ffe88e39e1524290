"""Command-line surface: train, evaluate, hyperparameter search, stratify.

Every command is deterministic given its seed, config, and data. Outputs are
plain delimited or key-value text meant for external plotting tools.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import combinations, repeat

import numpy as np

from . import data as data_mod
from . import floatfmt, trainer
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig, _is_int, _is_number
from .errors import ConfigurationError, DataError, SurvstratError, UsageError, read_json
from .metrics import interpolate_curve, kaplan_meier, log_rank_test

DEFAULT_BUDGET = 50


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems through the package error type."""

    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on the first call and shared by later ones:
    a parse leaves no state on it, and the handlers are looked up in ``main``."""
    parser = _Parser(prog="survstrat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model on one split")
    p_train.add_argument("--config", required=True, help="experiment config JSON")
    p_train.add_argument("--seed", type=int, default=None, help="override config seed")
    p_train.add_argument("--split", type=int, default=1, help="split number, 1-based")
    p_train.add_argument("--data", default=None, help="dataset CSV path")
    p_train.add_argument("--splits-file", default=None, help="reuse persisted splits")
    p_train.add_argument("--with-replacement", action="store_true",
                         help="bootstrap-resample each training block")
    p_train.add_argument("--out", default="run", help="output directory")

    p_eval = sub.add_parser("evaluate", help="score a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True, help="dataset CSV path")
    p_eval.add_argument("--split", type=int, default=None,
                        help="restrict to one split (1-based; default: all rows), re-drawn "
                             "from the checkpoint's seed without resampling unless "
                             "--splits-file is given (pass run/splits.txt for a run "
                             "trained with --splits-file or --with-replacement)")
    p_eval.add_argument("--role", choices=("train", "val", "test"), default=None,
                        help="rows of the selected split to score (default test)")
    p_eval.add_argument("--splits-file", default=None)
    p_eval.add_argument("--curves", default=None,
                        help="write per-cluster mean survival curves to this CSV")
    p_eval.add_argument("--out", default=None, help="also write metrics.txt here")

    p_hpo = sub.add_parser("hpo", help="random hyperparameter search")
    p_hpo.add_argument("--space", required=True, help="search-space JSON")
    p_hpo.add_argument("--budget", type=int, default=None,
                       help=f"number of trials (default {DEFAULT_BUDGET})")
    p_hpo.add_argument("--jobs", type=int, default=1, help="parallel trials")
    p_hpo.add_argument("--seed", type=int, default=0)
    p_hpo.add_argument("--data", default=None, help="dataset CSV path")
    p_hpo.add_argument("--with-replacement", action="store_true")
    p_hpo.add_argument("--rank-per-split", action="store_true",
                       help="rank trials within each split before summing, "
                            "instead of ranking the across-split means")
    p_hpo.add_argument("--out", default="hpo", help="output directory")

    p_strat = sub.add_parser("stratify", help="export cluster survival analyses")
    p_strat.add_argument("--checkpoint", required=True)
    p_strat.add_argument("--data", required=True)
    p_strat.add_argument("--out", required=True, help="output directory")
    return parser


def format_report(fields: dict) -> str:
    lines = []
    for key, value in fields.items():
        if isinstance(value, float):
            value = repr(float(value))
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _resolve_schema(config: ExperimentConfig) -> data_mod.Schema:
    if config.dataset_preset:
        return data_mod.Schema.from_preset(config.dataset_preset)
    if config.schema_file:
        return data_mod.Schema.from_file(config.schema_file)
    raise ConfigurationError(
        "config needs either dataset_preset or schema_file to describe the data"
    )


def _resolve_data_path(config: ExperimentConfig, data_arg: str | None) -> str:
    if data_arg:
        return data_arg
    if config.dataset_preset:
        return os.path.join("data", f"{config.dataset_preset}.csv")
    raise UsageError("--data is required when the config has no dataset preset")


def _dataset_name(config: ExperimentConfig, data_path: str) -> str:
    if config.dataset_preset:
        return config.dataset_preset
    return os.path.splitext(os.path.basename(data_path))[0]


def _load_table(data_path: str, schema: data_mod.Schema) -> data_mod.RawTable:
    """``load_csv``, with a file left without rows a DataError naming it."""
    table = data_mod.load_csv(data_path, schema)
    if table.n_rows == 0:
        raise DataError(f"data file {data_path}: no row has both a time and an event")
    return table


def _split_set(data_path: str, n_rows: int, seed: int, splits_file: str | None = None,
               with_replacement: bool = False) -> data_mod.SplitSet:
    """The splits of a data file's rows: read from ``splits_file``, else drawn
    from ``seed``, where too few rows to draw them is a DataError naming the file."""
    if splits_file:
        return data_mod.load_splits(splits_file, n_rows)
    try:
        return data_mod.make_splits(n_rows, seed, with_replacement=with_replacement)
    except UsageError as exc:
        raise DataError(f"data file {data_path}: {exc}") from None


def _split_for(split_set: data_mod.SplitSet, number: int) -> dict:
    if not 1 <= number <= len(split_set.splits):
        raise UsageError(
            f"split {number} is out of range 1..{len(split_set.splits)}"
        )
    return split_set.splits[number - 1]


def _fit_one_split(table, config, split):
    """``(state, X, transforms)`` of a fit on ``split``; ``X`` holds every row."""
    X, transforms = data_mod.preprocess(table, split["train"])
    t, e = table.time, table.event
    tr, va = split["train"], split["val"]
    data = trainer.prepare_training_data(
        X[tr], t[tr], e[tr], config.n_bins, X[va], t[va], e[va]
    )
    return trainer.fit(data, config), X, transforms


def cmd_train(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config.seed = args.seed
    config.validate()
    schema = _resolve_schema(config)
    data_path = _resolve_data_path(config, args.data)
    table = _load_table(data_path, schema)
    split_set = _split_set(data_path, table.n_rows, config.seed, args.splits_file, args.with_replacement)
    split = _split_for(split_set, args.split)
    state, X, transforms = _fit_one_split(table, config, split)
    te, va = split["test"], split["val"]
    test = trainer.evaluate(state, X[te], table.time[te], table.event[te])
    # a validation split without comparable pairs reports val_c_index: nan
    val = trainer.score(state, trainer.predict(state, X[va]), table.time[va],
                        table.event[va], require_pairs=False)
    report = format_report({
        "dataset": _dataset_name(config, data_path),
        "split": args.split,
        "c_index": test["c_index"],
        "ibs": test["ibs"],
        "val_c_index": val["c_index"],
        "val_ibs": val["ibs"],
        "seed": config.seed,
        "config_hash": config.config_hash(),
    })
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(state, os.path.join(args.out, "checkpoint.json"), transforms,
                    {"time": schema.time, "event": schema.event})
    with open(os.path.join(args.out, "epochs.csv"), "w") as fh:
        fh.write(trainer.format_epoch_log(state.logs))
    data_mod.save_splits(split_set, os.path.join(args.out, "splits.txt"))
    with open(os.path.join(args.out, "metrics.txt"), "w") as fh:
        fh.write(report)
    sys.stdout.write(report)
    return 0


def _load_for_checkpoint(ck, data_path: str):
    """``(time, event, X)`` of a CSV parsed and transformed as the checkpointed
    model expects: with the feature columns and kinds the checkpoint recorded,
    none inferred anew. The parsed table is freed on return."""
    # a file written before the time and event columns were stored names them by its config
    roles = ck.columns or vars(_resolve_schema(ck.state.config))
    kinds = {col: tr["kind"] for col, tr in ck.transforms.items()}
    table = _load_table(data_path, data_mod.Schema(roles["time"], roles["event"], kinds))
    X, _ = data_mod.apply_transforms(table, ck.transforms)
    return table.time, table.event, X


def _write_group_curves(path: str, state, survival: np.ndarray, labels) -> None:
    """Mean interpolated survival per group; interpolation is linear in the
    knots, so the mean curve is interpolated once."""
    ts = np.linspace(0.0, state.grid.horizon, 101)
    groups = np.unique(labels).tolist()
    means = [interpolate_curve(survival[labels == g].mean(axis=0), state.grid, ts) for g in groups]
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write("time,survival,group\n")
        floatfmt.write_csv(fh, [np.tile(ts, len(groups)), np.concatenate(means), np.repeat(groups, ts.size)])


def cmd_evaluate(args) -> int:
    if args.role and args.split is None and not args.splits_file:
        raise UsageError("--role needs --split or --splits-file")
    ck = load_checkpoint(args.checkpoint)
    t, e, X = _load_for_checkpoint(ck, args.data)
    if args.split is None and args.splits_file:
        args.split = 1
    if args.split is not None:
        split_set = _split_set(args.data, len(t), ck.state.config.seed, args.splits_file)
        idx = _split_for(split_set, args.split)[args.role or "test"]
        X, t, e = X[idx], t[idx], e[idx]
    pred = trainer.predict(ck.state, X)
    metrics = trainer.score(ck.state, pred, t, e)
    report = format_report({
        "dataset": _dataset_name(ck.state.config, args.data),
        "split": "all" if args.split is None else args.split,
        "c_index": metrics["c_index"],
        "ibs": metrics["ibs"],
        "seed": ck.state.config.seed,
        "config_hash": ck.state.config.config_hash(),
    })
    if args.curves:
        _write_group_curves(args.curves, ck.state, pred["survival"], pred["labels"])
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "metrics.txt"), "w") as fh:
            fh.write(report)
    sys.stdout.write(report)
    return 0


def load_search_space(path: str) -> dict:
    space = read_json(path, "search-space file")
    rules = space.get("space") if isinstance(space, dict) else None
    if not isinstance(rules, dict) or not rules:
        raise ConfigurationError("search space needs a non-empty 'space' mapping")
    for name, rule in rules.items():
        kind = rule.get("type") if isinstance(rule, dict) else None
        if kind == "choice":
            if not isinstance(rule.get("values"), list) or not rule["values"]:
                raise ConfigurationError(
                    f"search space {name!r}: empty choices; 'values' must be a non-empty list"
                )
        elif kind in ("uniform", "log_uniform", "int_range"):
            low, high = rule.get("low"), rule.get("high")
            if not (_is_number(low) and _is_number(high) and low < high):
                raise ConfigurationError(
                    f"search space {name!r}: needs numeric bounds low < high"
                )
            if kind == "log_uniform" and low <= 0:
                raise ConfigurationError(
                    f"search space {name!r}: log_uniform needs positive bounds"
                )
            if kind == "uniform" and not _is_number(float(high) - float(low)):
                raise ConfigurationError(f"search space {name!r}: range high - low overflows")
            if kind == "int_range" and not (_is_int(low) and _is_int(high)
                                            and -2 ** 63 <= low and high < 2 ** 63):
                raise ConfigurationError(
                    f"search space {name!r}: int_range needs integer bounds within int64"
                )
        else:
            raise ConfigurationError(
                f"search space {name!r}: unknown type {kind!r}; use choice, "
                "uniform, log_uniform, or int_range"
            )
    # a dotted name sets a nested key; every key on its way must be an object
    base = space.get("base", {})
    for name in rules:
        parts = name.split(".")
        node = base if isinstance(base, dict) else {}
        for i, part in enumerate(parts[:-1], 1):
            prefix = ".".join(parts[:i])
            if prefix in rules:
                raise ConfigurationError(f"search space names both {prefix!r} and {name!r}")
            node = node.get(part, {})
            if not isinstance(node, dict):
                raise ConfigurationError(f"search space {name!r}: base {prefix!r} is not an object")
    budget = space.get("budget")
    if budget is not None and not (_is_int(budget) and budget >= 1):
        raise ConfigurationError(f"budget must be an integer >= 1, got {budget!r}")
    return space


def _set_dotted(d: dict, key: str, value) -> None:
    parts = key.split(".")
    for part in parts[:-1]:
        d = d.setdefault(part, {})
    d[parts[-1]] = value


def sample_trials(space: dict, budget: int, seed: int) -> list:
    """Pre-sample every trial's config dict so results cannot depend on
    scheduling; one rng consumed in trial order."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    base = space.get("base", {})
    trials = []
    for _ in range(budget):
        d = json.loads(json.dumps(base))
        for name, rule in space["space"].items():
            kind = rule["type"]
            if kind == "choice":
                value = rule["values"][int(rng.integers(len(rule["values"])))]
            elif kind == "uniform":
                value = float(rng.uniform(rule["low"], rule["high"]))
            elif kind == "log_uniform":
                value = float(np.exp(rng.uniform(
                    np.log(float(rule["low"])), np.log(float(rule["high"]))
                )))
            else:
                value = int(rng.integers(rule["low"], rule["high"] + 1))
            _set_dotted(d, name, value)
        trials.append(d)
    return trials


def _run_trial(index, config_dict, table, splits):
    """One trial: fit on every split, return per-split validation and test
    metrics. Runs in a worker process, so a SurvstratError comes back as a
    failed trial; any other exception is a bug and propagates."""
    try:
        config = ExperimentConfig.from_dict(config_dict)
        config.validate()
        result = {"trial": index, "config": config_dict,
                  "config_hash": config.config_hash(),
                  "val_c": [], "val_ibs": [], "test_c": [], "test_ibs": []}
        for split in splits:
            state, X, _ = _fit_one_split(table, config, split)
            va, te = split["val"], split["test"]
            val = trainer.evaluate(state, X[va], table.time[va], table.event[va])
            test = trainer.evaluate(state, X[te], table.time[te], table.event[te])
            result["val_c"].append(val["c_index"])
            result["val_ibs"].append(val["ibs"])
            result["test_c"].append(test["c_index"])
            result["test_ibs"].append(test["ibs"])
        return result
    except SurvstratError as exc:
        return {"trial": index, "config": config_dict, "error": f"{type(exc).__name__}: {exc}"}


def average_ranks(values, descending: bool) -> np.ndarray:
    """1-based ranks; tied (``==``) values share the average of their
    positions, so -0.0 ties 0.0 and a NaN ties nothing."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(-values if descending else values, kind="stable")
    ordered = values[order]
    # a run of ties starts wherever a value differs from the one before it
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size] - 1
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def rank_leaderboard(results: list, per_split: bool = False) -> list:
    """Rank-sum over validation C-index (descending) and IBS (ascending);
    ties broken by mean C-index, then by trial order.

    Default mode averages each metric across splits before ranking.
    per_split ranks trials within every split and sums those ranks, a
    sensitivity alternative when split difficulty varies a lot."""
    ok = [r for r in results if "error" not in r]
    if not ok:
        raise ConfigurationError(
            "all trials failed:\n  - " + "\n  - ".join(
                f"trial {r['trial']}: {r['error']}" for r in results
            )
        )
    # trials x splits; per_split ranks every column, the default the means
    c = np.array([r["val_c"] for r in ok], dtype=np.float64)
    ibs = np.array([r["val_ibs"] for r in ok], dtype=np.float64)
    mean_c, mean_ibs = c.mean(axis=1), ibs.mean(axis=1)
    columns = zip(c.T, ibs.T) if per_split else [(mean_c, mean_ibs)]
    # ranks are multiples of 0.5, so every order of summing them is exact
    rank_sum = sum(average_ranks(col_c, descending=True) + average_ranks(col_ibs, descending=False)
                   for col_c, col_ibs in columns)
    order = sorted(
        range(len(ok)), key=lambda i: (rank_sum[i], -mean_c[i], ok[i]["trial"])
    )
    board = []
    for pos, i in enumerate(order, start=1):
        board.append({
            "position": pos,
            "trial": ok[i]["trial"],
            "rank_sum": float(rank_sum[i]),
            "val_c_index": float(mean_c[i]),
            "val_ibs": float(mean_ibs[i]),
            "config_hash": ok[i]["config_hash"],
            "result": ok[i],
        })
    return board


# a failed trial records its error as "<class name>: <message>"
_ERRORS = {cls.__name__: cls for cls in (SurvstratError, *SurvstratError.__subclasses__())}


def cmd_hpo(args) -> int:
    space = load_search_space(args.space)
    budget = args.budget if args.budget is not None else space.get("budget", DEFAULT_BUDGET)
    if budget < 1:
        raise UsageError(f"budget must be >= 1, got {budget}")
    if args.jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {args.jobs}")
    if args.seed < 0:
        raise UsageError(f"seed must be non-negative, got {args.seed}")
    base = ExperimentConfig.from_dict(space.get("base", {}))
    base.validate()
    schema = _resolve_schema(base)
    data_path = _resolve_data_path(base, args.data)
    table = _load_table(data_path, schema)
    split_set = _split_set(data_path, table.n_rows, args.seed, with_replacement=args.with_replacement)
    trials = sample_trials(space, budget, args.seed)
    trial_args = (range(budget), trials, repeat(table), repeat(split_set.splits))
    if args.jobs == 1:
        results = list(map(_run_trial, *trial_args))
    else:
        # imported here: only hpo uses the pool, and the import costs every command
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_trial, *trial_args))
    results.sort(key=lambda r: r["trial"])
    # every trial failing with the same fault is that fault, as ``train`` reports it
    fault = results[0].get("error")
    if fault and all(r.get("error") == fault for r in results):
        name, _, message = fault.partition(": ")
        raise _ERRORS[name](message)
    board = rank_leaderboard(results, per_split=args.rank_per_split)
    winner = board[0]
    wr = winner["result"]
    os.makedirs(args.out, exist_ok=True)
    data_mod.save_splits(split_set, os.path.join(args.out, "splits.txt"))
    with open(os.path.join(args.out, "leaderboard.csv"), "w") as fh:
        fh.write("position,trial,rank_sum,val_c_index,val_ibs,config_hash\n")
        for row in board:
            fh.write(
                f"{row['position']},{row['trial']},{row['rank_sum']!r},"
                f"{row['val_c_index']!r},{row['val_ibs']!r},{row['config_hash']}\n"
            )
    with open(os.path.join(args.out, "trials.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    with open(os.path.join(args.out, "winner.json"), "w") as fh:
        json.dump(wr["config"], fh, indent=1)
    summary = format_report({
        "winner_trial": winner["trial"],
        "winner_config_hash": winner["config_hash"],
        "val_c_index": winner["val_c_index"],
        "val_ibs": winner["val_ibs"],
        "test_c_index_mean": float(np.mean(wr["test_c"])),
        "test_c_index_std": float(np.std(wr["test_c"])),
        "test_ibs_mean": float(np.mean(wr["test_ibs"])),
        "test_ibs_std": float(np.std(wr["test_ibs"])),
        "n_trials": len(results),
        "n_failed": sum(1 for r in results if "error" in r),
        "seed": args.seed,
    })
    with open(os.path.join(args.out, "summary.txt"), "w") as fh:
        fh.write(summary)
    sys.stdout.write(summary)
    return 0


def standardized_mean_differences(X: np.ndarray, labels, names) -> list:
    """Per-feature one-vs-rest standardized mean difference, largest cluster
    contrast per feature, ranked descending by magnitude."""
    labels = np.asarray(labels).ravel()
    masks = [(inside, ~inside) for inside in (labels == g for g in np.unique(labels))]
    out = []
    for j, name in enumerate(names):
        col = X[:, j]
        best = 0.0
        for inside, outside in masks:
            a, b = col[inside], col[outside]
            if a.size == 0 or b.size == 0:
                continue
            denom = np.sqrt((a.var() + b.var()) / 2.0)
            smd = abs(a.mean() - b.mean()) / max(denom, 1e-12)
            best = max(best, smd)
        out.append((name, float(best)))
    out.sort(key=lambda kv: (-kv[1], kv[0]))
    return out


def cmd_stratify(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    if ck.state.config.n_clusters < 2:
        raise UsageError("the checkpoint has a single cluster; nothing to stratify")
    t, e, X = _load_for_checkpoint(ck, args.data)
    enc = trainer.encode(ck.state, X)
    labels = enc["labels"]
    latents = enc["latents"]
    populated, sizes = np.unique(labels, return_counts=True)
    populated = populated.tolist()
    if len(populated) < 2:
        raise UsageError(
            "every row fell into one cluster on this data; nothing to stratify"
        )
    masks = {g: labels == g for g in populated}
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "latents.csv"), "w") as fh:
        fh.write("index," + ",".join(f"z{k}" for k in range(latents.shape[1]))
                 + ",cluster,time,event\n")
        floatfmt.write_csv(fh, [np.arange(len(labels)), *latents.T, labels, t, e])
    with open(os.path.join(args.out, "km_clusters.csv"), "w") as fh:
        fh.write("cluster,time,survival\n")
        curves = {g: kaplan_meier(t[mask], e[mask]) for g, mask in masks.items()}
        # the (cluster, time, survival) columns of every curve, each starting at (0, 1)
        parts = [(np.full(c.times.size + 1, g), np.r_[0.0, c.times], np.r_[1.0, c.probs])
                 for g, c in curves.items()]
        floatfmt.write_csv(fh, [np.concatenate(column) for column in zip(*parts)])
    lines = []
    for a, b in combinations(populated, 2):
        pair = masks[a] | masks[b]
        stat, p = log_rank_test(labels[pair], t[pair], e[pair])
        lines.append((a, b, stat, p))
    with open(os.path.join(args.out, "logrank.txt"), "w") as fh:
        for a, b, stat, p in lines:
            fh.write(
                f"clusters {a} vs {b}: chi_square: {float(stat)!r} "
                f"p_value: {float(p)!r}\n"
            )
    smd = standardized_mean_differences(X, labels, data_mod.column_names(ck.transforms))
    with open(os.path.join(args.out, "smd.csv"), "w") as fh:
        fh.write("feature,smd\n")
        for name, value in smd:
            fh.write(f"{name},{value!r}\n")
    summary = format_report({
        "clusters": len(populated),
        "sizes": " ".join(f"{g}:{n}" for g, n in zip(populated, sizes.tolist())),
        "chi_square": lines[0][2],
        "p_value": lines[0][3],
        "top_feature": smd[0][0] if smd else "",
    })
    sys.stdout.write(summary)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "train": cmd_train,
            "evaluate": cmd_evaluate,
            "hpo": cmd_hpo,
            "stratify": cmd_stratify,
        }[args.command]
        return handler(args)
    except (SurvstratError, OSError) as exc:
        # an OSError is a path that cannot be read or written, e.g. --out naming a file
        sys.stderr.write(f"error: {exc}\n")
        return getattr(exc, "exit_code", 1)


if __name__ == "__main__":
    sys.exit(main())
