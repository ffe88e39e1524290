"""Three-stage training: joint pretraining, cluster initialization, and
end-to-end refinement with self-paced filtering and per-epoch reassignment.

Stage 1 minimizes reconstruction + KL + survival loss. Stage 2 clusters the
eval-mode latent codes and freezes the resulting centers. Stage 3 optimizes
the self-paced curriculum loss plus contrastive and survival terms, pulling
latents toward the frozen centers while cluster assignments are refreshed
from the full training set after every epoch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import clustering, losses, metrics
from .config import ExperimentConfig
from .errors import DataError, NumericError, UsageError
from .metrics import TimeGrid, build_time_grid, concordance_index, expected_event_time
from .networks import Model
from .tensor import Adam, Tensor, no_tape, weighted_sum

LOG_COLUMNS = (
    "epoch", "stage", "loss_total", "loss_rec", "loss_kld", "loss_clus",
    "loss_spl", "loss_cl", "loss_surv", "lambda_spl", "admitted_frac",
    "val_c_index",
)
_STAGE_NAMES = {1: "pretraining", 3: "stage 3"}
# rows per eval-mode forward in encode and predict: bounds their working memory
CHUNK_ROWS = 4096


@dataclass
class TrainData:
    """Preprocessed arrays plus the time grid fitted on the training rows."""

    X: np.ndarray
    t: np.ndarray
    e: np.ndarray
    grid: TimeGrid
    bins: np.ndarray
    X_val: np.ndarray | None = None
    t_val: np.ndarray | None = None
    e_val: np.ndarray | None = None


@dataclass
class TrainState:
    """A fitted model: what scoring reads (model, config, grid, centers and
    the training distribution), plus what only training reads (optimizer,
    assignments, logs), which a loaded checkpoint leaves empty."""

    model: Model
    config: ExperimentConfig
    grid: TimeGrid
    optimizer: Adam | None = None
    centers: list = field(default_factory=list)       # frozen (K, d) centers, one per view
    assignments: list = field(default_factory=list)   # current cluster ids, one per view
    logs: list = field(default_factory=list)
    train_times: np.ndarray | None = None
    train_events: np.ndarray | None = None


def prepare_training_data(X, t, e, n_bins, X_val=None, t_val=None, e_val=None) -> TrainData:
    X = np.asarray(X, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64).ravel()
    e = np.asarray(e, dtype=np.int64).ravel()
    grid = build_time_grid(t, e, n_bins)
    data = TrainData(X=X, t=t, e=e, grid=grid, bins=grid.bin_of(t))
    if X_val is not None:
        data.X_val = np.asarray(X_val, dtype=np.float64)
        data.t_val = np.asarray(t_val, dtype=np.float64).ravel()
        data.e_val = np.asarray(e_val, dtype=np.int64).ravel()
    return data


def spl_threshold(per_instance, epoch: int, max_epochs: int) -> float:
    """Adaptive admission threshold: mean + (e / E_max) * population std."""
    vals = np.asarray(per_instance, dtype=np.float64).ravel()
    if vals.size == 0:
        raise UsageError("cannot compute a threshold over zero losses")
    if max_epochs < 1:
        raise UsageError("max_epochs must be >= 1")
    return float(vals.mean() + (epoch / max_epochs) * vals.std())


def spl_filter(per_instance, threshold: float) -> np.ndarray:
    """Admission mask: the losses at or below ``threshold``.

    The admitted set is never empty: the minimum is always <= the mean, and
    the threshold is never below the mean.
    """
    vals = np.asarray(per_instance, dtype=np.float64).ravel()
    mask = vals <= threshold
    if not mask.any():
        mask = vals <= vals.min()
    return mask


def _training_rng(seed: int) -> np.random.Generator:
    # spawn_key distinct from the model's own children of the same entropy
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1 << 20,)))


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def _encode_views(model: Model, x: Tensor, train: bool, rng, views: int = 2):
    outs = [model.encode(x, view=1, train=train, rng=rng)]
    if model.config.siamese and views == 2:
        outs.append(model.encode(x, view=2, train=train, rng=rng))
    return outs


def _scalar(v) -> float:
    """A logged term (1x1 tensor, number, or None when absent) as a float."""
    return float(v.values[0, 0]) if isinstance(v, Tensor) else float(v or 0.0)


def _run_step(state: TrainState, data: TrainData, rng, idx, step) -> dict:
    """One optimizer step on the rows ``idx``; returns the logged terms as floats.

    A function of its own so that the step's graph (values, gradients and the
    backward closures with the activations they hold) is freed when it
    returns, before the next step's forward runs.
    """
    # the previous step's parameter gradients go before this step's forward
    state.optimizer.zero_grad()
    x = Tensor(data.X[idx])
    outs = _encode_views(state.model, x, train=True, rng=rng)
    total, terms = step(idx, x, outs)
    total.backward()
    state.optimizer.step()
    terms["loss_total"] = total
    return {k: _scalar(v) for k, v in terms.items()}


def _run_epoch(state: TrainState, data: TrainData, rng, epoch: int, stage: int, step) -> dict:
    """One optimizer pass over shuffled batches; appends and returns the log row.

    ``step(idx, x, outs)`` gets the batch rows, features and train-mode
    encodings and returns the loss and a dict of terms the row averages.
    """
    sums = {}
    n_batches = 0
    for idx in _batches(data.X.shape[0], state.config.batch_size, rng):
        try:
            terms = _run_step(state, data, rng, idx, step)
        except NumericError as exc:
            raise NumericError(f"{_STAGE_NAMES[stage]} aborted at epoch {epoch}: {exc}")
        for k, v in terms.items():
            sums[k] = sums.get(k, 0.0) + v
        n_batches += 1
    row = {c: "" for c in LOG_COLUMNS}
    row.update(epoch=epoch, stage=stage)
    row.update({k: v / n_batches for k, v in sums.items()})
    state.logs.append(row)
    return row


def _view_mean(pairs):
    """Average (scalar, per-instance) loss pairs over the views."""
    return tuple(weighted_sum([(p, 1.0) for p in parts], 1.0 / len(parts)) for parts in zip(*pairs))


def _rec_and_kld(model: Model, x: Tensor, outs):
    rec, rec_i = _view_mean(
        [losses.loss_rec(x, model.decode(out.z, view=v + 1)) for v, out in enumerate(outs)]
    )
    if not model.config.variational:
        return rec, rec_i, None, None
    kld, kld_i = _view_mean([losses.loss_kld(out.mu, out.log_var) for out in outs])
    return rec, rec_i, kld, kld_i


def _survival_loss(dist, bins, events, weights) -> Tensor:
    """NLL + beta * ranking."""
    nll = losses.loss_nll(dist, bins, events)
    rank = losses.loss_rank(dist, bins, events, weights.sigma_rank)
    return weighted_sum([(nll, 1.0), (rank, weights.beta)])


def pretrain(data: TrainData, config: ExperimentConfig) -> TrainState:
    """Stage 1: minimize rec + KL + survival for pretrain_epochs epochs;
    every per-cluster head trains on the whole batch and their losses are averaged."""
    config.validate()
    n = data.X.shape[0]
    if n < config.n_clusters:
        # stage 2 would refuse it, after every pretraining epoch had run
        raise UsageError(f"need at least K={config.n_clusters} points, got {n}")
    model = Model(config, data.X.shape[1], data.grid.n_bins)
    model.initialize()
    state = TrainState(
        model=model, config=config, grid=data.grid,
        optimizer=Adam(model.flat, [t for _, t in model.parameters()], lr=config.learning_rate),
        train_times=data.t.copy(), train_events=data.e.copy(),
    )
    rng = _training_rng(config.seed)
    w = config.weights

    def step(idx, x, outs):
        rec, _, kld, _ = _rec_and_kld(model, x, outs)
        h = model.survival_input(x, outs)
        dists = [model.survival_forward(h, np.full(len(idx), k)) for k in range(len(model.heads))]
        survs = [_survival_loss(d, data.bins[idx], data.e[idx], w) for d in dists]
        surv = weighted_sum([(s, 1.0) for s in survs], 1.0 / len(survs))
        kld_term = [] if kld is None else [(kld, w.alpha_kld)]
        total = weighted_sum([(rec, w.alpha_rec), (surv, w.alpha_surv)] + kld_term)
        return total, {"loss_rec": rec, "loss_kld": kld, "loss_surv": surv}

    for epoch in range(1, config.pretrain_epochs + 1):
        _run_epoch(state, data, rng, epoch, 1, step)
    return state


def init_clusters(state: TrainState, data: TrainData) -> TrainState:
    """Stage 2: cluster eval-mode latents per view and freeze the centers."""
    config = state.config
    state.centers = []
    state.assignments = []
    n_views = 2 if config.siamese else 1
    for view in range(1, n_views + 1):
        latents = state.model.latents(data.X, view=view)
        centers, assignments = clustering.fit(latents, config.clustering, config.n_clusters,
                                              seed=config.seed)
        state.centers.append(centers)
        state.assignments.append(assignments)
    return state


def _contrastive_loss(outs, events, batch_assignments, centers, config) -> Tensor:
    """alpha_ivcg * IVCG (summed over the views) + alpha_iviw * IVIW +
    alpha_ivcw * IVCW, over the terms of nonzero weight; zero without one."""
    w = config.weights
    terms = []
    if w.alpha_ivcg:
        parts = [(losses.loss_ivcg(out.z, events, batch_assignments[v], w.tau), 1.0)
                 for v, out in enumerate(outs)]
        terms.append((weighted_sum(parts), w.alpha_ivcg))
    if len(outs) == 2:
        if w.alpha_iviw:
            terms.append((losses.loss_iviw(outs[0].z, outs[1].z, w.tau), w.alpha_iviw))
        if w.alpha_ivcw:
            q1 = losses.soft_assign_tensor(outs[0].z, centers[0], config.nu)
            q2 = losses.soft_assign_tensor(outs[1].z, centers[1], config.nu)
            terms.append((losses.loss_ivcw(q1, q2, w.tau), w.alpha_ivcw))
    return weighted_sum(terms) if terms else Tensor(np.zeros((1, 1)))


def _curriculum_losses(model: Model, x: Tensor, outs, assignments, centers, weights):
    """Scalar rec, KL and cluster terms plus the per-instance curriculum loss."""
    rec, rec_i, kld, kld_i = _rec_and_kld(model, x, outs)
    clus, clus_i = _view_mean(
        [losses.loss_clus(out.z, centers[v], assignments[v]) for v, out in enumerate(outs)]
    )
    kld_term = [] if kld_i is None else [(kld_i, weights.alpha_kld)]
    per_instance = weighted_sum([(rec_i, weights.alpha_rec), (clus_i, weights.alpha_clus)] + kld_term)
    return rec, kld, clus, per_instance


def _dataset_spl_threshold(state, data, epoch, max_epochs):
    """Full-dataset eval-mode per-instance loss statistics, for spl_scope=dataset."""
    x = Tensor(data.X)
    with no_tape():
        outs = _encode_views(state.model, x, train=False, rng=None)
        *_, per = _curriculum_losses(state.model, x, outs, state.assignments, state.centers,
                                     state.config.weights)
    return spl_threshold(per.values, epoch, max_epochs)


def _reassign(state: TrainState, data: TrainData) -> None:
    """Nearest-center assignments of the full training set, per view."""
    for v, c in enumerate(state.centers):
        state.assignments[v] = clustering.assign_nearest(
            state.model.latents(data.X, view=v + 1), c
        )


def validation_c_index(state: TrainState, data: TrainData) -> float | None:
    """Validation C-index; None (no signal) without rows or comparable pairs."""
    if data.X_val is None or data.X_val.shape[0] == 0:
        return None
    pred = predict(state, data.X_val)
    try:
        return concordance_index(pred["risk"], data.t_val, data.e_val)
    except DataError:
        return None


def train_stage3(state: TrainState, data: TrainData) -> TrainState:
    """Stage 3: SPL + contrastive + survival, with per-epoch reassignment."""
    config = state.config
    if state.optimizer is None or len(state.assignments) != (2 if config.siamese else 1):
        raise UsageError("train_stage3 needs an optimizer and one assignment list per view: "
                         "a state from pretrain and init_clusters, not a loaded checkpoint")
    w = config.weights
    model = state.model
    rng = _training_rng(config.seed + 1)
    best_c = -np.inf
    best_flat = None
    stale = 0

    # step reads the current `epoch` and `lam_dataset` of the loop below
    def step(idx, x, outs):
        batch_assign = [a[idx] for a in state.assignments]
        rec, kld, clus, per_instance = _curriculum_losses(
            model, x, outs, batch_assign, state.centers, w
        )
        lam = lam_dataset if lam_dataset is not None else spl_threshold(
            per_instance.values, epoch, config.max_epochs
        )
        mask = spl_filter(per_instance.values, lam)
        l_spl = per_instance.mean(mask=mask.astype(np.float64)[:, None])
        l_cl = _contrastive_loss(outs, data.e[idx], batch_assign, state.centers, config)
        ids = batch_assign[config.routing_view - 1]
        dist = model.survival_forward(model.survival_input(x, outs), cluster_ids=ids)
        l_surv = _survival_loss(dist, data.bins[idx], data.e[idx], w)
        total = weighted_sum([(l_spl, w.alpha_spl), (l_cl, w.alpha_cl), (l_surv, w.alpha_surv)])
        return total, {
            "loss_rec": rec, "loss_kld": kld, "loss_clus": clus, "loss_spl": l_spl,
            "loss_cl": l_cl, "loss_surv": l_surv, "lambda_spl": lam,
            "admitted_frac": float(mask.mean()),
        }

    for epoch in range(1, config.max_epochs + 1):
        if config.heads == "per-cluster":
            counts = np.bincount(
                state.assignments[config.routing_view - 1], minlength=config.n_clusters
            )
            for k in np.flatnonzero(counts == 0):
                warnings.warn(
                    f"cluster {k} has no training instances in epoch {epoch}; "
                    "its head receives no updates"
                )
        lam_dataset = None
        if config.spl_scope == "dataset":
            lam_dataset = _dataset_spl_threshold(state, data, epoch, config.max_epochs)
        row = _run_epoch(state, data, rng, epoch, 3, step)
        _reassign(state, data)
        val_c = validation_c_index(state, data)
        row["val_c_index"] = "" if val_c is None else val_c
        if config.early_stopping and val_c is not None:
            if val_c > best_c:
                best_c = val_c
                best_flat = model.flat.copy()
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
    if best_flat is not None:
        model.flat[...] = best_flat
        _reassign(state, data)
    return state


def fit(data: TrainData, config: ExperimentConfig) -> TrainState:
    """All three stages in order; deterministic given the config seed."""
    state = pretrain(data, config)
    state = init_clusters(state, data)
    state = train_stage3(state, data)
    return state


def _eval_chunk(state: TrainState, X: np.ndarray, heads: bool) -> dict:
    """``encode``'s outputs for the rows of one chunk; a function of its own so
    that the chunk's intermediates are freed before the next chunk runs."""
    model = state.model
    x = Tensor(X)
    # without the heads, only view 1's latents and the routing view's labels are read
    outs = _encode_views(model, x, train=False, rng=None, views=2 if heads else state.config.routing_view)
    part = {}
    if state.centers:
        view = state.config.routing_view
        part["labels"] = clustering.assign_nearest(
            outs[view - 1].mu.values, state.centers[view - 1])
    if heads:
        # shared heads ignore the labels; per-cluster heads route by them
        dist = model.survival_forward(model.survival_input(x, outs), cluster_ids=part.get("labels"))
        part.update(survival=dist.survival.values,
                    risk=-expected_event_time(dist.probs.values, state.grid))
    else:
        part["latents"] = outs[0].mu.values
    return part


def encode(state: TrainState, X, heads: bool = False) -> dict:
    """Untaped eval-mode forward, ``CHUNK_ROWS`` rows at a time, each chunk
    written into the outputs as it is done: cluster labels (None without
    cluster centers) and view 1's latent means or, with ``heads``, the
    survival heads' ``survival`` and ``risk`` instead of the latents."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = {"labels": None}
    with no_tape():
        # an empty X still runs one (empty) chunk
        for start in range(0, max(len(X), 1), CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            for k, v in _eval_chunk(state, X[rows], heads).items():
                if out.get(k) is None:
                    out[k] = np.empty((len(X), *v.shape[1:]), v.dtype)
                out[k][rows] = v
    return out


def predict(state: TrainState, X) -> dict:
    """Eval-mode prediction: cluster labels, survival at the grid edges, risk = -E[T]."""
    return encode(state, X, heads=True)


def score(state: TrainState, pred: dict, t, e, require_pairs: bool = True) -> dict:
    """C-index and IBS of one ``predict`` output, with censoring weights from
    the training data. Without comparable pairs the C-index is undefined: a
    DataError, or nan when ``require_pairs`` is off."""
    try:
        c = concordance_index(pred["risk"], t, e)
    except DataError:
        if require_pairs:
            raise
        c = float("nan")
    ibs = metrics.integrated_brier_score(pred["survival"], state.grid, t, e,
                                         state.train_times, state.train_events)
    return {"c_index": c, "ibs": ibs}


def evaluate(state: TrainState, X, t, e) -> dict:
    """Test-time metrics: ``score`` of ``predict``."""
    return score(state, predict(state, X), t, e)


def format_epoch_log(logs) -> str:
    """Machine-readable epoch log: one comma-separated line per epoch."""
    lines = [",".join(LOG_COLUMNS)]
    for row in logs:
        lines.append(",".join(repr(row[c]) if row[c] != "" else "" for c in LOG_COLUMNS))
    return "\n".join(lines) + "\n"
