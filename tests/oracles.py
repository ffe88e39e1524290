"""Independently coded reference implementations used to cross-check metrics.

These deliberately use slow, explicit scalar loops so they share no code
paths (vectorization, sorting tricks, searchsorted) with the library. Two
exceptions repeat the library's arithmetic so that it must match them
exactly: the GMM's EM reference, which reproduces ``gmm_fit`` while keeping
the per-iteration state the fit discards, ``ibs_where_blocks``, the IBS
in its earlier layout, and ``average_ranks_loop``, the hpo ranks in their
earlier loop. The composed tape graphs at the end are the
references for the library's fused nodes: the same functions built from
elementary tensor ops, with the same arithmetic in the same order.
"""

import csv
import math
import warnings
from bisect import bisect_left, bisect_right, insort

import numpy as np

from survstrat.clustering import _VAR_FLOOR, GMM_MAX_ITER, GMM_TOL, kmeans_fit
from survstrat.data import RawTable
from survstrat.errors import ConfigurationError, DataError
from survstrat.losses import _paired_nce
from survstrat.metrics import kaplan_meier
from survstrat.tensor import Tensor

from reftape import RefTensor, lift


def cindex_bruteforce(risk, times, events):
    """All-pairs enumeration of Harrell's estimator."""
    pairs, score = 0, 0.0
    n = len(times)
    for i in range(n):
        if events[i] != 1:
            continue
        for j in range(n):
            if times[i] < times[j]:
                pairs += 1
                if risk[i] > risk[j]:
                    score += 1.0
                elif risk[i] == risk[j]:
                    score += 0.5
    return score / pairs


def cindex_sweep(risk, times, events):
    """Harrell's estimator by a sweep over the distinct times, latest first:
    each event row bisects the sorted risks of the rows that outlived its
    tied-time block, and the block is inserted only after it is queried.
    Quadratic only through ``insort``'s memmoves, so it is the oracle that
    stays fast enough at tens of thousands of rows."""
    risk = np.asarray(risk, dtype=np.float64).ravel()
    times = np.asarray(times, dtype=np.float64).ravel()
    events = np.asarray(events).ravel()
    order = np.argsort(-times, kind="stable")
    bounds = np.unique(-times[order], return_index=True)[1].tolist() + [times.size]
    r = risk[order].tolist()
    dead = (events[order] == 1).tolist()
    outlived = []
    less = ties = pairs = 0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        for i in range(lo, hi):
            if dead[i]:
                below = bisect_left(outlived, r[i])
                less += below
                ties += bisect_right(outlived, r[i]) - below
                pairs += lo
        for x in r[lo:hi]:
            insort(outlived, x)
    if pairs == 0:
        raise DataError("concordance undefined: no comparable pairs")
    return float((less + 0.5 * ties) / pairs)


def km_scan(times, events, query):
    """Sequential product-limit evaluation at a single query time."""
    surv = 1.0
    for t in sorted(set(times)):
        if t > query:
            break
        at_risk = sum(1 for x in times if x >= t)
        deaths = sum(1 for x, e in zip(times, events) if x == t and e == 1)
        surv *= (at_risk - deaths) / at_risk
    return surv


def reg_upper_gamma_half(x):
    """Q(1/2, x) through the lower-gamma power series."""
    a = 0.5
    term = 1.0 / a
    total = term
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= x / (a + n)
        total += term
    return 1.0 - math.exp(-x) * x ** a * total / math.gamma(a)


def ibs_direct(surv, grid, times, events, censor_times, censor_events):
    """Per-patient direct summation with explicit trapezoid arithmetic."""
    n = len(times)
    horizon = grid.edges[-1]
    pts = [horizon * k / 99 for k in range(100)]
    g_times = sorted(set(censor_times))
    g_vals = []
    s = 1.0
    for t in g_times:
        at_risk = sum(1 for x in censor_times if x >= t)
        censored_here = sum(
            1 for x, e in zip(censor_times, censor_events) if x == t and e == 0
        )
        s *= (at_risk - censored_here) / at_risk
        g_vals.append(s)

    def g_at(q, strict_before=False):
        out = 1.0
        for t, v in zip(g_times, g_vals):
            if (t < q) if strict_before else (t <= q):
                out = v
            else:
                break
        return out

    x_knots = [0.0] + list(grid.edges)
    bs = []
    for t in pts:
        total = 0.0
        for i in range(n):
            y_knots = [1.0] + list(surv[i])
            s_it = float(np.interp(t, x_knots, y_knots))
            if times[i] <= t and events[i] == 1:
                total += s_it ** 2 / g_at(times[i], strict_before=True)
            elif times[i] > t:
                total += (1.0 - s_it) ** 2 / g_at(t)
        bs.append(total / n)
    area = sum((bs[k] + bs[k + 1]) / 2.0 * (pts[k + 1] - pts[k]) for k in range(99))
    return area / horizon


def ibs_where_blocks(surv, grid, times, events, censor_times=None, censor_events=None,
                     n_points: int = 100):
    """The integrated Brier score as the library first vectorized it: every
    term of 16 points at a time from one nested ``np.where``, then the
    ``(points, n)`` row means. It repeats the library's per-element
    arithmetic, so the blocked, in-place library must equal it exactly, and
    raises the library's DataError when fewer than two points are left."""
    surv = np.asarray(surv, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64).ravel()
    events = np.asarray(events).ravel()
    if censor_times is None:
        censor_times, censor_events = times, events
    censor_times = np.asarray(censor_times, dtype=np.float64).ravel()
    censor_events = np.asarray(censor_events).ravel()
    G = kaplan_meier(censor_times, 1 - censor_events)
    pts = np.linspace(0.0, grid.horizon, n_points)
    Gt = np.asarray(G.evaluate(pts))
    if np.any(Gt <= 0.0):
        kept = np.nonzero(Gt > 0.0)[0]
        if kept.size < 2:
            raise DataError("censoring survival is zero at t=0 or at every later grid point")
        last = int(kept[-1])
        warnings.warn(
            "censoring survival reaches zero before the horizon; "
            f"integrating over [0, {pts[last]:g}] instead"
        )
        pts, Gt = pts[: last + 1], Gt[: last + 1]
    x = np.concatenate(([0.0], grid.edges))
    k = np.minimum(np.searchsorted(x, pts, side="right") - 1, grid.n_bins - 1)
    w = ((pts - x[k]) / (x[k + 1] - x[k]))[:, None]
    knots = np.vstack([np.ones(times.size), surv.T])
    dead = events == 1
    g_event = np.maximum(np.asarray(G.evaluate_before(times)), 1e-300)
    bs = np.empty(pts.size)
    for lo in range(0, pts.size, 16):
        b = slice(lo, lo + 16)
        s_t = knots[k[b]] * (1.0 - w[b]) + knots[k[b] + 1] * w[b]
        t = pts[b, None]
        bs[b] = np.where(
            (times <= t) & dead, s_t ** 2 / g_event,
            np.where(times > t, (1.0 - s_t) ** 2 / Gt[b, None], 0.0),
        ).mean(axis=1)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(bs, pts) / pts[-1])


def logrank_direct(labels, times, events):
    """Two-group log-rank statistic and p-value by a scalar loop over the
    distinct event times; the first group is the smallest label."""
    first = min(labels)
    observed = expected = variance = 0.0
    for t in sorted({x for x, e in zip(times, events) if e == 1}):
        n = n_a = d = 0
        for lab, x, e in zip(labels, times, events):
            if x >= t:
                n += 1
                n_a += lab == first
            if x == t and e == 1:
                d += 1
                observed += lab == first
        expected += d * n_a / n
        if n > 1:
            variance += d * (n_a / n) * (1.0 - n_a / n) * (n - d) / (n - 1)
    if variance <= 0.0:
        return 0.0, 1.0
    stat = (observed - expected) ** 2 / variance
    return stat, reg_upper_gamma_half(stat / 2.0)


def rank_pairwise(survival, bins, events, sigma):
    """Ranking penalty and its gradient with respect to the survival matrix,
    by a loop over every comparable pair (e_i = 1, bin_i < bin_j) of the
    dense formula sum exp((S_i(b_i) - S_j(b_i)) / sigma) / n_pairs."""
    n_rows, n_bins = len(survival), len(survival[0])
    grad = [[0.0] * n_bins for _ in range(n_rows)]
    total, pairs = 0.0, 0
    for i in range(n_rows):
        if events[i] != 1:
            continue
        b = bins[i]
        for j in range(n_rows):
            if bins[j] > b:
                pairs += 1
                term = math.exp((survival[i][b] - survival[j][b]) / sigma)
                total += term
                grad[i][b] += term / sigma
                grad[j][b] -= term / sigma
    if pairs == 0:
        return 0.0, np.zeros((n_rows, n_bins))
    return total / pairs, np.asarray(grad) / pairs


def ivcg_pairwise(z, events, assignments, tau):
    """Cluster-guided InfoNCE by a loop over (censored anchor, uncensored
    same-cluster positive) pairs, with the denominator over the whole batch."""
    n = len(z)
    unit = [np.asarray(row) / max(math.sqrt(sum(x * x for x in row)), 1e-12) for row in z]
    sims = [[float(unit[i] @ unit[j]) / tau for j in range(n)] for i in range(n)]
    total, n_cens, pairs = 0.0, 0, 0
    for i in range(n):
        if events[i] != 0:
            continue
        n_cens += 1
        lse = math.log(sum(math.exp(s) for s in sims[i]))
        for j in range(n):
            if events[j] == 1 and assignments[j] == assignments[i]:
                pairs += 1
                total += lse - sims[i][j]
    return total / n_cens if pairs else 0.0


CSV_MISSING_TOKENS = {"", "na", "nan", "none", "null", "?"}


def average_ranks_loop(values, descending: bool) -> np.ndarray:
    """``cli.average_ranks`` as a loop over each run of ``==`` values in
    stable sorted order: -0.0 ties 0.0 and a NaN ties nothing."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(-values if descending else values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _parse_float_row(token: str, row: int, col: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise DataError(f"row {row}, column '{col}': cannot parse '{token}' as a number")


def load_csv_rows(path, schema):
    """Row-by-row CSV reader: every token is stripped, tested for a missing
    marker and parsed on its own, in row order, so the first faulty row
    raises. The reference for the column-wise ``survstrat.data.load_csv``."""
    try:
        fh = open(path, newline="")
    except FileNotFoundError:
        raise DataError(f"data file not found: {path}")
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty")
        rows = list(reader)

    col_index = {name: i for i, name in enumerate(header)}
    for required in (schema.time, schema.event):
        if required not in col_index:
            raise DataError(f"column '{required}' not found in {path}")
    if schema.features is None:
        feature_order = [c for c in header if c not in (schema.time, schema.event)]
        kinds = {c: None for c in feature_order}
    else:
        feature_order = list(schema.features)
        kinds = dict(schema.features)
        for col in feature_order:
            if col not in col_index:
                raise DataError(f"column '{col}' not found in {path}")

    times, events = [], []
    features = {c: [] for c in feature_order}
    dropped = []
    for r, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataError(f"row {r} has {len(row)} fields, the header has {len(header)}")
        t_tok = row[col_index[schema.time]].strip()
        e_tok = row[col_index[schema.event]].strip()
        if t_tok.lower() in CSV_MISSING_TOKENS or e_tok.lower() in CSV_MISSING_TOKENS:
            dropped.append(r)
            continue
        t = _parse_float_row(t_tok, r, schema.time)
        if t <= 0:
            raise DataError(f"row {r}: time must be positive, got {t}")
        e = _parse_float_row(e_tok, r, schema.event)
        if e not in (0.0, 1.0):
            raise DataError(f"row {r}: event flag must be 0 or 1, got {e_tok}")
        times.append(t)
        events.append(int(e))
        for col in feature_order:
            tok = row[col_index[col]].strip()
            if tok.lower() in CSV_MISSING_TOKENS:
                features[col].append(None)
            elif kinds[col] == "numeric":
                features[col].append(_parse_float_row(tok, r, col))
            else:
                features[col].append(tok)

    # infer kinds for auto-discovered feature columns
    for col in feature_order:
        if kinds[col] is not None:
            continue
        vals = [v for v in features[col] if v is not None]
        try:
            features[col] = [None if v is None else float(v) for v in features[col]]
            kinds[col] = "numeric"
        except (ValueError, TypeError):
            kinds[col] = "categorical"
        if not vals:
            kinds[col] = "numeric"

    # finiteness is checked on whole columns; a missing numeric (None) is nan
    # here and allowed, a parsed nan or +-inf is not
    time = np.asarray(times, dtype=np.float64)
    numeric = [c for c in feature_order if kinds[c] == "numeric"]
    for col, vals in [(schema.time, time)] + [
        (c, np.asarray(features[c], dtype=np.float64)) for c in numeric
    ]:
        bad = [i for i in np.flatnonzero(~np.isfinite(vals))
               if col == schema.time or features[col][i] is not None]
        if bad:
            line = np.setdiff1d(np.arange(2, len(rows) + 2), dropped)[bad[0]]
            raise DataError(f"row {line}, column '{col}': value {vals[bad[0]]} is not finite")

    if dropped:
        warnings.warn(f"dropped {len(dropped)} rows with missing time or event")
    for col in numeric:
        features[col] = np.asarray(features[col], dtype=np.float64)
    return RawTable(
        time=time,
        event=np.asarray(events, dtype=np.int64),
        features=features,
        kinds=kinds,
    )


# -- clustering ---------------------------------------------------------------


def soft_assign(Z, centers, nu: float = 1.0):
    """Student's-t kernel soft assignments, each row normalized to 1:
    q_ik = (1 + ||z_i - m_k||^2 / nu)^(-(nu+1)/2) / sum over k.
    The reference for ``survstrat.losses.soft_assign_tensor``."""
    Z, centers = np.asarray(Z, dtype=np.float64), np.asarray(centers, dtype=np.float64)
    d = ((Z[:, None, :] - centers[None]) ** 2).sum(axis=2)
    kernel = (1.0 + d / nu) ** (-(nu + 1.0) / 2.0)
    return kernel / kernel.sum(axis=1, keepdims=True)


def gmm_em_reference(Z, K: int, seed: int):
    """``gmm_fit``'s EM from the same ``kmeans_fit`` start, returning the
    means, the argmax assignments, the final variances and every
    iteration's log-likelihood."""
    Z = np.asarray(Z, dtype=np.float64)
    n = len(Z)
    means, labels = kmeans_fit(Z, K, seed)
    variances = np.maximum(np.vstack([
        Z[labels == k].var(axis=0) if (labels == k).any() else Z.var(axis=0) for k in range(K)
    ]), _VAR_FLOOR)
    weights = np.bincount(labels, minlength=K) / n
    log_likelihoods = []
    for _ in range(GMM_MAX_ITER):
        log_weighted = -0.5 * (
            ((Z[:, None, :] - means[None]) ** 2 / variances[None]).sum(axis=2)
            + np.log(2.0 * np.pi * variances).sum(axis=1)[None, :]
        ) + np.log(np.maximum(weights, 1e-300))[None, :]
        m = log_weighted.max(axis=1, keepdims=True)
        log_norm = m + np.log(np.exp(log_weighted - m).sum(axis=1, keepdims=True))
        resp = np.exp(log_weighted - log_norm)
        ll = float(log_norm.sum())
        log_likelihoods.append(ll)
        if len(log_likelihoods) > 1 and abs(ll - log_likelihoods[-2]) < GMM_TOL * max(1.0, abs(ll)):
            break
        nk = resp.sum(axis=0)
        weights = nk / n
        means = (resp.T @ Z) / nk[:, None]
        variances = np.maximum((resp.T @ (Z ** 2)) / nk[:, None] - means ** 2, _VAR_FLOOR)
    return means, np.argmax(resp, axis=1), variances, log_likelihoods


# -- composed tape graphs ---------------------------------------------------


def relu(x: Tensor) -> Tensor:
    """max(x, 0); gradient passes only where x > 0."""
    return lift(x).clamp_min(0.0)


def mlp_composed(x: Tensor, layers, relu_last: bool = False) -> Tensor:
    """``mlp`` as one matmul, add and relu node per layer."""
    h = lift(x)
    for i, (W, b) in enumerate(layers):
        h = h.matmul(W) + b
        if i < len(layers) - 1 or relu_last:
            h = relu(h)
    return h


def logsumexp_rows(x: Tensor) -> Tensor:
    """Row-wise log(sum(exp(x))) -> (N,1), computed with the max-shift trick."""
    a = x
    m = a.values.max(axis=1, keepdims=True)
    e = np.exp(a.values - m)
    s = e.sum(axis=1, keepdims=True)
    values = m + np.log(s)

    def backward_fn(grad):
        a._accumulate(grad * (e / s))

    return RefTensor._from_op(values, (a,), "logsumexp_rows", backward_fn)


def row_norms(x: Tensor) -> Tensor:
    """Row-wise Euclidean norms -> (N,1)."""
    x = lift(x)
    sq = (x * x).sum(axis=1)
    a = sq
    values = np.sqrt(a.values)

    def backward_fn(grad):
        with np.errstate(divide="ignore", invalid="ignore"):
            d = grad * 0.5 / values
        d = np.where(values > 0.0, d, 0.0)
        a._accumulate(d)

    return RefTensor._from_op(values, (a,), "sqrt", backward_fn)


def unit_rows(x: Tensor) -> Tensor:
    """Rows scaled to unit Euclidean norm; norms are floored at 1e-12."""
    x = lift(x)
    return x / row_norms(x).clamp_min(1e-12)


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cosine-similarity matrix (N,M) between rows of a and rows of b."""
    if a.shape[1] != b.shape[1]:
        raise ConfigurationError(f"cosine_similarity: column counts differ, {a.shape} vs {b.shape}")
    return unit_rows(a).matmul(unit_rows(b).transpose())


def paired_nce_composed(a: Tensor, b: Tensor, tau: float) -> Tensor:
    """Symmetric InfoNCE pairing row i of ``a`` with row i of ``b``."""
    an, bn = unit_rows(a), unit_rows(b)
    sims = an.matmul(bn.transpose()) * (1.0 / tau)
    diag = (an * bn).sum(axis=1) * (1.0 / tau)
    forward = logsumexp_rows(sims) - diag
    backward = logsumexp_rows(sims.T) - diag
    return (forward + backward).sum() * (1.0 / a.values.shape[0])


def ivcg_composed(z: Tensor, events, assignments, tau: float) -> Tensor:
    """Cluster-guided InfoNCE: n_pos(i) * lse_i summed over censored anchors,
    minus the per-cluster (censored u) . (uncensored u) / tau, over n_cens."""
    return ivcg_of_units(unit_rows(z), events, assignments, tau)


def ivcg_of_units(u: RefTensor, events, assignments, tau: float) -> Tensor:
    """``ivcg_composed`` after the row normalisation, as a graph of the unit
    rows ``u``: its gradient is the loss's d/du."""
    events = np.asarray(events).ravel()
    assignments = np.asarray(assignments).ravel()
    n = events.size
    censored = events == 0
    uncensored = events == 1
    n_cens = int(censored.sum())
    _, cluster = np.unique(assignments, return_inverse=True)
    n_pos = censored * np.bincount(cluster, weights=uncensored)[cluster]
    if n_cens == 0 or n_pos.sum() == 0:
        return RefTensor(np.zeros((1, 1)))
    anchor_groups = np.zeros((cluster.max() + 1, n))
    anchor_groups[cluster[censored], np.flatnonzero(censored)] = 1.0
    positive_groups = np.zeros((cluster.max() + 1, n))
    positive_groups[cluster[uncensored], np.flatnonzero(uncensored)] = 1.0
    lse = logsumexp_rows(u.matmul(u.T) * (1.0 / tau))
    positives = ((RefTensor(anchor_groups) @ u) * (RefTensor(positive_groups) @ u)).sum()
    total = (lse * RefTensor(n_pos[:, None])).sum() - positives * (1.0 / tau)
    return total * (1.0 / n_cens)


def nll_composed(dist, bins, events, floor: float = 1e-12) -> Tensor:
    """Discrete-time NLL picking log p and log S through one-hot n x T masks."""
    bins = np.asarray(bins, dtype=np.int64).ravel()
    events = np.asarray(events).ravel()
    n, t_plus_1 = dist.probs.values.shape
    event_mask = np.zeros((n, t_plus_1))
    surv_mask = np.zeros((n, t_plus_1 - 1))
    rows = np.arange(n)
    died = events == 1
    event_mask[rows[died], bins[died]] = 1.0
    surv_mask[rows[~died], bins[~died]] = 1.0
    log_p = lift(dist.probs).clamp_min(floor).log()
    log_s = lift(dist.survival).clamp_min(floor).log()
    picked = (RefTensor(event_mask) * log_p).sum() + (RefTensor(surv_mask) * log_s).sum()
    return picked * (-1.0 / n)


def rank_composed(dist, bins, events, sigma: float) -> Tensor:
    """The O(n*T) ranking penalty built from masked elementwise tape ops."""
    bins = np.asarray(bins, dtype=np.int64).ravel()
    events = np.asarray(events).ravel()
    n, n_bins = dist.survival.values.shape
    later = n - np.cumsum(np.bincount(bins, minlength=n_bins))
    anchors = np.flatnonzero((events == 1) & (later[bins] > 0))
    if anchors.size == 0:
        return RefTensor(np.zeros((1, 1)))
    n_pairs = float(later[bins[anchors]].sum())
    is_later = bins[:, None] > np.arange(n_bins)[None, :]
    x = lift(dist.survival) * (-1.0 / sigma)
    shift = np.where(is_later, x.values, -np.inf).max(axis=0, keepdims=True)
    shift[:, later == 0] = 0.0
    y = x - RefTensor(shift)
    mask = RefTensor(is_later.astype(np.float64))
    terms = (y * mask).exp() * mask
    log_r = (terms.sum(axis=0) + RefTensor((later == 0)[None, :].astype(np.float64))).log()
    at_bin = np.zeros((n, n_bins))
    at_bin[anchors, bins[anchors]] = 1.0
    exponent = ((log_r - y) * RefTensor(at_bin)).sum(axis=1)
    is_anchor = np.zeros((n, 1))
    is_anchor[anchors] = 1.0
    return (exponent.exp() * RefTensor(is_anchor)).sum() * (1.0 / n_pairs)


def squared_distances(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise squared Euclidean distance matrix (N,K) between rows."""
    if a.shape[1] != b.shape[1]:
        raise ConfigurationError(f"squared_distances: column counts differ, {a.shape} vs {b.shape}")
    a, b = lift(a), lift(b)
    a2 = (a * a).sum(axis=1)            # (N,1)
    b2 = (b * b).sum(axis=1).transpose()  # (1,K)
    cross = a.matmul(b.transpose())     # (N,K)
    d = a2 - 2.0 * cross + b2
    # tiny negatives from cancellation are clipped to zero
    return d.clamp_min(0.0)


def mean_composed(a: Tensor, axis=None, mask=None) -> Tensor:
    """``Tensor.mean`` as a sum node times 1/n, or the masked sum over the kept count."""
    a = lift(a)
    if mask is not None:
        return (a * RefTensor(mask)).sum() * (1.0 / mask.sum())
    return a.sum(axis=axis) * (1.0 / (a.values.size if axis is None else a.shape[axis]))


def weighted_sum_composed(terms, scale: float = 1.0) -> Tensor:
    """``weighted_sum`` as one mul node per term, a chain of adds and a final mul."""
    total = lift(terms[0][0]) * terms[0][1]
    for t, w in terms[1:]:
        total = total + lift(t) * w
    return total * scale


def rec_composed(x, x_hat: Tensor):
    """``loss_rec``: the residual, its square and row sums, then their mean."""
    target = x if isinstance(x, Tensor) else RefTensor(np.asarray(x, dtype=np.float64))
    diff = lift(x_hat) - target
    per_instance = (diff * diff).sum(axis=1)
    return per_instance.mean(), per_instance


def kld_composed(mu: Tensor, log_var: Tensor):
    """``loss_kld``: 0.5 * row sums of mu^2 + exp(log_var) - 1 - log_var."""
    mu, log_var = lift(mu), lift(log_var)
    inner = mu * mu + log_var.exp() - 1.0 - log_var
    per_instance = inner.sum(axis=1) * 0.5
    return per_instance.mean(), per_instance


def clus_composed(z: Tensor, centers, assignments):
    """``loss_clus``: squared distances to the gathered assigned centers."""
    assigned = np.asarray(centers, dtype=np.float64)[np.asarray(assignments, dtype=np.int64)]
    diff = lift(z) - RefTensor(assigned)
    per_instance = (diff * diff).sum(axis=1)
    return per_instance.mean(), per_instance


def soft_assign_composed(z: Tensor, centers, nu: float = 1.0) -> Tensor:
    """``soft_assign_tensor`` through ``squared_distances``, log, exp and a row division."""
    d2 = squared_distances(z, RefTensor(np.asarray(centers, dtype=np.float64)))
    base = d2 * (1.0 / nu) + 1.0
    unnorm = (base.log() * (-(nu + 1.0) / 2.0)).exp()
    return unnorm / unnorm.sum(axis=1)


def reparameterize_composed(mu: Tensor, log_var: Tensor, rng, eps=None):
    """``networks.reparameterize`` as mul, exp, mul and add nodes."""
    if eps is None:
        eps = rng.standard_normal(mu.values.shape)
    return lift(mu) + (lift(log_var) * 0.5).exp() * RefTensor(eps), eps


def survival_curve_composed(probs: Tensor, cum) -> Tensor:
    """``networks.survival_curve``: a matmul node and a subtraction from 1."""
    return 1.0 - lift(probs) @ RefTensor(cum)


def ivcw_transposed(q1: Tensor, q2: Tensor, tau: float) -> Tensor:
    """``loss_ivcw`` through two transpose nodes into the row-wise InfoNCE node."""
    return _paired_nce(lift(q1).T, lift(q2).T, tau)
