"""Dense 2-D float64 tensors with reverse-mode automatic differentiation.

Graphs are built define-by-run: every node records its parents and a
backward closure on the fly, so the tape is rebuilt on each forward pass.
The nodes are the fused operations the model runs on, each a numpy forward
with one hand-written backward: ``mlp`` (a stack of affine layers and
relus), ``concat_cols``, ``take_rows``, ``scatter_rows``, ``softmax_rows``,
``weighted_sum`` and ``Tensor.mean`` here, and the losses and network glue
that ``losses`` and ``networks`` build with ``Tensor._from_op``. ``Tensor``
has no general elementwise or matrix algebra; the elementary graphs these
nodes replaced are composed in the tests, on a reference tape that
subclasses ``Tensor``.

``backward()`` must be called on a 1x1 (scalar) tensor; gradients accumulate
into ``.grad`` buffers until they are explicitly reset (the optimizer's
``zero_grad`` clears them before each backward pass).

Every node validates that its output is finite; a NaN/Inf result is
reported as a :class:`NumericError` naming the op. Under ``no_tape()`` a
node records no parents and no backward closure, so it keeps no input alive.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ConfigurationError, NumericError, UsageError


def _as_matrix(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ConfigurationError(f"tensors are 2-D; got ndim={arr.ndim}")
    return arr


_taping = True


@contextlib.contextmanager
def no_tape():
    """Build no tape inside the block (process-local); restored on every exit."""
    global _taping
    saved, _taping = _taping, False
    try:
        yield
    finally:
        _taping = saved


class Tensor:
    """A 2-D float64 value, optionally tracked for autodiff."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward_fn", "_op")

    def __init__(self, values, requires_grad: bool = False):
        self.values = _as_matrix(values)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.values) if requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None
        self._op = "leaf"

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _from_op(cls, values: np.ndarray, parents: tuple["Tensor", ...], op: str,
                 backward_fn) -> "Tensor":
        if not np.isfinite(values).all():
            raise NumericError(f"non-finite output in op '{op}'")
        out = cls.__new__(cls)
        out.values = values
        needs = _taping and any(p.requires_grad for p in parents)
        out.requires_grad = needs
        out.grad = None
        out._parents = parents if needs else ()
        out._backward_fn = backward_fn if needs else None
        out._op = op
        return out

    # -- introspection -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def _accumulate(self, delta: np.ndarray) -> None:
        # out of place: a backward may hand one array to several parents
        if self.grad is None:
            self.grad = delta
        else:
            self.grad = self.grad + delta

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    # -- backward ------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from this scalar; accumulates into .grad buffers."""
        if self.shape != (1, 1):
            raise UsageError(f"backward requires a scalar (1x1) loss, got {self.shape}")
        # Iterative topological sort: each recorded node visited exactly once.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            # leaves have no backward to run; they only receive gradients
            for p in node._parents:
                if p._parents and id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones((1, 1)))
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)

    # -- reduction -----------------------------------------------------------

    def mean(self, axis: int | None = None, mask: np.ndarray | None = None) -> "Tensor":
        """Mean over all entries or along ``axis``, as one node; with a 0/1
        ``mask`` of this shape, the mean over all the entries it keeps."""
        a = self
        if mask is None:
            kept, scale = a.values, 1.0 / (a.values.size if axis is None else a.shape[axis])
        else:
            kept, scale = a.values * mask, 1.0 / mask.sum()
        values = kept.sum(axis=axis, keepdims=True) * scale

        def backward_fn(grad):
            delta = np.broadcast_to(grad * scale, a.shape)
            a._accumulate(delta if mask is None else delta * mask)

        return Tensor._from_op(values, (a,), "mean", backward_fn)


# -- module-level structured ops --------------------------------------------


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Column-wise concatenation [a | b] of two tensors with equal row counts."""
    if a.shape[0] != b.shape[0]:
        raise ConfigurationError(f"concat_cols: row counts differ, {a.shape} vs {b.shape}")
    na = a.shape[1]
    values = np.concatenate([a.values, b.values], axis=1)

    def backward_fn(grad):
        if a.requires_grad:
            a._accumulate(grad[:, :na])
        if b.requires_grad:
            b._accumulate(grad[:, na:])

    return Tensor._from_op(values, (a, b), "concat_cols", backward_fn)


def mlp(x: Tensor, layers, relu_last: bool = False) -> Tensor:
    """Chained affine maps ``h @ W + b`` over the ``(W, b)`` pairs in ``layers``
    as one node, with relu after every layer but the last (and after the last
    too when ``relu_last``); a one-layer stack is named ``linear``."""
    last = len(layers) - 1
    op = "mlp" if last else "linear"
    hs = [x.values]
    # an overflow in any layer is an error, also where a relu would clip it
    try:
        with np.errstate(over="raise", invalid="raise"):
            for i, (W, b) in enumerate(layers):
                if hs[-1].shape[1] != W.shape[0]:
                    raise ConfigurationError(f"linear: inner dims differ, {hs[-1].shape} @ {W.shape}")
                out = hs[-1] @ W.values
                out += b.values
                if i < last or relu_last:
                    np.maximum(out, 0.0, out=out)
                hs.append(out)
    except FloatingPointError:
        raise NumericError(f"non-finite output in op '{op}'")

    def backward_fn(grad):
        for i in range(last, -1, -1):
            W, b = layers[i]
            if i < last:
                # grad is this backward's own matmul output, so mask it in place
                grad *= hs[i + 1] > 0.0
            elif relu_last:
                grad = grad * (hs[i + 1] > 0.0)
            if W.requires_grad:
                W._accumulate(hs[i].T @ grad)
            if b.requires_grad:
                b._accumulate(grad.sum(axis=0, keepdims=True))
            if i or x.requires_grad:
                grad = grad @ W.values.T
        if x.requires_grad:
            x._accumulate(grad)

    parents = (x, *(p for layer in layers for p in layer))
    return Tensor._from_op(hs[-1], parents, op, backward_fn)


def take_rows(a: Tensor, rows) -> Tensor:
    """Rows ``a[rows]`` for an integer index vector; repeated rows are allowed."""
    rows = np.asarray(rows, dtype=np.int64).ravel()
    values = a.values[rows]

    def backward_fn(grad):
        delta = np.zeros_like(a.values)
        # distinct rows, as head routing's groups are, scatter to the same
        # values as add.at; a negative index aliases row n - i
        if np.bincount(rows % delta.shape[0]).max(initial=0) <= 1:
            delta[rows] = grad
        else:
            np.add.at(delta, rows, grad)
        a._accumulate(delta)

    return Tensor._from_op(values, (a,), "take_rows", backward_fn)


def scatter_rows(parts: list, rows: list, n: int) -> Tensor:
    """An ``n``-row tensor whose rows ``rows[k]`` hold ``parts[k]``; the index
    vectors are disjoint and together cover every row."""
    values = np.empty((n, parts[0].shape[1]))
    for p, r in zip(parts, rows):
        values[r] = p.values

    def backward_fn(grad):
        for p, r in zip(parts, rows):
            if p.requires_grad:
                p._accumulate(grad[r])

    return Tensor._from_op(values, tuple(parts), "scatter_rows", backward_fn)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax using the log-sum-exp shift for overflow safety."""
    a = x
    values = a.values - a.values.max(axis=1, keepdims=True)
    np.exp(values, out=values)
    values /= values.sum(axis=1, keepdims=True)

    def backward_fn(grad):
        inner = (grad * values).sum(axis=1, keepdims=True)
        a._accumulate(values * (grad - inner))

    return Tensor._from_op(values, (a,), "softmax_rows", backward_fn)


def weighted_sum(terms, scale: float = 1.0) -> Tensor:
    """``scale * (w0 * t0 + w1 * t1 + ...)`` over ``(tensor, weight)`` pairs of
    one shape, added left to right, as one node; a lone term with weight and
    scale 1 is returned as it is."""
    if len(terms) == 1 and terms[0][1] == 1.0 and scale == 1.0:
        return terms[0][0]
    values = terms[0][0].values * terms[0][1]
    for t, w in terms[1:]:
        values = values + t.values * w

    def backward_fn(grad):
        g = grad * scale
        for t, w in terms:
            if t.requires_grad:
                t._accumulate(g * w)

    return Tensor._from_op(values * scale, tuple(t for t, _ in terms), "weighted_sum",
                           backward_fn)


# -- optimizer ---------------------------------------------------------------

# the moment decay rates and denominator floor of Kingma & Ba (2015)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction over one flat parameter buffer.

    ``flat`` holds every parameter, and ``params`` are the tensors whose
    ``values`` view it, in order; a step reads their gradients and updates
    ``flat`` in place with a few vector operations. The moments ``m`` and
    ``v`` are flat arrays of the same size.
    """

    def __init__(self, flat: np.ndarray, params, lr: float = 1e-3):
        if lr <= 0:
            raise UsageError(f"learning rate must be > 0, got {lr}")
        self.flat = flat
        self.params: list[Tensor] = list(params)
        self.lr = lr
        self.step_count = 0
        self.m, self.v, self._g, self._tmp, self._step = np.zeros((5, flat.size))

    def zero_grad(self) -> None:
        # ``step`` reads a missing gradient as zeros
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        parts = []
        for p in self.params:
            g = p.grad
            if g is None:
                # no gradient reached it since zero_grad: a zero gradient
                g = np.zeros(p.values.shape)
            elif g.shape != p.values.shape:
                raise UsageError(f"gradient shape {g.shape} does not match parameter {p.values.shape}")
            parts.append(g.ravel())
        g, m, v, tmp, step = self._g, self.m, self.v, self._tmp, self._step
        np.concatenate(parts, out=g)
        # same arithmetic as p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.multiply(g, 1.0 - BETA1, out=tmp)
        m *= BETA1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - BETA2
        v *= BETA2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += EPS
        np.divide(m, bc1, out=step)
        step *= self.lr
        step /= tmp
        self.flat -= step
