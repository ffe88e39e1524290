"""Dense 2-D float64 tensors with reverse-mode automatic differentiation.

Graphs are built define-by-run: every operation records its parents and a
backward closure on the fly, so the tape is rebuilt on each forward pass.
``backward()`` must be called on a 1x1 (scalar) tensor; gradients accumulate
into ``.grad`` buffers until they are explicitly reset (the optimizer's
``zero_grad`` clears them before each backward pass).

Every forward op validates that its output is finite; a NaN/Inf result is
reported as a :class:`NumericError` naming the op.
"""

from __future__ import annotations

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


def _unbroadcast(grad: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    out = grad
    if shape[0] == 1 and grad.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and grad.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


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

    @staticmethod
    def _lift(other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(other)

    @classmethod
    def _from_op(cls, values: np.ndarray, parents: tuple["Tensor", ...], op: str,
                 backward_fn) -> "Tensor":
        if not np.isfinite(values).all():
            raise NumericError(f"non-finite output in op '{op}'")
        out = cls.__new__(cls)
        out.values = values
        needs = any(p.requires_grad for p in parents)
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

    def numpy(self) -> np.ndarray:
        return self.values.copy()

    def item(self) -> float:
        if self.values.size != 1:
            raise UsageError(f"item() requires a 1x1 tensor, got {self.shape}")
        return float(self.values[0, 0])

    def zero_grad(self) -> None:
        if self.requires_grad:
            self.grad = np.zeros_like(self.values)

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

    # -- elementwise arithmetic (numpy broadcasting, 2-D only) ---------------

    def __add__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            a = self

            def backward_fn(grad):
                a._accumulate(grad)

            return Tensor._from_op(a.values + other, (a,), "add", backward_fn)
        other = Tensor._lift(other)
        a, b = self, other
        try:
            values = a.values + b.values
        except ValueError:
            raise ConfigurationError(f"add: incompatible shapes {a.shape} and {b.shape}")

        def backward_fn(grad):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad, b.shape))

        return Tensor._from_op(values, (a, b), "add", backward_fn)

    def __radd__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return self + other
        return Tensor._lift(other) + self

    def __sub__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        a, b = self, other
        try:
            values = a.values - b.values
        except ValueError:
            raise ConfigurationError(f"sub: incompatible shapes {a.shape} and {b.shape}")

        def backward_fn(grad):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-grad, b.shape))

        return Tensor._from_op(values, (a, b), "sub", backward_fn)

    def __rsub__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            a = self

            def backward_fn(grad):
                a._accumulate(-grad)

            return Tensor._from_op(other - a.values, (a,), "sub", backward_fn)
        return Tensor._lift(other) - self

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            a = self

            def backward_fn(grad):
                a._accumulate(grad * other)

            return Tensor._from_op(a.values * other, (a,), "mul", backward_fn)
        other = Tensor._lift(other)
        a, b = self, other
        try:
            values = a.values * b.values
        except ValueError:
            raise ConfigurationError(f"mul: incompatible shapes {a.shape} and {b.shape}")

        def backward_fn(grad):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad * b.values, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad * a.values, b.shape))

        return Tensor._from_op(values, (a, b), "mul", backward_fn)

    def __rmul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return self * other
        return Tensor._lift(other) * self

    def __truediv__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        a, b = self, other
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                values = a.values / b.values
        except ValueError:
            raise ConfigurationError(f"div: incompatible shapes {a.shape} and {b.shape}")

        def backward_fn(grad):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad / b.values, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-grad * a.values / (b.values ** 2), b.shape))

        return Tensor._from_op(values, (a, b), "div", backward_fn)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor._lift(other) / self

    def __neg__(self) -> "Tensor":
        a = self

        def backward_fn(grad):
            a._accumulate(-grad)

        return Tensor._from_op(-a.values, (a,), "neg", backward_fn)

    # -- matrix ops ------------------------------------------------------

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other) -> "Tensor":
        other = Tensor._lift(other)
        a, b = self, other
        if a.shape[1] != b.shape[0]:
            raise ConfigurationError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
        values = a.values @ b.values

        def backward_fn(grad):
            if a.requires_grad:
                a._accumulate(grad @ b.values.T)
            if b.requires_grad:
                b._accumulate(a.values.T @ grad)

        return Tensor._from_op(values, (a, b), "matmul", backward_fn)

    def transpose(self) -> "Tensor":
        a = self

        def backward_fn(grad):
            a._accumulate(grad.T)

        return Tensor._from_op(a.values.T.copy(), (a,), "transpose", backward_fn)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    # -- nonlinearities ----------------------------------------------------

    def exp(self) -> "Tensor":
        a = self
        with np.errstate(over="ignore"):
            values = np.exp(a.values)
        # the finite check in _from_op catches overflow

        def backward_fn(grad):
            a._accumulate(grad * values)

        return Tensor._from_op(values, (a,), "exp", backward_fn)

    def log(self) -> "Tensor":
        a = self
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.log(a.values)

        def backward_fn(grad):
            a._accumulate(grad / a.values)

        return Tensor._from_op(values, (a,), "log", backward_fn)

    def clamp_min(self, floor: float) -> "Tensor":
        """max(x, floor) elementwise; gradient passes only where x > floor."""
        a = self
        values = np.maximum(a.values, floor)

        def backward_fn(grad):
            a._accumulate(grad * (a.values > floor))

        return Tensor._from_op(values, (a,), "clamp_min", backward_fn)

    # -- reductions --------------------------------------------------------

    def sum(self, axis: int | None = None) -> "Tensor":
        a = self
        if axis is None:
            values = np.array([[a.values.sum()]])

            def backward_fn(grad):
                a._accumulate(np.full_like(a.values, grad[0, 0]))

        else:
            values = a.values.sum(axis=axis, keepdims=True)

            def backward_fn(grad):
                a._accumulate(np.broadcast_to(grad, a.shape))

        return Tensor._from_op(values, (a,), "sum", backward_fn)

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
    too when ``relu_last``); each layer's arithmetic is that of ``linear``."""
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
            if i < last or relu_last:
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


def linear(x: Tensor, W: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """Affine map ``x @ W + b``, optionally followed by relu, as one node."""
    return mlp(x, [(W, b)], relu)


def take_rows(a: Tensor, rows) -> Tensor:
    """Rows ``a[rows]`` for an integer index vector; repeated rows are allowed."""
    rows = np.asarray(rows, dtype=np.int64).ravel()
    values = a.values[rows]

    def backward_fn(grad):
        delta = np.zeros_like(a.values)
        np.add.at(delta, rows, grad)
        a._accumulate(delta)

    return Tensor._from_op(values, (a,), "take_rows", backward_fn)


def concat_rows(parts: list) -> Tensor:
    """Row-wise stack of tensors with equal column counts, in list order."""
    values = np.concatenate([p.values for p in parts], axis=0)
    bounds = np.cumsum([0] + [p.shape[0] for p in parts])

    def backward_fn(grad):
        for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            if p.requires_grad:
                p._accumulate(grad[lo:hi])

    return Tensor._from_op(values, tuple(parts), "concat_rows", backward_fn)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax using the log-sum-exp shift for overflow safety."""
    a = x
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    values = e / e.sum(axis=1, keepdims=True)

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


class Adam:
    """Adam with bias correction over a fixed list of parameter tensors.

    Holds first/second-moment buffers shape-matched to each parameter and a
    strictly increasing step counter. The buffers of all parameters live in
    one flat array each, so a step is a few vector operations over all
    parameters at once.
    """

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise UsageError(f"learning rate must be > 0, got {lr}")
        self.params: list[Tensor] = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        bounds = np.cumsum([0] + [p.values.size for p in self.params])
        self._slices = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        self._m = np.zeros(bounds[-1])
        self._v = np.zeros(bounds[-1])
        # per-parameter views into the flat buffers
        self.m = [self._m[s].reshape(p.values.shape) for s, p in zip(self._slices, self.params)]
        self.v = [self._v[s].reshape(p.values.shape) for s, p in zip(self._slices, self.params)]

    def zero_grad(self) -> None:
        # ``step`` reads a missing gradient as zeros
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        parts = []
        for p in self.params:
            g = p.grad
            if g is None:
                # no gradient reached it since zero_grad: a zero gradient
                g = np.zeros(p.values.shape)
            elif g.shape != p.values.shape:
                raise UsageError(f"gradient shape {g.shape} does not match parameter {p.values.shape}")
            parts.append(g.ravel())
        g = np.concatenate(parts)
        m, v = self._m, self._v
        # same arithmetic as p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        tmp = g * (1.0 - self.beta1)
        m *= self.beta1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - self.beta2
        v *= self.beta2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        step = m / bc1
        step *= self.lr
        step /= tmp
        for p, s in zip(self.params, self._slices):
            p.values -= step[s].reshape(p.values.shape)
