"""Reference tape: the generic tensor algebra the tests compose graphs from.

The package's ``Tensor`` carries only the fused nodes the model runs on.
``RefTensor`` subclasses it with the elementary ops those nodes replaced:
broadcasting ``+ - * /``, ``@``, ``.T``, ``exp``, ``log``, ``clamp_min`` and
``sum``. Each op records an ordinary node on the package tape, so one
``backward`` runs through reference and package nodes alike. The composed
oracle graphs in ``oracles.py`` and the gradient cases in ``gradcases.py``
are built from these ops, with the arithmetic the package's tensor once had.

Package and reference graphs mix in two ways. A binary operator takes a
package tensor or a Python number on either side; numbers become constant
1x1 leaves, which broadcast to the same floating-point results. A package
node's output that needs a method goes through ``lift``, a pass-through node
whose gradient is its output's. Nothing here is added to the package class:
a package call to one of these ops fails in the tests as it would in use.
"""

from __future__ import annotations

import numpy as np

from survstrat.errors import ConfigurationError, UsageError
from survstrat.tensor import Tensor


def _unbroadcast(grad: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    out = grad
    if shape[0] == 1 and grad.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and grad.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def lift(t: Tensor) -> "RefTensor":
    """``t`` itself if it is a RefTensor, else a pass-through node over it."""
    if isinstance(t, RefTensor):
        return t
    return RefTensor._from_op(t.values, (t,), "lift", t._accumulate)


def item(t: Tensor) -> float:
    """The value of a 1x1 tensor."""
    if t.values.size != 1:
        raise UsageError(f"item() requires a 1x1 tensor, got {t.shape}")
    return float(t.values[0, 0])


def zero_grad(t: Tensor) -> None:
    """Reset a tracked tensor's gradient to zeros."""
    if t.requires_grad:
        t.grad = np.zeros_like(t.values)


def _binary(op: str, a, b, forward, grad_a, grad_b) -> "RefTensor":
    a, b = (x if isinstance(x, Tensor) else RefTensor(x) for x in (a, b))
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = forward(a.values, b.values)
    except ValueError:
        raise ConfigurationError(f"{op}: incompatible shapes {a.shape} and {b.shape}")

    def backward_fn(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad_a(grad, a.values, b.values), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad_b(grad, a.values, b.values), b.shape))

    return RefTensor._from_op(values, (a, b), op, backward_fn)


def _add(a, b):
    return _binary("add", a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def _sub(a, b):
    return _binary("sub", a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def _mul(a, b):
    return _binary("mul", a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def _div(a, b):
    return _binary("div", a, b, np.divide, lambda g, x, y: g / y,
                   lambda g, x, y: -g * x / (y ** 2))


class RefTensor(Tensor):
    """A package tensor with the generic elementwise and matrix ops."""

    __slots__ = ()

    __add__ = _add
    __sub__ = _sub
    __mul__ = _mul
    __truediv__ = _div

    def __radd__(self, other):
        return _add(other, self)

    def __rsub__(self, other):
        return _sub(other, self)

    def __rmul__(self, other):
        return _mul(other, self)

    def __matmul__(self, other):
        return self.matmul(other)

    def matmul(self, other: Tensor) -> "RefTensor":
        a, b = self, other
        if a.shape[1] != b.shape[0]:
            raise ConfigurationError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")

        def backward_fn(grad):
            if a.requires_grad:
                a._accumulate(grad @ b.values.T)
            if b.requires_grad:
                b._accumulate(a.values.T @ grad)

        return RefTensor._from_op(a.values @ b.values, (a, b), "matmul", backward_fn)

    def transpose(self) -> "RefTensor":
        a = self
        return RefTensor._from_op(a.values.T.copy(), (a,), "transpose",
                                  lambda grad: a._accumulate(grad.T))

    @property
    def T(self) -> "RefTensor":
        return self.transpose()

    def exp(self) -> "RefTensor":
        a = self
        # an overflow is left to the finite check
        with np.errstate(over="ignore"):
            values = np.exp(a.values)
        return RefTensor._from_op(values, (a,), "exp", lambda grad: a._accumulate(grad * values))

    def log(self) -> "RefTensor":
        a = self
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.log(a.values)
        return RefTensor._from_op(values, (a,), "log", lambda grad: a._accumulate(grad / a.values))

    def clamp_min(self, floor: float) -> "RefTensor":
        """max(x, floor) elementwise; gradient passes only where x > floor."""
        a = self
        return RefTensor._from_op(np.maximum(a.values, floor), (a,), "clamp_min",
                                  lambda grad: a._accumulate(grad * (a.values > floor)))

    def sum(self, axis: int | None = None) -> "RefTensor":
        a = self
        if axis is None:
            values = np.array([[a.values.sum()]])

            def backward_fn(grad):
                a._accumulate(np.full_like(a.values, grad[0, 0]))

        else:
            values = a.values.sum(axis=axis, keepdims=True)

            def backward_fn(grad):
                a._accumulate(np.broadcast_to(grad, a.shape))

        return RefTensor._from_op(values, (a,), "sum", backward_fn)
