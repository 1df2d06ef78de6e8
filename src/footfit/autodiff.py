"""Reverse-mode automatic differentiation on an explicit tape.

Every value is a float64 numpy array (scalars are 0-d arrays).  Each
operation appends one node to the tape holding the forward value and a
closure mapping the output cotangent to cotangents of the parents.
``Tape.backward`` walks the node list once in reverse and accumulates a
gradient for every requires-grad leaf, so a second call on the same tape
reproduces the same gradients bit for bit.

Gradient conventions that callers rely on:

* broadcasting follows numpy; cotangents are summed back down to the
  parent shape,
* ``acos_safe`` evaluates arccos exactly on [-1, 1] but zeroes the
  gradient where ``|x| > 1 - ACOS_EPS``, bounding the otherwise singular
  slope at the endpoints.

A VJP returns one cotangent per parent, or ``None`` for a parent that
needs none; ``Tape.backward`` skips it.  ``add``, ``sub``, ``mul`` and
``div`` decide at record time which parents require grad and return
``None`` for the constant ones, so constant operands (barycentric
weights, observations) cost no cotangent.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tape", "Var", "DomainError", "TapeMixError",
    "add", "sub", "mul", "div",
    "exp", "log", "acos_safe", "norm2",
    "segment_sum", "stack", "custom",
    "grad_check", "logistic", "acos_safe_slope", "scatter_rows",
]

ACOS_EPS = 1e-7    # acos_safe's gradient is zero where |x| > 1 - ACOS_EPS


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class TapeMixError(ValueError):
    """Vars from different tapes combined in one expression."""


class _Node:
    __slots__ = ("value", "parents", "vjp", "requires_grad")

    def __init__(self, value, parents, vjp, requires_grad):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.requires_grad = requires_grad


def _unbroadcast(g, shape):
    """Sum cotangent ``g`` down to ``shape`` (inverse of numpy broadcast)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return np.asarray(g).reshape(shape)


class Tape:
    """Records operations; owns node storage and runs backward passes."""

    def __init__(self):
        self._nodes: list[_Node] = []

    def __len__(self):
        return len(self._nodes)

    def leaf(self, value, requires_grad=True):
        value = np.asarray(value, dtype=np.float64)
        if not np.all(np.isfinite(value)):
            raise DomainError("leaf value must be finite")
        return self._record(value, (), None, requires_grad)

    def const(self, value):
        return self.leaf(value, requires_grad=False)

    def _record(self, value, parents, vjp, requires_grad):
        self._nodes.append(_Node(value, parents, vjp, requires_grad))
        return Var(self, len(self._nodes) - 1)

    def backward(self, out):
        """Gradient of a scalar ``out`` w.r.t. every requires-grad leaf.

        Returns a :class:`Gradients` table.  Leaves that do not lie on a
        path to ``out`` get exact zeros of their own shape.
        """
        if not isinstance(out, Var) or out.tape is not self:
            raise TapeMixError("output does not belong to this tape")
        if out.value.size != 1 or out.value.ndim != 0:
            raise ValueError("backward requires a scalar (0-d) output")
        nodes = self._nodes
        grads: dict[int, np.ndarray] = {out._i: np.ones((), dtype=np.float64)}
        leaf_grads: dict[int, np.ndarray] = {}
        for i in range(out._i, -1, -1):
            node = nodes[i]
            g = grads.pop(i, None)
            if g is None or not node.requires_grad:
                continue
            if node.vjp is None:
                leaf_grads[i] = g
                continue
            parent_gs = node.vjp(g)
            for p, pg in zip(node.parents, parent_gs):
                if pg is None or not nodes[p].requires_grad:
                    continue
                acc = grads.get(p)
                if acc is None:
                    grads[p] = np.array(pg, dtype=np.float64, copy=True)
                else:
                    acc += pg
        return Gradients(self, leaf_grads)


class Gradients:
    """Read-only gradient table keyed by Var."""

    def __init__(self, tape, table):
        self._tape = tape
        self._table = table

    def __getitem__(self, var):
        if var.tape is not self._tape:
            raise TapeMixError("Var belongs to a different tape")
        node = self._tape._nodes[var._i]
        if not node.requires_grad:
            raise KeyError("Var does not require grad")
        g = self._table.get(var._i)
        if g is None:
            return np.zeros_like(node.value)
        return g


class Var:
    """Handle to one tape node."""

    __slots__ = ("tape", "_i")

    def __init__(self, tape, index):
        self.tape = tape
        self._i = index

    @property
    def value(self):
        return self.tape._nodes[self._i].value

    @property
    def requires_grad(self):
        return self.tape._nodes[self._i].requires_grad

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def item(self):
        return float(self.value)

    def sum(self, axis=None, keepdims=False):
        return vsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None):
        n = self.value.size if axis is None else self.value.shape[axis]
        return vsum(self, axis=axis) * (1.0 / n)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __getitem__(self, key):
        return _basic_index(self, key)

    def __repr__(self):
        return f"Var(shape={self.shape}, requires_grad={self.requires_grad})"


def _tape_of(*args):
    tape = None
    for a in args:
        if isinstance(a, Var):
            if tape is None:
                tape = a.tape
            elif a.tape is not tape:
                raise TapeMixError("expression mixes Vars from different tapes")
    if tape is None:
        raise TypeError("at least one operand must be a Var")
    return tape


def _lift(tape, x):
    if isinstance(x, Var):
        if x.tape is not tape:
            raise TapeMixError("expression mixes Vars from different tapes")
        return x
    return tape.const(np.asarray(x, dtype=np.float64))


def _binary(a, b):
    """Both operands on one tape, their values, and which require grad."""
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    return tape, a, b, a.value, b.value, a.requires_grad, b.requires_grad


def add(a, b):
    tape, a, b, av, bv, ga, gb = _binary(a, b)

    def vjp(g):
        return (_unbroadcast(g, av.shape) if ga else None,
                _unbroadcast(g, bv.shape) if gb else None)

    return tape._record(av + bv, (a._i, b._i), vjp, ga or gb)


def sub(a, b):
    tape, a, b, av, bv, ga, gb = _binary(a, b)

    def vjp(g):
        return (_unbroadcast(g, av.shape) if ga else None,
                _unbroadcast(-g, bv.shape) if gb else None)

    return tape._record(av - bv, (a._i, b._i), vjp, ga or gb)


def mul(a, b):
    tape, a, b, av, bv, ga, gb = _binary(a, b)

    def vjp(g):
        return (_unbroadcast(g * bv, av.shape) if ga else None,
                _unbroadcast(g * av, bv.shape) if gb else None)

    return tape._record(av * bv, (a._i, b._i), vjp, ga or gb)


def div(a, b):
    tape, a, b, av, bv, ga, gb = _binary(a, b)

    def vjp(g):
        return (_unbroadcast(g / bv, av.shape) if ga else None,
                _unbroadcast(-g * av / (bv * bv), bv.shape) if gb else None)

    return tape._record(av / bv, (a._i, b._i), vjp, ga or gb)


def vsum(a, axis=None, keepdims=False):
    av = a.value
    out = av.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, av.shape).copy(),)

    return a.tape._record(np.asarray(out), (a._i,), vjp, a.requires_grad)


def exp(a):
    out = np.exp(a.value)
    return a.tape._record(out, (a._i,), lambda g: (g * out,), a.requires_grad)


def log(a):
    av = a.value
    if np.any(av <= 0.0):
        raise DomainError("log of non-positive value")
    return a.tape._record(np.log(av), (a._i,), lambda g: (g / av,), a.requires_grad)


def acos_safe_slope(x):
    """Numpy slope of :func:`acos_safe` at ``x``: -1/sqrt(1 - x^2) where
    |x| <= 1 - ACOS_EPS, exactly zero beyond."""
    der = np.zeros_like(x)
    inside = np.abs(x) <= 1.0 - ACOS_EPS
    xi = x[inside]
    der[inside] = -1.0 / np.sqrt(1.0 - xi * xi)
    return der


def acos_safe(a):
    """arccos with exact values on [-1, 1] and a bounded gradient.

    The derivative is the true -1/sqrt(1 - x^2) where |x| <= 1 - ACOS_EPS and
    exactly zero beyond, so perfectly aligned unit vectors neither blow
    up nor receive a push.
    """
    av = a.value
    out = np.arccos(np.clip(av, -1.0, 1.0))
    return a.tape._record(out, (a._i,), lambda g: (g * acos_safe_slope(av),),
                          a.requires_grad)


def logistic(x):
    """Numpy 1/(1 + exp(-x)) that never overflows: 1/(1 + e) for x >= 0
    and e/(1 + e) below, with e = exp(-|x|) <= 1."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def norm2(a, axis=None, keepdims=False):
    """Euclidean norm.  Gradient is x/|x|; keep inputs away from zero."""
    av = a.value
    nk = np.sqrt(np.sum(av * av, axis=axis, keepdims=True))
    out = nk if keepdims else np.asarray(nk.squeeze() if axis is None else np.squeeze(nk, axis))

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (g * av / nk,)

    return a.tape._record(np.asarray(out), (a._i,), vjp, a.requires_grad)


def scatter_rows(g, idx, shape):
    """Numpy: sum the rows of ``g`` into a zero array of ``shape`` at row
    positions ``idx``, in the order of the rows."""
    out = np.zeros(shape, dtype=np.float64)
    flat_idx = idx.ravel()
    out2 = out.reshape(shape[0], -1)
    g2 = g.reshape(flat_idx.size, out2.shape[1])
    for c in range(out2.shape[1]):
        out2[:, c] = np.bincount(flat_idx, weights=g2[:, c], minlength=shape[0])
    return out


def segment_sum(a, idx, num):
    """out[i] = sum of rows a[j] with idx[j] == i, for i in range(num)."""
    idx = np.asarray(idx)
    av = a.value
    out = scatter_rows(av, idx, (num,) + av.shape[1:])

    def vjp(g):
        return (g[idx],)

    return a.tape._record(out, (a._i,), vjp, a.requires_grad)


def stack(vars_, axis=0):
    tape = _tape_of(*vars_)
    vars_ = [_lift(tape, v) for v in vars_]
    out = np.stack([v.value for v in vars_], axis=axis)
    n = len(vars_)   # the closure must not hold the Vars: Var -> tape -> closure

    def vjp(g):
        return tuple(np.take(g, k, axis=axis) for k in range(n))

    return tape._record(out, tuple(v._i for v in vars_), vjp,
                        any(v.requires_grad for v in vars_))


def reshape(a, shape):
    av = a.value
    out = av.reshape(shape)

    def vjp(g):
        return (g.reshape(av.shape),)

    return a.tape._record(out, (a._i,), vjp, a.requires_grad)


def _basic_index(a, key):
    av = a.value
    out = av[key]

    def vjp(g):
        z = np.zeros_like(av)
        z[key] = g
        return (z,)

    return a.tape._record(np.asarray(out), (a._i,), vjp, a.requires_grad)


def custom(parents, value, vjp):
    """One node whose ``value`` was computed outside the tape from the
    parents' values.  ``vjp(g)`` returns one cotangent per parent, or
    ``None`` for a parent that needs none.  The closure must not hold
    Vars: a Var holds its tape, and a tape that is part of a reference
    cycle waits for the cyclic collector."""
    tape = _tape_of(*parents)
    return tape._record(np.asarray(value, dtype=np.float64),
                        tuple(p._i for p in parents), vjp,
                        any(p.requires_grad for p in parents))


def grad_check(fn, inputs, h=1e-5):
    """Max relative error between backward and central finite differences.

    ``fn`` maps one Var per input array to a scalar Var.  The relative
    error per component is |analytic - fd| / max(1, |fd|).  Keep inputs
    away from non-differentiable points (kinks, norm at zero); the
    finite-difference stencil straddles them otherwise.
    """
    inputs = [np.asarray(x, dtype=np.float64) for x in inputs]

    def run(xs):
        tape = Tape()
        leaves = [tape.leaf(x, requires_grad=True) for x in xs]
        out = fn(*leaves)
        return tape, leaves, out

    tape, leaves, out = run(inputs)
    grads = tape.backward(out)
    analytic = [grads[v] for v in leaves]

    max_rel = 0.0
    for i, x in enumerate(inputs):
        flat = x.ravel()
        for j in range(flat.size):
            step = np.zeros_like(flat)
            step[j] = h
            xp = [v if k != i else (flat + step).reshape(x.shape) for k, v in enumerate(inputs)]
            xm = [v if k != i else (flat - step).reshape(x.shape) for k, v in enumerate(inputs)]
            fp = run(xp)[2].item()
            fm = run(xm)[2].item()
            fd = (fp - fm) / (2.0 * h)
            rel = abs(analytic[i].ravel()[j] - fd) / max(1.0, abs(fd))
            max_rel = max(max_rel, rel)
    return max_rel
