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
* ``clamp`` passes gradient only where the input is inside the closed
  interval,
* ``acos_safe`` evaluates arccos exactly on [-1, 1] but zeroes the
  gradient where ``|x| > 1 - eps``, bounding the otherwise singular
  slope at the endpoints,
* ``detach`` cuts the graph: value flows, gradient does not.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tape", "Var", "DomainError", "TapeMixError",
    "add", "sub", "mul", "div", "neg", "dot", "matmul",
    "sqrt", "exp", "log", "sin", "cos", "tanh", "arccos", "acos_safe",
    "clamp", "sigmoid", "norm2", "detach",
    "take", "segment_sum", "concat", "stack", "scatter_into", "custom",
    "grad_check",
]


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

    @property
    def T(self):
        return transpose(self)

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

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

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


def add(a, b):
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    av, bv = a.value, b.value
    out = av + bv

    def vjp(g):
        return _unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)

    return tape._record(out, (a._i, b._i), vjp, a.requires_grad or b.requires_grad)


def sub(a, b):
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    av, bv = a.value, b.value
    out = av - bv

    def vjp(g):
        return _unbroadcast(g, av.shape), _unbroadcast(-g, bv.shape)

    return tape._record(out, (a._i, b._i), vjp, a.requires_grad or b.requires_grad)


def mul(a, b):
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    av, bv = a.value, b.value
    out = av * bv

    def vjp(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return tape._record(out, (a._i, b._i), vjp, a.requires_grad or b.requires_grad)


def div(a, b):
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    av, bv = a.value, b.value
    out = av / bv

    def vjp(g):
        return (_unbroadcast(g / bv, av.shape),
                _unbroadcast(-g * av / (bv * bv), bv.shape))

    return tape._record(out, (a._i, b._i), vjp, a.requires_grad or b.requires_grad)


def neg(a):
    return a.tape._record(-a.value, (a._i,), lambda g: (-g,), a.requires_grad)


def vsum(a, axis=None, keepdims=False):
    av = a.value
    out = av.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, av.shape).copy(),)

    return a.tape._record(np.asarray(out), (a._i,), vjp, a.requires_grad)


def dot(a, b):
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    av, bv = a.value, b.value
    if av.ndim != 1 or bv.ndim != 1:
        raise ValueError("dot expects 1-d operands")
    out = np.asarray(av @ bv)

    def vjp(g):
        return g * bv, g * av

    return tape._record(out, (a._i, b._i), vjp, a.requires_grad or b.requires_grad)


def matmul(a, b):
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2:
        raise ValueError("matmul expects 2-d operands")
    out = av @ bv

    def vjp(g):
        return g @ bv.T, av.T @ g

    return tape._record(out, (a._i, b._i), vjp, a.requires_grad or b.requires_grad)


def sqrt(a):
    av = a.value
    if np.any(av < 0.0):
        raise DomainError("sqrt of negative value")
    out = np.sqrt(av)

    def vjp(g):
        return (g * 0.5 / out,)

    return a.tape._record(out, (a._i,), vjp, a.requires_grad)


def exp(a):
    out = np.exp(a.value)
    return a.tape._record(out, (a._i,), lambda g: (g * out,), a.requires_grad)


def log(a):
    av = a.value
    if np.any(av <= 0.0):
        raise DomainError("log of non-positive value")
    return a.tape._record(np.log(av), (a._i,), lambda g: (g / av,), a.requires_grad)


def sin(a):
    av = a.value
    return a.tape._record(np.sin(av), (a._i,), lambda g: (g * np.cos(av),), a.requires_grad)


def cos(a):
    av = a.value
    return a.tape._record(np.cos(av), (a._i,), lambda g: (-g * np.sin(av),), a.requires_grad)


def tanh(a):
    out = np.tanh(a.value)
    return a.tape._record(out, (a._i,), lambda g: (g * (1.0 - out * out),), a.requires_grad)


def arccos(a):
    av = a.value
    if np.any(np.abs(av) > 1.0):
        raise DomainError("arccos input outside [-1, 1]")
    out = np.arccos(av)

    def vjp(g):
        return (-g / np.sqrt(1.0 - av * av),)

    return a.tape._record(out, (a._i,), vjp, a.requires_grad)


def acos_safe(a, eps=1e-7):
    """arccos with exact values on [-1, 1] and a bounded gradient.

    The derivative is the true -1/sqrt(1 - x^2) where |x| <= 1 - eps and
    exactly zero beyond, so perfectly aligned unit vectors neither blow
    up nor receive a push.
    """
    av = a.value
    out = np.arccos(np.clip(av, -1.0, 1.0))
    inside = np.abs(av) <= 1.0 - eps

    def vjp(g):
        der = np.zeros_like(av)
        x = av[inside]
        der[inside] = -1.0 / np.sqrt(1.0 - x * x)
        return (g * der,)

    return a.tape._record(out, (a._i,), vjp, a.requires_grad)


def clamp(a, lo, hi):
    av = a.value
    out = np.clip(av, lo, hi)
    mask = (av >= lo) & (av <= hi)

    def vjp(g):
        return (g * mask,)

    return a.tape._record(out, (a._i,), vjp, a.requires_grad)


def sigmoid(a):
    av = a.value
    out = np.empty_like(av)
    pos = av >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-av[pos]))
    ez = np.exp(av[~pos])
    out[~pos] = ez / (1.0 + ez)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return a.tape._record(out, (a._i,), vjp, a.requires_grad)


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


def detach(a):
    """Value identical, gradient cut."""
    return a.tape._record(a.value, (), None, False)


def take(a, idx):
    """Rows ``a[idx]`` along axis 0 for an integer index array."""
    idx = np.asarray(idx)
    av = a.value
    out = av[idx]

    def vjp(g):
        return (_scatter_rows(g, idx, av.shape),)

    return a.tape._record(out, (a._i,), vjp, a.requires_grad)


def _scatter_rows(g, idx, shape):
    """Sum rows of g into a zero array of ``shape`` at positions idx."""
    out = np.zeros(shape, dtype=np.float64)
    flat_idx = idx.ravel()
    g2 = g.reshape(flat_idx.size, -1)
    out2 = out.reshape(shape[0], -1)
    for c in range(out2.shape[1]):
        out2[:, c] = np.bincount(flat_idx, weights=g2[:, c], minlength=shape[0])
    return out


def segment_sum(a, idx, num):
    """out[i] = sum of rows a[j] with idx[j] == i, for i in range(num)."""
    idx = np.asarray(idx)
    av = a.value
    out = _scatter_rows(av, idx, (num,) + av.shape[1:])

    def vjp(g):
        return (g[idx],)

    return a.tape._record(out, (a._i,), vjp, a.requires_grad)


def concat(vars_, axis=0):
    tape = _tape_of(*vars_)
    vars_ = [_lift(tape, v) for v in vars_]
    values = [v.value for v in vars_]
    out = np.concatenate(values, axis=axis)
    sizes = [v.shape[axis] for v in values]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return tape._record(out, tuple(v._i for v in vars_), vjp,
                        any(v.requires_grad for v in vars_))


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


def transpose(a):
    if a.ndim != 2:
        raise ValueError("transpose expects a 2-d Var")
    return a.tape._record(a.value.T.copy(), (a._i,), lambda g: (g.T,), a.requires_grad)


def _basic_index(a, key):
    av = a.value
    out = av[key]

    def vjp(g):
        z = np.zeros_like(av)
        z[key] = g
        return (z,)

    return a.tape._record(np.asarray(out), (a._i,), vjp, a.requires_grad)


def scatter_into(base, idx, values):
    """Copy of constant array ``base`` with ``base.flat[idx] = values``.

    ``idx`` must hold unique flat positions.  Gradient flows only to
    ``values``; the base stays constant.
    """
    idx = np.asarray(idx)
    base = np.asarray(base, dtype=np.float64)
    out = base.copy()
    out.reshape(-1)[idx] = values.value

    def vjp(g):
        return (g.reshape(-1)[idx],)

    return values.tape._record(out, (values._i,), vjp, values.requires_grad)


def custom(parents, value, vjp):
    """One node whose ``value`` was computed outside the tape from the
    parents' values.  ``vjp(g)`` returns one cotangent per parent.  The
    closure must not hold Vars: a Var holds its tape, and a tape that is
    part of a reference cycle waits for the cyclic collector."""
    tape = _tape_of(*parents)
    return tape._record(np.asarray(value, dtype=np.float64),
                        tuple(p._i for p in parents), vjp,
                        any(p.requires_grad for p in parents))


def grad_check(fn, inputs, h=1e-5):
    """Max relative error between backward and central finite differences.

    ``fn`` maps one Var per input array to a scalar Var.  The relative
    error per component is |analytic - fd| / max(1, |fd|).  Keep inputs
    away from non-differentiable points (clamp boundaries, norm at
    zero); the finite-difference stencil straddles them otherwise.
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
