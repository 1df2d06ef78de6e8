"""Reverse-mode automatic differentiation on an explicit tape.

Every value is a float64 numpy array (scalars are 0-d arrays).  The tape
records only leaves, constants and hand-written nodes (:func:`custom`):
each node holds its forward value, computed in numpy from its parents'
values, and a closure mapping the output cotangent to one cotangent per
parent, or ``None`` for a parent that needs none.  ``Tape.backward``
walks the node list once in reverse and accumulates a gradient for every
requires-grad leaf, so a second call on the same tape reproduces the same
gradients bit for bit.

The numpy helpers here are shared by the nodes of several modules:
:func:`scatter_rows` sums rows into place, :func:`logistic` is an
overflow-free sigmoid, and :func:`acos_safe_slope` is the slope of arccos
cut to zero where ``|x| > 1 - ACOS_EPS``, which bounds the otherwise
singular slope at the endpoints.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tape", "Var", "DomainError", "TapeMixError", "custom",
    "grad_check", "logistic", "acos_safe_slope", "scatter_rows",
]

ACOS_EPS = 1e-7    # acos_safe_slope is zero where |x| > 1 - ACOS_EPS


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


def acos_safe_slope(x):
    """Numpy slope of arccos at ``x``: the true -1/sqrt(1 - x^2) where
    |x| <= 1 - ACOS_EPS and exactly zero beyond, so perfectly aligned unit
    vectors neither blow up nor receive a push."""
    der = np.zeros_like(x)
    inside = np.abs(x) <= 1.0 - ACOS_EPS
    xi = x[inside]
    der[inside] = -1.0 / np.sqrt(1.0 - xi * xi)
    return der


def logistic(x):
    """Numpy 1/(1 + exp(-x)) that never overflows: 1/(1 + e) for x >= 0
    and e/(1 + e) below, with e = exp(-|x|) <= 1."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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
