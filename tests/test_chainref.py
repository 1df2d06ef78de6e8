"""Tests of ``scatter_into``, the op-by-op references' image scatter.
The other tape ops of ``chainref`` are tested beside the tape in
``test_autodiff.py``."""

import gc
import weakref

import numpy as np

from chainref import mul, scatter_into, sigmoid, vsum
from footfit import autodiff as ad


class TestScatterInto:
    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(31)
        vals = rng.normal(size=4)
        base = np.zeros((3, 3))
        idx = np.array([0, 4, 7, 8])
        weights = rng.normal(size=(3, 3))

        def f(v):
            img = scatter_into(base, idx, sigmoid(v))
            return vsum(mul(img, v.tape.const(weights)))

        assert ad.grad_check(f, [vals], h=1e-5) < 1e-6

    def test_tape_freed_without_cyclic_collector(self):
        def run():
            tape = ad.Tape()
            x = tape.leaf(np.array([0.3, -0.7, 1.1]))
            tape.backward(vsum(scatter_into(np.zeros(5), np.array([0, 2, 4]), x)))
            return weakref.ref(tape)

        gc.disable()
        try:
            assert run()() is None
        finally:
            gc.enable()
