import gc
import weakref

import numpy as np
import pytest

from footfit import autodiff as ad


def scalar_tape(x, requires_grad=True):
    tape = ad.Tape()
    return tape, tape.leaf(np.asarray(x, dtype=np.float64), requires_grad=requires_grad)


class TestLeaves:
    def test_leaf_value(self):
        tape, v = scalar_tape(3.0)
        assert v.item() == 3.0
        assert v.requires_grad

    def test_unused_leaf_gets_exact_zeros(self):
        tape = ad.Tape()
        a = tape.leaf(np.array([1.0, 2.0]), requires_grad=True)
        b = tape.leaf(np.array([3.0, 4.0]), requires_grad=True)
        out = (a * a).sum()
        grads = tape.backward(out)
        np.testing.assert_array_equal(grads[b], np.zeros(2))

    def test_nonfinite_leaf_rejected(self):
        tape = ad.Tape()
        with pytest.raises(ad.DomainError):
            tape.leaf(np.array([1.0, np.inf]))

    def test_tape_mixing_rejected(self):
        t1, a = scalar_tape(1.0)
        t2, b = scalar_tape(2.0)
        with pytest.raises(ad.TapeMixError):
            ad.add(a, b)


class TestPrimitives:
    def test_square_derivative(self):
        tape, x = scalar_tape(3.0)
        grads = tape.backward(x * x)
        np.testing.assert_allclose(grads[x], 6.0)

    def test_arccos_derivative_at_half(self):
        tape, x = scalar_tape(0.5)
        grads = tape.backward(ad.arccos(x))
        np.testing.assert_allclose(grads[x], -1.0 / np.sqrt(0.75), rtol=1e-12)

    def test_log_derivative(self):
        tape, x = scalar_tape(2.0)
        grads = tape.backward(ad.log(x))
        np.testing.assert_allclose(grads[x], 0.5, rtol=1e-12)

    def test_sigmoid_grad_at_zero(self):
        tape, x = scalar_tape(0.0)
        grads = tape.backward(ad.sigmoid(x))
        np.testing.assert_allclose(grads[x], 0.25, rtol=1e-12)

    def test_log_nonpositive_rejected(self):
        tape, x = scalar_tape(-1.0)
        with pytest.raises(ad.DomainError):
            ad.log(x)
        with pytest.raises(ad.DomainError):
            ad.sqrt(x)

    def test_arccos_domain(self):
        tape, x = scalar_tape(1.5)
        with pytest.raises(ad.DomainError):
            ad.arccos(x)

    def test_acos_safe_exact_at_one(self):
        tape, x = scalar_tape(1.0)
        out = ad.acos_safe(x)
        assert out.item() == 0.0
        grads = tape.backward(out)
        assert grads[x] == 0.0

    def test_clamp_gradient_gate(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([-2.0, 0.3, 2.0]), requires_grad=True)
        grads = tape.backward(ad.clamp(x, -1.0, 1.0).sum())
        np.testing.assert_array_equal(grads[x], [0.0, 1.0, 0.0])

    def test_detach_blocks_gradient(self):
        tape, x = scalar_tape(2.0)
        y = ad.detach(x * x) * x
        grads = tape.backward(y)
        # value is x^3 = 8 but gradient sees only the last factor
        np.testing.assert_allclose(y.item(), 8.0)
        np.testing.assert_allclose(grads[x], 4.0)

    def test_norm2_gradient_is_direction(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=4)
        tape = ad.Tape()
        x = tape.leaf(v, requires_grad=True)
        grads = tape.backward(ad.norm2(x))
        np.testing.assert_allclose(grads[x], v / np.linalg.norm(v), rtol=1e-12)

    def test_matmul_take_segment_sum(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))
        tape = ad.Tape()
        av = tape.leaf(a, requires_grad=True)
        wv = tape.leaf(w, requires_grad=True)
        m = av @ wv
        idx = np.array([0, 0, 1, 3])
        picked = ad.take(m, idx)
        pooled = ad.segment_sum(picked, np.array([0, 1, 1, 0]), 2)
        out = (pooled * pooled).sum()
        grads = tape.backward(out)
        assert grads[av].shape == a.shape and grads[wv].shape == w.shape

    def test_broadcast_add_unbroadcasts_grad(self):
        tape = ad.Tape()
        a = tape.leaf(np.ones((3, 2)), requires_grad=True)
        b = tape.leaf(np.ones(2), requires_grad=True)
        grads = tape.backward((a + b).sum())
        np.testing.assert_array_equal(grads[b], [3.0, 3.0])


class TestBackward:
    def test_sum_gives_ones(self):
        tape = ad.Tape()
        x = tape.leaf(np.arange(5.0), requires_grad=True)
        grads = tape.backward(x.sum())
        np.testing.assert_array_equal(grads[x], np.ones(5))

    def test_dot_self(self):
        a = np.array([1.0, -2.0, 0.5])
        tape = ad.Tape()
        x = tape.leaf(a, requires_grad=True)
        grads = tape.backward(ad.dot(x, x))
        np.testing.assert_allclose(grads[x], 2 * a, rtol=1e-12)

    def test_nonscalar_output_rejected(self):
        tape = ad.Tape()
        x = tape.leaf(np.arange(3.0), requires_grad=True)
        with pytest.raises(ValueError):
            tape.backward(x * x)

    def test_accumulation_linearity(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=6)
        alpha, beta = 0.7, -1.3

        def parts(x):
            f = (x * x).sum()
            g = ad.exp(x * 0.1).sum()
            return f, g

        tape = ad.Tape()
        x = tape.leaf(v, requires_grad=True)
        f, g = parts(x)
        gf = tape.backward(f)[x]
        gg = tape.backward(g)[x]

        tape2 = ad.Tape()
        x2 = tape2.leaf(v, requires_grad=True)
        f2, g2 = parts(x2)
        combined = tape2.backward(alpha * f2 + beta * g2)[x2]
        np.testing.assert_allclose(combined, alpha * gf + beta * gg, rtol=1e-12)

    def test_backward_rerun_bit_identical(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=8)
        tape = ad.Tape()
        x = tape.leaf(v, requires_grad=True)
        out = ad.norm2(ad.sin(x) * ad.exp(x * 0.3))
        g1 = tape.backward(out)[x]
        g2 = tape.backward(out)[x]
        np.testing.assert_array_equal(g1, g2)


class TestGradCheck:
    def test_square(self):
        err = ad.grad_check(lambda x: x * x, [np.array(3.0)], h=1e-5)
        assert err < 1e-8

    def test_constant_is_exact(self):
        err = ad.grad_check(lambda x: x.tape.const(1.0) * 1.0, [np.array(2.0)], h=1e-5)
        assert err == 0.0

    def test_composed_ops(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            v = rng.normal(size=5) * 0.5

            def f(x):
                y = ad.sigmoid(x) * ad.cos(x) + ad.tanh(x * 0.7)
                return ad.norm2(y) + ad.log(ad.exp(y).sum())

            assert ad.grad_check(f, [v], h=1e-5) < 1e-4

    def test_stack_concat_slice(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=3)
        b = rng.normal(size=3)

        def f(x, y):
            m = ad.stack([x, y, x * y], axis=0)
            c = ad.concat([m, m * 2.0], axis=0)
            return (c[:, 0] * c[:, 2]).sum() + c[1, 1]

        assert ad.grad_check(f, [a, b], h=1e-5) < 1e-6

    def test_scatter_into(self):
        rng = np.random.default_rng(31)
        vals = rng.normal(size=4)
        base = np.zeros((3, 3))
        idx = np.array([0, 4, 7, 8])
        weights = rng.normal(size=(3, 3))

        def f(v):
            img = ad.scatter_into(base, idx, ad.sigmoid(v))
            return (img * v.tape.const(weights)).sum()

        assert ad.grad_check(f, [vals], h=1e-5) < 1e-6


# One expression per op in autodiff, built from x (3,) and m (3,3).
OPS = {
    "add": lambda x, m: x + x,
    "sub": lambda x, m: x - 1.0,
    "mul": lambda x, m: x * m,
    "div": lambda x, m: x / (x * x + 1.0),
    "neg": lambda x, m: -x,
    "sum": lambda x, m: m.sum(axis=0),
    "mean": lambda x, m: m.mean(axis=1),
    "dot": lambda x, m: ad.dot(x, x),
    "matmul": lambda x, m: m @ m,
    "sqrt": lambda x, m: ad.sqrt(x * x + 1.0),
    "exp": lambda x, m: ad.exp(x),
    "log": lambda x, m: ad.log(x * x + 1.0),
    "sin": lambda x, m: ad.sin(x),
    "cos": lambda x, m: ad.cos(x),
    "tanh": lambda x, m: ad.tanh(x),
    "arccos": lambda x, m: ad.arccos(x * 0.1),
    "acos_safe": lambda x, m: ad.acos_safe(x * 0.1),
    "clamp": lambda x, m: ad.clamp(x, -0.5, 0.5),
    "sigmoid": lambda x, m: ad.sigmoid(x),
    "norm2": lambda x, m: ad.norm2(m, axis=1),
    "detach": lambda x, m: ad.detach(x) * x,
    "take": lambda x, m: ad.take(m, np.array([0, 2, 2])),
    "segment_sum": lambda x, m: ad.segment_sum(m, np.array([0, 0, 1]), 2),
    "concat": lambda x, m: ad.concat([x, x * 2.0]),
    "stack": lambda x, m: ad.stack([x, x * 2.0], axis=1),
    "reshape": lambda x, m: m.reshape((9,)),
    "transpose": lambda x, m: m.T,
    "index": lambda x, m: m[1, :2],
    "scatter_into": lambda x, m: ad.scatter_into(np.zeros(5), np.array([0, 2, 4]), x),
    "custom": lambda x, m: ad.custom((x,), 2.0 * x.value, lambda g: (2.0 * g,)),
}


def _tape_after(op):
    """Weak reference to a tape that ran one op forward and backward, taken
    after every strong reference the caller holds has gone."""
    tape = ad.Tape()
    x = tape.leaf(np.array([0.3, -0.7, 1.1]))
    m = tape.leaf(np.arange(9.0).reshape(3, 3) * 0.1 + 0.5)
    tape.backward(op(x, m).sum())
    return weakref.ref(tape)


class TestTapeLifetime:
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_tape_freed_without_cyclic_collector(self, name):
        # a closure that holds a Var makes Var -> tape -> node -> closure a
        # cycle, which only the cyclic collector frees
        gc.disable()
        try:
            assert _tape_after(OPS[name])() is None
        finally:
            gc.enable()
