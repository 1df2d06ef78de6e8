import gc
import weakref

import numpy as np
import pytest

import chainref
from chainref import add, div, mul, sub, vsum
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
        out = vsum(mul(a, a))
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
            add(a, b)


class TestPrimitives:
    def test_square_derivative(self):
        tape, x = scalar_tape(3.0)
        grads = tape.backward(mul(x, x))
        np.testing.assert_allclose(grads[x], 6.0)

    def test_log_derivative(self):
        tape, x = scalar_tape(2.0)
        grads = tape.backward(chainref.log(x))
        np.testing.assert_allclose(grads[x], 0.5, rtol=1e-12)

    def test_sigmoid_grad_at_zero(self):
        tape, x = scalar_tape(0.0)
        grads = tape.backward(chainref.sigmoid(x))
        np.testing.assert_allclose(grads[x], 0.25, rtol=1e-12)

    def test_log_nonpositive_rejected(self):
        tape, x = scalar_tape(-1.0)
        with pytest.raises(ad.DomainError):
            chainref.log(x)
        with pytest.raises(ad.DomainError):
            chainref.sqrt(x)

    def test_acos_safe_exact_at_one(self):
        tape, x = scalar_tape(1.0)
        out = chainref.acos_safe(x)
        assert out.item() == 0.0
        grads = tape.backward(out)
        assert grads[x] == 0.0

    def test_clamp_gradient_gate(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([-2.0, 0.3, 2.0]), requires_grad=True)
        grads = tape.backward(vsum(chainref.clamp(x, -1.0, 1.0)))
        np.testing.assert_array_equal(grads[x], [0.0, 1.0, 0.0])

    def test_norm2_gradient_is_direction(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=4)
        tape = ad.Tape()
        x = tape.leaf(v, requires_grad=True)
        grads = tape.backward(chainref.norm2(x))
        np.testing.assert_allclose(grads[x], v / np.linalg.norm(v), rtol=1e-12)

    def test_matmul_take_segment_sum(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))
        tape = ad.Tape()
        av = tape.leaf(a, requires_grad=True)
        wv = tape.leaf(w, requires_grad=True)
        m = chainref.matmul(av, wv)
        idx = np.array([0, 0, 1, 3])
        picked = chainref.take(m, idx)
        pooled = chainref.segment_sum(picked, np.array([0, 1, 1, 0]), 2)
        out = vsum(mul(pooled, pooled))
        grads = tape.backward(out)
        assert grads[av].shape == a.shape and grads[wv].shape == w.shape

    def test_broadcast_add_unbroadcasts_grad(self):
        tape = ad.Tape()
        a = tape.leaf(np.ones((3, 2)), requires_grad=True)
        b = tape.leaf(np.ones(2), requires_grad=True)
        grads = tape.backward(vsum(add(a, b)))
        np.testing.assert_array_equal(grads[b], [3.0, 3.0])


    def test_logistic_is_the_two_branch_form(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 4001), [-0.0, 1e-300, -1e-300]])
        pos = x >= 0
        want = np.empty_like(x)
        want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ez = np.exp(x[~pos])
        want[~pos] = ez / (1.0 + ez)
        with np.errstate(over="raise"):
            assert np.array_equal(ad.logistic(x), want)


class TestActivity:
    @pytest.mark.parametrize("op", [add, sub, mul, div, chainref.matmul])
    def test_constant_parent_gets_no_cotangent(self, op):
        tape = ad.Tape()
        x = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
        c = tape.const(np.array([[0.5, -1.5], [2.5, 0.25]]))
        for a, b in ((x, c), (c, x)):
            out = op(a, b)
            g_a, g_b = tape._nodes[out._i].vjp(np.ones((2, 2)))
            assert (g_a is None, g_b is None) == (a is c, b is c)

    @pytest.mark.parametrize("op", [add, sub, mul, div, chainref.matmul])
    def test_gradient_as_with_a_live_parent(self, op):
        # the live parent's cotangent does not depend on the other's activity
        x0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        c0 = np.array([[0.5, -1.5], [2.5, 0.25]])
        grads = []
        for live in (False, True):
            tape = ad.Tape()
            x, c = tape.leaf(x0), tape.leaf(c0, requires_grad=live)
            out = mul(op(x, c), op(c, x))
            grads.append(tape.backward(vsum(out))[x])
        assert np.array_equal(grads[0], grads[1])


class TestBackward:
    def test_sum_gives_ones(self):
        tape = ad.Tape()
        x = tape.leaf(np.arange(5.0), requires_grad=True)
        grads = tape.backward(vsum(x))
        np.testing.assert_array_equal(grads[x], np.ones(5))

    def test_nonscalar_output_rejected(self):
        tape = ad.Tape()
        x = tape.leaf(np.arange(3.0), requires_grad=True)
        with pytest.raises(ValueError):
            tape.backward(mul(x, x))

    def test_accumulation_linearity(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=6)
        alpha, beta = 0.7, -1.3

        def parts(x):
            f = vsum(mul(x, x))
            g = vsum(chainref.exp(mul(x, 0.1)))
            return f, g

        tape = ad.Tape()
        x = tape.leaf(v, requires_grad=True)
        f, g = parts(x)
        gf = tape.backward(f)[x]
        gg = tape.backward(g)[x]

        tape2 = ad.Tape()
        x2 = tape2.leaf(v, requires_grad=True)
        f2, g2 = parts(x2)
        combined = tape2.backward(add(mul(f2, alpha), mul(g2, beta)))[x2]
        np.testing.assert_allclose(combined, alpha * gf + beta * gg, rtol=1e-12)

    def test_backward_rerun_bit_identical(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=8)
        tape = ad.Tape()
        x = tape.leaf(v, requires_grad=True)
        out = chainref.norm2(mul(chainref.sin(x), chainref.exp(mul(x, 0.3))))
        g1 = tape.backward(out)[x]
        g2 = tape.backward(out)[x]
        np.testing.assert_array_equal(g1, g2)


class TestGradCheck:
    def test_square(self):
        err = ad.grad_check(lambda x: mul(x, x), [np.array(3.0)], h=1e-5)
        assert err < 1e-8

    def test_constant_is_exact(self):
        err = ad.grad_check(lambda x: mul(x.tape.const(1.0), 1.0), [np.array(2.0)], h=1e-5)
        assert err == 0.0

    def test_composed_ops(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            v = rng.normal(size=5) * 0.5

            def f(x):
                y = add(mul(chainref.sigmoid(x), chainref.cos(x)), chainref.tanh(mul(x, 0.7)))
                return add(chainref.norm2(y), chainref.log(vsum(chainref.exp(y))))

            assert ad.grad_check(f, [v], h=1e-5) < 1e-4

    def test_stack_concat_slice(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=3)
        b = rng.normal(size=3)

        def f(x, y):
            m = chainref.stack([x, y, mul(x, y)], axis=0)
            c = chainref.concat([m, mul(m, 2.0)], axis=0)
            index = chainref.index
            return add(vsum(mul(index(c, (slice(None), 0)), index(c, (slice(None), 2)))),
                       index(c, (1, 1)))

        assert ad.grad_check(f, [a, b], h=1e-5) < 1e-6


# One expression per tape op of chainref, and custom, built from x (3,) and
# m (3,3).
OPS = {
    "add": lambda x, m: add(x, x),
    "sub": lambda x, m: sub(x, 1.0),
    "mul": lambda x, m: mul(x, m),
    "div": lambda x, m: div(x, add(mul(x, x), 1.0)),
    "neg": lambda x, m: chainref.neg(x),
    "sum": lambda x, m: vsum(m, axis=0),
    "mean": lambda x, m: chainref.mean(m, axis=1),
    "matmul": lambda x, m: chainref.matmul(m, m),
    "sqrt": lambda x, m: chainref.sqrt(add(mul(x, x), 1.0)),
    "exp": lambda x, m: chainref.exp(x),
    "log": lambda x, m: chainref.log(add(mul(x, x), 1.0)),
    "sin": lambda x, m: chainref.sin(x),
    "cos": lambda x, m: chainref.cos(x),
    "tanh": lambda x, m: chainref.tanh(x),
    "acos_safe": lambda x, m: chainref.acos_safe(mul(x, 0.1)),
    "clamp": lambda x, m: chainref.clamp(x, -0.5, 0.5),
    "sigmoid": lambda x, m: chainref.sigmoid(x),
    "norm2": lambda x, m: chainref.norm2(m, axis=1),
    "take": lambda x, m: chainref.take(m, np.array([0, 2, 2])),
    "segment_sum": lambda x, m: chainref.segment_sum(m, np.array([0, 0, 1]), 2),
    "concat": lambda x, m: chainref.concat([x, mul(x, 2.0)]),
    "stack": lambda x, m: chainref.stack([x, mul(x, 2.0)], axis=1),
    "reshape": lambda x, m: chainref.reshape(m, (9,)),
    "transpose": lambda x, m: chainref.transpose(m),
    "index": lambda x, m: chainref.index(m, (1, slice(None, 2))),
    "custom": lambda x, m: ad.custom((x,), 2.0 * x.value, lambda g: (2.0 * g,)),
}


def _tape_after(op):
    """Weak reference to a tape that ran one op forward and backward, taken
    after every strong reference the caller holds has gone."""
    tape = ad.Tape()
    x = tape.leaf(np.array([0.3, -0.7, 1.1]))
    m = tape.leaf(np.arange(9.0).reshape(3, 3) * 0.1 + 0.5)
    tape.backward(vsum(op(x, m)))
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
