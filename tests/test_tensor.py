"""Gradient and contract tests for the tape engine.

Every primitive is validated against central finite differences; the
oracle lives in tensor.grad_check and is itself exercised here on a
function with a known closed-form gradient.
"""

import gc
import weakref

import numpy as np
import pytest

from tqdec import tensor as T
from tqdec.errors import ContractError, DimensionError, NumericError


def make_input(rng, shape):
    # keep away from relu/clamp kinks so the numeric derivative is clean
    x = rng.uniform(-2.0, 2.0, size=shape)
    x[np.abs(x) < 0.05] += 0.1
    return x


class TestGradCheckOracle:
    def test_known_gradient_quadratic(self):
        # f(x) = sum(x^2) has gradient 2x; check the checker agrees
        x = T.Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
        rep = T.grad_check(lambda t: T.tsum(T.mul(t, t)), x)
        assert rep.passed
        y = T.tsum(T.mul(x, x))
        x.zero_grad()
        T.backward(y)
        np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-12)

    def test_detects_wrong_gradient(self):
        # a deliberately broken op must fail the check
        def broken(t):
            out = T.Tensor(t.data.sum(), requires_grad=True,
                           _parents=(t,), _op="broken")

            def _bw(g):
                t._accumulate(np.full_like(t.data, 3.0))  # truth is 1.0
            out._backward_fn = _bw
            return out

        x = T.Tensor(np.ones((3,)), requires_grad=True)
        rep = T.grad_check(broken, x)
        assert not rep.passed


UNARY_CASES = [
    ("neg", lambda x: T.tsum(T.neg(x)), (4, 3)),
    ("scale", lambda x: T.tsum(T.scale(x, -1.7)), (4, 3)),
    ("relu", lambda x: T.tsum(T.relu(x)), (4, 3)),
    ("sigmoid", lambda x: T.tsum(T.sigmoid(x)), (4, 3)),
    ("softmax", lambda x: T.tsum(T.mul(T.softmax(x, axis=-1),
                                       T.Tensor(np.arange(12.0).reshape(4, 3)))), (4, 3)),
    ("log", lambda x: T.tsum(T.log(T.clamp_min(x, 1e-12))), (4, 3)),
    ("clamp_min", lambda x: T.tsum(T.clamp_min(x, 0.25)), (4, 3)),
    ("transpose", lambda x: T.tsum(T.mul(T.transpose(x),
                                         T.Tensor(np.arange(12.0).reshape(3, 4)))), (4, 3)),
    ("reshape", lambda x: T.tsum(T.mul(T.reshape(x, (2, 6)),
                                       T.Tensor(np.arange(12.0).reshape(2, 6)))), (4, 3)),
    ("sum_axis0", lambda x: T.tsum(T.mul(T.tsum(x, axis=0),
                                         T.Tensor(np.arange(3.0)))), (4, 3)),
    ("sum_axis1", lambda x: T.tsum(T.mul(T.tsum(x, axis=1),
                                         T.Tensor(np.arange(4.0)))), (4, 3)),
    ("mean", lambda x: T.mean(T.mul(x, x)), (4, 3)),
]


class TestPrimitiveGradients:
    @pytest.mark.parametrize("name,f,shape", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
    def test_unary_many_seeds(self, name, f, shape):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = T.Tensor(make_input(rng, shape), requires_grad=True)
            rep = T.grad_check(f, x, eps=1e-5, tol=1e-5)
            assert rep.passed, f"{name} seed {seed}: rel err {rep.max_rel_err:.3e}"

    def test_add_both_sides(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            b_data = make_input(rng, (4, 3))
            a_data = make_input(rng, (4, 3))
            a = T.Tensor(a_data.copy(), requires_grad=True)
            rep = T.grad_check(lambda t: T.tsum(T.add(t, T.Tensor(b_data))), a)
            assert rep.passed
            b = T.Tensor(b_data.copy(), requires_grad=True)
            rep = T.grad_check(lambda t: T.tsum(T.add(T.Tensor(a_data), t)), b)
            assert rep.passed

    def test_add_bias_broadcast(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            m = make_input(rng, (4, 3))
            bias = T.Tensor(make_input(rng, (3,)), requires_grad=True)
            rep = T.grad_check(lambda t: T.tsum(T.add(T.Tensor(m), t)), bias)
            assert rep.passed

    def test_sub_mul_hadamard(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            other = make_input(rng, (3, 5))
            x = T.Tensor(make_input(rng, (3, 5)), requires_grad=True)
            assert T.grad_check(lambda t: T.tsum(T.sub(t, T.Tensor(other))), x).passed
            assert T.grad_check(lambda t: T.tsum(T.mul(t, T.Tensor(other))), x).passed
            assert T.grad_check(lambda t: T.tsum(T.hadamard_const(t, other)), x).passed

    def test_matmul_both_operands(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            b_data = make_input(rng, (3, 5))
            a_data = make_input(rng, (4, 3))
            w_data = make_input(rng, (4, 5))
            a = T.Tensor(a_data.copy(), requires_grad=True)
            rep = T.grad_check(
                lambda t: T.tsum(T.mul(T.matmul(t, T.Tensor(b_data)),
                                       T.Tensor(w_data))), a)
            assert rep.passed
            b = T.Tensor(b_data.copy(), requires_grad=True)
            rep = T.grad_check(lambda t: T.tsum(T.matmul(T.Tensor(a_data), t)), b)
            assert rep.passed

    def test_concat_gradients(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            other = make_input(rng, (2, 3))
            x = T.Tensor(make_input(rng, (4, 3)), requires_grad=True)
            w = T.Tensor(np.arange(18.0).reshape(6, 3))
            rep = T.grad_check(
                lambda t: T.tsum(T.mul(T.concat([t, T.Tensor(other)], axis=0), w)), x)
            assert rep.passed

    def test_layer_norm_all_inputs(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            xd = make_input(rng, (4, 6))
            gd = rng.uniform(0.5, 1.5, size=6)
            bd = rng.uniform(-0.5, 0.5, size=6)
            w = T.Tensor(rng.uniform(-1, 1, size=(4, 6)))

            x = T.Tensor(xd.copy(), requires_grad=True)
            rep = T.grad_check(
                lambda t: T.tsum(T.mul(T.layer_norm(t, T.Tensor(gd), T.Tensor(bd)), w)), x)
            assert rep.passed, f"x seed {seed}: {rep.max_rel_err:.3e}"

            g = T.Tensor(gd.copy(), requires_grad=True)
            rep = T.grad_check(
                lambda t: T.tsum(T.mul(T.layer_norm(T.Tensor(xd), t, T.Tensor(bd)), w)), g)
            assert rep.passed

            b = T.Tensor(bd.copy(), requires_grad=True)
            rep = T.grad_check(
                lambda t: T.tsum(T.mul(T.layer_norm(T.Tensor(xd), T.Tensor(gd), t), w)), b)
            assert rep.passed


class TestBatchedGradients:
    """Leading batch axes: broadcast operands get their gradients summed
    back over the batch."""

    def test_matmul_shared_weight(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x_data = make_input(rng, (3, 4, 5))
            w_data = make_input(rng, (5, 2))
            probe = T.Tensor(make_input(rng, (3, 4, 2)))
            w = T.Tensor(w_data.copy(), requires_grad=True)
            rep = T.grad_check(lambda t: T.tsum(T.mul(
                T.matmul(T.Tensor(x_data), t), probe)), w)
            assert rep.passed, f"weight seed {seed}: {rep.max_rel_err:.2e}"
            x = T.Tensor(x_data.copy(), requires_grad=True)
            rep = T.grad_check(lambda t: T.tsum(T.mul(
                T.matmul(t, T.Tensor(w_data)), probe)), x)
            assert rep.passed, f"input seed {seed}: {rep.max_rel_err:.2e}"

    def test_matmul_batched_operands(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            b_data = make_input(rng, (3, 5, 2))
            probe = T.Tensor(make_input(rng, (3, 4, 2)))
            a = T.Tensor(make_input(rng, (3, 4, 5)), requires_grad=True)
            rep = T.grad_check(lambda t: T.tsum(T.mul(
                T.matmul(t, T.Tensor(b_data)), probe)), a)
            assert rep.passed
            # the Gram product: both operands are the same node
            rep = T.grad_check(lambda t: T.tsum(T.mul(
                T.matmul(t, T.transpose(t)), T.Tensor(np.ones((3, 4, 4))))), a)
            assert rep.passed

    def test_matmul_matches_per_sample(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4, 5))
        w = rng.normal(size=(5, 2))
        out = T.matmul(T.Tensor(x), T.Tensor(w)).data
        for b in range(3):
            np.testing.assert_allclose(out[b], x[b] @ w, rtol=1e-14)

    def test_add_broadcasts_suffix_operand_either_side(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            big = make_input(rng, (3, 4, 5))
            probe = T.Tensor(make_input(rng, (3, 4, 5)))
            for shape in ((5,), (4, 5)):
                small = T.Tensor(make_input(rng, shape), requires_grad=True)
                rep = T.grad_check(lambda t: T.tsum(T.mul(
                    T.add(T.Tensor(big), t), probe)), small)
                assert rep.passed
                rep = T.grad_check(lambda t: T.tsum(T.mul(
                    T.add(t, T.Tensor(big)), probe)), small)
                assert rep.passed

    def test_add_rejects_non_suffix_shapes(self):
        with pytest.raises(DimensionError):
            T.add(T.Tensor(np.ones((3, 4, 5))), T.Tensor(np.ones((3, 5))))

    def test_transpose_and_axis_sum(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = T.Tensor(make_input(rng, (2, 3, 4)), requires_grad=True)
            probe = T.Tensor(make_input(rng, (2, 4, 3)))
            assert T.grad_check(lambda t: T.tsum(T.mul(T.transpose(t), probe)), x).passed
            w = T.Tensor(make_input(rng, (2,)))
            assert T.grad_check(lambda t: T.tsum(T.mul(
                T.tsum(t, axis=(-2, -1)), w)), x).passed

    def test_layer_norm_batched_gain_and_bias(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            xd = make_input(rng, (2, 4, 6))
            gd = rng.uniform(0.5, 1.5, size=6)
            bd = rng.uniform(-0.5, 0.5, size=6)
            w = T.Tensor(rng.uniform(-1, 1, size=(2, 4, 6)))
            for which in range(3):
                args = [T.Tensor(xd), T.Tensor(gd), T.Tensor(bd)]
                t0 = T.Tensor(args[which].data.copy(), requires_grad=True)

                def f(t, which=which, args=args):
                    parts = list(args)
                    parts[which] = t
                    return T.tsum(T.mul(T.layer_norm(*parts), w))
                rep = T.grad_check(f, t0)
                assert rep.passed, f"input {which} seed {seed}: {rep.max_rel_err:.2e}"


class TestSoftmaxProperties:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        y = T.softmax(T.Tensor(rng.normal(size=(5, 9)) * 10), axis=-1)
        np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 6))
        a = T.softmax(T.Tensor(x), axis=-1).data
        b = T.softmax(T.Tensor(x + 123.45), axis=-1).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_large_inputs_stable(self):
        x = T.Tensor(np.array([[1000.0, 1000.0, -1000.0]]))
        y = T.softmax(x, axis=-1).data
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y[0, :2], 0.5, atol=1e-9)


class TestGraphMechanics:
    def test_diamond_accumulation(self):
        # y = x*x + x*x: both paths must contribute, grad = 4x
        x = T.Tensor(np.array([1.5, -0.5]), requires_grad=True)
        y = T.tsum(T.add(T.mul(x, x), T.mul(x, x)))
        T.backward(y)
        np.testing.assert_allclose(x.grad, 4.0 * x.data, atol=1e-12)

    def test_reused_node_many_consumers(self):
        x = T.Tensor(np.array([2.0]), requires_grad=True)
        h = T.scale(x, 3.0)
        y = T.tsum(T.add(h, T.add(h, h)))  # y = 9x
        T.backward(y)
        np.testing.assert_allclose(x.grad, [9.0], atol=1e-12)

    def test_backward_requires_scalar(self):
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        y = T.mul(x, x)
        with pytest.raises(ContractError):
            T.backward(y)

    def test_backward_twice_rejected(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        y = T.tsum(x)
        T.backward(y)
        with pytest.raises(ContractError):
            T.backward(y)

    def test_no_grad_leaves_untouched(self):
        x = T.Tensor(np.ones(3), requires_grad=False)
        y = T.tsum(T.mul(x, x))
        T.backward(y)
        assert x.grad is None

    def test_dropped_graph_freed_without_cycle_collector(self):
        # no backward closure refers to its own node, so reference
        # counting alone frees a graph once the caller drops it
        w = T.Tensor(np.ones((3, 3)), requires_grad=True)
        gc.disable()
        try:
            h = T.relu(T.matmul(T.Tensor(np.ones((2, 4, 3))), w))
            loss = T.mean(T.mul(h, h))
            T.backward(loss)
            interior = weakref.ref(h)
            del h, loss
            assert interior() is None
            assert w.grad is not None
        finally:
            gc.enable()

    def test_deep_chain_no_recursion_limit(self):
        x = T.Tensor(np.array([1.0]), requires_grad=True)
        h = x
        for _ in range(5000):
            h = T.scale(h, 1.0)
        T.backward(T.tsum(h))
        np.testing.assert_allclose(x.grad, [1.0])


class TestShapeContracts:
    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\)"):
            T.add(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 2))))

    def test_matmul_inner_mismatch(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\)"):
            T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))

    def test_matmul_rejects_1d(self):
        with pytest.raises(DimensionError):
            T.matmul(T.Tensor(np.ones(3)), T.Tensor(np.ones((3, 2))))

    def test_log_rejects_nonpositive(self):
        with pytest.raises(NumericError):
            T.log(T.Tensor(np.array([1.0, 0.0])))

    def test_reshape_size_mismatch(self):
        with pytest.raises(DimensionError):
            T.reshape(T.Tensor(np.ones((2, 3))), (4, 2))

    def test_float64_everywhere(self):
        x = T.Tensor([[1, 2], [3, 4]])
        assert x.data.dtype == np.float64
        y = T.softmax(x, axis=-1)
        assert y.data.dtype == np.float64


class TestDeterminism:
    def test_same_graph_same_grads(self):
        def run():
            rng = np.random.default_rng(42)
            x = T.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
            w = T.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            h = T.relu(T.matmul(x, w))
            y = T.mean(T.mul(h, h))
            T.backward(y)
            return x.grad.copy(), w.grad.copy()

        g1 = run()
        g2 = run()
        assert np.array_equal(g1[0], g2[0])
        assert np.array_equal(g1[1], g2[1])
