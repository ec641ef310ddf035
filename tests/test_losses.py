"""Loss tests: hand-computed KL values, axioms, oracles, differentiability."""

import numpy as np
import pytest

from tqdec import tensor as T
from tqdec.decoder import DecoderTrace
from tqdec.errors import ConfigError, ContractError, NumericError
from tqdec.losses import (LossBreakdown, LossWeights, attention_loss,
                          gram_softmax, kl_between_maps, mse_loss, total_loss)
from tqdec.tensor import Tensor


def row_softmax(m):
    e = np.exp(m - m.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def trace_of(a_s_list, a_c_list):
    tr = DecoderTrace()
    tr.a_s = [Tensor(a) if not isinstance(a, Tensor) else a for a in a_s_list]
    tr.a_c = [Tensor(a) if not isinstance(a, Tensor) else a for a in a_c_list]
    return tr


class TestGramSoftmax:
    def test_zero_matrix_uniform(self):
        k = 5
        m = gram_softmax(Tensor(np.zeros((k, 3)))).data
        np.testing.assert_allclose(m, np.full((k, k), 1.0 / k), atol=1e-12)

    def test_scaled_identity_near_diagonal(self):
        m = gram_softmax(Tensor(20.0 * np.eye(4))).data
        assert np.all(np.diag(m) > 0.999)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        want = row_softmax(a @ a.T)
        np.testing.assert_allclose(gram_softmax(Tensor(a)).data, want, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        m = gram_softmax(Tensor(rng.normal(size=(6, 9)) * 4)).data
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-9)

    def test_orthogonal_right_multiplication_invariant(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 7))
        q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
        base = gram_softmax(Tensor(a)).data
        rotated = gram_softmax(Tensor(a @ q)).data
        np.testing.assert_allclose(rotated, base, atol=1e-9)

    def test_nonfinite_rejected(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(NumericError):
            gram_softmax(Tensor(bad))


class TestBatchedLosses:
    def test_gram_and_kl_per_sample(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(3, 4, 5))
        c = rng.normal(size=(3, 4, 5))
        ls, lc = gram_softmax(Tensor(a)), gram_softmax(Tensor(c))
        assert ls.data.shape == (3, 4, 4)
        kl = kl_between_maps(ls, lc)
        assert kl.data.shape == (3,)
        for b in range(3):
            one = kl_between_maps(gram_softmax(Tensor(a[b])),
                                  gram_softmax(Tensor(c[b])))
            assert kl.data[b] == pytest.approx(float(one.data), rel=1e-13)

    def test_attention_loss_keeps_batch_axis(self):
        rng = np.random.default_rng(7)
        a_s = [rng.normal(size=(3, 4, 5)) for _ in range(2)]
        a_c = [rng.normal(size=(3, 4, 5)) for _ in range(2)]
        total, per_layer = attention_loss(trace_of(a_s, a_c))
        assert total.data.shape == (3,)
        for b in range(3):
            one, _ = attention_loss(trace_of([x[b] for x in a_s],
                                             [x[b] for x in a_c]))
            assert total.data[b] == pytest.approx(float(one.data), rel=1e-13)
        whole = [float(attention_loss(trace_of([s], [c]))[0].data.mean())
                 for s, c in zip(a_s, a_c)]
        assert per_layer == pytest.approx(whole, rel=1e-13)


class TestKlBetweenMaps:
    def test_hand_case(self):
        l_s = Tensor(np.array([[0.9, 0.1], [0.1, 0.9]]))
        l_c = Tensor(np.full((2, 2), 0.5))
        got = float(kl_between_maps(l_s, l_c).data)
        want = 0.9 * np.log(1.8) + 0.1 * np.log(0.2)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.3681, abs=1e-4)

    def test_identical_maps_zero(self):
        rng = np.random.default_rng(3)
        m = row_softmax(rng.normal(size=(4, 4)))
        assert float(kl_between_maps(Tensor(m), Tensor(m)).data) == pytest.approx(0.0, abs=1e-12)

    def test_sum_reduce_is_k_times_mean(self):
        rng = np.random.default_rng(4)
        a = row_softmax(rng.normal(size=(5, 5)))
        b = row_softmax(rng.normal(size=(5, 5)))
        m = float(kl_between_maps(Tensor(a), Tensor(b), "mean").data)
        s = float(kl_between_maps(Tensor(a), Tensor(b), "sum").data)
        assert s == pytest.approx(5 * m, rel=1e-12)

    def test_bad_reduce_rejected(self):
        m = Tensor(np.full((2, 2), 0.5))
        with pytest.raises(ConfigError):
            kl_between_maps(m, m, "max")


class TestAttentionLoss:
    def test_zero_when_traces_match(self):
        rng = np.random.default_rng(5)
        mats = [rng.normal(size=(4, 6)) for _ in range(2)]
        loss, per_layer = attention_loss(trace_of(mats, [m.copy() for m in mats]))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-9)
        assert all(abs(v) < 1e-9 for v in per_layer)

    def test_nonnegative_many_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            tr = trace_of([rng.normal(size=(4, 5)) * 3],
                          [rng.normal(size=(4, 5)) * 3])
            loss, per_layer = attention_loss(tr)
            assert float(loss.data) >= -1e-9
            assert all(v >= -1e-9 for v in per_layer)

    def test_layer_sum(self):
        rng = np.random.default_rng(6)
        a1, c1 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        a2, c2 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        l1, _ = attention_loss(trace_of([a1], [c1]))
        l2, _ = attention_loss(trace_of([a2], [c2]))
        both, per_layer = attention_loss(trace_of([a1, a2], [c1, c2]))
        assert float(both.data) == pytest.approx(float(l1.data) + float(l2.data),
                                                 rel=1e-12)
        assert len(per_layer) == 2

    def test_positive_when_rows_differ(self):
        # distinct row distributions (TV > 1e-3) must give strictly positive loss
        a_s = np.array([[5.0, 0.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 5.0]])
        a_c = np.zeros((3, 3))
        loss, _ = attention_loss(trace_of([a_s], [a_c]))
        assert float(loss.data) > 1e-4

    def test_k_mismatch_rejected(self):
        tr = trace_of([np.zeros((3, 4)), np.zeros((2, 4))],
                      [np.zeros((3, 4)), np.zeros((2, 4))])
        with pytest.raises(ContractError):
            attention_loss(tr)

    def test_empty_trace_rejected(self):
        with pytest.raises(ContractError):
            attention_loss(DecoderTrace())

    def test_gradient_both_sides(self):
        rng = np.random.default_rng(7)
        c_data = rng.normal(size=(3, 4))
        s = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        rep = T.grad_check(
            lambda t: attention_loss(trace_of([t], [Tensor(c_data)]))[0], s, tol=1e-4)
        assert rep.passed, f"self side: {rep.max_rel_err:.2e}"

        s_data = rng.normal(size=(3, 4))
        c = Tensor(c_data.copy(), requires_grad=True)
        rep = T.grad_check(
            lambda t: attention_loss(trace_of([Tensor(s_data)], [t]))[0], c, tol=1e-4)
        assert rep.passed, f"cross side: {rep.max_rel_err:.2e}"

    def test_stop_grad_freezes_one_side(self):
        rng = np.random.default_rng(8)
        s = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        loss, _ = attention_loss(trace_of([s], [c]), stop_grad="self")
        T.backward(loss)
        assert s.grad is None
        assert c.grad is not None

        s.zero_grad(); c.zero_grad()
        loss, _ = attention_loss(trace_of([s], [c]), stop_grad="cross")
        T.backward(loss)
        assert s.grad is not None
        assert c.grad is None

    def test_symmetric_variant(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        fwd, _ = attention_loss(trace_of([a], [b]))
        rev, _ = attention_loss(trace_of([b], [a]))
        sym, _ = attention_loss(trace_of([a], [b]), symmetric=True)
        assert float(sym.data) == pytest.approx(
            0.5 * (float(fwd.data) + float(rev.data)), rel=1e-12)

    def test_descent_decreases_monotonically(self):
        rng = np.random.default_rng(10)
        s = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        c = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        prev = np.inf
        for _ in range(50):
            s.zero_grad(); c.zero_grad()
            loss, _ = attention_loss(trace_of([s], [c]))
            val = float(loss.data)
            assert val < prev
            prev = val
            T.backward(loss)
            s.data = s.data - 0.05 * s.grad
            c.data = c.data - 0.05 * c.grad


class TestMseAndTotal:
    def test_mse_exact_cases(self):
        p = Tensor(np.array([1.0, 2.0]))
        assert float(mse_loss(p, np.array([1.0, 2.0])).data) == 0.0
        assert float(mse_loss(p, np.array([0.0, 0.0])).data) == pytest.approx(2.5)

    def test_mse_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        p = rng.normal(size=10)
        t = rng.normal(size=10)
        want = sum((a - b) ** 2 for a, b in zip(p, t)) / 10
        assert float(mse_loss(Tensor(p), t).data) == pytest.approx(want, abs=1e-12)

    def test_mse_length_mismatch(self):
        with pytest.raises(ContractError):
            mse_loss(Tensor(np.ones(3)), np.ones(4))

    def test_total_projections(self):
        r, a = Tensor(np.array(2.5)), Tensor(np.array(0.4))
        assert float(total_loss(r, a, LossWeights(1.0, 0.0)).data) == 2.5
        assert float(total_loss(r, a, LossWeights(0.0, 1.0)).data) == pytest.approx(0.4)
        assert float(total_loss(r, a, LossWeights(1.0, 0.5)).data) == pytest.approx(2.7)

    def test_weights_validation(self):
        with pytest.raises(ConfigError):
            LossWeights(-1.0, 1.0)
        with pytest.raises(ConfigError):
            LossWeights(0.0, 0.0)
        with pytest.raises(ConfigError):
            LossWeights(np.inf, 1.0)

    def test_breakdown_consistency(self):
        w = LossWeights(1.0, 0.5)
        b = LossBreakdown(loss_reg=2.5, loss_att=0.4,
                          loss_all=1.0 * 2.5 + 0.5 * 0.4, per_layer_kl=[0.2, 0.2])
        assert b.loss_all == pytest.approx(
            w.lambda_reg * b.loss_reg + w.lambda_att * b.loss_att, abs=1e-9)
