"""Decoder tests: position codes, query init, fused attention vs dense
oracles, layer equations, and gradient checks through the fused node."""

import numpy as np
import pytest

from tqdec import tensor as T
from tqdec.decoder import (AttentionParams, DecoderLayerParams, decoder_forward,
                           init_attention_params, init_layer_params,
                           init_queries, multi_head_attention, sinusoidal_pe)
from tqdec.errors import ConfigError, DataError, DimensionError
from tqdec.tensor import Tensor


def reference_pe(k, d):
    # independent re-statement of the sin/cos formula
    pe = np.zeros((k, d))
    for p in range(k):
        for i in range(0, d, 2):
            denom = 10000.0 ** (i / d)
            pe[p, i] = np.sin(p / denom)
            pe[p, i + 1] = np.cos(p / denom)
    return pe


def identity_attention(d):
    eye = lambda: Tensor(np.eye(d))
    zero = lambda: Tensor(np.zeros(d))
    return AttentionParams(wq=eye(), bq=zero(), wk=eye(), bk=zero(),
                           wv=eye(), bv=zero(), wo=eye(), bo=zero())


def row_softmax(m):
    e = np.exp(m - m.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestSinusoidalPe:
    def test_position_zero(self):
        pe = sinusoidal_pe(5, 8).data
        np.testing.assert_allclose(pe[0, 0::2], 0.0, atol=1e-15)
        np.testing.assert_allclose(pe[0, 1::2], 1.0, atol=1e-15)

    def test_bounded(self):
        pe = sinusoidal_pe(50, 16).data
        assert np.all(pe >= -1.0) and np.all(pe <= 1.0)

    def test_matches_reference(self):
        np.testing.assert_allclose(sinusoidal_pe(4, 8).data,
                                   reference_pe(4, 8), atol=1e-12)

    def test_odd_d_rejected(self):
        with pytest.raises(ConfigError):
            sinusoidal_pe(4, 7)

    def test_deterministic(self):
        assert np.array_equal(sinusoidal_pe(6, 10).data,
                              sinusoidal_pe(6, 10).data)


class TestInitQueries:
    def test_variance_five_statistics(self):
        bank = init_queries(64, 64, variance=5.0, seed=3)
        v = bank.embeddings.data.var()
        assert abs(v - 5.0) / 5.0 < 0.10

    def test_variance_one_statistics(self):
        bank = init_queries(64, 64, variance=1.0, seed=3)
        assert abs(bank.embeddings.data.var() - 1.0) < 0.10
        assert abs(bank.embeddings.data.mean()) < 0.10

    def test_same_seed_identical(self):
        a = init_queries(8, 16, 2.0, seed=11)
        b = init_queries(8, 16, 2.0, seed=11)
        assert np.array_equal(a.embeddings.data, b.embeddings.data)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ConfigError):
            init_queries(8, 16, 0.0, seed=0)
        with pytest.raises(ConfigError):
            init_queries(8, 16, -1.0, seed=0)

    def test_learnable(self):
        bank = init_queries(4, 8, 1.0, seed=0)
        assert bank.embeddings.requires_grad
        assert not bank.pos_encoding.requires_grad


class TestMultiHeadAttention:
    def test_singleton_memory_weights(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.normal(size=(5, 8)))
        kv = Tensor(rng.normal(size=(1, 8)))
        _, w = multi_head_attention(q, kv, identity_attention(8), n_heads=2)
        np.testing.assert_allclose(w.data, np.ones((5, 1)), atol=1e-12)

    def test_identical_queries_identical_rows(self):
        rng = np.random.default_rng(1)
        row = rng.normal(size=8)
        q = Tensor(np.tile(row, (4, 1)))
        kv = Tensor(rng.normal(size=(6, 8)))
        out, _ = multi_head_attention(q, kv, init_attention_params(8, rng), 2)
        for i in range(1, 4):
            np.testing.assert_allclose(out.data[i], out.data[0], atol=1e-12)

    def test_identity_projection_oracle(self):
        rng = np.random.default_rng(2)
        qd = rng.normal(size=(2, 4))
        md = rng.normal(size=(3, 4))
        out, w = multi_head_attention(Tensor(qd), Tensor(md),
                                      identity_attention(4), n_heads=1)
        a = row_softmax(qd @ md.T / np.sqrt(4))
        np.testing.assert_allclose(w.data, a, atol=1e-12)
        np.testing.assert_allclose(out.data, a @ md, atol=1e-12)

    def test_rows_stochastic(self):
        rng = np.random.default_rng(3)
        q = Tensor(rng.normal(size=(5, 8)) * 3)
        kv = Tensor(rng.normal(size=(7, 8)) * 3)
        _, w = multi_head_attention(q, kv, init_attention_params(8, rng), 4)
        assert np.all(w.data >= 0)
        np.testing.assert_allclose(w.data.sum(axis=1), 1.0, atol=1e-6)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            multi_head_attention(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 6))),
                                 identity_attention(4), 1)

    def test_heads_must_divide(self):
        with pytest.raises(ConfigError):
            multi_head_attention(Tensor(np.ones((2, 6))), Tensor(np.ones((3, 6))),
                                 identity_attention(6), 4)


class TestBatchedAttention:
    def test_matches_per_sample(self):
        rng = np.random.default_rng(4)
        params = init_attention_params(8, rng)
        q = rng.normal(size=(3, 5, 8))
        kv = rng.normal(size=(3, 6, 8))
        out, w = multi_head_attention(Tensor(q), Tensor(kv), params, 2)
        assert out.data.shape == (3, 5, 8) and w.data.shape == (3, 5, 6)
        for b in range(3):
            o1, w1 = multi_head_attention(Tensor(q[b]), Tensor(kv[b]), params, 2)
            np.testing.assert_allclose(out.data[b], o1.data, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(w.data[b], w1.data, rtol=1e-13, atol=1e-15)

    def test_gradients_through_batched_node(self):
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            params = init_attention_params(8, rng)
            kv_data = rng.normal(size=(2, 4, 8))
            probe = Tensor(rng.normal(size=(2, 3, 8)))
            q = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
            rep = T.grad_check(lambda t: T.tsum(T.mul(multi_head_attention(
                t, Tensor(kv_data), params, 4)[0], probe)), q)
            assert rep.passed, f"seed {seed} queries: {rep.max_rel_err:.2e}"
            kv = Tensor(kv_data.copy(), requires_grad=True)
            rep = T.grad_check(lambda t: T.tsum(T.mul(multi_head_attention(
                Tensor(q.data), t, params, 4)[0], probe)), kv)
            assert rep.passed, f"seed {seed} memory: {rep.max_rel_err:.2e}"
            wq = Tensor(params.wq.data.copy(), requires_grad=True)

            def through_wq(t):
                p = AttentionParams(**{**params.__dict__, "wq": t})
                out, _ = multi_head_attention(Tensor(q.data), Tensor(kv_data), p, 4)
                return T.tsum(T.mul(out, probe))
            rep = T.grad_check(through_wq, wq)
            assert rep.passed, f"seed {seed} wq: {rep.max_rel_err:.2e}"

    def test_batch_axes_must_match(self):
        with pytest.raises(DimensionError):
            multi_head_attention(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 3, 4))),
                                 identity_attention(4), 1)
        with pytest.raises(DimensionError):
            multi_head_attention(Tensor(np.ones((3, 4))), Tensor(np.ones((2, 3, 4))),
                                 identity_attention(4), 1)


class TestAttentionGradients:
    """The fused node's hand-derived backward against finite differences."""

    @staticmethod
    def _loss_through(params, q_data, kv_data, n_heads, probe):
        def f(t, which):
            p = AttentionParams(**{k: (t if k == which else getattr(params, k))
                                   for k in ("wq", "bq", "wk", "bk", "wv", "bv",
                                             "wo", "bo")})
            out, _ = multi_head_attention(Tensor(q_data), Tensor(kv_data), p, n_heads)
            return T.tsum(T.mul(out, probe))
        return f

    def test_all_parameters(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d, h = 8, 2
            q_data = rng.normal(size=(3, d))
            kv_data = rng.normal(size=(5, d))
            probe = Tensor(rng.normal(size=(3, d)))
            params = init_attention_params(d, rng)
            make = self._loss_through(params, q_data, kv_data, h, probe)
            for name in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"):
                t = Tensor(getattr(params, name).data.copy(), requires_grad=True)
                rep = T.grad_check(lambda x, n=name: make(x, n), t, tol=1e-5)
                assert rep.passed, f"seed {seed} {name}: {rep.max_rel_err:.2e}"

    def test_query_and_memory_inputs(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            d, h = 8, 4
            params = init_attention_params(d, rng)
            kv_data = rng.normal(size=(5, d))
            probe = Tensor(rng.normal(size=(3, d)))

            q = Tensor(rng.normal(size=(3, d)), requires_grad=True)
            rep = T.grad_check(
                lambda t: T.tsum(T.mul(multi_head_attention(t, Tensor(kv_data),
                                                            params, h)[0], probe)), q)
            assert rep.passed, f"seed {seed} queries: {rep.max_rel_err:.2e}"

            q_data = rng.normal(size=(3, d))
            kv = Tensor(kv_data.copy(), requires_grad=True)
            rep = T.grad_check(
                lambda t: T.tsum(T.mul(multi_head_attention(Tensor(q_data), t,
                                                            params, h)[0], probe)), kv)
            assert rep.passed, f"seed {seed} memory: {rep.max_rel_err:.2e}"

    def test_shared_self_attention_input(self):
        # q and kv are the same node: grads from both roles must accumulate
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            d = 8
            params = init_attention_params(d, rng)
            probe = Tensor(rng.normal(size=(4, d)))
            x = Tensor(rng.normal(size=(4, d)), requires_grad=True)
            rep = T.grad_check(
                lambda t: T.tsum(T.mul(multi_head_attention(t, t, params, 2)[0],
                                       probe)), x)
            assert rep.passed, f"seed {seed} shared: {rep.max_rel_err:.2e}"


class TestDecoderForward:
    def _bank_and_memory(self, k=3, d=8, n=5, seed=0):
        rng = np.random.default_rng(seed)
        bank = init_queries(k, d, 1.0, seed=seed)
        memory = Tensor(rng.normal(size=(n, d)))
        return bank, memory, rng

    def test_single_layer_dense_oracle(self):
        d = 4
        bank, memory, rng = self._bank_and_memory(k=2, d=d, n=3, seed=5)
        layer = init_layer_params(d, 1, 0.0, rng)
        layer.self_attn = identity_attention(d)
        layer.cross_attn = identity_attention(d)
        layer.ff_w2 = Tensor(np.zeros((2 * d, d)))         # zero feed-forward

        out, trace = decoder_forward(bank, memory, [layer], query_pe=True)

        def ln(m):
            mu = m.mean(axis=-1, keepdims=True)
            var = m.var(axis=-1, keepdims=True)
            return (m - mu) / np.sqrt(var + 1e-5)

        x0 = bank.embeddings.data
        pe = bank.pos_encoding.data
        q = x0 + pe
        s = row_softmax(q @ q.T / np.sqrt(d)) @ q
        x1 = ln(x0 + s)
        q2 = x1 + pe
        c = row_softmax(q2 @ memory.data.T / np.sqrt(d)) @ memory.data
        y = ln(x1 + c)
        want = ln(y)                                        # ff contributes zero
        np.testing.assert_allclose(out.data, want, atol=1e-9)
        np.testing.assert_allclose(trace.a_s[0].data, s, atol=1e-9)
        np.testing.assert_allclose(trace.a_c[0].data, c, atol=1e-9)

    def test_eval_deterministic(self):
        bank, memory, rng = self._bank_and_memory()
        layers = [init_layer_params(8, 2, 0.7, rng) for _ in range(2)]
        out1, _ = decoder_forward(bank, memory, layers, training=False)
        out2, _ = decoder_forward(bank, memory, layers, training=False)
        assert np.array_equal(out1.data, out2.data)

    def test_trace_lengths_two_layers_four_heads(self):
        bank, memory, rng = self._bank_and_memory(k=4, d=8)
        layers = [init_layer_params(8, 4, 0.0, rng) for _ in range(2)]
        _, trace = decoder_forward(bank, memory, layers)
        assert trace.n_layers == 2
        assert len(trace.a_c) == 2
        assert len(trace.attn_weights_self) == 2
        assert len(trace.attn_weights_cross) == 2
        assert trace.attn_weights_self[0].shape == (4, 4)
        assert trace.attn_weights_cross[0].shape == (4, 5)

    def test_weights_row_stochastic(self):
        bank, memory, rng = self._bank_and_memory()
        layers = [init_layer_params(8, 2, 0.0, rng) for _ in range(2)]
        _, trace = decoder_forward(bank, memory, layers)
        for w in trace.attn_weights_self + trace.attn_weights_cross:
            assert np.all(w >= 0)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-6)

    def test_memory_permutation_invariance(self):
        bank, memory, rng = self._bank_and_memory(n=6)
        layers = [init_layer_params(8, 2, 0.0, rng) for _ in range(2)]
        out, trace = decoder_forward(bank, memory, layers, memory_pe=False)
        perm = rng.permutation(6)
        out_p, trace_p = decoder_forward(bank, Tensor(memory.data[perm]),
                                         layers, memory_pe=False)
        np.testing.assert_allclose(out_p.data, out.data, atol=1e-9)
        for w, wp in zip(trace.attn_weights_cross, trace_p.attn_weights_cross):
            np.testing.assert_allclose(wp, w[:, perm], atol=1e-9)

    def test_memory_pe_breaks_permutation_invariance(self):
        bank, memory, rng = self._bank_and_memory(n=6)
        layers = [init_layer_params(8, 2, 0.0, rng) for _ in range(1)]
        out, _ = decoder_forward(bank, memory, layers, memory_pe=True)
        perm = np.array([3, 0, 5, 1, 4, 2])
        out_p, _ = decoder_forward(bank, Tensor(memory.data[perm]),
                                   layers, memory_pe=True)
        assert not np.allclose(out_p.data, out.data, atol=1e-6)

    def test_dropout_training_changes_output(self):
        bank, memory, rng = self._bank_and_memory()
        layers = [init_layer_params(8, 2, 0.5, rng) for _ in range(1)]
        out_eval, _ = decoder_forward(bank, memory, layers, training=False)
        out_tr, _ = decoder_forward(bank, memory, layers, training=True,
                                    rng=np.random.default_rng(0))
        assert not np.array_equal(out_eval.data, out_tr.data)
        # same dropout seed reproduces exactly
        out_tr2, _ = decoder_forward(bank, memory, layers, training=True,
                                     rng=np.random.default_rng(0))
        assert np.array_equal(out_tr.data, out_tr2.data)

    def test_batch_matches_per_sample(self):
        bank, _, rng = self._bank_and_memory(k=3, d=8)
        layers = [init_layer_params(8, 2, 0.0, rng) for _ in range(2)]
        memory = rng.normal(size=(4, 5, 8))
        out, trace = decoder_forward(bank, Tensor(memory), layers, memory_pe=True)
        assert out.data.shape == (4, 3, 8)
        assert trace.attn_weights_cross[0].shape == (4, 3, 5)
        for b in range(4):
            o1, t1 = decoder_forward(bank, Tensor(memory[b]), layers, memory_pe=True)
            np.testing.assert_allclose(out.data[b], o1.data, rtol=1e-12, atol=1e-14)
            for i in range(2):
                np.testing.assert_allclose(trace.a_s[i].data[b], t1.a_s[i].data,
                                           rtol=1e-12, atol=1e-14)
                np.testing.assert_allclose(trace.a_c[i].data[b], t1.a_c[i].data,
                                           rtol=1e-12, atol=1e-14)

    def test_batch_dropout_matches_samples_in_order(self):
        bank, _, rng = self._bank_and_memory(k=3, d=8)
        layers = [init_layer_params(8, 2, 0.4, rng) for _ in range(2)]
        memory = rng.normal(size=(3, 5, 8))
        out, _ = decoder_forward(bank, Tensor(memory), layers, training=True,
                                 rng=np.random.default_rng(7))
        one_by_one = np.random.default_rng(7)
        for b in range(3):
            o1, _ = decoder_forward(bank, Tensor(memory[b]), layers,
                                    training=True, rng=one_by_one)
            np.testing.assert_allclose(out.data[b], o1.data, rtol=1e-12, atol=1e-14)

    def test_empty_memory_rejected(self):
        bank, _, rng = self._bank_and_memory()
        layers = [init_layer_params(8, 2, 0.0, rng)]
        with pytest.raises(DataError):
            decoder_forward(bank, Tensor(np.zeros((0, 8))), layers)

    def test_no_layers_rejected(self):
        bank, memory, _ = self._bank_and_memory()
        with pytest.raises(ConfigError):
            decoder_forward(bank, memory, [])

    def test_post_norm_recording(self):
        bank, memory, rng = self._bank_and_memory()
        layers = [init_layer_params(8, 2, 0.0, rng)]
        _, pre = decoder_forward(bank, memory, layers, attn_record="pre_norm")
        _, post = decoder_forward(bank, memory, layers, attn_record="post_norm")
        assert not np.allclose(pre.a_s[0].data, post.a_s[0].data)

    def test_gradient_wrt_query_embeddings(self):
        rng = np.random.default_rng(9)
        d = 8
        memory_data = rng.normal(size=(4, d))
        layers = [init_layer_params(d, 2, 0.0, rng)]
        pe = sinusoidal_pe(3, d)
        probe = Tensor(rng.normal(size=(3, d)))

        def f(t):
            from tqdec.decoder import QueryBank
            bank = QueryBank(embeddings=t, pos_encoding=pe,
                             init_variance=1.0, k=3, d=d)
            out, _ = decoder_forward(bank, Tensor(memory_data), layers)
            return T.tsum(T.mul(out, probe))

        x = Tensor(rng.normal(size=(3, d)), requires_grad=True)
        rep = T.grad_check(f, x, tol=1e-4)
        assert rep.passed, f"rel err {rep.max_rel_err:.2e}"


class TestQueryScalingDiagonality:
    def test_scaling_raises_diagonality(self):
        # mechanism check: sharper self-similarity for larger-norm queries
        from tqdec.metrics import diagonality
        k, d = 8, 16
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            q = rng.normal(size=(k, d))
            d1 = diagonality(row_softmax(q @ q.T))
            d3 = diagonality(row_softmax((3.0 * q) @ (3.0 * q).T))
            wins += d3 > d1
        assert wins >= 95
