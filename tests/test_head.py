"""Head tests: simplex and aggregation contracts, oracles, gradients."""

import numpy as np
import pytest

from tqdec import tensor as T
from tqdec.errors import ContractError, DataError
from tqdec.head import (HeadParams, MlpBranch, aggregate, head_forward,
                        init_head_params)
from tqdec.tensor import Tensor


def small_params(d=8, seed=0, score_sigmoid=False):
    return init_head_params(d, np.random.default_rng(seed),
                            score_sigmoid=score_sigmoid)


class TestHeadForward:
    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(3)
        params = small_params()
        feats = rng.normal(size=(4, 5, 8))
        out = head_forward(Tensor(feats), params)
        assert out.weights.data.shape == (4, 5)
        assert out.final_score.data.shape == (4,)
        for b in range(4):
            one = head_forward(Tensor(feats[b]), params)
            np.testing.assert_allclose(out.weights.data[b], one.weights.data,
                                       rtol=1e-13)
            assert out.final_score.data[b] == pytest.approx(
                float(one.final_score.data), rel=1e-13)

    def test_single_clip(self):
        feats = Tensor(np.random.default_rng(0).normal(size=(1, 8)))
        out = head_forward(feats, small_params())
        np.testing.assert_allclose(out.weights.data, [1.0], atol=1e-12)
        assert float(out.final_score.data) == pytest.approx(
            float(out.scores.data[0]), abs=1e-12)

    def test_identical_rows_uniform_weights(self):
        row = np.random.default_rng(1).normal(size=8)
        feats = Tensor(np.tile(row, (5, 1)))
        out = head_forward(feats, small_params())
        np.testing.assert_allclose(out.weights.data, 0.2, atol=1e-12)
        assert np.ptp(out.scores.data) < 1e-12

    def test_weights_on_simplex(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            out = head_forward(Tensor(rng.normal(size=(6, 8)) * 2),
                               small_params(seed=seed))
            w = out.weights.data
            assert np.all(w >= 0) and np.all(w <= 1)
            assert abs(w.sum() - 1.0) < 1e-6

    def test_final_is_convex_combination(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            out = head_forward(Tensor(rng.normal(size=(6, 8)) * 2),
                               small_params(seed=seed))
            f = float(out.final_score.data)
            assert f == pytest.approx(float(out.weights.data @ out.scores.data),
                                      abs=1e-9)
            assert out.scores.data.min() - 1e-12 <= f <= out.scores.data.max() + 1e-12

    def test_hand_set_params_match_dense_oracle(self):
        d, h1, h2 = 4, 2, 2
        rng = np.random.default_rng(7)
        mats = {n: rng.normal(size=s) for n, s in
                [("w1", (d, h1)), ("b1", (h1,)), ("w2", (h1, h2)),
                 ("b2", (h2,)), ("w3", (h2, 1)), ("b3", (1,))]}
        branch = MlpBranch(**{k: Tensor(v) for k, v in mats.items()})
        params = HeadParams(weight_branch=branch, score_branch=branch)
        feats = rng.normal(size=(3, d))

        def mlp(x):
            h = np.maximum(x @ mats["w1"] + mats["b1"], 0)
            h = np.maximum(h @ mats["w2"] + mats["b2"], 0)
            return (h @ mats["w3"] + mats["b3"]).reshape(-1)

        logits = mlp(feats)
        e = np.exp(logits - logits.max())
        w_want = e / e.sum()
        s_want = mlp(feats)

        out = head_forward(Tensor(feats), params)
        np.testing.assert_allclose(out.weights.data, w_want, atol=1e-12)
        np.testing.assert_allclose(out.scores.data, s_want, atol=1e-12)
        np.testing.assert_allclose(float(out.final_score.data), w_want @ s_want,
                                   atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(5, 8))
        params = small_params(seed=2)
        base = head_forward(Tensor(feats), params)
        perm = rng.permutation(5)
        permuted = head_forward(Tensor(feats[perm]), params)
        np.testing.assert_allclose(permuted.weights.data,
                                   base.weights.data[perm], atol=1e-12)
        np.testing.assert_allclose(permuted.scores.data,
                                   base.scores.data[perm], atol=1e-12)
        assert float(permuted.final_score.data) == pytest.approx(
            float(base.final_score.data), abs=1e-12)

    def test_constant_score_shift(self):
        # adding c to every score shifts the final score by exactly c
        rng = np.random.default_rng(9)
        feats = Tensor(rng.normal(size=(4, 8)))
        params = small_params(seed=3)
        base = head_forward(feats, params)
        c = 2.75
        shifted = float(base.final_score.data) + c
        manual = float(base.weights.data @ (base.scores.data + c))
        assert manual == pytest.approx(shifted, abs=1e-9)

    def test_monotone_in_single_score(self):
        w = np.array([0.2, 0.3, 0.5])
        s = np.array([1.0, 2.0, 3.0])
        up = s.copy(); up[1] += 1.0
        assert aggregate(w, up) > aggregate(w, s)

    def test_sigmoid_option_bounds_scores(self):
        rng = np.random.default_rng(10)
        out = head_forward(Tensor(rng.normal(size=(4, 8)) * 5),
                           small_params(score_sigmoid=True))
        assert np.all(out.scores.data > 0) and np.all(out.scores.data < 1)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            head_forward(Tensor(np.zeros((0, 8))), small_params())

    def test_gradient_wrt_features(self):
        rng = np.random.default_rng(11)
        params = small_params(seed=4)
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        rep = T.grad_check(lambda t: head_forward(t, params).final_score,
                           x, tol=1e-4)
        assert rep.passed, f"rel err {rep.max_rel_err:.2e}"

    def test_gradient_wrt_branch_params(self):
        rng = np.random.default_rng(12)
        params = small_params(seed=5)
        feats_data = rng.normal(size=(4, 8))
        for branch_name in ("weight_branch", "score_branch"):
            branch = getattr(params, branch_name)
            for pname in ("w1", "b1", "w2", "b2", "w3", "b3"):
                orig = getattr(branch, pname)

                def f(t):
                    setattr(branch, pname, t)
                    try:
                        return head_forward(Tensor(feats_data), params).final_score
                    finally:
                        setattr(branch, pname, orig)

                probe = Tensor(orig.data.copy(), requires_grad=True)
                rep = T.grad_check(f, probe, tol=1e-4)
                assert rep.passed, f"{branch_name}.{pname}: {rep.max_rel_err:.2e}"


class TestAggregate:
    def test_uniform_fixed_point(self):
        assert aggregate(np.full(4, 0.25), np.full(4, 3.3)) == pytest.approx(3.3)

    def test_one_hot_selection(self):
        w = np.zeros(5); w[3] = 1.0
        s = np.arange(5.0)
        assert aggregate(w, s) == 3.0

    def test_hand_value(self):
        assert aggregate(np.array([0.2, 0.3, 0.5]),
                         np.array([1.0, 2.0, 3.0])) == pytest.approx(2.3)

    def test_off_simplex_rejected(self):
        with pytest.raises(ContractError):
            aggregate(np.array([0.6, 0.6]), np.array([1.0, 2.0]))
        with pytest.raises(ContractError):
            aggregate(np.array([1.5, -0.5]), np.array([1.0, 2.0]))

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            aggregate(np.array([1.0]), np.array([1.0, 2.0]))
