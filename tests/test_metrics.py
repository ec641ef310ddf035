"""Metric tests against brute-force oracles."""

import numpy as np
import pytest

from tqdec.errors import ContractError, DimensionError
from tqdec.metrics import average_ranks, diagonality, relative_l2, srcc


def oracle_ranks(x):
    # O(n^2) counting definition: rank = (#smaller) + (1 + #equal) / 2 + 1/2
    x = np.asarray(x, dtype=float)
    out = np.empty(len(x))
    for i, v in enumerate(x):
        smaller = np.sum(x < v)
        equal = np.sum(x == v)
        out[i] = smaller + (equal + 1) / 2.0
    return out


def oracle_spearman(a, b):
    ra, rb = oracle_ranks(a), oracle_ranks(b)
    ra = ra - ra.mean()
    rb = rb - rb.mean()
    return float((ra * rb).sum() / np.sqrt((ra ** 2).sum() * (rb ** 2).sum()))


class TestRanks:
    def test_simple(self):
        np.testing.assert_allclose(average_ranks([3.0, 1.0, 2.0]), [3, 1, 2])

    def test_ties_average(self):
        np.testing.assert_allclose(average_ranks([1.0, 2.0, 2.0, 3.0]),
                                   [1, 2.5, 2.5, 4])

    def test_all_tied(self):
        np.testing.assert_allclose(average_ranks([5.0] * 4), [2.5] * 4)

    def test_matches_oracle_random(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = rng.integers(2, 51)
            # coarse grid forces ties
            x = rng.integers(0, 8, size=n).astype(float)
            np.testing.assert_allclose(average_ranks(x), oracle_ranks(x),
                                       atol=1e-12)


class TestSrcc:
    def test_perfect_and_reversed(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert srcc(a, a * 10) == pytest.approx(1.0, abs=1e-12)
        assert srcc(a, -a) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_oracle_with_ties(self):
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 51))
            a = rng.integers(0, 6, size=n).astype(float)
            b = rng.integers(0, 6, size=n).astype(float)
            if np.all(a == a[0]) or np.all(b == b[0]):
                continue
            assert srcc(a, b) == pytest.approx(oracle_spearman(a, b), abs=1e-12)

    def test_monotone_invariance_exact(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        base = srcc(a, b)
        assert srcc(np.exp(a), b) == base
        assert srcc(a * 3.0 + 7.0, b) == base
        assert srcc(a, b ** 3) == base

    def test_constant_input_rejected(self):
        with pytest.raises(ContractError):
            srcc(np.ones(5), np.arange(5.0))

    def test_too_short(self):
        with pytest.raises(ContractError):
            srcc(np.array([1.0]), np.array([2.0]))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            srcc(np.ones(3), np.ones(4))


class TestRelativeL2:
    def test_zero_on_exact(self):
        t = np.array([1.0, 2.0, 5.0])
        assert relative_l2(t, t) == 0.0

    def test_hand_value(self):
        # targets range 10, errors [1, 2]: mean((0.1)^2, (0.2)^2) = 0.025
        t = np.array([0.0, 10.0])
        p = np.array([1.0, 8.0])
        assert relative_l2(p, t) == pytest.approx(0.025, abs=1e-15)

    def test_matches_oracle_random(self):
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 51))
            t = rng.normal(size=n) * 5
            if t.max() == t.min():
                continue
            p = t + rng.normal(size=n)
            want = np.mean([(abs(pi - ti) / (t.max() - t.min())) ** 2
                            for pi, ti in zip(p, t)])
            assert relative_l2(p, t) == pytest.approx(want, abs=1e-12)

    def test_external_range(self):
        t = np.array([2.0, 3.0])
        p = np.array([3.0, 3.0])
        # with range [0, 10]: mean((0.1)^2, 0) = 0.005
        assert relative_l2(p, t, lo=0.0, hi=10.0) == pytest.approx(0.005)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ContractError):
            relative_l2(np.array([1.0, 2.0]), np.array([3.0, 3.0]))


class TestDiagonality:
    def test_identity_is_one(self):
        assert diagonality(np.eye(6)) == pytest.approx(1.0)

    def test_uniform_is_chance(self):
        k = 8
        assert diagonality(np.full((k, k), 1.0 / k)) == pytest.approx(1.0 / k)

    def test_hand_case(self):
        m = np.array([[0.7, 0.3], [0.4, 0.6]])
        assert diagonality(m) == pytest.approx(0.65, abs=1e-12)

    def test_rejects_non_stochastic(self):
        with pytest.raises(ContractError):
            diagonality(np.ones((3, 3)))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            diagonality(np.full((2, 3), 1.0 / 3.0))

    def test_stack_is_mean_over_maps(self):
        a = np.array([[0.7, 0.3], [0.4, 0.6]])
        stack = np.stack([a, np.eye(2), np.full((2, 2), 0.5)])
        want = np.mean([diagonality(m) for m in stack])
        assert diagonality(stack) == pytest.approx(want, abs=1e-15)
