"""Weight-score regression head.

Two parallel 3-layer MLP branches over decoder clip features: the weight
branch ends in a softmax across clips so the K weights form a
distribution, the score branch emits one raw quality score per clip.
The final video score is the weight-weighted sum of clip scores, which
is what makes the output attributable clip by clip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DataError
from .tensor import Tensor


@dataclass
class MlpBranch:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w3: Tensor
    b3: Tensor

    def named(self, prefix: str) -> dict:
        return {f"{prefix}.{n}": getattr(self, n)
                for n in ("w1", "b1", "w2", "b2", "w3", "b3")}

    def forward(self, x: Tensor) -> Tensor:
        h = T.relu(T.add(T.matmul(x, self.w1), self.b1))
        h = T.relu(T.add(T.matmul(h, self.w2), self.b2))
        return T.add(T.matmul(h, self.w3), self.b3)


@dataclass
class HeadParams:
    weight_branch: MlpBranch
    score_branch: MlpBranch
    score_sigmoid: bool = False

    def named(self) -> dict:
        out = self.weight_branch.named("head.weight")
        out.update(self.score_branch.named("head.score"))
        return out


@dataclass
class ClipAssessment:
    """Per-clip weights and scores plus their aggregate, on the tape,
    with the features' leading batch axes (none for one sample)."""
    weights: Tensor       # (..., K), nonnegative, sums to 1 over K
    scores: Tensor        # (..., K), raw
    final_score: Tensor   # (...), convex combination per sample


def _xavier(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _init_branch(d: int, h1: int, h2: int, rng) -> MlpBranch:
    return MlpBranch(
        w1=Tensor(_xavier(rng, d, h1), requires_grad=True),
        b1=Tensor(np.zeros(h1), requires_grad=True),
        w2=Tensor(_xavier(rng, h1, h2), requires_grad=True),
        b2=Tensor(np.zeros(h2), requires_grad=True),
        w3=Tensor(_xavier(rng, h2, 1), requires_grad=True),
        b3=Tensor(np.zeros(1), requires_grad=True))


def init_head_params(d: int, rng: np.random.Generator,
                     hidden1: int | None = None, hidden2: int | None = None,
                     score_sigmoid: bool = False) -> HeadParams:
    """Geometric taper d -> d/2 -> d/4 -> 1 unless widths are given."""
    h1 = max(1, d // 2) if hidden1 is None else hidden1
    h2 = max(1, d // 4) if hidden2 is None else hidden2
    if h1 < 1 or h2 < 1:
        raise ConfigError(f"head hidden widths must be >= 1, got {h1}, {h2}")
    return HeadParams(weight_branch=_init_branch(d, h1, h2, rng),
                      score_branch=_init_branch(d, h1, h2, rng),
                      score_sigmoid=score_sigmoid)


def head_forward(features: Tensor, params: HeadParams) -> ClipAssessment:
    """Assess K clips: softmax weights, raw scores, weighted-sum final.

    ``features`` is one sample's (K, d) or a batch's (B, K, d); the
    weights and scores are (K,) or (B, K), the final score a scalar or
    (B,).
    """
    if features.data.ndim < 2 or features.data.shape[-2] == 0:
        raise DataError(
            f"head needs non-empty (..., K, d) features, got {features.data.shape}")
    per_clip = features.data.shape[:-1]
    weight_logits = T.reshape(params.weight_branch.forward(features), per_clip)
    weights = T.softmax(weight_logits, axis=-1)
    scores = T.reshape(params.score_branch.forward(features), per_clip)
    if params.score_sigmoid:
        scores = T.sigmoid(scores)
    final = T.tsum(T.mul(weights, scores), axis=-1)
    return ClipAssessment(weights=weights, scores=scores, final_score=final)


def aggregate(weights: np.ndarray, scores: np.ndarray) -> float:
    """Dot product of a simplex weight vector with clip scores."""
    weights = np.asarray(weights, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if weights.shape != scores.shape or weights.ndim != 1:
        raise ContractError(
            f"aggregate: need equal-length vectors, got {weights.shape} and {scores.shape}")
    if np.any(weights < -1e-6) or abs(weights.sum() - 1.0) > 1e-6:
        raise ContractError(
            f"aggregate: weights off the simplex (sum={weights.sum():.8f})")
    return float(weights @ scores)
