"""Training objectives: attention-map alignment KL, regression MSE,
and their weighted combination.

The alignment loss compares, per decoder layer, the Gram-softmax map of
the self-attention output with that of the cross-attention output. Both
sides receive gradient by default, so each map guides the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .decoder import DecoderTrace
from .errors import ConfigError, ContractError, DimensionError
from .tensor import LOG_CLAMP, Tensor


@dataclass
class LossWeights:
    lambda_reg: float = 1.0
    lambda_att: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.lambda_reg) and np.isfinite(self.lambda_att)):
            raise ConfigError("loss weights must be finite")
        if self.lambda_reg < 0 or self.lambda_att < 0:
            raise ConfigError("loss weights must be nonnegative")
        if self.lambda_reg == 0 and self.lambda_att == 0:
            raise ConfigError("loss weights must not both be zero")


@dataclass
class LossBreakdown:
    loss_reg: float
    loss_att: float
    loss_all: float
    per_layer_kl: list


def gram_softmax(a: Tensor) -> Tensor:
    """Row-wise softmax of A·Aᵀ: each row is a similarity distribution
    of that row of A over all rows of A (itself included). ``a`` is one
    (K, d) matrix or a batch (B, K, d), giving (K, K) or (B, K, K)."""
    if a.data.ndim < 2:
        raise DimensionError(f"gram_softmax needs a (..., K, d) input, got {a.data.shape}")
    return T.softmax(T.matmul(a, T.transpose(a)), axis=-1)


def kl_between_maps(l_s: Tensor, l_c: Tensor, row_reduce: str = "mean") -> Tensor:
    """KL(L_S || L_C) summed across each row, reduced over rows.

    Inputs are row-stochastic (..., K, K) maps; entries pass through a
    1e-12 floor before the log so saturated rows stay finite. The result
    has the maps' leading batch axes: a scalar for one pair of maps.
    """
    if l_s.data.shape != l_c.data.shape:
        raise DimensionError(
            f"kl_between_maps: shapes {l_s.data.shape} and {l_c.data.shape} differ")
    if l_s.data.ndim < 2:
        raise DimensionError(
            f"kl_between_maps needs (..., K, K) maps, got {l_s.data.shape}")
    if row_reduce not in ("mean", "sum"):
        raise ConfigError(f"row_reduce must be mean or sum, got {row_reduce!r}")
    ls = T.clamp_min(l_s, LOG_CLAMP)
    lc = T.clamp_min(l_c, LOG_CLAMP)
    terms = T.mul(l_s, T.sub(T.log(ls), T.log(lc)))
    total = T.tsum(terms, axis=(-2, -1))
    if row_reduce == "mean":
        total = T.scale(total, 1.0 / l_s.data.shape[-2])
    return total


def _detach(x: Tensor) -> Tensor:
    return Tensor(x.data.copy())


def attention_loss(trace: DecoderTrace, *, row_reduce: str = "mean",
                   symmetric: bool = False,
                   stop_grad: str = "none") -> tuple[Tensor, list]:
    """Sum over layers of the KL between self- and cross-map Gram-softmax.

    The total has the trace's leading batch axes: a scalar for one
    sample, (B,) for a batch. ``per_layer`` holds each layer's KL as a
    float, averaged over the batch. ``stop_grad`` freezes one side
    ("self" or "cross") for ablations; the default trains both.
    """
    if trace.n_layers < 1:
        raise ContractError("attention_loss: trace has no layers")
    if stop_grad not in ("none", "self", "cross"):
        raise ConfigError(f"stop_grad must be none, self or cross, got {stop_grad!r}")
    k = trace.a_s[0].data.shape[-2]
    per_layer = []
    total = None
    for a_s, a_c in zip(trace.a_s, trace.a_c):
        if a_s.data.shape[-2] != k or a_c.data.shape[-2] != k:
            raise ContractError(
                f"attention_loss: query-count mismatch across layers "
                f"({a_s.data.shape[-2]} vs {k})")
        if stop_grad == "self":
            a_s = _detach(a_s)
        elif stop_grad == "cross":
            a_c = _detach(a_c)
        l_s = gram_softmax(a_s)
        l_c = gram_softmax(a_c)
        kl = kl_between_maps(l_s, l_c, row_reduce)
        if symmetric:
            kl = T.scale(T.add(kl, kl_between_maps(l_c, l_s, row_reduce)), 0.5)
        per_layer.append(float(kl.data.mean()))
        total = kl if total is None else T.add(total, kl)
    return total, per_layer


def mse_loss(pred: Tensor, target) -> Tensor:
    """(1/n) sum of squared errors; target is a plain array."""
    target = np.asarray(target, dtype=np.float64)
    if pred.data.shape != target.shape:
        raise ContractError(
            f"mse_loss: lengths differ, {pred.data.shape} vs {target.shape}")
    if pred.data.size < 1:
        raise ContractError("mse_loss: empty input")
    diff = T.sub(pred, Tensor(target))
    return T.mean(T.mul(diff, diff))


def total_loss(reg: Tensor, att: Tensor, w: LossWeights) -> Tensor:
    return T.add(T.scale(reg, w.lambda_reg), T.scale(att, w.lambda_att))
