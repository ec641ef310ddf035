"""Full model assembly: query bank + decoder stack + weight-score head.

Built deterministically from a TrainConfig; exposes a stable named
parameter map (used by the optimizer and the checkpoint format) and the
forward pass, over one sample or a batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .decoder import (DecoderTrace, QueryBank, decoder_forward,
                      init_layer_params, init_queries)
from .errors import DataError
from .head import ClipAssessment, HeadParams, head_forward, init_head_params
from .tensor import Tensor


@dataclass
class Model:
    bank: QueryBank
    layers: list
    head: HeadParams
    config: TrainConfig

    def named_parameters(self) -> dict:
        out = {"queries": self.bank.embeddings}
        for i, layer in enumerate(self.layers):
            out.update(layer.named(f"layer{i}"))
        out.update(self.head.named())
        return out

    def forward(self, features: np.ndarray, training: bool = False,
                rng: np.random.Generator | None = None
                ) -> tuple[ClipAssessment, DecoderTrace]:
        """Score one video's (L, d) clip features or a batch's (B, L, d).

        The assessment and the trace carry the same leading batch axes:
        one sample gives a scalar final score, a batch a (B,) vector.
        """
        cfg = self.config
        if features.ndim not in (2, 3) or features.shape[-1] != cfg.dim:
            raise DataError(f"expected (L, {cfg.dim}) or (B, L, {cfg.dim}) "
                            f"features, got {features.shape}")
        out, trace = decoder_forward(
            self.bank, Tensor(features), self.layers,
            query_pe=cfg.query_pe, memory_pe=cfg.memory_pe,
            training=training, rng=rng, attn_record=cfg.attn_record)
        return head_forward(out, self.head), trace


def build_model(cfg: TrainConfig) -> Model:
    """Deterministic init: same config (incl. seed) -> identical weights."""
    rng = np.random.default_rng([cfg.seed, 0])
    bank = init_queries(cfg.clips, cfg.dim, cfg.query_variance,
                        seed=np.random.default_rng([cfg.seed, 1]).integers(2**31))
    layers = [init_layer_params(cfg.dim, cfg.heads, cfg.dropout, rng)
              for _ in range(cfg.layers)]
    head = init_head_params(cfg.dim, rng,
                            hidden1=cfg.head_hidden1 or None,
                            hidden2=cfg.head_hidden2 or None,
                            score_sigmoid=cfg.score_sigmoid)
    return Model(bank=bank, layers=layers, head=head, config=cfg)


def clip_attribution(assessment: ClipAssessment, trace: DecoderTrace) -> np.ndarray:
    """Project the per-query weights onto clips through the final layer's
    cross-attention: clip j receives sum_k attn[k, j] * weight_k.

    The result is a distribution over the L memory clips (nonnegative,
    sums to 1) saying where the predicted importance mass actually
    landed, regardless of which query ended up representing which clip.
    """
    attn = trace.attn_weights_cross[-1]          # (K, L), rows sum to 1
    w = assessment.weights.data                  # (K,)
    return attn.T @ w
