"""Temporal decoder: learnable queries attending over clip-feature memory.

Each layer runs self-attention over the queries, cross-attention against
the memory, and a feed-forward block, all with residual connections and
post-sublayer LayerNorm. The residual around cross-attention is what
carries each self-attention output forward past the cross-attention.

Multi-head attention is a single fused tape node with a hand-derived
backward (validated by grad_check in the tests); composing it from
primitives would dominate the runtime of training runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DataError, DimensionError
from .tensor import Tensor


@dataclass
class QueryBank:
    """Learnable query embeddings plus their fixed positional code."""
    embeddings: Tensor
    pos_encoding: Tensor
    init_variance: float
    k: int
    d: int


@dataclass
class AttentionParams:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor

    def named(self, prefix: str) -> dict:
        return {f"{prefix}.{n}": getattr(self, n)
                for n in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")}


@dataclass
class DecoderLayerParams:
    self_attn: AttentionParams
    cross_attn: AttentionParams
    ln1_g: Tensor
    ln1_b: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    ln3_g: Tensor
    ln3_b: Tensor
    ff_w1: Tensor
    ff_b1: Tensor
    ff_w2: Tensor
    ff_b2: Tensor
    n_heads: int = 4
    dropout: float = 0.0

    def named(self, prefix: str) -> dict:
        out = {}
        out.update(self.self_attn.named(f"{prefix}.self"))
        out.update(self.cross_attn.named(f"{prefix}.cross"))
        for n in ("ln1_g", "ln1_b", "ln2_g", "ln2_b", "ln3_g", "ln3_b",
                  "ff_w1", "ff_b1", "ff_w2", "ff_b2"):
            out[f"{prefix}.{n}"] = getattr(self, n)
        return out


@dataclass
class DecoderTrace:
    """Per-layer records consumed by the attention loss and diagnostics.

    ``a_s``/``a_c`` are the self/cross sublayer output features (on the
    tape, so losses built on them differentiate into the model).
    ``attn_weights_*`` are the head-averaged row-stochastic attention
    matrices, detached, for diagnostics only.
    """
    a_s: list = field(default_factory=list)
    a_c: list = field(default_factory=list)
    attn_weights_self: list = field(default_factory=list)
    attn_weights_cross: list = field(default_factory=list)

    @property
    def n_layers(self) -> int:
        return len(self.a_s)


def sinusoidal_pe(k: int, d: int) -> Tensor:
    """Fixed sin/cos position code: even dims sine, odd dims cosine."""
    if d % 2 != 0:
        raise ConfigError(f"sinusoidal_pe: d must be even, got {d}")
    pos = np.arange(k, dtype=np.float64)[:, None]
    i = np.arange(0, d, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, i / d)
    pe = np.zeros((k, d))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return Tensor(pe)


def init_queries(k: int, d: int, variance: float, seed: int) -> QueryBank:
    """Gaussian query embeddings with controllable initial variance."""
    if k < 1 or d < 2:
        raise ConfigError(f"init_queries: need K >= 1 and d >= 2, got K={k}, d={d}")
    if not variance > 0:
        raise ConfigError(f"init_queries: variance must be positive, got {variance}")
    rng = np.random.default_rng(seed)
    emb = rng.normal(0.0, np.sqrt(variance), size=(k, d))
    return QueryBank(embeddings=Tensor(emb, requires_grad=True),
                     pos_encoding=sinusoidal_pe(k, d),
                     init_variance=float(variance), k=k, d=d)


def _xavier(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_attention_params(d: int, rng: np.random.Generator) -> AttentionParams:
    z = lambda: Tensor(np.zeros(d), requires_grad=True)
    w = lambda: Tensor(_xavier(rng, d, d), requires_grad=True)
    return AttentionParams(wq=w(), bq=z(), wk=w(), bk=z(),
                           wv=w(), bv=z(), wo=w(), bo=z())


def init_layer_params(d: int, n_heads: int, dropout: float,
                      rng: np.random.Generator) -> DecoderLayerParams:
    if d % n_heads != 0:
        raise ConfigError(f"model dim {d} not divisible by {n_heads} heads")
    if not 0.0 <= dropout < 1.0:
        raise ConfigError(f"dropout must be in [0, 1), got {dropout}")
    d_ff = 2 * d
    ones = lambda: Tensor(np.ones(d), requires_grad=True)
    zeros = lambda n=d: Tensor(np.zeros(n), requires_grad=True)
    return DecoderLayerParams(
        self_attn=init_attention_params(d, rng),
        cross_attn=init_attention_params(d, rng),
        ln1_g=ones(), ln1_b=zeros(),
        ln2_g=ones(), ln2_b=zeros(),
        ln3_g=ones(), ln3_b=zeros(),
        ff_w1=Tensor(_xavier(rng, d, d_ff), requires_grad=True),
        ff_b1=zeros(d_ff),
        ff_w2=Tensor(_xavier(rng, d_ff, d), requires_grad=True),
        ff_b2=zeros(),
        n_heads=n_heads, dropout=float(dropout))


def multi_head_attention(queries: Tensor, keys_values: Tensor,
                         params: AttentionParams, n_heads: int
                         ) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention; keys and values share one input.

    ``queries`` is (..., Kq, d) and ``keys_values`` is (..., Kv, d), with
    the same leading batch axes (none for one sample). Returns the output
    features, (..., Kq, d), and the head-averaged attention matrix,
    (..., Kq, Kv). The matrix is detached (diagnostics only); gradients
    flow through the output. One tape node, backward derived by hand
    over a (..., H, K, dh) head-batched layout.
    """
    q_in, kv = queries, keys_values
    if q_in.data.ndim < 2 or kv.data.ndim != q_in.data.ndim:
        raise DimensionError(
            f"attention needs (..., K, d) inputs of one rank, got "
            f"{q_in.data.shape} and {kv.data.shape}")
    lead = q_in.data.shape[:-2]
    if kv.data.shape[:-2] != lead:
        raise DimensionError(
            f"attention: batch axes differ, {q_in.data.shape} and {kv.data.shape}")
    kq, d = q_in.data.shape[-2:]
    kv_n, d2 = kv.data.shape[-2:]
    if d != d2:
        raise DimensionError(
            f"attention: query dim {d} != memory dim {d2}")
    if d % n_heads != 0:
        raise ConfigError(f"attention: dim {d} not divisible by {n_heads} heads")
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)

    def split(rows, n):           # (rows, d) -> (..., H, n, dh)
        return rows.reshape(lead + (n, n_heads, dh)).swapaxes(-3, -2)

    def merge(heads):             # (..., H, n, dh) -> (rows, d)
        return heads.swapaxes(-3, -2).reshape(-1, d)

    wq, wk, wv, wo = params.wq, params.wk, params.wv, params.wo
    bq, bk, bv, bo = params.bq, params.bk, params.bv, params.bo

    xq = q_in.data.reshape(-1, d)
    xkv = kv.data.reshape(-1, d)
    qh = split(xq @ wq.data + bq.data, kq)
    kh = split(xkv @ wk.data + bk.data, kv_n)
    vh = split(xkv @ wv.data + bv.data, kv_n)

    s = (qh @ kh.swapaxes(-1, -2)) * scale
    s = s - s.max(axis=-1, keepdims=True)
    e = np.exp(s)
    attn = e / e.sum(axis=-1, keepdims=True)          # (..., H, Kq, Kv)
    concat = merge(attn @ vh)                         # (rows, d)
    out_data = (concat @ wo.data + bo.data).reshape(q_in.data.shape)

    parents = (q_in, kv, wq, bq, wk, bk, wv, bv, wo, bo)
    out = Tensor(out_data, requires_grad=any(p.requires_grad for p in parents),
                 _parents=parents, _op="multi_head_attention")

    def _bw(g):
        g = g.reshape(-1, d)
        if wo.requires_grad:
            wo._accumulate(concat.T @ g)
        if bo.requires_grad:
            bo._accumulate(g.sum(axis=0))
        d_oh = split(g @ wo.data.T, kq)
        d_attn = d_oh @ vh.swapaxes(-1, -2)
        d_vh = attn.swapaxes(-1, -2) @ d_oh
        d_s = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        d_p = d_s * scale
        d_q = merge(d_p @ kh)
        d_k = merge(d_p.swapaxes(-1, -2) @ qh)
        d_v = merge(d_vh)
        if wq.requires_grad:
            wq._accumulate(xq.T @ d_q)
        if bq.requires_grad:
            bq._accumulate(d_q.sum(axis=0))
        if wk.requires_grad:
            wk._accumulate(xkv.T @ d_k)
        if bk.requires_grad:
            bk._accumulate(d_k.sum(axis=0))
        if wv.requires_grad:
            wv._accumulate(xkv.T @ d_v)
        if bv.requires_grad:
            bv._accumulate(d_v.sum(axis=0))
        if q_in.requires_grad:
            q_in._accumulate((d_q @ wq.data.T).reshape(q_in.data.shape))
        if kv.requires_grad:
            kv._accumulate((d_k @ wk.data.T + d_v @ wv.data.T)
                           .reshape(kv.data.shape))
    out._backward_fn = _bw

    weights = Tensor(attn.mean(axis=-3))              # detached diagnostic
    return out, weights


def _dropout_masks(layers: list, shape: tuple, training: bool,
                   rng: np.random.Generator | None) -> np.ndarray | None:
    """Scaled keep-masks for every dropout site of one forward pass.

    ``shape`` is the (..., K, d) shape of the decoder state. All masks
    come from one draw of shape (..., n_layers, 3, K, d), indexed
    [..., layer, sublayer] with sublayers self, cross, feed-forward. The
    draw is sample-major, so a batch consumes the generator exactly as
    its samples would one after another. None when nothing is dropped.
    """
    p = np.array([layer.dropout for layer in layers])
    if not training or not np.any(p > 0.0):
        return None
    if rng is None:
        raise ContractError("dropout in training mode needs an rng")
    u = rng.random(shape[:-2] + (len(layers), 3) + shape[-2:])
    p = p.reshape(-1, 1, 1, 1)
    return (u >= p) / (1.0 - p)


def decoder_forward(bank: QueryBank, memory: Tensor,
                    layers: list, *,
                    query_pe: bool = True, memory_pe: bool = False,
                    training: bool = False,
                    rng: np.random.Generator | None = None,
                    attn_record: str = "pre_norm"
                    ) -> tuple[Tensor, DecoderTrace]:
    """Run the decoder stack; returns final clip features and the trace.

    ``memory`` is one video's (L, d) clip features or a batch's
    (B, L, d); the features, the trace's sublayer outputs and its
    attention matrices carry the same leading batch axes, so one sample
    gives (K, d) features and a batch (B, K, d).

    ``attn_record`` picks what the trace stores for the attention loss:
    "pre_norm" keeps each sublayer's raw output, "post_norm" keeps the
    state after residual + LayerNorm.
    """
    if not layers:
        raise ConfigError("decoder_forward: need at least one layer")
    if attn_record not in ("pre_norm", "post_norm"):
        raise ConfigError(f"attn_record must be pre_norm or post_norm, got {attn_record!r}")
    if memory.data.ndim < 2 or memory.data.shape[-2] == 0:
        raise DataError(f"decoder memory must be a non-empty (..., L, d) array, "
                        f"got shape {memory.data.shape}")
    if memory.data.shape[-1] != bank.d:
        raise DimensionError(
            f"memory dim {memory.data.shape[-1]} != model dim {bank.d}")

    lead = memory.data.shape[:-2]
    state_shape = lead + (bank.k, bank.d)
    x = bank.embeddings
    if lead:                      # one copy of the query bank per sample
        x = T.add(x, Tensor(np.zeros(state_shape)))
    pe_q = bank.pos_encoding
    mem = memory
    if memory_pe:
        mem = T.add(memory, sinusoidal_pe(memory.data.shape[-2], bank.d))
    masks = _dropout_masks(layers, state_shape, training, rng)

    def dropout(x: Tensor, layer: int, sublayer: int) -> Tensor:
        if masks is None or layers[layer].dropout <= 0.0:
            return x
        return T.hadamard_const(x, masks[..., layer, sublayer, :, :])

    trace = DecoderTrace()
    for i, layer in enumerate(layers):
        h = layer.n_heads

        q_in = T.add(x, pe_q) if query_pe else x
        s, w_self = multi_head_attention(q_in, q_in, layer.self_attn, h)
        x = T.layer_norm(T.add(x, dropout(s, i, 0)), layer.ln1_g, layer.ln1_b)
        trace.a_s.append(s if attn_record == "pre_norm" else x)
        trace.attn_weights_self.append(w_self.data)

        q_in2 = T.add(x, pe_q) if query_pe else x
        c, w_cross = multi_head_attention(q_in2, mem, layer.cross_attn, h)
        y = T.layer_norm(T.add(x, dropout(c, i, 1)), layer.ln2_g, layer.ln2_b)
        trace.a_c.append(c if attn_record == "pre_norm" else y)
        trace.attn_weights_cross.append(w_cross.data)

        ff = T.add(T.matmul(T.relu(T.add(T.matmul(y, layer.ff_w1), layer.ff_b1)),
                            layer.ff_w2), layer.ff_b2)
        x = T.layer_norm(T.add(y, dropout(ff, i, 2)), layer.ln3_g, layer.ln3_b)
    return x, trace
