"""Plain-numpy reference of the tqdec model, batched over samples.

Written from the method's equations, with no calls into ``tqdec``: a
query bank plus a sinusoidal position code; per decoder layer,
self-attention, cross-attention over the clip features and a ReLU
feed-forward block, each added back to its input and layer-normalised;
a two-branch head (softmax weights over clips, raw clip scores) whose
weighted sum is the video score; and the Gram-softmax KL between each
layer's self- and cross-attention outputs.

It covers the dropout-free forward pass and the combined loss for the
configuration the benchmark trains: query PE on, memory PE off, the
pre-norm sublayer outputs feed the attention loss, KL rows averaged,
one-sided KL with gradient into both maps, raw (unsquashed) scores.
Parameters are the arrays of ``Model.named_parameters()``.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

LN_EPS = 1e-5
KL_FLOOR = 1e-12
ATTN_NAMES = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


def position_code(k: int, d: int) -> np.ndarray:
    """Row t: sin/cos of t / 10000^(2i/d) on even/odd dims."""
    t = np.arange(k, dtype=np.float64)[:, None]
    freq = 10000.0 ** (-np.arange(0, d, 2, dtype=np.float64) / d)
    pe = np.empty((k, d))
    pe[:, 0::2] = np.sin(t * freq)
    pe[:, 1::2] = np.cos(t * freq)
    return pe


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    z = np.exp(x - x.max(axis=axis, keepdims=True))
    return z / z.sum(axis=axis, keepdims=True)


def layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gain + bias


def attention(xq, xkv, p: dict, heads: int) -> np.ndarray:
    """Multi-head scaled dot-product attention, (B, K, d) x (B, L, d)."""
    b, k, d = xq.shape
    n = xkv.shape[1]
    dh = d // heads

    def split(x, w, bias, rows):
        return (x @ w + bias).reshape(b, rows, heads, dh).transpose(0, 2, 1, 3)

    q = split(xq, p["wq"], p["bq"], k)
    key = split(xkv, p["wk"], p["bk"], n)
    val = split(xkv, p["wv"], p["bv"], n)
    weights = softmax(q @ key.transpose(0, 1, 3, 2) / np.sqrt(dh))
    mixed = (weights @ val).transpose(0, 2, 1, 3).reshape(b, k, d)
    return mixed @ p["wo"] + p["bo"]


def n_layers(params: dict) -> int:
    return sum(1 for name in params if name.endswith(".ln1_g"))


def _mlp(x, params: dict, prefix: str) -> np.ndarray:
    h = np.maximum(x @ params[f"{prefix}.w1"] + params[f"{prefix}.b1"], 0.0)
    h = np.maximum(h @ params[f"{prefix}.w2"] + params[f"{prefix}.b2"], 0.0)
    return (h @ params[f"{prefix}.w3"] + params[f"{prefix}.b3"])[..., 0]


def forward(params: dict, features, heads: int) -> dict:
    """Dropout-free forward of a (B, L, d) or (L, d) feature batch.

    Returns per-sample ``weights`` and ``scores`` (B, K), ``final``
    (B,) in normalised label units, and the per-layer sublayer outputs
    ``self_out`` / ``cross_out`` (lists of (B, K, d)).
    """
    mem = np.asarray(features, dtype=np.float64)
    if mem.ndim == 2:
        mem = mem[None]
    b, _, d = mem.shape
    queries = params["queries"]
    pe = position_code(queries.shape[0], d)
    x = np.broadcast_to(queries, (b,) + queries.shape)
    self_out, cross_out = [], []
    for i in range(n_layers(params)):
        def get(name):
            return params[f"layer{i}.{name}"]
        sa = {n: get(f"self.{n}") for n in ATTN_NAMES}
        ca = {n: get(f"cross.{n}") for n in ATTN_NAMES}
        s = attention(x + pe, x + pe, sa, heads)
        x = layer_norm(x + s, get("ln1_g"), get("ln1_b"))
        c = attention(x + pe, mem, ca, heads)
        y = layer_norm(x + c, get("ln2_g"), get("ln2_b"))
        ff = np.maximum(y @ get("ff_w1") + get("ff_b1"), 0.0) @ get("ff_w2") \
            + get("ff_b2")
        x = layer_norm(y + ff, get("ln3_g"), get("ln3_b"))
        self_out.append(s)
        cross_out.append(c)
    weights = softmax(_mlp(x, params, "head.weight"))
    scores = _mlp(x, params, "head.score")
    return {"weights": weights, "scores": scores,
            "final": (weights * scores).sum(axis=-1),
            "self_out": self_out, "cross_out": cross_out}


def gram_softmax(a: np.ndarray) -> np.ndarray:
    """Row-softmax of A·Aᵀ over the last two axes."""
    return softmax(a @ np.swapaxes(a, -1, -2))


def map_kl(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row KL(p || q) with both maps floored before the log, rows averaged."""
    rows = (p * (np.log(np.maximum(p, KL_FLOOR))
                 - np.log(np.maximum(q, KL_FLOOR)))).sum(axis=-1)
    return rows.mean(axis=-1)


def attention_term(out: dict) -> np.ndarray:
    """Per-sample attention loss: the layer sum of self-vs-cross map KL."""
    return sum(map_kl(gram_softmax(s), gram_softmax(c))
               for s, c in zip(out["self_out"], out["cross_out"]))


def combined_loss(params: dict, features, targets_norm, heads: int,
                  lambda_reg: float = 1.0, lambda_att: float = 1.0) -> float:
    """λ_reg · MSE(final, targets) + λ_att · batch-mean attention loss."""
    out = forward(params, features, heads)
    reg = np.mean((out["final"] - np.asarray(targets_norm)) ** 2)
    return float(lambda_reg * reg + lambda_att * attention_term(out).mean())


def diagonality(maps: np.ndarray) -> np.ndarray:
    """Mean diagonal mass of each (K, K) row-stochastic map."""
    return np.diagonal(maps, axis1=-2, axis2=-1).mean(axis=-1)


# ---------------------------------------------------------------------------
# readers for the dataset and checkpoint formats, from their layouts


def read_features(path) -> tuple:
    """A ``.tqdf`` file: b"TQDF", u32 version, u32 L, u32 d, L*d
    little-endian float32, then optionally u32 tag 1 and a float64
    label. Returns (features as float64, label or None)."""
    raw = open(path, "rb").read()
    if raw[:4] != b"TQDF":
        raise ValueError(f"{path}: not a feature file")
    _, n, d = np.frombuffer(raw, dtype="<u4", count=3, offset=4)
    end = 16 + 4 * int(n) * int(d)
    feats = np.frombuffer(raw, dtype="<f4", count=int(n) * int(d), offset=16)
    label = None
    if len(raw) == end + 12:
        label = float(np.frombuffer(raw, dtype="<f8", count=1, offset=end + 4)[0])
    return feats.reshape(int(n), int(d)).astype(np.float64), label


def read_split(dataset_dir, split: str) -> tuple:
    """(sample ids, (N, L, d) features, labels) of one manifest split."""
    ids, feats, labels = [], [], []
    root = Path(dataset_dir)
    for line in (root / "manifest.txt").read_text().splitlines():
        parts = line.split()
        if len(parts) == 4 and not line.startswith("#") and parts[3] == split:
            f, _ = read_features(root / parts[1])
            ids.append(parts[0])
            feats.append(f)
            labels.append(float(parts[2]))
    return ids, np.stack(feats), np.array(labels)


def read_checkpoint(path) -> dict:
    """The named float64 arrays of a ``.tqck`` file: b"TQCK", u32
    version, u32 config length, config text, u32 array count, then per
    array u16 name length, name, u8 rank, u32 dims, float64 payload."""
    raw = open(path, "rb").read()
    if raw[:4] != b"TQCK":
        raise ValueError(f"{path}: not a checkpoint")
    (cfg_len,) = struct.unpack_from("<I", raw, 8)
    off = 12 + cfg_len
    (count,) = struct.unpack_from("<I", raw, off)
    off += 4
    arrays = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", raw, off)
        name = raw[off + 2:off + 2 + name_len].decode()
        off += 2 + name_len
        rank = raw[off]
        shape = struct.unpack_from(f"<{rank}I", raw, off + 1)
        off += 1 + 4 * rank
        size = int(np.prod(shape, dtype=np.int64))
        arrays[name] = np.frombuffer(raw, dtype="<f8", count=size,
                                     offset=off).reshape(shape).copy()
        off += 8 * size
    return arrays


def checkpoint_params(arrays: dict) -> tuple:
    """(model parameters, label lo, label hi) from checkpoint arrays."""
    params = {n[len("param."):]: a for n, a in arrays.items()
              if n.startswith("param.")}
    return params, float(arrays["label_norm.lo"][0]), \
        float(arrays["label_norm.hi"][0])
