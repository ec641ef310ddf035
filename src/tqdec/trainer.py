"""Training: Adam, the epoch loop over the combined objective,
checkpoint serialization, and the ablation grid harness.

Everything is a pure function of (config, dataset): parameter init,
batch order, and dropout draw from seed-derived generator streams, so a
rerun reproduces the epoch log byte for byte.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import TrainConfig, apply_overrides, config_from_text, config_to_text
from .data import (DatasetManifest, LabelTransform, fit_label_transform,
                   load_split)
from .errors import ConfigError, ContractError, DataError, NumericError
from .losses import (LossWeights, attention_loss, gram_softmax, mse_loss,
                     total_loss)
from .metrics import EvalReport, diagonality, relative_l2, srcc
from .model import Model, build_model
from .tensor import Tensor

BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

CKPT_MAGIC = b"TQCK"
CKPT_VERSION = 1


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        return cls(m={n: np.zeros_like(p.data) for n, p in params.items()},
                   v={n: np.zeros_like(p.data) for n, p in params.items()})


def adam_step(params: dict, state: AdamState, lr: float):
    """One bias-corrected Adam update; missing grads count as zero."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r} "
                               f"at step {t}")
        state.m[name] = BETA1 * state.m[name] + (1.0 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1.0 - BETA2) * g * g
        m_hat = state.m[name] / (1.0 - BETA1 ** t)
        v_hat = state.v[name] / (1.0 - BETA2 ** t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# evaluation helpers


def _srcc_or_zero(preds: np.ndarray, targets: np.ndarray) -> float:
    """Rank correlation for epoch logs; a constant predictor scores 0.

    A model can pass through (or die into) a state where every prediction
    is identical and rank correlation is undefined; for monitoring that is
    "no correlation", not a crash. Constant *targets* still raise, since
    they indicate a broken dataset rather than a model state.
    """
    if np.all(preds == preds[0]):
        return 0.0
    return srcc(preds, targets)


def evaluate(model: Model, samples: list, transform: LabelTransform) -> EvalReport:
    """Dropout-free predictions vs raw labels; R-l2 uses the train range.

    The samples are scored in chunks of ``_chunk_size`` (``batch_size``
    at most), one batched forward pass per chunk, which bounds the
    activations held at once.

    The per-layer diagonality statistic is computed on the row-softmaxed Gram
    matrix of each layer's self-attention sublayer output — the same map the
    attention loss acts on — so the log column tracks how query-separated the
    self-attention features are, not the raw attention weights.
    """
    chunk_size = _chunk_size(model.config, samples[0].features.shape[0])
    preds = []
    diag_sums = np.zeros(len(model.layers))
    for start in range(0, len(samples), chunk_size):
        chunk = samples[start:start + chunk_size]
        assessment, trace = model.forward(np.stack([s.features for s in chunk]),
                                          training=False)
        preds.append(transform.denormalize(assessment.final_score.data))
        for i, a_s in enumerate(trace.a_s):
            diag_sums[i] += diagonality(gram_softmax(a_s).data) * len(chunk)
    preds = np.concatenate(preds)
    targets = np.array([s.label for s in samples])
    return EvalReport(srcc=_srcc_or_zero(preds, targets),
                      rl2=relative_l2(preds, targets, lo=transform.lo,
                                      hi=transform.hi),
                      n_samples=len(samples),
                      diagonality_by_layer=list(diag_sums / len(samples)))


LOG_HEADER_BASE = "epoch,loss_reg,loss_att,srcc,rl2_x100"


def log_header(n_layers: int) -> str:
    diags = ",".join(f"diag_layer{i}" for i in range(1, n_layers + 1))
    return f"{LOG_HEADER_BASE},{diags}"


@dataclass
class TrainResult:
    model: Model
    config: TrainConfig
    transform: LabelTransform
    log_rows: list
    best_epoch: int
    best_srcc: float
    best_params: dict            # name -> ndarray snapshot at best epoch
    best_adam: AdamState
    final_report: EvalReport


def _snapshot(params: dict) -> dict:
    return {n: p.data.copy() for n, p in params.items()}


# Attention keeps about four (samples, H, K, L) float64 arrays live
# through its softmax and backward. A forward pass takes as many samples
# as keep one of them within 512 KiB, a quarter of a 2 MiB per-core L2,
# so long videos are not slowed by cache misses: K=L=64 runs in chunks
# of 4 samples, K=8 in whole batches.
ATTENTION_CHUNK_BYTES = 512 * 1024


def _chunk_size(cfg: TrainConfig, clips: int) -> int:
    """Samples per batched forward pass for memories of ``clips`` clips:
    ``batch_size`` at most, fewer when one sample's attention is large."""
    per_sample = 8 * cfg.heads * cfg.clips * max(cfg.clips, clips)
    return max(1, min(cfg.batch_size, ATTENTION_CHUNK_BYTES // per_sample))


def _batch_loss(model: Model, features: np.ndarray, labels_norm: np.ndarray,
                weights: LossWeights, cfg: TrainConfig,
                rng: np.random.Generator):
    """Combined loss of a (B, L, d) batch: MSE over the B final scores
    plus the batch-mean attention loss. The batch runs as batched forward
    passes over chunks of ``_chunk_size`` samples (one chunk unless the
    videos are long), and the dropout masks are drawn in sample order
    whatever the chunking."""
    size = _chunk_size(cfg, features.shape[1])
    finals, atts = [], []
    for start in range(0, len(features), size):
        assessment, trace = model.forward(features[start:start + size],
                                          training=True, rng=rng)
        finals.append(assessment.final_score)
        if cfg.attention_loss:
            att, _ = attention_loss(trace, row_reduce=cfg.kl_row_reduce,
                                    symmetric=cfg.kl_symmetric,
                                    stop_grad=cfg.kl_stop_grad)
            atts.append(att)
    reg = mse_loss(T.concat(finals, axis=0), labels_norm)
    att = T.mean(T.concat(atts, axis=0)) if atts else Tensor(np.array(0.0))
    return total_loss(reg, att, weights), float(reg.data), float(att.data)


def train(cfg: TrainConfig, manifest: DatasetManifest,
          out_dir=None) -> TrainResult:
    """Run the full loop; optionally write log.csv and best.tqck."""
    train_samples = load_split(manifest, "train")
    test_samples = load_split(manifest, "test")
    transform = fit_label_transform([s.label for s in train_samples])
    labels_norm = transform.normalize([s.label for s in train_samples])
    train_features = np.stack([s.features for s in train_samples])

    model = build_model(cfg)
    params = model.named_parameters()
    adam = AdamState.for_params(params)
    weights = LossWeights(cfg.lambda_reg, cfg.lambda_att)
    shuffle_rng = np.random.default_rng([cfg.seed, 2])
    dropout_rng = np.random.default_rng([cfg.seed, 3])

    n = len(train_samples)
    log_rows = []
    best_srcc = -np.inf
    best_epoch = -1
    best_params = _snapshot(params)
    best_adam = AdamState(m=dict(adam.m), v=dict(adam.v), step=0)

    def fail_with_checkpoint(msg):
        if out_dir is not None:
            _write_outputs(out_dir, cfg, model, log_rows, best_params,
                           best_adam, transform)
        raise NumericError(msg)

    for epoch in range(1, cfg.epochs + 1):
        if n > cfg.batch_size:
            order = shuffle_rng.permutation(n)
            starts = range(0, n, cfg.batch_size)
            batches = [order[s:s + cfg.batch_size] for s in starts]
        else:
            batches = [np.arange(n)]
        reg_sum = att_sum = 0.0
        for idx in batches:
            try:
                loss, reg_val, att_val = _batch_loss(
                    model, train_features[idx], labels_norm[idx], weights, cfg,
                    dropout_rng)
            except NumericError as exc:
                fail_with_checkpoint(
                    f"training diverged at epoch {epoch}: {exc}")
            if not np.isfinite(loss.data):
                fail_with_checkpoint(
                    f"training diverged at epoch {epoch}: loss is not finite")
            for p in params.values():
                p.zero_grad()
            T.backward(loss)
            del loss                # free this batch's graph before the next
            adam_step(params, adam, cfg.learning_rate)
            reg_sum += reg_val
            att_sum += att_val

        try:
            report = evaluate(model, test_samples, transform)
        except NumericError as exc:
            fail_with_checkpoint(
                f"training diverged at epoch {epoch} (evaluation): {exc}")
        cells = [str(epoch), f"{reg_sum / len(batches):.10g}",
                 f"{att_sum / len(batches):.10g}", report.as_csv_row()]
        log_rows.append(",".join(cells))
        if report.srcc > best_srcc:
            best_srcc = report.srcc
            best_epoch = epoch
            best_params = _snapshot(params)
            best_adam = AdamState(m={k: v.copy() for k, v in adam.m.items()},
                                  v={k: v.copy() for k, v in adam.v.items()},
                                  step=adam.step)

    restore_params(model, best_params)
    final_report = evaluate(model, test_samples, transform)
    result = TrainResult(model=model, config=cfg, transform=transform,
                         log_rows=log_rows, best_epoch=best_epoch,
                         best_srcc=best_srcc, best_params=best_params,
                         best_adam=best_adam, final_report=final_report)
    if out_dir is not None:
        _write_outputs(out_dir, cfg, model, log_rows, best_params, best_adam,
                       transform)
    return result


def restore_params(model: Model, arrays: dict):
    params = model.named_parameters()
    for name, arr in arrays.items():
        params[name].data = arr.copy()


def _write_outputs(out_dir, cfg, model, log_rows, best_params, best_adam,
                   transform):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = log_header(len(model.layers))
    (out_dir / "log.csv").write_text("\n".join([header] + log_rows) + "\n")
    checkpoint_save(out_dir / "best.tqck", cfg, best_params, best_adam,
                    transform)


# ---------------------------------------------------------------------------
# checkpoint format: versioned container of named float64 arrays + config


def checkpoint_save(path, cfg: TrainConfig, params: dict, adam: AdamState,
                    transform: LabelTransform):
    arrays = {f"param.{n}": np.asarray(a, dtype=np.float64)
              for n, a in params.items()}
    arrays.update({f"adam.m.{n}": a for n, a in adam.m.items()})
    arrays.update({f"adam.v.{n}": a for n, a in adam.v.items()})
    arrays["adam.step"] = np.array([float(adam.step)])
    arrays["label_norm.lo"] = np.array([transform.lo])
    arrays["label_norm.hi"] = np.array([transform.hi])

    cfg_bytes = config_to_text(cfg).encode()
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", CKPT_VERSION))
        f.write(struct.pack("<I", len(cfg_bytes)))
        f.write(cfg_bytes)
        f.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype="<f8")
            nb = name.encode()
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                f.write(struct.pack("<I", dim))
            f.write(arr.tobytes(order="C"))


def checkpoint_load(path) -> tuple:
    """Returns (config, model with best params, AdamState, LabelTransform).

    Every read is bounds-checked, and a truncated or corrupt file raises
    DataError naming the byte offset: the file must hold exactly the
    arrays its own config's model needs, with their shapes, all finite.
    """
    path = Path(path)
    raw = path.read_bytes()

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise DataError(f"{path}: truncated {what} at byte {off} "
                            f"(need {n} bytes, file has {len(raw) - off})")
        off += n
        return raw[off - n:off]

    def unpack(fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    def text(n: int, what: str) -> str:
        at = off
        try:
            return take(n, what).decode()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {what} at byte {at} is not UTF-8") from exc

    if raw[:4] != CKPT_MAGIC:
        raise DataError(f"{path}: not a checkpoint (bad magic {raw[:4]!r})")
    off = 4
    (version,) = unpack("<I", "version")
    if version != CKPT_VERSION:
        raise DataError(f"{path}: checkpoint version {version} unsupported "
                        f"(expected {CKPT_VERSION})")
    (cfg_len,) = unpack("<I", "config length")
    cfg_at = off
    try:
        cfg = config_from_text(text(cfg_len, "config"))
    except ConfigError as exc:
        raise DataError(f"{path}: bad config at byte {cfg_at}: {exc}") from exc
    (n_arrays,) = unpack("<I", "array count")
    arrays = {}
    for _ in range(n_arrays):
        at = off
        (name_len,) = unpack("<H", "array name length")
        name = text(name_len, "array name")
        (ndim,) = unpack("<B", f"rank of {name!r}")
        shape = unpack(f"<{ndim}I", f"shape of {name!r}")
        count = math.prod(shape)
        arr = np.frombuffer(take(8 * count, f"data of {name!r}"), dtype="<f8")
        if name in arrays:
            raise DataError(f"{path}: duplicate array {name!r} at byte {at}")
        if not np.all(np.isfinite(arr)):
            raise DataError(f"{path}: non-finite value in {name!r} at byte {at}")
        arrays[name] = arr.reshape(shape).astype(np.float64)
    if off != len(raw):
        raise DataError(f"{path}: {len(raw) - off} trailing bytes at byte {off}")

    model = build_model(cfg)
    params = model.named_parameters()
    expected = {"adam.step": (1,), "label_norm.lo": (1,), "label_norm.hi": (1,)}
    for key, p in params.items():
        for prefix in ("param.", "adam.m.", "adam.v."):
            expected[prefix + key] = p.data.shape
    for name in sorted(arrays.keys() | expected.keys()):
        if name not in expected:
            raise DataError(f"{path}: unknown array {name!r}")
        if name not in arrays:
            raise DataError(f"{path}: missing array {name!r}")
        if arrays[name].shape != expected[name]:
            raise DataError(f"{path}: shape mismatch for {name!r}: "
                            f"{arrays[name].shape} vs {expected[name]}")

    adam = AdamState(step=0)
    for key, p in params.items():
        p.data = arrays[f"param.{key}"]
        adam.m[key] = arrays[f"adam.m.{key}"]
        adam.v[key] = arrays[f"adam.v.{key}"]
    step = float(arrays["adam.step"][0])
    if step < 0 or step != int(step):
        raise DataError(f"{path}: Adam step {step} is not a count")
    adam.step = int(step)
    try:
        transform = LabelTransform(lo=float(arrays["label_norm.lo"][0]),
                                   hi=float(arrays["label_norm.hi"][0]))
    except ContractError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return cfg, model, adam, transform


# ---------------------------------------------------------------------------
# ablation harness


def run_ablation(base_cfg: TrainConfig, grid: dict,
                 manifest: DatasetManifest, out_dir=None) -> tuple:
    """Train once per grid cell (cartesian product), shared base seed.

    Returns (rows, csv_text); each row maps grid keys to their values
    plus the cell's final test metrics. An empty grid runs the baseline.
    """
    keys = sorted(grid)
    combos = list(itertools.product(*(grid[k] for k in keys))) if keys else [()]
    rows = []
    for combo in combos:
        overrides = [f"{k}={v}" for k, v in zip(keys, combo)]
        cfg = apply_overrides(base_cfg, overrides)
        cell_dir = None
        if out_dir is not None:
            tag = "_".join(f"{k.split('.')[-1]}-{v}" for k, v in zip(keys, combo))
            cell_dir = Path(out_dir) / (tag or "baseline")
        result = train(cfg, manifest, out_dir=cell_dir)
        row = dict(zip(keys, combo))
        row["srcc"] = result.final_report.srcc
        row["rl2_x100"] = result.final_report.rl2 * 100.0
        for i, dg in enumerate(result.final_report.diagonality_by_layer, 1):
            row[f"diag_layer{i}"] = dg
        rows.append(row)

    metric_cols = [c for c in rows[0] if c not in keys]
    header = ",".join(keys + metric_cols)
    lines = [header]
    for row in rows:
        cells = [str(row[k]) for k in keys]
        cells += [f"{row[c]:.10g}" for c in metric_cols]
        lines.append(",".join(cells))
    csv_text = "\n".join(lines) + "\n"
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "ablation.csv").write_text(csv_text)
    return rows, csv_text
