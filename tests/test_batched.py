"""Batched training path: equivalence with the per-sample composition.

One (B, L, d) forward pass must give the loss and every parameter
gradient that B separate (L, d) forward passes give, to 1e-12 relative,
with and without dropout. ``data/per_sample_golden.json`` holds the loss
and gradients that the per-sample training path computed on the case
built by ``golden_case``, recorded before the batched path replaced it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from tqdec import tensor as T
from tqdec import trainer
from tqdec.config import TrainConfig
from tqdec.decoder import _dropout_masks, init_layer_params
from tqdec.losses import LossWeights, attention_loss, mse_loss, total_loss
from tqdec.model import build_model
from tqdec.trainer import _batch_loss

GOLDEN = Path(__file__).parent / "data" / "per_sample_golden.json"
TOL = 1e-12


def golden_case(dropout):
    cfg = TrainConfig(dim=8, clips=4, heads=2, layers=2, dropout=dropout,
                      seed=5)
    rng = np.random.default_rng(11)
    features = rng.normal(size=(3, 4, 8))
    labels = rng.uniform(size=3)
    return cfg, features, labels


def batched(cfg, features, labels, dropout_seed=13):
    model = build_model(cfg)
    loss, reg, att = _batch_loss(model, features, labels,
                                 LossWeights(cfg.lambda_reg, cfg.lambda_att),
                                 cfg, np.random.default_rng(dropout_seed))
    T.backward(loss)
    return float(loss.data), grads_of(model)


def per_sample(cfg, features, labels, dropout_seed=13):
    """The reference composition: one forward pass per sample, finals
    concatenated, attention terms averaged over the batch."""
    model = build_model(cfg)
    rng = np.random.default_rng(dropout_seed)
    finals, att = [], None
    for f in features:
        assessment, trace = model.forward(f, training=True, rng=rng)
        finals.append(T.reshape(assessment.final_score, (1,)))
        term, _ = attention_loss(trace, row_reduce=cfg.kl_row_reduce,
                                 symmetric=cfg.kl_symmetric,
                                 stop_grad=cfg.kl_stop_grad)
        att = term if att is None else T.add(att, term)
    reg = mse_loss(T.concat(finals, axis=0), labels)
    loss = total_loss(reg, T.scale(att, 1.0 / len(features)),
                      LossWeights(cfg.lambda_reg, cfg.lambda_att))
    T.backward(loss)
    return float(loss.data), grads_of(model)


def grads_of(model):
    return {n: (np.zeros_like(p.data) if p.grad is None else p.grad)
            for n, p in model.named_parameters().items()}


def assert_close(loss, grads, ref_loss, ref_grads):
    """Loss and each gradient within TOL of the reference, relative to
    the tensor's largest entry. The denominator is floored at 1e-3 of
    the largest gradient entry in the model: key-bias gradients are
    exactly zero in exact arithmetic (softmax ignores a per-row shift)
    and hold only rounding noise."""
    assert abs(loss - ref_loss) <= TOL * abs(ref_loss)
    floor = 1e-3 * max(np.max(np.abs(g)) for g in ref_grads.values())
    for name, ref in ref_grads.items():
        got = grads[name].reshape(ref.shape)
        scale = max(np.max(np.abs(ref)), floor)
        assert np.max(np.abs(got - ref)) <= TOL * scale, name


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_batched_matches_recorded_per_sample_path(dropout):
    case = json.loads(GOLDEN.read_text())[f"dropout={dropout}"]
    loss, grads = batched(*golden_case(dropout))
    ref = {n: np.array(g).reshape(grads[n].shape)
           for n, g in case["grads"].items()}
    assert_close(loss, grads, case["loss"], ref)


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_batched_matches_per_sample_composition(dropout):
    cfg = TrainConfig(dim=16, clips=5, heads=4, layers=2, dropout=dropout,
                      seed=2, kl_symmetric=True)
    rng = np.random.default_rng(21)
    features = rng.normal(size=(6, 5, 16))
    labels = rng.uniform(size=6)
    assert_close(*batched(cfg, features, labels),
                 *per_sample(cfg, features, labels))


@pytest.mark.parametrize("chunk_bytes", [1, 2 * 8 * 2 * 4 * 4])
def test_chunked_batch_matches_whole_batch(monkeypatch, chunk_bytes):
    # chunks of 1 and of 2 samples against one forward pass of all 3
    cfg, features, labels = golden_case(0.3)
    whole = batched(cfg, features, labels)
    monkeypatch.setattr(trainer, "ATTENTION_CHUNK_BYTES", chunk_bytes)
    assert trainer._chunk_size(cfg, 4) == max(1, chunk_bytes // 256)
    assert_close(*batched(cfg, features, labels), *whole)


def test_chunk_size_follows_attention_size():
    cfg = TrainConfig()                      # K=8, 4 heads, batch 48
    assert trainer._chunk_size(cfg, 8) == 48
    assert trainer._chunk_size(TrainConfig(clips=64), 64) == 4


def test_dropout_masks_are_one_draw_in_sample_order():
    """The (B, layers, 3, K, d) draw equals the per-site (K, d) draws of
    samples run one after another, and leaves the generator in the same
    state."""
    rng = np.random.default_rng(0)
    layers = [init_layer_params(8, 2, 0.3, rng) for _ in range(2)]
    one_call = np.random.default_rng(4)
    masks = _dropout_masks(layers, (5, 3, 8), True, one_call)
    per_site = np.random.default_rng(4)
    for b in range(5):
        for layer in range(2):
            for sublayer in range(3):
                want = (per_site.random((3, 8)) >= 0.3) / 0.7
                assert np.array_equal(masks[b, layer, sublayer], want)
    assert one_call.bit_generator.state == per_site.bit_generator.state


def test_no_masks_without_dropout():
    rng = np.random.default_rng(0)
    layers = [init_layer_params(8, 2, 0.0, rng)]
    assert _dropout_masks(layers, (3, 8), True, None) is None
    layers = [init_layer_params(8, 2, 0.3, rng)]
    assert _dropout_masks(layers, (3, 8), False, None) is None


def test_tape_size_does_not_grow_with_batch():
    # a per-sample loop would add ~90 nodes for every sample
    cfg = TrainConfig(dropout=0.3)
    model = build_model(cfg)
    rng = np.random.default_rng(0)
    weights = LossWeights(cfg.lambda_reg, cfg.lambda_att)
    sizes = []
    for b in (2, 48):
        loss, _, _ = _batch_loss(model, rng.normal(size=(b, cfg.clips, cfg.dim)),
                                 rng.uniform(size=b), weights, cfg,
                                 np.random.default_rng(1))
        sizes.append(len(T.topo_order(loss)))
    assert sizes[0] == sizes[1]
