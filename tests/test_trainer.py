"""Trainer tests: Adam against hand oracles, the epoch loop's learnability,
determinism, best-checkpoint selection, checkpoint round-trips, and the
ablation grid harness.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tqdec.config import TrainConfig
from tqdec.data import LabelTransform, gen_synthetic, load_split
from tqdec.errors import DataError, NumericError
from tqdec.losses import gram_softmax
from tqdec.metrics import diagonality
from tqdec.model import build_model
from tqdec.tensor import Tensor
from tqdec.trainer import (AdamState, _srcc_or_zero, adam_step,
                           checkpoint_load, checkpoint_save, evaluate,
                           log_header, run_ablation, train)

# ---------------------------------------------------------------------------
# shared tiny dataset + one small trained run (reused across tests for speed)


TINY = dict(n_train=60, n_test=16, k=4, d=32, noise_sigma=0.0, seed=7)


def tiny_config(**overrides) -> TrainConfig:
    base = dict(n_train=TINY["n_train"], n_test=TINY["n_test"],
                noise_sigma=TINY["noise_sigma"], dim=TINY["d"],
                clips=TINY["k"], heads=4, layers=2, dropout=0.0,
                query_variance=1.0, learning_rate=2e-3, batch_size=128,
                epochs=60, seed=0, attention_loss=False, lambda_att=0.0)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinydata")
    return gen_synthetic(root, TINY["n_train"], TINY["n_test"], k=TINY["k"],
                         d=TINY["d"], noise_sigma=TINY["noise_sigma"],
                         seed=TINY["seed"])


@pytest.fixture(scope="module")
def tiny_run(tiny_manifest, tmp_path_factory):
    out = tmp_path_factory.mktemp("tinyrun")
    result = train(tiny_config(), tiny_manifest, out_dir=out)
    return result, out


# ---------------------------------------------------------------------------
# Adam oracle tests


def _params_with_grad(value, grad):
    p = Tensor(np.array(value, dtype=np.float64), requires_grad=True)
    p.grad = None if grad is None else np.array(grad, dtype=np.float64)
    return {"x": p}


def test_adam_zero_grad_is_noop():
    params = _params_with_grad([1.0, -2.0, 3.0], [0.0, 0.0, 0.0])
    state = AdamState.for_params(params)
    adam_step(params, state, lr=0.1)
    assert np.array_equal(params["x"].data, [1.0, -2.0, 3.0])


def test_adam_missing_grad_counts_as_zero():
    params = _params_with_grad([5.0], None)
    state = AdamState.for_params(params)
    adam_step(params, state, lr=0.1)
    assert params["x"].data[0] == 5.0
    assert state.step == 1


def test_adam_first_step_magnitude_is_lr():
    # With bias correction, step one moves by lr * g / (|g| + eps) ~= lr * sign(g).
    params = _params_with_grad([1.0, 1.0], [0.25, -40.0])
    state = AdamState.for_params(params)
    adam_step(params, state, lr=0.01)
    moves = params["x"].data - 1.0
    assert np.allclose(np.abs(moves), 0.01, rtol=1e-5)
    assert moves[0] < 0 and moves[1] > 0


def test_adam_matches_hand_rolled_reference():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=6)
    grads = [rng.normal(size=6) for _ in range(10)]

    params = _params_with_grad(x0, grads[0])
    state = AdamState.for_params(params)

    # independent oracle: the textbook update recursion
    m = np.zeros(6)
    v = np.zeros(6)
    ref = x0.copy()
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref = ref - 0.05 * (m / (1 - 0.9 ** t)) / (
            np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)

    for g in grads:
        params["x"].grad = g.copy()
        adam_step(params, state, lr=0.05)
    assert np.allclose(params["x"].data, ref, atol=1e-12)


def test_adam_converges_on_quadratic():
    params = _params_with_grad([10.0], [0.0])
    state = AdamState.for_params(params)
    for _ in range(800):
        x = params["x"].data[0]
        params["x"].grad = np.array([2.0 * (x - 3.0)])
        adam_step(params, state, lr=0.05)
    assert abs(params["x"].data[0] - 3.0) < 1e-3


def test_adam_rejects_nonfinite_grad():
    params = _params_with_grad([1.0], [np.nan])
    state = AdamState.for_params(params)
    with pytest.raises(NumericError, match="x"):
        adam_step(params, state, lr=0.1)


# ---------------------------------------------------------------------------
# the epoch loop


def test_training_reduces_regression_loss(tiny_run):
    result, _ = tiny_run
    reg = [float(row.split(",")[1]) for row in result.log_rows]
    assert reg[-1] < 0.5 * reg[0]


def test_training_learns_ranking(tiny_run):
    result, _ = tiny_run
    assert result.best_srcc > 0.5


def test_loss_att_column_zero_when_disabled(tiny_run):
    result, _ = tiny_run
    att = [float(row.split(",")[2]) for row in result.log_rows]
    assert all(a == 0.0 for a in att)


def test_attention_loss_column_decreases(tiny_manifest):
    cfg = tiny_config(attention_loss=True, lambda_att=1.0,
                      kl_stop_grad="self", epochs=30)
    result = train(cfg, tiny_manifest)
    att = [float(row.split(",")[2]) for row in result.log_rows]
    assert att[0] > 0.0
    assert np.mean(att[-10:]) < np.mean(att[:10])


def test_best_checkpoint_matches_log(tiny_run):
    result, _ = tiny_run
    # log cells are %.10g-rounded, so compare at that precision
    srccs = [float(row.split(",")[3]) for row in result.log_rows]
    assert max(srccs) == pytest.approx(result.best_srcc, abs=1e-9)
    assert srccs[result.best_epoch - 1] == \
        pytest.approx(result.best_srcc, abs=1e-9)
    # the returned model carries the best parameters: re-evaluation reproduces
    assert result.final_report.srcc == result.best_srcc


def test_log_format(tiny_run):
    result, out = tiny_run
    header = log_header(2)
    assert header == ("epoch,loss_reg,loss_att,srcc,rl2_x100,"
                      "diag_layer1,diag_layer2")
    text = (out / "log.csv").read_text().splitlines()
    assert text[0] == header
    assert len(text) == 1 + len(result.log_rows)
    for row in text[1:]:
        assert len(row.split(",")) == 7


def test_determinism_bit_identical_logs(tiny_manifest):
    cfg = tiny_config(epochs=6)
    a = train(cfg, tiny_manifest)
    b = train(cfg, tiny_manifest)
    assert a.log_rows == b.log_rows
    for name, arr in a.best_params.items():
        assert np.array_equal(arr, b.best_params[name])


def test_different_seed_changes_log(tiny_manifest):
    a = train(tiny_config(epochs=3), tiny_manifest)
    b = train(tiny_config(epochs=3, seed=1), tiny_manifest)
    assert a.log_rows != b.log_rows


def test_minibatching_covers_all_samples(tiny_manifest):
    # batch_size smaller than n exercises the shuffle path; loss still drops
    cfg = tiny_config(batch_size=16, epochs=10)
    result = train(cfg, tiny_manifest)
    reg = [float(row.split(",")[1]) for row in result.log_rows]
    assert reg[-1] < reg[0]


def test_constant_predictor_scores_zero():
    # a dead model (all predictions identical) logs srcc 0 instead of crashing
    preds = np.full(8, 0.25)
    targets = np.linspace(0.0, 1.0, 8)
    assert _srcc_or_zero(preds, targets) == 0.0
    # non-constant predictions defer to the strict metric
    varied = np.arange(8.0)
    assert _srcc_or_zero(varied, targets) == 1.0


def test_divergence_raises_and_writes_checkpoint(tiny_manifest, tmp_path):
    # layer norm tames merely-large parameters, so force a step big enough
    # to overflow float64 in the attention logits on the next forward pass
    cfg = tiny_config(learning_rate=1e200, epochs=10)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="diverged"):
            train(cfg, tiny_manifest, out_dir=tmp_path)
    assert (tmp_path / "best.tqck").exists()


def test_evaluate_diagonality_is_gram_based(tiny_run, tiny_manifest):
    result, _ = tiny_run
    samples = load_split(tiny_manifest, "test")
    report = evaluate(result.model, samples, result.transform)
    # independent recomputation from the traces
    expected = np.zeros(2)
    for seq in samples:
        _, trace = result.model.forward(seq.features, training=False)
        for i, a_s in enumerate(trace.a_s):
            expected[i] += diagonality(gram_softmax(a_s).data)
    expected /= len(samples)
    assert np.allclose(report.diagonality_by_layer, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# checkpoint IO


def test_checkpoint_round_trip_bit_exact(tiny_run, tiny_manifest):
    result, out = tiny_run
    cfg2, model2, adam2, transform2 = checkpoint_load(out / "best.tqck")
    assert cfg2 == result.config
    params2 = model2.named_parameters()
    assert set(params2) == set(result.best_params)
    for name, arr in result.best_params.items():
        assert np.array_equal(params2[name].data, arr), name
    for name, arr in result.best_adam.m.items():
        assert np.array_equal(adam2.m[name], arr), name
    for name, arr in result.best_adam.v.items():
        assert np.array_equal(adam2.v[name], arr), name
    assert adam2.step == result.best_adam.step
    assert transform2.lo == result.transform.lo
    assert transform2.hi == result.transform.hi
    # the loaded model evaluates identically
    samples = load_split(tiny_manifest, "test")
    report = evaluate(model2, samples, transform2)
    assert report.srcc == result.final_report.srcc


def test_checkpoint_save_is_deterministic(tiny_run, tmp_path):
    result, out = tiny_run
    checkpoint_save(tmp_path / "again.tqck", result.config,
                    result.best_params, result.best_adam, result.transform)
    assert (tmp_path / "again.tqck").read_bytes() == \
        (out / "best.tqck").read_bytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.tqck"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError, match="magic"):
        checkpoint_load(p)


def test_checkpoint_rejects_future_version(tiny_run, tmp_path):
    _, out = tiny_run
    raw = bytearray((out / "best.tqck").read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    p = tmp_path / "future.tqck"
    p.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="version"):
        checkpoint_load(p)


def test_checkpoint_rejects_trailing_bytes(tiny_run, tmp_path):
    _, out = tiny_run
    raw = (out / "best.tqck").read_bytes() + b"\x00\x01"
    p = tmp_path / "trailing.tqck"
    p.write_bytes(raw)
    with pytest.raises(DataError, match="trailing"):
        checkpoint_load(p)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """A saved checkpoint of a tiny model, and a path to write
    damaged copies of it to."""
    root = tmp_path_factory.mktemp("ckpt")
    cfg = TrainConfig(dim=8, clips=4, heads=2, layers=1, seed=3)
    params = build_model(cfg).named_parameters()
    adam = AdamState.for_params(params)
    adam.step = 7
    checkpoint_save(root / "good.tqck", cfg,
                    {n: p.data for n, p in params.items()}, adam,
                    LabelTransform(lo=0.1, hi=0.9))
    return (root / "good.tqck").read_bytes(), root / "damaged.tqck"


def _load_damaged(path, raw):
    path.write_bytes(raw)
    return checkpoint_load(path)


@pytest.mark.parametrize("cut", [0, 3, 6, 40, "mid-array", -1])
def test_checkpoint_truncation_is_data_error(small_checkpoint, cut):
    # 6 bytes once raised struct.error, 40 bytes a ConfigError from the
    # half-read config, and a mid-array cut a numpy ValueError
    raw, path = small_checkpoint
    if cut == "mid-array":
        cut = len(raw) - 100
    with pytest.raises(DataError, match="truncated|magic"):
        _load_damaged(path, raw[:cut])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_checkpoint_fuzz_raises_only_data_error(small_checkpoint, data):
    raw, path = small_checkpoint
    damaged = bytearray(raw)
    if data.draw(st.booleans(), label="truncate"):
        damaged = damaged[:data.draw(st.integers(0, len(raw) - 1), label="cut")]
    else:
        for _ in range(data.draw(st.integers(1, 4), label="flips")):
            pos = data.draw(st.integers(0, len(raw) - 1), label="pos")
            damaged[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    try:
        _load_damaged(path, bytes(damaged))
    except DataError:
        pass


def test_checkpoint_rejects_nonfinite_values(small_checkpoint):
    raw, path = small_checkpoint
    damaged = bytearray(raw)
    damaged[-8:] = np.array([np.nan]).tobytes()      # the last array value
    with pytest.raises(DataError, match="non-finite"):
        _load_damaged(path, bytes(damaged))


def test_checkpoint_rejects_empty_label_range(tmp_path):
    cfg = TrainConfig(dim=8, clips=4, heads=2, layers=1, seed=3)
    params = build_model(cfg).named_parameters()
    checkpoint_save(tmp_path / "flat.tqck", cfg,
                    {n: p.data for n, p in params.items()},
                    AdamState.for_params(params),
                    LabelTransform(lo=0.1, hi=0.9))
    raw = (tmp_path / "flat.tqck").read_bytes()
    lo = np.array([0.1]).tobytes()
    hi = np.array([0.9]).tobytes()
    assert raw.count(lo) == 1 and raw.count(hi) == 1
    with pytest.raises(DataError, match="label range"):
        _load_damaged(tmp_path / "flat.tqck", raw.replace(lo, hi))


# ---------------------------------------------------------------------------
# ablation harness


def test_ablation_grid(tiny_manifest, tmp_path):
    base = tiny_config(epochs=2)
    rows, csv_text = run_ablation(
        base, {"train.epochs": [1, 2], "model.query_pe": [True, False]},
        tiny_manifest, out_dir=tmp_path)
    assert len(rows) == 4
    header = csv_text.splitlines()[0]
    assert header.startswith("model.query_pe,train.epochs,")
    assert "srcc" in header and "diag_layer2" in header
    assert (tmp_path / "ablation.csv").read_text() == csv_text
    # each cell directory holds a full run record
    cells = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert len(cells) == 4
    for cell in cells:
        assert (cell / "log.csv").exists()
        assert (cell / "best.tqck").exists()


def test_ablation_empty_grid_runs_baseline(tiny_manifest):
    rows, csv_text = run_ablation(tiny_config(epochs=1), {}, tiny_manifest)
    assert len(rows) == 1
    assert csv_text.splitlines()[0] == \
        "srcc,rl2_x100,diag_layer1,diag_layer2"
