"""Tests of the benchmark itself: the reference agrees with the program,
every output check accepts the program's real output and rejects a
deliberately wrong one, and the tracer records and restores correctly.

    python -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import reference
import run
import tqdec
from tracer import Tracer
from tqdec import losses
from tqdec import tensor as T
from tqdec.cli import main, read_map_csv
from tqdec.config import TrainConfig
from tqdec.data import fit_label_transform, load_features, load_manifest, \
    load_split
from tqdec.model import build_model
from tqdec.trainer import checkpoint_load, evaluate

BENCH = Path(__file__).resolve().parent
TINY = ["--set", "model.dim=16", "--set", "model.clips=4",
        "--set", "data.n_train=24", "--set", "data.n_test=8",
        "--set", "model.dropout=0.0"]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A tiny dataset, a short trained run and one sample's exports."""
    root = tmp_path_factory.mktemp("bench")
    data, run, exp = root / "data", root / "run", root / "exp"
    assert main(["gen-synth", "--out", str(data), "--seed", "3"] + TINY) == 0
    assert main(["train", "--data", str(data), "--out", str(run), "--seed",
                 "3", "--set", "train.epochs=3"] + TINY) == 0
    manifest = load_manifest(data / "manifest.txt")
    sample = manifest.test[2][0]
    for cmd in ("export-clips", "export-attention"):
        assert main([cmd, "--data", str(data), "--checkpoint",
                     str(run / "best.tqck"), "--sample", sample,
                     "--out", str(exp)]) == 0
    arrays = reference.read_checkpoint(run / "best.tqck")
    params, lo, hi = reference.checkpoint_params(arrays)
    ids, feats, labels = reference.read_split(data, "test")
    ref = checks.reference_eval(params, feats, 4, lo, hi)
    return {"data": data, "run": run, "exp": exp, "sample": sample,
            "row": ids.index(sample), "params": params, "lo": lo, "hi": hi,
            "feats": feats, "labels": labels, "ref": ref, "arrays": arrays,
            "manifest": manifest}


def _perturbed(params, name="layer0.cross.wv", by=1e-3):
    out = dict(params)
    out[name] = params[name] + by
    return out


def _rejects(fn, *args):
    with pytest.raises(checks.CheckFailed):
        fn(*args)


# ---------------------------------------------------------------------------
# the reference against the program


def test_reference_matches_model_forward():
    cfg = TrainConfig(dim=16, clips=5, heads=4, layers=2, dropout=0.0, seed=2)
    model = build_model(cfg)
    params = {n: p.data for n, p in model.named_parameters().items()}
    feats = np.random.default_rng(0).normal(size=(3, 5, 16))
    out = reference.forward(params, feats, cfg.heads)
    for b in range(3):
        assessment, trace = model.forward(feats[b])
        att, _ = losses.attention_loss(trace)
        assert np.allclose(assessment.weights.data, out["weights"][b],
                           rtol=0, atol=1e-12)
        assert abs(float(assessment.final_score.data) - out["final"][b]) < 1e-12
        assert abs(float(att.data) - reference.attention_term(out)[b]) < 1e-12
        for layer in range(2):
            got = losses.gram_softmax(trace.a_c[layer]).data
            want = reference.gram_softmax(out["cross_out"][layer][b])
            assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_readers_match_program_loaders(ws):
    cfg, model, _, transform = checkpoint_load(ws["run"] / "best.tqck")
    for name, p in model.named_parameters().items():
        assert p.data.tobytes() == ws["params"][name].tobytes()
    assert (transform.lo, transform.hi) == (ws["lo"], ws["hi"])
    rel = ws["manifest"].test[0][1]
    feats, label = reference.read_features(ws["data"] / rel)
    seq = load_features(ws["data"] / rel)
    assert np.array_equal(feats, seq.features) and label == seq.label


# ---------------------------------------------------------------------------
# each check accepts the real output and rejects a wrong one


@pytest.fixture(scope="module")
def grad_case(ws):
    cfg = TrainConfig(dim=16, clips=4, dropout=0.0, seed=3)
    model = build_model(cfg)
    train = load_split(ws["manifest"], "train")[:6]
    y = fit_label_transform([s.label for s in train]).normalize(
        [s.label for s in train])
    loss = run.tape_loss(tqdec, cfg, model, train, y)
    T.backward(loss)
    params = model.named_parameters()
    feats = np.stack([s.features for s in train])
    return ({n: p.data.copy() for n, p in params.items()},
            {n: p.grad for n, p in params.items()}, float(loss.data),
            lambda prm: reference.combined_loss(prm, feats, y, 4))


def test_gradient_check(grad_case):
    params, grads, loss, loss_fn = grad_case
    assert checks.check_gradient(params, grads, loss, loss_fn, 0) < 1e-6
    flipped = {n: -g for n, g in grads.items()}
    _rejects(checks.check_gradient, params, flipped, loss, loss_fn, 0)
    _rejects(checks.check_gradient, _perturbed(params), grads, loss, loss_fn, 0)
    one_wrong = dict(grads, **{"head.score.w3": -grads["head.score.w3"]})
    _rejects(checks.check_gradient, params, one_wrong, loss, loss_fn, 0)


def test_training_log_check(ws):
    rows = (ws["run"] / "log.csv").read_text().splitlines()[1:]
    checks.check_training_log(rows)
    _rejects(checks.check_training_log, rows[::-1])
    nan_row = rows[1].split(",")
    nan_row[2] = "nan"
    _rejects(checks.check_training_log, [rows[0], ",".join(nan_row), rows[2]])


def test_report_check(ws):
    _, model, _, transform = checkpoint_load(ws["run"] / "best.tqck")
    rep = evaluate(model, load_split(ws["manifest"], "test"), transform)
    args = (ws["labels"], ws["lo"], ws["hi"])
    checks.check_report(rep.srcc, rep.rl2, ws["ref"]["preds"], *args)
    swapped = ws["ref"]["preds"].copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    _rejects(checks.check_report, rep.srcc, rep.rl2, swapped, *args)
    wrong = checks.reference_eval(_perturbed(ws["params"]), ws["feats"], 4,
                                  ws["lo"], ws["hi"])
    _rejects(checks.check_report, rep.srcc, rep.rl2, wrong["preds"], *args)


def test_eval_text_check(ws, capsys):
    assert main(["eval", "--data", str(ws["data"]), "--checkpoint",
                 str(ws["run"] / "best.tqck")]) == 0
    text = capsys.readouterr().out
    ref = ws["ref"]
    args = (ref["preds"], ws["labels"], ws["lo"], ws["hi"])
    checks.check_eval_text(text, *args, ref["diag"])
    _rejects(checks.check_eval_text, text, *args,
             [ref["diag"][0] + 1e-3, ref["diag"][1]])
    got = checks.parse_eval_text(text)
    bad = text.replace(f"srcc={got['srcc']:.6f}",
                       f"srcc={got['srcc'] - 0.01:.6f}")
    _rejects(checks.check_eval_text, bad, *args, ref["diag"])
    _rejects(checks.check_eval_text, text.replace("rl2_x100", "rl2"), *args,
             ref["diag"])


def test_clips_check(ws):
    text = (ws["exp"] / f"{ws['sample']}_clips.csv").read_text()
    out, i = ws["ref"]["out"], ws["row"]
    want = (out["weights"][i], out["scores"][i], out["final"][i])
    checks.check_clips_csv(text, *want)
    lines = text.splitlines()
    swapped = [lines[0], lines[2], lines[1]] + lines[3:]
    _rejects(checks.check_clips_csv, "\n".join(swapped), *want)
    w, s, f = want
    _rejects(checks.check_clips_csv, text, w[::-1], s[::-1], f)
    _rejects(checks.check_clips_csv, text, w, s, f + 1e-6)
    total = lines[-1].split(",")
    total[3] = repr(float(total[3]) + 1e-3)
    _rejects(checks.check_clips_csv, "\n".join(lines[:-1] + [",".join(total)]),
             *want)


def test_attention_map_and_pgm_checks(ws):
    stem = ws["exp"] / f"{ws['sample']}_layer2_cross"
    grid = read_map_csv(f"{stem}.csv")
    want = reference.gram_softmax(ws["ref"]["out"]["cross_out"][1][ws["row"]])
    checks.check_attention_map(grid, want)
    _rejects(checks.check_attention_map, grid[[1, 0, 2, 3]], want)
    _rejects(checks.check_attention_map, grid * 1.01, want)
    _rejects(checks.check_attention_map, grid,
             reference.gram_softmax(ws["ref"]["out"]["self_out"][1][ws["row"]]))
    pgm = stem.with_suffix(".pgm").read_text()
    checks.check_pgm(pgm, grid)
    _rejects(checks.check_pgm, pgm, grid[::-1])


def test_round_trip_check(ws, tmp_path):
    from tqdec.trainer import checkpoint_save
    ckpt = ws["run"] / "best.tqck"
    cfg, model, adam, transform = checkpoint_load(ckpt)
    saved = tmp_path / "again.tqck"
    checkpoint_save(saved, cfg, {n: p.data for n, p in
                                 model.named_parameters().items()},
                    adam, transform)
    original, resaved = ckpt.read_bytes(), saved.read_bytes()
    checks.check_round_trip(original, resaved, ws["arrays"],
                            reference.read_checkpoint(saved))
    flipped = bytearray(resaved)
    flipped[-3] ^= 0x01
    saved.write_bytes(bytes(flipped))
    _rejects(checks.check_round_trip, original, bytes(flipped), ws["arrays"],
             reference.read_checkpoint(saved))


# ---------------------------------------------------------------------------
# tracer


class _Owner:
    @staticmethod
    def inner(x):
        return x + 1

    @staticmethod
    def outer(x):
        return _Owner.inner(x) * 2


def test_tracer_spans_self_time_and_restore():
    inner, outer = _Owner.inner, _Owner.outer
    tr = Tracer()
    tr.install([(_Owner, "inner", "inner", lambda x: x),
                (_Owner, "outer", "outer", None)])
    assert _Owner.outer(3) == 8
    with tr.paused():
        assert _Owner.inner is inner
        _Owner.outer(1)
    assert _Owner.outer(4) == 10
    tr.uninstall()
    assert (_Owner.inner, _Owner.outer) == (inner, outer)
    summary = tr.summary()
    assert summary["inner"][0] == 2 and summary["inner"][3] == 3 + 4
    assert summary["outer"][0] == 2
    a = tr.arrays()
    outer_spans = tr.spans_of("outer")
    assert all(a["parent"][i] in outer_spans for i in tr.spans_of("inner"))
    assert np.allclose(a["self"][outer_spans],
                       a["dur"][outer_spans] - a["dur"][tr.spans_of("inner")])


# ---------------------------------------------------------------------------
# the command


def test_command_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "score", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_one_round_prints_the_result_line(trace):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "train-short", "--seed", "4", "--seconds", "0",
                           "--trace", str(trace)],
                          cwd=BENCH.parent,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, proc.stderr
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert [(m["name"], m["unit"]) for m in declared] == \
        [(k, v["unit"]) for k, v in result["metrics"].items()]
    assert all(v["value"] > 0 for k, v in result["metrics"].items()
               if k != "trace.overhead_pct")
