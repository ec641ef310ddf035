"""CLI tests: subcommand wiring, file outputs, export formats, exit codes,
and idempotency. Commands are invoked in-process through main(argv).
"""

import numpy as np
import pytest

from tqdec.cli import main, read_map_csv, write_map_csv, write_pgm
from tqdec.data import load_manifest, load_split
from tqdec.losses import gram_softmax
from tqdec.trainer import checkpoint_load

SMALL = ["--set", "model.dim=16", "--set", "model.clips=4",
         "--set", "data.n_train=20", "--set", "data.n_test=6",
         "--set", "model.dropout=0.0"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset + one short trained run, shared by the tests."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    run = root / "run"
    assert main(["gen-synth", "--out", str(data), "--seed", "5"] + SMALL) == 0
    assert main(["train", "--data", str(data), "--out", str(run),
                 "--set", "train.epochs=3", "--seed", "5"] + SMALL) == 0
    return root


def _any_test_sample(data_dir) -> str:
    manifest = load_manifest(data_dir / "manifest.txt")
    return manifest.test[0][0]


# ---------------------------------------------------------------------------
# gen-synth / train / eval


def test_gen_synth_writes_dataset(workspace):
    data = workspace / "data"
    manifest = load_manifest(data / "manifest.txt")
    assert len(manifest.train) == 20
    assert len(manifest.test) == 6
    assert (data / "ground_truth.csv").exists()


def test_gen_synth_idempotent(workspace, tmp_path):
    again = tmp_path / "data2"
    assert main(["gen-synth", "--out", str(again), "--seed", "5"] + SMALL) == 0
    a = (workspace / "data" / "manifest.txt").read_bytes()
    assert (again / "manifest.txt").read_bytes() == a
    name = "features/s00000.tqdf"
    assert (again / name).read_bytes() == \
        (workspace / "data" / name).read_bytes()


def test_train_writes_outputs(workspace):
    run = workspace / "run"
    assert (run / "log.csv").exists()
    assert (run / "best.tqck").exists()
    lines = (run / "log.csv").read_text().splitlines()
    assert lines[0].startswith("epoch,loss_reg,loss_att,srcc")
    assert len(lines) == 4  # header + 3 epochs


def test_eval_reports_metrics(workspace, capsys, tmp_path):
    rc = main(["eval", "--data", str(workspace / "data"),
               "--checkpoint", str(workspace / "run" / "best.tqck"),
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "srcc=" in out and "rl2_x100=" in out and "diag_layer2=" in out
    assert (tmp_path / "eval.txt").read_text() == out


def test_eval_dimension_mismatch_is_data_error(workspace, tmp_path):
    other = tmp_path / "otherdata"
    assert main(["gen-synth", "--out", str(other), "--seed", "5",
                 "--set", "model.dim=8", "--set", "model.clips=4",
                 "--set", "data.n_train=4", "--set", "data.n_test=2"]) == 0
    rc = main(["eval", "--data", str(other),
               "--checkpoint", str(workspace / "run" / "best.tqck")])
    assert rc == 3


# ---------------------------------------------------------------------------
# ablate


def test_ablate_writes_grid_csv(workspace, tmp_path, capsys):
    rc = main(["ablate", "--data", str(workspace / "data"),
               "--out", str(tmp_path), "--seed", "5",
               "--set", "train.epochs=1",
               "--grid", "model.query_pe=true,false"] + SMALL)
    assert rc == 0
    text = (tmp_path / "ablation.csv").read_text()
    lines = text.splitlines()
    assert lines[0].startswith("model.query_pe,srcc")
    assert len(lines) == 3
    assert capsys.readouterr().out == text


def test_ablate_malformed_grid_is_config_error(workspace):
    rc = main(["ablate", "--data", str(workspace / "data"),
               "--grid", "model.query_pe"] + SMALL)
    assert rc == 2


# ---------------------------------------------------------------------------
# export-attention


def test_export_attention_round_trip(workspace, tmp_path):
    data = workspace / "data"
    sample = _any_test_sample(data)
    rc = main(["export-attention", "--data", str(data),
               "--checkpoint", str(workspace / "run" / "best.tqck"),
               "--sample", sample, "--out", str(tmp_path)])
    assert rc == 0
    # every layer and both map kinds, in both formats
    for layer in (1, 2):
        for kind in ("self", "cross"):
            assert (tmp_path / f"{sample}_layer{layer}_{kind}.csv").exists()
            assert (tmp_path / f"{sample}_layer{layer}_{kind}.pgm").exists()

    # CSV round-trips against the in-memory map within 1e-9
    _, model, _, _ = checkpoint_load(workspace / "run" / "best.tqck")
    manifest = load_manifest(data / "manifest.txt")
    seq = [s for s in load_split(manifest, "test") if s.sample_id == sample][0]
    _, trace = model.forward(seq.features, training=False)
    expected = gram_softmax(trace.a_s[1]).data
    loaded = read_map_csv(tmp_path / f"{sample}_layer2_self.csv")
    assert loaded.shape == (4, 4)
    assert np.max(np.abs(loaded - expected)) < 1e-9


def test_export_attention_idempotent(workspace, tmp_path):
    data = workspace / "data"
    sample = _any_test_sample(data)
    args = ["export-attention", "--data", str(data),
            "--checkpoint", str(workspace / "run" / "best.tqck"),
            "--sample", sample]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    name = f"{sample}_layer1_self.pgm"
    assert (tmp_path / "a" / name).read_bytes() == \
        (tmp_path / "b" / name).read_bytes()


def test_export_attention_missing_sample(workspace):
    rc = main(["export-attention", "--data", str(workspace / "data"),
               "--checkpoint", str(workspace / "run" / "best.tqck"),
               "--sample", "sXXXXX"])
    assert rc == 3


# ---------------------------------------------------------------------------
# PGM / map-CSV primitives


def test_pgm_uniform_map_is_constant_gray(tmp_path):
    write_pgm(tmp_path / "u.pgm", np.full((3, 3), 1.0 / 3.0))
    lines = (tmp_path / "u.pgm").read_text().splitlines()
    assert lines[:3] == ["P2", "3 3", "255"]
    assert lines[3:] == ["255 255 255"] * 3


def test_pgm_identity_map_is_bright_diagonal(tmp_path):
    write_pgm(tmp_path / "i.pgm", np.eye(3))
    rows = [r.split() for r in
            (tmp_path / "i.pgm").read_text().splitlines()[3:]]
    assert rows == [["255", "0", "0"], ["0", "255", "0"], ["0", "0", "255"]]


def test_pgm_scales_by_max_entry(tmp_path):
    write_pgm(tmp_path / "s.pgm", np.array([[1.0, 0.0], [0.5, 1.0]]))
    rows = (tmp_path / "s.pgm").read_text().splitlines()[3:]
    assert rows == ["255 0", "128 255"]


def test_pgm_all_zero_map(tmp_path):
    write_pgm(tmp_path / "z.pgm", np.zeros((2, 2)))
    assert (tmp_path / "z.pgm").read_text().splitlines()[3:] == ["0 0", "0 0"]


def test_map_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.random((5, 7))
    write_map_csv(tmp_path / "m.csv", m)
    assert np.array_equal(read_map_csv(tmp_path / "m.csv"), m)


# ---------------------------------------------------------------------------
# export-clips


def test_export_clips_totals(workspace, tmp_path):
    data = workspace / "data"
    sample = _any_test_sample(data)
    rc = main(["export-clips", "--data", str(data),
               "--checkpoint", str(workspace / "run" / "best.tqck"),
               "--sample", sample, "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / f"{sample}_clips.csv").read_text().splitlines()
    assert lines[0] == "clip_index,weight,score,weight_x_score,running_total"
    body = [ln.split(",") for ln in lines[1:-1]]
    total = lines[-1].split(",")
    assert [row[0] for row in body] == [str(i) for i in range(4)]
    weights = np.array([float(row[1]) for row in body])
    scores = np.array([float(row[2]) for row in body])
    contribs = np.array([float(row[3]) for row in body])
    assert np.allclose(contribs, weights * scores, atol=1e-15)
    # running total accumulates the contributions
    assert float(body[-1][4]) == pytest.approx(contribs.sum(), abs=1e-12)
    # totals row: weights sum to 1; final equals the model's prediction
    assert float(total[1]) == pytest.approx(1.0, abs=1e-9)
    _, model, _, _ = checkpoint_load(workspace / "run" / "best.tqck")
    manifest = load_manifest(data / "manifest.txt")
    seq = [s for s in load_split(manifest, "test") if s.sample_id == sample][0]
    assessment, _ = model.forward(seq.features, training=False)
    assert float(total[3]) == pytest.approx(
        float(assessment.final_score.data), abs=1e-9)
    assert float(total[4]) == float(total[3])


# ---------------------------------------------------------------------------
# error handling


def test_export_reads_one_feature_file(workspace, tmp_path, monkeypatch):
    import tqdec.data
    calls = []
    original = tqdec.data.load_features

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)
    monkeypatch.setattr(tqdec.data, "load_features", counting)
    sample = _any_test_sample(workspace / "data")
    rc = main(["export-clips", "--data", str(workspace / "data"),
               "--checkpoint", str(workspace / "run" / "best.tqck"),
               "--sample", sample, "--out", str(tmp_path)])
    assert rc == 0
    assert len(calls) == 1 and calls[0].stem == sample


def test_unknown_config_key_exits_2(workspace):
    rc = main(["train", "--data", str(workspace / "data"),
               "--set", "bogus.key=1"])
    assert rc == 2


def test_missing_dataset_exits_3(tmp_path):
    rc = main(["train", "--data", str(tmp_path / "nope")])
    assert rc == 3


def test_gen_synth_without_out_exits_2():
    assert main(["gen-synth"]) == 2


def test_corrupt_checkpoint_exits_3(workspace, tmp_path):
    bad = tmp_path / "bad.tqck"
    bad.write_bytes(b"JUNKJUNKJUNK")
    rc = main(["eval", "--data", str(workspace / "data"),
               "--checkpoint", str(bad)])
    assert rc == 3


def test_seed_flag_wins_over_set(workspace, tmp_path, capsys):
    # --seed is applied after --set train.seed, and changes the dataset
    a, b = tmp_path / "a", tmp_path / "b"
    small = ["--set", "model.dim=8", "--set", "model.clips=4",
             "--set", "data.n_train=4", "--set", "data.n_test=2"]
    assert main(["gen-synth", "--out", str(a), "--set", "train.seed=1",
                 "--seed", "2"] + small) == 0
    assert main(["gen-synth", "--out", str(b), "--seed", "2"] + small) == 0
    capsys.readouterr()
    assert (a / "manifest.txt").read_bytes() == \
        (b / "manifest.txt").read_bytes()
