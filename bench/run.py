"""tqdec benchmark: run one named workload, check its outputs, print metrics.

    python3 bench/run.py --workload train-short --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, from spans recorded around calls into each
module, and the spans are written to ``bench/.work/``. See README.md.
"""

from __future__ import annotations

import os
import sys
import time

SCRIPT_START = time.perf_counter()
if __name__ == "__main__":
    # one BLAS thread, set before numpy loads
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"


# Why each workload exists is recorded in BENCHMARK.json and README.md.
@dataclasses.dataclass(frozen=True)
class Workload:
    clips: int            # clips per video L, and queries K (= L)
    n_train: int
    n_test: int
    epochs: int           # epochs per trainer.train call
    epoch_eval: int       # test samples trainer.train scores each epoch
    evals: int            # tqdec eval commands per round
    exports: int          # export-clips + export-attention pairs per round


WORKLOADS = {
    "train-short": Workload(clips=8, n_train=200, n_test=50, epochs=4,
                            epoch_eval=50, evals=3, exports=3),
    "train-long": Workload(clips=64, n_train=96, n_test=24, epochs=3,
                           epoch_eval=24, evals=3, exports=3),
    "score": Workload(clips=8, n_train=200, n_test=1000, epochs=2,
                      epoch_eval=50, evals=3, exports=6),
}

DIM = 64
DROPOUT = 0.3
NOISE = 0.05
TENSOR_OPS = ("add", "sub", "mul", "scale", "hadamard_const", "matmul",
              "transpose", "reshape", "concat", "tsum", "mean", "relu",
              "softmax", "log", "clamp_min", "layer_norm")


def process_age() -> float:
    """Seconds since this process started (Linux), else since the script
    began."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - SCRIPT_START


def environment() -> dict:
    import numpy as np
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "threads": os.environ.get("OMP_NUM_THREADS"),
           "cpus": os.cpu_count()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


# ---------------------------------------------------------------------------
# what gets traced


def marker_targets(tq) -> list:
    """Train and evaluate boundaries: enough to split epochs into their
    training and evaluation parts. Installed in every run."""
    n_samples = lambda model, samples, transform: len(samples)  # noqa: E731
    return [
        (tq.trainer, "train", "trainer.train", None),
        (tq.cli, "train", "trainer.train", None),
        (tq.trainer, "build_model", "trainer.build_model", None),
        (tq.trainer, "evaluate", "trainer.evaluate", n_samples),
        (tq.cli, "evaluate", "trainer.evaluate", n_samples),
    ]


def layer_targets(tq) -> list:
    """Every public layer, wrapped at the name its callers look up."""
    T = tq.tensor

    def tape_nodes(loss):
        return len(T.topo_order(loss))

    def batch_size(pred, target):
        return pred.data.size

    targets = [(T, op, f"tensor.{op}", None) for op in TENSOR_OPS]
    targets += [
        (T, "backward", "tensor.backward", tape_nodes),
        (tq.decoder, "multi_head_attention", "decoder.multi_head_attention",
         None),
        (tq.model, "decoder_forward", "decoder.decoder_forward", None),
        (tq.model, "head_forward", "head.head_forward", None),
        (tq.model.Model, "forward", "model.Model.forward", None),
        (tq.trainer, "attention_loss", "losses.attention_loss", None),
        (tq.losses, "gram_softmax", "losses.gram_softmax", None),
        (tq.trainer, "gram_softmax", "losses.gram_softmax", None),
        (tq.cli, "gram_softmax", "losses.gram_softmax", None),
        (tq.losses, "kl_between_maps", "losses.kl_between_maps", None),
        (tq.trainer, "mse_loss", "losses.mse_loss", batch_size),
        (tq.trainer, "adam_step", "trainer.adam_step", None),
        (tq.trainer, "checkpoint_save", "trainer.checkpoint_save", None),
        (tq.cli, "checkpoint_load", "trainer.checkpoint_load", None),
        (tq.data, "load_features", "data.load_features", None),
        (tq.trainer, "load_split", "data.load_split", None),
        (tq.cli, "load_split", "data.load_split", None),
        (tq.data, "gen_synthetic", "data.gen_synthetic", None),
        (tq.trainer, "srcc", "metrics.srcc", None),
        (tq.trainer, "diagonality", "metrics.diagonality", None),
        (tq.cli, "main", "cli.main", None),
        (tq.cli, "cmd_train", "cli.train", None),
        (tq.cli, "cmd_eval", "cli.eval", None),
        (tq.cli, "cmd_export_clips", "cli.export_clips", None),
        (tq.cli, "cmd_export_attention", "cli.export_attention", None),
    ]
    return targets + marker_targets(tq)


def tape_loss(tq, cfg, model, batch, y_norm):
    """The combined training loss of one dropout-free batch, built on the
    tape from the public model and loss functions."""
    T, losses = tq.tensor, tq.losses
    finals, att = [], None
    for seq in batch:
        assessment, trace = model.forward(seq.features, training=False)
        finals.append(T.reshape(assessment.final_score, (1,)))
        term, _ = losses.attention_loss(
            trace, row_reduce=cfg.kl_row_reduce,
            symmetric=cfg.kl_symmetric, stop_grad=cfg.kl_stop_grad)
        att = term if att is None else T.add(att, term)
    reg = losses.mse_loss(T.concat(finals, axis=0), y_norm)
    return losses.total_loss(reg, T.scale(att, 1.0 / len(batch)),
                             losses.LossWeights(cfg.lambda_reg,
                                                cfg.lambda_att))


# ---------------------------------------------------------------------------
# one run


class Run:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        import numpy as np
        import tqdec.cli
        import tqdec.config
        import tqdec.data
        import tqdec.decoder
        import tqdec.losses
        import tqdec.model
        import tqdec.tensor
        import tqdec.trainer
        from tracer import Tracer

        self.np = np
        self.tq = tqdec
        self.wl = WORKLOADS[name]
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.dir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
        self.data_dir = self.dir / "data"
        self.ckpt_dir = self.dir / "ckpt"
        self.cfg = tqdec.config.TrainConfig(
            n_train=self.wl.n_train, n_test=self.wl.n_test,
            clips=self.wl.clips, dim=DIM, dropout=DROPOUT,
            epochs=self.wl.epochs, seed=seed, noise_sigma=NOISE)
        self.tracer = Tracer()
        self.tracer.install(layer_targets(tqdec) if trace
                            else marker_targets(tqdec))
        self.problems: list = []       # outputs that failed a check
        self.errors: list = []         # operations that failed
        self.attempted = self.failed = 0
        self.op_seconds: dict = {"cli_eval": [], "export": []}
        self.round_seconds: list = []
        self.train_logs: list = []     # log rows of every train call
        self.last_train = None         # the last TrainResult
        self.eval_texts: list = []
        self.exports: list = []        # (sample id, output dir)
        self.sample_rng = np.random.default_rng([seed, 1])

    # -- operations -------------------------------------------------------

    def timed(self, kind: str, fn, *args):
        """One timed operation, started from a collected heap as a fresh
        process would be."""
        gc.collect()
        t0 = time.perf_counter()
        out = fn(*args)
        self.op_seconds[kind].append(time.perf_counter() - t0)
        return out

    def cli(self, argv: list) -> str | None:
        """One in-process CLI command; its stdout, or None if it failed."""
        out = io.StringIO()
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = self.tq.cli.main([str(a) for a in argv])
        except (Exception, SystemExit) as exc:   # a crash is a failed op
            code, msg = -1, f"{type(exc).__name__}: {exc}"
        else:
            msg = err.getvalue().strip()
        if code != 0:
            self.failed += 1
            self.errors.append(f"tqdec {argv[0]} exited {code}: {msg}")
            return None
        return out.getvalue()

    def train(self):
        self.attempted += 1
        try:
            result = self.tq.trainer.train(self.cfg, self.train_manifest,
                                           out_dir=self.ckpt_dir)
        except Exception as exc:               # a crash is a failed op
            self.failed += 1
            self.errors.append(f"train raised {type(exc).__name__}: {exc}")
            return
        self.train_logs.append(result.log_rows)
        self.last_train = result

    def cli_eval(self):
        text = self.cli(["eval", "--data", self.data_dir, "--checkpoint",
                         self.ckpt_dir / "best.tqck", "--split", "test"])
        if text is not None:
            self.eval_texts.append(text)

    def export_pair(self):
        sample = self.test_ids[self.sample_rng.integers(len(self.test_ids))]
        out = self.dir / "exports" / str(len(self.exports))
        common = ["--data", self.data_dir, "--checkpoint",
                  self.ckpt_dir / "best.tqck", "--sample", sample, "--out", out]
        ok = self.cli(["export-clips"] + common) is not None
        ok = self.cli(["export-attention"] + common) is not None and ok
        if ok:
            self.exports.append((sample, out))

    def round(self):
        gc.collect()
        self.train()
        for _ in range(self.wl.evals):
            self.timed("cli_eval", self.cli_eval)
        for _ in range(self.wl.exports):
            self.timed("export", self.export_pair)

    # -- phases -----------------------------------------------------------

    def setup(self):
        self.manifest = self.tq.data.gen_synthetic(
            self.data_dir, self.cfg.n_train, self.cfg.n_test,
            k=self.cfg.clips, d=self.cfg.dim,
            noise_sigma=self.cfg.noise_sigma, seed=self.seed)
        self.test_ids = [e[0] for e in self.manifest.test]
        # trainer.train scores the first epoch_eval test samples each epoch
        self.train_manifest = dataclasses.replace(
            self.manifest, test=self.manifest.test[:self.wl.epoch_eval])

    def measure(self):
        loop_start = time.perf_counter()
        min_rounds = 2 if self.trace else 1
        while (time.perf_counter() - loop_start < self.seconds
               or len(self.round_seconds) < min_rounds):
            # traced runs alternate untraced and traced rounds, so the
            # difference between the two is the tracing overhead
            untraced = self.trace and len(self.round_seconds) % 2 == 0
            t0 = time.perf_counter()
            with (self.tracer.paused() if untraced else contextlib.nullcontext()):
                self.round()
            self.round_seconds.append(time.perf_counter() - t0)
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def check(self, what: str, fn, *args):
        import checks
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.problems.append(f"{what}: {exc}")

    # -- correctness ------------------------------------------------------

    def gradient_check(self):
        import checks
        import reference
        np, tq = self.np, self.tq
        cfg = dataclasses.replace(self.cfg, dropout=0.0)
        model = tq.model.build_model(cfg)
        train = tq.data.load_split(self.manifest, "train")
        transform = tq.data.fit_label_transform([s.label for s in train])
        batch = train[:cfg.batch_size]
        y = transform.normalize([s.label for s in batch])
        loss = tape_loss(tq, cfg, model, batch, y)
        params = model.named_parameters()
        tq.tensor.backward(loss)
        grads = {n: (np.zeros_like(p.data) if p.grad is None else p.grad)
                 for n, p in params.items()}
        feats = np.stack([s.features for s in batch])
        checks.check_gradient(
            {n: p.data.copy() for n, p in params.items()}, grads,
            float(loss.data),
            lambda prm: reference.combined_loss(
                prm, feats, y, cfg.heads, cfg.lambda_reg, cfg.lambda_att),
            self.seed)

    def verify(self):
        """The tape gradient, and every output of the timed loop, against
        the reference."""
        import checks
        import reference
        np, tq, cfg = self.np, self.tq, self.cfg
        self.check("gradient", self.gradient_check)
        ids, feats, labels = reference.read_split(self.data_dir, "test")
        ckpt = self.ckpt_dir / "best.tqck"

        arrays = reference.read_checkpoint(ckpt)
        params, lo, hi = reference.checkpoint_params(arrays)
        ref = checks.reference_eval(params, feats, cfg.heads, lo, hi)

        if any(rows != self.train_logs[0] for rows in self.train_logs):
            self.problems.append("train: reruns of one config logged "
                                 "different losses")
        result = self.last_train
        if result is not None:
            self.check("train log", checks.check_training_log, result.log_rows,
                       cfg.lambda_reg, cfg.lambda_att)
            trained = {n: p.data for n, p in
                       result.model.named_parameters().items()}
            if any(trained[n].tobytes() != params[n].tobytes() for n in trained):
                self.problems.append("train: best.tqck differs from the "
                                     "returned model")
            rep, n = result.final_report, self.wl.epoch_eval
            self.check("trainer.evaluate", checks.check_report, rep.srcc,
                       rep.rl2, ref["preds"][:n], labels[:n], lo, hi)

        if any(t != self.eval_texts[0] for t in self.eval_texts):
            self.problems.append("eval: repeated commands printed different "
                                 "reports")
        if self.eval_texts:
            self.check("tqdec eval", checks.check_eval_text,
                       self.eval_texts[0], ref["preds"], labels, lo, hi,
                       ref["diag"])

        out = ref["out"]
        row = {sample: i for i, sample in enumerate(ids)}
        for sample, folder in self.exports:
            i = row[sample]
            self.check(f"export-clips {sample}", checks.check_clips_csv,
                       (folder / f"{sample}_clips.csv").read_text(),
                       out["weights"][i], out["scores"][i], out["final"][i])
            for layer in range(len(out["self_out"])):
                for kind in ("self", "cross"):
                    stem = folder / f"{sample}_layer{layer + 1}_{kind}"
                    grid = tq.cli.read_map_csv(f"{stem}.csv")
                    want = reference.gram_softmax(
                        out[f"{kind}_out"][layer][i])
                    self.check(f"{stem.name}.csv", checks.check_attention_map,
                               grid, want)
                    self.check(f"{stem.name}.pgm", checks.check_pgm,
                               Path(f"{stem}.pgm").read_text(), grid)

        saved = self.dir / "resaved.tqck"
        loaded_cfg, model, adam, transform = tq.trainer.checkpoint_load(ckpt)
        tq.trainer.checkpoint_save(
            saved, loaded_cfg,
            {n: p.data for n, p in model.named_parameters().items()},
            adam, transform)
        self.check("checkpoint round trip", checks.check_round_trip,
                   ckpt.read_bytes(), saved.read_bytes(), arrays,
                   reference.read_checkpoint(saved))

    # -- metrics ----------------------------------------------------------

    def epoch_table(self) -> tuple:
        """(training seconds, epoch seconds), each an array of shape
        (train calls, epochs). An epoch runs from the end of model
        building, or of the previous epoch's evaluation, to the end of its
        own evaluation; its training part ends where that evaluation
        starts. The last evaluate of a call scores the restored best model
        and belongs to no epoch."""
        np, tr = self.np, self.tracer
        a = tr.arrays()
        parent, start, end = a["parent"], a["start"], a["end"]
        builds = tr.spans_of("trainer.build_model")
        evals = tr.spans_of("trainer.evaluate")
        training, epochs = [], []
        for t in tr.spans_of("trainer.train"):
            kids = evals[parent[evals] == t]
            kids = kids[np.argsort(start[kids])][:-1]
            prev = np.concatenate([end[builds[parent[builds] == t]],
                                   end[kids][:-1]])
            training.append(start[kids] - prev)
            epochs.append(end[kids] - prev)
        return np.array(training), np.array(epochs)

    def end_to_end(self, setup_s: float) -> dict:
        """Each timing is the fastest of its samples in the run: the host's
        speed drifts by tens of percent for seconds at a time, and the
        fastest sample depends least on how a run's time fell. A sample is
        a whole operation, or one epoch position of the train calls (epoch
        i of every call does the same work, garbage collections
        included), and the per-epoch figures sum the fastest of each
        position over a call's epochs."""
        a = self.tracer.arrays()
        train = self.tracer.spans_of("trainer.train")
        evals = self.tracer.spans_of("trainer.evaluate")
        cli_evals = evals[~self.np.isin(a["parent"][evals], train)]
        training, epochs = self.epoch_table()
        n_epochs = self.wl.epochs
        return {
            "setup_s": (setup_s, "s"),
            "train_samples_per_s": (
                n_epochs * self.wl.n_train / training.min(axis=0).sum(),
                "1/s"),
            "epoch_s": (epochs.min(axis=0).sum() / n_epochs, "s"),
            "eval_samples_per_s":
                (self.wl.n_test / float(a["dur"][cli_evals].min()), "1/s"),
            "cli_eval_s": (min(self.op_seconds["cli_eval"]), "s"),
            "export_s": (min(self.op_seconds["export"]), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def per_layer(self) -> dict:
        s = self.tracer.summary()

        def get(name, i):
            return s[name][i] if name in s else 0

        def ratio(x, y):
            return x / y if y else 0.0

        samples = get("model.Model.forward", 0)
        m = {"tensor.nodes_per_sample":
             (ratio(get("tensor.backward", 3), get("losses.mse_loss", 3)),
              "count")}

        def ms_per_call(metric, name):
            m[metric] = (ratio(1e3 * get(name, 1), get(name, 0)), "ms")

        def ms_per_sample(metric, name):
            m[metric] = (ratio(1e3 * get(name, 1), samples), "ms")

        ms_per_call("tensor.backward.ms_per_step", "tensor.backward")
        for op in TENSOR_OPS:
            name = f"tensor.{op}"
            m[f"{name}.calls_per_sample"] = (ratio(get(name, 0), samples),
                                             "count")
            ms_per_sample(f"{name}.fwd_ms_per_sample", name)
        ms_per_call("decoder.decoder_forward.ms_per_sample",
                    "decoder.decoder_forward")
        ms_per_call("decoder.multi_head_attention.ms_per_call",
                    "decoder.multi_head_attention")
        m["decoder.multi_head_attention.calls_per_sample"] = (
            ratio(get("decoder.multi_head_attention", 0), samples), "count")
        ms_per_call("losses.attention_loss.ms_per_sample",
                    "losses.attention_loss")
        ms_per_call("losses.gram_softmax.ms_per_call", "losses.gram_softmax")
        ms_per_call("losses.kl_between_maps.ms_per_call",
                    "losses.kl_between_maps")
        ms_per_call("losses.mse_loss.ms_per_step", "losses.mse_loss")
        ms_per_call("head.head_forward.ms_per_sample", "head.head_forward")
        ms_per_call("model.Model.forward.ms_per_sample", "model.Model.forward")
        m["model.Model.forward.total_ms_per_sample"] = (
            ratio(1e3 * get("model.Model.forward", 2), samples), "ms")
        ms_per_call("trainer.adam_step.ms_per_step", "trainer.adam_step")
        m["trainer.evaluate.ms_per_sample"] = (
            ratio(1e3 * get("trainer.evaluate", 1),
                  get("trainer.evaluate", 3)), "ms")
        ms_per_call("trainer.checkpoint_load.ms", "trainer.checkpoint_load")
        ms_per_call("trainer.checkpoint_save.ms", "trainer.checkpoint_save")
        ms_per_call("data.load_features.ms_per_file", "data.load_features")
        m["data.load_features.files_per_command"] = (
            ratio(self.files_under_commands(), get("cli.main", 0)), "count")
        ms_per_call("data.load_split.ms", "data.load_split")
        ms_per_call("data.gen_synthetic.ms", "data.gen_synthetic")
        ms_per_call("metrics.srcc.ms_per_call", "metrics.srcc")
        ms_per_call("metrics.diagonality.ms_per_call", "metrics.diagonality")
        ms_per_call("cli.main.ms", "cli.main")
        for cmd in ("eval", "export_clips", "export_attention"):
            ms_per_call(f"cli.{cmd}.ms", f"cli.{cmd}")
            m[f"cli.{cmd}.total_ms"] = (
                ratio(1e3 * get(f"cli.{cmd}", 2), get(f"cli.{cmd}", 0)), "ms")
        traced, untraced = self.round_seconds[1::2], self.round_seconds[0::2]
        m["trace.overhead_pct"] = (100.0 * (min(traced) / min(untraced) - 1),
                                   "%")
        return m

    def files_under_commands(self) -> int:
        """load_features calls made inside a CLI command."""
        a = self.tracer.arrays()
        names = self.tracer.names
        in_cli = self.np.zeros(len(a["name"]), dtype=bool)
        cli_id = names.index("cli.main")
        for i, (nid, p) in enumerate(zip(a["name"], a["parent"])):
            in_cli[i] = nid == cli_id or (p >= 0 and in_cli[p])
        return int(in_cli[self.tracer.spans_of("data.load_features")].sum())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tqdec" / "__init__.py").is_file():
        print(f"error: no tqdec source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    if run.dir.exists():
        shutil.rmtree(run.dir)
    run.dir.mkdir(parents=True)
    try:
        run.setup()
        setup_s = process_age()
        run.measure()
        with run.tracer.paused():
            run.verify()
        if args.trace:
            metrics = run.per_layer()
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            run.tracer.write(trace_path)
        else:
            metrics = run.end_to_end(setup_s)
    finally:
        run.tracer.uninstall()
        shutil.rmtree(run.dir, ignore_errors=True)

    for error in run.errors:
        print(f"operation failed: {error}", file=sys.stderr)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
