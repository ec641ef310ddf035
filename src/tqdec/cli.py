"""Command-line surface: dataset generation, training, evaluation,
ablation grids, and attention-map / per-clip interpretability export.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 numeric error, 5 contract violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import TrainConfig, apply_overrides, load_config
from .data import (MANIFEST_NAME, DatasetManifest, gen_synthetic,
                   load_manifest, load_sample, load_split)
from .errors import (ConfigError, ContractError, DataError, NumericError,
                     TqdecError)
from .losses import gram_softmax
from .trainer import checkpoint_load, evaluate, run_ablation, train

EXIT_CODES = {
    ConfigError: 2,
    DataError: 3,
    NumericError: 4,
    ContractError: 5,
}


# ---------------------------------------------------------------------------
# shared helpers


def _build_config(args) -> TrainConfig:
    """file values < --set overrides < --seed shortcut."""
    cfg = load_config(args.config) if args.config else TrainConfig()
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    if args.seed is not None:
        cfg = apply_overrides(cfg, [f"train.seed={args.seed}"])
    return cfg


def _load_manifest(data_dir) -> DatasetManifest:
    if data_dir is None:
        raise ConfigError("--data DIR is required for this command")
    path = Path(data_dir) / MANIFEST_NAME
    if not path.exists():
        raise DataError(f"no {MANIFEST_NAME} in {data_dir}")
    return load_manifest(path)


def _load_model_for_data(checkpoint, manifest):
    cfg, model, _, transform = checkpoint_load(checkpoint)
    if cfg.dim != manifest.d:
        raise DataError(f"checkpoint expects {cfg.dim}-dim features but "
                        f"dataset provides {manifest.d}-dim")
    return cfg, model, transform


def write_pgm(path, matrix: np.ndarray):
    """8-bit ASCII grayscale PGM; pixel = round(255 * entry / max entry)."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ContractError(f"PGM export needs a 2D map, got shape {m.shape}")
    peak = float(m.max())
    pixels = (np.zeros_like(m, dtype=np.int64) if peak <= 0.0
              else np.rint(255.0 * m / peak).astype(np.int64))
    lines = [f"P2", f"{m.shape[1]} {m.shape[0]}", "255"]
    lines += [" ".join(str(int(v)) for v in row) for row in pixels]
    Path(path).write_text("\n".join(lines) + "\n")


def write_map_csv(path, matrix: np.ndarray):
    rows = [",".join(f"{v:.17g}" for v in row) for row in np.asarray(matrix)]
    Path(path).write_text("\n".join(rows) + "\n")


def read_map_csv(path) -> np.ndarray:
    rows = [[float(c) for c in line.split(",")]
            for line in Path(path).read_text().splitlines() if line]
    return np.array(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_synth(args) -> int:
    cfg = _build_config(args)
    if args.out is None:
        raise ConfigError("gen-synth requires --out DIR")
    manifest = gen_synthetic(Path(args.out), cfg.n_train, cfg.n_test,
                             k=cfg.clips, d=cfg.dim,
                             noise_sigma=cfg.noise_sigma, seed=cfg.seed)
    print(f"wrote {len(manifest.train)} train + {len(manifest.test)} test "
          f"samples (K={cfg.clips}, d={cfg.dim}) to {manifest.root}")
    return 0


def cmd_train(args) -> int:
    cfg = _build_config(args)
    manifest = _load_manifest(args.data)
    result = train(cfg, manifest, out_dir=args.out)
    print(f"best epoch {result.best_epoch} of {cfg.epochs}")
    print(result.final_report.as_text(), end="")
    if args.out:
        print(f"wrote log.csv and best.tqck to {args.out}")
    return 0


def cmd_eval(args) -> int:
    manifest = _load_manifest(args.data)
    _, model, transform = _load_model_for_data(args.checkpoint, manifest)
    samples = load_split(manifest, args.split)
    report = evaluate(model, samples, transform)
    text = report.as_text()
    print(text, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "eval.txt").write_text(text)
    return 0


def cmd_ablate(args) -> int:
    cfg = _build_config(args)
    manifest = _load_manifest(args.data)
    grid = {}
    for spec_item in args.grid or []:
        if "=" not in spec_item:
            raise ConfigError(f"--grid expects key=v1,v2,... got {spec_item!r}")
        key, _, values = spec_item.partition("=")
        if not values:
            raise ConfigError(f"--grid {key!r} has no values")
        grid[key.strip()] = [v.strip() for v in values.split(",")]
    _, csv_text = run_ablation(cfg, grid, manifest, out_dir=args.out)
    print(csv_text, end="")
    return 0


def cmd_export_attention(args) -> int:
    manifest = _load_manifest(args.data)
    _, model, _ = _load_model_for_data(args.checkpoint, manifest)
    seq = load_sample(manifest, args.sample)
    _, trace = model.forward(seq.features, training=False)
    out = Path(args.out) if args.out else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for i in range(trace.n_layers):
        for kind, feats in (("self", trace.a_s[i]), ("cross", trace.a_c[i])):
            gram = gram_softmax(feats).data
            stem = f"{args.sample}_layer{i + 1}_{kind}"
            write_map_csv(out / f"{stem}.csv", gram)
            write_pgm(out / f"{stem}.pgm", gram)
            written.append(stem)
    print(f"wrote {len(written) * 2} files to {out}: "
          + ", ".join(written))
    return 0


def cmd_export_clips(args) -> int:
    manifest = _load_manifest(args.data)
    _, model, _ = _load_model_for_data(args.checkpoint, manifest)
    seq = load_sample(manifest, args.sample)
    assessment, _ = model.forward(seq.features, training=False)
    # one query per clip: row k is the head's (weight, score) pair for clip k
    weights = assessment.weights.data.reshape(-1)
    scores = assessment.scores.data.reshape(-1)
    final = float(assessment.final_score.data)

    lines = ["clip_index,weight,score,weight_x_score,running_total"]
    running = 0.0
    for j in range(len(weights)):
        contrib = float(weights[j] * scores[j])
        running += contrib
        lines.append(f"{j},{weights[j]:.17g},{scores[j]:.17g},"
                     f"{contrib:.17g},{running:.17g}")
    lines.append(f"total,{float(weights.sum()):.17g},,{final:.17g},"
                 f"{final:.17g}")
    text = "\n".join(lines) + "\n"

    out = Path(args.out) if args.out else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.sample}_clips.csv"
    path.write_text(text)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(sub):
    sub.add_argument("--config", help="config file (key=value with sections)")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--seed", type=int, default=None,
                     help="shortcut for --set train.seed=N (applied last)")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config value (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tqdec",
        description="Query-based temporal decoder: train and inspect "
                    "interpretable clip-level quality assessment models.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-synth", help="generate a synthetic dataset")
    _add_common(p)
    p.set_defaults(fn=cmd_gen_synth)

    p = subs.add_parser("train", help="train a model on a dataset")
    _add_common(p)
    p.add_argument("--data", help="dataset directory (with manifest.txt)")
    p.set_defaults(fn=cmd_train)

    p = subs.add_parser("eval", help="evaluate a checkpoint on a split")
    _add_common(p)
    p.add_argument("--data", help="dataset directory (with manifest.txt)")
    p.add_argument("--checkpoint", required=True, help="path to a .tqck file")
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.set_defaults(fn=cmd_eval)

    p = subs.add_parser("ablate", help="train a grid of config variants")
    _add_common(p)
    p.add_argument("--data", help="dataset directory (with manifest.txt)")
    p.add_argument("--grid", action="append", metavar="KEY=V1,V2,...",
                   help="axis of the ablation grid (repeatable)")
    p.set_defaults(fn=cmd_ablate)

    p = subs.add_parser("export-attention",
                        help="write per-layer self/cross correlation maps "
                             "as CSV + PGM")
    _add_common(p)
    p.add_argument("--data", help="dataset directory (with manifest.txt)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sample", required=True, help="sample id, e.g. s00003")
    p.set_defaults(fn=cmd_export_attention)

    p = subs.add_parser("export-clips",
                        help="write per-clip weight/score breakdown as CSV")
    _add_common(p)
    p.add_argument("--data", help="dataset directory (with manifest.txt)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sample", required=True)
    p.set_defaults(fn=cmd_export_clips)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TqdecError as exc:
        for cls, code in EXIT_CODES.items():
            if isinstance(exc, cls):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
