"""Dataset plumbing: binary clip-feature files, manifests, the synthetic
planted-structure generator, and label normalization.

Feature file layout (little-endian): magic "TQDF", version u32, L u32,
d u32, L*d float32 row-major, then optionally a section tag u32 = 1
followed by the float64 label. Parse failures report the byte offset.

The synthetic generator plants per-clip importance weights (Dirichlet)
and qualities (uniform) inside each clip feature through a fixed random
linear map, and labels each sample with the weighted quality sum, so a
model that learns the task has recoverable internal structure. Ground
truth goes to a sidecar file the feature path never exposes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataError

MAGIC = b"TQDF"
VERSION = 1
LABEL_TAG = 1


@dataclass
class FeatureSequence:
    features: np.ndarray          # (L, d) float
    label: float | None
    sample_id: str
    true_weights: np.ndarray | None = None
    true_qualities: np.ndarray | None = None


@dataclass
class DatasetManifest:
    root: Path
    d: int
    clip_count: int
    label_min: float
    label_max: float
    train: list = field(default_factory=list)   # (sample_id, relpath, label)
    test: list = field(default_factory=list)

    def entries(self, split: str) -> list:
        if split not in ("train", "test"):
            raise ConfigError(f"unknown split {split!r}")
        return self.train if split == "train" else self.test


def write_features(path, features: np.ndarray, label: float | None = None):
    features = np.asarray(features)
    if features.ndim != 2 or features.size == 0:
        raise DataError(f"feature matrix must be non-empty 2D, got {features.shape}")
    if not np.all(np.isfinite(features)):
        raise DataError("refusing to write non-finite features")
    l, d = features.shape
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<III", VERSION, l, d))
        f.write(features.astype("<f4").tobytes(order="C"))
        if label is not None:
            f.write(struct.pack("<I", LABEL_TAG))
            f.write(struct.pack("<d", float(label)))


def load_features(path, sample_id: str | None = None) -> FeatureSequence:
    path = Path(path)
    raw = path.read_bytes()

    def need(offset, n, what):
        if offset + n > len(raw):
            raise DataError(f"{path}: truncated {what} at byte {offset} "
                            f"(need {n} bytes, file has {len(raw) - offset})")

    need(0, 4, "magic")
    if raw[:4] != MAGIC:
        raise DataError(f"{path}: bad magic {raw[:4]!r} at byte 0")
    need(4, 12, "header")
    version, l, d = struct.unpack_from("<III", raw, 4)
    if version != VERSION:
        raise DataError(f"{path}: unsupported version {version} at byte 4")
    if l < 1 or d < 1:
        raise DataError(f"{path}: bad dimensions L={l}, d={d} at byte 8")
    payload = l * d * 4
    need(16, payload, "feature payload")
    feats = np.frombuffer(raw, dtype="<f4", count=l * d, offset=16)
    feats = feats.reshape(l, d).astype(np.float64)
    if not np.all(np.isfinite(feats)):
        bad = int(np.flatnonzero(~np.isfinite(feats))[0])
        raise DataError(f"{path}: non-finite feature value at byte {16 + bad * 4}")
    off = 16 + payload
    label = None
    if off < len(raw):
        need(off, 4, "section tag")
        (tag,) = struct.unpack_from("<I", raw, off)
        if tag != LABEL_TAG:
            raise DataError(f"{path}: unknown section tag {tag} at byte {off}")
        need(off + 4, 8, "label")
        (label,) = struct.unpack_from("<d", raw, off + 4)
        if off + 12 != len(raw):
            raise DataError(f"{path}: {len(raw) - off - 12} trailing bytes at byte {off + 12}")
    return FeatureSequence(features=feats, label=label,
                           sample_id=sample_id or path.stem)


def load_features_csv(path, sample_id: str | None = None) -> FeatureSequence:
    """Alternate ingestion: header row names the d columns, one clip per row."""
    path = Path(path)
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if len(lines) < 2:
        raise DataError(f"{path}: need a header and at least one feature row")
    d = len(lines[0].split(","))
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != d:
            raise DataError(f"{path}: line {i} has {len(cells)} columns, header has {d}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as e:
            raise DataError(f"{path}: line {i}: {e}") from e
    feats = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(feats)):
        raise DataError(f"{path}: non-finite feature value")
    return FeatureSequence(features=feats, label=None,
                           sample_id=sample_id or path.stem)


def write_manifest(path, manifest: DatasetManifest):
    lines = [f"# d={manifest.d}",
             f"# clip_count={manifest.clip_count}",
             f"# label_min={manifest.label_min!r}",
             f"# label_max={manifest.label_max!r}"]
    for split, entries in (("train", manifest.train), ("test", manifest.test)):
        for sample_id, relpath, label in entries:
            lines.append(f"{sample_id} {relpath} {label!r} {split}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    meta = {}
    train, test = [], []
    for lineno, ln in enumerate(path.read_text().splitlines(), start=1):
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("#"):
            body = ln[1:].strip()
            if "=" in body:
                k, v = body.split("=", 1)
                meta[k.strip()] = v.strip()
            continue
        parts = ln.split()
        if len(parts) != 4:
            raise DataError(f"{path}: line {lineno}: expected "
                            f"'id relpath label split', got {ln!r}")
        sample_id, relpath, label_s, split = parts
        try:
            label = float(label_s)
        except ValueError as e:
            raise DataError(f"{path}: line {lineno}: bad label {label_s!r}") from e
        if split == "train":
            train.append((sample_id, relpath, label))
        elif split == "test":
            test.append((sample_id, relpath, label))
        else:
            raise DataError(f"{path}: line {lineno}: unknown split {split!r}")
    for key in ("d", "clip_count", "label_min", "label_max"):
        if key not in meta:
            raise DataError(f"{path}: missing '# {key}=' metadata line")
    train_ids = {e[0] for e in train}
    overlap = train_ids & {e[0] for e in test}
    if overlap:
        raise DataError(f"{path}: samples in both splits: {sorted(overlap)[:3]}")
    return DatasetManifest(root=path.parent,
                           d=int(meta["d"]), clip_count=int(meta["clip_count"]),
                           label_min=float(meta["label_min"]),
                           label_max=float(meta["label_max"]),
                           train=train, test=test)


GROUND_TRUTH_NAME = "ground_truth.csv"
MANIFEST_NAME = "manifest.txt"


def gen_synthetic(out_dir, n_train: int, n_test: int, k: int, d: int,
                  noise_sigma: float, seed: int) -> DatasetManifest:
    """Write a planted-structure dataset and its manifest under ``out_dir``.

    Per sample: weights w ~ Dirichlet(1), qualities q ~ U[0,1]^K, clip
    feature k = W_emb @ [w_k, q_k, onehot_k] + noise, label = w . q.
    W_emb is drawn once from the same seed, so the whole dataset is a
    pure function of (sizes, noise, seed).
    """
    if k < 2 or d < 8:
        raise ConfigError(f"gen_synthetic: need K >= 2 and d >= 8, got K={k}, d={d}")
    if n_train < 1 or n_test < 0:
        raise ConfigError(f"gen_synthetic: bad split sizes {n_train}/{n_test}")
    if noise_sigma < 0:
        raise ConfigError(f"gen_synthetic: negative noise_sigma {noise_sigma}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "features").mkdir(exist_ok=True)

    rng = np.random.default_rng(seed)
    w_emb = rng.normal(size=(d, k + 2)) / np.sqrt(k + 2)

    gt_lines = ["sample_id,clip_index,weight,quality"]
    manifest = DatasetManifest(root=out_dir, d=d, clip_count=k,
                               label_min=np.inf, label_max=-np.inf)
    for i in range(n_train + n_test):
        split = "train" if i < n_train else "test"
        sample_id = f"s{i:05d}"
        w = rng.dirichlet(np.ones(k))
        q = rng.uniform(0.0, 1.0, size=k)
        basis = np.zeros((k, k + 2))
        basis[:, 0] = w
        basis[:, 1] = q
        basis[:, 2:] = np.eye(k)
        feats = basis @ w_emb.T
        if noise_sigma > 0:
            feats = feats + rng.normal(0.0, noise_sigma, size=feats.shape)
        label = float(w @ q)
        relpath = f"features/{sample_id}.tqdf"
        write_features(out_dir / relpath, feats, label)
        manifest.entries(split).append((sample_id, relpath, label))
        manifest.label_min = min(manifest.label_min, label)
        manifest.label_max = max(manifest.label_max, label)
        for ci in range(k):
            gt_lines.append(f"{sample_id},{ci},{float(w[ci])!r},{float(q[ci])!r}")

    (out_dir / GROUND_TRUTH_NAME).write_text("\n".join(gt_lines) + "\n")
    write_manifest(out_dir / MANIFEST_NAME, manifest)
    return manifest


def load_ground_truth(dataset_dir) -> dict:
    """sample_id -> (weights, qualities) from the generator's sidecar."""
    path = Path(dataset_dir) / GROUND_TRUTH_NAME
    if not path.exists():
        raise DataError(f"no ground-truth sidecar at {path}")
    per_sample: dict = {}
    lines = path.read_text().splitlines()
    for ln in lines[1:]:
        if not ln.strip():
            continue
        sample_id, ci, w, q = ln.split(",")
        per_sample.setdefault(sample_id, []).append((int(ci), float(w), float(q)))
    out = {}
    for sample_id, rows in per_sample.items():
        rows.sort()
        out[sample_id] = (np.array([r[1] for r in rows]),
                          np.array([r[2] for r in rows]))
    return out


def _load_entry(manifest: DatasetManifest, entry: tuple) -> FeatureSequence:
    """One manifest entry's features, checked against its manifest label
    and the manifest's (clip_count, d) shape."""
    sample_id, relpath, label = entry
    seq = load_features(manifest.root / relpath, sample_id=sample_id)
    if seq.label is None:
        seq.label = label
    elif abs(seq.label - label) > 1e-9:
        raise DataError(f"{sample_id}: manifest label {label} != "
                        f"file label {seq.label}")
    if seq.features.shape != (manifest.clip_count, manifest.d):
        raise DataError(
            f"{sample_id}: features {seq.features.shape} do not match "
            f"manifest ({manifest.clip_count}, {manifest.d})")
    return seq


def load_split(manifest: DatasetManifest, split: str) -> list:
    """Materialize a split as FeatureSequence objects, labels attached."""
    out = [_load_entry(manifest, entry) for entry in manifest.entries(split)]
    if not out:
        raise DataError(f"split {split!r} is empty")
    return out


def load_sample(manifest: DatasetManifest, sample_id: str) -> FeatureSequence:
    """One sample of either split by id, reading only its own file."""
    for entry in manifest.train + manifest.test:
        if entry[0] == sample_id:
            return _load_entry(manifest, entry)
    raise DataError(f"sample {sample_id!r} not found in manifest at "
                    f"{manifest.root}")


@dataclass
class LabelTransform:
    """Affine map of raw labels onto [0,1] by the training-split range."""
    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ContractError(f"label range [{self.lo}, {self.hi}] is empty")

    def normalize(self, y):
        return (np.asarray(y, dtype=np.float64) - self.lo) / (self.hi - self.lo)

    def denormalize(self, y):
        return np.asarray(y, dtype=np.float64) * (self.hi - self.lo) + self.lo


def fit_label_transform(train_labels) -> LabelTransform:
    y = np.asarray(train_labels, dtype=np.float64)
    if y.size < 2 or y.max() == y.min():
        raise ContractError("label normalization needs a non-constant train split")
    return LabelTransform(lo=float(y.min()), hi=float(y.max()))
