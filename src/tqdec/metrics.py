"""Evaluation metrics: rank correlation, relative squared error, map diagonality.

Pure numpy on plain arrays; nothing here touches the autodiff tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank positions."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        # positions i..j (0-based) share the average 1-based rank
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def srcc(pred: np.ndarray, target: np.ndarray) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 1:
        raise DimensionError(
            f"srcc: need equal-length 1D arrays, got {pred.shape} and {target.shape}")
    if len(pred) < 2:
        raise ContractError("srcc: need at least 2 samples")
    rp = average_ranks(pred)
    rt = average_ranks(target)
    rp_c = rp - rp.mean()
    rt_c = rt - rt.mean()
    denom = np.sqrt((rp_c ** 2).sum() * (rt_c ** 2).sum())
    if denom == 0.0:
        raise ContractError("srcc: undefined when an input is constant")
    return float((rp_c * rt_c).sum() / denom)


def relative_l2(pred: np.ndarray, target: np.ndarray,
                lo: float | None = None, hi: float | None = None) -> float:
    """Mean of squared errors normalized by the label range.

    ``lo``/``hi`` fix the range externally (e.g. from the training
    split); by default the range of ``target`` is used.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 1:
        raise DimensionError(
            f"relative_l2: need equal-length 1D arrays, got {pred.shape} and {target.shape}")
    lo = float(target.min()) if lo is None else float(lo)
    hi = float(target.max()) if hi is None else float(hi)
    if hi <= lo:
        raise ContractError(f"relative_l2: empty label range [{lo}, {hi}]")
    return float(np.mean((np.abs(pred - target) / (hi - lo)) ** 2))


def diagonality(m: np.ndarray) -> float:
    """Mean diagonal mass of a row-stochastic square map, or of a stack
    of them (..., K, K) averaged over the stack; 1/K is chance."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise DimensionError(f"diagonality: need square maps, got {m.shape}")
    if not np.allclose(m.sum(axis=-1), 1.0, atol=1e-6):
        raise ContractError("diagonality: rows must sum to 1")
    return float(np.mean(np.diagonal(m, axis1=-2, axis2=-1)))


@dataclass
class EvalReport:
    srcc: float
    rl2: float
    n_samples: int
    diagonality_by_layer: list = field(default_factory=list)

    def as_text(self) -> str:
        lines = [f"n_samples={self.n_samples}",
                 f"srcc={self.srcc:.6f}",
                 f"rl2_x100={self.rl2 * 100.0:.6f}"]
        for i, d in enumerate(self.diagonality_by_layer, start=1):
            lines.append(f"diag_layer{i}={d:.6f}")
        return "\n".join(lines) + "\n"

    def as_csv_row(self) -> str:
        cells = [f"{self.srcc:.10g}", f"{self.rl2 * 100.0:.10g}"]
        cells += [f"{d:.10g}" for d in self.diagonality_by_layer]
        return ",".join(cells)
