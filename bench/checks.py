"""Output checks: each compares one program output with the plain-numpy
reference or with a property the method guarantees, and raises
``CheckFailed`` on a mismatch. They take plain values (arrays, text,
bytes), so the benchmark's tests can hand them deliberately wrong
outputs.
"""

from __future__ import annotations

import numpy as np

import reference

# float64 agreement between the tape and the reference: both compute the
# same sums in a different order, so differences sit near 1e-14.
VALUE_TOL = 1e-9
# central-difference step and tolerances for the directional derivative:
# truncation error is O(eps^2) and round-off O(1e-16 / eps). The absolute
# part, scaled by the gradient norm, covers directions nearly orthogonal
# to the gradient, where the derivative itself is close to zero.
FD_EPS = 1e-5
FD_RTOL = 1e-5
FD_ATOL = 1e-8
# `tqdec eval` prints metrics with six decimals.
PRINT_TOL = 5e-7 + 1e-12


class CheckFailed(AssertionError):
    """An output of the program disagrees with the reference."""


def _close(a, b, tol=VALUE_TOL) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


def random_direction(params: dict, seed: int) -> dict:
    """A unit-norm direction over all parameters, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    direction = {n: rng.standard_normal(np.shape(params[n]))
                 for n in sorted(params)}
    norm = np.sqrt(sum(float((v * v).sum()) for v in direction.values()))
    return {n: v / norm for n, v in direction.items()}


def check_gradient(params: dict, grads: dict, tape_loss: float, loss_fn,
                   seed: int) -> float:
    """Tape loss and its gradient along a seeded direction against the
    reference loss and its central difference. Returns the relative
    error of the directional derivative."""
    ref = loss_fn(params)
    if not _close(tape_loss, ref):
        raise CheckFailed(f"tape loss {tape_loss!r} != reference loss {ref!r}")
    direction = random_direction(params, seed)
    analytic = sum(float((grads[n] * v).sum()) for n, v in direction.items())
    plus = loss_fn({n: params[n] + FD_EPS * v for n, v in direction.items()})
    minus = loss_fn({n: params[n] - FD_EPS * v for n, v in direction.items()})
    numeric = (plus - minus) / (2.0 * FD_EPS)
    grad_norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    gap = abs(analytic - numeric)
    err = gap / max(abs(analytic), abs(numeric), 1e-300)
    if not gap <= FD_RTOL * max(abs(analytic), abs(numeric)) \
            + FD_ATOL * grad_norm:
        raise CheckFailed(f"directional derivative: tape {analytic!r}, "
                          f"central difference {numeric!r} (rel err {err:.2e})")
    return err


def check_training_log(log_rows: list, lambda_reg: float = 1.0,
                       lambda_att: float = 1.0):
    """Every logged loss is finite; the last epoch's mean total loss is
    below the first's. Rows are ``epoch,loss_reg,loss_att,...``."""
    if len(log_rows) < 2:
        raise CheckFailed(f"need at least two epochs, log has {len(log_rows)}")
    totals = []
    for row in log_rows:
        reg, att = (float(c) for c in row.split(",")[1:3])
        if not (np.isfinite(reg) and np.isfinite(att)):
            raise CheckFailed(f"non-finite loss in log row {row!r}")
        totals.append(lambda_reg * reg + lambda_att * att)
    if not totals[-1] < totals[0]:
        raise CheckFailed(f"total loss did not fall: epoch 1 {totals[0]!r}, "
                          f"epoch {len(totals)} {totals[-1]!r}")


def expected_report(preds: np.ndarray, targets: np.ndarray, lo: float,
                    hi: float) -> tuple:
    """SRCC (scipy) and relative L2 (label range of the train split)."""
    # imported here so that scipy's import time stays out of set-up time
    from scipy.stats import spearmanr
    rho = float(spearmanr(preds, targets).statistic)
    rl2 = float(np.mean(((np.asarray(preds) - targets) / (hi - lo)) ** 2))
    return rho, rl2


def check_report(srcc: float, rl2: float, preds: np.ndarray,
                 targets: np.ndarray, lo: float, hi: float, tol=VALUE_TOL):
    """An evaluation's SRCC and R-L2 against values recomputed from
    reference predictions."""
    rho, rl2_ref = expected_report(preds, targets, lo, hi)
    if not _close(srcc, rho, tol):
        raise CheckFailed(f"srcc {srcc!r} != reference {rho!r}")
    if not _close(rl2, rl2_ref, tol):
        raise CheckFailed(f"rl2 {rl2!r} != reference {rl2_ref!r}")


def parse_eval_text(text: str) -> dict:
    """``key=value`` lines printed by ``tqdec eval``."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = float(value)
    return out


def check_eval_text(text: str, preds: np.ndarray, targets: np.ndarray,
                    lo: float, hi: float, diag_by_layer):
    """The printed SRCC, R-L2 x100 and per-layer diagonality of
    ``tqdec eval`` against the reference, to the printed precision."""
    got = parse_eval_text(text)
    needed = ["n_samples", "srcc", "rl2_x100"] + [
        f"diag_layer{i}" for i in range(1, len(diag_by_layer) + 1)]
    missing = [k for k in needed if k not in got]
    if missing:
        raise CheckFailed(f"eval output lacks {missing}: {text!r}")
    if got["n_samples"] != len(targets):
        raise CheckFailed(f"eval scored {got['n_samples']} samples, "
                          f"split has {len(targets)}")
    check_report(got["srcc"], got["rl2_x100"] / 100.0, preds, targets, lo,
                 hi, tol=PRINT_TOL)
    for i, want in enumerate(diag_by_layer, start=1):
        if abs(got[f"diag_layer{i}"] - want) > PRINT_TOL:
            raise CheckFailed(f"diag_layer{i} {got[f'diag_layer{i}']!r} != "
                              f"reference {want!r}")


def check_clips_csv(text: str, weights: np.ndarray, scores: np.ndarray,
                    final: float):
    """``export-clips`` table: weights on the simplex, each row equal to
    the reference clip, and the totals row equal to sum(weight * score)
    and to the reference final score."""
    lines = text.strip().splitlines()
    if lines[0] != "clip_index,weight,score,weight_x_score,running_total":
        raise CheckFailed(f"unexpected clips header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:-1]]
    total = lines[-1].split(",")
    if len(rows) != len(weights) or total[0] != "total":
        raise CheckFailed(f"clips table has {len(rows)} rows and last row "
                          f"{lines[-1]!r}; expected {len(weights)} + total")
    idx = [int(r[0]) for r in rows]
    w, s, ws = (np.array([float(r[c]) for r in rows]) for c in (1, 2, 3))
    if idx != list(range(len(weights))):
        raise CheckFailed(f"clip indices out of order: {idx}")
    if np.any(w < 0.0) or abs(w.sum() - 1.0) > VALUE_TOL:
        raise CheckFailed(f"clip weights off the simplex (sum {w.sum()!r})")
    if not (_close(w, weights) and _close(s, scores) and _close(ws, w * s)):
        raise CheckFailed("clip rows differ from the reference weights/scores")
    final_row = float(total[3])
    if not (_close(final_row, (w * s).sum()) and _close(final_row, final)
            and _close(float(total[1]), 1.0)):
        raise CheckFailed(f"totals row {lines[-1]!r} != sum(weight*score) "
                          f"{(w * s).sum()!r} / reference {final!r}")


def check_attention_map(matrix: np.ndarray, expected: np.ndarray):
    """An exported Gram-softmax map: row-stochastic and equal to the
    reference map."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape != expected.shape:
        raise CheckFailed(f"map shape {m.shape} != {expected.shape}")
    if np.any(m < 0.0) or not np.all(np.abs(m.sum(axis=1) - 1.0) <= VALUE_TOL):
        raise CheckFailed("exported map is not row-stochastic")
    if not np.all(np.abs(m - expected) <= VALUE_TOL):
        raise CheckFailed(f"exported map differs from the reference by "
                          f"{np.abs(m - expected).max():.3e}")


def check_pgm(text: str, matrix: np.ndarray):
    """The PGM image is round(255 * entry / max entry) of its CSV map."""
    tokens = text.split()
    if tokens[0] != "P2" or [int(t) for t in tokens[1:4]] != \
            [matrix.shape[1], matrix.shape[0], 255]:
        raise CheckFailed(f"bad PGM header {tokens[:4]}")
    pixels = np.array([int(t) for t in tokens[4:]]).reshape(matrix.shape)
    if not np.array_equal(pixels, np.rint(255.0 * matrix / matrix.max())):
        raise CheckFailed("PGM pixels differ from its map")


def check_round_trip(original: bytes, resaved: bytes, arrays: dict,
                     reloaded: dict):
    """Load -> save reproduces the checkpoint byte for byte and every
    array bit for bit."""
    if set(arrays) != set(reloaded):
        raise CheckFailed("round trip changed the array names")
    for name, arr in arrays.items():
        if arr.shape != reloaded[name].shape or \
                arr.tobytes() != reloaded[name].tobytes():
            raise CheckFailed(f"array {name!r} changed in the round trip")
    if original != resaved:
        raise CheckFailed("re-saved checkpoint differs from the original "
                          f"({len(original)} vs {len(resaved)} bytes)")


def reference_eval(params: dict, features: np.ndarray, heads: int,
                   lo: float, hi: float) -> dict:
    """Reference predictions (label units) and per-layer mean
    self-map diagonality for a stack of samples."""
    out = reference.forward(params, features, heads)
    diag = [float(reference.diagonality(reference.gram_softmax(s)).mean())
            for s in out["self_out"]]
    return {"preds": out["final"] * (hi - lo) + lo, "diag": diag, "out": out}
