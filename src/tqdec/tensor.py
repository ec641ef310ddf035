"""Dense float64 tensors with tape-based reverse-mode differentiation.

Define-by-run: every operation records its parents and a backward
closure on the output node, and ``backward()`` replays the tape in
reverse topological order, passing each closure its node's gradient.
No closure refers to its own output node, so a dropped graph is freed
by reference counting alone, not left for the cycle collector.

Every op is rank-generic over leading batch axes: a (K, d) operand is
one sample and a (B, K, d) operand is a batch of B. ``matmul``
multiplies over the last two axes, and a 2D right operand (a weight) is
shared by the whole batch; ``transpose`` swaps the last two axes; and
``add`` broadcasts an operand whose shape is a suffix of the other's (a
bias over rows, one query bank over a batch), summing its gradient back
over the broadcast axes. The other binary ops need equal shapes.
float64 only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

LAYER_NORM_EPS = 1e-5
LOG_CLAMP = 1e-12


class Tensor:
    """A node in the computation graph.

    ``data`` is a float64 ndarray, ``grad`` is allocated lazily by the
    backward pass and has the same shape. Leaves created with
    ``requires_grad=True`` are the trainable parameters; interior nodes
    require grad whenever any parent does.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_op", "_backward_ran", "__weakref__")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _op: str = "leaf"):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._op = _op
        self._backward_ran = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        # The tape never writes into a gradient array, so the first one
        # is kept as is (read-only broadcast views are copied).
        if self.grad is None:
            self.grad = g if g.flags.writeable else g.copy()
        else:
            self.grad = self.grad + g

    def backward(self):
        backward(self)

    # light operator sugar; the module-level functions are the real API
    def __add__(self, other):
        return add(self, other if isinstance(other, Tensor) else Tensor(other))

    def __sub__(self, other):
        return sub(self, other if isinstance(other, Tensor) else Tensor(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)


def _result(data: np.ndarray, parents: Sequence[Tensor], op: str) -> Tensor:
    requires = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=requires, _parents=tuple(parents), _op=op)


def topo_order(root: Tensor) -> list[Tensor]:
    """Reverse-topological evaluation order; each reachable node once."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))
    return order


def backward(loss: Tensor):
    """Populate ``grad`` on every requires_grad node reachable from ``loss``.

    ``loss`` must hold a single element. A second call on the same node
    is rejected; rebuild the graph (or zero grads and rerun the forward
    pass) instead of reusing a consumed tape.
    """
    if loss.data.size != 1:
        raise ContractError(
            f"backward needs a scalar loss, got shape {loss.data.shape}")
    if loss._backward_ran:
        raise ContractError("backward already ran on this node; "
                            "rebuild the graph before differentiating again")
    loss._backward_ran = True
    order = topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


# ---------------------------------------------------------------------------
# primitive operations


def _check_finite(arr: np.ndarray, op: str):
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{op}: non-finite input")


def _is_suffix(short: tuple, full: tuple) -> bool:
    return len(short) <= len(full) and full[len(full) - len(short):] == short


def _sum_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` over the leading axes it has beyond ``shape``."""
    extra = g.ndim - len(shape)
    return g.sum(axis=tuple(range(extra))) if extra else g


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum. An operand whose shape is a suffix of the other's
    is broadcast over the leading axes (a bias over rows, one query bank
    over a batch); its gradient is summed back over those axes."""
    sa, sb = a.data.shape, b.data.shape
    if not (_is_suffix(sa, sb) or _is_suffix(sb, sa)):
        raise DimensionError(f"add: shapes {sa} and {sb} differ")
    out = _result(a.data + b.data, (a, b), "add")

    def _bw(g):
        if a.requires_grad:
            a._accumulate(_sum_to(g, sa))
        if b.requires_grad:
            b._accumulate(_sum_to(g, sb))
    out._backward_fn = _bw
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"sub: shapes {a.data.shape} and {b.data.shape} differ")
    out = _result(a.data - b.data, (a, b), "sub")

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)
    out._backward_fn = _bw
    return out


def neg(a: Tensor) -> Tensor:
    out = _result(-a.data, (a,), "neg")

    def _bw(g):
        if a.requires_grad:
            a._accumulate(-g)
    out._backward_fn = _bw
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product, shapes must match exactly."""
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul: shapes {a.data.shape} and {b.data.shape} differ")
    out = _result(a.data * b.data, (a, b), "mul")

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)
    out._backward_fn = _bw
    return out


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = _result(a.data * s, (a,), "scale")

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g * s)
    out._backward_fn = _bw
    return out


def hadamard_const(a: Tensor, mask: np.ndarray) -> Tensor:
    """Multiply by a constant array (dropout masks); no grad into the mask."""
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != a.data.shape:
        raise DimensionError(
            f"hadamard_const: shapes {a.data.shape} and {mask.shape} differ")
    out = _result(a.data * mask, (a,), "hadamard_const")

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g * mask)
    out._backward_fn = _bw
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., n, k) @ (k, m), the 2D right operand shared by every batch
    element, or (..., n, k) @ (..., k, m) over equal leading axes."""
    sa, sb = a.data.shape, b.data.shape
    if len(sa) < 2 or len(sb) < 2:
        raise DimensionError(f"matmul needs operands of rank >= 2, got {sa} and {sb}")
    if sa[-1] != sb[-2]:
        raise DimensionError(f"matmul: inner dimensions differ, {sa} @ {sb}")
    shared = len(sb) == 2
    if not shared and sa[:-2] != sb[:-2]:
        raise DimensionError(f"matmul: batch axes differ, {sa} @ {sb}")
    k, m = sb[-2:]
    if shared:      # one BLAS call over all rows of the batch
        data = (a.data.reshape(-1, k) @ b.data).reshape(sa[:-1] + (m,))
    else:
        data = a.data @ b.data
    out = _result(data, (a, b), "matmul")

    def _bw(g):
        if shared:
            rows = g.reshape(-1, m)
            if a.requires_grad:
                a._accumulate((rows @ b.data.T).reshape(sa))
            if b.requires_grad:
                b._accumulate(a.data.reshape(-1, k).T @ rows)
        else:
            if a.requires_grad:
                a._accumulate(g @ np.swapaxes(b.data, -1, -2))
            if b.requires_grad:
                b._accumulate(np.swapaxes(a.data, -1, -2) @ g)
    out._backward_fn = _bw
    return out


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise DimensionError(f"transpose needs rank >= 2, got {a.data.shape}")
    out = _result(np.swapaxes(a.data, -1, -2).copy(), (a,), "transpose")

    def _bw(g):
        if a.requires_grad:
            a._accumulate(np.swapaxes(g, -1, -2))
    out._backward_fn = _bw
    return out


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.data.size:
        raise DimensionError(f"reshape: cannot view {a.data.shape} as {shape}")
    out = _result(a.data.reshape(shape).copy(), (a,), "reshape")

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))
    out._backward_fn = _bw
    return out


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ContractError("concat: empty input list")
    datas = [p.data for p in parts]
    ndim = datas[0].ndim
    for d in datas:
        if d.ndim != ndim:
            raise DimensionError(
                f"concat: rank mismatch {[x.shape for x in datas]}")
    out = _result(np.concatenate(datas, axis=axis), tuple(parts), "concat")
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def _bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * ndim
                idx[axis] = slice(lo, hi)
                p._accumulate(g[tuple(idx)])
    out._backward_fn = _bw
    return out


def tsum(a: Tensor, axis: int | tuple | None = None) -> Tensor:
    """Sum over ``axis`` (an int or a tuple of ints), or over everything."""
    out = _result(a.data.sum(axis=axis), (a,), "sum")

    def _bw(g):
        if a.requires_grad:
            if axis is not None:
                g = np.expand_dims(g, axis=axis)
            a._accumulate(np.broadcast_to(g, a.data.shape))
    out._backward_fn = _bw
    return out


def mean(a: Tensor) -> Tensor:
    """Mean over all elements, returns a scalar node."""
    return scale(tsum(a), 1.0 / a.data.size)


def relu(a: Tensor) -> Tensor:
    out = _result(np.maximum(a.data, 0.0), (a,), "relu")

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0.0))
    out._backward_fn = _bw
    return out


def sigmoid(a: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-a.data))
    out = _result(y, (a,), "sigmoid")

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g * y * (1.0 - y))
    out._backward_fn = _bw
    return out


def softmax(a: Tensor, axis: int) -> Tensor:
    """Stabilized softmax along ``axis``; slices sum to 1."""
    _check_finite(a.data, "softmax")
    if not -a.data.ndim <= axis < a.data.ndim:
        raise DimensionError(f"softmax: axis {axis} invalid for shape {a.data.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = _result(y, (a,), "softmax")

    def _bw(g):
        if a.requires_grad:
            inner = (g * y).sum(axis=axis, keepdims=True)
            a._accumulate(y * (g - inner))
    out._backward_fn = _bw
    return out


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise NumericError("log: non-positive input, clamp first")
    out = _result(np.log(a.data), (a,), "log")

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g / a.data)
    out._backward_fn = _bw
    return out


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor); gradient passes only through unclamped entries."""
    floor = float(floor)
    out = _result(np.maximum(a.data, floor), (a,), "clamp_min")

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > floor))
    out._backward_fn = _bw
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               eps: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then scale+shift;
    the gain and bias gradients sum over every leading axis."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/bias must be ({d},), got {gain.data.shape} and {bias.data.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = _result(xhat * gain.data + bias.data, (x, gain, bias), "layer_norm")

    def _bw(g):
        if gain.requires_grad:
            gain._accumulate(_sum_to(g * xhat, (d,)))
        if bias.requires_grad:
            bias._accumulate(_sum_to(g, (d,)))
        if x.requires_grad:
            gy = g * gain.data
            term = gy - gy.mean(axis=-1, keepdims=True) \
                - xhat * (gy * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(term * inv)
    out._backward_fn = _bw
    return out


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    n_checked: int
    worst_index: tuple | None = None


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor,
               eps: float = 1e-5, tol: float = 1e-5,
               max_checks: int | None = None,
               rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare the tape gradient of ``f`` at ``x`` against central differences.

    ``f`` must rebuild its graph on every call. Relative error per
    coordinate is |analytic - numeric| / max(1, |analytic|, |numeric|);
    the report carries the max. ``max_checks`` limits the check to a
    random coordinate subset (for expensive f).
    """
    if eps <= 0:
        raise ContractError("grad_check: eps must be positive")
    x.requires_grad = True
    x.zero_grad()
    out = f(x)
    backward(out)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    flat = x.data.reshape(-1)
    idxs = np.arange(flat.size)
    if max_checks is not None and max_checks < flat.size:
        rng = rng if rng is not None else np.random.default_rng(0)
        idxs = rng.choice(flat.size, size=max_checks, replace=False)

    max_err = 0.0
    worst = None
    a_flat = analytic.reshape(-1)
    for i in idxs:
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = float(f(x).data.reshape(-1)[0])
        flat[i] = orig - eps
        f_minus = float(f(x).data.reshape(-1)[0])
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * eps)
        err = abs(a_flat[i] - numeric) / max(1.0, abs(a_flat[i]), abs(numeric))
        if err > max_err:
            max_err = err
            worst = np.unravel_index(i, x.data.shape)
    return GradCheckReport(max_rel_err=max_err, passed=max_err < tol,
                           n_checked=len(idxs), worst_index=worst)
