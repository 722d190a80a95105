"""Dense rank-4 tensors with reverse-mode automatic differentiation.

Everything is carried as (batch, height, width, channels) float32 arrays; the
finite-difference checker re-runs tapes in float64. Only the ops a small U-Net
and its losses need are implemented.
"""
from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

import numpy as np

LOG_CLAMP = 1e-12

_ids = itertools.count()


class DimensionError(ValueError):
    """Shape contract violation, naming the offending axis."""

    def __init__(self, message: str, axis: Optional[str] = None):
        super().__init__(message)
        self.axis = axis


class ContractError(ValueError):
    pass


class NonFiniteError(RuntimeError):
    """A tape node produced NaN/Inf values."""

    def __init__(self, message: str, op: str = ""):
        super().__init__(message)
        self.op = op


class Tape:
    """Ordered record of ops created while active, plus the run's seed."""

    _active: Optional["Tape"] = None

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.nodes: list[tuple[str, tuple[int, ...], int]] = []

    def __enter__(self) -> "Tape":
        Tape._active = self
        return self

    def __exit__(self, *exc) -> None:
        Tape._active = None


class Tensor:
    """Rank-4 array node in a computation graph.

    Non-leaf tensors keep references to their parents and a closure mapping the
    upstream gradient to per-parent gradients; `backward` on a scalar root
    accumulates grads additively across fan-out.
    """

    def __init__(self, values, requires_grad: bool = False,
                 parents: Sequence["Tensor"] = (),
                 grad_fn: Optional[Callable] = None, op: str = "leaf"):
        arr = np.asarray(values)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if arr.ndim != 4:
            raise DimensionError(
                f"tensor must be rank-4 (n,h,w,c), got rank {arr.ndim}", axis="rank")
        if min(arr.shape) < 1:
            raise DimensionError(f"all axes must be >= 1, got {arr.shape}")
        self.values = arr
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self.grad: Optional[np.ndarray] = None
        self._parents = tuple(parents)
        self._grad_fn = grad_fn
        self.op = op
        self.id = next(_ids)
        if Tape._active is not None:
            Tape._active.nodes.append((op, tuple(p.id for p in parents), self.id))

    # -- convenience ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def item(self) -> float:
        return float(self.values.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.values.copy(), requires_grad=False, op="detach")

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op}, grad={self.requires_grad})"

    # operator sugar; scalars become constant tensors of matching dtype
    def __add__(self, other):
        return add(self, _coerce(other, self))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _coerce(other, self))

    def __rsub__(self, other):
        return sub(_coerce(other, self), self)

    def __mul__(self, other):
        return mul(self, _coerce(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _coerce(other, self))

    def __neg__(self):
        return neg(self)

    def backward(self) -> None:
        backward(self)


def constant(value: float, dtype=np.float32) -> Tensor:
    return Tensor(np.full((1, 1, 1, 1), value, dtype=dtype), op="const")


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return constant(float(x), dtype=like.dtype)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    axes = tuple(ax for ax in range(4) if shape[ax] == 1 and g.shape[ax] != 1)
    return g.sum(axis=axes, keepdims=True)


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node.id in seen:
            continue
        seen.add(node.id)
        stack.append((node, True))
        for p in node._parents:
            if p.id not in seen and (p.requires_grad or p._parents):
                stack.append((p, False))
    return order


def backward(root: Tensor) -> None:
    """Reverse-mode sweep from a scalar root, accumulating into .grad buffers."""
    if root.shape != (1, 1, 1, 1):
        raise ContractError(f"backward root must be scalar (1,1,1,1), got {root.shape}")
    order = _toposort(root)
    root.grad = np.ones_like(root.values)
    for node in reversed(order):
        if node._grad_fn is None or node.grad is None:
            continue
        grads = node._grad_fn(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None or not parent.requires_grad:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g


# -- elementwise ops ----------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.values + b.values
    return Tensor(out, parents=(a, b), op="add",
                  grad_fn=lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.values - b.values
    return Tensor(out, parents=(a, b), op="sub",
                  grad_fn=lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def neg(a: Tensor) -> Tensor:
    return Tensor(-a.values, parents=(a,), op="neg", grad_fn=lambda g: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.values * b.values
    return Tensor(out, parents=(a, b), op="mul",
                  grad_fn=lambda g: (_unbroadcast(g * b.values, a.shape),
                                     _unbroadcast(g * a.values, b.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    # a zero divisor gives inf/NaN, which _assert_finite and the trainer report
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.values / b.values
    return Tensor(out, parents=(a, b), op="div",
                  grad_fn=lambda g: (_unbroadcast(g / b.values, a.shape),
                                     _unbroadcast(-g * a.values / (b.values ** 2), b.shape)))


def square(a: Tensor) -> Tensor:
    return Tensor(a.values ** 2, parents=(a,), op="square",
                  grad_fn=lambda g: (g * 2.0 * a.values,))


def sqrt(a: Tensor) -> Tensor:
    root = np.sqrt(np.maximum(a.values, 0.0))
    safe = np.maximum(root, 1e-12)
    return Tensor(root, parents=(a,), op="sqrt",
                  grad_fn=lambda g: (g * 0.5 / safe,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.values)
    return Tensor(out, parents=(a,), op="exp", grad_fn=lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    """Natural log with the argument clamped below at 1e-12."""
    clamped = np.maximum(a.values, LOG_CLAMP)
    mask = (a.values >= LOG_CLAMP).astype(a.dtype)
    return Tensor(np.log(clamped), parents=(a,), op="log",
                  grad_fn=lambda g: (g * mask / clamped,))


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0
    return Tensor(np.maximum(a.values, 0), parents=(a,), op="relu",
                  grad_fn=lambda g: (np.where(mask, g, 0),))


def sigmoid(a: Tensor) -> Tensor:
    v = a.values
    e = np.exp(-np.abs(v))
    out = np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return Tensor(out, parents=(a,), op="sigmoid",
                  grad_fn=lambda g: (g * out * (1.0 - out),))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    out = np.clip(a.values, lo, hi)
    mask = ((a.values >= lo) & (a.values <= hi)).astype(a.dtype)
    return Tensor(out, parents=(a,), op="clamp", grad_fn=lambda g: (g * mask,))


# -- reductions / structure ---------------------------------------------------

def tsum(a: Tensor, axis=None) -> Tensor:
    """Sum over the given axes (all by default), keeping rank 4."""
    if axis is None:
        axis = (0, 1, 2, 3)
    elif isinstance(axis, int):
        axis = (axis,)
    axis = tuple(axis)
    out = a.values.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        return (np.broadcast_to(g, a.shape),)

    return Tensor(out, parents=(a,), op="sum", grad_fn=grad_fn)


def tmean(a: Tensor, axis=None) -> Tensor:
    if axis is None:
        axis = (0, 1, 2, 3)
    elif isinstance(axis, int):
        axis = (axis,)
    count = float(np.prod([a.shape[ax] for ax in axis]))
    return tsum(a, axis) * (1.0 / count)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[:3] != b.shape[:3]:
        raise DimensionError(
            f"concat requires matching (n,h,w), got {a.shape} vs {b.shape}", axis="spatial")
    out = np.concatenate([a.values, b.values], axis=3)
    ca = a.shape[3]
    return Tensor(out, parents=(a, b), op="concat",
                  grad_fn=lambda g: (g[..., :ca], g[..., ca:]))


def index_batch(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather along the batch axis; gradient scatter-adds back."""
    idx = np.asarray(idx, dtype=np.int64)
    out = a.values[idx]

    def grad_fn(g):
        buf = np.zeros_like(a.values)
        np.add.at(buf, idx, g)
        return (buf,)

    return Tensor(out, parents=(a,), op="index_batch", grad_fn=grad_fn)


# -- spatial ops --------------------------------------------------------------

def conv2d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Same-padded 2D convolution; kernel (kh,kw,cin,cout), bias (1,1,1,cout)."""
    kh, kw, cin, cout = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise DimensionError(f"kernel spatial dims must be odd, got {kh}x{kw}",
                             axis="kernel")
    n, h, w, c = x.shape
    if c != cin:
        raise DimensionError(
            f"input has {c} channels but kernel expects {cin}", axis="channels")
    if bias.shape != (1, 1, 1, cout):
        raise DimensionError(
            f"bias must have shape (1,1,1,{cout}), got {bias.shape}", axis="channels")
    ph, pw = kh // 2, kw // 2
    if kh == kw == 1:
        cols2d = x.values.reshape(n * h * w, cin)
    else:
        xp = np.zeros((n, h + 2 * ph, w + 2 * pw, cin), dtype=x.dtype)
        xp[:, ph:ph + h, pw:pw + w, :] = x.values
        # patch matrix (n*h*w, kh*kw*cin): one copy of the (n,h,w,cin,kh,kw)
        # window view, reordered to match the (kh,kw,cin,cout) kernel layout
        win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
        cols2d = win.transpose(0, 1, 2, 4, 5, 3).reshape(n * h * w, kh * kw * cin)
    kmat = kernel.values.reshape(kh * kw * cin, cout)
    out = (cols2d @ kmat).reshape(n, h, w, cout) + bias.values

    def grad_fn(g):
        g2d = g.reshape(n * h * w, cout)
        db = g.sum(axis=(0, 1, 2)).reshape(1, 1, 1, cout)
        dk = (cols2d.T @ g2d).reshape(kh, kw, cin, cout)
        if not x.requires_grad:
            return None, dk, db
        # one GEMM over cout per kernel offset, scattered in (i, j) order
        dxp = np.zeros((n, h + 2 * ph, w + 2 * pw, cin), dtype=x.dtype)
        for i in range(kh):
            for j in range(kw):
                dxp[:, i:i + h, j:j + w, :] += (
                    g2d @ kernel.values[i, j].T).reshape(n, h, w, cin)
        dx = dxp[:, ph:ph + h, pw:pw + w, :]
        return dx, dk, db

    return Tensor(out, parents=(x, kernel, bias), op="conv2d", grad_fn=grad_fn)


def maxpool2d(x: Tensor, window: int = 2) -> Tensor:
    """2x2 max pooling; gradient routes to the first row-major argmax per window."""
    n, h, w, c = x.shape
    if h % window != 0:
        raise DimensionError(f"height {h} not divisible by window {window}", axis="height")
    if w % window != 0:
        raise DimensionError(f"width {w} not divisible by window {window}", axis="width")
    h2, w2 = h // window, w // window
    blocks = x.values.reshape(n, h2, window, w2, window, c).transpose(0, 1, 3, 2, 4, 5)
    flat = blocks.reshape(n, h2, w2, window * window, c)
    arg = flat.argmax(axis=3)  # first max in row-major scan order
    out = np.take_along_axis(flat, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :]

    def grad_fn(g):
        dflat = np.zeros_like(flat)
        np.put_along_axis(dflat, arg[:, :, :, None, :], g[:, :, :, None, :], axis=3)
        dx = dflat.reshape(n, h2, w2, window, window, c).transpose(0, 1, 3, 2, 4, 5)
        return (dx.reshape(n, h, w, c),)

    return Tensor(out, parents=(x,), op="maxpool2d", grad_fn=grad_fn)


def upsample_nearest(x: Tensor, factor: int = 2) -> Tensor:
    """Replicate every pixel into a factor x factor block; gradient sums the block."""
    n, h, w, c = x.shape
    out = x.values.repeat(factor, axis=1).repeat(factor, axis=2)

    def grad_fn(g):
        return (g.reshape(n, h, factor, w, factor, c).sum(axis=(2, 4)),)

    return Tensor(out, parents=(x,), op="upsample_nearest", grad_fn=grad_fn)


# -- gradient checking --------------------------------------------------------

def _assert_finite(root: Tensor) -> None:
    for node in _toposort(root):
        if not np.all(np.isfinite(node.values)):
            raise NonFiniteError(f"non-finite values in op '{node.op}' (id {node.id})",
                                 op=node.op)


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-3) -> float:
    """Max relative error between analytic and central-difference gradients.

    The tape is re-run in float64; the reference path is plain re-evaluation of f
    at perturbed coordinates, fully independent of the analytic sweep.
    """
    base = x.values.astype(np.float64)
    x64 = Tensor(base.copy(), requires_grad=True)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = f(x64)   # a non-finite node raises NonFiniteError below
    if out.shape != (1, 1, 1, 1):
        raise ContractError("grad_check target must produce a scalar")
    _assert_finite(out)
    backward(out)
    analytic = np.zeros_like(base) if x64.grad is None else x64.grad

    numeric = np.zeros_like(base)
    flat = base.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(Tensor(base.copy(), requires_grad=False)).item()
        flat[i] = orig - eps
        lo = f(Tensor(base.copy(), requires_grad=False)).item()
        flat[i] = orig
        num_flat[i] = (hi - lo) / (2.0 * eps)

    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))
