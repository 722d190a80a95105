"""Dense rank-4 tensors with reverse-mode automatic differentiation.

Everything is carried as (batch, height, width, channels) float32 arrays; the
finite-difference checker re-runs tapes in float64. Only the ops a small U-Net
and its losses need are implemented.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import itertools
import os
from typing import Callable, Optional, Sequence

import numpy as np

LOG_CLAMP = 1e-12
# the OpenBLAS calls fdseg makes: name -> (symbol stem, types for the build's
# integer -> (argtypes, restype))
_F, _P = ctypes.c_float, ctypes.c_void_p
_BLAS_CALLS = {
    "get_num_threads": ("openblas_", lambda i: ([], ctypes.c_int)),
    "set_num_threads": ("openblas_", lambda i: ([ctypes.c_int], None)),
    "sgemm": ("cblas_", lambda i: ([ctypes.c_int] * 3 + [i] * 3
                                   + [_F, _P, i, _P, i, _F, _P, i], None))}

_ids = itertools.count()
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block: a new node needs a gradient only if it
    is a leaf created with requires_grad=True, and keeps no parents or grad_fn,
    so what an op saved for its backward (a conv's patch matrix) is freed as
    soon as the op returns. The Tape still records every node."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


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

    Non-leaf tensors built outside `no_grad` keep references to their parents
    and a closure mapping the upstream gradient to per-parent gradients;
    `backward` on a scalar root accumulates grads additively across fan-out.
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
        self.requires_grad = bool(requires_grad) or (
            _grad_enabled and any(p.requires_grad for p in parents))
        self.grad: Optional[np.ndarray] = None
        self._parents = tuple(parents) if _grad_enabled else ()
        self._grad_fn = grad_fn if _grad_enabled else None
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


@functools.cache
def _openblas(name: str):
    """`scipy_<stem><name>` from numpy's bundled OpenBLAS (the 64-bit-int
    build's symbol first), typed from _BLAS_CALLS, or None when the library
    or symbol is missing. Looked up once per name and process."""
    stem, types = _BLAS_CALLS[name]
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix, blasint in (("64_", ctypes.c_int64), ("", ctypes.c_int)):
            fn = getattr(lib, f"scipy_{stem}{name}{suffix}", None)
            if fn is not None:
                fn.argtypes, fn.restype = types(blasint)
                return fn
    return None


def _add_shifted_products(c: np.ndarray, a: np.ndarray, kernels: np.ndarray,
                          shifts: Sequence[int]) -> None:
    """c[s:] += a[:len(a) - s] @ kernel.T for each kernel and shift s in turn,
    with a and c 2-D row matrices. When all are C-contiguous float32 and k, n
    > 1 (numpy's sgemm case), each is one OpenBLAS sgemm with beta = 1, which
    adds the product into c instead of storing it first."""
    (rows, k), n = a.shape, kernels.shape[1]
    sgemm = _openblas("sgemm")
    if sgemm is None or min(k, n) == 1 or not all(
            t.dtype == np.float32 and t.flags.c_contiguous for t in (a, kernels, c)):
        for kern, s in zip(kernels, shifts):
            c[s:] += a[:rows - s] @ kern.T
        return
    pa, pk, pc = a.ctypes.data, kernels.ctypes.data, c.ctypes.data
    for t, s in enumerate(shifts):   # row-major (101), a (111), kernel.T (112)
        sgemm(101, 111, 112, rows - s, n, k, 1.0, pa, k, pk + 4 * t * n * k, k,
              1.0, pc + 4 * s * n, n)


# -- elementwise ops ----------------------------------------------------------
# add/sub/mul/div compute no gradient for a parent that needs none (a mask or
# a constant), which backward would drop; relu, log, clamp and sqrt build the
# masks that only their backward reads inside grad_fn, so that a no_grad
# forward never builds them

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.values + b.values
    return Tensor(out, parents=(a, b), op="add", grad_fn=lambda g: (
        _unbroadcast(g, a.shape) if a.requires_grad else None,
        _unbroadcast(g, b.shape) if b.requires_grad else None))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.values - b.values
    return Tensor(out, parents=(a, b), op="sub", grad_fn=lambda g: (
        _unbroadcast(g, a.shape) if a.requires_grad else None,
        _unbroadcast(-g, b.shape) if b.requires_grad else None))


def neg(a: Tensor) -> Tensor:
    return Tensor(-a.values, parents=(a,), op="neg", grad_fn=lambda g: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.values * b.values
    return Tensor(out, parents=(a, b), op="mul", grad_fn=lambda g: (
        _unbroadcast(g * b.values, a.shape) if a.requires_grad else None,
        _unbroadcast(g * a.values, b.shape) if b.requires_grad else None))


def div(a: Tensor, b: Tensor) -> Tensor:
    # a zero divisor gives inf/NaN, which _assert_finite and the trainer report
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.values / b.values
    return Tensor(out, parents=(a, b), op="div", grad_fn=lambda g: (
        _unbroadcast(g / b.values, a.shape) if a.requires_grad else None,
        _unbroadcast(-g * a.values / (b.values ** 2), b.shape)
        if b.requires_grad else None))


def square(a: Tensor) -> Tensor:
    return Tensor(a.values ** 2, parents=(a,), op="square",
                  grad_fn=lambda g: (g * 2.0 * a.values,))


def sqrt(a: Tensor) -> Tensor:
    root = np.sqrt(np.maximum(a.values, 0.0))
    return Tensor(root, parents=(a,), op="sqrt",
                  grad_fn=lambda g: (g * 0.5 / np.maximum(root, 1e-12),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.values)
    return Tensor(out, parents=(a,), op="exp", grad_fn=lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    """Natural log with the argument clamped below at 1e-12."""
    clamped = np.maximum(a.values, LOG_CLAMP)
    return Tensor(np.log(clamped), parents=(a,), op="log", grad_fn=lambda g: (
        g * (a.values >= LOG_CLAMP).astype(a.dtype) / clamped,))


def _keep(g: np.ndarray, keep: np.ndarray,
          out: Optional[np.ndarray] = None) -> np.ndarray:
    """The bytes of np.where(keep, g, 0) for a bool keep of g's shape, into
    `out` (g's dtype) if given: g's bits and-ed with an all-ones or all-zeros
    integer of the same width. A kept element keeps its bits (-0.0, NaN, inf);
    a dropped one is +0.0. Unlike where's select, the and does not branch on
    an unpredictable mask."""
    ints = np.dtype(f"i{g.dtype.itemsize}")
    bits = np.negative(keep, dtype=ints)
    return np.bitwise_and(g.view(ints), bits, out=bits if out is None
                          else out.view(ints)).view(g.dtype)


def relu(a: Tensor) -> Tensor:
    return Tensor(np.maximum(a.values, 0), parents=(a,), op="relu",
                  grad_fn=lambda g: (_keep(g, a.values > 0),))


def sigmoid(a: Tensor) -> Tensor:
    v = a.values
    e = np.exp(-np.abs(v))
    out = np.where(v >= 0, 1.0, e) / (1.0 + e)
    return Tensor(out, parents=(a,), op="sigmoid",
                  grad_fn=lambda g: (g * out * (1.0 - out),))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    out = np.clip(a.values, lo, hi)
    return Tensor(out, parents=(a,), op="clamp", grad_fn=lambda g: (
        g * ((a.values >= lo) & (a.values <= hi)).astype(a.dtype),))


# -- reductions / structure ---------------------------------------------------

def _axes(axis) -> tuple[int, ...]:
    """A reduction's axes as a tuple: all four for None, one for an int."""
    if axis is None:
        return (0, 1, 2, 3)
    return (axis,) if isinstance(axis, int) else tuple(axis)


def tsum(a: Tensor, axis=None) -> Tensor:
    """Sum over the given axes (all by default), keeping rank 4."""
    axis = _axes(axis)
    out = a.values.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        return (np.broadcast_to(g, a.shape),)

    return Tensor(out, parents=(a,), op="sum", grad_fn=grad_fn)


def tmean(a: Tensor, axis=None) -> Tensor:
    axis = _axes(axis)
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
    hp, wp = h + 2 * ph, w + 2 * pw
    if kh == kw == 1:
        cols2d = x.values.reshape(n * h * w, cin)
    else:
        # the padded input, written once: border strips zeroed, interior copied
        xp = np.empty((n, hp, wp, cin), dtype=x.dtype)
        xp[:, :ph] = xp[:, hp - ph:] = 0
        xp[:, :, :pw] = xp[:, :, wp - pw:] = 0
        xp[:, ph:ph + h, pw:pw + w] = x.values
        # patch matrix (n*h*w, kh*kw*cin) in the kernel's (kh,kw,cin) row
        # order: one copy of the (n,h,w,kh,kw,cin) window view, or with one
        # channel a copy per offset (whole rows, not kw floats at a time)
        if cin == 1:
            cols = np.empty((n, h, w, kh, kw), dtype=x.dtype)
            for i in range(kh):
                for j in range(kw):
                    cols[..., i, j] = xp[:, i:i + h, j:j + w, 0]
        else:
            s0, s1, s2, s3 = xp.strides
            cols = np.ndarray((n, h, w, kh, kw, cin), xp.dtype, xp, 0,
                              (s0, s1, s2, s1, s2, s3))
        cols2d = cols.reshape(n * h * w, kh * kw * cin)
    kmat = kernel.values.reshape(kh * kw * cin, cout)
    out = cols2d @ kmat
    # the bias repeated along a whole output row: one add loop of w*cout
    # floats per row rather than one of cout per pixel
    rows = out.reshape(n * h, w * cout)
    rows += bias.values.repeat(w, axis=2).reshape(w * cout)
    out = out.reshape(n, h, w, cout)

    def grad_fn(g):
        g2d = g.reshape(n * h * w, cout)
        # einsum adds the rows in g.sum's order without its per-pixel inner
        # loop; one channel keeps g.sum, whose single axis is summed pairwise
        db = (np.einsum("ij->j", g2d) if cout > 1
              else g.sum(axis=(0, 1, 2))).reshape(1, 1, 1, cout)
        dk = (cols2d.T @ g2d).reshape(kh, kw, cin, cout)
        if not x.requires_grad:
            return None, dk, db
        if kh == kw == 1:
            return (g2d @ kernel.values[0, 0].T).reshape(n, h, w, cin), dk, db
        # one GEMM over cout per kernel offset, added in (i, j) order: as row
        # matrices, g's pixel (y, x) in gp shifted by i*wp + j rows is dxp's
        # (y+i, x+j), and the rows shifted out of gp are padding (zeros)
        gp = np.zeros((n, hp, wp, cout), dtype=g.dtype)
        gp[:, :h, :w] = g
        dxp = np.zeros((n, hp, wp, cin), dtype=x.dtype)
        _add_shifted_products(dxp.reshape(-1, cin), gp.reshape(-1, cout),
                              kernel.values.reshape(kh * kw, cin, cout),
                              [i * wp + j for i in range(kh) for j in range(kw)])
        dx = dxp[:, ph:ph + h, pw:pw + w, :]
        return dx, dk, db

    return Tensor(out, parents=(x, kernel, bias), op="conv2d", grad_fn=grad_fn)


def _windows(a: np.ndarray, window: int) -> list[np.ndarray]:
    """Strided views of each offset of a window x window block, in row-major
    order: view (i, j) holds a[:, i::window, j::window]."""
    return [a[:, i::window, j::window, :]
            for i in range(window) for j in range(window)]


def maxpool2d(x: Tensor, window: int = 2) -> Tensor:
    """2x2 max pooling; gradient routes to the first row-major max per window."""
    _, h, w, _ = x.shape
    if h % window != 0:
        raise DimensionError(f"height {h} not divisible by window {window}", axis="height")
    if w % window != 0:
        raise DimensionError(f"width {w} not divisible by window {window}", axis="width")
    xv = x.values
    # a copy, so that out never aliases x; on a tie np.maximum returns its
    # second argument, which keeps the earlier (row-major first) value
    out = _windows(xv, window)[0].copy()
    for view in _windows(xv, window)[1:]:
        np.maximum(view, out, out=out)

    def grad_fn(g):
        dx = np.empty_like(xv)                   # the views cover all of it
        free = np.ones(out.shape, dtype=bool)    # windows not yet routed
        for view, dview in zip(_windows(xv, window), _windows(dx, window)):
            hit = free & (view == out)
            _keep(g, hit, out=dview)
            free &= ~hit
        return (dx,)

    return Tensor(out, parents=(x,), op="maxpool2d", grad_fn=grad_fn)


def upsample_nearest(x: Tensor, factor: int = 2) -> Tensor:
    """Replicate every pixel into a factor x factor block; gradient sums the block."""
    out = x.values.repeat(factor, axis=1).repeat(factor, axis=2)

    def grad_fn(g):
        # the block's offsets added in row-major order, as numpy's sum over
        # the block axes of g's (n, h, factor, w, factor, c) reshape adds them
        # when c > 1, as it is at every upsample of the U-Net
        first, second, *rest = _windows(g, factor)
        dx = first + second
        for view in rest:
            np.add(dx, view, out=dx)
        return (dx,)

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

    numeric = central_differences(
        lambda a: f(Tensor(a.copy(), requires_grad=False)).item(), base, eps)
    return max_relative_error(analytic, numeric)


def central_differences(f: Callable[[np.ndarray], float], x: np.ndarray,
                        eps: float) -> np.ndarray:
    """(f(x + eps e_i) - f(x - eps e_i)) / 2eps for each coordinate i of x,
    moving one coordinate at a time in a float64 copy of x."""
    x = np.array(x, dtype=np.float64, order="C")
    flat, numeric = x.reshape(-1), np.zeros(x.shape)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        numeric.flat[i] = (hi - lo) / (2.0 * eps)
    return numeric


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| / (|a| + |b|), with the denominator floored at 1e-8."""
    denom = np.maximum(1e-8, np.abs(a) + np.abs(b))
    return float(np.max(np.abs(a - b) / denom))
