"""Unit tests for the autodiff core.

Every differentiable op is checked against either a hand-written direct
oracle (convolution, pooling) or central finite differences via grad_check.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fdseg import tensor
from fdseg.tensor import (ContractError, DimensionError, NonFiniteError, Tape,
                          Tensor, add, backward, clamp, concat_channels,
                          constant, conv2d, div, exp, grad_check, index_batch,
                          log, maxpool2d, mul, no_grad, relu, sigmoid, sqrt,
                          square, sub, tsum, tmean, upsample_nearest)
from fdseg.trainer import blas_threads, set_blas_threads
from fdseg.unet import UNetConfig, _conv_layers, init_params


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(lo, hi, size=shape).astype(np.float32),
                  requires_grad=True)


# -- construction contracts ----------------------------------------------------

def test_rank4_enforced():
    with pytest.raises(DimensionError):
        Tensor(np.zeros((3, 3)))


def test_scalar_item():
    t = Tensor(np.full((1, 1, 1, 1), 2.5))
    assert t.item() == 2.5


# -- conv2d ---------------------------------------------------------------------

def test_conv2d_identity_kernel():
    x = rand((2, 4, 4, 1), seed=1)
    k = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
    b = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32))
    out = conv2d(x, k, b)
    np.testing.assert_array_equal(out.values, x.values)


def test_conv2d_zero_kernel():
    x = rand((1, 4, 4, 2), seed=2)
    k = Tensor(np.zeros((3, 3, 2, 3), dtype=np.float32))
    b = Tensor(np.zeros((1, 1, 1, 3), dtype=np.float32))
    out = conv2d(x, k, b)
    assert np.all(out.values == 0)


def direct_conv(x, k, b):
    """Loop-by-loop same-padding convolution, written independently of the
    vectorized implementation."""
    n, h, w, cin = x.shape
    kh, kw, _, cout = k.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros((n, h, w, cout))
    for ni in range(n):
        for i in range(h):
            for j in range(w):
                for co in range(cout):
                    acc = 0.0
                    for di in range(kh):
                        for dj in range(kw):
                            ii, jj = i + di - ph, j + dj - pw
                            if 0 <= ii < h and 0 <= jj < w:
                                for ci in range(cin):
                                    acc += x[ni, ii, jj, ci] * k[di, dj, ci, co]
                    out[ni, i, j, co] = acc + b[0, 0, 0, co]
    return out


def test_conv2d_matches_direct_oracle():
    x = rand((1, 4, 4, 1), seed=3)
    k = rand((3, 3, 1, 2), seed=4)
    b = rand((1, 1, 1, 2), seed=5)
    out = conv2d(x, k, b)
    expected = direct_conv(x.values, k.values, b.values)
    np.testing.assert_allclose(out.values, expected, rtol=1e-5, atol=1e-6)


def test_conv2d_channel_mismatch():
    x = rand((1, 4, 4, 2))
    k = rand((3, 3, 1, 2))
    b = rand((1, 1, 1, 2))
    with pytest.raises(DimensionError):
        conv2d(x, k, b)


def test_conv2d_grad_check_all_inputs():
    rng = np.random.default_rng(6)
    xv = rng.uniform(-1, 1, size=(1, 4, 4, 1))
    kv = rng.uniform(-1, 1, size=(3, 3, 1, 2))
    bv = rng.uniform(-1, 1, size=(1, 1, 1, 2))

    err_x = grad_check(lambda t: tsum(square(conv2d(
        t, Tensor(kv), Tensor(bv)))), Tensor(xv))
    err_k = grad_check(lambda t: tsum(square(conv2d(
        Tensor(xv), t, Tensor(bv)))), Tensor(kv))
    err_b = grad_check(lambda t: tsum(square(conv2d(
        Tensor(xv), Tensor(kv), t))), Tensor(bv))
    assert err_x < 1e-3 and err_k < 1e-3 and err_b < 1e-3


def im2col_conv_reference(x, k, b, g):
    """The im2col conv2d that the strided-view forward and the per-offset
    `dx` replaced: a 9-slice patch copy, one GEMM for the output and one for
    the patch gradient, then a 9-slice scatter. Returns (out, dx, dk, db)
    for the upstream gradient g."""
    kh, kw, cin, cout = k.shape
    n, h, w, _ = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((n, h + 2 * ph, w + 2 * pw, cin), dtype=x.dtype)
    xp[:, ph:ph + h, pw:pw + w, :] = x
    cols = np.empty((n, h, w, kh, kw, cin), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i, j, :] = xp[:, i:i + h, j:j + w, :]
    cols2d = cols.reshape(n * h * w, kh * kw * cin)
    kmat = k.reshape(kh * kw * cin, cout)
    out = (cols2d @ kmat).reshape(n, h, w, cout) + b
    g2d = g.reshape(n * h * w, cout)
    db = g.sum(axis=(0, 1, 2)).reshape(1, 1, 1, cout)
    dk = (cols2d.T @ g2d).reshape(kh, kw, cin, cout)
    dcols = (g2d @ kmat.T).reshape(n, h, w, kh, kw, cin)
    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i:i + h, j:j + w, :] += dcols[:, :, :, i, j, :]
    return out, dxp[:, ph:ph + h, pw:pw + w, :], dk, db


def unet_conv_cases(runs=((32, 8), (64, 16)), **config):
    """(size, batch, layer name, kh, kw, cin, cout, side) for every conv of the
    U-Net (default unless `config` says otherwise) at each (size, batch) of
    `runs`, by default 32x32/batch 8 and 64x64/batch 16; side is the spatial
    size the layer sees."""
    cases = []
    for size, batch in runs:
        cfg = UNetConfig(image_size=(size, size), **config)
        for name, kh, kw, cin, cout in _conv_layers(cfg):
            part, level = name[:3], int(name[3]) if name[3].isdigit() else 0
            side = size >> {"enc": level - 1, "bot": cfg.depth,
                            "dec": cfg.depth - level}.get(part, 0)
            cases.append((size, batch, name, kh, kw, cin, cout, side))
    return cases


@pytest.mark.parametrize("size,batch,name,kh,kw,cin,cout,side", unet_conv_cases(),
                         ids=lambda v: str(v))
def test_conv2d_bytes_match_im2col_reference(size, batch, name, kh, kw, cin,
                                             cout, side):
    rng = np.random.default_rng(size + cin * 7 + cout)
    xv = rng.uniform(-1, 1, size=(batch, side, side, cin)).astype(np.float32)
    xv[xv < -0.4] = 0.0     # relu-style exact zeros
    kv = rng.uniform(-0.3, 0.3, size=(kh, kw, cin, cout)).astype(np.float32)
    bv = rng.uniform(-0.1, 0.1, size=(1, 1, 1, cout)).astype(np.float32)
    gv = rng.uniform(-1, 1, size=(batch, side, side, cout)).astype(np.float32)
    ref_out, ref_dx, ref_dk, ref_db = im2col_conv_reference(xv, kv, bv, gv)

    out = conv2d(Tensor(xv, requires_grad=True), Tensor(kv, requires_grad=True),
                 Tensor(bv, requires_grad=True))
    dx, dk, db = out._grad_fn(gv)
    assert out.values.tobytes() == ref_out.tobytes()
    assert dk.tobytes() == ref_dk.tobytes()
    assert db.tobytes() == ref_db.tobytes()
    if cin >= 2:
        assert dx.tobytes() == ref_dx.tobytes()
    else:   # cin = 1 takes numpy's matrix-vector path; only the last bits move
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-5, atol=1e-6)


def conv_inputs(batch, h, w, kh, kw, cin, cout, seed):
    """float32 x (with relu-style exact zeros), kernel, bias and upstream
    gradient for one conv."""
    rng = np.random.default_rng(seed)
    xv = rng.uniform(-1, 1, size=(batch, h, w, cin)).astype(np.float32)
    xv[xv < -0.4] = 0.0
    kv = rng.uniform(-0.3, 0.3, size=(kh, kw, cin, cout)).astype(np.float32)
    bv = rng.uniform(-0.1, 0.1, size=(1, 1, 1, cout)).astype(np.float32)
    gv = rng.uniform(-1, 1, size=(batch, h, w, cout)).astype(np.float32)
    return xv, kv, bv, gv


def conv_with_grads(xv, kv, bv, gv):
    """(out, dx, dk, db) of conv2d for the upstream gradient gv."""
    out = conv2d(Tensor(xv, requires_grad=True), Tensor(kv, requires_grad=True),
                 Tensor(bv, requires_grad=True))
    return (out.values,) + tuple(out._grad_fn(gv))


def unet_case_shape(case):
    """(batch, h, w, kh, kw, cin, cout) of a unet_conv_cases() entry."""
    _, batch, _, kh, kw, cin, cout, side = case
    return batch, side, side, kh, kw, cin, cout


# (batch, h, w, kh, kw, cin, cout) that the default U-Net cases miss: every
# depth-3 48 px conv at the ragged batches 5 and 7, the 32 px U-Net at batch
# 1 and the 16 px one at batch 2 (a bottleneck of at most 72 pixels), a
# non-square input, and kernels with ph != pw or 5x5
MORE_CONV_SHAPES = [unet_case_shape(c) for c in
                    unet_conv_cases(((48, 5), (48, 7)), depth=3)
                    + unet_conv_cases(((32, 1), (16, 2)))] + [
    (3, 24, 40, 3, 3, 4, 6), (2, 24, 40, 3, 5, 3, 4),
    (3, 9, 11, 5, 3, 5, 2), (5, 8, 8, 5, 5, 6, 7)]


def dx_may_move(shape):
    """Whether conv2d's dx may differ from the reference's in its last bits:
    cin = 1 takes numpy's matrix-vector path, and with at most 72 pixels and
    cin >= 16 OpenBLAS may pick another sgemm kernel for the reference's
    n*h*w-row product than for the padded rows."""
    batch, h, w, _, _, cin, _ = shape
    return cin == 1 or (batch * h * w <= 72 and cin >= 16)


@pytest.mark.parametrize("shape", MORE_CONV_SHAPES, ids=str)
def test_conv2d_bytes_match_im2col_reference_beyond_unet_cases(shape):
    xv, kv, bv, gv = conv_inputs(*shape, seed=sum(shape))
    got = conv_with_grads(xv, kv, bv, gv)
    ref = im2col_conv_reference(xv, kv, bv, gv)
    for name, a, b in zip(("out", "dx", "dk", "db"), got, ref):
        if name == "dx" and dx_may_move(shape):
            np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)
        else:
            assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("case", unet_conv_cases(), ids=str)
def test_conv2d_dx_numpy_fallback_matches_blas_bytes(monkeypatch, case):
    inputs = conv_inputs(*unet_case_shape(case), seed=case[0] + case[5])
    blas_dx = conv_with_grads(*inputs)[1]
    lookup = tensor._openblas
    monkeypatch.setattr(tensor, "_openblas",
                        lambda name: None if name == "sgemm" else lookup(name))
    assert conv_with_grads(*inputs)[1].tobytes() == blas_dx.tobytes()


def test_float64_conv_backward_takes_the_numpy_line(monkeypatch):
    calls = []
    monkeypatch.setattr(tensor, "_openblas",
                        lambda name: lambda *args: calls.append(args))
    xv, kv, bv, gv = (a.astype(np.float64)
                      for a in conv_inputs(2, 5, 6, 3, 3, 3, 4, seed=5))
    dx = conv_with_grads(xv, kv, bv, gv)[1]
    assert not calls
    np.testing.assert_allclose(dx, im2col_conv_reference(xv, kv, bv, gv)[1],
                               rtol=1e-12, atol=1e-12)
    conv_with_grads(*conv_inputs(2, 5, 6, 3, 3, 3, 4, seed=5))
    assert len(calls) == 9      # float32: one sgemm per kernel offset


@pytest.mark.parametrize("case", unet_conv_cases(), ids=str)
def test_conv2d_dx_bytes_do_not_depend_on_blas_threads(case):
    if tensor._openblas("sgemm") is None or \
            tensor._openblas("set_num_threads") is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    inputs = conv_inputs(*unet_case_shape(case), seed=case[0] + case[5])
    before = blas_threads()
    try:
        dxs = []
        for threads in (1, 2):
            set_blas_threads(threads)
            dxs.append(conv_with_grads(*inputs)[1].tobytes())
    finally:
        set_blas_threads(before)
    assert dxs[0] == dxs[1]


def padded_channel_slice(rng, shape, dtype=np.float32):
    """A (n, h, w, c) gradient laid out as dec{l}_up's upstream gradient is in
    training: the first c channels of a concat gradient that is itself the
    interior of a padded dx buffer, so neither its pixels nor its rows are
    contiguous."""
    n, h, w, c = shape
    buf = rng.uniform(-1, 1, size=(n, h + 2, w + 2, 2 * c)).astype(dtype)
    return buf[:, 1:1 + h, 1:1 + w, :c]


@pytest.mark.parametrize("case", [c for c in unet_conv_cases()
                                  if c[2].endswith("_up")], ids=str)
def test_conv2d_bytes_match_im2col_reference_on_a_channel_slice(case):
    shape = unet_case_shape(case)
    xv, kv, bv, _ = conv_inputs(*shape, seed=sum(shape))
    batch, side, _, _, _, _, cout = shape
    gv = padded_channel_slice(np.random.default_rng(case[0]),
                              (batch, side, side, cout))
    assert not gv.flags.c_contiguous
    got = conv_with_grads(xv, kv, bv, gv)
    ref = im2col_conv_reference(xv, kv, bv, gv)
    for name, a, b in zip(("out", "dx", "dk", "db"), got, ref):
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cin", [1, 3])
@pytest.mark.parametrize("kh,kw", [(3, 3), (1, 3), (3, 1), (3, 5), (5, 5)])
def test_conv2d_zeroes_every_border_strip_of_its_padded_input(monkeypatch, kh,
                                                              kw, cin, dtype):
    """conv2d takes its padded input from np.empty and writes only the border
    and the interior. With np.empty returning NaN-filled buffers, a border
    strip left unwritten puts NaN into out and dk."""
    xv, kv, bv, gv = (a.astype(dtype) for a in
                      conv_inputs(2, 5, 7, kh, kw, cin, 4, seed=10 * kh + kw + cin))
    ref = im2col_conv_reference(xv, kv, bv, gv)
    empty = np.empty

    def nan_empty(*args, **kwargs):
        a = empty(*args, **kwargs)
        a.fill(np.nan)
        return a

    with monkeypatch.context() as patch:
        patch.setattr(np, "empty", nan_empty)
        got = conv_with_grads(xv, kv, bv, gv)
    for name, a, b in zip(("out", "dx", "dk", "db"), got, ref):
        if name == "dx" and cin == 1:
            np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)
        else:
            assert a.tobytes() == b.tobytes(), name


@settings(deadline=None)
@given(st.integers(1, 16), st.integers(1, 64), st.integers(1, 64),
       st.integers(1, 64), st.sampled_from([np.float32, np.float64]),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_conv2d_db_bytes_match_numpy_sum_property(n, h, w, cout, dtype, sliced,
                                                  seed):
    """Up to 16 * 64 * 64 = 2^16 rows of 1 to 64 channels."""
    rng = np.random.default_rng(seed)
    xv, kv, bv, gv = (a.astype(dtype) for a in
                      conv_inputs(n, h, w, 1, 1, 1, cout, seed=seed))
    if sliced:
        gv = padded_channel_slice(rng, gv.shape, dtype)
    db = conv_with_grads(xv, kv, bv, gv)[3]
    assert db.dtype == dtype
    assert db.tobytes() == gv.sum(axis=(0, 1, 2)).reshape(1, 1, 1, cout).tobytes()


@pytest.mark.parametrize("kshape", [(1, 1, 3, 2), (3, 3, 3, 2), (3, 5, 3, 2)])
def test_conv2d_grad_check_batch_and_channels(kshape):
    rng = np.random.default_rng(7)
    xv = rng.uniform(-1, 1, size=(2, 4, 4, 3))
    kv = rng.uniform(-1, 1, size=kshape)
    bv = rng.uniform(-1, 1, size=(1, 1, 1, kshape[3]))

    err_x = grad_check(lambda t: tsum(square(conv2d(
        t, Tensor(kv), Tensor(bv)))), Tensor(xv))
    err_k = grad_check(lambda t: tsum(square(conv2d(
        Tensor(xv), t, Tensor(bv)))), Tensor(kv))
    err_b = grad_check(lambda t: tsum(square(conv2d(
        Tensor(xv), Tensor(kv), t))), Tensor(bv))
    assert err_x < 1e-3 and err_k < 1e-3 and err_b < 1e-3


def test_conv2d_skips_dx_for_constant_input():
    x = rand((2, 4, 4, 1), seed=8)
    x.requires_grad = False
    k, b = rand((3, 3, 1, 2), seed=9), rand((1, 1, 1, 2), seed=10)
    out = conv2d(x, k, b)
    dx, dk, db = out._grad_fn(np.ones(out.shape, dtype=np.float32))
    assert dx is None and dk.shape == k.shape and db.shape == b.shape
    backward(tsum(out))
    assert x.grad is None and k.grad is not None and b.grad is not None


@pytest.mark.parametrize("op", [add, sub, mul, div])
def test_binary_op_computes_no_gradient_for_a_constant(op):
    x = rand((2, 3, 3, 2), seed=11, lo=0.5, hi=1.0)
    g = np.ones(x.shape, dtype=np.float32)
    dx, dc = op(x, constant(0.5))._grad_fn(g)
    assert dc is None and dx.shape == x.shape
    dc, dx = op(constant(0.5), x)._grad_fn(g)
    assert dc is None and dx.shape == x.shape


# -- maxpool2d -------------------------------------------------------------------

def test_maxpool_constant():
    x = Tensor(np.full((1, 4, 4, 1), 0.7, dtype=np.float32))
    out = maxpool2d(x)
    assert out.shape == (1, 2, 2, 1)
    assert np.all(out.values == np.float32(0.7))


def test_maxpool_forced_block():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]],
                        dtype=np.float32)[None, :, :, None])
    assert maxpool2d(x).item() == 4.0


def test_maxpool_matches_window_oracle():
    x = rand((2, 8, 8, 3), seed=7)
    out = maxpool2d(x)
    for n in range(2):
        for i in range(4):
            for j in range(4):
                for c in range(3):
                    win = x.values[n, 2 * i:2 * i + 2, 2 * j:2 * j + 2, c]
                    assert out.values[n, i, j, c] == win.max()


def test_maxpool_tie_routes_to_first_row_major():
    x = Tensor(np.full((1, 2, 2, 1), 1.0, dtype=np.float32), requires_grad=True)
    backward(tsum(maxpool2d(x)))
    expected = np.zeros((1, 2, 2, 1))
    expected[0, 0, 0, 0] = 1.0
    np.testing.assert_array_equal(x.grad, expected)


def test_maxpool_indivisible():
    with pytest.raises(DimensionError):
        maxpool2d(rand((1, 3, 4, 1)))


def argmax_maxpool_reference(x, g, window):
    """Forward and input gradient of the argmax formulation of max pooling."""
    n, h, w, c = x.shape
    h2, w2 = h // window, w // window
    flat = x.reshape(n, h2, window, w2, window, c).transpose(
        0, 1, 3, 2, 4, 5).reshape(n, h2, w2, window * window, c)
    arg = flat.argmax(axis=3)
    out = np.take_along_axis(flat, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    dflat = np.zeros_like(flat)
    np.put_along_axis(dflat, arg[:, :, :, None, :], g[:, :, :, None, :], axis=3)
    dx = dflat.reshape(n, h2, w2, window, window, c).transpose(0, 1, 3, 2, 4, 5)
    return out, dx.reshape(n, h, w, c)


@st.composite
def pool_inputs(draw):
    """Integer-valued inputs, signed zeros included, so windows tie often."""
    window = draw(st.sampled_from([1, 2, 3]))
    n, h2, w2, c = (draw(st.integers(1, 3)) for _ in range(4))
    shape = (n, h2 * window, w2 * window, c)
    values = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
    x = draw(hnp.arrays(np.float32, shape, elements=values))
    g = draw(hnp.arrays(np.float32, (n, h2, w2, c),
                        elements=st.sampled_from([-1.5, -0.0, 0.5, 3.0])))
    return x, g, window


@settings(max_examples=200, deadline=None)
@given(pool_inputs())
def test_maxpool_matches_argmax_routing_reference(case):
    x, g, window = case
    t = Tensor(x.copy(), requires_grad=True)
    out = maxpool2d(t, window)
    ref_out, ref_dx = argmax_maxpool_reference(x, g, window)
    assert out.values.tobytes() == ref_out.tobytes()
    assert not np.shares_memory(out.values, t.values)
    (dx,) = out._grad_fn(g)
    assert dx.dtype == ref_dx.dtype and dx.tobytes() == ref_dx.tobytes()


def test_maxpool_forward_propagates_nan():
    x = np.array([[1.0, np.nan], [3.0, 2.0]], dtype=np.float32)[None, :, :, None]
    out = maxpool2d(Tensor(np.concatenate([x, x[:, ::-1]], axis=2)))
    assert np.isnan(out.values).all()


# -- branch-free masks ------------------------------------------------------------

def _special_floats(dtype):
    """Finite floats of dtype's width plus the values a select must keep bit
    for bit: signed zeros, NaN and both infinities."""
    return st.one_of(st.sampled_from([-0.0, 0.0, np.nan, np.inf, -np.inf]),
                     st.floats(width=8 * np.dtype(dtype).itemsize))


@st.composite
def keep_inputs(draw):
    """(g, keep): g float32 or float64, drawn C-contiguous, as the interior
    view of a padded array (like conv's dx), or broadcast from one pixel."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n, h, w, c = (draw(st.integers(1, 4)) for _ in range(4))
    layout = draw(st.sampled_from(["contiguous", "padded", "broadcast"]))
    if layout == "padded":
        g = draw(hnp.arrays(dtype, (n, h + 2, w + 2, c),
                            elements=_special_floats(dtype)))[:, 1:-1, 1:-1, :]
    elif layout == "broadcast":
        g = np.broadcast_to(draw(hnp.arrays(dtype, (1, 1, 1, c),
                                            elements=_special_floats(dtype))),
                            (n, h, w, c))
    else:
        g = draw(hnp.arrays(dtype, (n, h, w, c), elements=_special_floats(dtype)))
    return g, draw(hnp.arrays(np.bool_, (n, h, w, c)))


@settings(max_examples=300, deadline=None)
@given(keep_inputs())
def test_keep_bytes_match_where(case):
    g, keep = case
    ref = np.where(keep, g, 0)
    got = tensor._keep(g, keep)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
    # into a strided view of a larger buffer, whose border stays untouched
    buf = np.full((g.shape[0], g.shape[1] + 2, g.shape[2] + 2, g.shape[3]), 7,
                  dtype=g.dtype)
    assert tensor._keep(g, keep, out=buf[:, 1:-1, 1:-1, :]).tobytes() == ref.tobytes()
    assert buf[:, 1:-1, 1:-1, :].tobytes() == ref.tobytes()
    buf[:, 1:-1, 1:-1, :] = 7
    assert np.all(buf == 7)


@st.composite
def masked_op_inputs(draw, window):
    """(x, g) with signed zeros, NaN and infinities in both, so that relu's
    mask meets its edge cases and max-pool windows tie."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n, h2, w2, c = (draw(st.integers(1, 3)) for _ in range(4))
    values = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, np.nan, np.inf,
                              -np.inf])
    x = draw(hnp.arrays(dtype, (n, h2 * window, w2 * window, c), elements=values))
    g = draw(hnp.arrays(dtype, (n, h2, w2, c), elements=_special_floats(dtype)))
    return x, g


@settings(max_examples=200, deadline=None)
@given(masked_op_inputs(window=1))
def test_relu_backward_bytes_match_where(case):
    x, g = case
    (dx,) = relu(Tensor(x, requires_grad=True))._grad_fn(g)
    ref = np.where(x > 0, g, 0)
    assert dx.dtype == ref.dtype and dx.tobytes() == ref.tobytes()


def where_maxpool_backward(x, out, g, window):
    """maxpool2d's input gradient as a np.where select per window offset,
    routed to the first row-major element that equals the window's max."""
    dx = np.empty_like(x)
    free = np.ones(out.shape, dtype=bool)
    for i in range(window):
        for j in range(window):
            hit = free & (x[:, i::window, j::window] == out)
            dx[:, i::window, j::window] = np.where(hit, g, 0)
            free &= ~hit
    return dx


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(
    lambda window: st.tuples(st.just(window), masked_op_inputs(window))))
def test_maxpool_backward_bytes_match_where(case):
    window, (x, g) = case
    out = maxpool2d(Tensor(x, requires_grad=True), window)
    (dx,) = out._grad_fn(g)
    ref = where_maxpool_backward(x, out.values, g, window)
    assert dx.dtype == ref.dtype and dx.tobytes() == ref.tobytes()


# -- upsample ---------------------------------------------------------------------

def test_upsample_single_pixel():
    x = Tensor(np.full((1, 1, 1, 1), 3.0, dtype=np.float32))
    out = upsample_nearest(x)
    assert out.shape == (1, 2, 2, 1)
    assert np.all(out.values == 3.0)


def test_maxpool_after_upsample_is_identity():
    x = rand((2, 4, 4, 2), seed=8)
    out = maxpool2d(upsample_nearest(x))
    np.testing.assert_array_equal(out.values, x.values)


def test_upsample_grad_sums_block():
    x = Tensor(np.ones((1, 2, 2, 1), dtype=np.float32), requires_grad=True)
    backward(tsum(upsample_nearest(x)))
    np.testing.assert_array_equal(x.grad, np.full((1, 2, 2, 1), 4.0))


def upsample_reference_grad(g):
    """The 2x upsample backward that the row-major window sum replaced."""
    n, h2, w2, c = g.shape
    return g.reshape(n, h2 // 2, 2, w2 // 2, 2, c).sum(axis=(2, 4))


# (n, h, w, c) of the upsample inputs of the default U-Net at 32 and 64 px,
# batch 8, and of the depth-3 48 px U-Net at batches 5 and 7 (each feeds a
# dec{l}_up conv of side 2h and cin = c), then a small non-square one
UPSAMPLE_SHAPES = sorted({
    (case[1], case[7] // 2, case[7] // 2, case[5])
    for case in unet_conv_cases(((32, 8), (64, 8)))
    + unet_conv_cases(((48, 5), (48, 7)), depth=3)
    if case[2].endswith("_up")}) + [(2, 3, 4, 2)]


@pytest.mark.parametrize("shape", UPSAMPLE_SHAPES, ids=str)
def test_upsample_grad_bytes_match_reshape_sum(shape):
    n, h, w, c = shape
    rng = np.random.default_rng(sum(shape))
    out = upsample_nearest(Tensor(np.zeros(shape, np.float32), requires_grad=True))
    g = rng.uniform(-1, 1, size=(n, 2 * h, 2 * w, c)).astype(np.float32)
    for layout in (g, padded_channel_slice(rng, g.shape)):
        (dx,) = out._grad_fn(layout)
        ref = upsample_reference_grad(layout)
        assert dx.dtype == ref.dtype and dx.tobytes() == ref.tobytes()


# -- backward ----------------------------------------------------------------------

def test_backward_of_sum_is_ones():
    x = rand((2, 3, 3, 2), seed=9)
    backward(tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones_like(x.values))


def test_backward_of_half_sum_square_is_x():
    x = rand((1, 3, 3, 1), seed=10)
    backward(tsum(square(x)) * 0.5)
    np.testing.assert_allclose(x.grad, x.values, rtol=1e-6)


def test_backward_requires_scalar_root():
    x = rand((1, 2, 2, 1))
    with pytest.raises(ContractError):
        backward(square(x))


def test_backward_accumulates_across_fanout():
    x = rand((1, 2, 2, 1), seed=11)
    y = x + x
    backward(tsum(y))
    np.testing.assert_array_equal(x.grad, np.full((1, 2, 2, 1), 2.0))


def test_backward_linearity():
    xv = np.random.default_rng(12).uniform(-1, 1, size=(1, 3, 3, 1))

    def grad_of(fn):
        t = Tensor(xv.copy(), requires_grad=True)
        backward(fn(t))
        return t.grad

    f = lambda t: tsum(square(t))
    g = lambda t: tsum(exp(t))
    combined = grad_of(lambda t: 2.0 * f(t) + 3.0 * g(t))
    separate = 2.0 * grad_of(f) + 3.0 * grad_of(g)
    np.testing.assert_allclose(combined, separate, atol=1e-6)


# -- elementwise op gradients vs finite differences ---------------------------------

_COEFF = Tensor(np.random.default_rng(99).uniform(
    0.5, 1.5, size=(1, 4, 4, 2)).astype(np.float64))

ELEMENTWISE = {
    "add": lambda t: tsum(t + _COEFF + 1.0),
    "sub": lambda t: tsum(2.0 - t),
    "mul": lambda t: tsum(t * t),
    "div": lambda t: tsum(t / (square(t) + 2.0)),
    "square": lambda t: tsum(square(t)),
    "sqrt": lambda t: tsum(sqrt(square(t) + 1.0)),
    "exp": lambda t: tsum(exp(t)),
    "log": lambda t: tsum(log(square(t) + 0.5)),
    "relu": lambda t: tsum(relu(t) * _COEFF),
    "sigmoid": lambda t: tsum(square(sigmoid(t))),
    "clamp": lambda t: tsum(square(clamp(t, -0.5, 0.5)) * _COEFF),
    "mean": lambda t: tmean(square(t)),
    "concat": lambda t: tsum(square(concat_channels(t, t * 2.0))),
    "maxpool": lambda t: tsum(square(maxpool2d(t))),
    "upsample": lambda t: tsum(square(upsample_nearest(t))),
}


@pytest.mark.parametrize("name", sorted(ELEMENTWISE))
def test_gradients_match_finite_differences(name):
    fn = ELEMENTWISE[name]
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        # keep points away from relu/clamp kinks so central differences are valid
        if name == "maxpool":
            # pooling needs window values separated by more than 2*eps,
            # otherwise the perturbation flips the argmax
            xv = rng.permutation(32).astype(np.float64).reshape(1, 4, 4, 2) * 0.1
        else:
            xv = rng.uniform(-1, 1, size=(1, 4, 4, 2))
            xv[np.abs(xv) < 0.05] = 0.2
            xv[np.abs(np.abs(xv) - 0.5) < 0.05] = 0.3
        assert grad_check(fn, Tensor(xv)) < 1e-3, f"{name} seed {seed}"


_FULL = Tensor(np.random.default_rng(98).uniform(
    0.5, 1.5, size=(2, 4, 4, 2)))


@pytest.mark.parametrize("shape", [(1, 1, 1, 2), (1, 1, 1, 1)])
@pytest.mark.parametrize("left", [True, False])
@pytest.mark.parametrize("op", [add, sub, mul, div])
def test_broadcast_operand_gradient_sums_over_broadcast_axes(op, left, shape):
    """A broadcast operand that needs a gradient gets the sum over the axes it
    was broadcast along, on either side of the op."""
    def fn(t):
        a, b = (t, _FULL) if left else (_FULL, t)
        return tsum(square(op(a, b)))

    xv = np.random.default_rng(97).uniform(0.5, 1.5, size=shape)
    assert grad_check(fn, Tensor(xv)) < 1e-3


def test_index_batch_gather_and_scatter():
    x = rand((4, 1, 1, 3), seed=13)
    idx = np.array([2, 2, 0, 1])
    out = index_batch(x, idx)
    np.testing.assert_array_equal(out.values, x.values[idx])
    backward(tsum(out * Tensor(np.arange(12, dtype=np.float32).reshape(4, 1, 1, 3))))
    # row 2 is gathered twice so its gradient is the sum of two coefficient rows
    coeff = np.arange(12, dtype=np.float64).reshape(4, 1, 1, 3)
    expected = np.zeros_like(coeff)
    for pos, src in enumerate(idx):
        expected[src] += coeff[pos]
    np.testing.assert_allclose(x.grad, expected)


def test_log_clamps_small_arguments():
    x = Tensor(np.full((1, 1, 1, 1), 1e-30, dtype=np.float64), requires_grad=True)
    out = log(x)
    assert np.isfinite(out.item())
    assert out.item() == pytest.approx(np.log(1e-12))
    backward(out)
    # below the clamp the derivative is zero, not 1/x
    assert x.grad[0, 0, 0, 0] == 0.0


def test_grad_check_zero_error_for_sum():
    assert grad_check(tsum, rand((1, 3, 3, 1), seed=14)) < 1e-9


def test_grad_check_reports_nonfinite_op():
    def bad(t):
        return tsum(t / (t - t))

    with pytest.raises(NonFiniteError) as exc:
        bad_val = bad(rand((1, 1, 1, 1), seed=15))
        from fdseg.tensor import _assert_finite
        _assert_finite(bad_val)
    assert exc.value.op == "div"


def test_tape_records_topological_order():
    with Tape(seed=0) as tape:
        x = rand((1, 2, 2, 1), seed=16)
        y = square(x)
        z = tsum(y)
    ids = [out for (_, _, out) in tape.nodes]
    for op, inputs, out in tape.nodes:
        for i in inputs:
            assert ids.index(i) < ids.index(out) if i in ids else True
    assert z.item() == pytest.approx(float((x.values ** 2).sum()), rel=1e-6)


def test_forward_replay_is_bit_identical():
    def run():
        rng = np.random.default_rng(17)
        x = Tensor(rng.uniform(-1, 1, size=(2, 4, 4, 1)).astype(np.float32))
        k = Tensor(rng.uniform(-1, 1, size=(3, 3, 1, 2)).astype(np.float32))
        b = Tensor(np.zeros((1, 1, 1, 2), dtype=np.float32))
        return tsum(sigmoid(conv2d(x, k, b))).values.tobytes()

    assert run() == run()


# -- no_grad ----------------------------------------------------------------------

def test_no_grad_builds_no_graph_but_tape_records():
    x = rand((2, 4, 4, 1), seed=18)
    k = rand((3, 3, 1, 2), seed=19)
    b = Tensor(np.zeros((1, 1, 1, 2), dtype=np.float32), requires_grad=True)
    with Tape() as tape, no_grad():
        leaf = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
        nodes = [conv2d(x, k, b)]
        nodes.append(maxpool2d(relu(nodes[0])))
        nodes.append(tsum(nodes[-1]) * leaf)
    assert leaf.requires_grad
    for node in nodes:
        assert not node.requires_grad
        assert node._parents == () and node._grad_fn is None
    ops = [op for op, _, _ in tape.nodes]
    assert ops == ["leaf", "conv2d", "relu", "maxpool2d", "sum", "mul"]
    assert tape.nodes[1][1] == (x.id, k.id, b.id)


def test_no_grad_restores_grad_mode_after_exception():
    x = rand((1, 2, 2, 1), seed=20)
    with pytest.raises(ZeroDivisionError):
        with no_grad():
            assert not square(x).requires_grad
            raise ZeroDivisionError
    y = square(x)
    assert y.requires_grad and y._parents == (x,) and y._grad_fn is not None
    with no_grad():
        with no_grad():
            pass
        assert not square(x).requires_grad
    assert square(x).requires_grad


@pytest.mark.parametrize("size,depth", [(16, 2), (64, 2), (32, 3)])
def test_no_grad_unet_forward_is_byte_equal(size, depth):
    model = init_params(UNetConfig(depth=depth, image_size=(size, size)), seed=3)
    images = Tensor(np.random.default_rng(21).uniform(
        0, 1, size=(3, size, size, 1)).astype(np.float32))
    pred, taps = model.forward(images)
    with no_grad():
        pred_ng, taps_ng = model.forward(images)
    assert pred.requires_grad and not pred_ng.requires_grad
    assert pred_ng.values.tobytes() == pred.values.tobytes()
    for tap, tap_ng in zip(taps, taps_ng):
        assert tap_ng.activation.values.tobytes() == tap.activation.values.tobytes()


def test_tensor_rejects_a_zero_size_axis():
    with pytest.raises(DimensionError,
                       match=r"all axes must be >= 1, got \(1, 0, 2, 1\)"):
        Tensor(np.zeros((1, 0, 2, 1), np.float32))


def test_concat_rejects_mismatched_batch_or_spatial_axes():
    a = Tensor(np.zeros((1, 4, 4, 2), np.float32))
    b = Tensor(np.zeros((1, 4, 2, 3), np.float32))
    with pytest.raises(DimensionError, match=r"concat requires matching "
                       r"\(n,h,w\), got \(1, 4, 4, 2\) vs \(1, 4, 2, 3\)") as err:
        concat_channels(a, b)
    assert err.value.axis == "spatial"


def test_conv_rejects_an_even_kernel():
    x = Tensor(np.zeros((1, 4, 4, 2), np.float32))
    kernel = Tensor(np.zeros((2, 3, 2, 4), np.float32))
    bias = Tensor(np.zeros((1, 1, 1, 4), np.float32))
    with pytest.raises(DimensionError,
                       match="kernel spatial dims must be odd, got 2x3") as err:
        conv2d(x, kernel, bias)
    assert err.value.axis == "kernel"


def test_conv_rejects_a_bias_of_the_wrong_shape():
    x = Tensor(np.zeros((1, 4, 4, 2), np.float32))
    kernel = Tensor(np.zeros((3, 3, 2, 4), np.float32))
    bias = Tensor(np.zeros((1, 1, 1, 3), np.float32))
    with pytest.raises(DimensionError, match=r"bias must have shape "
                       r"\(1,1,1,4\), got \(1, 1, 1, 3\)") as err:
        conv2d(x, kernel, bias)
    assert err.value.axis == "channels"


def test_maxpool_rejects_a_width_not_divisible_by_the_window():
    x = Tensor(np.zeros((1, 4, 6, 1), np.float32))
    with pytest.raises(DimensionError,
                       match="width 6 not divisible by window 4") as err:
        maxpool2d(x, 4)
    assert err.value.axis == "width"


def test_grad_check_rejects_a_target_that_is_not_a_scalar():
    x = Tensor(np.ones((1, 2, 2, 1), np.float32))
    with pytest.raises(ContractError,
                       match="grad_check target must produce a scalar"):
        grad_check(square, x)
