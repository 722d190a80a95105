"""Unit tests for the autodiff core.

Every differentiable op is checked against either a hand-written direct
oracle (convolution, pooling) or central finite differences via grad_check.
"""
import numpy as np
import pytest

from fdseg.tensor import (ContractError, DimensionError, NonFiniteError, Tape,
                          Tensor, backward, clamp, concat_channels, conv2d,
                          exp, grad_check, index_batch, log, maxpool2d, relu,
                          sigmoid, sqrt, square, tsum, tmean, upsample_nearest)
from fdseg.unet import UNetConfig, _conv_layers


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


def unet_conv_cases():
    """(size, batch, layer name, kh, kw, cin, cout, side) for every conv of the
    default U-Net at 32x32/batch 8 and 64x64/batch 16; side is the spatial
    size the layer sees."""
    cases = []
    for size, batch in ((32, 8), (64, 16)):
        cfg = UNetConfig(image_size=(size, size))
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


@pytest.mark.parametrize("kshape", [(1, 1, 3, 2), (3, 3, 3, 2)])
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
