"""Tests for the training objectives.

Analytic values are asserted where the arithmetic is forced; everything else
is compared against direct per-pixel or masked-mean oracles written
independently of the library code.
"""
import math

import numpy as np
import pytest

import fdseg.losses
from fdseg.losses import (AlphaState, MaskedFeatureSummary, alpha_update,
                          bce_loss, dice_loss, fd_exch_loss, fd_loss,
                          feature_summary, pool_mask, seg_loss, total_loss)
from fdseg.tensor import (ContractError, DimensionError, Tape, Tensor,
                          backward, tsum)
from fdseg.unet import FeatureTap, UNetConfig, init_params


def tb(arr):
    return Tensor(np.asarray(arr, dtype=np.float32))


def binary_mask(shape, density, seed):
    rng = np.random.default_rng(seed)
    m = (rng.random(shape) < density).astype(np.float32)
    m.flat[0] = 1.0
    m.flat[-1] = 0.0
    return m


# -- dice ------------------------------------------------------------------------

def test_dice_perfect_overlap():
    m = tb(binary_mask((1, 4, 4, 1), 0.4, seed=0))
    assert dice_loss(m, m).item() <= 1e-6


def test_dice_disjoint_masses():
    pred = np.zeros((1, 4, 4, 1), dtype=np.float32)
    target = np.zeros((1, 4, 4, 1), dtype=np.float32)
    pred[0, :2, :, 0] = 1.0              # mass 8
    target[0, 2:, :, 0] = 1.0            # mass 8, disjoint
    loss = dice_loss(tb(pred), tb(target)).item()
    assert loss == pytest.approx(1.0 - 1e-6 / (16 + 1e-6), abs=1e-7)


def test_dice_half_overlap():
    pred = np.zeros((1, 4, 4, 1), dtype=np.float32)
    target = np.zeros((1, 4, 4, 1), dtype=np.float32)
    target[0, 0, 0, 0] = target[0, 0, 1, 0] = 1.0   # mass 2
    pred[0, 0, 1, 0] = pred[0, 0, 2, 0] = 1.0       # mass 2, overlap 1
    loss = dice_loss(tb(pred), tb(target)).item()
    assert loss == pytest.approx(1.0 - (2.0 + 1e-6) / (4.0 + 1e-6), abs=1e-7)


def test_dice_rejects_soft_target():
    pred = tb(np.full((1, 2, 2, 1), 0.5))
    with pytest.raises(ContractError):
        dice_loss(pred, pred)


# -- bce -------------------------------------------------------------------------

def test_bce_exact_prediction_hits_clamp():
    t = binary_mask((1, 4, 4, 1), 0.5, seed=1)
    loss = bce_loss(tb(t), tb(t)).item()
    # float32 rounding makes the clamp slightly coarser than 1e-7
    assert 0.0 <= loss < 3e-7


def test_bce_uniform_half_is_ln2():
    t = binary_mask((1, 4, 4, 1), 0.5, seed=2)
    pred = tb(np.full((1, 4, 4, 1), 0.5))
    assert bce_loss(pred, tb(t)).item() == pytest.approx(math.log(2), rel=1e-5)


def test_bce_matches_pixel_oracle():
    rng = np.random.default_rng(3)
    pred = rng.uniform(0.01, 0.99, size=(1, 4, 4, 1))
    target = binary_mask((1, 4, 4, 1), 0.5, seed=4)
    expected = -np.mean(target * np.log(pred) + (1 - target) * np.log(1 - pred))
    got = bce_loss(Tensor(pred), tb(target)).item()
    assert got == pytest.approx(expected, rel=1e-4)


def test_seg_is_dice_plus_bce():
    rng = np.random.default_rng(5)
    pred = Tensor(rng.uniform(0.01, 0.99, size=(2, 4, 4, 1)))
    target = tb(binary_mask((2, 4, 4, 1), 0.4, seed=6))
    s, d, b = seg_loss(pred, target)
    assert s.item() == pytest.approx(d.item() + b.item(), abs=1e-6)


# -- pool_mask ---------------------------------------------------------------------

def test_pool_mask_zero_stays_zero():
    z = Tensor(np.zeros((1, 8, 8, 1), dtype=np.float32))
    for f in (1, 2, 4, 8):
        assert np.all(pool_mask(z, f).values == 0)


def test_pool_mask_single_pixel_propagates():
    m = np.zeros((1, 8, 8, 1), dtype=np.float32)
    m[0, 5, 6, 0] = 1.0
    out = pool_mask(tb(m), 4)
    assert out.shape == (1, 2, 2, 1)
    assert out.values.sum() == 1.0
    assert out.values[0, 1, 1, 0] == 1.0


def test_pool_mask_matches_window_oracle():
    m = binary_mask((1, 8, 8, 1), 0.3, seed=7)
    out = pool_mask(tb(m), 2).values
    for i in range(4):
        for j in range(4):
            expected = float(m[0, 2 * i:2 * i + 2, 2 * j:2 * j + 2, 0].max())
            assert out[0, i, j, 0] == expected


@pytest.mark.parametrize("factor", [1, 2, 4, 8])
@pytest.mark.parametrize("shape", [(1, 8, 8, 1), (3, 16, 8, 1), (2, 8, 24, 1)])
def test_pool_mask_bytes_match_block_max(shape, factor):
    """The running maximum gives the bytes of the (n, h/f, f, w/f, f, c)
    reshape's max over its block axes, on square, rectangular and batched
    masks."""
    n, h, w, c = shape
    m = binary_mask(shape, 0.3, seed=factor)
    ref = m.reshape(n, h // factor, factor, w // factor, factor, c).max(axis=(2, 4))
    out = pool_mask(tb(m), factor).values
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("shape", [(1, 6, 8, 1), (1, 8, 6, 1)])
def test_pool_mask_indivisible_size_names_spatial(shape):
    with pytest.raises(DimensionError, match="not divisible by factor 4") as err:
        pool_mask(tb(np.zeros(shape)), 4)
    assert err.value.axis == "spatial"


# -- feature_summary ----------------------------------------------------------------

def test_feature_summary_constant_features():
    f = Tensor(np.full((1, 4, 4, 3), 0.7, dtype=np.float32))
    m = tb(binary_mask((1, 4, 4, 1), 0.5, seed=8))
    s = feature_summary(f, m)
    np.testing.assert_allclose(s.fg_mean.values, 0.7, rtol=1e-4)
    np.testing.assert_allclose(s.bg_mean.values, 0.7, rtol=1e-4)


def test_feature_summary_mask_as_feature():
    m = binary_mask((1, 4, 4, 1), 0.5, seed=9)
    s = feature_summary(tb(m), tb(m))
    assert s.fg_mean.item() == pytest.approx(1.0, abs=1e-5)
    assert s.bg_mean.item() == pytest.approx(0.0, abs=1e-5)


def test_feature_summary_counts_partition_pixels():
    m = tb(binary_mask((3, 8, 8, 1), 0.4, seed=10))
    f = Tensor(np.random.default_rng(11).random((3, 8, 8, 2), dtype=np.float32))
    s = feature_summary(f, m)
    assert s.fg_count + s.bg_count == pytest.approx(64.0, abs=1e-5)


def test_feature_summary_matches_masked_mean_oracle():
    rng = np.random.default_rng(12)
    f = rng.random((2, 4, 4, 3))
    m = binary_mask((2, 4, 4, 1), 0.5, seed=13)
    s = feature_summary(Tensor(f), tb(m))
    per_fg = []
    per_bg = []
    for i in range(2):
        mi = m[i, :, :, 0]
        per_fg.append([(f[i, :, :, c] * mi).sum() / (mi.sum() + 1e-6)
                       for c in range(3)])
        per_bg.append([(f[i, :, :, c] * (1 - mi)).sum() / ((1 - mi).sum() + 1e-6)
                       for c in range(3)])
    np.testing.assert_allclose(s.fg_mean.values.ravel(),
                               np.mean(per_fg, axis=0), rtol=1e-4)
    np.testing.assert_allclose(s.bg_mean.values.ravel(),
                               np.mean(per_bg, axis=0), rtol=1e-4)


def test_feature_summary_resolution_mismatch():
    f = Tensor(np.random.default_rng(14).random((1, 8, 8, 2)))
    m = tb(binary_mask((1, 4, 4, 1), 0.5, seed=15))
    with pytest.raises(ContractError):
        feature_summary(f, m)


def masked_mean_reference(features, mask):
    """The feature_summary that the one-node masked means replaced: each
    per-sample mean built from Tensor ops (mask product, (h, w) sum, divide
    by count + eps), 20 nodes per call."""
    n = features.shape[0]
    mv = mask.values
    fg_cnt = mv.sum(axis=(1, 2, 3), keepdims=True)
    bg_cnt = (1.0 - mv).sum(axis=(1, 2, 3), keepdims=True)
    fg_cnt_t = Tensor(fg_cnt.astype(features.dtype))
    bg_cnt_t = Tensor(bg_cnt.astype(features.dtype))
    fg = tsum(features * mask, axis=(1, 2)) / (fg_cnt_t + 1e-6)
    bg = tsum(features * (1.0 - mask), axis=(1, 2)) / (bg_cnt_t + 1e-6)
    return MaskedFeatureSummary(
        fg_mean=tsum(fg, axis=0) * (1.0 / n), bg_mean=tsum(bg, axis=0) * (1.0 / n),
        fg_count=float(fg_cnt.mean()), bg_count=float(bg_cnt.mean()),
        per_sample_fg=fg, per_sample_bg=bg)


def default_tap_shapes(**config):
    """(n, h, w, c, downsample factor) of each distinct tap of the U-Net
    (default unless `config` says otherwise) at 32x32 and 64x64, batch 8."""
    shapes = set()
    for size in (32, 64):
        model = init_params(UNetConfig(image_size=(size, size), **config), seed=0)
        _, taps = model.forward(Tensor(np.zeros((8, size, size, 1), np.float32)))
        shapes |= {t.activation.shape + (t.downsample_factor,) for t in taps}
    return sorted(shapes)


# the default taps, the one- and two-channel taps of base_channels 1 (where
# c = 1 keeps numpy's pairwise sum), and a float64 tape
SUMMARY_CASES = ([(shape, "float32") for shape in default_tap_shapes()]
                 + [(shape, "float32") for shape in
                    default_tap_shapes(base_channels=1) if shape[3] <= 2]
                 + [((3, 8, 8, 5, 2), "float64")])


def relu_features_and_mask(shape, dtype, seed):
    n, h, w, c, factor = shape
    rng = np.random.default_rng(seed)
    f = np.maximum(rng.normal(size=(n, h, w, c)), 0.0).astype(dtype)
    full = binary_mask((n, h * factor, w * factor, 1), 0.3, seed=seed + 1)
    return f, pool_mask(tb(full), factor)


@pytest.mark.parametrize("shape,dtype", SUMMARY_CASES, ids=str)
def test_feature_summary_bytes_match_reference(shape, dtype):
    f, mask = relu_features_and_mask(shape, dtype, seed=sum(shape))
    new = feature_summary(Tensor(f, requires_grad=True), mask)
    ref = masked_mean_reference(Tensor(f, requires_grad=True), mask)
    for name in ("fg_mean", "bg_mean", "per_sample_fg", "per_sample_bg"):
        a, b = getattr(new, name).values, getattr(ref, name).values
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert (new.fg_count, new.bg_count) == (ref.fg_count, ref.bg_count)


SUMMARY_LOSSES = {
    "fd": fd_loss,
    "exch": lambda s: fd_exch_loss(s, shuffle_offset=1, seed=3)[0],
    "fd+exch": lambda s: fd_loss(s) + fd_exch_loss(s, seed=4)[0],
}


@pytest.mark.parametrize("loss", SUMMARY_LOSSES)
@pytest.mark.parametrize("shape,dtype", SUMMARY_CASES, ids=str)
def test_feature_summary_gradient_bytes_match_reference(shape, dtype, loss):
    f, mask = relu_features_and_mask(shape, dtype, seed=sum(shape) + 5)
    grads = []
    for summarize in (feature_summary, masked_mean_reference):
        x = Tensor(f, requires_grad=True)
        backward(SUMMARY_LOSSES[loss](summarize(x, mask)))
        grads.append(x.grad)
    assert grads[0].dtype == grads[1].dtype
    assert grads[0].tobytes() == grads[1].tobytes()


def test_feature_summary_means_are_one_node_each(monkeypatch):
    """Each tap's per-sample means are one node each: a total_loss with fd and
    fd_exch on every tap records 12 nodes per tap fewer than the 14 that the
    reference's two means and their count tensors take."""
    rng = np.random.default_rng(44)
    pred = Tensor(rng.uniform(0.01, 0.99, size=(2, 8, 8, 1)))
    target = tb(binary_mask((2, 8, 8, 1), 0.5, seed=45))
    taps, pooled = fake_taps(seed=46)
    state = AlphaState(np.array([0.3, 0.7, 0.5]), "active")

    def count_nodes():
        with Tape() as tape:
            total_loss(pred, target, taps, pooled, state, exch_enabled=True)
        return len(tape.nodes)

    fused = count_nodes()
    monkeypatch.setattr(fdseg.losses, "feature_summary", masked_mean_reference)
    assert fused == count_nodes() - 12 * len(taps)
    with Tape() as tape:
        feature_summary(taps[0].activation, pooled[0])
    assert [op for op, _, _ in tape.nodes].count("masked_mean") == 2
    assert len(tape.nodes) == 8     # 2 means + 2 x (sum, constant, mul)


# -- fd_loss -----------------------------------------------------------------------

def summary_from_diff(diff):
    """Build a summary whose batch means differ by exactly `diff` per channel."""
    c = len(diff)
    fg = Tensor(np.asarray(diff, dtype=np.float64).reshape(1, 1, 1, c),
                requires_grad=True)
    bg = Tensor(np.zeros((1, 1, 1, c)))
    return MaskedFeatureSummary(fg_mean=fg, bg_mean=bg, fg_count=1.0,
                                bg_count=1.0, per_sample_fg=fg,
                                per_sample_bg=bg)


def test_fd_zero_separation_hits_clamp():
    s = summary_from_diff([0.0, 0.0])
    assert fd_loss(s).item() == pytest.approx(-math.log(1e-12), rel=1e-6)
    assert fd_loss(s).item() == pytest.approx(27.631, abs=0.01)


def test_fd_unit_separation_is_zero():
    assert fd_loss(summary_from_diff([1.0])).item() == pytest.approx(0.0, abs=1e-9)


def test_fd_direct_arithmetic():
    loss = fd_loss(summary_from_diff([0.3, -0.4])).item()
    assert loss == pytest.approx(-math.log(0.25), rel=1e-9)
    assert loss == pytest.approx(1.386294, abs=1e-5)


def test_fd_scale_law():
    rng = np.random.default_rng(16)
    f = rng.random((2, 4, 4, 3)) + 0.1
    m = binary_mask((2, 4, 4, 1), 0.5, seed=17)
    base = fd_loss(feature_summary(Tensor(f), tb(m))).item()
    for c in (0.5, 2.0, 7.3):
        scaled = fd_loss(feature_summary(Tensor(c * f), tb(m))).item()
        assert scaled == pytest.approx(base - 2.0 * math.log(c), abs=1e-5)


def test_fd_mask_complement_symmetry():
    rng = np.random.default_rng(18)
    f = Tensor(rng.random((2, 4, 4, 3)))
    m = binary_mask((2, 4, 4, 1), 0.5, seed=19)
    a = fd_loss(feature_summary(f, tb(m))).item()
    b = fd_loss(feature_summary(f, tb(1.0 - m))).item()
    assert a == pytest.approx(b, abs=1e-6)


# -- fd_exch_loss -------------------------------------------------------------------

def batch_summary(n, c, seed):
    rng = np.random.default_rng(seed)
    f = Tensor(rng.random((n, 8, 8, c)))
    m = tb(binary_mask((n, 8, 8, 1), 0.5, seed=seed + 1))
    return feature_summary(f, m)


def exch_oracle(fg, bg, pairing):
    vals = []
    for i, j in enumerate(pairing):
        d1 = ((fg[i] - bg[j]) ** 2).sum()
        d2 = ((fg[j] - bg[i]) ** 2).sum()
        vals.append(-math.log(d1 + d2 + 1e-12))
    return float(np.mean(vals))


def test_exch_single_sample_degenerates():
    s = batch_summary(1, 3, seed=20)
    loss, warn = fd_exch_loss(s)
    diff = s.per_sample_fg.values[0] - s.per_sample_bg.values[0]
    expected = -math.log(2.0 * (diff ** 2).sum() + 1e-12)
    assert warn is None
    assert loss.item() == pytest.approx(expected, rel=1e-5)


def test_exch_identical_summaries_ignore_pairing():
    fg_row = np.random.default_rng(21).random((1, 1, 1, 3))
    fg = Tensor(np.repeat(fg_row, 4, axis=0))
    bg = Tensor(np.zeros((4, 1, 1, 3)))
    s = MaskedFeatureSummary(fg_mean=Tensor(fg_row), bg_mean=Tensor(np.zeros((1, 1, 1, 3))),
                             fg_count=1.0, bg_count=1.0,
                             per_sample_fg=fg, per_sample_bg=bg)
    expected = -math.log(2.0 * (fg_row ** 2).sum() + 1e-12)
    for seed in range(5):
        loss, _ = fd_exch_loss(s, seed=seed)
        assert loss.item() == pytest.approx(expected, rel=1e-5)


def test_exch_fixed_offset_matches_pairwise_oracle():
    s = batch_summary(4, 2, seed=22)
    loss, _ = fd_exch_loss(s, shuffle_offset=1, seed=0)
    fg = s.per_sample_fg.values.reshape(4, -1).astype(np.float64)
    bg = s.per_sample_bg.values.reshape(4, -1).astype(np.float64)
    perm = np.random.default_rng(0).permutation(4)
    pairing = np.empty(4, dtype=int)
    pairing[perm] = perm[(np.arange(4) + 1) % 4]
    assert loss.item() == pytest.approx(exch_oracle(fg, bg, pairing), rel=1e-4)


def test_exch_base_novel_tags_pair_across_sources():
    s = batch_summary(4, 2, seed=23)
    tags = ["base", "novel", "base", "novel"]
    loss, warn = fd_exch_loss(s, source_tags=tags, seed=0)
    assert warn is None
    fg = s.per_sample_fg.values.reshape(4, -1).astype(np.float64)
    bg = s.per_sample_bg.values.reshape(4, -1).astype(np.float64)
    # base indices 0,2 pair with novel 1,3 in order and vice versa
    assert loss.item() == pytest.approx(exch_oracle(fg, bg, [1, 0, 3, 2]), rel=1e-4)


def test_exch_unequal_source_counts_pair_cyclically():
    s = batch_summary(5, 2, seed=27)
    tags = ["novel", "base", "novel", "novel", "base"]
    loss, warn = fd_exch_loss(s, source_tags=tags, seed=0)
    assert warn is None
    fg = s.per_sample_fg.values.reshape(5, -1).astype(np.float64)
    bg = s.per_sample_bg.values.reshape(5, -1).astype(np.float64)
    # base 1,4 take novel 0,2; novel 0,2,3 cycle through base 1,4,1
    assert loss.item() == pytest.approx(exch_oracle(fg, bg, [1, 0, 4, 1, 2]),
                                        rel=1e-4)


def test_exch_single_source_falls_back_with_warning():
    s = batch_summary(3, 2, seed=24)
    loss, warn = fd_exch_loss(s, source_tags=["base", "base", "base"], seed=1)
    assert warn is not None
    assert np.isfinite(loss.item())


def test_exch_permutation_invariance_vs_oracle():
    for n in (2, 3, 4, 5):
        s = batch_summary(n, 2, seed=30 + n)
        fg = s.per_sample_fg.values.reshape(n, -1).astype(np.float64)
        bg = s.per_sample_bg.values.reshape(n, -1).astype(np.float64)
        for k in range(1, n):
            perm = np.random.default_rng(k).permutation(n)
            pairing = np.empty(n, dtype=int)
            pairing[perm] = perm[(np.arange(n) + k) % n]
            loss, _ = fd_exch_loss(s, shuffle_offset=k, seed=k)
            assert loss.item() == pytest.approx(exch_oracle(fg, bg, pairing),
                                                rel=1e-4)


def test_exch_gradient_flows_to_features():
    rng = np.random.default_rng(25)
    f = Tensor(rng.random((2, 4, 4, 2)), requires_grad=True)
    m = tb(binary_mask((2, 4, 4, 1), 0.5, seed=26))
    loss, _ = fd_exch_loss(feature_summary(f, m), shuffle_offset=1, seed=0)
    backward(loss)
    assert f.grad is not None and np.any(f.grad != 0)


# -- alpha schedule -----------------------------------------------------------------

def test_alpha_stays_zero_during_warmup():
    state = AlphaState.fresh(3, eta_alpha=0.5)
    out = alpha_update(state, np.array([5.0, 5.0, 5.0]), step=3, warmup_steps=10)
    assert out.phase == "warmup"
    assert np.all(out.alpha == 0)


def test_alpha_unchanged_at_target():
    state = AlphaState(np.array([0.2, 0.3]), "active", tau=1.5, eta_alpha=0.1,
                       alpha_max=1.0)
    out = alpha_update(state, np.array([1.5, 1.5]), step=20, warmup_steps=10)
    np.testing.assert_allclose(out.alpha, [0.2, 0.3])


def test_alpha_ascent_arithmetic():
    state = AlphaState(np.zeros(3), "active", tau=0.0, eta_alpha=0.01,
                       alpha_max=1.0)
    out = alpha_update(state, np.array([2.0, 1.0, 3.0]), step=20, warmup_steps=10)
    np.testing.assert_allclose(out.alpha, [0.02, 0.01, 0.03], atol=1e-12)


def test_alpha_clamped_to_bounds():
    state = AlphaState(np.array([0.99, 0.01]), "active", tau=0.0,
                       eta_alpha=1.0, alpha_max=1.0)
    out = alpha_update(state, np.array([5.0, -5.0]), step=20, warmup_steps=10)
    np.testing.assert_allclose(out.alpha, [1.0, 0.0])


# -- total_loss ---------------------------------------------------------------------

def fake_taps(n=2, c=4, seed=27):
    rng = np.random.default_rng(seed)
    taps = []
    pooled = []
    for i, (size, factor) in enumerate([(8, 1), (4, 2), (8, 1)]):
        act = Tensor(rng.random((n, size, size, c)), requires_grad=True)
        taps.append(FeatureTap(name=f"tap_{i}", activation=act,
                               downsample_factor=factor))
        pooled.append(tb(binary_mask((n, size, size, 1), 0.5, seed=seed + i)))
    return taps, pooled


def test_total_warmup_is_seg_bit_for_bit():
    rng = np.random.default_rng(28)
    pred = Tensor(rng.uniform(0.01, 0.99, size=(2, 8, 8, 1)).astype(np.float32))
    target = tb(binary_mask((2, 8, 8, 1), 0.4, seed=29))
    taps, pooled = fake_taps()
    state = AlphaState.fresh(3)
    bd = total_loss(pred, target, taps, pooled, state)
    seg, _, _ = seg_loss(pred, target)
    assert bd.total_tensor.values.tobytes() == seg.values.tobytes()
    assert bd.total == seg.item()


def test_total_skips_a_nonfinite_term_whose_alpha_is_zero():
    """A float32 tap whose ||F-B||^2 overflows has fd = fd_exch = -inf. Where
    its alpha is 0 (all of warmup) it adds nothing to the total, not
    0 * -inf = NaN, so the total is seg plus the other weighted terms."""
    rng = np.random.default_rng(39)
    pred = Tensor(rng.uniform(0.01, 0.99, size=(2, 8, 8, 1)).astype(np.float32))
    target = tb(binary_mask((2, 8, 8, 1), 0.4, seed=40))
    taps, pooled = fake_taps(seed=41)
    huge = np.float32(1e20) * np.broadcast_to(pooled[1].values, (2, 4, 4, 4))
    taps[1] = FeatureTap("tap_1", Tensor(huge), 2)
    for alpha in ([0.0, 0.0, 0.0], [0.3, 0.0, 0.5]):
        with np.errstate(over="ignore"):
            bd = total_loss(pred, target, taps, pooled,
                            AlphaState(np.array(alpha)), exch_enabled=True)
        assert bd.fd_per_tap[1] == bd.fd_exch_per_tap[1] == -math.inf
        expected = bd.seg + sum(a * (f + e) for a, f, e in zip(
            alpha, bd.fd_per_tap, bd.fd_exch_per_tap) if a)
        assert bd.total == pytest.approx(expected, abs=1e-6)
        assert math.isfinite(bd.total_tensor.item())


def test_total_single_tap_alpha_one():
    rng = np.random.default_rng(30)
    pred = Tensor(rng.uniform(0.01, 0.99, size=(1, 8, 8, 1)))
    target = tb(binary_mask((1, 8, 8, 1), 0.4, seed=31))
    taps, pooled = fake_taps(n=1)
    taps, pooled = taps[:1], pooled[:1]
    state = AlphaState(np.array([1.0]), "active")
    bd = total_loss(pred, target, taps, pooled, state)
    assert bd.total == pytest.approx(bd.seg + bd.fd_per_tap[0], abs=1e-6)


def test_total_breakdown_identity():
    rng = np.random.default_rng(32)
    pred = Tensor(rng.uniform(0.01, 0.99, size=(2, 8, 8, 1)))
    target = tb(binary_mask((2, 8, 8, 1), 0.5, seed=33))
    taps, pooled = fake_taps(seed=34)
    state = AlphaState(np.array([0.3, 0.7, 0.0]), "active")
    bd = total_loss(pred, target, taps, pooled, state, exch_enabled=True,
                    exch_seed=5)
    expected = bd.seg + sum(a * (f + e) for a, f, e in
                            zip(state.alpha, bd.fd_per_tap, bd.fd_exch_per_tap))
    assert bd.total == pytest.approx(expected, abs=1e-6)
    assert bd.seg == pytest.approx(bd.dice + bd.bce, abs=1e-6)


def test_total_tap_mask_count_mismatch():
    rng = np.random.default_rng(35)
    pred = Tensor(rng.uniform(0.01, 0.99, size=(1, 8, 8, 1)))
    target = tb(binary_mask((1, 8, 8, 1), 0.4, seed=36))
    taps, pooled = fake_taps(n=1)
    with pytest.raises(ContractError):
        total_loss(pred, target, taps, pooled[:2], AlphaState.fresh(3))


def test_composite_loss_gradient_check():
    from fdseg.tensor import grad_check

    target = binary_mask((1, 8, 8, 1), 0.4, seed=37)
    mask_t = tb(target)

    def composite(t):
        from fdseg.tensor import sigmoid
        pred = sigmoid(t)
        taps = [FeatureTap(name="t0", activation=t, downsample_factor=1)]
        state = AlphaState(np.array([0.5]), "active")
        bd = total_loss(pred, mask_t, taps, [mask_t], state)
        return bd.total_tensor

    x = np.random.default_rng(38).uniform(-1, 1, size=(1, 8, 8, 1))
    assert grad_check(composite, Tensor(x)) < 1e-3


@pytest.mark.parametrize("loss", [dice_loss, bce_loss])
def test_seg_loss_terms_reject_a_shape_mismatch(loss):
    pred = Tensor(np.full((1, 4, 4, 1), 0.5, np.float32))
    target = Tensor(np.zeros((1, 4, 2, 1), np.float32))
    with pytest.raises(ContractError, match=r"shape mismatch: \(1, 4, 4, 1\) "
                                            r"vs \(1, 4, 2, 1\)"):
        loss(pred, target)


@pytest.mark.parametrize("factor", [0, 3, 6])
def test_pool_mask_rejects_a_factor_that_is_not_a_power_of_two(factor):
    mask = Tensor(np.zeros((1, 12, 12, 1), np.float32))
    with pytest.raises(DimensionError,
                       match=f"factor must be a power of two, got {factor}"):
        pool_mask(mask, factor)


def test_fd_exch_rejects_a_tag_count_other_than_the_batch_size():
    mask = np.zeros((2, 4, 4, 1), np.float32)
    mask[:, :2] = 1.0
    summary = feature_summary(Tensor(np.ones((2, 4, 4, 3), np.float32)),
                              Tensor(mask))
    with pytest.raises(ContractError, match="3 tags for batch of 2"):
        fd_exch_loss(summary, source_tags=["base", "novel", "base"])


@pytest.mark.parametrize("kwargs", [{"shuffle_offset": 1}, {"shuffle_offset": 3},
                                    {"source_tags": ["base"]},
                                    {"source_tags": ["novel"]}],
                         ids=["offset_1", "offset_3", "base_tag", "novel_tag"])
def test_exch_single_sample_pairs_with_itself(kwargs):
    s = batch_summary(1, 3, seed=20)
    diff = s.per_sample_fg.values[0] - s.per_sample_bg.values[0]
    expected = -math.log(2.0 * (diff ** 2).sum() + 1e-12)
    loss, warn = fd_exch_loss(s, seed=5, **kwargs)
    assert loss.item() == pytest.approx(expected, rel=1e-5)
    assert loss.values.tobytes() == fd_exch_loss(s)[0].values.tobytes()
    assert (warn is not None) == ("source_tags" in kwargs)
