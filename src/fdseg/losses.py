"""Training objectives: Dice, BCE, layer-wise feature-discrepancy penalties,
the cross-sample exchangeable variant, and the warm-started alpha schedule."""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .data import BASE_SITE
from .tensor import (Tensor, ContractError, DimensionError, clamp, index_batch,
                     log, maxpool2d, no_grad, square, tmean, tsum)
from .unet import FeatureTap

DICE_EPS = 1e-6
BCE_CLAMP = 1e-7
FD_EPS = 1e-12


def _check_binary(target: Tensor) -> None:
    v = target.values
    if not np.all((v == 0) | (v == 1)):
        raise ContractError("target mask must be binary {0,1}")


def dice_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Soft Dice loss with a single global sum over the whole batch."""
    if pred.shape != target.shape:
        raise ContractError(f"shape mismatch: {pred.shape} vs {target.shape}")
    _check_binary(target)
    inter = tsum(pred * target)
    denom = tsum(pred) + tsum(target)
    return 1.0 - (2.0 * inter + DICE_EPS) / (denom + DICE_EPS)


def bce_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Pixel-mean binary cross entropy; predictions clamped to [1e-7, 1-1e-7]."""
    if pred.shape != target.shape:
        raise ContractError(f"shape mismatch: {pred.shape} vs {target.shape}")
    _check_binary(target)
    p = clamp(pred, BCE_CLAMP, 1.0 - BCE_CLAMP)
    ll = target * log(p) + (1.0 - target) * log(1.0 - p)
    return -tmean(ll)


def seg_loss(pred: Tensor, target: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    d = dice_loss(pred, target)
    b = bce_loss(pred, target)
    return d + b, d, b


def pool_mask(mask: Tensor, factor: int) -> Tensor:
    """Downsample a binary mask so an output pixel is 1 iff any covered pixel is 1."""
    if factor < 1 or factor & (factor - 1):
        raise DimensionError(f"factor must be a power of two, got {factor}")
    if factor == 1:
        return mask
    _, h, w, _ = mask.shape
    if h % factor or w % factor:
        raise DimensionError(f"mask {h}x{w} not divisible by factor {factor}",
                             axis="spatial")
    with no_grad():    # a running maximum of strided views, exact on 0/1
        return maxpool2d(mask, factor)


@dataclass
class MaskedFeatureSummary:
    """Per-channel foreground/background means of one feature map.

    fg_mean/bg_mean are batch averages (1,1,1,c); per_sample_fg/bg keep the
    per-sample means (n,1,1,c) for the exchangeable pairing. Counts are mean
    per-sample mask mass.
    """
    fg_mean: Tensor
    bg_mean: Tensor
    fg_count: float
    bg_count: float
    per_sample_fg: Tensor
    per_sample_bg: Tensor


def _masked_mean(features: Tensor, weight: np.ndarray,
                 count: np.ndarray) -> Tensor:
    """Per-sample, per-channel mean (n,1,1,c) of features weighted by a 0/1
    mask (n,h,w,1), as one node: the (h, w) sum of features * weight per
    sample and channel, then / (count + eps). With c > 1 einsum takes the
    products and adds them in the order tsum(features * weight, axis=(1, 2))
    does, without numpy's per-pixel reduce loop; with c = 1 numpy sums each
    sample's pixels pairwise, so that sum is kept."""
    n, h, w, c = features.shape
    denom = count.astype(features.dtype) + features.dtype.type(DICE_EPS)
    if c > 1:
        total = np.einsum("npc,np->nc", features.values.reshape(n, h * w, c),
                          weight.reshape(n, h * w)).reshape(n, 1, 1, c)
    else:
        total = (features.values * weight).sum(axis=(1, 2), keepdims=True)
    return Tensor(total / denom, parents=(features,), op="masked_mean",
                  grad_fn=lambda g: (
                      np.broadcast_to(g / denom, features.shape) * weight,))


def feature_summary(features: Tensor, mask: Tensor) -> MaskedFeatureSummary:
    n, h, w, c = features.shape
    if mask.shape != (n, h, w, 1):
        raise ContractError(
            f"mask {mask.shape} does not match feature resolution {features.shape}")
    _check_binary(mask)
    mv = mask.values
    bv = 1.0 - mv
    fg_cnt = mv.sum(axis=(1, 2, 3), keepdims=True)          # (n,1,1,1), constant
    bg_cnt = bv.sum(axis=(1, 2, 3), keepdims=True)
    fg = _masked_mean(features, mv, fg_cnt)
    bg = _masked_mean(features, bv, bg_cnt)
    return MaskedFeatureSummary(
        fg_mean=tmean(fg, axis=0),
        bg_mean=tmean(bg, axis=0),
        fg_count=float(fg_cnt.mean()),
        bg_count=float(bg_cnt.mean()),
        per_sample_fg=fg,
        per_sample_bg=bg,
    )


def neg_log_sq_norm(diff: Tensor, axis=None) -> Tensor:
    """-log(||diff||^2 + 1e-12), the norm taken over `axis` (all axes by default)."""
    return -log(tsum(square(diff), axis=axis) + FD_EPS)


def fd_loss(summary: MaskedFeatureSummary) -> Tensor:
    """-log(||F_g - B_g||^2 + 1e-12) on the batch-averaged summaries."""
    return neg_log_sq_norm(summary.fg_mean - summary.bg_mean)


def fd_exch_loss(summary: MaskedFeatureSummary,
                 source_tags: Optional[Sequence[str]] = None,
                 shuffle_offset: Optional[int] = None,
                 seed: int = 0) -> tuple[Tensor, Optional[str]]:
    """Cross-sample discrepancy pairing each foreground with another sample's
    background. Returns (loss, warning); warning is set when tags were supplied
    but one source is absent and pairing fell back to the shuffled offset."""
    fg = summary.per_sample_fg
    bg = summary.per_sample_bg
    n = fg.shape[0]
    warning = None
    pairing = None
    if source_tags is not None:
        tags = list(source_tags)
        if len(tags) != n:
            raise ContractError(f"{len(tags)} tags for batch of {n}")
        base_idx = [i for i, t in enumerate(tags) if t == BASE_SITE.name]
        novel_idx = [i for i, t in enumerate(tags) if t != BASE_SITE.name]
        if base_idx and novel_idx:
            pairing = np.empty(n, dtype=np.int64)
            pairing[base_idx] = np.resize(novel_idx, len(base_idx))
            pairing[novel_idx] = np.resize(base_idx, len(novel_idx))
        else:
            warning = "fd_exch: single-source batch, falling back to offset pairing"

    if pairing is None:     # offset k in [1, n); one sample pairs with itself
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        k = int(shuffle_offset) if shuffle_offset is not None \
            else int(rng.integers(1, max(n, 2)))
        pairing = np.empty(n, dtype=np.int64)
        pairing[perm] = perm[(np.arange(n) + k) % n]

    bg_j = index_batch(bg, pairing)
    fg_j = index_batch(fg, pairing)
    d1 = tsum(square(fg - bg_j), axis=3)      # (n,1,1,1)
    d2 = tsum(square(fg_j - bg), axis=3)
    per = -log(d1 + d2 + FD_EPS)
    return tmean(per, axis=0), warning


@dataclass
class AlphaState:
    """Per-tap penalty weights, warm-start bookkeeping and the ascent rates."""
    alpha: np.ndarray
    phase: str = "warmup"           # "warmup" | "active"
    tau: float = 0.0
    eta_alpha: float = 1e-3
    alpha_max: float = 1.0

    @classmethod
    def fresh(cls, n_taps: int, **rates: float) -> "AlphaState":
        return cls(np.zeros(n_taps, dtype=np.float64), **rates)


def alpha_update(state: AlphaState, fd_per_tap: np.ndarray, step: int,
                 warmup_steps: int) -> AlphaState:
    """Multiplier ascent: raise alpha_l while tap l's discrepancy exceeds tau.

    A NaN fd (inf - inf when a tap's masked sums overflow) counts as -inf, the
    fd of an overflowing ||F - B||^2: either drops that tap's alpha to 0."""
    if step < warmup_steps:
        return replace(state, alpha=np.zeros_like(state.alpha), phase="warmup")
    fd = np.asarray(fd_per_tap, np.float64)
    new = state.alpha + state.eta_alpha * (np.where(np.isnan(fd), -np.inf, fd)
                                           - state.tau)
    return replace(state, alpha=np.clip(new, 0.0, state.alpha_max), phase="active")


@dataclass
class LossBreakdown:
    seg: float
    dice: float
    bce: float
    fd_per_tap: list[float] = field(default_factory=list)
    fd_exch_per_tap: list[float] = field(default_factory=list)
    total: float = 0.0
    total_tensor: Optional[Tensor] = None


def total_loss(pred: Tensor, target: Tensor, taps: Sequence[FeatureTap],
               pooled_masks: Sequence[Tensor], state: AlphaState,
               exch_enabled: bool = False,
               source_tags: Optional[Sequence[str]] = None,
               exch_seed: int = 0) -> LossBreakdown:
    """Composite objective: L_seg + sum_l alpha_l * (fd_l [+ fd_exch_l]).

    fd_l is reported in fd_per_tap and drives alpha_update. alpha values enter
    as constants; they are updated by alpha_update, never by backward. During
    warmup the returned total tensor IS the seg tensor, so the phase-1
    trajectory is bit-identical to a seg-only run.
    """
    if len(taps) != len(pooled_masks):
        raise ContractError(
            f"{len(taps)} taps but {len(pooled_masks)} pooled masks")
    seg_t, dice_t, bce_t = seg_loss(pred, target)

    fd_vals: list[float] = []
    exch_vals: list[float] = []
    total_t = seg_t
    # Report the scalar total in double precision so it satisfies the
    # seg + sum(alpha * contributions) identity regardless of the float32
    # rounding inside total_tensor.
    total_val = seg_t.item()
    for i, (tap, pm) in enumerate(zip(taps, pooled_masks)):
        summary = feature_summary(tap.activation, pm)
        contrib_t = fd_loss(summary)
        fd_vals.append(contrib_t.item())
        contrib = fd_vals[-1]
        if exch_enabled:
            ex_t, _ = fd_exch_loss(summary, source_tags=source_tags,
                                   seed=exch_seed + i)
            exch_vals.append(ex_t.item())
            contrib_t, contrib = contrib_t + ex_t, contrib + exch_vals[-1]
        a = float(state.alpha[i])
        if a != 0.0:    # 0 * inf would make the total NaN
            total_val += a * contrib
            total_t = total_t + a * contrib_t

    return LossBreakdown(
        seg=seg_t.item(), dice=dice_t.item(), bce=bce_t.item(),
        fd_per_tap=fd_vals, fd_exch_per_tap=exch_vals,
        total=total_val, total_tensor=total_t)
