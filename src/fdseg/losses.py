"""Training objectives: Dice, BCE, layer-wise feature-discrepancy penalties,
the cross-sample exchangeable variant, and the warm-started alpha schedule."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .tensor import (Tensor, ContractError, DimensionError, clamp, index_batch,
                     log, maxpool2d, square, tsum)
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
    n = float(np.prod(pred.shape))
    ll = target * log(p) + (1.0 - target) * log(1.0 - p)
    return -tsum(ll) * (1.0 / n)


def seg_loss(pred: Tensor, target: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    d = dice_loss(pred, target)
    b = bce_loss(pred, target)
    return d + b, d, b


def pool_mask(mask: Tensor, factor: int) -> Tensor:
    """Downsample a binary mask so an output pixel is 1 iff any covered pixel is 1."""
    if factor < 1 or factor & (factor - 1):
        raise DimensionError(f"factor must be a power of two, got {factor}")
    out = mask
    f = factor
    while f > 1:
        out = maxpool2d(out, 2)
        f //= 2
    return out.detach() if out is not mask else mask


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


def feature_summary(features: Tensor, mask: Tensor) -> MaskedFeatureSummary:
    n, h, w, c = features.shape
    if mask.shape != (n, h, w, 1):
        raise ContractError(
            f"mask {mask.shape} does not match feature resolution {features.shape}")
    _check_binary(mask)
    mv = mask.values
    fg_cnt = mv.sum(axis=(1, 2, 3), keepdims=True)          # (n,1,1,1), constant
    bg_cnt = (1.0 - mv).sum(axis=(1, 2, 3), keepdims=True)
    fg_cnt_t = Tensor(fg_cnt.astype(features.dtype))
    bg_cnt_t = Tensor(bg_cnt.astype(features.dtype))
    fg = tsum(features * mask, axis=(1, 2)) / (fg_cnt_t + DICE_EPS)
    bg = tsum(features * (1.0 - mask), axis=(1, 2)) / (bg_cnt_t + DICE_EPS)
    return MaskedFeatureSummary(
        fg_mean=tsum(fg, axis=0) * (1.0 / n),
        bg_mean=tsum(bg, axis=0) * (1.0 / n),
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


def fd_term(summary: MaskedFeatureSummary, tap: FeatureTap,
            pooled_mask: Tensor) -> Tensor:
    """The paper's per-tap term: fd_loss of the tap's summary."""
    return fd_loss(summary)


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
    rng = np.random.default_rng(seed)

    pairing = None
    if source_tags is not None:
        tags = list(source_tags)
        if len(tags) != n:
            raise ContractError(f"{len(tags)} tags for batch of {n}")
        base_idx = [i for i, t in enumerate(tags) if t == "base"]
        novel_idx = [i for i, t in enumerate(tags) if t != "base"]
        if base_idx and novel_idx:
            pairing = np.empty(n, dtype=np.int64)
            for pos, i in enumerate(base_idx):
                pairing[i] = novel_idx[pos % len(novel_idx)]
            for pos, i in enumerate(novel_idx):
                pairing[i] = base_idx[pos % len(base_idx)]
        else:
            warning = "fd_exch: single-source batch, falling back to offset pairing"

    if pairing is None:
        if n == 1:
            pairing = np.zeros(1, dtype=np.int64)
        else:
            perm = rng.permutation(n)
            k = int(shuffle_offset) if shuffle_offset is not None \
                else int(rng.integers(1, n))
            pairing = np.empty(n, dtype=np.int64)
            pairing[perm] = perm[(np.arange(n) + k) % n]

    bg_j = index_batch(bg, pairing)
    fg_j = index_batch(fg, pairing)
    d1 = tsum(square(fg - bg_j), axis=3)      # (n,1,1,1)
    d2 = tsum(square(fg_j - bg), axis=3)
    per = -log(d1 + d2 + FD_EPS)
    return tsum(per, axis=0) * (1.0 / n), warning


@dataclass
class AlphaState:
    """Per-tap penalty weights with warm-start bookkeeping."""
    alpha: np.ndarray
    phase: str = "warmup"           # "warmup" | "active"
    tau: float = 0.0
    eta_alpha: float = 1e-3
    alpha_max: float = 1.0

    @classmethod
    def fresh(cls, n_taps: int, tau: float = 0.0, eta_alpha: float = 1e-3,
              alpha_max: float = 1.0) -> "AlphaState":
        return cls(np.zeros(n_taps, dtype=np.float64), "warmup", tau, eta_alpha,
                   alpha_max)


def alpha_update(state: AlphaState, fd_per_tap: np.ndarray, step: int,
                 warmup_steps: int) -> AlphaState:
    """Multiplier ascent: raise alpha_l while tap l's discrepancy exceeds tau."""
    if step < warmup_steps:
        return AlphaState(np.zeros_like(state.alpha), "warmup", state.tau,
                          state.eta_alpha, state.alpha_max)
    new = state.alpha + state.eta_alpha * (np.asarray(fd_per_tap, np.float64)
                                           - state.tau)
    new = np.clip(new, 0.0, state.alpha_max)
    return AlphaState(new, "active", state.tau, state.eta_alpha, state.alpha_max)


@dataclass
class LossBreakdown:
    seg: float
    dice: float
    bce: float
    fd_per_tap: list[float] = field(default_factory=list)
    fd_exch_per_tap: Optional[list[float]] = None
    total: float = 0.0
    warning: Optional[str] = None
    total_tensor: Optional[Tensor] = None


def total_loss(pred: Tensor, target: Tensor, taps: Sequence[FeatureTap],
               pooled_masks: Sequence[Tensor], state: AlphaState,
               exch_enabled: bool = False,
               source_tags: Optional[Sequence[str]] = None,
               exch_seed: int = 0,
               term: Callable[[MaskedFeatureSummary, FeatureTap, Tensor],
                              Optional[Tensor]] = fd_term) -> LossBreakdown:
    """Composite objective: L_seg + sum_l alpha_l * (term_l [+ fd_exch_l]).

    term maps a tap's feature summary, the tap and its pooled mask to the tap's
    auxiliary loss, or to None where the tap has none; its value is reported
    in fd_per_tap (0.0 for None) and drives alpha_update. alpha values enter as
    constants; they are updated by alpha_update, never by backward. During
    warmup the returned total tensor IS the seg tensor, so the phase-1
    trajectory is bit-identical to a seg-only run.
    """
    if len(taps) != len(pooled_masks):
        raise ContractError(
            f"{len(taps)} taps but {len(pooled_masks)} pooled masks")
    seg_t, dice_t, bce_t = seg_loss(pred, target)

    fd_vals: list[float] = []
    exch_vals: Optional[list[float]] = [] if exch_enabled else None
    warning = None
    total_t = seg_t
    for i, (tap, pm) in enumerate(zip(taps, pooled_masks)):
        if pm.shape[1:3] != tap.activation.shape[1:3]:
            raise ContractError(
                f"tap {tap.name}: pooled mask {pm.shape} vs activation "
                f"{tap.activation.shape}")
        summary = feature_summary(tap.activation, pm)
        contrib = term(summary, tap, pm)
        fd_vals.append(0.0 if contrib is None else contrib.item())
        a = float(state.alpha[i])
        if exch_enabled:
            ex_t, warn = fd_exch_loss(summary, source_tags=source_tags,
                                      seed=exch_seed + i)
            exch_vals.append(ex_t.item())
            if warn and warning is None:
                warning = warn
            contrib = contrib + ex_t
        if a != 0.0 and contrib is not None:
            total_t = total_t + a * contrib

    # Report the scalar total in double precision so it satisfies the
    # seg + sum(alpha * contributions) identity regardless of the float32
    # rounding inside total_tensor.
    total_val = seg_t.item()
    for i in range(len(fd_vals)):
        a = float(state.alpha[i])
        c = fd_vals[i] + (exch_vals[i] if exch_enabled else 0.0)
        total_val += a * c

    return LossBreakdown(
        seg=seg_t.item(), dice=dice_t.item(), bce=bce_t.item(),
        fd_per_tap=fd_vals, fd_exch_per_tap=exch_vals,
        total=total_val, warning=warning, total_tensor=total_t)
