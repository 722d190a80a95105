"""Two-phase SGD training loop with warm-started alpha, best-checkpoint
selection on validation Dice, and evaluation metrics."""
from __future__ import annotations

import contextlib
import csv
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .data import SiteSample, add_gaussian_noise, augment
from .losses import (AlphaState, LossBreakdown, alpha_update, feature_summary,
                     neg_log_sq_norm, pool_mask, total_loss)
# perfbench/spans.py wraps fdseg.trainer.fd_loss, so the name stays importable.
from .losses import fd_loss  # noqa: F401
from .tensor import Tensor, ContractError, _openblas, backward, no_grad
from .unet import UNet

# loss mode -> (per-tap fd penalty on, fd_exch added to it): the objective
# L_seg + sum_l alpha_l * (fd_l [+ fd_exch_l]) of losses.total_loss
LOSS_TABLE = {
    "seg_only": (False, False),
    "seg+fd": (True, False),
    "seg+fd+exch": (True, True),
}
LOSS_MODES = tuple(LOSS_TABLE)
MOMENTUM = 0.9
EVAL_THRESHOLD, EVAL_BATCH = 0.5, 16    # evaluate()'s foreground cut, chunk size
# evaluate()'s pixels per chunk: 32x32 images keep 16-sample chunks, larger
# ones get fewer samples, so that a default U-Net's largest patch matrix
# (dec2_conv1's, 16384 rows of 144 float32) is at most 9.4 MB at any size
EVAL_PIXELS = EVAL_BATCH * 32 * 32


@dataclass
class TrainConfig:
    phase1_epochs: int = 40
    phase2_epochs: int = 30
    batch_size: int = 8
    lr: float = 0.05
    seed: int = 0
    loss_mode: str = "seg+fd"
    augment_train: bool = True
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.phase1_epochs < 1:
            raise ContractError("phase1_epochs must be >= 1 (warm start is mandatory)")
        for name in ("phase2_epochs", "noise_sigma", "seed"):
            value = getattr(self, name)
            if value < 0:
                raise ContractError(f"{name} must be >= 0, got {value}")
        if self.lr <= 0 or self.batch_size < 1:
            raise ContractError("lr must be > 0 and batch_size >= 1")
        for name in ("lr", "noise_sigma"):
            if not math.isfinite(value := getattr(self, name)):
                raise ContractError(f"{name} must be finite, got {value}")
        if self.loss_mode not in LOSS_MODES:
            raise ContractError(f"unknown loss_mode {self.loss_mode!r}")


class TrainingAborted(RuntimeError):
    def __init__(self, message: str, last_good: Optional[UNet] = None):
        super().__init__(message)
        self.last_good = last_good


@dataclass
class EpochRecord:
    epoch: int
    phase: int
    total: float
    seg: float
    dice_loss: float
    bce: float
    fd_per_tap: list[float]
    fd_exch_per_tap: list[float]
    alpha: list[float]
    val_dice: float


@dataclass
class MetricsRecord:
    sample_id: int
    dice: float
    iou: float
    fd_last_decoder: float


@dataclass
class WorstOffPartition:
    threshold: float
    worst: list[int] = field(default_factory=list)
    best: list[int] = field(default_factory=list)
    warning: Optional[str] = None


def _batch_arrays(samples: Sequence[SiteSample]) -> tuple[Tensor, Tensor, list[str]]:
    imgs = np.stack([s.image for s in samples]).astype(np.float32, copy=False)
    masks = np.stack([s.mask for s in samples]).astype(np.float32, copy=False)
    return Tensor(imgs), Tensor(masks), [s.source for s in samples]


def _first_nonfinite_tap(pred: Tensor, taps, bd: LossBreakdown,
                         alpha: np.ndarray) -> str:
    """What made a step's total non-finite: the first tap whose activation is
    non-finite, else the first tap with alpha != 0 whose fd or fd_exch term
    is. The total adds only those terms to the seg loss, and alpha_update
    keeps alpha finite, so otherwise the seg loss is non-finite: "prediction"
    when pred is, else "segmentation loss"."""
    for tap in taps:
        if not np.all(np.isfinite(tap.activation.values)):
            return tap.name
    exch = bd.fd_exch_per_tap or [0.0] * len(bd.fd_per_tap)
    for tap, a, fd, ex in zip(taps, alpha, bd.fd_per_tap, exch):
        if a != 0 and not (math.isfinite(fd) and math.isfinite(ex)):
            return tap.name
    if not np.all(np.isfinite(pred.values)):
        return "prediction"
    return "segmentation loss"


class _SGD:
    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.velocity = {k: np.zeros_like(p.values) for k, p in params.items()}

    def step(self) -> None:
        for k, p in self.params.items():
            v = self.velocity[k] = MOMENTUM * self.velocity[k] + p.grad
            p.values -= self.lr * v
            p.grad = None


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _sgd_step(model: UNet, opt: _SGD, batch: Sequence[SiteSample],
              state: AlphaState, fd: bool, exch: bool,
              exch_seed: int) -> LossBreakdown:
    """One forward, backward and update. The returned breakdown holds floats
    only, so the step's graph is freed when this returns. Overflow on the way
    to a non-finite loss raises TrainingAborted, not a RuntimeWarning."""
    images, masks, sources = _batch_arrays(batch)
    pred, taps = model.forward(images)
    aux_taps = taps if fd else []
    factors = [tap.downsample_factor for tap in aux_taps]
    pooled = {f: pool_mask(masks, f) for f in set(factors)}     # once per factor
    bd = total_loss(pred, masks, aux_taps, [pooled[f] for f in factors], state,
                    exch_enabled=exch, source_tags=sources, exch_seed=exch_seed)
    if not math.isfinite(bd.total):
        raise TrainingAborted(
            f"first bad tap: {_first_nonfinite_tap(pred, taps, bd, state.alpha)}")
    backward(bd.total_tensor)
    opt.step()
    bd.total_tensor = None
    return bd


def train(config: TrainConfig, model: UNet,
          datasets: dict[str, list[SiteSample]]) -> tuple[UNet, list[EpochRecord]]:
    """Phase 1 runs with alpha in warmup; phase 2 activates multiplier ascent per
    batch. Returns the checkpoint with the highest validation Dice plus the
    per-epoch history."""
    for split in ("train", "val"):
        if not datasets[split]:
            raise ContractError(f"train() needs a non-empty {split} split")
    train_set = list(datasets["train"])
    if config.augment_train:
        train_set = [aug for s in train_set for aug in augment(s)]
    if config.noise_sigma > 0:
        train_set = [replace(s, image=add_gaussian_noise(
            s.image, config.noise_sigma, seed=config.seed ^ (i + 1)))
            for i, s in enumerate(train_set)]
    val_set = datasets["val"]

    fd, exch = LOSS_TABLE[config.loss_mode]
    opt = _SGD(model.params, config.lr)
    state = AlphaState.fresh(len(model.config.tap_names()))
    data_rng = np.random.default_rng(config.seed)
    aux_seed = config.seed * 9973 + 11

    history: list[EpochRecord] = []
    best_model = model.clone()
    best_val = -1.0
    total_epochs = config.phase1_epochs + config.phase2_epochs
    steps_per_epoch = math.ceil(len(train_set) / config.batch_size)
    warmup_steps = config.phase1_epochs * steps_per_epoch
    step = 0

    for epoch in range(total_epochs):
        phase = 1 if epoch < config.phase1_epochs else 2
        order = data_rng.permutation(len(train_set))
        ep_rows: list[LossBreakdown] = []
        for start in range(0, len(train_set), config.batch_size):
            batch = [train_set[i] for i in order[start:start + config.batch_size]]
            try:
                bd = _sgd_step(model, opt, batch, state, fd, exch,
                               aux_seed + step)
            except TrainingAborted as exc:
                raise TrainingAborted(f"non-finite loss at epoch {epoch}, {exc}",
                                      last_good=best_model) from None
            if fd:
                state = alpha_update(state, np.asarray(bd.fd_per_tap),
                                     step=step, warmup_steps=warmup_steps)
            ep_rows.append(bd)
            step += 1

        val_dice = float(np.mean([r.dice for r in evaluate(model, val_set)]))
        if val_dice > best_val:
            best_val = val_dice
            best_model = model.clone()

        n_rows = len(ep_rows)
        history.append(EpochRecord(
            epoch=epoch, phase=phase,
            total=sum(r.total for r in ep_rows) / n_rows,
            seg=sum(r.seg for r in ep_rows) / n_rows,
            dice_loss=sum(r.dice for r in ep_rows) / n_rows,
            bce=sum(r.bce for r in ep_rows) / n_rows,
            fd_per_tap=list(np.mean([r.fd_per_tap for r in ep_rows], axis=0)),
            fd_exch_per_tap=list(np.mean([r.fd_exch_per_tap for r in ep_rows],
                                         axis=0)),
            alpha=list(map(float, state.alpha)),
            val_dice=val_dice))

    return best_model, history


def blas_threads() -> int:
    """OpenBLAS threads in effect in this process; 1 when numpy's bundled
    library is missing."""
    get = _openblas("get_num_threads")
    return get() if get is not None else 1


def set_blas_threads(n: int) -> None:
    """Set this process's OpenBLAS thread count; does nothing when numpy's
    bundled library is missing."""
    set_ = _openblas("set_num_threads")
    if set_ is not None:
        set_(n)


@contextlib.contextmanager
def one_blas_thread():
    """OpenBLAS at one thread in this process for the block; the count it had
    before is restored however the block ends. A process forked inside the
    block inherits the one thread and must not call set_blas_threads itself:
    OpenBLAS restarts its thread pool on the first set after a fork, and the
    new idle thread spins beside the work."""
    threads = blas_threads()
    set_blas_threads(1)
    try:
        yield
    finally:
        set_blas_threads(threads)


# here, not in evaluate(): an errstate does not reach the pool's threads
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _evaluate_chunk(model: UNet, chunk: Sequence[SiteSample]) -> list[MetricsRecord]:
    images, masks, _ = _batch_arrays(chunk)
    pred, taps = model.forward(images)
    s = feature_summary(taps[-1].activation, masks)
    fds = neg_log_sq_norm(s.per_sample_fg - s.per_sample_bg, axis=3).values
    hard, fg = pred.values > EVAL_THRESHOLD, masks.values > 0
    counts = [np.count_nonzero(m, axis=(1, 2, 3)).tolist()
              for m in (hard & fg, hard, fg)]
    records = []
    for sample, inter, a, b, fd in zip(chunk, *counts, fds[:, 0, 0, 0].tolist()):
        union = a + b - inter
        records.append(MetricsRecord(
            sample_id=sample.id, dice=2.0 * inter / (a + b) if a + b else 1.0,
            iou=inter / union if union else 1.0, fd_last_decoder=fd))
    return records


def evaluate(model: UNet, dataset: Sequence[SiteSample]) -> list[MetricsRecord]:
    """Per-sample hard Dice/IoU at EVAL_THRESHOLD (ties -> background) plus
    the feature discrepancy of the last decoder tap against the true mask.
    The forward builds no graph; a chunk holds at most EVAL_BATCH samples and,
    past its first sample, at most EVAL_PIXELS pixels.

    The full chunks run on a thread pool, one thread per OpenBLAS thread and
    at least two full chunks per thread, with OpenBLAS set to one thread
    meanwhile: the kit's skinny GEMMs gain little from a second BLAS thread.
    Otherwise (one OpenBLAS thread, as in a sweep worker, or too few chunks)
    they run one after another. The short tail chunk runs last, on the
    calling thread. A chunk gives the same bytes on any thread."""
    if not dataset:
        raise ContractError("evaluate requires a non-empty dataset")
    h, w = dataset[0].image.shape[:2]
    size = max(1, min(EVAL_BATCH, EVAL_PIXELS // (h * w)))
    chunks = [dataset[start:start + size]
              for start in range(0, len(dataset), size)]
    n_full = len(dataset) // size
    width = min(blas_threads(), n_full // 2)
    run = functools.partial(_evaluate_chunk, model)
    with no_grad():
        if width > 1:
            with one_blas_thread(), ThreadPoolExecutor(max_workers=width) as pool:
                parts = list(pool.map(run, chunks[:n_full]))
            parts += map(run, chunks[n_full:])
        else:
            parts = list(map(run, chunks))
    return [r for part in parts for r in part]


def partition_worst_off(records: Sequence[MetricsRecord],
                        threshold: float) -> WorstOffPartition:
    """Worst = records with dice < threshold; best = equally many from the top."""
    if not 0.0 < threshold < 1.0:
        raise ContractError(f"threshold must be in (0,1), got {threshold}")
    ordered = sorted(records, key=lambda r: r.dice)
    worst = [r for r in ordered if r.dice < threshold]
    if not worst or len(worst) == len(ordered):
        return WorstOffPartition(threshold, [], [],
                                 warning="degenerate worst-off partition")
    best = ordered[-len(worst):]
    return WorstOffPartition(threshold,
                             [r.sample_id for r in worst],
                             [r.sample_id for r in best])


def one_sample_t_test(baseline: float,
                      runs: Sequence[float]) -> tuple[float, float, bool]:
    """Two-sided one-sample t-test of runs against a fixed baseline.

    Returns (t, p, degenerate_variance). Zero variance gives p=0 when the mean
    differs from the baseline, else p=1. A non-finite run or baseline (the
    NaN score of a failed sweep cell) is an error.
    """
    runs = list(map(float, runs))
    n = len(runs)
    if n < 2:
        raise ContractError("one_sample_t_test needs at least 2 runs")
    if not all(map(math.isfinite, [baseline, *runs])):
        raise ContractError(f"one_sample_t_test needs finite values, got "
                            f"baseline {baseline} and runs {runs}")
    mean = sum(runs) / n
    var = sum((r - mean) ** 2 for r in runs) / (n - 1)
    if var == 0.0 or all(r == runs[0] for r in runs):
        shifted = runs[0] != baseline
        return (math.inf if shifted else 0.0, 0.0 if shifted else 1.0, True)
    t = (mean - baseline) / math.sqrt(var / n)
    from scipy import special   # lazily: it more than doubles fdseg's import time
    p = 2.0 * float(special.stdtr(n - 1, -abs(t)))
    return t, p, False


# -- CSV emission ---------------------------------------------------------------

def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The kit's one CSV writer: floats as six decimals, the rest as they are."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows([f"{v:.6f}" if isinstance(v, (float, np.floating)) else v
                      for v in row] for row in rows)


def write_history_csv(path: str, history: Sequence[EpochRecord],
                      tap_names: Sequence[str]) -> None:
    has_fd = any(r.fd_per_tap for r in history)
    has_exch = any(r.fd_exch_per_tap for r in history)
    prefixes = ["fd_"] * has_fd + ["fd_exch_"] * has_exch + ["alpha_"] * has_fd
    header = ["epoch", "phase", "total", "seg", "dice_loss", "bce",
              *(p + t for p in prefixes for t in tap_names), "val_dice"]
    write_csv(path, header, (
        [r.epoch, r.phase, r.total, r.seg, r.dice_loss, r.bce,
         *r.fd_per_tap, *r.fd_exch_per_tap, *(r.alpha if has_fd else []),
         r.val_dice]
        for r in history))


def write_eval_csv(path: str, records: Sequence[MetricsRecord]) -> None:
    write_csv(path, [f.name for f in fields(MetricsRecord)], map(astuple, records))
