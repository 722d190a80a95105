"""Two-phase SGD training loop with warm-started alpha, best-checkpoint
selection on validation Dice, and evaluation metrics."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import special

from .data import SiteSample, add_gaussian_noise, augment
from .losses import (AlphaState, LossBreakdown, alpha_update, bce_loss,
                     fd_term, feature_summary, neg_log_sq_norm, pool_mask,
                     total_loss)
# perfbench/spans.py wraps fdseg.trainer.fd_loss, so the name stays importable.
from .losses import fd_loss  # noqa: F401
from .tensor import (Tensor, ContractError, backward, conv2d, exp, log,
                     sigmoid, sqrt, square, tsum)
from .unet import UNet


def _con_stub_term(summary, tap, pooled_mask, temperature: float = 0.1):
    """Contrastive comparison stub: push the pooled fg/bg mean vectors apart by
    penalizing their cosine similarity under a temperature softmax."""
    f, b = summary.fg_mean, summary.bg_mean
    nf = sqrt(tsum(square(f)) + 1e-8)
    nb = sqrt(tsum(square(b)) + 1e-8)
    cos = tsum(f * b) / (nf * nb)
    pos = exp(Tensor(np.full((1, 1, 1, 1), 1.0 / temperature, f.dtype)))
    neg = exp(cos * (1.0 / temperature))
    return -log(pos / (pos + neg))


def _deeps_stub(model: UNet, seed: int):
    """Deep-supervision stub: BCE of a 1x1-conv head at each decoder tap.
    Returns the per-tap term and the heads' parameters."""
    rng = np.random.default_rng([seed, 77])
    heads = {}
    for name in model.config.tap_names():
        if not name.startswith("dec_"):
            continue
        level = int(name.split("_")[1])
        cin = model.config.base_channels * 2 ** (model.config.depth - level)
        s = math.sqrt(6.0 / (cin + 1))
        w = Tensor(rng.uniform(-s, s, (1, 1, cin, 1)).astype(np.float32),
                   requires_grad=True)
        b = Tensor(np.zeros((1, 1, 1, 1), np.float32), requires_grad=True)
        heads[name] = (w, b)

    def term(summary, tap, pooled_mask):
        if tap.name not in heads:
            return None
        w, b = heads[tap.name]
        return bce_loss(sigmoid(conv2d(tap.activation, w, b)), pooled_mask)

    params = {f"_deeps_{name}_{k}": p for name, wb in heads.items()
              for k, p in zip("wb", wb)}
    return term, params


def _no_params(term):
    """LossMode.build for a term that owns no parameters."""
    return lambda model, seed: (term, {})


@dataclass(frozen=True)
class LossMode:
    """One objective: L_seg + sum_l alpha_l * (term_l [+ fd_exch_l]).

    build(model, seed) returns the per-tap term (see total_loss), or None to
    train on L_seg alone, and the trainable parameters the term owns."""
    build: Callable[[UNet, int], tuple[Optional[Callable], dict[str, Tensor]]]
    exch: bool = False


LOSS_TABLE = {
    "seg_only": LossMode(_no_params(None)),
    "seg+fd": LossMode(_no_params(fd_term)),
    "seg+fd+exch": LossMode(_no_params(fd_term), exch=True),
    "seg+con_stub": LossMode(_no_params(_con_stub_term)),
    "seg+deeps_stub": LossMode(_deeps_stub),
}
LOSS_MODES = tuple(LOSS_TABLE)


@dataclass
class TrainConfig:
    phase1_epochs: int = 40
    phase2_epochs: int = 30
    batch_size: int = 8
    lr: float = 0.05
    momentum: float = 0.9
    seed: int = 0
    loss_mode: str = "seg+fd"
    tau: float = 0.0
    eta_alpha: float = 1e-3
    alpha_max: float = 1.0
    augment_train: bool = True
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.phase1_epochs < 1:
            raise ContractError("phase1_epochs must be >= 1 (warm start is mandatory)")
        if self.lr <= 0 or self.batch_size < 1:
            raise ContractError("lr must be > 0 and batch_size >= 1")
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
    fd_exch_per_tap: Optional[list[float]]
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
    imgs = np.stack([s.image for s in samples]).astype(np.float32)
    masks = np.stack([s.mask for s in samples]).astype(np.float32)
    return Tensor(imgs), Tensor(masks), [s.source for s in samples]


def _first_nonfinite_tap(taps) -> str:
    for tap in taps:
        if not np.all(np.isfinite(tap.activation.values)):
            return tap.name
    return "prediction"


class _SGD:
    def __init__(self, params: dict[str, Tensor], lr: float, momentum: float):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.velocity = {k: np.zeros_like(p.values) for k, p in params.items()}

    def step(self) -> None:
        for k, p in self.params.items():
            if p.grad is None:
                continue
            v = self.momentum * self.velocity[k] + p.grad
            self.velocity[k] = v
            p.values -= (self.lr * v).astype(p.values.dtype)
            p.grad = None


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _sgd_step(model: UNet, opt: _SGD, batch: Sequence[SiteSample],
              state: AlphaState, term: Optional[Callable], exch: bool,
              exch_seed: int) -> LossBreakdown:
    """One forward, backward and update. The returned breakdown holds floats
    only, so the step's graph is freed when this returns. Overflow on the way
    to a non-finite loss raises TrainingAborted, not a RuntimeWarning."""
    images, masks, sources = _batch_arrays(batch)
    pred, taps = model.forward(images)
    aux_taps = taps if term is not None else []
    pooled = [pool_mask(masks, tap.downsample_factor) for tap in aux_taps]
    bd = total_loss(pred, masks, aux_taps, pooled, state, exch_enabled=exch,
                    source_tags=sources, exch_seed=exch_seed, term=term)
    if not math.isfinite(bd.total):
        raise TrainingAborted(f"first bad tap: {_first_nonfinite_tap(taps)}")
    backward(bd.total_tensor)
    opt.step()
    bd.total_tensor = None
    return bd


def train(config: TrainConfig, model: UNet,
          datasets: dict[str, list[SiteSample]]) -> tuple[UNet, list[EpochRecord]]:
    """Phase 1 runs with alpha in warmup; phase 2 activates multiplier ascent per
    batch. Returns the checkpoint with the highest validation Dice plus the
    per-epoch history."""
    train_set = list(datasets["train"])
    if config.augment_train:
        train_set = [aug for s in train_set for aug in augment(s)]
    if config.noise_sigma > 0:
        train_set = [SiteSample(
            image=add_gaussian_noise(s.image, config.noise_sigma,
                                     seed=config.seed ^ (i + 1)),
            mask=s.mask, source=s.source, id=s.id)
            for i, s in enumerate(train_set)]
    val_set = datasets["val"]

    mode = LOSS_TABLE[config.loss_mode]
    term, extra_params = mode.build(model, config.seed)
    opt = _SGD({**model.params, **extra_params}, config.lr, config.momentum)
    state = AlphaState.fresh(len(model.config.tap_names()), config.tau,
                             config.eta_alpha, config.alpha_max)
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
                bd = _sgd_step(model, opt, batch, state, term, mode.exch,
                               aux_seed + step)
            except TrainingAborted as exc:
                raise TrainingAborted(f"non-finite loss at epoch {epoch}, {exc}",
                                      last_good=best_model) from None
            if bd.fd_per_tap:
                state = alpha_update(state, np.asarray(bd.fd_per_tap),
                                     step=step, warmup_steps=warmup_steps)
            ep_rows.append(bd)
            step += 1

        val_dice = float(np.mean([r.dice for r in evaluate(model, val_set)])) \
            if val_set else 0.0
        if val_dice > best_val:
            best_val = val_dice
            best_model = model.clone()

        n_rows = len(ep_rows)
        fd_cols = [r.fd_per_tap for r in ep_rows if r.fd_per_tap]
        exch_cols = [r.fd_exch_per_tap for r in ep_rows if r.fd_exch_per_tap]
        history.append(EpochRecord(
            epoch=epoch, phase=phase,
            total=sum(r.total for r in ep_rows) / n_rows,
            seg=sum(r.seg for r in ep_rows) / n_rows,
            dice_loss=sum(r.dice for r in ep_rows) / n_rows,
            bce=sum(r.bce for r in ep_rows) / n_rows,
            fd_per_tap=list(np.mean(fd_cols, axis=0)) if fd_cols else [],
            fd_exch_per_tap=list(np.mean(exch_cols, axis=0)) if exch_cols else None,
            alpha=list(map(float, state.alpha)),
            val_dice=val_dice))

    return best_model, history


def evaluate(model: UNet, dataset: Sequence[SiteSample],
             threshold: float = 0.5, batch_size: int = 16) -> list[MetricsRecord]:
    """Per-sample hard Dice/IoU at the given threshold (ties -> background) plus
    the feature discrepancy of the last decoder tap against the true mask."""
    if not dataset:
        raise ContractError("evaluate requires a non-empty dataset")
    records: list[MetricsRecord] = []
    for start in range(0, len(dataset), batch_size):
        chunk = dataset[start:start + batch_size]
        images, masks, _ = _batch_arrays(chunk)
        pred, taps = model.forward(images)
        s = feature_summary(taps[-1].activation, masks)
        fds = neg_log_sq_norm(s.per_sample_fg - s.per_sample_bg, axis=3).values
        hard = (pred.values > threshold).astype(np.float64)
        mv = masks.values.astype(np.float64)
        for i, sample in enumerate(chunk):
            inter = float((hard[i] * mv[i]).sum())
            a, b = float(hard[i].sum()), float(mv[i].sum())
            union = a + b - inter
            dice = 2.0 * inter / (a + b) if a + b > 0 else 1.0
            iou = inter / union if union > 0 else 1.0
            records.append(MetricsRecord(sample_id=sample.id, dice=dice, iou=iou,
                                         fd_last_decoder=float(fds[i, 0, 0, 0])))
    return records


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
    differs from the baseline, else p=1.
    """
    runs = list(map(float, runs))
    n = len(runs)
    if n < 2:
        raise ContractError("one_sample_t_test needs at least 2 runs")
    mean = sum(runs) / n
    var = sum((r - mean) ** 2 for r in runs) / (n - 1)
    if var == 0.0 or all(r == runs[0] for r in runs):
        shifted = runs[0] != baseline
        return (math.inf if shifted else 0.0, 0.0 if shifted else 1.0, True)
    t = (mean - baseline) / math.sqrt(var / n)
    p = 2.0 * float(special.stdtr(n - 1, -abs(t)))
    return t, p, False


# -- CSV emission ---------------------------------------------------------------

def write_history_csv(path: str, history: Sequence[EpochRecord],
                      tap_names: Sequence[str]) -> None:
    has_fd = any(r.fd_per_tap for r in history)
    has_exch = any(r.fd_exch_per_tap for r in history)
    header = ["epoch", "phase", "total", "seg", "dice_loss", "bce"]
    if has_fd:
        header += [f"fd_{t}" for t in tap_names]
    if has_exch:
        header += [f"fd_exch_{t}" for t in tap_names]
    if has_fd:
        header += [f"alpha_{t}" for t in tap_names]
    header.append("val_dice")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for r in history:
            row = [r.epoch, r.phase, f"{r.total:.6f}", f"{r.seg:.6f}",
                   f"{r.dice_loss:.6f}", f"{r.bce:.6f}"]
            if has_fd:
                row += [f"{v:.6f}" for v in r.fd_per_tap]
            if has_exch:
                vals = r.fd_exch_per_tap or [0.0] * len(tap_names)
                row += [f"{v:.6f}" for v in vals]
            if has_fd:
                row += [f"{v:.6f}" for v in r.alpha]
            row.append(f"{r.val_dice:.6f}")
            wr.writerow(row)


def write_eval_csv(path: str, records: Sequence[MetricsRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["sample_id", "dice", "iou", "fd_last_decoder"])
        for r in records:
            wr.writerow([r.sample_id, f"{r.dice:.6f}", f"{r.iou:.6f}",
                         f"{r.fd_last_decoder:.6f}"])
