"""Experiment sweeps: the data-addition protocol and the training-noise
protocol, run as independent seeded cells in a worker pool."""
from __future__ import annotations

import csv
import ctypes
import glob
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import (BASE_SITE, DATA_SEED, NOVEL_SITE, SiteConfig, generate_site,
                   split_dataset)
from .tensor import ContractError
from .trainer import LOSS_MODES, TrainConfig, TrainingAborted, evaluate, train
from .unet import UNetConfig, init_params

DATA_ADDITION_FRACTIONS = (0.0, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0)
NOISE_SWEEP_GRID = (0.0, 0.05, 0.10, 0.15, 0.20)
NOISE_SWEEP_MODES = LOSS_MODES[:2]          # seg_only vs seg+fd
SWEEP_SEEDS = (0, 1, 2, 3, 4)


@dataclass
class SweepSettings:
    """Shared desk-scale knobs for one sweep."""
    base_site: SiteConfig = BASE_SITE
    novel_site: SiteConfig = NOVEL_SITE
    n_base: int = 40
    n_novel: int = 40
    phase1_epochs: int = 12
    phase2_epochs: int = 9
    batch_size: int = 8
    lr: float = 0.05
    depth: int = 2
    base_channels: int = 8
    augment_train: bool = True
    cap_novel_at_base: bool = False
    data_seed: int = DATA_SEED


@dataclass
class SweepRow:
    condition: float
    seed: int
    loss_mode: str
    test_dice_base: float
    test_iou_base: float
    status: str = "ok"


@dataclass
class SweepResult:
    rows: list[SweepRow] = field(default_factory=list)

    def aggregate(self) -> dict[tuple[float, str], tuple[float, float]]:
        """(condition, loss_mode) -> (mean dice, sample std) over ok rows."""
        groups: dict[tuple[float, str], list[float]] = {}
        for r in self.rows:
            if r.status != "ok":
                continue
            groups.setdefault((r.condition, r.loss_mode), []).append(r.test_dice_base)
        out = {}
        for key, vals in groups.items():
            arr = np.asarray(vals)
            std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
            out[key] = (float(arr.mean()), std)
        return out


def _base_split(settings: SweepSettings) -> tuple[list, list, list]:
    base = generate_site(settings.base_site, settings.n_base, settings.data_seed)
    return split_dataset(base, seed=settings.data_seed)


def _train_config(settings: SweepSettings, seed: int, loss_mode: str,
                  noise_sigma: float = 0.0) -> TrainConfig:
    return TrainConfig(phase1_epochs=settings.phase1_epochs,
                       phase2_epochs=settings.phase2_epochs,
                       batch_size=settings.batch_size, lr=settings.lr,
                       seed=seed, loss_mode=loss_mode,
                       augment_train=settings.augment_train,
                       noise_sigma=noise_sigma)


def _unet_config(settings: SweepSettings) -> UNetConfig:
    return UNetConfig(depth=settings.depth, base_channels=settings.base_channels,
                      image_size=settings.base_site.image_size)


def check_settings(settings: SweepSettings, loss_modes: Sequence[str]) -> None:
    """Raise the ContractError or DimensionError that every cell would hit, so
    that bad settings fail the sweep before any cell runs."""
    _unet_config(settings)
    for loss_mode in loss_modes:
        _train_config(settings, 0, loss_mode)
    for n in (settings.n_base, settings.n_novel):
        split_dataset(range(n))         # partition sizes only; no site drawn


def _train_and_score(settings: SweepSettings, seed: int, loss_mode: str,
                     base_split: tuple[list, list, list],
                     extra_train: Sequence = (),
                     noise_sigma: float = 0.0) -> tuple[float, float]:
    train_b, test_b, val_b = base_split
    train_set = list(train_b) + list(extra_train)
    cfg = _train_config(settings, seed, loss_mode, noise_sigma)
    model = init_params(_unet_config(settings), seed=seed)
    best, _ = train(cfg, model, {"train": train_set, "val": val_b, "test": test_b})
    records = evaluate(best, test_b)
    return (float(np.mean([r.dice for r in records])),
            float(np.mean([r.iou for r in records])))


def _failed_row(condition: float, seed: int, loss_mode: str,
                exc: Exception) -> SweepRow:
    """The row of a cell that raised: NaN scores, and the exception as status,
    so one failing cell does not take down the rest of the sweep. An error
    other than diverged training also prints its traceback to stderr."""
    if isinstance(exc, TrainingAborted):
        status = f"aborted: {exc}"
    else:
        traceback.print_exception(exc)
        status = f"error: {type(exc).__name__}: {exc}"
    return SweepRow(condition, seed, loss_mode, float("nan"), float("nan"),
                    status=status)


def run_data_addition_cell(args: tuple) -> SweepRow:
    settings, fraction, seed, loss_mode = args
    try:
        base_split = _base_split(settings)
        extra = []
        if fraction > 0:
            novel = generate_site(settings.novel_site, settings.n_novel,
                                  settings.data_seed + 1)
            novel_train, _, _ = split_dataset(novel, seed=settings.data_seed + 1)
            n_add = max(1, round(fraction * len(novel_train)))
            if settings.cap_novel_at_base:
                n_add = min(n_add, len(base_split[0]))
            extra = novel_train[:n_add]
        dice, iou = _train_and_score(settings, seed, loss_mode, base_split,
                                     extra_train=extra)
        return SweepRow(fraction, seed, loss_mode, dice, iou)
    except Exception as exc:
        return _failed_row(fraction, seed, loss_mode, exc)


def run_noise_cell(args: tuple) -> SweepRow:
    settings, sigma, seed, loss_mode = args
    try:
        dice, iou = _train_and_score(settings, seed, loss_mode,
                                     _base_split(settings), noise_sigma=sigma)
        return SweepRow(sigma, seed, loss_mode, dice, iou)
    except Exception as exc:
        return _failed_row(sigma, seed, loss_mode, exc)


def _pool_width(n_cells: int) -> int:
    env = os.environ.get("FDSEG_WORKERS")
    try:
        cap = int(env) if env else (os.cpu_count() or 1)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ContractError(
            f"FDSEG_WORKERS must be a positive integer, got {env!r}")
    return max(1, min(cap, n_cells))


def _openblas(name: str):
    """`scipy_openblas_<name>` from numpy's bundled OpenBLAS (the 64-bit-int
    build's symbol first), or None when the library or symbol is missing."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return fn
    return None


def _one_blas_thread() -> None:
    """Pool initializer. A forked worker inherits the caller's OpenBLAS thread
    count, so W workers would run W x cores BLAS threads on the cores and slow
    each other down; each worker runs one instead. Does nothing when the
    bundled library is missing."""
    fn = _openblas("set_num_threads")
    if fn is not None:
        fn.argtypes, fn.restype = [ctypes.c_int], None
        fn(1)


def pool_runtime(n_cells: int) -> dict:
    """How `_run_cells` runs n_cells: the pool width, and the OpenBLAS threads
    of each pool worker (None when the cells run in the calling process, which
    keeps its own count, or when the bundled library is missing)."""
    width = _pool_width(n_cells)
    pinned = width > 1 and _openblas("set_num_threads") is not None
    return {"pool_width": width, "worker_blas_threads": 1 if pinned else None}


def _run_cells(fn, cells: list[tuple]) -> list[SweepRow]:
    width = _pool_width(len(cells))
    if width == 1:
        return [fn(c) for c in cells]
    with ProcessPoolExecutor(max_workers=width,
                             initializer=_one_blas_thread) as pool:
        return list(pool.map(fn, cells))


def data_addition_sweep(settings: SweepSettings,
                        fractions: Sequence[float] = DATA_ADDITION_FRACTIONS,
                        loss_modes: Sequence[str] = LOSS_MODES,
                        seeds: Sequence[int] = SWEEP_SEEDS) -> SweepResult:
    check_settings(settings, loss_modes)
    cells = [(settings, f, s, m)
             for f in fractions for m in loss_modes for s in seeds]
    return SweepResult(rows=_run_cells(run_data_addition_cell, cells))


def noise_sweep(settings: SweepSettings,
                sigmas: Sequence[float] = NOISE_SWEEP_GRID,
                loss_modes: Sequence[str] = NOISE_SWEEP_MODES,
                seeds: Sequence[int] = SWEEP_SEEDS) -> SweepResult:
    check_settings(settings, loss_modes)
    cells = [(settings, sg, s, m)
             for sg in sigmas for m in loss_modes for s in seeds]
    return SweepResult(rows=_run_cells(run_noise_cell, cells))


def write_sweep_csv(path: str, result: SweepResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["condition", "seed", "loss_mode", "test_dice_base",
                     "test_iou_base", "status"])
        for r in result.rows:
            wr.writerow([f"{r.condition:.6f}", r.seed, r.loss_mode,
                         f"{r.test_dice_base:.6f}", f"{r.test_iou_base:.6f}",
                         r.status])


def read_sweep_csv(path: str) -> SweepResult:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != ["condition", "seed", "loss_mode"]:
            raise ValueError(f"{path}: malformed sweep CSV header at line 1")
        for lineno, row in enumerate(reader, start=2):
            try:
                rows.append(SweepRow(float(row[0]), int(row[1]), row[2],
                                     float(row[3]), float(row[4]),
                                     row[5] if len(row) > 5 else "ok"))
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}: malformed sweep CSV at line {lineno}: "
                                 f"{exc}") from None
    return SweepResult(rows=rows)
