"""Experiment sweeps: the data-addition protocol and the training-noise
protocol, run as independent seeded cells in a worker pool."""
from __future__ import annotations

import csv
import ctypes
import functools
import math
import os
import traceback
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Sequence, get_type_hints

import numpy as np

from .data import (BASE_SITE, DATA_SEED, NOVEL_SITE, SiteConfig, generate_site,
                   split_dataset)
from .tensor import ContractError, DimensionError, _openblas
from .trainer import (LOSS_MODES, TrainConfig, TrainingAborted, evaluate,
                      one_blas_thread, train, write_csv)
from .unet import UNetConfig, init_params

DATA_ADDITION_FRACTIONS = (0.0, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0)
NOISE_SWEEP_GRID = (0.0, 0.05, 0.10, 0.15, 0.20)
NOISE_SWEEP_MODES = LOSS_MODES[:2]          # seg_only vs seg+fd
SWEEP_SEEDS = (0, 1, 2, 3, 4)
# SweepSettings fields passed by name to each cell's TrainConfig
_TRAIN_FIELDS = ("phase1_epochs", "phase2_epochs", "batch_size", "lr",
                 "augment_train")


@dataclass
class SweepSettings:
    """Shared desk-scale knobs for one sweep; cells take UNetConfig's depth."""
    base_site: SiteConfig = replace(BASE_SITE, image_size=(32, 32))
    novel_site: SiteConfig = replace(NOVEL_SITE, image_size=(32, 32))
    n_base: int = 40
    n_novel: int = 40
    phase1_epochs: int = 12
    phase2_epochs: int = 9
    batch_size: int = TrainConfig.batch_size
    lr: float = TrainConfig.lr
    base_channels: int = UNetConfig.base_channels
    augment_train: bool = TrainConfig.augment_train
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


def _train_config(settings: SweepSettings, seed: int, loss_mode: str,
                  noise_sigma: float = 0.0) -> TrainConfig:
    return TrainConfig(seed=seed, loss_mode=loss_mode, noise_sigma=noise_sigma,
                       **{k: getattr(settings, k) for k in _TRAIN_FIELDS})


def _unet_config(settings: SweepSettings) -> UNetConfig:
    return UNetConfig(base_channels=settings.base_channels,
                      image_size=settings.base_site.image_size)


def check_settings(settings: SweepSettings, conditions: Sequence[float],
                   loss_modes: Sequence[str], seeds: Sequence[int]) -> None:
    """Raise the ContractError or DimensionError that a cell would hit, so
    that bad settings fail the sweep before any cell runs. A repeated
    condition, loss mode or seed is an error too: its cells would be copies
    that `SweepResult.aggregate` counts as independent runs."""
    if not seeds:
        raise ContractError("a sweep needs at least one seed")
    for what, values in (("condition", conditions), ("loss mode", loss_modes),
                         ("seed", seeds)):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ContractError(f"sweep {what} {value!r} is repeated")
    base, novel = settings.base_site.image_size, settings.novel_site.image_size
    if novel != base:
        raise DimensionError(f"novel site images are {novel[0]}x{novel[1]} but "
                             f"base site images are {base[0]}x{base[1]}",
                             axis="spatial")
    _unet_config(settings)
    for loss_mode in loss_modes:
        for seed in seeds:
            _train_config(settings, seed, loss_mode)
    for n in (settings.n_base, settings.n_novel):
        split_dataset(range(n))         # partition sizes only; no site drawn


def _run_cell(settings: SweepSettings, condition: float, seed: int,
              loss_mode: str, novel_fraction: float = 0.0,
              noise_sigma: float = 0.0) -> SweepRow:
    """Train on the base site's train split plus the first `novel_fraction`
    of the novel site's, and score on the base test split. A cell that raises
    becomes a row of NaN scores with the exception as its status, so one
    failing cell does not take down the rest of the sweep; an error other
    than diverged training also prints its traceback to stderr."""
    try:
        base = generate_site(settings.base_site, settings.n_base,
                             settings.data_seed)
        train_set, test_b, val_b = split_dataset(base, seed=settings.data_seed)
        if novel_fraction > 0:
            novel = generate_site(settings.novel_site, settings.n_novel,
                                  settings.data_seed + 1)
            novel_train, _, _ = split_dataset(novel, seed=settings.data_seed + 1)
            n_add = max(1, round(novel_fraction * len(novel_train)))
            if settings.cap_novel_at_base:
                n_add = min(n_add, len(train_set))
            train_set = train_set + novel_train[:n_add]
        cfg = _train_config(settings, seed, loss_mode, noise_sigma)
        model = init_params(_unet_config(settings), seed=seed)
        best, _ = train(cfg, model, {"train": train_set, "val": val_b})
        records = evaluate(best, test_b)
        return SweepRow(condition, seed, loss_mode,
                        float(np.mean([r.dice for r in records])),
                        float(np.mean([r.iou for r in records])))
    except TrainingAborted as exc:
        status = f"aborted: {exc}"
    except Exception as exc:
        traceback.print_exception(exc)
        status = f"error: {type(exc).__name__}: {exc}"
    return SweepRow(condition, seed, loss_mode, float("nan"), float("nan"),
                    status=status)


def run_data_addition_cell(args: tuple) -> SweepRow:
    settings, fraction, seed, loss_mode = args
    return _run_cell(settings, fraction, seed, loss_mode, novel_fraction=fraction)


def run_noise_cell(args: tuple) -> SweepRow:
    settings, sigma, seed, loss_mode = args
    return _run_cell(settings, sigma, seed, loss_mode, noise_sigma=sigma)


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


def pool_runtime(n_cells: int) -> dict:
    """How `_run_cells` runs n_cells: the pool width, which counts the calling
    process, and the OpenBLAS threads of each process in the pool: 1, which
    the workers inherit from the caller, or None when the cells run in the
    caller alone (it keeps its own count) or numpy's OpenBLAS is missing."""
    width = _pool_width(n_cells)
    pinned = width > 1 and _openblas("set_num_threads") is not None
    return {"pool_width": width, "worker_blas_threads": 1 if pinned else None}


@functools.cache
def _malloc_trim():
    """The C library's `malloc_trim(pad)`, or None where it has none (it is
    glibc's). Looked up once per process."""
    fn = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if fn is not None:
        fn.argtypes, fn.restype = [ctypes.c_size_t], ctypes.c_int
    return fn


def _run_cells(fn, cells: list[tuple]) -> list[SweepRow]:
    """fn of each cell, in cell order. A pool of width W > 1 is the calling
    process and W - 1 forked workers; each takes the next cell from one queue
    as it becomes free, so that no process idles while cells are left. A
    cell that raises cancels the cells not yet taken, and the error
    propagates once the cells already running have finished."""
    width = _pool_width(len(cells))
    if width == 1:
        return [fn(c) for c in cells]
    queue, rows = deque(enumerate(cells)), [None] * len(cells)

    def drain(run) -> None:
        try:
            while True:
                try:
                    i, cell = queue.popleft()
                except IndexError:
                    return
                rows[i] = run(cell)
        except BaseException:
            queue.clear()
            raise

    # the caller hands back the heap it has freed but kept before it forks,
    # or it and each worker would copy-on-write every such page they reuse
    trim = _malloc_trim()
    if trim is not None:
        trim(0)
    # each process runs one OpenBLAS thread, or W would run W x cores; the
    # workers inherit it and never set it (see one_blas_thread for why)
    with one_blas_thread(), ProcessPoolExecutor(max_workers=width - 1) as pool:
        pool.submit(int)        # forks every worker now, before a thread starts
        with ThreadPoolExecutor(max_workers=width - 1) as waiters:
            # one caller thread hands each worker its cells and waits on them
            lanes = [waiters.submit(drain,
                                    lambda c: pool.submit(fn, c).result())
                     for _ in range(width - 1)]
            drain(fn)
            for lane in lanes:
                lane.result()
    return rows


def _sweep(fn, what: str, most: float, settings: SweepSettings,
           conditions: Sequence[float], loss_modes: Sequence[str],
           seeds: Sequence[int]) -> SweepResult:
    """fn of each (condition, loss mode, seed) cell once check_settings has
    passed them and each condition, a `what`, is finite and in [0, most];
    an int condition is stored, and prints, as a float."""
    check_settings(settings, conditions, loss_modes, seeds)
    for c in conditions:
        if not (math.isfinite(c) and 0 <= c <= most):
            raise ContractError(f"{what} must be finite and in [0, {most:g}], "
                                f"got {c!r}")
    cells = [(settings, float(c), s, m)
             for c in conditions for m in loss_modes for s in seeds]
    return SweepResult(rows=_run_cells(fn, cells))


def data_addition_sweep(settings: SweepSettings,
                        fractions: Sequence[float] = DATA_ADDITION_FRACTIONS,
                        loss_modes: Sequence[str] = LOSS_MODES,
                        seeds: Sequence[int] = SWEEP_SEEDS) -> SweepResult:
    return _sweep(run_data_addition_cell, "novel-data fraction", 1.0, settings,
                  fractions, loss_modes, seeds)


def noise_sweep(settings: SweepSettings,
                sigmas: Sequence[float] = NOISE_SWEEP_GRID,
                loss_modes: Sequence[str] = NOISE_SWEEP_MODES,
                seeds: Sequence[int] = SWEEP_SEEDS) -> SweepResult:
    return _sweep(run_noise_cell, "noise sigma", math.inf, settings, sigmas,
                  loss_modes, seeds)


def write_sweep_csv(path: str, result: SweepResult) -> None:
    write_csv(path, [f.name for f in fields(SweepRow)], map(astuple, result.rows))


def read_sweep_csv(path: str) -> SweepResult:
    """Each column parsed with its SweepRow field's type; each header name
    must be the field at its position. Extra columns are ignored, a missing
    one takes its default (a five-column file is "ok"). A row with fewer
    fields than the header (a killed run's last), a non-finite condition or
    an "ok" row's non-finite score is an error."""
    types = get_type_hints(SweepRow).items()
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or any(col != name for col, (name, _) in zip(header, types)):
            raise ValueError(f"{path}: malformed sweep CSV header at line 1")
        for lineno, row in enumerate(reader, start=2):
            try:
                if len(row) < len(header):
                    raise ValueError(f"{len(row)} fields under a "
                                     f"{len(header)}-column header")
                r = SweepRow(**{name: kind(value) for (name, kind), value
                                in zip(types, row)})
                if not math.isfinite(r.condition):
                    raise ValueError(f"condition {r.condition} is not finite")
                if r.status == "ok" and not (math.isfinite(r.test_dice_base)
                                             and math.isfinite(r.test_iou_base)):
                    raise ValueError("an ok row needs finite scores")
                rows.append(r)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: malformed sweep CSV at line {lineno}: "
                                 f"{exc}") from None
    return SweepResult(rows=rows)
