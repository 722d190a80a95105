"""Tests for the sweep cells and the pool that runs them: site generation per
cell, failing cells, the worker count and the workers' BLAS threads."""
import ctypes
import dataclasses
import math
import os

import pytest

import fdseg.sweeps
from fdseg.data import BASE_SITE, NOVEL_SITE
from fdseg.sweeps import (SweepSettings, _openblas, _run_cells,
                          data_addition_sweep, noise_sweep, pool_runtime,
                          run_data_addition_cell, write_sweep_csv)
from fdseg.tensor import ContractError
from fdseg.trainer import TrainingAborted


def test_capped_cell_generates_each_site_once(monkeypatch):
    calls = []
    real = fdseg.sweeps.generate_site

    def counting(config, n, seed):
        calls.append(config.name)
        return real(config, n, seed)

    monkeypatch.setattr(fdseg.sweeps, "generate_site", counting)
    settings = SweepSettings(
        base_site=dataclasses.replace(BASE_SITE, image_size=(16, 16)),
        novel_site=dataclasses.replace(NOVEL_SITE, image_size=(16, 16)),
        n_base=12, n_novel=12, phase1_epochs=1, phase2_epochs=1, batch_size=4,
        base_channels=4, augment_train=False, cap_novel_at_base=True)
    row = run_data_addition_cell((settings, 1.0, 0, "seg_only"))
    assert row.status == "ok"
    assert sorted(calls) == ["base", "novel"]


TINY = SweepSettings(
    base_site=dataclasses.replace(BASE_SITE, image_size=(16, 16)),
    novel_site=dataclasses.replace(NOVEL_SITE, image_size=(16, 16)),
    n_base=12, n_novel=12, phase1_epochs=1, phase2_epochs=1, batch_size=4,
    base_channels=4, augment_train=False)


def test_failing_cell_becomes_its_row(monkeypatch):
    monkeypatch.setenv("FDSEG_WORKERS", "1")
    real = fdseg.sweeps.train

    def failing_on_some_seeds(cfg, model, splits):
        if cfg.seed == 1:
            raise RuntimeError("boom")
        if cfg.seed == 2:
            raise TrainingAborted("loss is nan")
        return real(cfg, model, splits)

    monkeypatch.setattr(fdseg.sweeps, "train", failing_on_some_seeds)
    result = noise_sweep(TINY, sigmas=(0.0,), loss_modes=("seg_only",),
                         seeds=(0, 1, 2, 3))
    status = {r.seed: r.status for r in result.rows}
    assert status == {0: "ok", 1: "error: RuntimeError: boom",
                      2: "aborted: loss is nan", 3: "ok"}
    assert all(math.isnan(r.test_dice_base)
               for r in result.rows if r.seed in (1, 2))
    assert list(result.aggregate()) == [(0.0, "seg_only")]


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_bad_worker_count_is_rejected_before_any_process(monkeypatch, value):
    monkeypatch.setenv("FDSEG_WORKERS", value)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    def no_cell(args):
        raise AssertionError("a cell was run")

    monkeypatch.setattr(fdseg.sweeps, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ContractError, match=f"FDSEG_WORKERS.*{value!r}"):
        _run_cells(no_cell, [(TINY, 0.0, s, "seg_only") for s in range(4)])


def _blas_threads(args=None) -> int:
    get = _openblas("get_num_threads")
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def test_pool_workers_run_one_blas_thread(monkeypatch):
    if _openblas("get_num_threads") is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    monkeypatch.setenv("FDSEG_WORKERS", "2")
    before = _blas_threads()
    assert _run_cells(_blas_threads, [(), ()]) == [1, 1]
    assert _blas_threads() == before             # the caller is left alone


@pytest.mark.parametrize("workers,cells,width", [("1", 5, 1), ("2", 5, 2),
                                                 ("4", 1, 1)])
def test_pool_runtime_describes_the_pool(monkeypatch, workers, cells, width):
    monkeypatch.setenv("FDSEG_WORKERS", workers)
    pinned = width > 1 and _openblas("set_num_threads") is not None
    assert pool_runtime(cells) == {"pool_width": width,
                                   "worker_blas_threads": 1 if pinned else None}


def test_pool_and_serial_sweeps_write_identical_rows(monkeypatch, tmp_path):
    settings = dataclasses.replace(TINY, batch_size=8, base_channels=8,
                                   n_base=16, n_novel=16)
    blobs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("FDSEG_WORKERS", workers)
        result = data_addition_sweep(settings, fractions=(0.0, 1.0),
                                     loss_modes=("seg+fd+exch",), seeds=(0, 1))
        path = os.path.join(tmp_path, f"workers{workers}.csv")
        write_sweep_csv(path, result)
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]
    assert blobs[0].count(b",ok\r\n") == 4
