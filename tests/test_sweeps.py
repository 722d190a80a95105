"""Tests for the sweep cells and the pool that runs them: site generation per
cell, failing cells, the worker count, the processes that run the cells and
their BLAS threads."""
import ctypes
import dataclasses
import math
import multiprocessing
import os
import re
import sys
import threading
import time

import pytest

import fdseg.sweeps
from fdseg.data import BASE_SITE, NOVEL_SITE
from fdseg.sweeps import (SweepRow, SweepSettings, _openblas, _run_cells,
                          check_settings, data_addition_sweep, noise_sweep,
                          pool_runtime, run_data_addition_cell, write_sweep_csv)
from fdseg.tensor import ContractError, DimensionError
from fdseg.trainer import TrainingAborted, blas_threads, set_blas_threads

CALLER = os.getpid()      # a forked worker inherits this value, not the pid


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


def test_failing_data_addition_cell_becomes_its_row(monkeypatch):
    monkeypatch.setenv("FDSEG_WORKERS", "1")
    real = fdseg.sweeps.train

    def failing_on_seed_1(cfg, model, splits):
        if cfg.seed == 1:
            raise RuntimeError("boom")
        return real(cfg, model, splits)

    monkeypatch.setattr(fdseg.sweeps, "train", failing_on_seed_1)
    result = data_addition_sweep(TINY, fractions=(0.0, 1.0),
                                 loss_modes=("seg_only",), seeds=(0, 1))
    status = {(r.condition, r.seed): r.status for r in result.rows}
    assert status == {(0.0, 0): "ok", (0.0, 1): "error: RuntimeError: boom",
                      (1.0, 0): "ok", (1.0, 1): "error: RuntimeError: boom"}
    for r in result.rows:
        scores = (r.test_dice_base, r.test_iou_base)
        assert all(map(math.isnan, scores)) == (r.seed == 1)


def test_failing_novel_site_fails_only_the_cells_that_add_it(monkeypatch):
    monkeypatch.setenv("FDSEG_WORKERS", "1")
    real = fdseg.sweeps.generate_site

    def no_novel_site(config, n, seed):
        if config.name == "novel":
            raise OSError("novel site unreadable")
        return real(config, n, seed)

    monkeypatch.setattr(fdseg.sweeps, "generate_site", no_novel_site)
    result = data_addition_sweep(TINY, fractions=(0.0, 0.5),
                                 loss_modes=("seg_only",), seeds=(0,))
    status = {r.condition: r.status for r in result.rows}
    assert status == {0.0: "ok", 0.5: "error: OSError: novel site unreadable"}
    assert math.isnan(result.rows[1].test_dice_base)


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


def _slow_pid(args) -> int:
    time.sleep(0.1)
    return os.getpid()


def test_caller_runs_cells_beside_the_workers(monkeypatch):
    monkeypatch.setenv("FDSEG_WORKERS", "2")
    pids = set(_run_cells(_slow_pid, [()] * 4))
    assert len(pids) == 2 and CALLER in pids
    assert multiprocessing.active_children() == []


def _sleep_then_echo(args) -> int:
    i, delay = args
    time.sleep(delay)
    return i


def test_rows_keep_cell_order_when_cells_take_unequal_time(monkeypatch):
    monkeypatch.setenv("FDSEG_WORKERS", "2")
    delays = (0.3, 0.0, 0.0, 0.15, 0.0, 0.05, 0.0)
    assert _run_cells(_sleep_then_echo, list(enumerate(delays))) == \
        list(range(len(delays)))


def test_no_cell_is_lost_under_contention(monkeypatch):
    monkeypatch.setenv("FDSEG_WORKERS", "4")    # more processes than cores
    cells = [(i, 0.0) for i in range(300)]
    rows = []
    runner = threading.Thread(
        target=lambda: rows.extend(_run_cells(_sleep_then_echo, cells)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert rows == list(range(len(cells)))


def _fail_in(args) -> int:
    where, log, i = args
    if (os.getpid() == CALLER) == (where == "caller"):
        raise RuntimeError(f"cell {i} at {blas_threads()} BLAS threads")
    time.sleep(0.2)
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(f"{i}\n")
    return i


@pytest.mark.parametrize("where", ["caller", "worker"])
def test_raising_cell_cancels_queued_cells_and_propagates(monkeypatch, tmp_path,
                                                          where):
    monkeypatch.setenv("FDSEG_WORKERS", "2")
    log = str(tmp_path / "ran")
    before = blas_threads()
    set_blas_threads(2)
    try:
        with pytest.raises(RuntimeError, match="at 1 BLAS threads"):
            _run_cells(_fail_in, [(where, log, i) for i in range(20)])
        settable = _openblas("set_num_threads") is not None
        assert blas_threads() == (2 if settable else 1)
    finally:
        set_blas_threads(before)
    ran = []
    if os.path.exists(log):
        with open(log, encoding="utf-8") as fh:
            ran = fh.read().split()
    assert len(ran) <= 2                  # the other process stopped at once
    assert multiprocessing.active_children() == []


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


def test_pooled_and_serial_noise_sweeps_write_identical_rows(monkeypatch,
                                                           tmp_path):
    blobs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("FDSEG_WORKERS", workers)
        result = noise_sweep(TINY, sigmas=(0.2,), loss_modes=("seg+fd",),
                             seeds=(0, 1))
        path = os.path.join(tmp_path, f"workers{workers}.csv")
        write_sweep_csv(path, result)
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]
    assert blobs[0].count(b",ok\r\n") == 2


@pytest.mark.parametrize("workers,events", [
    ("1", []), ("2", [("trim", 0, []), "pool"])])
def test_pooled_call_trims_the_heap_once_before_it_forks(monkeypatch, workers,
                                                         events):
    monkeypatch.setenv("FDSEG_WORKERS", workers)
    seen = []
    real_pool = fdseg.sweeps.ProcessPoolExecutor

    def pool(*args, **kwargs):
        seen.append("pool")
        return real_pool(*args, **kwargs)

    def trim(pad: int) -> int:
        seen.append(("trim", pad, multiprocessing.active_children()))
        return 1

    monkeypatch.setattr(fdseg.sweeps, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(fdseg.sweeps, "_malloc_trim", lambda: trim)
    assert _run_cells(_sleep_then_echo, [(0, 0.0), (1, 0.0)]) == [0, 1]
    assert seen == events


def test_pooled_sweep_without_malloc_trim_writes_the_serial_rows(monkeypatch,
                                                                 tmp_path):
    monkeypatch.setattr(fdseg.sweeps, "_malloc_trim", lambda: None)
    blobs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("FDSEG_WORKERS", workers)
        result = data_addition_sweep(TINY, fractions=(1.0,),
                                     loss_modes=("seg+fd+exch",), seeds=(0, 1))
        path = os.path.join(tmp_path, f"workers{workers}.csv")
        write_sweep_csv(path, result)
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]
    assert blobs[0].count(b",ok\r\n") == 2


def test_malloc_trim_is_looked_up_once_per_process(monkeypatch):
    monkeypatch.setenv("FDSEG_WORKERS", "2")
    opened = []
    real_cdll = ctypes.CDLL

    def counting(name, *args, **kwargs):
        opened.append(name)
        return real_cdll(name, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", counting)
    fdseg.sweeps._malloc_trim.cache_clear()
    try:
        for _ in range(2):
            assert _run_cells(_sleep_then_echo, [(0, 0.0), (1, 0.0)]) == [0, 1]
        assert opened.count(None) == 1
    finally:
        fdseg.sweeps._malloc_trim.cache_clear()


def test_c_library_without_malloc_trim_gives_no_trim(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    fdseg.sweeps._malloc_trim.cache_clear()
    try:
        assert fdseg.sweeps._malloc_trim() is None
    finally:
        fdseg.sweeps._malloc_trim.cache_clear()


def _os_threads(args) -> tuple[int, int]:
    time.sleep(0.05)
    with open("/proc/self/status", encoding="ascii") as fh:
        threads = next(int(line.split()[1]) for line in fh
                       if line.startswith("Threads:"))
    return os.getpid(), threads


def test_forked_workers_start_no_blas_thread(monkeypatch):
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc to count a process's threads")
    if _openblas("set_num_threads") is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    monkeypatch.setenv("FDSEG_WORKERS", "2")
    rows = _run_cells(_os_threads, [()] * 4)
    worker_threads = [threads for pid, threads in rows if pid != CALLER]
    assert worker_threads and set(worker_threads) == {1}


@pytest.mark.parametrize("conditions,modes,seeds,repeated", [
    ((0.0, 0.1, 0.0), ("seg_only",), (0,), "condition 0.0"),
    ((0.0,), ("seg_only", "seg+fd", "seg_only"), (0,), "loss mode 'seg_only'"),
    ((0.0,), ("seg_only",), (3, 1, 3), "seed 3"),
], ids=["conditions", "loss_modes", "seeds"])
def test_check_settings_rejects_a_repeated_value(conditions, modes, seeds,
                                                  repeated):
    with pytest.raises(ContractError, match=f"sweep {repeated} is repeated"):
        check_settings(TINY, conditions, modes, seeds)


@pytest.mark.parametrize("sweep", [data_addition_sweep, noise_sweep])
def test_sites_of_different_sizes_fail_the_sweep_before_any_cell(monkeypatch,
                                                                  sweep):
    monkeypatch.setattr(fdseg.sweeps, "_run_cells",
                        lambda fn, cells: pytest.fail("a cell ran"))
    settings = dataclasses.replace(TINY, novel_site=dataclasses.replace(
        NOVEL_SITE, image_size=(32, 32)))
    with pytest.raises(DimensionError, match="32x32 .* 16x16") as exc:
        sweep(settings, (0.0, 1.0), ("seg_only",), (0,))
    assert exc.value.axis == "spatial"


def test_repeated_seed_fails_the_sweep_before_any_cell(monkeypatch):
    monkeypatch.setattr(fdseg.sweeps, "_run_cells",
                        lambda fn, cells: pytest.fail("a cell ran"))
    with pytest.raises(ContractError, match="seed 0 is repeated"):
        noise_sweep(TINY, sigmas=(0.0,), loss_modes=("seg_only",), seeds=(0, 0))


@pytest.mark.parametrize("sweep", [data_addition_sweep, noise_sweep])
def test_int_conditions_print_as_floats_in_cell_order(monkeypatch, tmp_path,
                                                      sweep):
    monkeypatch.setattr(fdseg.sweeps, "_run_cells", lambda fn, cells: [
        SweepRow(c, s, m, 0.5, 0.25) for _, c, s, m in cells])
    path = os.path.join(tmp_path, "s.csv")
    write_sweep_csv(path, sweep(TINY, (0, 1), ("seg_only", "seg+fd"), (3, 4)))
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\r\n")
    assert lines[0] == ("condition,seed,loss_mode,test_dice_base,"
                        "test_iou_base,status")
    assert lines[1:] == [f"{c}.000000,{s},{m},0.500000,0.250000,ok"
                         for c in (0, 1) for m in ("seg_only", "seg+fd")
                         for s in (3, 4)] + [""]


@pytest.mark.parametrize("sweep,condition,what", [
    (data_addition_sweep, -0.5, "novel-data fraction"),
    (data_addition_sweep, 1.5, "novel-data fraction"),
    (data_addition_sweep, math.nan, "novel-data fraction"),
    (data_addition_sweep, math.inf, "novel-data fraction"),
    (noise_sweep, -0.1, "noise sigma"),
    (noise_sweep, math.inf, "noise sigma"),
    (noise_sweep, math.nan, "noise sigma"),
], ids=["fraction_negative", "fraction_above_1", "fraction_nan",
        "fraction_inf", "sigma_negative", "sigma_inf", "sigma_nan"])
def test_condition_out_of_range_fails_the_sweep_before_any_cell(
        monkeypatch, sweep, condition, what):
    monkeypatch.setattr(fdseg.sweeps, "_run_cells",
                        lambda fn, cells: pytest.fail("a cell ran"))
    with pytest.raises(ContractError,
                       match=f"{what} must be finite and in .*, "
                             f"got {re.escape(repr(condition))}$"):
        sweep(TINY, (0.0, condition), ("seg_only",), (0,))


@pytest.mark.parametrize("sweep,edges", [(data_addition_sweep, (0, 1.0)),
                                         (noise_sweep, (0, 1e6))],
                         ids=["fractions", "sigmas"])
def test_conditions_at_the_edges_of_their_range_run(monkeypatch, sweep, edges):
    monkeypatch.setattr(fdseg.sweeps, "_run_cells", lambda fn, cells: [
        SweepRow(c, s, m, 0.5, 0.25) for _, c, s, m in cells])
    result = sweep(TINY, edges, ("seg_only",), (0,))
    assert [r.condition for r in result.rows] == [0.0, float(edges[1])]
