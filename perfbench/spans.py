"""Outside-in tracing of fdseg: spans recorded by wrapping public functions.

Nothing in `src/` is changed. Each wrapper is installed on the module that
*calls* the function, because fdseg imports names with `from .x import y`:
`train()` looks up `backward` in `fdseg.trainer`, `UNet.forward` looks up
`conv2d` in `fdseg.unet`, and so on. A span is (name, start, end, parent,
operation index, extra); extra carries graph nodes for a training step and
FLOPs for a conv call. A span's self time is its duration minus the durations
of its children.

Sweep workers are forked from the traced process, so they inherit the
wrappers. A worker starts its own span list on its first span and writes it to
`<work>/spans/<pid>.json` when it exits.
"""
from __future__ import annotations

import ctypes
import functools
import glob
import json
import multiprocessing.util
import os
import statistics
import time

import numpy as np

import fdseg.cli
import fdseg.data
import fdseg.losses
import fdseg.sweeps
import fdseg.tensor
import fdseg.trainer
import fdseg.unet

CONVS = ("enc1_conv1", "enc1_conv2", "enc2_conv1", "enc2_conv2", "bot_conv1",
         "bot_conv2", "dec1_up", "dec1_conv1", "dec1_conv2", "dec2_up",
         "dec2_conv1", "dec2_conv2", "head")
TAPS = ("enc_1", "enc_2", "bottleneck", "dec_1", "dec_2")
CLI_OUTPUTS = ("cli.write_manifest", "unet.save_checkpoint",
               "cli.write_history_csv", "cli.write_eval_csv")

# (module, attribute, span name): every call site the workloads reach.
PLAIN = [
    (fdseg.trainer, "train", "trainer.train"),
    (fdseg.sweeps, "train", "trainer.train"),
    (fdseg.cli, "train", "trainer.train"),
    (fdseg.trainer, "evaluate", "trainer.evaluate"),
    (fdseg.sweeps, "evaluate", "trainer.evaluate"),
    (fdseg.cli, "evaluate", "trainer.evaluate"),
    (fdseg.trainer, "backward", "tensor.backward"),
    (fdseg.trainer, "pool_mask", "losses.pool_mask"),
    (fdseg.trainer, "alpha_update", "losses.alpha_update"),
    (fdseg.trainer, "augment", "data.augment"),
    (fdseg.trainer, "add_gaussian_noise", "data.add_gaussian_noise"),
    (fdseg.trainer, "feature_summary", "trainer.evaluate_fd"),
    (fdseg.trainer, "fd_loss", "trainer.evaluate_fd"),
    (fdseg.unet, "init_params", "unet.init_params"),
    (fdseg.sweeps, "init_params", "unet.init_params"),
    (fdseg.cli, "init_params", "unet.init_params"),
    (fdseg.unet, "load_checkpoint", "unet.load_checkpoint"),
    (fdseg.unet, "save_checkpoint", "unet.save_checkpoint"),
    (fdseg.cli, "save_checkpoint", "unet.save_checkpoint"),
    (fdseg.data, "generate_site", "data.generate_site"),
    (fdseg.sweeps, "generate_site", "data.generate_site"),
    (fdseg.cli, "generate_site", "data.generate_site"),
    (fdseg.data, "split_dataset", "data.split_dataset"),
    (fdseg.sweeps, "split_dataset", "data.split_dataset"),
    (fdseg.cli, "split_dataset", "data.split_dataset"),
    (fdseg.sweeps, "data_addition_sweep", "sweeps.sweep"),
    (fdseg.sweeps, "noise_sweep", "sweeps.sweep"),
    (fdseg.sweeps, "run_data_addition_cell", "sweeps.cell"),
    (fdseg.sweeps, "run_noise_cell", "sweeps.cell"),
    (fdseg.cli, "main", "cli.main"),
    (fdseg.cli, "_write_manifest", "cli.write_manifest"),
    (fdseg.cli, "write_history_csv", "cli.write_history_csv"),
    (fdseg.cli, "write_eval_csv", "cli.write_eval_csv"),
    (fdseg.trainer._SGD, "step", "trainer.sgd_step"),
]


def blas_threads() -> int:
    """OpenBLAS threads in effect in this process, read from numpy's bundled
    library; -1 when that library cannot be found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.conv_names: dict[int, str] = {}
        self.tap_names: dict[int, str] = {}
        self.tape = fdseg.tensor.Tape()
        self.worker_blas = -1
        self._patches: list[tuple] = []
        for stale in glob.glob(os.path.join(work_dir, "spans", "*")):
            os.remove(stale)               # left by a run that was killed

    # -- span stack ------------------------------------------------------------

    def begin(self, name: str) -> int:
        if os.getpid() != self.pid:
            self._start_worker()
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, idx: int, extra: float = 0) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = extra
        # pop idx and anything left open above it (an aborted training step)
        while self.stack:
            top = self.stack.pop()
            if top == idx:
                break
            self.spans[top][2] = span[2]

    def _top(self, name: str) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0] == name

    def _close_step(self) -> None:
        if self._top("trainer.step"):
            self.end(self.stack[-1], extra=len(self.tape.nodes))

    def _start_worker(self) -> None:
        self.pid = os.getpid()
        self.spans, self.stack = [], []
        self.worker_blas = blas_threads()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=10)

    def dump(self) -> None:
        out = os.path.join(self.work_dir, "spans")
        os.makedirs(out, exist_ok=True)
        tmp = os.path.join(out, f"{self.pid}.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"pid": self.pid, "blas_threads": self.worker_blas,
                       "spans": self.spans}, fh)
        os.replace(tmp, os.path.join(out, f"{self.pid}.json"))

    def collect_workers(self) -> None:
        """Append spans dumped by exited sweep workers, offset past ours."""
        for path in sorted(glob.glob(os.path.join(self.work_dir, "spans",
                                                  "*.json"))):
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            os.remove(path)
            base = len(self.spans)
            for s in data["spans"]:
                s[3] = s[3] + base if s[3] >= 0 else -1
                s.append(data["pid"])
                self.spans.append(s)
            self.worker_blas = max(self.worker_blas, data["blas_threads"])

    # -- wrappers ----------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        orig = owner.__dict__[attr]
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, functools.wraps(orig)(wrapper(orig)))

    def _plain(self, name: str):
        def make(orig):
            def call(*args, **kwargs):
                i = self.begin(name)
                try:
                    return orig(*args, **kwargs)
                finally:
                    self.end(i)
            return call
        return make

    def install(self) -> None:
        fdseg.tensor.Tape._active = self.tape
        for owner, attr, name in PLAIN:
            self._patch(owner, attr, self._plain(name))
        # train() also sees steps: one step runs from a training batch to the
        # next one, the epoch's validation, or the end of train()
        self._patch(fdseg.trainer, "_batch_arrays", self._batch_wrapper)
        for owner, attr in ((fdseg.trainer, "train"), (fdseg.sweeps, "train"),
                            (fdseg.cli, "train"), (fdseg.trainer, "evaluate"),
                            (fdseg.sweeps, "evaluate"), (fdseg.cli, "evaluate")):
            self._patch(owner, attr, self._step_closing)
        self._patch(fdseg.unet.UNet, "forward", self._forward_wrapper)
        self._patch(fdseg.unet, "conv2d", self._conv_wrapper)
        self._patch(fdseg.trainer, "total_loss", self._total_loss_wrapper)
        self._patch(fdseg.losses, "feature_summary",
                    self._tap_wrapper("losses.feature_summary", record=True))
        self._patch(fdseg.losses, "fd_loss", self._tap_wrapper("losses.fd"))
        self._patch(fdseg.losses, "fd_exch_loss", self._tap_wrapper("losses.fd_exch"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        fdseg.tensor.Tape._active = None

    def _batch_wrapper(self, orig):
        def call(samples):
            if not (self._top("trainer.train") or self._top("trainer.step")):
                return orig(samples)         # evaluate's batches
            self._close_step()
            self.tape.nodes.clear()
            self.begin("trainer.step")
            i = self.begin("trainer.batch")
            try:
                return orig(samples)
            finally:
                self.end(i)
        return call

    def _step_closing(self, orig):
        def call(*args, **kwargs):
            self._close_step()
            try:
                return orig(*args, **kwargs)
            finally:
                self._close_step()
        return call

    def _forward_wrapper(self, orig):
        def call(model, images):
            self.conv_names = {id(p): k[:-2] for k, p in model.params.items()
                               if k.endswith("_w")}
            i = self.begin("unet.forward")
            try:
                return orig(model, images)
            finally:
                self.end(i)
        return call

    def _conv_wrapper(self, orig):
        def call(x, kernel, bias):
            name = self.conv_names.get(id(kernel), "other")
            n, h, w, _ = x.shape
            kh, kw, cin, cout = kernel.shape
            flops = 2 * n * h * w * kh * kw * cin * cout
            i = self.begin("tensor.conv2d.fwd." + name)
            try:
                out = orig(x, kernel, bias)
            finally:
                self.end(i, extra=flops)
            grad_fn = out._grad_fn

            def timed_grad(g):
                j = self.begin("tensor.conv2d.bwd." + name)
                try:
                    return grad_fn(g)
                finally:
                    self.end(j, extra=2 * flops)
            out._grad_fn = timed_grad
            return out
        return call

    def _total_loss_wrapper(self, orig):
        def call(pred, target, taps, *args, **kwargs):
            self.tap_names = {id(t.activation): t.name for t in taps}
            i = self.begin("losses.total_loss")
            try:
                return orig(pred, target, taps, *args, **kwargs)
            finally:
                self.end(i)
        return call

    def _tap_wrapper(self, prefix: str, record: bool = False):
        """Name a per-tap loss call by its first argument: the tap's activation
        for feature_summary, the summary it returned for fd and fd_exch."""
        def make(orig):
            def call(*args, **kwargs):
                tap = self.tap_names.get(id(args[0]), "other")
                i = self.begin(f"{prefix}.{tap}")
                try:
                    out = orig(*args, **kwargs)
                finally:
                    self.end(i)
                if record:
                    self.tap_names[id(out)] = tap
                return out
            return call
        return make


# -- per-layer metrics from spans ------------------------------------------------

def _self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _tail(values: list[float]) -> tuple[str, float]:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", float(np.percentile(values, p))
    return "p50", float(np.median(values)) if values else 0.0


def _med(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[list], traced_walls: list[float],
                  warm_traced_walls: list[float], untraced_walls: list[float],
                  worker_blas: int) -> dict:
    """The per-layer metrics and a report with the self time of each layer."""
    own = _self_times(spans)
    dur: dict[str, list[float]] = {}
    selfs: dict[str, list[float]] = {}
    for s, o in zip(spans, own):
        dur.setdefault(s[0], []).append(s[2] - s[1])
        selfs.setdefault(s[0], []).append(o)

    def ms(name, table=dur):
        return 1e3 * _med(table.get(name, []))

    def children_total(parent: str, names) -> list[float]:
        """Per span called `parent`: summed duration of its `names` children."""
        per: dict[int, float] = {i: 0.0 for i, s in enumerate(spans)
                                 if s[0] == parent}
        for s in spans:
            if s[3] in per and s[0] in names:
                per[s[3]] += s[2] - s[1]
        return list(per.values())

    m: dict[str, float] = {}
    conv_flops = conv_time = 0.0
    for s in spans:
        if s[0].startswith("tensor.conv2d."):
            conv_flops += s[5]
            conv_time += s[2] - s[1]
    for c in CONVS:
        m[f"tensor.conv2d.fwd_ms.{c}"] = ms(f"tensor.conv2d.fwd.{c}")
        m[f"tensor.conv2d.bwd_ms.{c}"] = ms(f"tensor.conv2d.bwd.{c}")
    m["tensor.conv2d.gflops_per_s"] = conv_flops / conv_time / 1e9 if conv_time else 0.0

    # exact counts come from the first operation only, so they repeat exactly
    first = [s for s in spans if s[4] == 0]
    units = sum(1 for s in first if s[0] == "sweeps.cell") or 1
    steps0 = [s for s in first if s[0] == "trainer.step"]
    m["tensor.conv2d.gflop"] = sum(s[5] for s in first
                                   if s[0].startswith("tensor.conv2d.")) / 1e9 / units
    m["tensor.backward.self_ms"] = ms("tensor.backward", selfs)
    m["tensor.graph_nodes"] = (sum(s[5] for s in steps0) / len(steps0)) if steps0 else 0.0

    m["unet.forward.self_ms"] = ms("unet.forward", selfs)
    for name in ("init_params", "load_checkpoint", "save_checkpoint"):
        m[f"unet.{name}_ms"] = ms(f"unet.{name}")

    m["losses.total_loss_ms"] = ms("losses.total_loss")
    m["losses.pool_mask_ms"] = ms("losses.pool_mask")
    m["losses.alpha_update_ms"] = ms("losses.alpha_update")
    for t in TAPS:
        m[f"losses.feature_summary_ms.{t}"] = ms(f"losses.feature_summary.{t}")
        m[f"losses.fd_ms.{t}"] = ms(f"losses.fd.{t}")
        m[f"losses.fd_exch_ms.{t}"] = ms(f"losses.fd_exch.{t}")

    steps = dur.get("trainer.step", [])
    tail_name, tail = _tail(steps)
    m["trainer.step_ms.p50"] = 1e3 * _med(steps)
    m["trainer.step_ms.tail"] = 1e3 * tail
    m["trainer.sgd_step_ms"] = ms("trainer.sgd_step")
    m["trainer.evaluate_ms"] = ms("trainer.evaluate")
    m["trainer.batch_ms"] = ms("trainer.batch")
    m["trainer.steps"] = len(steps0) / units

    m["data.generate_site_ms"] = ms("data.generate_site")
    m["data.generate_site.calls"] = sum(1 for s in first
                                        if s[0] == "data.generate_site") / units
    m["data.augment_ms"] = 1e3 * _med(children_total("trainer.train", {"data.augment"}))
    m["data.add_gaussian_noise_ms"] = 1e3 * _med(
        children_total("trainer.train", {"data.add_gaussian_noise"}))

    cells = dur.get("sweeps.cell", [])
    m["sweeps.cell_s.p50"] = _med(cells)
    m["sweeps.cell_s.max"] = max(cells, default=0.0)
    # workers: most cells running at once (perf_counter is one clock for all
    # processes on Linux)
    edges = sorted([(s[1], 1) for s in spans if s[0] == "sweeps.cell"]
                   + [(s[2], -1) for s in spans if s[0] == "sweeps.cell"])
    workers = running = 0
    for _, step in edges:
        running += step
        workers = max(workers, running)
    m["sweeps.workers"] = workers
    m["sweeps.blas_threads"] = (worker_blas if worker_blas >= 0 else blas_threads()) \
        if cells else 0
    sweep_wall = sum(dur.get("sweeps.sweep", []))
    m["sweeps.busy_share"] = sum(cells) / (workers * sweep_wall) if cells else 0.0

    m["cli.outputs_ms"] = 1e3 * _med(children_total("cli.main", set(CLI_OUTPUTS)))

    # self time by layer, in operations: the driving process's spans below
    # the operation root, and the sweep workers' spans, which run concurrently
    layers: dict[str, float] = {}
    worker_layers: dict[str, float] = {}
    for s, o in zip(spans, own):
        table = layers if len(s) == 6 else worker_layers
        if s[4] >= 0 and (s[3] >= 0 or len(s) > 6):
            layer = s[0].split(".")[0]
            table[layer] = table.get(layer, 0.0) + o
    m["trace.overhead_s"] = _med(warm_traced_walls) - _med(untraced_walls)
    m["trace.coverage"] = sum(layers.values()) / sum(traced_walls) if traced_walls else 0.0

    report = {"step_tail_percentile": tail_name, "steps_sampled": len(steps),
              "traced_ops": len(traced_walls), "untraced_ops": len(untraced_walls),
              "traced_wall_s": sum(traced_walls),
              "self_s_by_layer": {k: layers[k] for k in sorted(layers)},
              "worker_self_s_by_layer": {k: worker_layers[k]
                                         for k in sorted(worker_layers)}}
    return {"metrics": m, "report": report}
