"""One fdseg benchmark workload, run in a fresh process by run.py.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S
        --trace 0|1 --work DIR --result FILE [--setup-only]

Set-up runs first and is timed from the top of this file, before fdseg and
numpy are imported. Then operations run back to back (a closed loop, one
driving process) up to the operation boundary nearest to --seconds. An
operation is one training (desk32), one `fdseg train` command (train64), one
round of sweep cells (sweep) or one checkpoint load plus evaluation
(infer64). Each is checked;
a unit that raises, reports a non-ok status or fails its check is counted
as failed. Outputs are fingerprinted and compared with every earlier
operation on the same inputs and code, in this run and in earlier runs in
the same checkout.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fdseg.cli  # noqa: E402
import fdseg.data  # noqa: E402
import fdseg.sweeps  # noqa: E402
import fdseg.trainer  # noqa: E402
import fdseg.unet  # noqa: E402
from fdseg.data import BASE_SITE, NOVEL_SITE  # noqa: E402

import spans  # noqa: E402

# tests/test_acceptance.py: seed-0 seg+fd test Dice of the benefit experiment
ANCHOR_SEED0_SEG_FD = 0.980038
ANCHOR_TOL = 1e-3
DATA_SEED = 1234

SITE_32 = dataclasses.replace(BASE_SITE, image_size=(32, 32))
NOVEL_32 = dataclasses.replace(NOVEL_SITE, image_size=(32, 32))


@dataclasses.dataclass
class Outcome:
    units: int            # operations inside: trainings, CLI runs, cells, passes
    failed: int
    samples: int          # samples through the measured path
    fingerprints: dict    # key -> digest of outputs that must repeat exactly
    note: str = ""


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _n_train(n: int) -> int:
    return len(fdseg.data.split_dataset(list(range(n)))[0])


class Desk32:
    """Acceptance benefit training: 32x32 base site, seg+fd, 4+16 epochs."""
    units = 1

    def __init__(self, seed: int, work: str):
        samples = fdseg.data.generate_site(SITE_32, 40, seed=DATA_SEED)
        self.train, self.test, self.val = fdseg.data.split_dataset(
            samples, seed=DATA_SEED)
        self.seed = seed

    def op(self, k: int) -> Outcome:
        # the first training of every run is the pinned seed-0 anchor
        ts = 0 if k == 0 else self.seed * 100 + k
        cfg = fdseg.trainer.TrainConfig(phase1_epochs=4, phase2_epochs=16, seed=ts,
                                        loss_mode="seg+fd", lr=0.02,
                                        augment_train=False)
        model = fdseg.unet.init_params(fdseg.unet.UNetConfig(
            depth=2, base_channels=8, image_size=(32, 32)), seed=ts)
        best, history = fdseg.trainer.train(
            cfg, model, {"train": self.train, "val": self.val, "test": self.test})
        records = fdseg.trainer.evaluate(best, self.test)
        dice = float(np.mean([r.dice for r in records]))
        ok = all(math.isfinite(h.total) for h in history)
        ok &= (abs(dice - ANCHOR_SEED0_SEG_FD) <= ANCHOR_TOL if ts == 0
               else 0.0 <= dice <= 1.0)
        text = "\n".join(f"{r.sample_id},{r.dice:.6f},{r.iou:.6f},"
                         f"{r.fd_last_decoder:.6f}" for r in records)
        epochs = cfg.phase1_epochs + cfg.phase2_epochs
        return Outcome(1, 0 if ok else 1, len(self.train) * epochs,
                       {f"desk32/train-seed{ts}": _digest(text)},
                       f"seed {ts} dice {dice:.6f}")


class Train64:
    """`fdseg train` with the CLI defaults and a 1+1 epoch schedule."""
    units = 1
    epochs = (1, 1)

    def __init__(self, seed: int, work: str):
        self.out = os.path.join(work, "train64")
        self.argv = ["train", "--out", self.out, "--force", "--seed", str(seed),
                     "--phase1-epochs", str(self.epochs[0]),
                     "--phase2-epochs", str(self.epochs[1])]
        self.key = f"train64/seed{seed}"
        # the CLI trains on its 40-sample site's train split, augmented x5
        self.samples = _n_train(40) * 5 * sum(self.epochs)

    def op(self, k: int) -> Outcome:
        rc = fdseg.cli.main(self.argv)
        texts = []
        for name in ("history.csv", "evaluation.csv", "manifest.json"):
            with open(os.path.join(self.out, name), encoding="utf-8") as fh:
                texts.append(fh.read())
        history = texts[0].splitlines()[1:]
        evals = [row.split(",") for row in texts[1].splitlines()[1:]]
        ok = (rc == 0 and len(history) == sum(self.epochs) and len(evals) == 8
              and os.path.getsize(os.path.join(self.out, "model.ckpt")) > 0
              and all(math.isfinite(float(v)) for row in evals for v in row))
        return Outcome(1, 0 if ok else 1, self.samples,
                       {self.key: _digest("\n".join(texts[:2]))}, f"exit {rc}")


class Sweep:
    """Data-addition (seg+fd+exch, capped) and noise cells in the default pool.

    Each sweep call has two cells of equal size, one per worker of a 2-wide
    pool, so the slower worker is not decided by which cell it drew.
    """
    cells_per_call = 2
    units = 2 * cells_per_call
    epochs = (1, 1)

    def __init__(self, seed: int, work: str):
        self.settings = fdseg.sweeps.SweepSettings(
            base_site=SITE_32, novel_site=NOVEL_32, n_base=10, n_novel=10,
            phase1_epochs=self.epochs[0], phase2_epochs=self.epochs[1], lr=0.02,
            augment_train=False, cap_novel_at_base=True, data_seed=DATA_SEED + seed)
        self.seeds = (2 * seed, 2 * seed + 1)
        self.csv = os.path.join(work, "sweep.csv")
        self.key = f"sweep/seed{seed}"
        base = _n_train(10)
        # per seed: a base+novel cell (the cap keeps novel at base size) and
        # a base-only noise cell
        self.samples = (2 * base + base) * len(self.seeds) * sum(self.epochs)

    def op(self, k: int) -> Outcome:
        da = fdseg.sweeps.data_addition_sweep(
            self.settings, fractions=(1.0,), loss_modes=("seg+fd+exch",),
            seeds=self.seeds)
        nz = fdseg.sweeps.noise_sweep(self.settings, sigmas=(0.2,),
                                      loss_modes=("seg+fd",), seeds=self.seeds)
        result = fdseg.sweeps.SweepResult(rows=da.rows + nz.rows)
        fdseg.sweeps.write_sweep_csv(self.csv, result)
        with open(self.csv, encoding="utf-8") as fh:
            text = fh.read()
        bad = sum(1 for r in result.rows
                  if r.status != "ok" or not 0.0 <= r.test_dice_base <= 1.0)
        bad += self.units - len(result.rows)
        return Outcome(self.units, bad, self.samples,
                       {self.key: _digest(text)}, f"{len(result.rows)} rows")


class Infer64:
    """load_checkpoint, then evaluate 256 held-out 64x64 samples."""
    units = 1
    n_samples = 256

    def __init__(self, seed: int, work: str):
        self.samples = fdseg.data.generate_site(BASE_SITE, self.n_samples,
                                                seed=DATA_SEED + 1 + seed)
        model = fdseg.unet.init_params(fdseg.unet.UNetConfig(), seed=seed)
        self.path = os.path.join(work, "infer64.ckpt")
        fdseg.unet.save_checkpoint(model, self.path)
        self.key = f"infer64/seed{seed}"

    def op(self, k: int) -> Outcome:
        model = fdseg.unet.load_checkpoint(self.path)
        records = fdseg.trainer.evaluate(model, self.samples)
        ok = (len(records) == self.n_samples
              and all(0.0 <= r.dice <= 1.0 and 0.0 <= r.iou <= 1.0
                      and math.isfinite(r.fd_last_decoder) for r in records))
        text = "\n".join(f"{r.sample_id},{r.dice:.6f},{r.iou:.6f},"
                         f"{r.fd_last_decoder:.6f}" for r in records)
        return Outcome(1, 0 if ok else 1, self.n_samples, {self.key: _digest(text)})


WORKLOADS = {"desk32": Desk32, "train64": Train64, "sweep": Sweep,
             "infer64": Infer64}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": spans.blas_threads(),
            "sweep_pool_width": fdseg.sweeps._pool_width(Sweep.cells_per_call),
            "OPENBLAS_NUM_THREADS_set": "OPENBLAS_NUM_THREADS" in os.environ,
            "FDSEG_WORKERS_set": "FDSEG_WORKERS" in os.environ}


def _code_version() -> str:
    """Digest of this file, which fixes the inputs, and of the fdseg sources:
    outputs must repeat only while both are unchanged."""
    h = hashlib.sha256()
    for path in [__file__] + sorted(glob.glob(os.path.join(
            os.path.dirname(fdseg.__file__), "*.py"))):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:12]


class FingerprintStore:
    """Output digests by input key, kept across runs in the work directory."""

    def __init__(self, path: str):
        self.path = path
        self.known = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                self.known = json.load(fh)

    def check(self, prints: dict) -> bool:
        ok = True
        for key, digest in prints.items():
            ok &= self.known.setdefault(key, digest) == digest
        return ok

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.known, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = spans.Tracer(args.work) if args.trace else None
    if tracer:
        tracer.install()
    state = WORKLOADS[args.workload](args.seed, args.work)
    setup_s = time.perf_counter() - T0
    if tracer:
        tracer.uninstall()
    result = {"setup_s": setup_s}
    if args.setup_only:
        return _write(args.result, result)

    store = FingerprintStore(os.path.join(args.work,
                                          f"fingerprints-{_code_version()}.json"))
    ops = []
    start = time.perf_counter()
    # stop at the operation boundary nearest to --seconds; a traced run
    # alternates traced and untraced operations, to measure the tracing
    # overhead, so it needs at least two
    last = 0.0
    while (len(ops) < 1 + args.trace
           or time.perf_counter() - start + last / 2 < args.seconds):
        k = len(ops)
        traced = bool(tracer) and k % 2 == 0
        if traced:
            tracer.op = k
            tracer.install()
            root = tracer.begin("bench.op")
        t = time.perf_counter()
        try:
            out = state.op(k)
        except Exception as exc:       # a failed operation, not a failed run
            traceback.print_exc()
            out = Outcome(state.units, state.units, 0, {}, f"raised {exc!r}")
        wall = last = time.perf_counter() - t
        if traced:
            tracer.end(root)
            tracer.uninstall()
            tracer.collect_workers()
        if not store.check(out.fingerprints):
            out.failed, out.note = out.units, out.note + "; output differs"
        ops.append({"wall_s": wall, "units": out.units, "failed": out.failed,
                    "samples": out.samples, "traced": traced, "note": out.note})
    if all(o["failed"] == 0 for o in ops):
        store.save()

    result.update(ops=ops, env=environment())
    if tracer:
        # the first operation runs cold; the overhead compares warm ones
        traced_walls = [o["wall_s"] for o in ops if o["traced"]]
        result["layers"] = spans.layer_metrics(
            tracer.spans, traced_walls, traced_walls[1:] or traced_walls,
            [o["wall_s"] for o in ops if not o["traced"]], tracer.worker_blas)
    return _write(args.result, result)


def _write(path: str, result: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
