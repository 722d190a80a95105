"""fdseg benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload desk32|train64|sweep|infer64
        --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository; the program is imported
from `src/`, nothing is installed. Each run starts fresh processes: two that
only set up, then one that measures; the median of the three set-up times is
`setup_s`. This process samples the resident memory of the measuring process
and its pool workers.
The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
environment record. Scratch files go to `.perfbench-work/` in the checkout.
See perfbench/METHOD.md for the workloads, metrics and tracing method.
"""
import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("desk32", "train64", "sweep", "infer64")
SETUP_PROBES = 2          # set-up-only processes; the measuring one adds a third
PROBE_TIMEOUT_S = 20
MEASURE_GRACE_S = 100     # beyond --seconds: the last operation and tracing
RSS_POLL_S = 0.25         # a /proc scan costs about 1.5 ms of one CPU
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def tree_rss_kb(root: int) -> int:
    """Resident set of `root` and all its descendants, from /proc."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        try:
            with open(f"/proc/{pid}/statm", encoding="ascii") as fh:
                total += int(fh.read().split()[1]) * PAGE_KB
        except (OSError, IndexError, ValueError):
            pass
        todo += children.get(pid, [])
    return total


def run_child(args: argparse.Namespace, work: str, extra: list[str],
              timeout: float, sample_rss: bool) -> tuple[dict, int]:
    """Run workload.py once; return its result and the peak tree RSS in KiB."""
    result_path = os.path.join(work, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--result", result_path] + extra
    # the program's own prints go to our stderr; stdout carries only results
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    peak = [0]
    done = threading.Event()

    def poll() -> None:
        while not done.wait(RSS_POLL_S):
            peak[0] = max(peak[0], tree_rss_kb(proc.pid))

    sampler = threading.Thread(target=poll, daemon=True)
    if sample_rss:
        sampler.start()
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"workload process exceeded {timeout:.0f} s")
    finally:
        done.set()
        if sampler.is_alive():
            sampler.join()
        try:                            # pool workers left behind, if any
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if rc != 0 or not os.path.exists(result_path):
        raise RuntimeError(f"workload process exited with code {rc}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), peak[0]


def end_to_end(ops: list[dict], setups: list[float], peak_kb: int) -> dict:
    """wall_s, samples_per_s and ops_per_min are one measurement, the total
    operation time, in three units. A total is steadier than a median here,
    because the time of one sweep call in the oversubscribed pool is bimodal."""
    busy = sum(o["wall_s"] for o in ops)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (busy / len(ops), "s"),
        "samples_per_s": (sum(o["samples"] for o in ops) / busy, "1/s"),
        "ops_per_min": (60.0 * sum(o["units"] for o in ops) / busy, "1/min"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "fdseg", "__init__.py")):
        print(f"error: no fdseg sources at {os.path.join(ROOT, 'src', 'fdseg')}",
              file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench-work", args.workload)
    os.makedirs(work, exist_ok=True)

    try:
        # set-up time is an end-to-end metric: not measured in a traced run
        setups = [run_child(args, work, ["--setup-only"], PROBE_TIMEOUT_S,
                            False)[0]["setup_s"]
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        result, peak_kb = run_child(args, work, [],
                                    args.seconds + MEASURE_GRACE_S, True)
    except RuntimeError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    ops = result["ops"]
    if not args.trace:
        setups.append(result["setup_s"])
    peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    attempted = sum(o["units"] for o in ops)
    failed = sum(o["failed"] for o in ops)
    if args.trace:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        layers = result["layers"]["metrics"]
        if set(layers) != set(declared):
            print(f"error: traced metrics differ from BENCHMARK.json per_layer: "
                  f"{sorted(set(layers) ^ set(declared))}", file=sys.stderr)
            return 1
        metrics = {k: {"value": v, "unit": declared[k]} for k, v in layers.items()}
    else:
        metrics = end_to_end(ops, setups, peak_kb)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": result["env"],
              "setup_samples_s": setups, "ops": ops,
              "trace_report": result.get("layers", {}).get("report")}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    os.makedirs(os.path.join(ROOT, ".perfbench-work", "results"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench-work", "results", name), "w",
              encoding="utf-8") as fh:
        json.dump(dict(record, metrics=metrics), fh, indent=1, sort_keys=True)
    for o in ops:
        if o["failed"]:
            print(f"failed: {o['note']}", file=sys.stderr)
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
