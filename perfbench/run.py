"""rankzo benchmark: three CLI workloads, end-to-end cost, per-layer trace.

Usage, from the repository root::

    python3 perfbench/run.py --workload practical_grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --trace 1

``--workload`` takes one name, a comma list or ``all``.  Each workload
runs in fresh processes: one worker that sets up and then runs the
subcommand call after call, and ``SETUP_SAMPLES - 1`` processes that
only set up.  Those set-up probes run between the worker's calls, spread
evenly over the ``--seconds`` window, so they meet the same machine
conditions as the calls.  ``setup_s`` is the median set-up time over
all these processes and ``wall_s`` the median call time.  ``--trace 1``
runs no probes; it alternates untraced and traced calls and reports the
per-layer metrics instead.

Prints the machine block, every metric by name and unit, and as its
last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` (metric names are prefixed ``<workload>.`` when more than
one workload runs).  Exits 1 when an output check fails, 2 on bad usage
or when the rankzo sources are missing, 3 when a worker process fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RUN_DIR = WORK / str(os.getpid())
SETUP_SAMPLES = 25
#: a process still running this many seconds past the window is killed
WORKER_GRACE_S = 100
BLAS_THREADS = "1"
WARM_UP_RULE = ("each process builds the workload's largest-d quadratic and "
                "evaluates f, its batch form and its gradient once before 'ready'")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SHARED_UNITS = {"iters_per_s": "1/s", "queries_to_target": "count", "error_rate": "ratio"}


class WorkerFailed(RuntimeError):
    pass


@contextlib.contextmanager
def _started(name: str, seed: int, trace: int, setup_only: bool, timeout: float):
    """One worker process, killed after ``timeout`` s; yields it and its set-up time."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--trace", str(trace), "--work-dir", str(RUN_DIR / name)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdin=None if setup_only else subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env) as proc:
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            if ready.strip() != "ready":
                raise WorkerFailed(f"{name} worker ended before 'ready'")
            yield proc, setup_s
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def _probe(name: str, seed: int) -> float:
    """Set-up time of one process that only sets up."""
    with _started(name, seed, 0, True, WORKER_GRACE_S) as (proc, setup_s):
        proc.stdout.read()
        if proc.wait() != 0:
            raise WorkerFailed(f"{name} set-up probe exited with code {proc.returncode}")
    return setup_s


def _measure(name: str, seed: int, seconds: float, trace: int):
    """Calls, and the set-up probes between them, for about ``seconds``.

    Probe ``i`` is due ``i / (probes + 1)`` of the way through the window
    and runs after the call in progress at that moment.  A further call
    starts only while it, at the length of the previous one, and the
    probes still owed fit in the window; at least one call (two when
    tracing, so that one is traced) always runs.
    """
    probes = 0 if trace else SETUP_SAMPLES - 1
    t_start = time.perf_counter()
    with _started(name, seed, trace, False, seconds + WORKER_GRACE_S) as (proc, setup_s):
        setups = [setup_s]
        calls, last = 0, 0.0
        while True:
            elapsed = time.perf_counter() - t_start
            owed = (probes + 1 - len(setups)) * statistics.mean(setups)
            if calls >= (2 if trace else 1) and elapsed + last + owed > seconds:
                break
            t0 = time.perf_counter()
            proc.stdin.write("go\n")
            proc.stdin.flush()
            if proc.stdout.readline().strip() != "done":
                raise WorkerFailed(f"{name} worker ended during call {calls + 1}")
            last = time.perf_counter() - t0
            calls += 1
            while (len(setups) <= probes and time.perf_counter() - t_start
                   >= len(setups) * seconds / (probes + 1)):
                setups.append(_probe(name, seed))
        proc.stdin.write("stop\n")
        proc.stdin.close()
        lines = proc.stdout.read().splitlines()
        if proc.wait() != 0 or not lines:
            raise WorkerFailed(f"{name} worker exited with code {proc.returncode}")
    while len(setups) <= probes:
        setups.append(_probe(name, seed))
    return setups, json.loads(lines[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    setups, result = _measure(name, seed, seconds, trace)
    walls = result["walls"]
    wall_s = statistics.median(walls)
    layers = result.get("layers", {})
    # workload-level readings; where a workload has none the traced table reads 0
    iterations = layers.get("optimizer.iterations", result["iterations"])
    shared = {
        "iters_per_s": iterations / wall_s if iterations is not None else None,
        "queries_to_target": result["queries_to_target"],
        "error_rate": result["failed"] / result["attempted"],
    }
    e2e = {"setup_s": statistics.median(setups), "wall_s": wall_s,
           "peak_rss_mb": result["peak_rss_mb"]}
    if trace:
        layers["trace.overhead_frac"] = statistics.median(result["traced_walls"]) / wall_s - 1
        metrics = {**{k: (v, _layer_unit(k)) for k, v in sorted(layers.items())},
                   **{k: (v or 0, SHARED_UNITS[k]) for k, v in shared.items()}}
    else:
        metrics = {k: (v, E2E_UNITS[k]) for k, v in e2e.items()}
    return {"result": result, "setups": setups, "metrics": metrics, "e2e": e2e,
            "shared": shared}


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.startswith("theory.check_s."):
        return "s"
    if name.endswith("_ns_per_row"):
        return "ns"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def _report(name: str, seed: int, out: dict) -> None:
    result = out["result"]
    walls = result["walls"]
    q1, q3 = _quartiles(walls)
    s1, s3 = _quartiles(out["setups"])
    print(f"== {name} (seed {seed})")
    print(f"   wall_s {statistics.median(walls):.6f} s over {len(walls)} untraced calls "
          f"(q1 {q1:.6f}, q3 {q3:.6f}, min {min(walls):.6f}, max {max(walls):.6f})")
    print(f"   setup_s {statistics.median(out['setups']):.6f} s over "
          f"{len(out['setups'])} processes (q1 {s1:.6f}, q3 {s3:.6f})")
    if result["traced_walls"]:
        print(f"   traced calls: {len(result['traced_walls'])}")
    print(f"   checks: {result['attempted']} operations, {result['failed']} failed")
    for problem in result["problems"]:
        print(f"   FAILED: {problem}")
    shown = {**{k: (v, E2E_UNITS[k]) for k, v in out["e2e"].items()},
             **{k: (v, SHARED_UNITS[k]) for k, v in out["shared"].items() if v is not None},
             **out["metrics"]}
    for metric, (value, unit) in shown.items():
        print(f"   {metric:42s} {value:16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, a comma list, or 'all'")
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown or not names:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "rankzo" / "cli.py").is_file():
        print(f"error: rankzo sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    outs = {}
    try:
        for name in names:
            outs[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    machine = next(iter(outs.values()))["result"]["machine"]
    print("machine " + json.dumps({**machine, "blas_threads_env": BLAS_THREADS,
                                   "seed": args.seed, "seconds": args.seconds,
                                   "setup_samples": SETUP_SAMPLES,
                                   "warm_up": WARM_UP_RULE}, sort_keys=True))
    for name, out in outs.items():
        _report(name, args.seed, out)
    prefix = len(outs) > 1
    metrics = {(f"{name}.{k}" if prefix else k): {"value": v, "unit": u}
               for name, out in outs.items() for k, (v, u) in out["metrics"].items()}
    attempted = sum(o["result"]["attempted"] for o in outs.values())
    failed = sum(o["result"]["failed"] for o in outs.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
