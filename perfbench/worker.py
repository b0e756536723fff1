"""One fresh benchmark process: set up, say ``ready``, then run calls.

Run by ``run.py``, never by hand.  Set-up covers the imports, writing the
workload config and a warm-up objective build at the workload's largest
dimension (so first-call library costs land in set-up, not in the timed
calls).  With ``--setup-only`` the process exits after ``ready``.
Otherwise it reads one line from stdin per call: ``go`` runs the
workload's subcommand once and answers ``done``; anything else ends the
loop, and the process prints one JSON line with the per-call walls, the
output checks and, with ``--trace 1``, the per-layer metrics.  Traced
and untraced calls alternate, starting untraced.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_rankzo():
    sys.path.insert(0, str(ROOT / "src"))
    import rankzo.cli
    if Path(rankzo.cli.__file__).resolve().parent != ROOT / "src" / "rankzo":
        raise ImportError(f"rankzo imported from {rankzo.cli.__file__}, not {ROOT / 'src'}")
    return rankzo.cli


def _blas_runtime():
    """OpenBLAS version and thread count as loaded in this process."""
    info = {"blas_config": "unknown", "blas_threads": None}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return info
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", ""), ("openblas", "64_")):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                return {"blas_config": config().decode(), "blas_threads": threads()}
    return info


def _machine():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **_blas_runtime(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli = _import_rankzo()
    from rankzo.objective import make_quadratic
    import numpy as np

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "workload.cfg"
    config_path.write_text(workload.config(args.seed))
    warm = make_quadratic(workload.max_d, 1.0, 100.0, 7)
    warm.batch_fn(np.zeros((16, workload.max_d)))
    warm.fn(np.zeros(workload.max_d))
    warm.grad(np.zeros(workload.max_d))
    print("ready", flush=True)
    if args.setup_only:
        os._exit(0)  # skip interpreter teardown: nothing is left to flush

    from tracer import LAYERS, Tracer, installed, layer_metrics
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    out = work / "out"
    argv = workload.argv(config_path, out)
    walls, traced_walls, checks = [], [], []
    while sys.stdin.readline().strip() == "go":
        traced = args.trace == 1 and len(walls) > len(traced_walls)
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if traced:
                with installed(tracer):
                    t0 = time.perf_counter()
                    rc = traced_main(argv)
                    wall = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                rc = cli.main(argv)
                wall = time.perf_counter() - t0
        (traced_walls if traced else walls).append(wall)
        checks.append(workload.check(rc, out))
        print("done", flush=True)
    shutil.rmtree(out, ignore_errors=True)

    problems = [p for c in checks for p in c.problems]
    failed = sum(c.failed for c in checks)
    mismatched = sum(c.fingerprint != checks[0].fingerprint for c in checks)
    if mismatched:
        problems.append(f"{mismatched} of {len(checks)} calls differ from the first call's output")
    result = {
        "walls": walls,
        "traced_walls": traced_walls,
        "attempted": sum(c.attempted for c in checks),
        "failed": failed + mismatched,
        "problems": problems,
        "queries_to_target": checks[0].queries_to_target,
        "iterations": checks[0].iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": _machine(),
    }
    if traced_walls:
        layers = layer_metrics(tracer, len(traced_walls))
        layers["trace.wall_s"] = sum(traced_walls) / len(traced_walls)
        layers["trace.unattributed_s"] = layers["trace.wall_s"] - sum(
            layers[f"{layer}.self_s"] for layer in LAYERS)
        mismatch = tracer.count["objective.uncharged_mismatch"]
        if mismatch:
            result["failed"] += mismatch
            problems.append(f"query-ledger audit: {mismatch} runs with unexpected "
                            "uncharged evaluations")
        result["layers"] = layers
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
