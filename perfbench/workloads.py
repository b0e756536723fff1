"""The three benchmark workloads: config text, warm-up size and output checks.

Each workload is one ``rankzo`` subcommand run in-process through
``rankzo.cli.main`` with a config written from the workload seed.  The
seed picks the run seeds (starting points, direction streams, Monte-Carlo
streams); the objective instances stay the repository's canonical ones,
because a new random rotation per seed moves the practical grid's query
count by ~7% (interquartile share over seeds) against ~2.5% when only the
run seeds change, which would drown the bounds.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

#: relative gap at which ``instrumented_long`` reads queries to target
INSTRUMENTED_EPS_REL = 1e-6
INSTRUMENTED_T = 6000
GRID_DIMS = (32, 64, 128)
GRID_KAPPAS = (10, 100)
GRID_SEEDS = 5
VERIFY_CHECKS = 11


@dataclass
class CallCheck:
    """What one subcommand call produced, judged by the workload's output checks."""

    attempted: int
    failed: int
    fingerprint: str
    problems: List[str]
    queries_to_target: Optional[float] = None
    iterations: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    max_d: int
    config: Callable[[int], str]
    check: Callable[[int, Path], CallCheck]

    def argv(self, config_path: Path, out_dir: Path) -> List[str]:
        argv = [self.subcommand, "--config", str(config_path), "--out", str(out_dir)]
        if self.subcommand == "bench":
            argv += ["--jobs", "1"]
        return argv


def _derived_seeds(seed: int, count: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_rows(path: Path) -> List[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# instrumented_long: per-iteration overhead of a long instrumented run
# ---------------------------------------------------------------------------

def _instrumented_config(seed: int) -> str:
    return "\n".join([
        "objective.kind = quadratic",
        "objective.d = 32",
        "objective.mu = 1.0",
        "objective.L = 10.0",
        "objective.seed = 7",
        "optimizer.N = 16",
        f"optimizer.T = {INSTRUMENTED_T}",
        "optimizer.scheme = uniform",
        "optimizer.step = instrumented",
        "optimizer.alpha = instrumented",
        "optimizer.alpha_c = 1.0",
        "optimizer.delta = 0.1",
        f"optimizer.seed = {_derived_seeds(seed, 1)[0]}",
        "",
    ])


def _instrumented_check(rc: int, out: Path) -> CallCheck:
    problems = []
    trace_path = out / "trace.csv"
    if rc != 0 or not trace_path.is_file():
        return CallCheck(1, 1, "", [f"optimize exit code {rc}, trace.csv missing"])
    data = trace_path.read_bytes()
    rows = _read_rows(trace_path)
    summary = json.loads((out / "summary.json").read_text())
    if len(rows) != INSTRUMENTED_T or summary.get("iterations") != INSTRUMENTED_T:
        problems.append(f"trace has {len(rows)} rows, expected {INSTRUMENTED_T}")
    q = None
    if rows:
        target = INSTRUMENTED_EPS_REL * float(rows[0]["fgap"])
        for i, row in enumerate(rows):
            if float(row["fgap"]) <= target:
                q = int(rows[i - 1]["queries_cum"]) if i > 0 else 0
                break
    if q is None:
        problems.append(f"gap never reached {INSTRUMENTED_EPS_REL:g} of the initial gap")
    return CallCheck(1, int(bool(problems)), _sha(data), problems,
                     queries_to_target=q, iterations=len(rows))


# ---------------------------------------------------------------------------
# practical_grid: rank-only backtracking runs to a relative target
# ---------------------------------------------------------------------------

def _grid_config(seed: int) -> str:
    return "\n".join([
        "bench.dims = " + ",".join(map(str, GRID_DIMS)),
        "bench.kappas = " + ",".join(map(str, GRID_KAPPAS)),
        "bench.ns = 16",
        "bench.schemes = uniform",
        "bench.seeds = " + ",".join(map(str, _derived_seeds(seed, GRID_SEEDS))),
        "bench.eps_rel = 1e-6",
        "bench.mu = 1.0",
        "bench.objective_seed = 7",
        "optimizer.N = 16",
        # a cap, ~13x the longest run seen; a run that hits it fails its target
        "optimizer.T = 20000",
        "optimizer.step = backtracking",
        "optimizer.eta0 = 1.0",
        "optimizer.shrink = 0.5",
        "optimizer.max_tries = 60",
        "optimizer.alpha = fixed",
        "optimizer.alpha0 = 1e-3",
        "",
    ])


def _grid_check(rc: int, out: Path) -> CallCheck:
    expected = len(GRID_DIMS) * len(GRID_KAPPAS) * GRID_SEEDS
    results = out / "results.csv"
    if rc != 0 or not results.is_file():
        return CallCheck(expected, expected, "", [f"bench exit code {rc}, results.csv missing"])
    rows = _read_rows(results)
    errors = json.loads((out / "summary.json").read_text()).get("errors", [])
    problems = [f"grid error: {e}" for e in errors]
    reached = [int(r["queries_to_target"]) for r in rows
               if r["queries_to_target"] != "not_reached"]
    # a run that raised is missing from results.csv and listed in errors
    missed = len(rows) - len(reached) + max(0, expected - len(rows))
    if missed:
        problems.append(f"{missed} of {expected} runs missed their target")
    # wall_ms is the one timing column; everything else must repeat exactly
    lines = results.read_text().splitlines()
    stable = "\n".join(line.rsplit(",", 1)[0] for line in lines)
    return CallCheck(expected, min(expected, missed), _sha(stable.encode()), problems,
                     queries_to_target=statistics.median(reached) if reached else None)


# ---------------------------------------------------------------------------
# verify_suite: the Monte-Carlo checks on 16384-row batches
# ---------------------------------------------------------------------------

def _verify_config(seed: int) -> str:
    return "\n".join([
        "verify.events = all",
        "verify.trials = 1000",
        "verify.trials_appendix = 10000",
        "verify.n = 32",
        "verify.d = 100",
        "verify.delta = 0.1",
        "verify.alpha_scale = 1.0",
        f"verify.seed = {_derived_seeds(seed, 1)[0]}",
        "",
    ])


def _verify_check(rc: int, out: Path) -> CallCheck:
    reports = out / "reports.csv"
    if not reports.is_file():
        return CallCheck(VERIFY_CHECKS, VERIFY_CHECKS, "",
                         [f"verify exit code {rc}, reports.csv missing"])
    rows = _read_rows(reports)
    failed = [r["event_id"] for r in rows if r["pass"] != "true"]
    failed_count = len(failed) + max(0, VERIFY_CHECKS - len(rows))
    problems = [f"check failed: {e}" for e in failed]
    if len(rows) != VERIFY_CHECKS:
        problems.append(f"{len(rows)} reports, expected {VERIFY_CHECKS}")
    if rc != 0:
        problems.append(f"verify exit code {rc}")
        failed_count = max(failed_count, 1)
    return CallCheck(VERIFY_CHECKS, min(VERIFY_CHECKS, failed_count),
                     _sha(reports.read_bytes()), problems)


WORKLOADS = {
    w.name: w for w in (
        Workload("instrumented_long", "optimize", 32,
                 _instrumented_config, _instrumented_check),
        Workload("practical_grid", "bench", max(GRID_DIMS),
                 _grid_config, _grid_check),
        Workload("verify_suite", "verify", 100,
                 _verify_config, _verify_check),
    )
}
