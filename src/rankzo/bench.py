"""Experiment runner: grids, queries to target, persistence.

A grid is a list of quadratic cells (d, mu, L and a run configuration)
crossed with a seed list; every cell/seed pair produces one
:class:`ResultRow` with :func:`queries_to_target`, the final gap, and the
fitted log-gap decay slope.  Cells are independent, so the grid can run
on a process pool; rows are sorted before writing, and carry no timing,
so the CSV is a function of the grid alone.  Each run's wall time goes
into the summary.

Objectives come from this module's ``make_quadratic`` and
``make_rosenbrock_like``, looked up at call time; they hold the defaults.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import astuple, dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from .objective import Objective, make_quadratic, make_rosenbrock_like
from .optimizer import RunConfig, RunTrace, run, write_csv
from .theory import predict_complexity

__all__ = [
    "GridCell",
    "ExperimentGrid",
    "ResultRow",
    "RESULT_COLUMNS",
    "queries_to_target",
    "fit_log_gap_slope",
    "median_or_none",
    "run_grid",
    "write_json",
    "build_objective",
]

RESULT_COLUMNS = ("config_id", "seed", "scheme", "N", "d", "kappa", "policy",
                  "queries_to_target", "final_gap", "slope")


def build_objective(kind: str, d: int, **params) -> Objective:
    """The ``quadratic`` or ``rosenbrock`` objective at dimension ``d``; only
    the given ``params`` reach its maker, which holds the defaults."""
    if kind == "quadratic":
        return make_quadratic(d, **params)
    if kind == "rosenbrock":
        return make_rosenbrock_like(d, **params)
    raise ValueError(f"unknown objective kind {kind!r}")


@dataclass(frozen=True)
class GridCell:
    """One quadratic benchmark configuration; crossed with the grid's seed
    list.  ``objective_seed`` reaches :func:`make_quadratic` only when set."""

    config_id: str
    d: int
    mu: float
    L: float
    config: RunConfig
    objective_seed: Optional[int] = None

    def make_objective(self) -> Objective:
        seed = {} if self.objective_seed is None else {"seed": self.objective_seed}
        return make_quadratic(self.d, self.mu, self.L, **seed)


@dataclass(frozen=True)
class ExperimentGrid:
    cells: Sequence[GridCell]
    seeds: Sequence[int]
    eps_rel: float = 1e-4

    def __post_init__(self) -> None:
        if not self.cells or not self.seeds:
            raise ValueError("grid needs at least one cell and one seed")
        if not (0.0 < self.eps_rel < 1.0):
            raise ValueError("eps_rel must lie in (0, 1)")
        for name, values in (("config_id", [c.config_id for c in self.cells]),
                             ("seed", self.seeds)):
            repeated = sorted(v for v, k in Counter(values).items() if k > 1)
            if repeated:
                raise ValueError(f"repeated {name}s {repeated}")


@dataclass(frozen=True)
class ResultRow:
    """One grid run; the fields are in :data:`RESULT_COLUMNS` order."""

    config_id: str
    seed: int
    scheme: str
    n: int
    d: int
    kappa: float
    policy: str
    queries_to_target: Optional[int]
    final_gap: float
    slope: float


def queries_to_target(trace: RunTrace, eps_rel: float) -> Optional[int]:
    """Queries spent before the gap first falls to ``eps_rel`` x the initial gap.

    Row t records the gap at x_t before that iteration's queries, so the
    cost of reaching x_t is the cumulative count of row t-1 (0 for
    t = 0); the final gap is checked last.  A trace without rows never
    moved x (an early stop at t = 0, or T = 0), so its initial gap is its
    final gap: 0 queries when that meets the target.  None when the
    target is never reached, or without a finite initial gap (no known
    optimum).
    """
    initial = trace.fgap[0] if len(trace.t) else trace.final_gap
    if not math.isfinite(initial):
        return None
    eps = eps_rel * initial
    for i, gap in enumerate(trace.fgap):
        if gap <= eps:
            return trace.queries_cum[i - 1] if i > 0 else 0
    if trace.final_gap <= eps:
        return trace.total_queries
    return None


def fit_log_gap_slope(trace: RunTrace) -> float:
    """Least-squares slope of log(gap) against iteration index."""
    gaps = np.asarray(trace.fgap, dtype=float)
    t = np.asarray(trace.t, dtype=float)
    keep = np.isfinite(gaps) & (gaps > 0)
    if keep.sum() < 2:
        return float("nan")
    y = np.log(gaps[keep])
    return float(np.polyfit(t[keep], y, 1)[0])


def _run_cell(args):
    """One cell x seed run: its :class:`ResultRow` and wall time in ms, or
    the message of the exception it raised (a string, so it crosses a
    process pool)."""
    cell, seed, eps_rel = args
    try:
        cfg = replace(cell.config, seed=seed, eps_target=eps_rel)
        trace = run(cell.make_objective(), cfg)
        return ResultRow(
            config_id=cell.config_id, seed=seed, scheme=cfg.scheme, n=cfg.n,
            d=cell.d, kappa=cell.L / cell.mu, policy=cfg.step.kind,
            queries_to_target=queries_to_target(trace, eps_rel),
            final_gap=trace.final_gap, slope=fit_log_gap_slope(trace),
        ), trace.wall_ms
    except Exception as exc:  # grid keeps going; failure lands in summary
        return str(exc)


def run_grid(grid: ExperimentGrid, jobs: int = 1,
             out_dir: Optional[str] = None) -> tuple[List[ResultRow], Dict]:
    """Execute every cell x seed, optionally in parallel.

    Individual cell failures are recorded in the summary and do not stop
    the grid.  Rows come back sorted by (config_id, seed) so output files
    do not depend on scheduling order.  The summary's ``wall_ms`` maps
    ``"<config_id>/seed=<seed>"``, the name an ``errors`` entry starts
    with, to that run's wall time; a run that raised has no entry.  When
    ``out_dir`` is given, ``results.csv`` and ``summary.json`` are
    written there.
    """
    tasks = [(cell, seed, grid.eps_rel)
             for cell in grid.cells for seed in grid.seeds]
    if jobs > 1:
        # imported here so serial runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_cell, tasks))
    else:
        outcomes = map(_run_cell, tasks)
    rows: List[ResultRow] = []
    errors: List[str] = []
    wall_ms: Dict[str, int] = {}
    for (cell, seed, _), outcome in zip(tasks, outcomes):
        name = f"{cell.config_id}/seed={seed}"
        if isinstance(outcome, str):
            errors.append(f"{name}: {outcome}")
        else:
            row, wall_ms[name] = outcome
            rows.append(row)
    rows.sort(key=lambda r: (r.config_id, r.seed))
    summary = _summarize(grid, rows, errors, wall_ms)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "results.csv"), RESULT_COLUMNS,
                  map(astuple, rows))
        write_json(os.path.join(out_dir, "summary.json"), summary)
    return rows, summary


def median_or_none(values) -> Optional[float]:
    """Median of the values that are not None; None when there are none."""
    vals = [v for v in values if v is not None]
    return _median(vals) if vals else None


def _median(values) -> float:
    """``float(np.median(values))``, bit for bit, for a non-empty list of
    numbers: nan if any is nan, else the middle value or the mean of the
    two, summed from 0.0 as ``np.mean`` does (so -0.0 comes out 0.0).
    ``np.median`` would load ``numpy.ma`` to check for nan."""
    s = np.sort(np.asarray(values, dtype=float))
    h = len(s) // 2
    if math.isnan(s[-1]):  # the sort puts nan last
        return float(s[-1])
    if len(s) % 2:
        return 0.0 + float(s[h])
    return (0.0 + float(s[h - 1]) + float(s[h])) / 2


def _summarize(grid: ExperimentGrid, rows: List[ResultRow],
               errors: List[str], wall_ms: Dict[str, int]) -> Dict:
    per_cell = {}
    for cell in grid.cells:
        cell_rows = [r for r in rows if r.config_id == cell.config_id]
        if not cell_rows:
            continue
        pred = predict_complexity(cell.d, cell.L, grid.eps_rel, delta_prime=0.1,
                                  mu=cell.mu)
        per_cell[cell.config_id] = {
            "median_queries_to_target": median_or_none(
                [r.queries_to_target for r in cell_rows]),
            "reached": sum(r.queries_to_target is not None for r in cell_rows),
            "runs": len(cell_rows),
            "median_final_gap": _median([r.final_gap for r in cell_rows]),
            "median_slope": _median([r.slope for r in cell_rows]),
            "predicted": {"t": pred.t, "q": pred.q, "n": pred.n},
        }
    return {"eps_rel": grid.eps_rel, "cells": per_cell, "errors": errors,
            "wall_ms": wall_ms}


def _finite_or_null(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def write_json(path: str, data) -> None:
    """Write ``data`` as strict JSON: non-finite floats become ``null``.

    Sorted keys, two-space indent, '\\n' line endings and a trailing
    newline; the one writer for every ``summary.json`` and
    ``ablate_summary.json``.
    """
    with open(path, "w", newline="\n") as fh:
        json.dump(_finite_or_null(data), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
