"""Experiment runner: grids, queries to target, persistence.

A grid is a list of cells (objective + run configuration) crossed with a
seed list; every cell/seed pair produces one :class:`ResultRow` with the
query count to a relative target, the final gap, and the fitted log-gap
decay slope.  Cells are independent, so the grid can run on a process
pool; rows are sorted before writing so the CSV is order-independent.
"""

from __future__ import annotations

import json
import math
import os
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
    "queries_to_relative_target",
    "fit_log_gap_slope",
    "median_or_none",
    "run_grid",
    "write_results_csv",
    "write_json",
    "build_objective",
]

RESULT_COLUMNS = ("config_id", "seed", "scheme", "N", "d", "kappa", "policy",
                  "queries_to_target", "final_gap", "slope", "wall_ms")


def build_objective(kind: str, d: int, mu: float = 1.0, L: float = 10.0,
                    seed: int = 7, curvature: float = 0.5) -> Objective:
    """Named objective construction shared by the grid and the CLI."""
    if kind == "quadratic":
        return make_quadratic(d, mu, L, seed)
    if kind == "rosenbrock":
        return make_rosenbrock_like(d, curvature=curvature)
    raise ValueError(f"unknown objective kind {kind!r}")


@dataclass(frozen=True)
class GridCell:
    """One benchmark configuration; crossed with the grid's seed list."""

    config_id: str
    objective_kind: str
    d: int
    mu: float
    L: float
    config: RunConfig
    objective_seed: int = 7
    curvature: float = 0.5

    @property
    def kappa(self) -> float:
        return self.L / self.mu

    def make_objective(self) -> Objective:
        return build_objective(self.objective_kind, self.d, self.mu, self.L,
                               self.objective_seed, self.curvature)


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
    wall_ms: int


def queries_to_target(trace: RunTrace, eps: float, f_star: float) -> Optional[int]:
    """Cumulative queries spent before first reaching gap <= eps.

    Row t records f(x_t) before that iteration's queries, so the cost of
    reaching x_t is the cumulative count of row t-1 (0 for t = 0).  The
    final iterate is also checked.  Returns None when the target is
    never reached.
    """
    for i in range(len(trace.t)):
        if trace.f[i] - f_star <= eps:
            return trace.queries_cum[i - 1] if i > 0 else 0
    if np.isfinite(trace.final_f) and trace.final_f - f_star <= eps:
        return trace.total_queries
    return None


def queries_to_relative_target(trace: RunTrace, eps_rel: float,
                               f_star: Optional[float]) -> Optional[int]:
    """:func:`queries_to_target` at ``eps_rel`` times the initial gap.

    None without an optimum value, trace rows, or a finite initial gap.
    """
    if f_star is None or not len(trace.t) or not math.isfinite(trace.fgap[0]):
        return None
    return queries_to_target(trace, eps_rel * trace.fgap[0], f_star)


def fit_log_gap_slope(trace: RunTrace) -> float:
    """Least-squares slope of log(gap) against iteration index."""
    gaps = np.asarray(trace.fgap, dtype=float)
    t = np.asarray(trace.t, dtype=float)
    keep = np.isfinite(gaps) & (gaps > 0)
    if keep.sum() < 2:
        return float("nan")
    y = np.log(gaps[keep])
    return float(np.polyfit(t[keep], y, 1)[0])


def _run_cell(args) -> ResultRow:
    cell, seed, eps_rel = args
    obj = cell.make_objective()
    cfg = replace(cell.config, seed=seed, eps_target=eps_rel)
    trace = run(obj, cfg)
    reached = queries_to_relative_target(trace, eps_rel, obj.f_star)
    return ResultRow(
        config_id=cell.config_id, seed=seed, scheme=cfg.scheme, n=cfg.n,
        d=cell.d, kappa=cell.kappa, policy=cfg.step.kind,
        queries_to_target=reached, final_gap=trace.final_gap,
        slope=fit_log_gap_slope(trace), wall_ms=trace.wall_ms,
    )


def run_grid(grid: ExperimentGrid, jobs: int = 1,
             out_dir: Optional[str] = None) -> tuple[List[ResultRow], Dict]:
    """Execute every cell x seed, optionally in parallel.

    Individual cell failures are recorded in the summary and do not stop
    the grid.  Rows come back sorted by (config_id, seed) so output files
    do not depend on scheduling order.  When ``out_dir`` is given,
    ``results.csv`` and ``summary.json`` are written there.
    """
    tasks = [(cell, seed, grid.eps_rel)
             for cell in grid.cells for seed in grid.seeds]
    rows: List[ResultRow] = []
    errors: List[str] = []
    if jobs > 1:
        # imported here so serial runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for task, outcome in zip(tasks, pool.map(_run_cell_safe, tasks)):
                _collect(task, outcome, rows, errors)
    else:
        for task in tasks:
            _collect(task, _run_cell_safe(task), rows, errors)
    rows.sort(key=lambda r: (r.config_id, r.seed))
    summary = _summarize(grid, rows, errors)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_results_csv(rows, os.path.join(out_dir, "results.csv"))
        write_json(os.path.join(out_dir, "summary.json"), summary)
    return rows, summary


def _run_cell_safe(task):
    try:
        return _run_cell(task)
    except Exception as exc:  # grid keeps going; failure lands in summary
        return exc


def _collect(task, outcome, rows, errors):
    if isinstance(outcome, Exception):
        cell, seed, _ = task
        errors.append(f"{cell.config_id}/seed={seed}: {outcome}")
    else:
        rows.append(outcome)


def median_or_none(values) -> Optional[float]:
    """Median of the values that are not None; None when there are none."""
    vals = [v for v in values if v is not None]
    return float(np.median(vals)) if vals else None


def _summarize(grid: ExperimentGrid, rows: List[ResultRow],
               errors: List[str]) -> Dict:
    per_cell = {}
    for cell in grid.cells:
        cell_rows = [r for r in rows if r.config_id == cell.config_id]
        if not cell_rows:
            continue
        kind = "strongly_convex" if cell.mu > 0 and cell.objective_kind == "quadratic" \
            else "nonconvex"
        try:
            pred = predict_complexity(kind, cell.d, cell.L, grid.eps_rel,
                                      delta_prime=0.1,
                                      mu=cell.mu if kind == "strongly_convex" else None)
            predicted = {"t": pred.t, "q": pred.q, "n": pred.n}
        except ValueError:
            predicted = None
        per_cell[cell.config_id] = {
            "median_queries_to_target": median_or_none(
                [r.queries_to_target for r in cell_rows]),
            "reached": sum(r.queries_to_target is not None for r in cell_rows),
            "runs": len(cell_rows),
            "median_final_gap": float(np.median([r.final_gap for r in cell_rows])),
            "median_slope": float(np.median([r.slope for r in cell_rows])),
            "predicted": predicted,
        }
    return {"eps_rel": grid.eps_rel, "cells": per_cell, "errors": errors}


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


def write_results_csv(rows: List[ResultRow], path: str) -> None:
    """One :data:`RESULT_COLUMNS` line per row; an unreached target is
    written as ``not_reached``."""
    write_csv(path, RESULT_COLUMNS, map(astuple, rows))
