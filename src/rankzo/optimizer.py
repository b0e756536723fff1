"""The iteration loop, its rank-based and value-based updates, and traces.

:func:`run` and :func:`baseline_value_zo` share one driver loop and
differ only in the per-iteration update.  Each rank-based iteration
samples ``n`` Gaussian directions, ranks the probes
``x + alpha u_i`` through the rank oracle, combines the best-quartile
directions (positive weights) and worst-quartile directions (negative
weights) into a search direction, and steps.

Two regimes are supported:

* **instrumented** - the gradient oracle is used only to set the step
  size and the smoothing radius exactly as the analysis prescribes
  (eta_t from the per-direction curvature-free quotient, alpha
  proportional to the gradient norm).  This regime exists to validate
  the theory; it is not available to a rank-only user.
* **practical** - rank-only: a fixed step or a comparison-based
  backtracking search whose probes are charged to the query ledger.
  The search is warm-started: each iteration's first trial step is
  ``min(eta0, eta_prev / shrink)``, one shrink above the step the
  previous iteration accepted, and ``eta0`` again after a rejected move.

Runs are deterministic given the config seed (Philox streams), and with
a fixed or backtracking step the iterate sequence is invariant under any
strictly increasing transform of the objective.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional

import numpy as np

from .objective import Objective, evaluate
from .sampling import (QueryLedger, check_sample_size, new_generator,
                       rank_oracle, sample_directions, selected_ranks)
from .theory import c_N_d_delta, c_d_delta, instrumented_alpha
from .weights import check_scheme, weights_by_name

__all__ = [
    "StepPolicy",
    "AlphaPolicy",
    "RunConfig",
    "RunTrace",
    "StepRegimeError",
    "OptimizationError",
    "descent_direction",
    "instrumented_step_size",
    "practical_step",
    "run",
    "baseline_value_zo",
    "write_csv",
    "TRACE_COLUMNS",
    "MAX_REGIME_RETRIES",
]

TRACE_COLUMNS = ("t", "f", "fgap", "gradnorm", "alpha", "eta", "queries_cum")

#: samples an instrumented iteration draws, halving alpha after each regime
#: violation, before it records a null step (a fixed alpha gets one sample)
MAX_REGIME_RETRIES = 30


class StepRegimeError(RuntimeError):
    """The instrumented step-size formula produced a nonpositive term.

    Raised when alpha is too large (remainders flip a selected f-difference
    against its weight sign) or a sample degenerates; the driver reacts by
    shrinking alpha and resampling, or by recording a null step.
    """


class OptimizationError(RuntimeError):
    """A run failed; ``trace`` holds everything recorded up to the failure."""

    def __init__(self, message: str, trace: "RunTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class StepPolicy:
    """Step-size rule: ``instrumented``, ``fixed`` or ``backtracking``."""

    kind: str = "instrumented"
    eta0: float = 1.0
    shrink: float = 0.5
    max_tries: int = 40

    def __post_init__(self) -> None:
        if self.kind not in ("instrumented", "fixed", "backtracking"):
            raise ValueError(f"unknown step policy {self.kind!r}")
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if not (0.0 < self.shrink < 1.0):
            raise ValueError("shrink must lie in (0, 1)")
        if self.max_tries < 1:
            raise ValueError("max_tries must be >= 1")


@dataclass(frozen=True)
class AlphaPolicy:
    """Smoothing-radius rule: ``instrumented``, ``fixed`` or ``geometric``.

    The instrumented rule sets ``alpha = c ||grad|| / (4 L C_d)`` with
    c in (0, 1], which satisfies both the quartile-event regime bound
    (the /4) and the weaker rate-level bound.
    """

    kind: str = "instrumented"
    alpha0: float = 1e-3
    gamma: float = 0.99
    c: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("instrumented", "fixed", "geometric"):
            raise ValueError(f"unknown alpha policy {self.kind!r}")
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if self.kind == "geometric" and not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        if not (0.0 < self.c <= 1.0):
            raise ValueError("c must lie in (0, 1]")


@dataclass(frozen=True)
class RunConfig:
    """Full experiment configuration for one optimization run."""

    n: int
    iterations: int
    scheme: str = "uniform"
    step: StepPolicy = field(default_factory=StepPolicy)
    alpha: AlphaPolicy = field(default_factory=AlphaPolicy)
    seed: int = 0
    delta: float = 0.1
    #: stop early once (f(x_t) - f_star) <= eps_target * initial gap, with
    #: eps_target in (0, 1); needs obj.f_star, ignored otherwise (relative
    #: target, scale-free).  None runs every iteration.
    eps_target: Optional[float] = None
    x0: Optional[np.ndarray] = None
    positive_only: bool = False
    record_iterates: bool = False

    def __post_init__(self) -> None:
        check_sample_size(self.n)
        check_scheme(self.scheme)
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.eps_target is not None and not (0.0 < self.eps_target < 1.0):
            raise ValueError(f"eps_target must lie in (0, 1), got {self.eps_target}")


@dataclass
class RunTrace:
    """Per-iteration records plus the final state.

    One record per completed iteration: the objective value *before* the
    update, the gap to the optimum when known, the gradient norm in
    instrumented/diagnostic mode (nan otherwise), the smoothing radius
    and step size actually used (eta = 0 marks a rejected/null step),
    and the cumulative query count after the iteration.
    """

    t: List[int] = field(default_factory=list)
    f: List[float] = field(default_factory=list)
    fgap: List[float] = field(default_factory=list)
    gradnorm: List[float] = field(default_factory=list)
    alpha: List[float] = field(default_factory=list)
    eta: List[float] = field(default_factory=list)
    queries_cum: List[int] = field(default_factory=list)
    final_x: Optional[np.ndarray] = None
    final_f: float = float("nan")
    final_gap: float = float("nan")
    total_queries: int = 0
    wall_ms: int = 0
    scheme: str = "uniform"
    seed: int = 0
    iterates: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.t)

    def record(self, t: int, f: float, fgap: float, gradnorm: float,
               alpha: float, eta: float, queries_cum: int) -> None:
        self.t.append(int(t))
        self.f.append(float(f))
        self.fgap.append(float(fgap))
        self.gradnorm.append(float(gradnorm))
        self.alpha.append(float(alpha))
        self.eta.append(float(eta))
        self.queries_cum.append(int(queries_cum))

    def summary(self) -> dict:
        return {
            "iterations": len(self.t),
            "final_f": self.final_f,
            "final_gap": self.final_gap,
            "total_queries": self.total_queries,
            "wall_ms": self.wall_ms,
            "scheme": self.scheme,
            "seed": self.seed,
        }

    def to_csv(self, path) -> None:
        """Write the trace through :func:`write_csv`."""
        write_csv(path, TRACE_COLUMNS,
                  zip(self.t, self.f, self.fgap, self.gradnorm, self.alpha,
                      self.eta, self.queries_cum))


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return "not_reached" if v is None else str(v)


def write_csv(path, columns, rows) -> None:
    """Write a header row, then one line per row of ``rows``.

    Floats are written as ``repr(float(v))`` ('.' decimals, round-trip
    exact), bools as ``true``/``false`` and ``None`` as ``not_reached``,
    with '\\n' line endings; the one writer for ``trace.csv``,
    ``results.csv`` and ``reports.csv``.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_csv_cell, row)) + "\n")


def descent_direction(u_sel: np.ndarray, w_sel: np.ndarray) -> np.ndarray:
    """Signed weighted combination ``w_sel @ u_sel`` of the selected
    directions; row k of ``u_sel`` is the direction at the k-th selected
    rank and ``w_sel`` its signed weight (``weights_by_name``)."""
    return w_sel @ u_sel


def instrumented_step_size(f_x: float, grad: np.ndarray, u_sel: np.ndarray,
                           f_sel: np.ndarray, w_sel: np.ndarray, alpha: float,
                           L: float, c_nd: float) -> float:
    """Analysis step size (instrumentation; reads the oracle's raw values).

    eta = min over selected ranks k of
        <grad, u_(k)>^2 / (2 L c_nd w_(k)) * ((f(x) - f(x + alpha u_(k))) / alpha)^{-1}

    with the weight and the f-difference kept signed: on the worst
    quartile both flip sign together, keeping every term positive.  A
    nonpositive (or non-finite) term means the smoothing radius is
    outside the regime the analysis assumes, and raises
    :class:`StepRegimeError` for the driver to handle.  ``u_sel``,
    ``f_sel`` and ``w_sel`` are the directions, probe values and signed
    weights at the selected ranks, in the same order.
    """
    ip = u_sel @ np.asarray(grad, dtype=float)
    fdiff_rate = (f_x - f_sel) / alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = ip**2 / (2.0 * L * c_nd * w_sel) / fdiff_rate
    if not np.all(np.isfinite(terms)) or np.any(terms <= 0.0):
        raise StepRegimeError("step-size regime violated: nonpositive term "
                              "(alpha too large or degenerate sample)")
    return float(terms.min())


def practical_step(obj: Objective, x: np.ndarray, direction: np.ndarray,
                   policy: StepPolicy, ledger: QueryLedger, eta_first: float):
    """Rank-only update along ``direction``.

    ``fixed``: unconditional step of eta0, no extra queries.
    ``backtracking``: compare f(x + eta*direction) against f(x), two
    charged evaluations per comparison, starting at ``eta_first`` and
    shrinking eta until the first improvement; if no tried eta improves,
    the move is rejected and x is returned unchanged (eta reported as
    0).  :func:`run` warm-starts each search at
    ``min(eta0, eta_prev / shrink)``, where ``eta_prev`` is the step the
    previous iteration accepted, and at ``eta0`` after a rejected move.

    Returns ``(x_new, eta_used, extra_queries)``.
    """
    if policy.kind == "instrumented":
        raise ValueError("practical_step does not handle the instrumented policy")
    if policy.kind == "fixed":
        return x + policy.eta0 * direction, policy.eta0, 0
    extra = 0
    eta = eta_first
    for _ in range(policy.max_tries):
        ledger.charge(2)
        extra += 2
        f_ref = evaluate(obj, x)
        f_cand = evaluate(obj, x + eta * direction)
        if f_cand < f_ref:
            return x + eta * direction, eta, extra
        eta *= policy.shrink
    return x, 0.0, extra


def run(obj: Objective, cfg: RunConfig) -> RunTrace:
    """Execute ``cfg.iterations`` iterations of sample-rank-weight-step.

    Deterministic given ``cfg.seed``.  Instrumented policies require the
    objective to carry ``grad`` and ``L``.  When the instrumented step
    size reports a regime violation, the driver shrinks alpha by half
    and resamples (charging the queries) for the instrumented/geometric
    alpha policies, up to ``MAX_REGIME_RETRIES`` samples; under a fixed
    alpha the iteration records a null step instead, which is what
    produces the alpha-floor plateau.
    """
    if cfg.step.kind == "instrumented" and (obj.grad is None or obj.L is None):
        raise ValueError("instrumented step needs an objective with grad and L")
    # the selected ranks and their signed weights are fixed for the run;
    # the positive-only ablation keeps just the best quartile
    k = cfg.n // 4 if cfg.positive_only else cfg.n // 2
    sel = selected_ranks(cfg.n)[:k] - 1
    w_sel = weights_by_name(cfg.scheme, cfg.n)[:k]

    if cfg.step.kind == "instrumented":
        c_nd = c_N_d_delta(cfg.n, obj.dim, cfg.delta, cfg.positive_only)
        update = partial(_instrumented_update, obj, cfg, sel, w_sel, c_nd)
    else:
        eta0, shrink = cfg.step.eta0, cfg.step.shrink
        eta_first = eta0

        def update(x, f_x, g, alpha, rng, ledger):
            nonlocal eta_first
            u = sample_directions(rng, cfg.n, obj.dim)
            perm, _ = rank_oracle(obj, x, alpha, u, ledger)
            direction = descent_direction(u[perm[sel]], w_sel)
            x_new, eta, _extra = practical_step(obj, x, direction, cfg.step,
                                                ledger, eta_first)
            # warm start: one step above the last accepted one, capped at eta0
            eta_first = min(eta0, eta / shrink) if eta > 0 else eta0
            return x_new, alpha, eta

    return _drive(obj, cfg, cfg.scheme, update)


def baseline_value_zo(obj: Objective, cfg: RunConfig) -> RunTrace:
    """Two-point Gaussian-smoothing baseline (value-based estimator).

    Per iteration: draw one direction u, form the gradient estimate
    ``g_hat = ((f(x + alpha u) - f(x)) / alpha) u`` (2 charged queries)
    and step ``x <- x - g_hat / (4 (d + 4) L)`` (Nesterov & Spokoiny,
    FoCM 2017).  ``f(x)`` is the driver's own evaluation of the trace
    row.  Same driver and trace format as :func:`run`.
    """
    if obj.L is None:
        raise ValueError("value-based baseline needs a known smoothness L")
    eta = 1.0 / (4.0 * (obj.dim + 4) * obj.L)

    def update(x, f_x, g, alpha, rng, ledger):
        u = rng.standard_normal(obj.dim)
        ledger.charge(2)
        g_hat = (evaluate(obj, x + alpha * u) - f_x) / alpha * u
        return x - eta * g_hat, alpha, eta

    return _drive(obj, cfg, "value_zo", update)


def _drive(obj: Objective, cfg: RunConfig, scheme: str, update) -> RunTrace:
    """The iteration loop shared by :func:`run` and :func:`baseline_value_zo`.

    Per iteration: f(x_t) (uncharged), early stop, gradient diagnostic,
    alpha, then ``update(x, f_x, g, alpha, rng, ledger)``, which returns
    ``(x_new, alpha_used, eta)``.
    """
    if cfg.alpha.kind == "instrumented" and (obj.grad is None or obj.L is None):
        raise ValueError("instrumented alpha needs an objective with grad and L")
    started = time.perf_counter()
    rng = new_generator(cfg.seed)
    d = obj.dim
    x = (np.array(cfg.x0, dtype=float) if cfg.x0 is not None
         else rng.standard_normal(d))
    if x.shape != (d,):
        raise ValueError(f"x0 must have shape ({d},)")

    ledger = QueryLedger()
    trace = RunTrace(scheme=scheme, seed=cfg.seed)
    iterates = [x.copy()] if cfg.record_iterates else None
    c_d = c_d_delta(d, cfg.delta) if cfg.alpha.kind == "instrumented" else None
    f_star = obj.f_star
    gap_target = None

    for t in range(cfg.iterations):
        f_x = evaluate(obj, x)
        if not math.isfinite(f_x):
            # a diverged iterate: its -inf or nan gap must not pass the early stop
            raise OptimizationError(
                f"iteration {t} failed: non-finite objective value {f_x!r}",
                _finalize(trace, x, obj, ledger, started, iterates))
        gap = f_x - f_star if f_star is not None else float("nan")
        if cfg.eps_target is not None and f_star is not None:
            if gap_target is None:
                gap_target = cfg.eps_target * gap
            if gap <= gap_target:
                break
        if obj.grad is not None:
            g = np.asarray(obj.grad(x), dtype=float)
            gnorm = float(np.linalg.norm(g))
        else:
            g, gnorm = None, float("nan")

        if cfg.alpha.kind == "instrumented":
            if gnorm <= 0:
                raise OptimizationError(
                    f"at stationary point (iteration {t}): cannot set alpha",
                    _finalize(trace, x, obj, ledger, started, iterates))
            alpha = instrumented_alpha(gnorm, obj.L, c_d, cfg.alpha.c)
        elif cfg.alpha.kind == "geometric":
            alpha = cfg.alpha.alpha0 * cfg.alpha.gamma**t
        else:
            alpha = cfg.alpha.alpha0

        try:
            x, alpha_used, eta = update(x, f_x, g, alpha, rng, ledger)
        except (ValueError, ArithmeticError) as exc:
            raise OptimizationError(
                f"iteration {t} failed: {exc}",
                _finalize(trace, x, obj, ledger, started, iterates)) from exc

        trace.record(t, f_x, gap, gnorm, alpha_used, eta, ledger.total_queries)
        if iterates is not None:
            iterates.append(x.copy())

    trace = _finalize(trace, x, obj, ledger, started, iterates)
    if not math.isfinite(trace.final_f):
        # the last update diverged; a -inf final gap must not count as reached
        raise OptimizationError(f"iteration {cfg.iterations} failed: non-finite "
                                f"objective value {trace.final_f!r}", trace)
    return trace


def _instrumented_update(obj, cfg, sel, w_sel, c_nd, x, f_x, g, alpha, rng,
                         ledger):
    """One instrumented step; returns (x_new, alpha_used, eta).

    Shrinks alpha and resamples on regime violations unless the alpha
    policy is fixed, in which case the step is null.
    """
    retries = MAX_REGIME_RETRIES if cfg.alpha.kind != "fixed" else 1
    for attempt in range(retries):
        u = sample_directions(rng, cfg.n, obj.dim)
        perm, fvals = rank_oracle(obj, x, alpha, u, ledger)
        idx = perm[sel]
        u_sel = u[idx]
        try:
            eta = instrumented_step_size(f_x, g, u_sel, fvals[idx], w_sel,
                                         alpha, obj.L, c_nd)
        except StepRegimeError:
            if attempt == retries - 1:
                return x, alpha, 0.0
            alpha *= 0.5
            continue
        return x + eta * descent_direction(u_sel, w_sel), alpha, eta


def _finalize(trace: RunTrace, x, obj, ledger, started, iterates) -> RunTrace:
    trace.final_x = x.copy()
    trace.final_f = evaluate(obj, x)
    trace.final_gap = (trace.final_f - obj.f_star
                       if obj.f_star is not None else float("nan"))
    trace.total_queries = ledger.total_queries
    trace.wall_ms = int(round((time.perf_counter() - started) * 1000))
    if iterates is not None:
        trace.iterates = np.array(iterates)
    return trace
