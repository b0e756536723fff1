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
  backtracking search whose probes are queries like the rank oracle's.
  The search is warm-started: each iteration's first trial step is
  ``min(eta0, eta_prev / shrink)``, one shrink above the step the
  previous iteration accepted, and ``eta0`` again after a rejected move.
  Each point is queried once: the search compares against the value the
  previous iteration's accepted candidate returned, so only a run's
  first search queries f(x).  This assumes a deterministic objective.

Runs are deterministic given the config seed (Philox streams), and with
a fixed or backtracking step the iterate sequence is invariant under any
strictly increasing transform of the objective.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .objective import Objective
from .sampling import (DrawAhead, QueryLedger, check_sample_size, draw_blocks,
                       new_generator, rank_oracle, sample_directions,
                       selected_ranks)
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
        if not math.isfinite(self.eta0):
            raise ValueError(f"eta0 must be finite, got {self.eta0}")
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
        if not math.isfinite(self.alpha0):
            raise ValueError(f"alpha0 must be finite, got {self.alpha0}")
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
        # plain floats and ints, most of a trace's cells, skip _csv_cell's checks
        fh.writelines(",".join([repr(v) if v.__class__ is float
                                else str(v) if v.__class__ is int
                                else _csv_cell(v) for v in row]) + "\n"
                      for row in rows)


def descent_direction(u_sel: np.ndarray, w_sel: np.ndarray) -> np.ndarray:
    """Signed weighted combination ``w_sel @ u_sel`` of the selected
    directions; row k of ``u_sel`` is the direction at the k-th selected
    rank and ``w_sel`` its signed weight (``weights_by_name``)."""
    return w_sel.dot(u_sel)


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
    ip = u_sel.dot(grad)
    fdiff_rate = (f_x - f_sel) / alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = ip**2 / (2.0 * L * c_nd * w_sel) / fdiff_rate
    lo = terms.min()
    # a nan term makes both the min and the max nan, and fails either test
    if not (lo > 0.0 and terms.max() < math.inf):
        raise StepRegimeError("step-size regime violated: nonpositive term "
                              "(alpha too large or degenerate sample)")
    return float(lo)


def practical_step(ledger: QueryLedger, x: np.ndarray, f_x: Optional[float],
                   direction: np.ndarray, policy: StepPolicy, eta_first: float):
    """Rank-only update along ``direction``.

    ``fixed``: unconditional step of eta0; no evaluation, no queries, and
    the new point's value is unknown (``None``).
    ``backtracking``: ``f_x`` is the value the ledger returned for ``x``,
    or ``None`` when none is known, in which case f(x) is queried once
    first.  Each try then makes one query, f(x + eta*direction), through
    ``ledger``, starting at ``eta_first`` and shrinking eta until the
    first value below f(x); that candidate and its value are returned as
    they were evaluated.  If none of the ``max_tries`` tries improves,
    the move is rejected: x and f(x) are returned unchanged (eta
    reported as 0).  Reusing f(x) assumes ``fn`` returns the same value
    for the same point; under noise a held value that won a comparison
    is biased low.  :func:`run` passes the value its previous search
    returned and warm-starts each search at
    ``min(eta0, eta_prev / shrink)``, where ``eta_prev`` is the step the
    previous iteration accepted, and at ``eta0`` after a rejected move.

    Returns ``((x_new, f_new), eta_used, queries)``, ``queries`` being
    the number of queries this call made.
    """
    if policy.kind == "instrumented":
        raise ValueError("practical_step does not handle the instrumented policy")
    if policy.kind == "fixed":
        return (x + policy.eta0 * direction, None), policy.eta0, 0
    queries = 0
    if f_x is None:
        f_x = ledger.value(x)
        queries = 1
    eta = eta_first
    for _ in range(policy.max_tries):
        x_cand = x + eta * direction
        f_cand = ledger.value(x_cand)
        queries += 1
        if f_cand < f_x:
            return (x_cand, f_cand), eta, queries
        eta *= policy.shrink
    return (x, f_x), 0.0, queries


def run(obj: Objective, cfg: RunConfig) -> RunTrace:
    """Execute ``cfg.iterations`` iterations of sample-rank-weight-step.

    Deterministic given ``cfg.seed``.  Instrumented policies require the
    objective to carry ``grad`` and ``L``.  When the instrumented step
    size reports a regime violation, the driver shrinks alpha by half
    and resamples (charging the queries) for the instrumented/geometric
    alpha policies, up to ``MAX_REGIME_RETRIES`` samples; under a fixed
    alpha the iteration records a null step instead, which is what
    produces the alpha-floor plateau.  A run that fails part-way raises
    :class:`OptimizationError` with its partial trace (see :func:`_drive`).

    After x0, every direction batch, regime retries included, comes from
    a :class:`~rankzo.sampling.DrawAhead` over the run's generator: one
    drawer thread draws the directions a block ahead, in the blocks of
    :func:`~rankzo.sampling.draw_blocks`, while the loop ranks and
    steps, and is joined when the run returns or raises.  The directions
    do not depend on the block sizes.  ``bench --jobs N`` runs one such drawer
    per run in each worker.
    """
    if cfg.step.kind == "instrumented" and (obj.grad is None or obj.L is None):
        raise ValueError("instrumented step needs an objective with grad and L")
    # the selected ranks and their signed weights are fixed for the run;
    # the positive-only ablation keeps just the best quartile
    n, d = cfg.n, obj.dim
    k = n // 4 if cfg.positive_only else n // 2
    sel = selected_ranks(n)[:k] - 1
    w_sel = weights_by_name(cfg.scheme, n)[:k]

    # samples an iteration draws at most: one per regime retry
    retries = (MAX_REGIME_RETRIES if cfg.step.kind == "instrumented"
               and cfg.alpha.kind != "fixed" else 1)

    if cfg.step.kind == "instrumented":
        L = obj.L
        c_nd = c_N_d_delta(n, d, cfg.delta, cfg.positive_only)

        def update(x, f_x, g, alpha, directions, ledger):
            # every regime violation halves alpha and resamples; after the
            # last one the step is null, at the alpha that sample used
            for attempt in range(retries):
                if attempt:
                    alpha *= 0.5
                u = sample_directions(directions, n, d)
                perm, fvals = rank_oracle(ledger, x, alpha, u)
                idx = perm[sel]
                u_sel = u.take(idx, axis=0)
                try:
                    eta = instrumented_step_size(f_x, g, u_sel, fvals[idx], w_sel,
                                                 alpha, L, c_nd)
                except StepRegimeError:
                    continue
                return x + eta * descent_direction(u_sel, w_sel), alpha, eta
            return x, alpha, 0.0
    else:
        step = cfg.step
        eta0, shrink = step.eta0, step.shrink
        eta_first = eta0
        f_held = None  # the ledger's value of x, once a search has returned it

        def update(x, f_x, g, alpha, directions, ledger):
            nonlocal eta_first, f_held
            u = sample_directions(directions, n, d)
            perm, _ = rank_oracle(ledger, x, alpha, u)
            direction = descent_direction(u.take(perm[sel], axis=0), w_sel)
            (x_new, f_held), eta, _queries = practical_step(
                ledger, x, f_held, direction, step, eta_first)
            # warm start: one step above the last accepted one, capped at eta0
            eta_first = min(eta0, eta / shrink) if eta > 0 else eta0
            return x_new, alpha, eta

    return _drive(obj, cfg, cfg.scheme, update, (n, d), retries)


def baseline_value_zo(obj: Objective, cfg: RunConfig) -> RunTrace:
    """Two-point Gaussian-smoothing baseline (value-based estimator).

    Per iteration: draw one direction u, form the gradient estimate
    ``g_hat = ((f(x + alpha u) - f(x)) / alpha) u`` from two queries
    and step ``x <- x - g_hat / (4 (d + 4) L)`` (Nesterov & Spokoiny,
    FoCM 2017).  Same driver and trace format as :func:`run`.
    """
    if obj.L is None:
        raise ValueError("value-based baseline needs a known smoothness L")
    eta = 1.0 / (4.0 * (obj.dim + 4) * obj.L)

    def update(x, f_x, g, alpha, directions, ledger):
        u = directions.standard_normal((len(x),))
        g_hat = (ledger.value(x + alpha * u) - ledger.value(x)) / alpha * u
        return x - eta * g_hat, alpha, eta

    return _drive(obj, cfg, "value_zo", update, (obj.dim,), 1)


def _drive(obj: Objective, cfg: RunConfig, scheme: str, update,
           sample_shape: tuple, per_iteration: int) -> RunTrace:
    """The iteration loop shared by :func:`run` and :func:`baseline_value_zo`.

    Per iteration: f(x_t) from ``obj.fn``; the early stop;
    ``obj.grad(x_t)`` and its norm when the objective has a gradient;
    alpha; then ``update(x, f_x, g, alpha, directions, ledger)``, which
    returns ``(x_new, alpha_used, eta)`` and makes every query through
    the run's :class:`~rankzo.sampling.QueryLedger`.  ``directions`` is
    a :class:`~rankzo.sampling.DrawAhead` over the run's generator,
    started once x0 is drawn and closed when the loop ends: samples of
    ``sample_shape``, at most ``per_iteration`` an iteration, so the
    stream ends where the longest run would, in the blocks of
    :func:`~rankzo.sampling.draw_blocks`.  After
    the last iteration, or an early stop, one more ``obj.fn`` call gives
    the final f.  These diagnostics are uncharged, and the driver calls
    ``obj.fn`` directly: the iterate's shape is checked once, on the
    start point.

    A failed run has one exit: every ``ValueError`` or ``ArithmeticError``
    the loop meets (a non-finite f(x_t) or final f, a stationary point
    under the instrumented alpha, an error from ``fn``, ``grad`` or
    ``update``) ends it with an :class:`OptimizationError`
    ``"iteration t failed: ..."`` whose trace holds the rows before
    iteration t, with the failing iteration's f(x_t) as ``final_f``, or
    nan if it computed none.  Overflow and invalid values raise no numpy
    warning inside the run.
    """
    if cfg.alpha.kind == "instrumented" and (obj.grad is None or obj.L is None):
        raise ValueError("instrumented alpha needs an objective with grad and L")
    with np.errstate(over="ignore", invalid="ignore"):
        started = time.perf_counter()
        rng = new_generator(cfg.seed)
        d = obj.dim
        x = (np.array(cfg.x0, dtype=float) if cfg.x0 is not None
             else rng.standard_normal(d))
        if x.shape != (d,):
            raise ValueError(f"x0 must have shape ({d},)")

        ledger = QueryLedger(obj)
        trace = RunTrace(scheme=scheme, seed=cfg.seed)
        iterates = [x.copy()] if cfg.record_iterates else None
        fn, grad, f_star = obj.fn, obj.grad, obj.f_star
        eps_target = cfg.eps_target if f_star is not None else None
        alpha_kind, alpha0, gamma = cfg.alpha.kind, cfg.alpha.alpha0, cfg.alpha.gamma
        if alpha_kind == "instrumented":
            L, c_d, c = obj.L, c_d_delta(d, cfg.delta), cfg.alpha.c
        g = gap_target = None
        gap = gnorm = f_x = math.nan
        directions = DrawAhead(rng, sample_shape, draw_blocks(
            math.prod(sample_shape), cfg.iterations * per_iteration))

        try:
            for t in range(cfg.iterations):
                f_x = math.nan  # what a failure reports until fn gives f(x_t)
                f_x = float(fn(x))
                if not math.isfinite(f_x):
                    # a diverged iterate: its -inf or nan gap must not pass the early stop
                    raise ValueError(f"non-finite objective value {f_x!r}")
                if f_star is not None:
                    gap = f_x - f_star
                    if eps_target is not None:
                        if gap_target is None:
                            gap_target = eps_target * gap
                        if gap <= gap_target:
                            break
                if grad is not None:
                    g = np.asarray(grad(x), dtype=float)
                    # what np.linalg.norm computes for a vector, bit for bit
                    gnorm = math.sqrt(g.dot(g))

                if alpha_kind == "instrumented":
                    alpha = instrumented_alpha(gnorm, L, c_d, c)
                elif alpha_kind == "geometric":
                    alpha = alpha0 * gamma**t
                else:
                    alpha = alpha0
                x, alpha_used, eta = update(x, f_x, g, alpha, directions, ledger)
                trace.record(t, f_x, gap, gnorm, alpha_used, eta, ledger.total_queries)
                if iterates is not None:
                    iterates.append(x.copy())
            f_x = math.nan
            f_x = float(fn(x))
            if not math.isfinite(f_x):
                # the last update diverged; a -inf final gap must not count as reached
                raise ValueError(f"non-finite objective value {f_x!r}")
        except (ValueError, ArithmeticError) as exc:
            raise OptimizationError(
                f"iteration {len(trace)} failed: {exc}",
                _finalize(trace, x, f_x, obj, ledger, started, iterates)) from exc
        finally:
            directions.close()
        return _finalize(trace, x, f_x, obj, ledger, started, iterates)


def _finalize(trace: RunTrace, x, f_final, obj, ledger, started, iterates) -> RunTrace:
    trace.final_x = x.copy()
    trace.final_f = f_final
    trace.final_gap = f_final - obj.f_star if obj.f_star is not None else math.nan
    trace.total_queries = ledger.total_queries
    trace.wall_ms = int(round((time.perf_counter() - started) * 1000))
    if iterates is not None:
        trace.iterates = np.array(iterates)
    return trace
