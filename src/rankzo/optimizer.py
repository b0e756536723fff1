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

Runs are deterministic given the config seed (Philox streams), and with
a fixed or backtracking step the iterate sequence is invariant under any
strictly increasing transform of the objective.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional

import numpy as np

from .objective import Objective, evaluate
from .sampling import (QueryLedger, RankedBatch, new_generator, rank_oracle,
                       sample_directions, selected_ranks)
from .theory import c_N_d_delta, c_d_delta, positive_only_norm_constant
from .weights import WeightVector, weights_by_name

__all__ = [
    "StepPolicy",
    "AlphaPolicy",
    "RunConfig",
    "RunTrace",
    "StepRegimeError",
    "OptimizationError",
    "descent_direction",
    "instrumented_step_size",
    "instrumented_alpha",
    "practical_step",
    "run",
    "baseline_value_zo",
    "TRACE_COLUMNS",
]

TRACE_COLUMNS = ("t", "f", "fgap", "gradnorm", "alpha", "eta", "queries_cum")


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

    kind: str
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

    @staticmethod
    def instrumented() -> "StepPolicy":
        return StepPolicy(kind="instrumented")

    @staticmethod
    def fixed(eta0: float) -> "StepPolicy":
        return StepPolicy(kind="fixed", eta0=eta0)

    @staticmethod
    def backtracking(eta0: float, shrink: float = 0.5,
                     max_tries: int = 40) -> "StepPolicy":
        return StepPolicy(kind="backtracking", eta0=eta0, shrink=shrink,
                          max_tries=max_tries)


@dataclass(frozen=True)
class AlphaPolicy:
    """Smoothing-radius rule: ``instrumented``, ``fixed`` or ``geometric``.

    The instrumented rule sets ``alpha = c ||grad|| / (4 L C_d)`` with
    c in (0, 1], which satisfies both the quartile-event regime bound
    (the /4) and the weaker rate-level bound.
    """

    kind: str
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

    @staticmethod
    def instrumented(c: float = 1.0) -> "AlphaPolicy":
        return AlphaPolicy(kind="instrumented", c=c)

    @staticmethod
    def fixed(alpha0: float) -> "AlphaPolicy":
        return AlphaPolicy(kind="fixed", alpha0=alpha0)

    @staticmethod
    def geometric(alpha0: float, gamma: float) -> "AlphaPolicy":
        return AlphaPolicy(kind="geometric", alpha0=alpha0, gamma=gamma)


@dataclass(frozen=True)
class RunConfig:
    """Full experiment configuration for one optimization run."""

    n: int
    iterations: int
    scheme: str = "uniform"
    step: StepPolicy = field(default_factory=StepPolicy.instrumented)
    alpha: AlphaPolicy = field(default_factory=AlphaPolicy.instrumented)
    seed: int = 0
    delta: float = 0.1
    #: stop early once (f(x_t) - f_star) <= eps_target * initial gap;
    #: needs obj.f_star, ignored otherwise (relative target, scale-free)
    eps_target: Optional[float] = None
    x0: Optional[np.ndarray] = None
    positive_only: bool = False
    max_regime_retries: int = 30
    record_iterates: bool = False

    def __post_init__(self) -> None:
        if self.n < 4 or self.n % 4 != 0:
            raise ValueError(f"n must be >= 4 and divisible by 4, got {self.n}")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.max_regime_retries < 1:
            raise ValueError("max_regime_retries must be >= 1")


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
        """Write the trace with '.' decimals, \\n line endings, header row."""
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for i in range(len(self.t)):
                row = (str(self.t[i]), _fmt(self.f[i]), _fmt(self.fgap[i]),
                       _fmt(self.gradnorm[i]), _fmt(self.alpha[i]),
                       _fmt(self.eta[i]), str(self.queries_cum[i]))
                fh.write(",".join(row) + "\n")


def _fmt(x: float) -> str:
    return repr(float(x))


def descent_direction(ranked: RankedBatch, w: WeightVector,
                      positive_only: bool = False) -> np.ndarray:
    """Signed weighted combination of the selected ranked directions."""
    if ranked.n != w.n:
        raise ValueError(f"batch size {ranked.n} != weight size {w.n}")
    ranks = selected_ranks(ranked.n, positive_only)
    u_sel = ranked.directions_at_ranks(ranks)
    return w.signed(positive_only) @ u_sel


def instrumented_step_size(f_x: float, grad: np.ndarray, ranked: RankedBatch,
                           w: WeightVector, alpha: float, L: float,
                           c_nd: float, positive_only: bool = False) -> float:
    """Analysis step size (instrumentation; reads the oracle's raw values).

    eta = min over selected ranks k of
        <grad, u_(k)>^2 / (2 L c_nd w_(k)) * ((f(x) - f(x + alpha u_(k))) / alpha)^{-1}

    with the weight and the f-difference kept signed: on the worst
    quartile both flip sign together, keeping every term positive.  A
    nonpositive (or non-finite) term means the smoothing radius is
    outside the regime the analysis assumes, and raises
    :class:`StepRegimeError` for the driver to handle.
    """
    if ranked.n != w.n:
        raise ValueError(f"batch size {ranked.n} != weight size {w.n}")
    ranks = selected_ranks(ranked.n, positive_only)
    u_sel = ranked.directions_at_ranks(ranks)
    f_sel = ranked.values_at_ranks(ranks)
    w_sel = w.signed(positive_only)
    ip = u_sel @ np.asarray(grad, dtype=float)
    fdiff_rate = (f_x - f_sel) / alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = ip**2 / (2.0 * L * c_nd * w_sel) / fdiff_rate
    if not np.all(np.isfinite(terms)) or np.any(terms <= 0.0):
        raise StepRegimeError("step-size regime violated: nonpositive term "
                              "(alpha too large or degenerate sample)")
    return float(terms.min())


def instrumented_alpha(grad_norm: float, L: float, c_d: float,
                       c: float = 1.0) -> float:
    """Smoothing radius ``c ||grad|| / (4 L C_d)`` with c in (0, 1]."""
    if grad_norm <= 0:
        raise ValueError("at stationary point: gradient norm is zero")
    if not (0.0 < c <= 1.0):
        raise ValueError(f"c must lie in (0, 1], got {c}")
    return c * grad_norm / (4.0 * L * c_d)


def practical_step(obj: Objective, x: np.ndarray, direction: np.ndarray,
                   policy: StepPolicy, ledger: QueryLedger):
    """Rank-only update along ``direction``.

    ``fixed``: unconditional step of eta0, no extra queries.
    ``backtracking``: compare f(x + eta*direction) against f(x), two
    charged evaluations per comparison, shrinking eta until the first
    improvement; if no tried eta improves, the move is rejected and x is
    returned unchanged (eta reported as 0).

    Returns ``(x_new, eta_used, extra_queries)``.
    """
    if policy.kind == "instrumented":
        raise ValueError("practical_step does not handle the instrumented policy")
    if policy.kind == "fixed":
        return x + policy.eta0 * direction, policy.eta0, 0
    extra = 0
    eta = policy.eta0
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
    alpha policies; under a fixed alpha the iteration records a null
    step instead, which is what produces the alpha-floor plateau.
    """
    if cfg.step.kind == "instrumented" and (obj.grad is None or obj.L is None):
        raise ValueError("instrumented step needs an objective with grad and L")
    w = weights_by_name(cfg.scheme, cfg.n)

    if cfg.step.kind == "instrumented":
        c_nd = (positive_only_norm_constant(cfg.n, obj.dim, cfg.delta)
                if cfg.positive_only else c_N_d_delta(cfg.n, obj.dim, cfg.delta))
        update = partial(_instrumented_update, obj, cfg, w, c_nd)
    else:
        def update(x, f_x, g, alpha, rng, ledger):
            batch = sample_directions(rng, cfg.n, obj.dim)
            ranked = rank_oracle(obj, x, alpha, batch, ledger)
            direction = descent_direction(ranked, w, cfg.positive_only)
            x_new, eta, _extra = practical_step(obj, x, direction, cfg.step, ledger)
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
        gap = f_x - f_star if f_star is not None else float("nan")
        if (cfg.eps_target is not None and f_star is not None
                and np.isfinite(cfg.eps_target)):
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

    return _finalize(trace, x, obj, ledger, started, iterates)


def _instrumented_update(obj, cfg, w, c_nd, x, f_x, g, alpha, rng, ledger):
    """One instrumented step; returns (x_new, alpha_used, eta).

    Shrinks alpha and resamples on regime violations unless the alpha
    policy is fixed, in which case the step is null.
    """
    retries = cfg.max_regime_retries if cfg.alpha.kind != "fixed" else 1
    for attempt in range(retries):
        batch = sample_directions(rng, cfg.n, obj.dim)
        ranked = rank_oracle(obj, x, alpha, batch, ledger)
        try:
            eta = instrumented_step_size(f_x, g, ranked, w, alpha, obj.L,
                                         c_nd, cfg.positive_only)
        except StepRegimeError:
            if attempt == retries - 1:
                return x, alpha, 0.0
            alpha *= 0.5
            continue
        direction = descent_direction(ranked, w, cfg.positive_only)
        return x + eta * direction, alpha, eta


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
