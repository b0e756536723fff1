"""Analysis constants, complexity predictions, and Monte-Carlo checkers.

Everything the convergence analysis quantifies lives here:

* closed-form constants: ``c_d_delta``, the regime radius
  ``instrumented_alpha``, ``c_N_d_delta``, the Bernoulli KL divergence,
  the quartile-event bound ``exp(-n D(1/4 || p))`` with
  ``p = 1 - Phi(2)`` computed exactly, ``rho`` and the alpha floors;
* the standard normal CDF ``Phi``, from the standard library as
  ``0.5 * math.erfc(-x / sqrt(2))``, for ``p`` and the order-statistic
  checks;
* predicted iteration/query complexities for the strongly convex and
  nonconvex regimes, in closed form: T first, then N from T;
* Monte-Carlo checkers that compare an empirical failure rate against
  its stated bound at a 3-sigma binomial tolerance.  The per-iteration
  events E1..E5 are all events of one random experiment (an n x d
  Gaussian batch at x, with the probes ranked), so ``check_events``
  runs that experiment once and reads every requested event off the
  same trials.  Each supporting probability bound (Chernoff, Gaussian
  max, chi-square tail, spectral norm, order-statistic tails) has its
  own experiment in ``check_appendix_bounds``.

Every checker is pure given its RNG stream, so trials can be sharded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .objective import Objective, evaluate, evaluate_batch
from .sampling import (DrawAhead, NonFiniteValueError, check_sample_size,
                       draw_blocks, selected_ranks)

__all__ = [
    "P_TAIL_EXACT",
    "MIN_TRIALS",
    "EventCheckReport",
    "EventSetup",
    "c_d_delta",
    "instrumented_alpha",
    "c_N_d_delta",
    "kl_bernoulli",
    "event_bound_E45",
    "rho",
    "floors",
    "ComplexityPrediction",
    "ParameterError",
    "predict_complexity",
    "event_precondition_errors",
    "check_events",
    "check_appendix_bounds",
    "EVENT_IDS",
    "APPENDIX_IDS",
]


class ParameterError(ValueError):
    """A ``ValueError`` about the one parameter named by ``param``."""

    def __init__(self, param: str, message: str) -> None:
        super().__init__(message)
        self.param = param


def _normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x); Phi(0) is exactly 0.5."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


#: Exact upper Gaussian tail at 2, 1 - Phi(2) = 0.0227501...; the rounded
#: 0.0224 sometimes quoted for this tail is treated as a display value.
P_TAIL_EXACT = 1.0 - _normal_cdf(2.0)

#: fewest Monte-Carlo trials either checker accepts
MIN_TRIALS = 1000

EVENT_IDS = ("E1", "E2", "E3", "E4", "E5")
APPENDIX_IDS = ("chernoff", "gauss_max", "chi2", "spectral",
                "order_low1", "order_low2")


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------

def c_d_delta(d: int, delta: float) -> float:
    """Per-direction remainder constant ``d + 2 ln(1/delta)``."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    _check_delta(delta)
    return d + 2.0 * math.log(1.0 / delta)


def instrumented_alpha(grad_norm: float, L: float, c_d: float,
                       c: float = 1.0) -> float:
    """Smoothing radius ``c ||grad|| / (4 L C_d)`` with c in (0, 1];
    at c = 1 it is the quartile-event regime bound."""
    if grad_norm <= 0:
        raise ValueError("at stationary point: gradient norm is zero")
    if not (0.0 < c <= 1.0):
        raise ValueError(f"c must lie in (0, 1], got {c}")
    return c * grad_norm / (4.0 * L * c_d)


def _matrix_norm_bound(n_cols: int, d: int, delta: float) -> float:
    # (sqrt(cols) + sqrt(d) + sqrt(2 ln(2/delta)))^2, the squared
    # high-probability spectral bound for a d x cols Gaussian matrix
    return (math.sqrt(n_cols) + math.sqrt(d)
            + math.sqrt(2.0 * math.log(2.0 / delta))) ** 2


def _gauss_max(n: int, delta: float) -> float:
    # sqrt(2 ln(2n/delta)): the n values |<g, u_i>| / ||g|| all stay below
    # it with probability >= 1 - delta (Gaussian-max union bound)
    return math.sqrt(2.0 * math.log(2.0 * n / delta))


def _chi2_threshold(d: int, delta: float) -> float:
    # 2d + 3 ln(1/delta): ||u||^2 of u ~ N(0, I_d) stays below it with
    # probability >= 1 - delta (the Laurent-Massart tail
    # d + 2 sqrt(d x) + 2x at x = ln(1/delta), with 2 sqrt(d x) <= d + x)
    return 2.0 * d + 3.0 * math.log(1.0 / delta)


def _check_weight_ratio(weight_ratio: float) -> None:
    if not (0 < weight_ratio <= 1.0):
        raise ValueError(f"weight_ratio must be in (0, 1], got {weight_ratio}")


def c_N_d_delta(n: int, d: int, delta: float, positive_only: bool = False) -> float:
    """Squared spectral bound for the n/2 selected directions, or for the
    n/4 best-quartile ones of the ``positive_only`` ablation."""
    check_sample_size(n)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    _check_delta(delta)
    return _matrix_norm_bound(n // 4 if positive_only else n // 2, d, delta)


def kl_bernoulli(q: float, p: float) -> float:
    """Binary KL divergence ``q ln(q/p) + (1-q) ln((1-q)/(1-p))``."""
    if not (0.0 < q < 1.0 and 0.0 < p < 1.0):
        raise ValueError(f"p and q must lie in (0, 1), got q={q}, p={p}")
    return q * math.log(q / p) + (1.0 - q) * math.log((1.0 - q) / (1.0 - p))


def event_bound_E45(n: int) -> float:
    """Failure bound ``exp(-n D(1/4 || 1 - Phi(2)))`` for the quartile events."""
    check_sample_size(n)
    return math.exp(-n * kl_bernoulli(0.25, P_TAIL_EXACT))


def rho(n: int, d: int, delta: float, mu: float, L: float,
        weight_ratio: float = 1.0) -> float:
    """Per-iteration contraction factor in the strongly convex rate.

    ``rho = ratio * (n/2) / (8 C_{N,d,delta} sqrt(2 ln(2n/delta))) * mu/L``
    where ``ratio`` is min|w|/max|w| over the selected set.  Since
    ``C_{N,d,delta} > n/2`` and ``sqrt(2 ln(2n/delta)) > 2``, rho < 1/16
    for every valid input.
    """
    if not (0 < mu <= L):
        raise ValueError(f"need 0 < mu <= L, got mu={mu}, L={L}")
    _check_weight_ratio(weight_ratio)
    return (weight_ratio * (n / 2.0)
            / (8.0 * c_N_d_delta(n, d, delta) * _gauss_max(n, delta))
            * mu / L)


def floors(n: int, d: int, delta: float, L: float, alpha: float,
           weight_ratio: float = 1.0) -> tuple[float, float]:
    """Alpha-floor terms (strongly convex, nonconvex).

    Strongly convex additive floor:
        (max w/min w) * n L C_d^2 sqrt(2 ln(2n/delta)) alpha^2 / (2 C_N)
    Nonconvex floor (the n/n factor cancels):
        (max w/min w)^2 * 32 L^2 C_d^2 ln(2n/delta) alpha^2
    """
    if alpha < 0:
        raise ParameterError("alpha", f"alpha must be nonnegative, got {alpha}")
    _check_weight_ratio(weight_ratio)
    inv = 1.0 / weight_ratio
    cd = c_d_delta(d, delta)
    cn = c_N_d_delta(n, d, delta)
    floor_sc = inv * n * L * cd**2 * _gauss_max(n, delta) * alpha**2 / (2.0 * cn)
    floor_nc = inv**2 * 32.0 * L**2 * cd**2 * math.log(2.0 * n / delta) * alpha**2
    return floor_sc, floor_nc


# ---------------------------------------------------------------------------
# predicted complexities
# ---------------------------------------------------------------------------

def _ceil4(x: float) -> int:
    return max(4, int(4 * math.ceil(x / 4.0)))


@dataclass(frozen=True)
class ComplexityPrediction:
    t: int
    q: int
    n: int
    delta: float


def predict_complexity(d: int, L: float, eps: float, delta_prime: float,
                       mu: Optional[float] = None) -> ComplexityPrediction:
    """Predicted (T, Q, N) for a relative target ``eps``, in closed form.

    A given ``mu`` selects the strongly convex theorem, none the nonconvex
    one.  T follows the headline complexity with unit constant and does
    not depend on N: ``ceil((d L / mu) ln(1/eps))`` when strongly convex
    and ``ceil(d L / eps)`` otherwise.  N follows from T as
    ``ceil_4(l + ln l)``, at least 4, with
    ``l = max(ln(max(T, 2) / delta'), 2)``; then ``Q = T N`` and the
    per-event failure budget is ``delta = delta'/(T N)``.

    A rejected argument raises :class:`ParameterError` naming it.
    """
    for name, value in (("d", d), ("L", L)):
        if not value > 0:
            raise ParameterError(name, f"{name} must be positive, got {value}")
    for name, value in (("eps", eps), ("delta_prime", delta_prime)):
        if not 0 < value < 1:
            raise ParameterError(name, f"{name} must lie in (0, 1), got {value}")
    if mu is None:
        t = math.ceil(d * L / eps)
    elif 0 < mu <= L:
        t = math.ceil(d * L / mu * math.log(1.0 / eps))
    else:
        raise ParameterError("mu", f"mu must lie in (0, L], got {mu}")
    inner = max(math.log(max(t, 2) / delta_prime), 2.0)
    n = _ceil4(inner + math.log(inner))
    return ComplexityPrediction(t=t, q=t * n, n=n, delta=delta_prime / (t * n))


# ---------------------------------------------------------------------------
# Monte-Carlo event checkers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EventSetup:
    """State at which the per-iteration events are simulated."""

    obj: Objective
    x: np.ndarray
    alpha: float
    n: int
    delta: float


@dataclass(frozen=True)
class EventCheckReport:
    """One check's failure count; its rate and verdict follow from it."""

    event_id: str
    trials: int
    theoretical_bound: float
    failures: int
    params: Dict[str, float] = field(default_factory=dict)

    @property
    def empirical_failure_rate(self) -> float:
        return self.failures / self.trials

    @property
    def passed(self) -> bool:
        """The empirical rate is within the bound plus 3 sigma of a
        Bernoulli(min(bound, 1)) mean over ``trials``."""
        b = min(self.theoretical_bound, 1.0)
        tol = 3.0 * math.sqrt(b * (1.0 - b) / self.trials)
        return self.empirical_failure_rate <= self.theoretical_bound + tol

    def params_string(self) -> str:
        return ";".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))


def _check_delta(delta: float) -> None:
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def event_precondition_errors(event_ids: Sequence[str],
                              setup: EventSetup) -> Dict[str, str]:
    """Why each event in ``event_ids`` cannot be checked at ``setup``.

    E2 needs nothing beyond the common inputs; E3 needs a nonzero
    gradient at ``setup.x``; E1/E4/E5 also need the objective's ``L``
    and ``setup.alpha`` within the ``||grad||/(4 L C_d)`` regime bound.
    Events that can be checked are absent from the result.
    """
    unknown = [e for e in event_ids if e not in EVENT_IDS]
    if unknown:
        raise ValueError(f"unknown event id {unknown[0]!r}")
    obj = setup.obj
    if obj.grad is not None and any(e != "E2" for e in event_ids):
        gn = float(np.linalg.norm(np.asarray(obj.grad(setup.x), dtype=float)))
    errors: Dict[str, str] = {}
    for e in event_ids:
        if e == "E2":  # only ranks probes; no gradient needed
            continue
        if e == "E3":
            if obj.grad is None:
                errors[e] = "E3 needs an objective with a gradient"
            elif gn <= 0:
                errors[e] = "E3 needs a state with nonzero gradient"
            continue
        if obj.grad is None or obj.L is None:
            errors[e] = "event check needs an objective with grad and L"
        elif gn <= 0:
            errors[e] = "event check needs a state with nonzero gradient"
        else:
            alpha_max = instrumented_alpha(gn, obj.L, c_d_delta(obj.dim, setup.delta))
            if setup.alpha > alpha_max * (1.0 + 1e-12):
                errors[e] = (
                    f"alpha {setup.alpha:g} violates the quartile-event regime "
                    f"bound {alpha_max:g} (grad-norm / (4 L C_d))")
    return errors


def _lmax(gram: np.ndarray, level: float) -> np.ndarray:
    """Largest eigenvalue of each Gram matrix in the stack ``gram`` where
    it may exceed ``level``, and an upper bound below ``level`` elsewhere.

    For a symmetric G and a positive v, lambda_max(G) <= rho(|G|) <=
    max_i (|G| v)_i / v_i (Perron-Frobenius and Collatz-Wielandt).  One
    step from the row sums r = |G| 1 gives the bound b.  A zero row of |G|
    is a zero row and column of G, a block with eigenvalue 0 of its own,
    so it is left out of the maximum.  ``eigvalsh`` runs only on the
    trials with b > level (1 - 1e-9), so each entry exceeds ``level``
    exactly where ``eigvalsh``'s value would.  Proof that a screened entry
    is not a changed verdict: b is a few sums of k nonnegative terms, so
    its computed value is within ~3k ulps (about 1e-14 at k <= 16) of b;
    ``eigvalsh`` is backward stable and a Gram matrix is positive
    semidefinite, so its ||G|| is lambda_max and its computed lambda_max
    is within ~1e-13 of it, relative; the product is symmetric to the
    same order, though ``eigvalsh`` reads its lower triangle.  A screened
    trial's ``eigvalsh`` value is then at most level (1 - 1e-9 + 1e-12),
    below ``level`` and below any threshold whose square is ``level``.
    """
    a = np.abs(gram)
    r = a.sum(axis=2)
    ar = (a @ r[:, :, None])[:, :, 0]
    bound = np.divide(ar, r, out=np.zeros_like(ar), where=r > 0).max(axis=1)
    open_ = bound > level * (1.0 - 1e-9)
    bound[open_] = np.linalg.eigvalsh(gram[open_])[:, -1]
    return bound


def _selected_smax2(u: np.ndarray, sel_idx: np.ndarray, level: float) -> np.ndarray:
    """Squared spectral norm of each trial's selected directions where it
    may exceed ``level`` (see :func:`_lmax`); the gathered rows are freed
    on return, before the next draw."""
    u_sel = u[np.arange(len(u))[:, None], sel_idx]
    return _lmax(u_sel @ np.swapaxes(u_sel, 1, 2), level)


def check_events(event_ids: Sequence[str], setup: EventSetup, trials: int,
                 rng: np.random.Generator) -> List[EventCheckReport]:
    """Simulate the per-iteration events in one shared experiment.

    Each trial draws a fresh n x d Gaussian batch at ``setup.x``, ranks
    the probes ``x + alpha u_i`` by objective value, and tests every
    requested event's inequality on that one batch:

    * E1: every selected direction's Taylor remainder stays within
      ``C_{d,delta} L alpha^2``  (bound n*delta/2; 1.6 >= 1 at the
      ``rankzo verify`` defaults, so E1 cannot fail there);
    * E2: the squared spectral norm of the selected-direction matrix
      stays within ``C_{N,d,delta}``  (bound delta);
    * E3: the largest selected |<grad, u>| stays within
      ``sqrt(2 ln(2n/delta)) ||grad||``  (bound delta; each <grad, u_i>
      is N(0, ||grad||^2), so the union bound gives E3 for every objective
      and state, and only a broken sampler can fail it);
    * E4/E5: the ranked quartile boundary direction does not cross the
      tau=2 order-statistic threshold beyond the remainder slack,
      ``<grad, u_(3n/4+1)> <= 2||grad|| + 2 C_d L alpha`` and the mirrored
      ``<grad, u_(n/4)> >= -2||grad|| - 2 C_d L alpha``
      (bound exp(-n D(1/4 || 1-Phi(2)))).

    Trials run in the blocks of :func:`~rankzo.sampling.draw_blocks`;
    each block makes one draw, one batch evaluation, one stable argsort
    and one ``u @ grad``, whatever the requested events.  The draws come
    from a :class:`~rankzo.sampling.DrawAhead` over the block sizes, the
    one draw-ahead path :func:`~rankzo.optimizer.run` also uses: its
    drawer thread draws block k+1 while block k is evaluated, ranked and
    tested, so the values and the stream's final state are those of one
    draw.  The pass allocates its block memory once, on the calling
    thread: the stream's two draw buffers, which blocks fill in turn so
    that a draw never writes the directions being tested, and one probe
    buffer, which ``obj.batch_fn`` must not keep past its return.  E2
    bounds each trial's spectral norm from above first (see
    :func:`_lmax`) and runs ``eigvalsh`` only where the bound does not
    decide the verdict.  The draws do not depend on which events are
    requested, so an event's
    report for a given ``rng`` state is the same alone or in company.
    Each estimate is unbiased; estimates of different events are
    correlated, and each passes or fails on its own.  One report comes
    back per requested id, in the order requested.

    Note on E4/E5: the analysis states these quartile events as lower
    bounds |<grad, u_(k)>| >= ||grad|| on every selected direction, but
    the n/4-th extreme of n standard normals concentrates at
    Phi^{-1}(3/4) = 0.674 < 1, so that literal inequality is violated
    with probability -> 1 as n grows.  What the binomial-equivalence /
    Chernoff argument with tau = 2 actually controls, at exactly the
    quoted bound, is the boundary crossing tested here.

    Preconditions: trials >= MIN_TRIALS, and every requested event's
    (see :func:`event_precondition_errors`); a violated one raises
    ``ValueError`` before anything is drawn, as does a nan or infinite
    f(x) under E1.  A nan or infinite probe value raises
    :class:`NonFiniteValueError` at index trial * n + i.
    """
    ids = tuple(event_ids)
    if not ids:
        raise ValueError("no event ids given")
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials, got {trials}")
    obj, x, alpha, n, delta = (setup.obj, np.asarray(setup.x, float),
                               setup.alpha, setup.n, setup.delta)
    _check_delta(delta)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    errors = event_precondition_errors(ids, setup)
    if errors:
        raise ValueError(next(iter(errors.values())))
    g, gn = None, float("nan")
    if any(e != "E2" for e in ids):  # each has passed, so the objective has grad
        g = np.asarray(obj.grad(setup.x), dtype=float)
        gn = float(np.linalg.norm(g))
    d = obj.dim
    cd = c_d_delta(d, delta)
    failures = dict.fromkeys(ids, 0)
    if "E1" in failures:
        f_x = evaluate(obj, x)
        if not math.isfinite(f_x):  # a nan f(x) would make every remainder pass
            raise ValueError(f"non-finite objective value {f_x!r} at the state x")
        rem_max = cd * float(obj.L) * alpha**2
    if "E4" in failures or "E5" in failures:
        slack = 2.0 * gn + 2.0 * cd * float(obj.L) * alpha
    cn = c_N_d_delta(n, d, delta)
    thr_e3 = _gauss_max(n, delta) * gn
    sel = selected_ranks(n) - 1          # positions into the permutation
    bounds = {
        "E1": n * delta / 2.0,
        "E2": delta,
        "E3": delta,
        "E4": event_bound_E45(n),
        "E5": event_bound_E45(n),
    }

    sizes = draw_blocks(n * d, trials)
    pts_buf = np.empty((max(sizes), n, d))     # allocated once, on this thread
    done = 0                                   # trials before this block
    with DrawAhead(rng, (n, d), sizes) as blocks:
        for u in blocks:
            m = len(u)
            pts = np.multiply(u, alpha, out=pts_buf[:m])
            pts += x
            fv = evaluate_batch(obj, pts.reshape(m * n, d)).reshape(m, n)
            if not np.isfinite(fv).all():  # a nan would be ranked and fail no test
                bad = int(np.flatnonzero(~np.isfinite(fv))[0])
                raise NonFiniteValueError(done * n + bad, float(fv.flat[bad]))
            done += m
            perm = np.argsort(fv, axis=1, kind="stable")
            sel_idx = perm[:, sel]
            if g is not None:
                # <grad, u> of every probe, in rank order
                ip = np.take_along_axis(u @ g, perm, axis=1)
            if "E1" in failures:
                rem = np.take_along_axis(fv, sel_idx, axis=1) - f_x - alpha * ip[:, sel]
                failures["E1"] += int(np.sum(np.any(np.abs(rem) > rem_max, axis=1)))
            if "E2" in failures:
                failures["E2"] += int(np.sum(_selected_smax2(u, sel_idx, cn) > cn))
            if "E3" in failures:
                failures["E3"] += int(np.sum(np.max(np.abs(ip[:, sel]), axis=1) > thr_e3))
            if "E4" in failures:
                failures["E4"] += int(np.sum(ip[:, 3 * n // 4] > slack))
            if "E5" in failures:
                failures["E5"] += int(np.sum(ip[:, n // 4 - 1] < -slack))

    return [EventCheckReport(
        event_id=e, trials=trials, theoretical_bound=bounds[e], failures=failures[e],
        # E2 does not use the gradient, so its params leave grad_norm out
        params={"n": n, "d": d, "delta": delta, "alpha": alpha,
                **({} if e == "E2" else {"grad_norm": gn})}) for e in ids]


def check_appendix_bounds(which: str, params: Optional[Dict[str, float]],
                          trials: int, rng: np.random.Generator) -> EventCheckReport:
    """Monte-Carlo check of one supporting probability bound.

    All checks are phrased as failure events with an upper bound, so the
    pass rule is uniformly ``empirical <= bound + 3 sigma``:

    * ``chernoff``:  S ~ Bin(n, p), failure S >= r n,
      bound exp(-n D(r || p));  defaults n=64, p=1-Phi(2), r=1/4.
    * ``gauss_max``: failure max_i |X_i| > sqrt(2 ln(2n/delta)),
      bound delta;  defaults n=32, delta=0.1.
    * ``chi2``:      failure ||u||^2 > 2d + 3 ln(1/delta) for u ~ N(0, I_d),
      bound delta;  defaults d=100, delta=0.01.
    * ``spectral``:  failure s_max(A) > sqrt(n/2) + sqrt(d) + tau for a
      d x n/2 Gaussian matrix, bound 2 exp(-tau^2/2);
      defaults n=16, d=100, tau=2.  A is not drawn: its smaller Gram
      matrix (k x k, k = min(d, n/2)) is Wishart, drawn as T T^T from
      its Bartlett factor T (k chi-square and k(k-1)/2 normal values per
      trial, on two streams split off ``rng``; 36 instead of 800 at the
      defaults).  ``eigvalsh`` runs only on the trials whose cheap upper
      bound on s_max^2 does not already decide them (see :func:`_lmax`).
    * ``order_low1``: failure = the (n/4)-th largest of n standard
      normals is <= tau, bound exp(-n D(1/4 || 1-Phi(tau))); valid for
      1-Phi(tau) > 1/4, i.e. tau < Phi^{-1}(3/4); default tau=0, n=64.
      (Equivalent to the lower bound Pr(M > tau) >= 1 - exp(-n D).)
    * ``order_low2``: mirrored lower-quartile version, failure = the
      (n/4)-th smallest is >= tau, valid for Phi(tau) > 1/4; default
      tau=0, n=64.

    At ``tau = 0`` the two order checks are the instrumented regime's
    retry event.  :func:`~rankzo.optimizer.instrumented_step_size`
    raises :class:`~rankzo.optimizer.StepRegimeError` exactly when fewer
    than n/4 of the n probes lie strictly below f(x), or fewer than n/4
    strictly above it.  As alpha -> 0 the sign of f(x + alpha u) - f(x)
    is that of <g, u>, and <g, u> / ||g|| is a standard normal, so a
    retry is ``order_low2`` (too few below) or ``order_low1`` (too few
    above) at ``tau = 0`` with n = N.  Each side's rate is bounded by
    exp(-n D(1/4 || 1/2)) (0.1233 at n = 16; exactly
    P(Bin(16, 1/2) < 4) = 697/65536 = 0.0106).

    The trials run in the blocks of :func:`~rankzo.sampling.draw_blocks`
    (``spectral`` counts the 4 k^2 values a trial holds at once).

    A size that is not a finite integer at least its least value raises
    :class:`ParameterError` naming it, before anything is drawn:
    ``n >= 1`` for chernoff and gauss_max,
    ``n >= 4`` for order_low1/2, ``d >= 1`` for chi2, and ``n >= 2``,
    ``d >= 1`` for spectral; so does a nan or infinite ``tau`` for
    spectral and order_low1/2.
    """
    if which not in APPENDIX_IDS:
        raise ValueError(f"unknown appendix check {which!r}")
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials, got {trials}")
    p = dict(params or {})

    def size(name, default, least):
        value = p.setdefault(name, default)
        if not (math.isfinite(value) and value == int(value) and value >= least):
            raise ParameterError(
                name, f"{which}: {name} must be an integer >= {least}, got {value}")
        return int(value)

    def finite(name, default):
        value = float(p.setdefault(name, default))
        if not math.isfinite(value):
            raise ParameterError(name, f"{which}: {name} must be finite, got {value}")
        return value

    # each branch sets the values one trial draws and ``fails(m)``, the
    # failures among m fresh trials; the trials run in blocks
    if which == "chernoff":
        n = size("n", 64, 1)
        prob = float(p.setdefault("p", P_TAIL_EXACT))
        r = float(p.setdefault("r", 0.25))
        if not (0 < prob < r < 1):
            raise ValueError("chernoff check needs 0 < p < r < 1")
        per_trial = 1

        def fails(m):
            return np.sum(rng.binomial(n, prob, size=m) >= r * n)

        bound = math.exp(-n * kl_bernoulli(r, prob))
    elif which == "gauss_max":
        n = size("n", 32, 1)
        delta = float(p.setdefault("delta", 0.1))
        _check_delta(delta)
        thr = _gauss_max(n, delta)
        per_trial = n

        def fails(m):
            x = rng.standard_normal((m, n))
            return np.sum(np.max(np.abs(x, out=x), axis=1) > thr)

        bound = delta
    elif which == "chi2":
        d = size("d", 100, 1)
        delta = float(p.setdefault("delta", 0.01))
        _check_delta(delta)
        thr = _chi2_threshold(d, delta)
        per_trial = 1

        def fails(m):
            return np.sum(rng.chisquare(d, size=m) > thr)

        bound = delta
    elif which == "spectral":
        n = size("n", 16, 2)      # at least one column
        d = size("d", 100, 1)
        tau = finite("tau", 2.0)
        cols = n // 2
        thr = math.sqrt(cols) + math.sqrt(d) + tau
        # one stream per variate family: both samplers reject, so
        # interleaving them would make the values depend on the draw size
        chi_rng, normal_rng = rng.spawn(2)
        # s_max(A) = s_max(A^T): factor the smaller Gram matrix
        k = min(d, cols)
        # a trial holds the factor, its Gram matrix, |G| and eigvalsh's
        # copy, k^2 values each
        per_trial = 4 * k * k
        diag = np.arange(k)
        dof = max(d, cols) - diag
        low_r, low_c = np.tril_indices(k, -1)
        # a trial fails where sqrt(lambda_max) > thr; below thr = 0 every
        # nonzero Gram matrix does, so none may be screened out
        level = max(thr, 0.0) ** 2

        def fails(m):
            # Bartlett: the k x k Gram matrix is T T^T, T lower triangular
            # with sqrt(chi^2(dof_i)) on the diagonal and N(0, 1) below it
            t = np.zeros((m, k, k))
            t[:, diag, diag] = np.sqrt(chi_rng.chisquare(dof, size=(m, k)))
            t[:, low_r, low_c] = normal_rng.standard_normal((m, low_r.size))
            gram = t @ np.swapaxes(t, 1, 2)
            return np.sum(np.sqrt(_lmax(gram, level)) > thr)

        bound = 2.0 * math.exp(-tau**2 / 2.0)
    else:  # order_low1 / order_low2
        n = size("n", 64, 4)      # at least one value per quartile
        tau = finite("tau", 0.0)
        m_rank = n // 4
        q = m_rank / n
        if which == "order_low1":
            prob = 1.0 - _normal_cdf(tau)
        else:
            prob = _normal_cdf(tau)
        if prob <= q:
            raise ValueError(
                f"{which}: threshold tau={tau:g} gives p={prob:.4f} <= q={q:g}; "
                "the lower-tail Chernoff bound needs p > q "
                "(tau below Phi^{-1}(3/4) resp. above Phi^{-1}(1/4))")
        per_trial = n

        # the m-th largest is <= tau exactly when fewer than m values
        # exceed tau, and the m-th smallest >= tau exactly when fewer than
        # m fall below it: a count, with no sort
        def fails(m):
            x = rng.standard_normal((m, n))
            beyond = x > tau if which == "order_low1" else x < tau
            return np.sum(np.count_nonzero(beyond, axis=1) < m_rank)

        bound = math.exp(-n * kl_bernoulli(q, prob))

    failures = sum(int(fails(m)) for m in draw_blocks(per_trial, trials))
    return EventCheckReport(event_id=which, trials=trials, theoretical_bound=bound,
                            failures=failures, params=p)

