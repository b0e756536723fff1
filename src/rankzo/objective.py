"""Smooth black-box objectives with optional instrumentation.

An :class:`Objective` bundles a scalar function ``f: R^d -> R`` with the
side information the theory-validation code needs when it is available:
an analytic gradient, a smoothness constant ``L`` such that the first
order Taylor remainder satisfies ``|remainder(y, x)| <= (L/2) ||y-x||^2``,
a strong-convexity constant ``mu`` (lower bound ``remainder >= (mu/2)
||y-x||^2``), and the optimum ``(x_star, f_star)``.

The optimizer itself only ever calls :func:`evaluate`; the rest of the
fields feed the instrumented step-size/alpha rules and the event
checkers.  Objectives are immutable after construction and safe for
concurrent evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Vector = np.ndarray

__all__ = [
    "Objective",
    "MonotoneTransform",
    "evaluate",
    "evaluate_batch",
    "remainder",
    "make_quadratic",
    "make_rosenbrock_like",
    "wrap_monotone",
]


@dataclass(frozen=True)
class Objective:
    """A dimension-``dim`` objective with optional instrumentation.

    ``fn`` maps a length-``dim`` vector to a float.  ``batch_fn``, when
    present, maps an ``(m, dim)`` array to ``m`` values and lets hot
    paths evaluate a whole batch of probes in one call; it must agree
    with ``fn`` row by row.
    """

    dim: int
    fn: Callable[[Vector], float]
    grad: Optional[Callable[[Vector], Vector]] = None
    L: Optional[float] = None
    mu: Optional[float] = None
    f_star: Optional[float] = None
    x_star: Optional[Vector] = None
    batch_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "objective"

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.L is not None and self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L}")
        if self.mu is not None and self.mu < 0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")


def evaluate(obj: Objective, x: Vector) -> float:
    """Evaluate ``f(x)``.

    Raises ``ValueError`` on a dimension mismatch.  Query accounting is
    *not* done here; only the rank oracle and comparison probes charge
    the ledger.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (obj.dim,):
        raise ValueError(f"expected shape ({obj.dim},), got {x.shape}")
    return float(obj.fn(x))


def evaluate_batch(obj: Objective, points: np.ndarray) -> np.ndarray:
    """Evaluate ``f`` on each row of an ``(m, dim)`` array."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != obj.dim:
        raise ValueError(f"expected shape (m, {obj.dim}), got {points.shape}")
    if obj.batch_fn is not None:
        return np.asarray(obj.batch_fn(points), dtype=float)
    return np.array([obj.fn(p) for p in points], dtype=float)


def remainder(obj: Objective, y: Vector, x: Vector) -> float:
    """First-order Taylor remainder ``f(y) - f(x) - <grad f(x), y - x>``.

    This is the quantity the smoothness and strong-convexity assumptions
    sandwich between ``+-(L/2)||y-x||^2`` and ``(mu/2)||y-x||^2``.
    """
    if obj.grad is None:
        raise ValueError(f"objective {obj.name!r} has no gradient")
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    g = np.asarray(obj.grad(x), dtype=float)
    return float(obj.fn(y) - obj.fn(x) - g @ (y - x))


@dataclass(frozen=True)
class MonotoneTransform:
    """A strictly increasing map applied to objective values.

    Kinds:
      - ``affine``: t(v) = a*v + b with a > 0
      - ``exponential``: t(v) = exp(v)
      - ``cube_plus_linear``: t(v) = v**3 + v  (derivative 3v^2+1 > 0)
    """

    kind: str
    a: float = 1.0
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("affine", "exponential", "cube_plus_linear"):
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.kind == "affine" and self.a <= 0:
            raise ValueError("affine transform needs a > 0 to be increasing")

    def __call__(self, v):
        if self.kind == "affine":
            return self.a * v + self.b
        if self.kind == "exponential":
            return np.exp(v)
        return v**3 + v


def wrap_monotone(obj: Objective, transform: MonotoneTransform) -> Objective:
    """Objective computing ``t(f(x))``.

    The gradient and the L/mu/f_star/x_star instrumentation are dropped:
    none of them survive a general monotone transform.  Rank-based code
    must behave identically on the wrapped objective.
    """
    fn = obj.fn
    batch = obj.batch_fn

    def wrapped(x: Vector) -> float:
        return float(transform(fn(x)))

    wrapped_batch = None
    if batch is not None:
        def wrapped_batch(points: np.ndarray) -> np.ndarray:
            return transform(np.asarray(batch(points), dtype=float))

    return Objective(
        dim=obj.dim,
        fn=wrapped,
        batch_fn=wrapped_batch,
        name=f"{transform.kind}({obj.name})",
    )


def _haar_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    # QR of a Gaussian matrix with the sign fix gives a Haar-distributed Q
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def make_quadratic(d: int, mu: float = 1.0, L: float = 10.0, seed: int = 7) -> Objective:
    """Seeded quadratic ``f(x) = 0.5 (x-x*)' A (x-x*)`` with known spectrum.

    ``A = Q' diag(eigs) Q`` with ``Q`` a seeded Haar-orthogonal rotation
    and a log-uniform spectrum whose endpoints are pinned to exactly
    ``mu`` and ``L`` (for d >= 2), so the recorded smoothness and
    strong-convexity constants are exact.  ``x*`` is drawn from the same
    seed; ``f_star = 0``.  Since ``f >= 0``, a value that overflows a
    float (to ``-inf``, ``+inf`` or ``nan``) is returned as ``+inf``.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not (0 < mu <= L):
        raise ValueError(f"need 0 < mu <= L, got mu={mu}, L={L}")
    rng = np.random.Generator(np.random.Philox(seed))
    if d == 1:
        a = np.array([[mu]])
    elif mu == L:
        a = mu * np.eye(d)
    else:
        q = _haar_orthogonal(d, rng)
        eigs = np.geomspace(mu, L, d)
        eigs[0], eigs[-1] = mu, L
        a = q.T @ (eigs[:, None] * q)
        a = 0.5 * (a + a.T)
    x_star = rng.standard_normal(d)

    def fn(x: Vector) -> float:
        z = x - x_star
        value = float(0.5 * z @ a @ z)
        return value if math.isfinite(value) else math.inf

    def batch_fn(points: np.ndarray) -> np.ndarray:
        # one BLAS product and one m x d temporary beside z; points untouched
        z = points - x_star
        za = z @ a
        za *= z
        values = 0.5 * za.sum(axis=1)
        if not math.isfinite(values.sum()):  # one test while all are finite
            values[~np.isfinite(values)] = np.inf
        return values

    def grad(x: Vector) -> Vector:
        return a @ (x - x_star)

    return Objective(
        dim=d, fn=fn, grad=grad, L=float(L), mu=float(mu),
        f_star=0.0, x_star=x_star, batch_fn=batch_fn,
        name=f"quadratic(d={d},mu={mu},L={L})",
    )


#: half-width of the start box [-2, 2]^d over which make_rosenbrock_like's L holds
_BOX_HALFWIDTH = 2.0
#: make_rosenbrock_like's valley curvature c
_CURVATURE = 0.5


def make_rosenbrock_like(d: int) -> Objective:
    """Smooth nonconvex valley objective with a known optimum at all-ones.

    Pairwise-decoupled banana function

        f(x) = sum_j  c*(x_{2j} - x_{2j-1}^2)^2 + (1 - x_{2j-1})^2

    over consecutive coordinate pairs with ``c = 0.5``, so ``d`` must be
    even (and >= 2).  ``f >= 0`` everywhere with ``f_star = 0`` at the
    all-ones point.  The recorded ``L`` is an interval bound on the
    Hessian norm over the declared start box ``[-2, 2]^d``: 34, far
    below the 1e4 scaling cap.
    """
    if d < 2 or d % 2 != 0:
        raise ValueError(f"d must be even and >= 2, got {d}")
    c, h = _CURVATURE, _BOX_HALFWIDTH
    # Interval row-sum bound on the (block-diagonal) Hessian over the box
    # |x_i| <= h; pairs decouple so the max block row sum is a valid
    # spectral-norm bound.
    row_a = (4 * c * h + 12 * c * h * h + 2) + 4 * c * h
    row_b = 4 * c * h + 2 * c

    def fn(x: Vector) -> float:
        a, b = x[0::2], x[1::2]
        return float(np.sum(c * (b - a**2) ** 2 + (1 - a) ** 2))

    def batch_fn(points: np.ndarray) -> np.ndarray:
        a, b = points[:, 0::2], points[:, 1::2]
        return np.sum(c * (b - a**2) ** 2 + (1 - a) ** 2, axis=1)

    def grad(x: Vector) -> Vector:
        a, b = x[0::2], x[1::2]
        g = np.empty_like(x)
        g[0::2] = -4 * c * a * (b - a**2) - 2 * (1 - a)
        g[1::2] = 2 * c * (b - a**2)
        return g

    return Objective(
        dim=d, fn=fn, grad=grad,
        L=float(max(row_a, row_b)),
        f_star=0.0, x_star=np.ones(d), batch_fn=batch_fn,
        name=f"rosenbrock_like(d={d},c={c})",
    )
