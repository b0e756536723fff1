"""Gaussian direction batches, the rank oracle, and the query ledger.

The sampler draws ``n`` i.i.d. standard normal directions per iteration
from a counter-based Philox generator (64-bit seed), so every batch is
reproducible bit for bit across platforms.  ``n`` must be a positive
multiple of 4 (:func:`check_sample_size`) because the selected index set
splits into a best quartile and a worst quartile.

The rank oracle evaluates the ``n`` probe points ``x + alpha * u_i``
through the run's :class:`QueryLedger`, the one place queries are
charged, and returns the stable ascending permutation of the values
together with the values.  Callers in the practical regime consume
nothing but the permutation; the raw values are an instrumentation
side channel for theory validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .objective import Objective, evaluate, evaluate_batch

__all__ = [
    "QueryLedger",
    "NonFiniteValueError",
    "check_sample_size",
    "new_generator",
    "sample_directions",
    "rank_oracle",
    "selected_ranks",
]


class NonFiniteValueError(ValueError):
    """A probe returned nan/inf; ``index`` is the offending sample."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"non-finite objective value {value!r} at sample index {index}")


def check_sample_size(n: int) -> None:
    """Reject a batch size ``n`` that is not a positive multiple of 4."""
    if n < 4 or n % 4 != 0:
        raise ValueError(f"n must be >= 4 and divisible by 4, got {n}")


def new_generator(seed: int) -> np.random.Generator:
    """Philox-backed generator for a documented 64-bit seed."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass
class QueryLedger:
    """A run's one query path: ``value(x)`` is :func:`evaluate` and
    ``values(points)`` :func:`evaluate_batch` on ``obj``, each charging
    one query per point that returned.  A run's uncharged diagnostics
    (f(x_t), the gradient, the final f) read ``obj`` directly."""

    obj: Objective
    _total: int = field(default=0, init=False)

    @property
    def total_queries(self) -> int:
        return self._total

    def value(self, x: np.ndarray) -> float:
        f = evaluate(self.obj, x)
        self.charge(1)
        return f

    def values(self, points: np.ndarray) -> np.ndarray:
        fvals = evaluate_batch(self.obj, points)
        self.charge(len(fvals))
        return fvals

    def charge(self, n: int) -> None:
        if n < 0:
            raise ValueError("cannot charge a negative query count")
        self._total += int(n)


def sample_directions(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Draw an ``n x d`` standard normal batch, advancing ``rng``.

    Same generator state in, same batch out (bitwise).
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    check_sample_size(n)
    return rng.standard_normal((n, d))


def rank_oracle(ledger: QueryLedger, x: np.ndarray, alpha: float,
                u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate the probes ``x + alpha*u_i`` through ``ledger`` and return
    ``(perm, fvals)``.

    ``perm[j]`` is the sample index of the (j+1)-th smallest probe value,
    i.e. ``fvals[perm[0]] <= fvals[perm[1]] <= ...`` with ties broken by
    ascending index.  ``fvals`` is instrumentation only.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    fvals = ledger.values(alpha * u + np.asarray(x, dtype=float))
    perm = fvals.argsort(kind="stable")
    # the sort puts -inf first and +inf, then nan, last: the two ends are
    # finite exactly when every value is
    if perm.size and not (-math.inf < fvals[perm[0]] and fvals[perm[-1]] < math.inf):
        bad = int(np.flatnonzero(~np.isfinite(fvals))[0])
        raise NonFiniteValueError(bad, float(fvals[bad]))
    return perm, fvals


def selected_ranks(n: int) -> np.ndarray:
    """The selected index set: 1-based ranks 1..n/4 (best quartile), then
    3n/4+1..n (worst quartile).

    These n/2 ranks receive the nonzero weights.
    """
    check_sample_size(n)
    return np.concatenate([np.arange(1, n // 4 + 1),
                           np.arange(3 * n // 4 + 1, n + 1)])
