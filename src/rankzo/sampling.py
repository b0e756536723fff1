"""Gaussian direction batches, the rank oracle, and query accounting.

The sampler draws ``n`` i.i.d. standard normal directions per iteration
from a counter-based Philox generator (64-bit seed), so every batch is
reproducible bit for bit across platforms.  ``n`` must be a positive
multiple of 4 (:func:`check_sample_size`) because the selected index set
splits into a best quartile and a worst quartile.

The rank oracle evaluates the ``n`` probe points ``x + alpha * u_i``,
charges ``n`` queries, and returns the stable ascending permutation of
the values together with the values.  Callers in the practical regime
consume nothing but the permutation; the raw values are an
instrumentation side channel for theory validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .objective import Objective, evaluate_batch

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
    """Running count of charged objective queries."""

    _total: int = 0

    @property
    def total_queries(self) -> int:
        return self._total

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


def rank_oracle(obj: Objective, x: np.ndarray, alpha: float, u: np.ndarray,
                ledger: QueryLedger) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate the probes ``x + alpha*u_i``, charge ``len(u)`` queries,
    and return ``(perm, fvals)``.

    ``perm[j]`` is the sample index of the (j+1)-th smallest probe value,
    i.e. ``fvals[perm[0]] <= fvals[perm[1]] <= ...`` with ties broken by
    ascending index.  ``fvals`` is instrumentation only.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    x = np.asarray(x, dtype=float)
    points = x[None, :] + alpha * u
    fvals = evaluate_batch(obj, points)
    ledger.charge(len(u))
    bad = np.flatnonzero(~np.isfinite(fvals))
    if bad.size:
        raise NonFiniteValueError(int(bad[0]), float(fvals[bad[0]]))
    perm = np.argsort(fvals, kind="stable")
    return perm, fvals


def selected_ranks(n: int) -> np.ndarray:
    """The selected index set: 1-based ranks 1..n/4 (best quartile), then
    3n/4+1..n (worst quartile).

    These n/2 ranks receive the nonzero weights.
    """
    check_sample_size(n)
    return np.concatenate([np.arange(1, n // 4 + 1),
                           np.arange(3 * n // 4 + 1, n + 1)])
