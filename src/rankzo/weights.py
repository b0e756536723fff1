"""Signed rank weights: uniform, log, and Blom schemes.

The selected set splits into the best quartile (positive weights summing
to +1, best rank largest) and the worst quartile (negative weights
summing to -1, worst rank largest in magnitude).  Each scheme is one row
of :data:`SCHEMES`, its magnitude at a selected rank, and
:func:`weights_by_name` is the one builder::

    w = weights_by_name("blom", 20)   # w.w_plus sums to +1, w.w_minus to -1
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .sampling import selected_ranks

__all__ = [
    "WeightVector",
    "weights_by_name",
    "check_scheme",
    "weight_ratio",
    "SCHEMES",
]

_SUM_TOL = 1e-12

_inv_cdf = NormalDist().inv_cdf

#: weight magnitude at the 1-based selected ranks ``k`` (an array) of ``n``.
#: ``uniform`` is 4/n everywhere; ``log`` is log(n+1) - log(k), with a
#: worst-quartile rank k mirrored to n+1-k so the worst rank is largest;
#: ``blom`` is the magnitude of the expected Gaussian order statistic by
#: Blom's approximation Phi^{-1}((k - 0.375) / (n + 0.25)), with Phi^{-1}
#: from the standard library's ``NormalDist().inv_cdf`` (Wichura's AS241).
SCHEMES = {
    "uniform": lambda k, n: np.full(k.shape, 4.0 / n),
    "log": lambda k, n: np.log(n + 1.0) - np.log(np.minimum(k, n + 1 - k).astype(float)),
    "blom": lambda k, n: np.abs([_inv_cdf(p) for p in (k - 0.375) / (n + 0.25)]),
}


@dataclass(frozen=True)
class WeightVector:
    """Weights over the selected ranks.

    ``w_plus[i]`` belongs to rank ``i+1`` (best quartile), ``w_minus[i]``
    to rank ``3n/4+1+i`` (worst quartile).  Positive side sums to +1,
    negative side to -1.
    """

    w_plus: np.ndarray
    w_minus: np.ndarray

    def __post_init__(self) -> None:
        wp, wm = np.asarray(self.w_plus), np.asarray(self.w_minus)
        if wp.shape != wm.shape or wp.ndim != 1 or wp.size < 1:
            raise ValueError("w_plus and w_minus must be equal-length 1-d arrays")
        if np.any(wp <= 0) or np.any(wm >= 0):
            raise ValueError("w_plus must be positive and w_minus negative")
        if abs(wp.sum() - 1.0) > _SUM_TOL or abs(wm.sum() + 1.0) > _SUM_TOL:
            raise ValueError("weights must normalize to +1 / -1")

    def signed(self, positive_only: bool = False) -> np.ndarray:
        """Signed weights aligned with ``selected_ranks(n, positive_only)``."""
        if positive_only:
            return np.asarray(self.w_plus)
        return np.concatenate([self.w_plus, self.w_minus])

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.signed())


def check_scheme(scheme: str) -> None:
    """Reject a weight scheme name that is not a key of :data:`SCHEMES`."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown weight scheme {scheme!r}; "
                         f"choose from {sorted(SCHEMES)}")


def weights_by_name(scheme: str, n: int) -> WeightVector:
    """The ``scheme`` magnitudes at ``selected_ranks(n)``, each quartile
    normalized on its own: +1 on the best, -1 on the worst."""
    check_scheme(scheme)
    mags = SCHEMES[scheme](selected_ranks(n), n)
    best, worst = mags[:n // 4], mags[n // 4:]
    return WeightVector(w_plus=best / best.sum(), w_minus=-worst / worst.sum())


def weight_ratio(w: WeightVector) -> float:
    """min|w| / max|w| over the selected set (magnitude convention).

    The selected set mixes positive and negative weights, so the ratio in
    the contraction factor is taken over magnitudes; it is 1 exactly for
    the uniform scheme and lies in (0, 1] always.
    """
    mags = w.magnitudes()
    return float(mags.min() / mags.max())
