"""Signed rank weights: uniform, log, and Blom schemes.

The selected set splits into the best quartile (positive weights summing
to +1, best rank largest) and the worst quartile (negative weights
summing to -1, worst rank largest in magnitude).  Each scheme is one row
of :data:`SCHEMES`, its magnitude at a selected rank, and
:func:`weights_by_name` is the one builder::

    w = weights_by_name("blom", 20)   # w[:5] sums to +1, w[5:] to -1
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

from .sampling import selected_ranks

__all__ = [
    "weights_by_name",
    "check_scheme",
    "weight_ratio",
    "SCHEMES",
]

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


def check_scheme(scheme: str) -> None:
    """Reject a weight scheme name that is not a key of :data:`SCHEMES`."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown weight scheme {scheme!r}; "
                         f"choose from {sorted(SCHEMES)}")


def weights_by_name(scheme: str, n: int) -> np.ndarray:
    """Signed weights lined up with ``selected_ranks(n)``: the ``scheme``
    magnitudes, each quartile normalized on its own, so the first n/4
    (best quartile) are positive and sum to +1 and the last n/4 (worst
    quartile) are negative and sum to -1."""
    check_scheme(scheme)
    mags = SCHEMES[scheme](selected_ranks(n), n)
    best, worst = mags[:n // 4], mags[n // 4:]
    return np.concatenate([best / best.sum(), -worst / worst.sum()])


def weight_ratio(w: np.ndarray) -> float:
    """min|w| / max|w| over the selected set (magnitude convention).

    The selected set mixes positive and negative weights, so the ratio in
    the contraction factor is taken over magnitudes; it is 1 exactly for
    the uniform scheme and lies in (0, 1] always.
    """
    mags = np.abs(w)
    return float(mags.min() / mags.max())
