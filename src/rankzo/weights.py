"""Signed rank weights: uniform, log, and Blom schemes.

The selected set splits into the best quartile (positive weights summing
to +1, best rank largest) and the worst quartile (negative weights
summing to -1, worst rank largest in magnitude).  ``uniform`` assigns
4/n everywhere; ``log`` uses log(n+1) - log(k); ``blom`` uses the
magnitude of the expected Gaussian order statistic via Blom's quantile
approximation Phi^{-1}((k - 0.375) / (n + 0.25)), with Phi^{-1} from the
standard library's ``statistics.NormalDist().inv_cdf`` (Wichura's AS241).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .sampling import selected_index_set

__all__ = [
    "WeightVector",
    "uniform_weights",
    "log_weights",
    "blom_weights",
    "weights_by_name",
    "check_scheme",
    "weight_ratio",
    "SCHEMES",
]

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class WeightVector:
    """Weights over the selected ranks.

    ``w_plus[i]`` belongs to rank ``i+1`` (best quartile), ``w_minus[i]``
    to rank ``3n/4+1+i`` (worst quartile).  Positive side sums to +1,
    negative side to -1.
    """

    w_plus: np.ndarray
    w_minus: np.ndarray
    scheme: str

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


def uniform_weights(n: int) -> WeightVector:
    """All selected ranks get magnitude 4/n."""
    selected_index_set(n)  # validates n
    m = n // 4
    w = np.full(m, 4.0 / n)
    return WeightVector(w_plus=w / w.sum(), w_minus=-w / w.sum(), scheme="uniform")


def log_weights(n: int) -> WeightVector:
    """Log weights: magnitude proportional to log(n+1) - log(k).

    The positive side uses k = 1..n/4 directly; the negative side mirrors
    rank k in the worst quartile to position n+1-k, so the worst rank
    carries the largest magnitude.  Each side is normalized separately.
    """
    k_plus, k_minus = selected_index_set(n)
    raw_plus = np.log(n + 1.0) - np.log(k_plus.astype(float))
    raw_minus = np.log(n + 1.0) - np.log((n + 1 - k_minus).astype(float))
    return WeightVector(
        w_plus=raw_plus / raw_plus.sum(),
        w_minus=-raw_minus / raw_minus.sum(),
        scheme="log",
    )


def blom_weights(n: int) -> WeightVector:
    """Blom weights: magnitude of the approximate expected order statistic.

    magnitude(k) = |Phi^{-1}((k - 0.375) / (n + 0.25))| for k in the
    selected set; sign + on the best quartile, - on the worst, each side
    normalized to +-1.
    """
    k_plus, k_minus = selected_index_set(n)
    inv_cdf = NormalDist().inv_cdf
    mag_plus = np.abs([inv_cdf(p) for p in (k_plus - 0.375) / (n + 0.25)])
    mag_minus = np.abs([inv_cdf(p) for p in (k_minus - 0.375) / (n + 0.25)])
    return WeightVector(
        w_plus=mag_plus / mag_plus.sum(),
        w_minus=-mag_minus / mag_minus.sum(),
        scheme="blom",
    )


SCHEMES = {
    "uniform": uniform_weights,
    "log": log_weights,
    "blom": blom_weights,
}


def check_scheme(scheme: str) -> None:
    """Reject a weight scheme name that is not a key of :data:`SCHEMES`."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown weight scheme {scheme!r}; "
                         f"choose from {sorted(SCHEMES)}")


def weights_by_name(scheme: str, n: int) -> WeightVector:
    check_scheme(scheme)
    return SCHEMES[scheme](n)


def weight_ratio(w: WeightVector) -> float:
    """min|w| / max|w| over the selected set (magnitude convention).

    The selected set mixes positive and negative weights, so the ratio in
    the contraction factor is taken over magnitudes; it is 1 exactly for
    the uniform scheme and lies in (0, 1] always.
    """
    mags = w.magnitudes()
    return float(mags.min() / mags.max())
