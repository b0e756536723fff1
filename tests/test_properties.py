"""Property tests: weight normalization, rank invariance, stable ties, and
the range of the contraction factor."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rankzo.objective import Objective, make_quadratic
from rankzo.sampling import QueryLedger, new_generator, rank_oracle, sample_directions
from rankzo.theory import rho
from rankzo.weights import SCHEMES, weights_by_name

PROPERTY_SETTINGS = settings(deadline=None, max_examples=60)


@st.composite
def piecewise_linear(draw):
    """A random strictly increasing piecewise-linear map of the reals."""
    knots = sorted(draw(st.lists(st.floats(-100.0, 100.0), max_size=6, unique=True)))
    slopes = draw(st.lists(st.floats(0.1, 10.0), min_size=len(knots) + 1,
                           max_size=len(knots) + 1))
    offset = draw(st.floats(-1e3, 1e3))

    def transform(v):
        v = np.asarray(v, dtype=float)
        out = offset + slopes[0] * v
        for knot, before, after in zip(knots, slopes, slopes[1:]):
            out = out + (after - before) * np.maximum(v - knot, 0.0)
        return out
    return transform


def transformed(obj, transform):
    return Objective(dim=obj.dim, fn=lambda x: float(transform(obj.fn(x))),
                     batch_fn=lambda points: transform(obj.batch_fn(points)))


def table_objective(values):
    """1-d objective with f(i) = values[i] at the integers 0..n-1."""
    table = np.asarray(values, dtype=float)

    def batch_fn(points):
        return table[np.rint(points[:, 0]).astype(int)]
    return Objective(dim=1, fn=lambda x: float(batch_fn(x[None, :])[0]),
                     batch_fn=batch_fn)


@PROPERTY_SETTINGS
@given(scheme=st.sampled_from(sorted(SCHEMES)), quarter=st.integers(1, 128))
def test_weights_normalized_and_monotone(scheme, quarter):
    w_plus, w_minus = np.split(weights_by_name(scheme, 4 * quarter), 2)
    assert np.all(w_plus > 0) and np.all(w_minus < 0)
    assert abs(w_plus.sum() - 1.0) <= 1e-12
    assert abs(w_minus.sum() + 1.0) <= 1e-12
    assert np.all(np.diff(w_plus) <= 0)
    assert np.all(np.diff(np.abs(w_minus)) >= 0)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8),
       quarter=st.integers(1, 16), alpha=st.floats(1e-3, 10.0),
       transform=piecewise_linear())
def test_rank_invariant_under_increasing_transform(seed, d, quarter, alpha, transform):
    obj = make_quadratic(d, 1.0, 10.0, seed=seed % 1000)
    x = new_generator(seed).standard_normal(d)
    batch = sample_directions(new_generator(seed + 1), 4 * quarter, d)
    plain, _ = rank_oracle(obj, x, alpha, batch, QueryLedger())
    warped, _ = rank_oracle(transformed(obj, transform), x, alpha, batch, QueryLedger())
    np.testing.assert_array_equal(plain, warped)


@PROPERTY_SETTINGS
@given(values=st.integers(1, 16).flatmap(
           lambda q: st.lists(st.integers(-3, 3), min_size=4 * q, max_size=4 * q)),
       transform=piecewise_linear())
def test_ties_broken_stably(values, transform):
    expected = sorted(range(len(values)), key=values.__getitem__)  # stable sort
    batch = np.arange(len(values), dtype=float)[:, None]
    for obj in (table_objective(values), transformed(table_objective(values), transform)):
        perm, _ = rank_oracle(obj, np.zeros(1), 1.0, batch, QueryLedger())
        assert perm.tolist() == expected


@PROPERTY_SETTINGS
@given(quarter=st.integers(1, 2**18), d=st.integers(1, 10**6),
       delta=st.floats(1e-12, 0.999999), L=st.floats(1e-6, 1e6),
       mu_over_L=st.floats(1e-6, 1.0), weight_ratio=st.floats(1e-6, 1.0))
def test_contraction_factor_below_one_sixteenth(quarter, d, delta, L, mu_over_L,
                                                weight_ratio):
    # C_{N,d,delta} > n/2 and sqrt(2 ln(2n/delta)) > 2 bound rho by 1/16
    value = rho(4 * quarter, d, delta, mu_over_L * L, L, weight_ratio)
    assert 0.0 < value < 1.0 / 16.0
