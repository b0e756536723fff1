"""Direction sampling, the rank oracle, and query accounting."""

import numpy as np
import pytest

from rankzo.objective import MonotoneTransform, Objective, make_quadratic, wrap_monotone
from rankzo.optimizer import RunConfig
from rankzo.sampling import (NonFiniteValueError, QueryLedger,
                             check_sample_size, new_generator, rank_oracle,
                             sample_directions, selected_ranks)
from rankzo.theory import c_N_d_delta, event_bound_E45


def linear_1d():
    return Objective(dim=1, fn=lambda x: float(x[0]),
                     grad=lambda x: np.ones(1), L=1.0)


def batch_from_rows(rows):
    return np.asarray(rows, dtype=float)


class TestSampleDirections:
    def test_same_seed_identical(self):
        b1 = sample_directions(new_generator(42), 16, 5)
        b2 = sample_directions(new_generator(42), 16, 5)
        np.testing.assert_array_equal(b1, b2)

    def test_moments_1d(self):
        # CLT scale tolerances: |mean| <= 4/sqrt(n), |var-1| <= 0.06
        b = sample_directions(new_generator(7), 10_000, 1)
        flat = b.ravel()
        assert abs(flat.mean()) <= 4.0 / np.sqrt(10_000)
        assert abs(flat.var() - 1.0) <= 0.06

    @pytest.mark.parametrize("n", [5, 3, 0, 18])
    def test_invalid_n_rejected(self, n):
        with pytest.raises(ValueError):
            sample_directions(new_generator(0), n, 2)

    def test_dimension_below_one_rejected(self):
        with pytest.raises(ValueError) as exc:
            sample_directions(new_generator(0), 8, 0)
        assert str(exc.value) == "d must be >= 1, got 0"

    def test_advances_state(self):
        rng = new_generator(1)
        b1 = sample_directions(rng, 8, 3)
        b2 = sample_directions(rng, 8, 3)
        assert not np.array_equal(b1, b2)


class TestRankOracle:
    def test_linear_ordering(self):
        batch = batch_from_rows([[3.0], [-1.0], [2.0], [-2.0]])
        ledger = QueryLedger()
        perm, _ = rank_oracle(linear_1d(), np.zeros(1), 1.0, batch, ledger)
        # ascending f(0 + u) = u: order -2 < -1 < 2 < 3, 0-based indices
        np.testing.assert_array_equal(perm, [3, 1, 2, 0])

    def test_stable_tie_break(self):
        const = Objective(dim=2, fn=lambda x: 1.0)
        batch = sample_directions(new_generator(3), 8, 2)
        perm, _ = rank_oracle(const, np.zeros(2), 0.5, batch, QueryLedger())
        np.testing.assert_array_equal(perm, np.arange(8))

    def test_ledger_accounting(self):
        ledger = QueryLedger()
        obj = make_quadratic(3, 1.0, 10.0, seed=0)
        batch = sample_directions(new_generator(5), 16, 3)
        rank_oracle(obj, np.zeros(3), 0.1, batch, ledger)
        assert ledger.total_queries == 16

    def test_sorted_values(self):
        obj = make_quadratic(4, 1.0, 10.0, seed=1)
        batch = sample_directions(new_generator(6), 12, 4)
        perm, fvals = rank_oracle(obj, np.ones(4), 0.3, batch, QueryLedger())
        ordered = fvals[perm]
        assert np.all(np.diff(ordered) >= 0)

    def test_non_finite_value_carries_index(self):
        def bad(x):
            return float("inf") if x[0] > 2.0 else float(x[0])
        obj = Objective(dim=1, fn=bad)
        batch = batch_from_rows([[0.0], [3.0], [1.0], [-1.0]])
        with pytest.raises(NonFiniteValueError) as err:
            rank_oracle(obj, np.zeros(1), 1.0, batch, QueryLedger())
        assert err.value.index == 1

    def test_nonpositive_alpha_rejected(self):
        batch = batch_from_rows([[1.0], [2.0], [3.0], [4.0]])
        with pytest.raises(ValueError):
            rank_oracle(linear_1d(), np.zeros(1), 0.0, batch, QueryLedger())

    def test_rank_invariance_under_monotone_transforms(self):
        # identical permutation for identical batches, 100 random instances
        rng = np.random.default_rng(17)
        obj = make_quadratic(6, 1.0, 10.0, seed=2)
        for i in range(100):
            kind = ("affine", "exponential", "cube_plus_linear")[i % 3]
            a = float(rng.uniform(0.1, 10.0))
            b = float(rng.uniform(-5.0, 5.0))
            wrapped = wrap_monotone(obj, MonotoneTransform(kind, a=a, b=b))
            batch = sample_directions(new_generator(1000 + i), 8, 6)
            x = rng.standard_normal(6)
            p1, _ = rank_oracle(obj, x, 0.05, batch, QueryLedger())
            p2, _ = rank_oracle(wrapped, x, 0.05, batch, QueryLedger())
            np.testing.assert_array_equal(p1, p2)


class TestCheckSampleSize:
    @pytest.mark.parametrize("n", [4, 8, 32])
    def test_accepts_positive_multiples_of_4(self, n):
        check_sample_size(n)

    @pytest.mark.parametrize("n", [-4, 0, 2, 6, 18])
    def test_rejects_others(self, n):
        with pytest.raises(ValueError, match=f"n must be >= 4 and divisible by 4, got {n}$"):
            check_sample_size(n)

    @pytest.mark.parametrize("build", [
        lambda n: RunConfig(n=n, iterations=1),
        lambda n: sample_directions(new_generator(0), n, 3),
        selected_ranks,
        lambda n: c_N_d_delta(n, 3, 0.1),
        lambda n: c_N_d_delta(n, 3, 0.1, positive_only=True),
        event_bound_E45,
    ], ids=["RunConfig", "sample_directions", "selected_index_set",
            "c_N_d_delta", "positive_only_norm_constant", "event_bound_E45"])
    def test_every_caller_uses_it(self, build):
        with pytest.raises(ValueError, match="n must be >= 4 and divisible by 4, got 6$"):
            build(6)


class TestSelectedIndexSet:
    def test_n8(self):
        k_plus, k_minus = np.split(selected_ranks(8), 2)
        np.testing.assert_array_equal(k_plus, [1, 2])
        np.testing.assert_array_equal(k_minus, [7, 8])

    def test_smallest_valid(self):
        k_plus, k_minus = np.split(selected_ranks(4), 2)
        np.testing.assert_array_equal(k_plus, [1])
        np.testing.assert_array_equal(k_minus, [4])

    def test_selected_size_is_half(self):
        assert selected_ranks(20).size == 10

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            selected_ranks(6)

    def test_positive_only_subset(self):
        # the positive-only ablation keeps the first n/4 selected ranks
        np.testing.assert_array_equal(selected_ranks(8)[:8 // 4], [1, 2])


class TestQueryLedger:
    def test_total_is_sum(self):
        ledger = QueryLedger()
        for n in (16, 2, 2, 16):
            ledger.charge(n)
        assert ledger.total_queries == 36

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            QueryLedger().charge(-1)
