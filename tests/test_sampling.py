"""Direction sampling, the rank oracle, and the query ledger."""

import ast
import math
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from rankzo.objective import (MonotoneTransform, Objective, evaluate_batch,
                              make_quadratic, wrap_monotone)
from rankzo.optimizer import RunConfig
from rankzo.sampling import (DrawAhead, NonFiniteValueError, QueryLedger,
                             check_sample_size, new_generator, rank_oracle,
                             sample_directions, selected_ranks)
from rankzo.theory import c_N_d_delta, event_bound_E45

SRC = Path(__file__).resolve().parent.parent / "src" / "rankzo"


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


class TestDrawAhead:
    """A :class:`DrawAhead` hands out the values of one draw, in blocks or
    one sample at a time, whatever the block sizes, and its drawer thread
    is gone once it is closed."""

    @pytest.mark.parametrize("sizes", [[5, 5, 3], [13], [4, 1, 4, 4], [1, 2, 4, 6]])
    def test_blocks_are_one_draw(self, sizes):
        rng = new_generator(3)
        seen = []
        with DrawAhead(rng, (4, 2), sizes) as blocks:
            for block in blocks:
                time.sleep(0.005)  # the drawer fills the next block meanwhile
                seen.append(block.copy())
        assert [len(b) for b in seen] == sizes
        one = new_generator(3)
        np.testing.assert_array_equal(np.concatenate(seen), one.standard_normal((13, 4, 2)))
        # no draw past the last block
        assert rng.random() == one.random()

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_samples_are_one_draw(self, block):
        one = new_generator(9)
        with DrawAhead(new_generator(9), (8, 3), [block] * 20) as stream:
            for _ in range(20):
                np.testing.assert_array_equal(sample_directions(stream, 8, 3),
                                              sample_directions(one, 8, 3))

    def test_no_blocks(self):
        rng = new_generator(4)
        before = threading.active_count()
        with DrawAhead(rng, (2,), []) as blocks:
            assert list(blocks) == []
        assert threading.active_count() == before
        assert rng.random() == new_generator(4).random()  # nothing drawn

    def test_wrong_sample_shape_rejected(self):
        with DrawAhead(new_generator(1), (8, 3), [4]) as stream:
            with pytest.raises(ValueError, match=r"shape \(8, 3\), not \(8, 4\)"):
                stream.standard_normal((8, 4))

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="every block must hold at least one sample"):
            DrawAhead(new_generator(1), (2,), [2, 0, 3])

    def test_drawer_error_raises_in_the_caller(self):
        error = RuntimeError("generator broke")

        class Failing:
            calls = 0

            def standard_normal(self, out):
                self.calls += 1
                if self.calls == 2:
                    raise error
                out[...] = 1.0
                return out

        before = threading.active_count()
        with DrawAhead(Failing(), (2,), [3] * 4) as blocks:
            assert next(blocks).tolist() == [[1.0, 1.0]] * 3
            with pytest.raises(RuntimeError) as exc:
                next(blocks)
            assert exc.value is error
            with pytest.raises(RuntimeError):  # and on every later call
                next(blocks)
        assert threading.active_count() == before

    def test_blocks_stay_intact_under_stress(self):
        """Four streams at once, with a 1 µs thread switch interval: every
        block holds its share of one draw from when it is handed over
        until the next block is asked for."""
        def consume(seed, errors):
            try:
                one = new_generator(seed).standard_normal((600, 3))
                seen = 0
                with DrawAhead(new_generator(seed), (3,), [3, 1, 2] * 100) as blocks:
                    for block in blocks:
                        first = block.copy()
                        time.sleep(0)   # let the drawer run ahead
                        if not (np.array_equal(first, one[seen:seen + len(block)])
                                and np.array_equal(block, first)):
                            errors.append(seed)
                        seen += len(block)
                if seen != 600:
                    errors.append(seed)
            except Exception as exc:  # reported through ``errors``
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            errors = []
            threads = [threading.Thread(target=consume, args=(seed, errors))
                       for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []

    def test_closed_part_way(self):
        before = threading.active_count()
        stream = DrawAhead(new_generator(1), (4,), [2] * 4)
        next(stream)
        assert threading.active_count() == before + 1
        stream.close()
        assert threading.active_count() == before


class TestRankOracle:
    def test_linear_ordering(self):
        batch = batch_from_rows([[3.0], [-1.0], [2.0], [-2.0]])
        perm, _ = rank_oracle(QueryLedger(linear_1d()), np.zeros(1), 1.0, batch)
        # ascending f(0 + u) = u: order -2 < -1 < 2 < 3, 0-based indices
        np.testing.assert_array_equal(perm, [3, 1, 2, 0])

    def test_stable_tie_break(self):
        const = Objective(dim=2, fn=lambda x: 1.0)
        batch = sample_directions(new_generator(3), 8, 2)
        perm, _ = rank_oracle(QueryLedger(const), np.zeros(2), 0.5, batch)
        np.testing.assert_array_equal(perm, np.arange(8))

    def test_ledger_accounting(self):
        ledger = QueryLedger(make_quadratic(3, 1.0, 10.0, seed=0))
        batch = sample_directions(new_generator(5), 16, 3)
        rank_oracle(ledger, np.zeros(3), 0.1, batch)
        assert ledger.total_queries == 16

    def test_sorted_values(self):
        obj = make_quadratic(4, 1.0, 10.0, seed=1)
        batch = sample_directions(new_generator(6), 12, 4)
        perm, fvals = rank_oracle(QueryLedger(obj), np.ones(4), 0.3, batch)
        ordered = fvals[perm]
        assert np.all(np.diff(ordered) >= 0)

    def test_non_finite_value_carries_index(self):
        def bad(x):
            return float("inf") if x[0] > 2.0 else float(x[0])
        obj = Objective(dim=1, fn=bad)
        batch = batch_from_rows([[0.0], [3.0], [1.0], [-1.0]])
        with pytest.raises(NonFiniteValueError) as err:
            rank_oracle(QueryLedger(obj), np.zeros(1), 1.0, batch)
        assert err.value.index == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("bad_rows", [[0], [5], [7], [3, 6]],
                             ids=["first", "middle", "last", "two"])
    def test_non_finite_value_reports_first_bad_row(self, value, bad_rows):
        """Any nan or infinity fails the batch, wherever the sort puts it,
        and the error names the lowest bad row and its value, warning-free."""
        values = np.linspace(-1.0, 1.0, 8)
        values[bad_rows] = value
        obj = Objective(dim=2, fn=lambda x: 0.0, batch_fn=lambda points: values.copy())
        ledger = QueryLedger(obj)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValueError) as err:
                rank_oracle(ledger, np.zeros(2), 0.5, np.ones((8, 2)))
        assert err.value.index == bad_rows[0]
        assert math.isnan(err.value.value) if math.isnan(value) else err.value.value == value
        assert ledger.total_queries == 8

    def test_finite_values_beyond_the_float_range_in_sum(self):
        """Finite values whose sum overflows are still finite: ranked, not
        rejected, and no overflow warning."""
        # numpy's pairwise sum adds neighbours first: inf + -inf, then nan
        values = np.array([1.7e308, 1.7e308, -1.7e308, -1.7e308, 1.0, 0.0, -1.0, 2.0])
        obj = Objective(dim=2, fn=lambda x: 0.0, batch_fn=lambda points: values.copy())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            perm, fvals = rank_oracle(QueryLedger(obj), np.zeros(2), 0.5, np.ones((8, 2)))
        np.testing.assert_array_equal(perm, [2, 3, 6, 5, 4, 7, 0, 1])
        np.testing.assert_array_equal(fvals, values)

    def test_nonpositive_alpha_rejected(self):
        batch = batch_from_rows([[1.0], [2.0], [3.0], [4.0]])
        with pytest.raises(ValueError):
            rank_oracle(QueryLedger(linear_1d()), np.zeros(1), 0.0, batch)

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
            p1, _ = rank_oracle(QueryLedger(obj), x, 0.05, batch)
            p2, _ = rank_oracle(QueryLedger(wrapped), x, 0.05, batch)
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
        ledger = QueryLedger(linear_1d())
        for n in (16, 2, 2, 16):
            ledger.charge(n)
        assert ledger.total_queries == 36

    def test_starts_at_zero_queries(self):
        # the total is the ledger's own; no caller can start it elsewhere
        assert QueryLedger(linear_1d()).total_queries == 0
        with pytest.raises(TypeError):
            QueryLedger(linear_1d(), 5)
        with pytest.raises(TypeError):
            QueryLedger(linear_1d(), _total=5)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            QueryLedger(linear_1d()).charge(-1)

    def test_value_evaluates_and_charges_one(self):
        ledger = QueryLedger(linear_1d())
        assert ledger.value(np.array([2.5])) == 2.5
        assert ledger.value(np.array([-1.0])) == -1.0
        assert ledger.total_queries == 2

    def test_values_evaluates_and_charges_each_row(self):
        obj = make_quadratic(3, 1.0, 10.0, seed=0)
        points = sample_directions(new_generator(2), 8, 3)
        ledger = QueryLedger(obj)
        np.testing.assert_array_equal(ledger.values(points), evaluate_batch(obj, points))
        assert ledger.total_queries == 8

    def test_failed_evaluation_not_charged(self):
        def fail(x):
            raise ArithmeticError("fn failed")
        ledger = QueryLedger(Objective(dim=2, fn=fail))
        with pytest.raises(ArithmeticError):
            ledger.value(np.zeros(2))
        with pytest.raises(ArithmeticError):
            ledger.values(np.zeros((4, 2)))
        with pytest.raises(ValueError, match=r"expected shape \(2,\)"):
            ledger.value(np.zeros(3))
        assert ledger.total_queries == 0

    def test_every_query_goes_through_charge(self):
        """A subclass that overrides ``charge`` sees every query the
        ledger makes, one call per ``value`` or ``values``."""
        seen = []

        class Recording(QueryLedger):
            def charge(self, n):
                seen.append(n)
                super().charge(n)

        ledger = Recording(make_quadratic(3, 1.0, 10.0, seed=0))
        ledger.value(np.ones(3))
        ledger.values(np.ones((8, 3)))
        rank_oracle(ledger, np.zeros(3), 0.1, np.ones((4, 3)))
        assert seen == [1, 8, 4] and ledger.total_queries == 13

    def test_charged_only_inside_the_ledger(self):
        """``.charge(`` appears in the package only inside ``class
        QueryLedger``, so every query a run counts is one the ledger made."""
        outside, inside_count = [], 0
        for path in sorted(SRC.glob("*.py")):
            text = path.read_text()
            inside = set()
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.ClassDef) and node.name == "QueryLedger":
                    inside.update(range(node.lineno, node.end_lineno + 1))
            for i, line in enumerate(text.splitlines(), 1):
                if ".charge(" in line:
                    if i in inside:
                        inside_count += 1
                    else:
                        outside.append(f"{path.name}:{i}: {line.strip()}")
        assert inside_count > 0
        assert outside == []
