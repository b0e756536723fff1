"""Descent direction, step-size rules, the driver loop, and traces."""

import math
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rankzo import optimizer, sampling
from rankzo.objective import (MonotoneTransform, Objective, evaluate,
                              evaluate_batch, make_quadratic,
                              wrap_monotone)
from rankzo.optimizer import (AlphaPolicy, OptimizationError, RunConfig,
                              StepPolicy, StepRegimeError, baseline_value_zo,
                              descent_direction, instrumented_step_size,
                              practical_step, run)
from rankzo.sampling import (DrawAhead, QueryLedger, new_generator, rank_oracle,
                             sample_directions, selected_ranks)
from rankzo.theory import c_N_d_delta, c_d_delta, instrumented_alpha
from rankzo.weights import weights_by_name


def linear_1d():
    return Objective(dim=1, fn=lambda x: float(x[0]),
                     grad=lambda x: np.ones(1), L=1.0)


def select_manual(obj, rows, x=None, alpha=1.0, k=None):
    """Rank ``rows`` at ``x``; directions and values at the first ``k``
    selected ranks (all of them by default)."""
    u = np.asarray(rows, dtype=float)
    x = np.zeros(u.shape[1]) if x is None else x
    perm, fvals = rank_oracle(QueryLedger(obj), x, alpha, u)
    idx = perm[selected_ranks(len(u))[:k] - 1]
    return u[idx], fvals[idx]


class TestDescentDirection:
    def test_hand_example_1d(self):
        # ranks for f(x)=x at 0 with u=(3,-1,2,-2): best u=-2, worst u=3;
        # uniform n=4 gives d = 1*(-2) + (-1)*3 = -5
        u_sel, _ = select_manual(linear_1d(), [[3.0], [-1.0], [2.0], [-2.0]])
        d = descent_direction(u_sel, weights_by_name("uniform", 4))
        assert d == pytest.approx(np.array([-5.0]))

    def test_linearity_in_directions(self):
        obj = make_quadratic(3, 1.0, 10.0, seed=0)
        rows = new_generator(1).standard_normal((8, 3))
        u1, _ = select_manual(obj, rows, x=obj.x_star + 1.0, alpha=1e-6)
        u2, _ = select_manual(obj, 2.0 * rows, x=obj.x_star + 1.0, alpha=1e-6)
        w = weights_by_name("uniform", 8)
        # tiny alpha keeps the ranking identical, so d scales linearly
        np.testing.assert_allclose(descent_direction(u2, w),
                                   2.0 * descent_direction(u1, w), rtol=1e-9)

    def test_positive_only_uses_best_quartile(self):
        # the ablation keeps the first n/4 selected ranks and weights
        u_sel, _ = select_manual(linear_1d(), [[3.0], [-1.0], [2.0], [-2.0]], k=1)
        d = descent_direction(u_sel, weights_by_name("uniform", 4)[:1])
        assert d == pytest.approx(np.array([-2.0]))


class TestInstrumentedStepSize:
    def test_hand_example_zero_remainder(self):
        # linear objective: each term reduces to |u|/(2 L C w); with
        # boundary samples -2 and 3 and unit constants, eta = min(2,3)/2
        u_sel, f_sel = select_manual(linear_1d(), [[3.0], [-1.0], [2.0], [-2.0]])
        eta = instrumented_step_size(0.0, np.ones(1), u_sel, f_sel,
                                     weights_by_name("uniform", 4), alpha=1.0,
                                     L=1.0, c_nd=1.0)
        assert eta == pytest.approx(1.0, rel=1e-12)

    def test_inverse_scaling_in_L(self):
        u_sel, f_sel = select_manual(linear_1d(), [[3.0], [-1.0], [2.0], [-2.0]])
        w = weights_by_name("uniform", 4)
        eta1 = instrumented_step_size(0.0, np.ones(1), u_sel, f_sel, w, 1.0, 1.0, 1.0)
        eta10 = instrumented_step_size(0.0, np.ones(1), u_sel, f_sel, w, 1.0, 10.0, 1.0)
        assert eta10 == pytest.approx(eta1 / 10.0, rel=1e-12)

    def test_small_alpha_limit(self):
        # as alpha -> 0, (f(x)-f(x+alpha u))/alpha -> -<grad,u>, so eta
        # approaches min |<g,u>| / (2 L C w) over the selected set
        obj = make_quadratic(12, 1.0, 10.0, seed=4)
        x = obj.x_star + new_generator(2).standard_normal(12)
        g = obj.grad(x)
        batch = sample_directions(new_generator(3), 16, 12)
        alpha = 1e-8
        u_sel, f_sel = select_manual(obj, batch, x=x, alpha=alpha)
        w = weights_by_name("uniform", 16)
        c_nd = c_N_d_delta(16, 12, 0.1)
        eta = instrumented_step_size(obj.fn(x), g, u_sel, f_sel, w, alpha,
                                     obj.L, c_nd)
        ip = u_sel @ g
        closed_form = np.min(np.abs(ip) / (2 * obj.L * c_nd * 0.25))
        assert eta == pytest.approx(closed_form, rel=0.01)

    def test_regime_violation_raises(self):
        # at the optimum every probe is worse than the center, so the
        # best-quartile f-differences have the wrong sign
        obj = make_quadratic(6, 1.0, 10.0, seed=5)
        batch = sample_directions(new_generator(6), 8, 6)
        u_sel, f_sel = select_manual(obj, batch, x=obj.x_star, alpha=0.5)
        with pytest.raises(StepRegimeError):
            instrumented_step_size(obj.fn(obj.x_star), obj.grad(obj.x_star),
                                   u_sel, f_sel, weights_by_name("uniform", 8),
                                   0.5, obj.L, c_N_d_delta(8, 6, 0.1))


    @pytest.mark.parametrize("f_sel,grad,kind", [
        ([-1.0, 1.0], [1.0, 0.0], "zero"),       # <grad, u> = 0 on the second row
        ([1.0, -1.0], [1.0, 1.0], "negative"),   # both f-differences against their weight
        ([-1.0, 0.0], [1.0, 0.0], "nan"),        # 0 / 0 on the second row
        ([0.0, 1.0], [1.0, 1.0], "infinite"),    # a zero f-difference on the first row
    ])
    def test_bad_term_raises_without_warning(self, f_sel, grad, kind):
        """Each kind of bad term is a regime violation, also when the call
        comes from outside run(), where no error state is set for it."""
        u_sel = np.array([[1.0, 0.0], [0.0, 1.0]])
        w_sel = np.array([1.0, -1.0])
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = (u_sel @ np.array(grad))**2 / (2.0 * w_sel) / (0.0 - np.array(f_sel))
        assert {"zero": terms.min() == 0.0, "negative": terms.max() < 0.0,
                "nan": np.isnan(terms).any(), "infinite": np.isinf(terms).any()}[kind]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepRegimeError):
                instrumented_step_size(0.0, np.array(grad), u_sel, np.array(f_sel),
                                       w_sel, 1.0, 1.0, 1.0)


class TestInstrumentedAlpha:
    def test_arithmetic(self):
        assert instrumented_alpha(1.0, 1.0, 10.0, c=1.0) == pytest.approx(0.025)

    def test_linearity_in_c(self):
        full = instrumented_alpha(2.0, 3.0, 7.0, c=1.0)
        assert instrumented_alpha(2.0, 3.0, 7.0, c=0.5) == pytest.approx(full / 2)

    def test_never_exceeds_weak_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            gn, L, cd = rng.uniform(0.1, 10, size=3)
            assert instrumented_alpha(gn, L, cd) <= gn / (L * cd) + 1e-15

    def test_stationary_point_rejected(self):
        with pytest.raises(ValueError):
            instrumented_alpha(0.0, 1.0, 10.0)


class TestPracticalStep:
    def test_backtracking_hand_simulation(self):
        # f = x^2/2 at x=1 along d=-1: f(x) is queried once, then eta=10
        # overshoots (f=40.5) and eta=1 lands at the optimum; 3 queries
        obj = Objective(dim=1, fn=lambda x: 0.5 * float(x[0] ** 2))
        ledger = QueryLedger(obj)
        policy = StepPolicy("backtracking", eta0=10.0, shrink=0.1, max_tries=3)
        (x_new, f_new), eta, queries = practical_step(
            ledger, np.array([1.0]), None, np.array([-1.0]), policy, 10.0)
        assert x_new == pytest.approx(np.array([0.0]))
        assert f_new == 0.5 * float(x_new[0] ** 2)
        assert eta == pytest.approx(1.0)
        assert queries == 3
        assert ledger.total_queries == 3

    def test_backtracking_warm_start_hand_simulation(self):
        # same search started at eta_first=0.5: x + 0.5*d = 0.5 improves
        # on the first comparison, so eta0=10 is never tried (a cold start
        # rejects 10 and accepts 1 at 3 queries); a held f(x) = 0.5 saves
        # the query of f(x)
        obj = Objective(dim=1, fn=lambda x: 0.5 * float(x[0] ** 2))
        policy = StepPolicy("backtracking", eta0=10.0, shrink=0.1, max_tries=3)
        for f_x, expected in ((None, 2), (0.5, 1)):
            ledger = QueryLedger(obj)
            (x_new, f_new), eta, queries = practical_step(
                ledger, np.array([1.0]), f_x, np.array([-1.0]), policy, 0.5)
            assert x_new == pytest.approx(np.array([0.5]))
            assert f_new == 0.125
            assert eta == 0.5
            assert queries == expected
            assert ledger.total_queries == expected

    def test_fixed_policy_no_extra_queries(self):
        obj = Objective(dim=1, fn=lambda x: float(x[0]))
        ledger = QueryLedger(obj)
        (x_new, f_new), eta, queries = practical_step(
            ledger, np.array([2.0]), None, np.array([1.5]),
            StepPolicy("fixed", eta0=0.5), 0.5)
        assert queries == 0 and ledger.total_queries == 0
        assert x_new == pytest.approx(np.array([2.75]))
        assert f_new is None
        assert eta == 0.5

    def test_rejected_move_keeps_x(self):
        # ascent direction: no eta improves, so the move is rejected after
        # one f(x) and 4 tries; x and its value come back unchanged
        obj = Objective(dim=1, fn=lambda x: 0.5 * float(x[0] ** 2))
        ledger = QueryLedger(obj)
        policy = StepPolicy("backtracking", eta0=1.0, shrink=0.5, max_tries=4)
        (x_new, f_new), eta, queries = practical_step(
            ledger, np.array([1.0]), None, np.array([1.0]), policy, 1.0)
        assert x_new == pytest.approx(np.array([1.0]))
        assert f_new == 0.5
        assert eta == 0.0
        assert queries == 5

    def test_instrumented_policy_rejected(self):
        obj = Objective(dim=1, fn=lambda x: float(x[0]))
        with pytest.raises(ValueError):
            practical_step(QueryLedger(obj), np.zeros(1), None, np.ones(1),
                           StepPolicy(), 1.0)


class TestRun:
    def test_zero_iterations(self):
        obj = make_quadratic(4, 1.0, 10.0, seed=0)
        x0 = np.arange(4.0)
        trace = run(obj, RunConfig(n=8, iterations=0, seed=1, x0=x0))
        assert len(trace) == 0
        np.testing.assert_array_equal(trace.final_x, x0)
        assert trace.total_queries == 0

    def test_same_seed_identical_traces(self):
        obj = make_quadratic(8, 1.0, 10.0, seed=2)
        cfg = RunConfig(n=16, iterations=40, seed=77)
        t1, t2 = run(obj, cfg), run(obj, cfg)
        assert t1.f == t2.f and t1.eta == t2.eta
        np.testing.assert_array_equal(t1.final_x, t2.final_x)

    def test_seed_changes_trace(self):
        obj = make_quadratic(8, 1.0, 10.0, seed=2)
        t1 = run(obj, RunConfig(n=16, iterations=20, seed=1))
        t2 = run(obj, RunConfig(n=16, iterations=20, seed=2))
        assert t1.f != t2.f

    def test_overall_decrease_instrumented(self):
        obj = make_quadratic(16, 1.0, 10.0, seed=7)
        trace = run(obj, RunConfig(n=16, iterations=300, seed=11))
        assert trace.final_gap < trace.fgap[0]

    def test_query_accounting_fixed_step(self):
        obj = make_quadratic(6, 1.0, 10.0, seed=3)
        cfg = RunConfig(n=16, iterations=10, seed=5,
                        step=StepPolicy("fixed", eta0=1e-3),
                        alpha=AlphaPolicy("fixed", alpha0=1e-2))
        trace = run(obj, cfg)
        assert trace.total_queries == 160
        assert trace.queries_cum[-1] == 160
        assert np.all(np.diff(trace.queries_cum) > 0)

    def test_query_accounting_backtracking(self):
        obj = make_quadratic(6, 1.0, 10.0, seed=3)
        cfg = RunConfig(n=16, iterations=10, seed=5,
                        step=StepPolicy("backtracking", eta0=1.0, shrink=0.5,
                                        max_tries=10),
                        alpha=AlphaPolicy("fixed", alpha0=1e-2))
        trace = run(obj, cfg)
        assert trace.total_queries > 160  # comparisons charged on top
        assert trace.total_queries == trace.queries_cum[-1]

    def test_instrumented_needs_instrumentation(self):
        bare = Objective(dim=2, fn=lambda x: float(x @ x))
        with pytest.raises(ValueError):
            run(bare, RunConfig(n=8, iterations=5, seed=0))

    def test_stationary_start_raises_with_trace(self):
        obj = make_quadratic(5, 1.0, 10.0, seed=9)
        cfg = RunConfig(n=8, iterations=5, seed=0, x0=obj.x_star.copy())
        with pytest.raises(OptimizationError) as err:
            run(obj, cfg)
        assert str(err.value) == "iteration 0 failed: at stationary point: gradient norm is zero"
        assert len(err.value.trace) == 0

    @pytest.mark.parametrize("oracle", ["fn", "grad"])
    @pytest.mark.parametrize("k", [0, 3])
    def test_oracle_error_raises_with_trace(self, oracle, k):
        """An error from the objective's own ``fn`` or ``grad`` at the top of
        iteration k ends the run like any other failure: k rows kept."""
        obj = make_quadratic(6, 1.0, 10.0, seed=3)
        inner, calls = getattr(obj, oracle), []

        def failing(x):
            calls.append(1)
            if len(calls) == k + 1:  # the (k+1)-th call evaluates x_k
                raise ValueError(f"{oracle} oracle unavailable")
            return inner(x)

        cfg = RunConfig(n=8, iterations=10, seed=1,
                        step=StepPolicy("fixed", eta0=0.02),
                        alpha=AlphaPolicy("fixed", alpha0=1e-3))
        with pytest.raises(OptimizationError) as err:
            run(replace(obj, **{oracle: failing}), cfg)
        assert str(err.value) == f"iteration {k} failed: {oracle} oracle unavailable"
        assert isinstance(err.value.__cause__, ValueError)
        assert len(err.value.trace) == k
        assert err.value.trace.total_queries == 8 * k

    @pytest.mark.parametrize("iterations", [10, 3], ids=["in_loop", "final_f"])
    def test_fn_that_keeps_raising_keeps_the_trace(self, iterations):
        """An ``fn`` that raises from its 4th call on fails at f(x_3): at the
        top of iteration 3, or as the final f of a 3-iteration run.  Either
        way the error carries the three rows before it, and the failed
        run's final f is nan instead of another call to ``fn``."""
        obj = make_quadratic(6, 1.0, 10.0, seed=3)
        inner, calls = obj.fn, []

        def failing(x):
            calls.append(1)
            if len(calls) >= 4:
                raise ValueError("fn oracle unavailable")
            return inner(x)

        cfg = RunConfig(n=8, iterations=iterations, seed=1,
                        step=StepPolicy("fixed", eta0=0.02),
                        alpha=AlphaPolicy("fixed", alpha0=1e-3))
        with pytest.raises(OptimizationError) as err:
            run(replace(obj, fn=failing), cfg)
        trace = err.value.trace
        assert str(err.value) == "iteration 3 failed: fn oracle unavailable"
        assert len(calls) == 4
        assert trace.t == [0, 1, 2]
        assert trace.queries_cum == [8, 16, 24] and trace.total_queries == 24
        assert math.isnan(trace.final_f) and math.isnan(trace.final_gap)
        np.testing.assert_array_equal(trace.final_x,
                                      run(obj, replace(cfg, iterations=3)).final_x)

    def test_failed_update_reports_the_iterations_f(self):
        """An update that fails after f(x_t) was computed passes that value
        through as the final f, without evaluating f again."""
        obj = make_quadratic(6, 1.0, 10.0, seed=3)
        fn_calls = []

        def failing_batch(points):
            raise ValueError("batch oracle unavailable")

        def counted_fn(x):
            fn_calls.append(1)
            return obj.fn(x)

        with pytest.raises(OptimizationError) as err:
            run(replace(obj, fn=counted_fn, batch_fn=failing_batch),
                RunConfig(n=8, iterations=5, seed=1))
        trace = err.value.trace
        assert str(err.value) == "iteration 0 failed: batch oracle unavailable"
        assert len(trace) == 0 and len(fn_calls) == 1
        assert trace.final_f == obj.fn(trace.final_x) == trace.final_gap

    def test_descent_fraction_and_direction_correlation(self):
        # before the floor, most instrumented iterations decrease f and
        # correlate negatively with the gradient
        obj = make_quadratic(16, 1.0, 10.0, seed=7)
        cfg = RunConfig(n=16, iterations=300, seed=13, record_iterates=True)
        trace = run(obj, cfg)
        f = np.array(trace.f + [trace.final_f])
        decreases = np.mean(np.diff(f) < 0)
        assert decreases > 0.9
        neg_corr = 0
        stepped = 0
        for t in range(len(trace.t)):
            if trace.eta[t] <= 0:
                continue
            g = obj.grad(trace.iterates[t])
            step = trace.iterates[t + 1] - trace.iterates[t]
            stepped += 1
            if float(g @ step) < 0:
                neg_corr += 1
        assert stepped > 0 and neg_corr / stepped >= 0.95

    def test_monotone_invariance_fixed_and_backtracking(self):
        obj = make_quadratic(8, 1.0, 10.0, seed=2)
        transforms = [MonotoneTransform("affine", a=3.0, b=7.0),
                      MonotoneTransform("exponential")]
        for step in (StepPolicy("fixed", eta0=0.05),
                     StepPolicy("backtracking", eta0=1.0, shrink=0.5, max_tries=20)):
            cfg = RunConfig(n=16, iterations=25, seed=31, step=step,
                            alpha=AlphaPolicy("fixed", alpha0=1e-2),
                            record_iterates=True)
            base = run(obj, cfg)
            for tr in transforms:
                other = run(wrap_monotone(obj, tr), cfg)
                np.testing.assert_array_equal(base.iterates, other.iterates)

    def test_trace_csv_roundtrip(self, tmp_path):
        obj = make_quadratic(4, 1.0, 10.0, seed=1)
        trace = run(obj, RunConfig(n=8, iterations=6, seed=3))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,f,fgap,gradnorm,alpha,eta,queries_cum"
        assert len(lines) == 7
        back = np.genfromtxt(path, delimiter=",", names=True)
        np.testing.assert_allclose(back["f"], trace.f, rtol=1e-15)

    def test_scheme_selection(self):
        obj = make_quadratic(8, 1.0, 10.0, seed=2)
        for scheme in ("uniform", "log", "blom"):
            trace = run(obj, RunConfig(n=16, iterations=30, seed=5, scheme=scheme))
            assert trace.scheme == scheme
            assert trace.final_gap < trace.fgap[0]

    def test_fixed_alpha_floor_null_steps(self):
        # with a large fixed alpha near the optimum the regime check
        # fails and the iteration records eta = 0 without moving
        obj = make_quadratic(6, 1.0, 10.0, seed=4)
        x0 = obj.x_star + 1e-8 * np.ones(6)
        cfg = RunConfig(n=8, iterations=5, seed=9,
                        alpha=AlphaPolicy("fixed", alpha0=0.5),
                        step=StepPolicy(), x0=x0)
        trace = run(obj, cfg)
        assert all(e == 0.0 for e in trace.eta)
        np.testing.assert_array_equal(trace.final_x, x0)
        # every iteration still pays for its batch exactly once
        assert trace.total_queries == 5 * 8

    @pytest.mark.parametrize("positive_only", [False, True],
                             ids=["full", "positive_only"])
    def test_first_instrumented_step_matches_hand_computation(self, positive_only):
        # x1 = x0 + eta * sum_k w_k u_(k) over the best quartile (w = 4/n)
        # and, unless ablated, the worst quartile (w = -4/n), with
        # alpha = ||g|| / (4 L C_d) and eta the smallest selected quotient
        # <g, u_(k)>^2 / (2 L C w_k) / ((f(x0) - f(x0 + alpha u_(k))) / alpha);
        # x0 and u are the first two draws of the run's Philox stream
        n, d, delta, seed = 16, 8, 0.1, 21
        obj = make_quadratic(d, 1.0, 10.0, seed=4)
        trace = run(obj, RunConfig(n=n, iterations=1, seed=seed, delta=delta,
                                   positive_only=positive_only,
                                   record_iterates=True))
        rng = new_generator(seed)
        x0 = rng.standard_normal(d)
        u = rng.standard_normal((n, d))
        g = obj.grad(x0)
        alpha = np.linalg.norm(g) / (4.0 * obj.L * c_d_delta(d, delta))
        fvals = obj.batch_fn(x0 + alpha * u)
        perm = np.argsort(fvals, kind="stable")
        q = n // 4
        if positive_only:
            idx, w = perm[:q], np.full(q, 4.0 / n)
            c_nd = c_N_d_delta(n, d, delta, positive_only=True)
        else:
            idx = np.concatenate([perm[:q], perm[-q:]])
            w = np.concatenate([np.full(q, 4.0 / n), np.full(q, -4.0 / n)])
            c_nd = c_N_d_delta(n, d, delta)
        quotients = ((u[idx] @ g) ** 2 / (2.0 * obj.L * c_nd * w)
                     / ((obj.fn(x0) - fvals[idx]) / alpha))
        assert np.all(quotients > 0)  # inside the regime: no retry
        eta = quotients.min()
        assert trace.alpha[0] == alpha and trace.eta[0] == eta
        np.testing.assert_array_equal(trace.iterates[0], x0)
        np.testing.assert_array_equal(trace.iterates[1], x0 + eta * (w @ u[idx]))

    def test_positive_only_step_takes_the_weights_prefix(self):
        # a positive-only run steps along the first n/4 signed weights of
        # its scheme over the best-quartile directions; x0 and u are the
        # first two draws of the run's Philox stream
        n, d, seed, eta0, alpha = 16, 8, 21, 0.1, 1e-3
        obj = make_quadratic(d, 1.0, 10.0, seed=4)
        trace = run(obj, RunConfig(n=n, iterations=1, seed=seed, scheme="log",
                                   step=StepPolicy("fixed", eta0=eta0),
                                   alpha=AlphaPolicy("fixed", alpha0=alpha),
                                   positive_only=True, record_iterates=True))
        rng = new_generator(seed)
        x0 = rng.standard_normal(d)
        u = rng.standard_normal((n, d))
        w = weights_by_name("log", n)
        assert type(w) is np.ndarray and w.shape == (n // 2,)
        best = np.argsort(obj.batch_fn(x0 + alpha * u), kind="stable")[:n // 4]
        np.testing.assert_array_equal(trace.iterates[1],
                                      x0 + eta0 * (w[:n // 4] @ u[best]))


class TestRegimeRetries:
    """A regime violation halves alpha and resamples, 30 samples at most
    per iteration, under instrumented step size and geometric alpha."""

    def test_all_samples_violate_null_step(self):
        # alpha is still ~1.9e3 after 29 halvings: every f-difference in
        # the best quartile has the wrong sign
        obj = make_quadratic(16, 1.0, 10.0, seed=7)
        trace = run(obj, RunConfig(n=8, iterations=1, seed=4,
                                   alpha=AlphaPolicy("geometric", alpha0=1e12,
                                                     gamma=0.5),
                                   record_iterates=True))
        assert trace.eta == [0.0]
        assert trace.queries_cum == [30 * 8]
        assert trace.alpha == [1e12 / 2**29]
        np.testing.assert_array_equal(trace.iterates[1], trace.iterates[0])

    @pytest.mark.parametrize("k", [1, 3, 29])
    def test_kth_retry_records_halved_alpha(self, monkeypatch, k):
        calls = []

        def violate_k_times(f_x, grad, u_sel, f_sel, w_sel, alpha, L, c_nd):
            calls.append(alpha)
            if len(calls) <= k:
                raise StepRegimeError("forced")
            return 0.01

        monkeypatch.setattr(optimizer, "instrumented_step_size", violate_k_times)
        obj = make_quadratic(16, 1.0, 10.0, seed=7)
        alpha0 = 1e-4
        trace = run(obj, RunConfig(n=8, iterations=1, seed=4,
                                   alpha=AlphaPolicy("geometric", alpha0=alpha0,
                                                     gamma=0.5)))
        assert calls == [alpha0 / 2**j for j in range(k + 1)]
        assert trace.alpha == [alpha0 / 2**k]
        assert trace.eta == [0.01]
        assert trace.queries_cum == [(k + 1) * 8]


class TestWarmStartLineSearch:
    """Backtracking starts at min(eta0, eta_prev / shrink), or at eta0
    after a rejected move."""

    def test_first_trial_bounded_by_previous_step(self):
        obj = make_quadratic(8, 1.0, 10.0, seed=2)
        step = StepPolicy("backtracking", eta0=1.0, shrink=0.5, max_tries=20)
        below_eta0 = 0
        for seed in range(3):
            trace = run(obj, RunConfig(n=16, iterations=200, seed=seed,
                                       step=step,
                                       alpha=AlphaPolicy("fixed", alpha0=1e-3)))
            for prev, eta in zip(trace.eta, trace.eta[1:]):
                if eta > 0 and prev > 0:
                    assert eta <= min(step.eta0, prev / step.shrink)
                    below_eta0 += prev / step.shrink < step.eta0
                assert eta <= step.eta0
        assert below_eta0 > 0  # the warm start binds below eta0

    def test_fewer_tries_in_criterion_2_setting(self):
        # d=16, seeds 100-109, to 1e-4 of the initial gap: tries per row
        # are the row's queries beyond its N oracle probes, less row 0's
        # one query of f(x_0); a cold start at eta0 averages about 4.4
        obj = make_quadratic(16, 1.0, 10.0, seed=7)
        tries = []
        for seed in range(100, 110):
            cfg = RunConfig(n=16, iterations=6000, seed=seed, delta=0.1,
                            step=StepPolicy("backtracking", eta0=1.0,
                                            shrink=0.5, max_tries=60),
                            alpha=AlphaPolicy("fixed", alpha0=1e-3), eps_target=1e-4)
            trace = run(obj, cfg)
            per_row = np.diff(trace.queries_cum, prepend=0) - cfg.n
            per_row[0] -= 1
            tries.extend(per_row)
        assert np.mean(tries) <= 3.0


def counting_objective(obj):
    """``obj`` with ``fn`` calls and ``batch_fn`` rows counted: ``evals``
    counts both, ``fn`` the ``fn`` calls alone."""
    counts = {"evals": 0, "fn": 0}
    fn, batch_fn = obj.fn, obj.batch_fn

    def counted_fn(x):
        counts["evals"] += 1
        counts["fn"] += 1
        return fn(x)

    def counted_batch(points):
        counts["evals"] += len(points)
        return batch_fn(points)

    return replace(obj, fn=counted_fn, batch_fn=counted_batch), counts


def reference_run(obj, cfg, value_zo=False):
    """:func:`run` (or :func:`baseline_value_zo` with ``value_zo``) written
    out as one plain loop with the first implementation's formulas: the
    norm from ``np.linalg.norm``, probes ``x[None, :] + alpha * u``, the
    step-size terms under ``np.errstate`` and one ``evaluate`` pair per
    line-search try.  f(x) is evaluated afresh at every try but charged
    once per run, on iteration 0, as :func:`run` queries it only there and
    holds the accepted candidate's value after: ``==`` against this
    reference shows the held value changes no iterate, f or eta.  Returns
    the trace rows, the final f and the query count.
    """
    n, d, L = cfg.n, obj.dim, obj.L
    rng = new_generator(cfg.seed)
    x = rng.standard_normal(d)
    sel = selected_ranks(n)[:n // 2] - 1
    w_sel = weights_by_name(cfg.scheme, n)[:n // 2]
    c_d, c_nd = c_d_delta(d, cfg.delta), c_N_d_delta(n, d, cfg.delta)
    step, alpha_policy = cfg.step, cfg.alpha
    queries, rows, gap_target, eta_first = 0, [], None, step.eta0
    for t in range(cfg.iterations):
        f_x = evaluate(obj, x)
        gap = f_x - obj.f_star
        if cfg.eps_target is not None:
            if gap_target is None:
                gap_target = cfg.eps_target * gap
            if gap <= gap_target:
                break
        g = obj.grad(x)
        gnorm = float(np.linalg.norm(g))
        if alpha_policy.kind == "instrumented":
            alpha = alpha_policy.c * gnorm / (4.0 * L * c_d)
        elif alpha_policy.kind == "geometric":
            alpha = alpha_policy.alpha0 * alpha_policy.gamma**t
        else:
            alpha = alpha_policy.alpha0
        if value_zo:
            u = rng.standard_normal(d)
            queries += 2
            eta = 1.0 / (4.0 * (d + 4) * L)
            x = x - eta * ((evaluate(obj, x + alpha * u) - f_x) / alpha * u)
        elif step.kind == "instrumented":
            eta = 0.0
            for attempt in range(30 if alpha_policy.kind != "fixed" else 1):
                if attempt:
                    alpha *= 0.5
                u = rng.standard_normal((n, d))
                fvals = evaluate_batch(obj, x[None, :] + alpha * u)
                queries += n
                idx = np.argsort(fvals, kind="stable")[sel]
                fdiff_rate = (f_x - fvals[idx]) / alpha
                with np.errstate(divide="ignore", invalid="ignore"):
                    terms = (u[idx] @ g)**2 / (2.0 * L * c_nd * w_sel) / fdiff_rate
                if np.all(np.isfinite(terms)) and not np.any(terms <= 0.0):
                    eta = float(terms.min())
                    x = x + eta * (w_sel @ u[idx])
                    break
        else:
            u = rng.standard_normal((n, d))
            fvals = evaluate_batch(obj, x[None, :] + alpha * u)
            queries += n
            direction = w_sel @ u[np.argsort(fvals, kind="stable")[sel]]
            if step.kind == "fixed":
                eta = step.eta0
                x = x + eta * direction
            else:
                eta = eta_first
                queries += t == 0
                for _ in range(step.max_tries):
                    queries += 1
                    if evaluate(obj, x + eta * direction) < evaluate(obj, x):
                        x = x + eta * direction
                        break
                    eta *= step.shrink
                else:
                    eta = 0.0
                eta_first = min(step.eta0, eta / step.shrink) if eta > 0 else step.eta0
        rows.append((t, f_x, gap, gnorm, alpha, eta, queries))
    return rows, evaluate(obj, x), queries


BIT_IDENTITY_RUNS = [
    RunConfig(n=8, iterations=200, seed=0),
    RunConfig(n=16, iterations=150, seed=2, scheme="log",
              step=StepPolicy("fixed", eta0=0.02), alpha=AlphaPolicy("fixed", alpha0=1e-3)),
    RunConfig(n=16, iterations=400, seed=5, scheme="blom", eps_target=1e-3,
              step=StepPolicy("backtracking", eta0=1.0, shrink=0.5, max_tries=30),
              alpha=AlphaPolicy("geometric", alpha0=1e-2, gamma=0.99)),
]
BIT_IDENTITY_IDS = ["instrumented", "fixed", "backtracking_early_stop"]


class TestBitIdentity:
    """The driver against :func:`reference_run`, compared with ``==``: a
    faster hot path must not move one bit of the trace."""

    @pytest.mark.parametrize("cfg", BIT_IDENTITY_RUNS, ids=BIT_IDENTITY_IDS)
    def test_run_matches_reference(self, cfg):
        obj = make_quadratic(8, 1.0, 10.0, seed=7)
        trace = run(obj, cfg)
        self.assert_same(trace, *reference_run(obj, cfg))
        per_row = np.diff(trace.queries_cum, prepend=0)
        if cfg.step.kind == "instrumented":
            assert (per_row > cfg.n).sum() >= 1  # at least one regime retry
        if cfg.eps_target is not None:
            assert len(trace) < cfg.iterations

    # blocks of 1, 3 or 7 samples, and blocks doubling from 1 up to 7
    BLOCKS = [(8, 1), (8, 3), (8, 7), (1, 7)]

    @pytest.mark.parametrize("first,most", BLOCKS)
    @pytest.mark.parametrize("cfg", BIT_IDENTITY_RUNS, ids=BIT_IDENTITY_IDS)
    def test_block_size_changes_nothing(self, monkeypatch, cfg, first, most):
        """A run draws its directions in the blocks of
        ``sampling.draw_blocks``; other block sizes give the same trace."""
        obj = make_quadratic(8, 1.0, 10.0, seed=7)
        monkeypatch.setattr(sampling, "_FIRST_BLOCK", first)
        monkeypatch.setattr(sampling, "_BLOCK_VALUES", most * cfg.n * obj.dim)
        self.assert_same(run(obj, cfg), *reference_run(obj, cfg))

    @pytest.mark.parametrize("first,most", BLOCKS)
    def test_value_baseline_block_size_changes_nothing(self, monkeypatch, first, most):
        obj = make_quadratic(8, 1.0, 10.0, seed=7)
        cfg = RunConfig(n=8, iterations=300, seed=4)
        monkeypatch.setattr(sampling, "_FIRST_BLOCK", first)
        monkeypatch.setattr(sampling, "_BLOCK_VALUES", most * obj.dim)
        self.assert_same(baseline_value_zo(obj, cfg),
                         *reference_run(obj, cfg, value_zo=True))

    def test_value_baseline_matches_reference(self):
        obj = make_quadratic(8, 1.0, 10.0, seed=7)
        cfg = RunConfig(n=8, iterations=300, seed=4)
        self.assert_same(baseline_value_zo(obj, cfg), *reference_run(obj, cfg, value_zo=True))

    @staticmethod
    def assert_same(trace, rows, final_f, queries):
        assert len(rows) > 0
        for name, column in zip(optimizer.TRACE_COLUMNS, zip(*rows)):
            assert getattr(trace, name) == list(column), name
        assert trace.final_f == final_f
        assert trace.total_queries == queries


class TestDrawerThread:
    """A run's drawer thread is joined whether the run returns, stops
    early or raises, and draws no further than its longest run could
    use."""

    @pytest.mark.parametrize("cfg,per_iteration", [
        (BIT_IDENTITY_RUNS[0], optimizer.MAX_REGIME_RETRIES),
        (BIT_IDENTITY_RUNS[1], 1),
        (BIT_IDENTITY_RUNS[2], 1),
    ], ids=BIT_IDENTITY_IDS)
    def test_stream_is_bounded(self, monkeypatch, cfg, per_iteration):
        made = []

        def recording(rng, shape, sizes):
            made.append((shape, sizes))
            return DrawAhead(rng, shape, sizes)

        monkeypatch.setattr(optimizer, "DrawAhead", recording)
        run(make_quadratic(8, 1.0, 10.0, seed=7), cfg)
        baseline_value_zo(make_quadratic(8, 1.0, 10.0, seed=7), cfg)
        (shape, sizes), (baseline_shape, baseline_sizes) = made
        assert shape == (cfg.n, 8) and baseline_shape == (8,)
        assert sizes == sampling.draw_blocks(cfg.n * 8, cfg.iterations * per_iteration)
        assert baseline_sizes == sampling.draw_blocks(8, cfg.iterations)

    @pytest.mark.parametrize("eps_target", [None, 0.5], ids=["full", "early_stop"])
    def test_joined_after_return(self, eps_target):
        obj = make_quadratic(8, 1.0, 10.0, seed=7)
        before = threading.active_count()
        trace = run(obj, RunConfig(n=8, iterations=50, seed=1, eps_target=eps_target))
        assert (len(trace) < 50) == (eps_target is not None)
        assert threading.active_count() == before

    def test_joined_after_run_raises(self):
        obj = make_quadratic(6, 1.0, 10.0, seed=3)
        inner, calls, seen = obj.fn, [], []

        def failing(x):
            calls.append(1)
            seen.append(threading.active_count())
            if len(calls) >= 4:
                raise ValueError("fn oracle unavailable")
            return inner(x)

        before = threading.active_count()
        with pytest.raises(OptimizationError):
            run(replace(obj, fn=failing), RunConfig(
                n=8, iterations=100, seed=1, step=StepPolicy("fixed", eta0=0.02),
                alpha=AlphaPolicy("fixed", alpha0=1e-3)))
        assert seen == [before + 1] * 4  # the drawer ran beside the loop
        assert threading.active_count() == before


class TestQueryLedgerAudit:
    """Every objective evaluation is charged except the documented ones:
    f(x_t) once per trace row, the final f, and the f(x_t) whose
    early-stop check ends the run."""

    @pytest.mark.parametrize("step,alpha", [
        (StepPolicy(), AlphaPolicy()),
        (StepPolicy("fixed", eta0=0.02), AlphaPolicy("fixed", alpha0=1e-3)),
        (StepPolicy("backtracking", eta0=1.0), AlphaPolicy("fixed", alpha0=1e-3)),
    ], ids=["instrumented", "fixed", "backtracking"])
    @pytest.mark.parametrize("eps_target", [None, 0.5], ids=["full", "early_stop"])
    def test_uncharged_evaluations(self, step, alpha, eps_target):
        obj, counts = counting_objective(make_quadratic(8, 1.0, 10.0, seed=7))
        cfg = RunConfig(n=16, iterations=60, seed=3, step=step, alpha=alpha,
                        eps_target=eps_target)
        trace = run(obj, cfg)
        stopped_early = len(trace) < cfg.iterations
        assert stopped_early == (eps_target is not None)
        assert trace.total_queries > 0
        uncharged = counts["evals"] - trace.total_queries
        assert uncharged == len(trace) + 1 + stopped_early

    @pytest.mark.parametrize("eps_target", [None, 0.5], ids=["full", "early_stop"])
    def test_value_baseline_uncharged_evaluations(self, eps_target):
        """The two-point estimator queries both f(x_t + alpha u) and f(x_t)
        through the ledger, so it leaves uncharged what :func:`run` does:
        f(x_t) once per trace row, the final f and an early-stop check."""
        obj, counts = counting_objective(make_quadratic(8, 1.0, 10.0, seed=7))
        cfg = RunConfig(n=16, iterations=400, seed=3,
                        alpha=AlphaPolicy("fixed", alpha0=1e-3), eps_target=eps_target)
        trace = baseline_value_zo(obj, cfg)
        stopped_early = len(trace) < cfg.iterations
        assert stopped_early == (eps_target is not None)
        assert trace.total_queries == 2 * len(trace)
        assert counts["evals"] - trace.total_queries == len(trace) + 1 + stopped_early

    def test_backtracking_queries_each_point_once(self):
        """A backtracking run queries f(x) once, on its first row, and
        holds the accepted candidate's value after: its charged ``fn``
        calls are its tries plus one, and a row after a rejected move
        (eta = 0) charges its N probes and its tries, no f(x).  Tries are
        read off eta: a search starts at min(eta0, eta_prev / shrink), or
        at eta0 after a rejection, and halves eta until it accepts, or
        rejects after max_tries (with shrink 0.5 every eta is a power of 2,
        so log2 is exact)."""
        obj, counts = counting_objective(make_quadratic(8, 1.0, 10.0, seed=7))
        step = StepPolicy("backtracking", eta0=1.0, shrink=0.5, max_tries=8)
        cfg = RunConfig(n=16, iterations=60, seed=3, step=step,
                        alpha=AlphaPolicy("fixed", alpha0=1e-1))
        trace = run(obj, cfg)
        tries, eta_first = [], step.eta0
        for eta in trace.eta:
            tries.append(round(math.log2(eta_first / eta)) + 1 if eta > 0
                         else step.max_tries)
            eta_first = min(step.eta0, eta / step.shrink) if eta > 0 else step.eta0
        # uncharged: the driver's f(x_t) of each row and the final f
        assert counts["fn"] - (len(trace) + 1) == sum(tries) + 1
        assert counts["evals"] - counts["fn"] == cfg.n * len(trace)
        # row 0 also queries f(x_0); every later row, those after a rejected
        # move included, charges its N probes and its tries only
        per_row = np.diff(trace.queries_cum, prepend=0)
        first = np.arange(len(trace)) == 0
        np.testing.assert_array_equal(per_row, cfg.n + np.array(tries) + first)
        # the run has rows after a rejected move that accept and that reject
        after_rejected = np.flatnonzero(np.array(trace.eta[:-1]) == 0.0) + 1
        assert {trace.eta[t] > 0 for t in after_rejected} == {True, False}

    # fn call 1 is the driver's f(x_0), 2 the run's one charged f(x) and 3
    # iteration 0's first (accepted) candidate; 4 is the driver's f(x_1),
    # and 5, 6 are iteration 1's first (rejected) and second candidates
    @pytest.mark.parametrize("k,rows", [(2, 0), (3, 0), (6, 1)],
                             ids=["first_try_ref", "first_try_cand", "second_try_cand"])
    def test_failed_run_counts_what_returned(self, k, rows):
        """Under backtracking, an ``fn`` that raises on its k-th call ends
        the run in an :class:`OptimizationError` whose ``total_queries``
        counts the charged evaluations that returned, not the failed one."""
        base = make_quadratic(8, 1.0, 10.0, seed=7)
        calls = {"fn": 0, "rows": 0}

        def fn(x):
            calls["fn"] += 1
            if calls["fn"] == k:
                raise ValueError("fn failed")
            return base.fn(x)

        def batch_fn(points):
            calls["rows"] += len(points)
            return base.batch_fn(points)

        cfg = RunConfig(n=16, iterations=60, seed=3,
                        step=StepPolicy("backtracking", eta0=1.0),
                        alpha=AlphaPolicy("fixed", alpha0=1e-3))
        with pytest.raises(OptimizationError, match="fn failed") as exc:
            run(replace(base, fn=fn, batch_fn=batch_fn), cfg)
        trace = exc.value.trace
        assert len(trace) == rows
        # the failing call was a line-search query: its iteration's f(x_t) returned
        assert math.isfinite(trace.final_f)
        returned = calls["rows"] + calls["fn"] - 1
        # uncharged: f(x_t) of each trace row and of the failing iteration
        assert trace.total_queries == returned - (len(trace) + 1)


class TestValidation:
    """Every input check of the policies, the run config and the iteration loop
    fires, with its message."""

    @pytest.mark.parametrize("build,message", [
        (lambda: StepPolicy("newton"), "unknown step policy 'newton'"),
        (lambda: StepPolicy("fixed", eta0=0.0), "eta0 must be positive"),
        (lambda: StepPolicy("backtracking", eta0=math.inf), "eta0 must be finite, got inf"),
        (lambda: StepPolicy("fixed", eta0=math.nan), "eta0 must be finite, got nan"),
        (lambda: StepPolicy("backtracking", shrink=1.0), "shrink must lie in (0, 1)"),
        (lambda: StepPolicy("backtracking", max_tries=0), "max_tries must be >= 1"),
        (lambda: AlphaPolicy("adaptive"), "unknown alpha policy 'adaptive'"),
        (lambda: AlphaPolicy("fixed", alpha0=-1e-3), "alpha0 must be positive"),
        (lambda: AlphaPolicy("fixed", alpha0=math.inf), "alpha0 must be finite, got inf"),
        (lambda: AlphaPolicy("geometric", alpha0=math.nan),
         "alpha0 must be finite, got nan"),
        (lambda: AlphaPolicy("geometric", gamma=1.0), "gamma must lie in (0, 1)"),
        (lambda: AlphaPolicy(c=0.0), "c must lie in (0, 1]"),
        (lambda: RunConfig(n=8, iterations=-1), "iterations must be nonnegative"),
        (lambda: RunConfig(n=8, iterations=5, delta=1.0), "delta must lie in (0, 1)"),
        (lambda: RunConfig(n=8, iterations=5, scheme="foo"),
         "unknown weight scheme 'foo'; choose from ['blom', 'log', 'uniform']"),
        (lambda: RunConfig(n=8, iterations=5, eps_target=1.5),
         "eps_target must lie in (0, 1), got 1.5"),
        (lambda: RunConfig(n=8, iterations=5, eps_target=0.0),
         "eps_target must lie in (0, 1), got 0.0"),
        (lambda: RunConfig(n=8, iterations=5, eps_target=-1.0),
         "eps_target must lie in (0, 1), got -1.0"),
    ], ids=["step_kind", "eta0", "eta0_inf", "eta0_nan", "shrink", "max_tries",
            "alpha_kind", "alpha0", "alpha0_inf", "alpha0_nan",
            "gamma", "c", "iterations", "delta", "scheme", "eps_above_1",
            "eps_zero", "eps_negative"])
    def test_config_rejected(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message

    @pytest.mark.parametrize("obj,cfg,message", [
        (Objective(dim=4, fn=lambda x: float(x @ x)),
         RunConfig(n=8, iterations=3, step=StepPolicy("fixed", eta0=0.1)),
         "instrumented alpha needs an objective with grad and L"),
        (Objective(dim=4, fn=lambda x: float(x @ x)),
         RunConfig(n=8, iterations=3, alpha=AlphaPolicy("fixed", alpha0=1e-3)),
         "instrumented step needs an objective with grad and L"),
        (make_quadratic(6, 1.0, 10.0, seed=3),
         RunConfig(n=8, iterations=3, x0=np.zeros(5)), "x0 must have shape (6,)"),
    ], ids=["instrumented_alpha_without_grad", "instrumented_step_without_grad",
            "x0_shape"])
    def test_run_rejected(self, obj, cfg, message):
        with pytest.raises(ValueError) as exc:
            run(obj, cfg)
        assert str(exc.value) == message


class TestWriteCsv:
    def test_cell_formats(self, tmp_path):
        path = tmp_path / "out.csv"
        optimizer.write_csv(path, ("a", "b", "c", "d", "e"),
                            [(1, 0.1, True, None, "x"),
                             (np.int64(2), np.float64(1e-300), False, 7, float("nan"))])
        assert path.read_bytes() == (b"a,b,c,d,e\n1,0.1,true,not_reached,x\n"
                                     b"2,1e-300,false,7,nan\n")
