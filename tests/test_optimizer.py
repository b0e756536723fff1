"""Descent direction, step-size rules, the driver loop, and traces."""

from dataclasses import replace

import numpy as np
import pytest

from rankzo import optimizer
from rankzo.objective import (MonotoneTransform, Objective, make_quadratic,
                              wrap_monotone)
from rankzo.optimizer import (AlphaPolicy, OptimizationError, RunConfig,
                              StepPolicy, StepRegimeError, baseline_value_zo,
                              descent_direction, instrumented_step_size,
                              practical_step, run)
from rankzo.sampling import (QueryLedger, new_generator, rank_oracle,
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
    perm, fvals = rank_oracle(obj, x, alpha, u, QueryLedger())
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
        # f = x^2/2 at x=1 along d=-1: eta=10 overshoots (f=40.5),
        # eta=1 lands at the optimum; each comparison charges 2
        obj = Objective(dim=1, fn=lambda x: 0.5 * float(x[0] ** 2))
        ledger = QueryLedger()
        policy = StepPolicy("backtracking", eta0=10.0, shrink=0.1, max_tries=3)
        x_new, eta, extra = practical_step(obj, np.array([1.0]),
                                           np.array([-1.0]), policy, ledger,
                                           10.0)
        assert x_new == pytest.approx(np.array([0.0]))
        assert eta == pytest.approx(1.0)
        assert extra == 4
        assert ledger.total_queries == 4

    def test_backtracking_warm_start_hand_simulation(self):
        # same search started at eta_first=0.5: x + 0.5*d = 0.5 improves
        # on the first comparison, so eta0=10 is never tried (a cold start
        # rejects 10 and accepts 1 at 4 queries)
        obj = Objective(dim=1, fn=lambda x: 0.5 * float(x[0] ** 2))
        ledger = QueryLedger()
        policy = StepPolicy("backtracking", eta0=10.0, shrink=0.1, max_tries=3)
        x_new, eta, extra = practical_step(obj, np.array([1.0]),
                                           np.array([-1.0]), policy, ledger,
                                           0.5)
        assert x_new == pytest.approx(np.array([0.5]))
        assert eta == 0.5
        assert extra == 2
        assert ledger.total_queries == 2

    def test_fixed_policy_no_extra_queries(self):
        obj = Objective(dim=1, fn=lambda x: float(x[0]))
        ledger = QueryLedger()
        x_new, eta, extra = practical_step(obj, np.array([2.0]),
                                           np.array([1.5]),
                                           StepPolicy("fixed", eta0=0.5), ledger,
                                           0.5)
        assert extra == 0 and ledger.total_queries == 0
        assert x_new == pytest.approx(np.array([2.75]))
        assert eta == 0.5

    def test_rejected_move_keeps_x(self):
        # ascent direction: no eta improves, so the move is rejected
        obj = Objective(dim=1, fn=lambda x: 0.5 * float(x[0] ** 2))
        ledger = QueryLedger()
        policy = StepPolicy("backtracking", eta0=1.0, shrink=0.5, max_tries=4)
        x_new, eta, extra = practical_step(obj, np.array([1.0]),
                                           np.array([1.0]), policy, ledger,
                                           1.0)
        assert x_new == pytest.approx(np.array([1.0]))
        assert eta == 0.0
        assert extra == 8

    def test_instrumented_policy_rejected(self):
        obj = Objective(dim=1, fn=lambda x: float(x[0]))
        with pytest.raises(ValueError):
            practical_step(obj, np.zeros(1), np.ones(1),
                           StepPolicy(), QueryLedger(), 1.0)


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
        assert len(err.value.trace) == 0

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
        # are the row's queries beyond its N oracle probes, over 2; a cold
        # start at eta0 averages about 4.4
        obj = make_quadratic(16, 1.0, 10.0, seed=7)
        tries = []
        for seed in range(100, 110):
            cfg = RunConfig(n=16, iterations=6000, seed=seed, delta=0.1,
                            step=StepPolicy("backtracking", eta0=1.0,
                                            shrink=0.5, max_tries=60),
                            alpha=AlphaPolicy("fixed", alpha0=1e-3), eps_target=1e-4)
            trace = run(obj, cfg)
            per_row = np.diff(trace.queries_cum, prepend=0) - cfg.n
            tries.extend(per_row / 2)
        assert np.mean(tries) <= 3.0


def counting_objective(obj):
    """``obj`` with ``fn`` calls and ``batch_fn`` rows counted."""
    counts = {"evals": 0}
    fn, batch_fn = obj.fn, obj.batch_fn

    def counted_fn(x):
        counts["evals"] += 1
        return fn(x)

    def counted_batch(points):
        counts["evals"] += len(points)
        return batch_fn(points)

    return replace(obj, fn=counted_fn, batch_fn=counted_batch), counts


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
        """The two-point estimator charges 2 queries but evaluates only
        f(x_t + alpha u): its f(x_t) is the trace row's own evaluation,
        so only the final f and an early-stop check stay uncharged."""
        obj, counts = counting_objective(make_quadratic(8, 1.0, 10.0, seed=7))
        cfg = RunConfig(n=16, iterations=400, seed=3,
                        alpha=AlphaPolicy("fixed", alpha0=1e-3), eps_target=eps_target)
        trace = baseline_value_zo(obj, cfg)
        stopped_early = len(trace) < cfg.iterations
        assert stopped_early == (eps_target is not None)
        assert trace.total_queries == 2 * len(trace)
        assert counts["evals"] - trace.total_queries == 1 + stopped_early


class TestValidation:
    """Every input check of the policies, the run config and the iteration loop
    fires, with its message."""

    @pytest.mark.parametrize("build,message", [
        (lambda: StepPolicy("newton"), "unknown step policy 'newton'"),
        (lambda: StepPolicy("fixed", eta0=0.0), "eta0 must be positive"),
        (lambda: StepPolicy("backtracking", shrink=1.0), "shrink must lie in (0, 1)"),
        (lambda: StepPolicy("backtracking", max_tries=0), "max_tries must be >= 1"),
        (lambda: AlphaPolicy("adaptive"), "unknown alpha policy 'adaptive'"),
        (lambda: AlphaPolicy("fixed", alpha0=-1e-3), "alpha0 must be positive"),
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
    ], ids=["step_kind", "eta0", "shrink", "max_tries", "alpha_kind", "alpha0",
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
        (make_quadratic(6, 1.0, 10.0, seed=3),
         RunConfig(n=8, iterations=3, x0=np.zeros(5)), "x0 must have shape (6,)"),
    ], ids=["instrumented_alpha_without_grad", "x0_shape"])
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
