"""Constants, complexity predictions, and the Monte-Carlo checkers.

Reference values are frozen from direct high-precision evaluation of the
closed forms (independent of the implementation path under test).
"""

import dataclasses
import functools
import math
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from rankzo import optimizer, sampling, theory
from rankzo.objective import Objective, make_quadratic
from rankzo.optimizer import RunConfig, run
from rankzo.sampling import DrawAhead, NonFiniteValueError, draw_blocks, new_generator
from rankzo.theory import (EVENT_IDS, P_TAIL_EXACT, EventSetup, c_N_d_delta,
                           c_d_delta, check_appendix_bounds, check_event,
                           check_events, event_bound_E45,
                           event_precondition_errors, floors,
                           instrumented_alpha, kl_bernoulli, predict_complexity,
                           rho)


class TestConstants:
    def test_c_d_delta_frozen(self):
        assert c_d_delta(100, 0.01) == pytest.approx(109.21034037197619, rel=1e-14)
        assert c_d_delta(10, 0.1) == pytest.approx(14.605170185988092, rel=1e-14)

    def test_c_d_delta_boundaries(self):
        for bad in (1.0, 0.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                c_d_delta(10, bad)

    def test_c_N_d_delta_frozen(self):
        assert c_N_d_delta(32, 100, 0.1) == pytest.approx(270.53, abs=0.01)
        assert c_N_d_delta(8, 4, 0.5) == pytest.approx(32.09, abs=0.01)
        assert c_N_d_delta(32, 100, 0.1) == pytest.approx(
            270.52837580617086, rel=1e-14)

    def test_c_d_monotone(self):
        assert c_d_delta(20, 0.1) > c_d_delta(10, 0.1)
        assert c_d_delta(10, 0.01) > c_d_delta(10, 0.1)

    def test_c_N_monotone(self):
        base = c_N_d_delta(32, 100, 0.1)
        assert c_N_d_delta(64, 100, 0.1) > base
        assert c_N_d_delta(32, 200, 0.1) > base
        assert c_N_d_delta(32, 100, 0.01) > base

    def test_positive_only_constant_smaller(self):
        assert (c_N_d_delta(16, 32, 0.1, positive_only=True)
                < c_N_d_delta(16, 32, 0.1))

    def test_exact_gaussian_tail(self):
        assert P_TAIL_EXACT == pytest.approx(0.02275013194817921, rel=1e-12)
        # the rounded display value 0.0224 is within 2% of the exact tail
        assert abs(P_TAIL_EXACT - 0.0224) / P_TAIL_EXACT < 0.02


    @pytest.mark.parametrize("build,message", [
        (lambda: c_d_delta(0, 0.1), "d must be >= 1, got 0"),
        (lambda: c_N_d_delta(8, 0, 0.1), "d must be >= 1, got 0"),
        (lambda: c_N_d_delta(8, 0, 0.1, positive_only=True), "d must be >= 1, got 0"),
        (lambda: instrumented_alpha(1.0, 10.0, 5.0, c=0.0),
         "c must lie in (0, 1], got 0.0"),
        (lambda: instrumented_alpha(1.0, 10.0, 5.0, c=1.5),
         "c must lie in (0, 1], got 1.5"),
    ], ids=["c_d_dim", "c_N_dim", "c_N_dim_positive_only", "alpha_c_zero",
            "alpha_c_above_1"])
    def test_invalid_inputs_rejected(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


class TestKlBernoulli:
    def test_identity_is_zero(self):
        assert kl_bernoulli(0.3, 0.3) == 0.0

    def test_quarter_vs_rounded_tail(self):
        assert kl_bernoulli(0.25, 0.0224) == pytest.approx(0.4043, abs=1e-4)
        assert kl_bernoulli(0.25, 0.0224) == pytest.approx(
            0.40432945333508197, rel=1e-13)

    def test_quarter_vs_exact_tail(self):
        # frozen from direct evaluation with the exact Gaussian tail
        assert kl_bernoulli(0.25, P_TAIL_EXACT) == pytest.approx(
            0.40072062079842224, rel=1e-13)

    def test_asymmetry(self):
        assert kl_bernoulli(0.25, 0.1) != kl_bernoulli(0.1, 0.25)
        assert kl_bernoulli(0.25, 0.1) == pytest.approx(0.09233151537307274)
        assert kl_bernoulli(0.1, 0.25) == pytest.approx(0.07246032792714363)

    @pytest.mark.parametrize("q,p", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
    def test_boundary_rejected(self, q, p):
        with pytest.raises(ValueError):
            kl_bernoulli(q, p)


class TestEventBound:
    def test_n16(self):
        assert event_bound_E45(16) == pytest.approx(1.65e-3, rel=0.05)
        assert event_bound_E45(16) == pytest.approx(0.0016425096494378556, rel=1e-12)

    def test_n64(self):
        assert event_bound_E45(64) == pytest.approx(7.3e-12, rel=0.05)

    def test_strictly_decreasing(self):
        vals = [event_bound_E45(n) for n in (8, 16, 32, 64, 128)]
        assert np.all(np.diff(vals) < 0)


class TestRho:
    def test_frozen_value(self):
        got = rho(32, 100, 0.01, mu=0.1, L=1.0, weight_ratio=1.0)
        assert got == pytest.approx(1.604e-4, rel=0.01)
        assert got == pytest.approx(0.00016044275827780598, rel=1e-12)

    def test_linear_in_ratio(self):
        full = rho(32, 100, 0.01, 0.1, 1.0, weight_ratio=1.0)
        half = rho(32, 100, 0.01, 0.1, 1.0, weight_ratio=0.5)
        assert half == pytest.approx(full / 2, rel=1e-12)

    def test_linear_in_mu_over_L(self):
        small = rho(32, 100, 0.01, 0.1, 1.0)
        big = rho(32, 100, 0.01, 1.0, 1.0)
        assert big == pytest.approx(10 * small, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            rho(32, 100, 0.01, mu=2.0, L=1.0)
        with pytest.raises(ValueError):
            rho(32, 100, 0.01, 0.1, 1.0, weight_ratio=1.5)


class TestFloors:
    def test_frozen_strongly_convex_floor(self):
        floor_sc, _ = floors(32, 100, 0.01, L=1.0, alpha=1e-4)
        assert floor_sc == pytest.approx(2.68e-5, rel=0.02)
        assert floor_sc == pytest.approx(2.683321016620991e-05, rel=1e-12)

    def test_frozen_nonconvex_floor(self):
        _, floor_nc = floors(32, 100, 0.01, L=1.0, alpha=1e-4)
        assert floor_nc == pytest.approx(0.033448951456878255, rel=1e-12)

    def test_quadratic_in_alpha(self):
        f1 = floors(32, 100, 0.01, 1.0, 2e-4)
        f2 = floors(32, 100, 0.01, 1.0, 1e-4)
        assert f1[0] == pytest.approx(4 * f2[0], rel=1e-12)
        assert f1[1] == pytest.approx(4 * f2[1], rel=1e-12)

    def test_ratio_factor(self):
        fu = floors(32, 100, 0.01, 1.0, 1e-4, weight_ratio=1.0)
        fh = floors(32, 100, 0.01, 1.0, 1e-4, weight_ratio=0.5)
        assert fh[0] == pytest.approx(2 * fu[0], rel=1e-12)
        assert fh[1] == pytest.approx(4 * fu[1], rel=1e-12)


class TestPredictComplexity:
    @pytest.mark.parametrize("args,kw,expected", [
        ((32, 10.0, 1e-6, 0.1), {"mu": 1.0},
         (4421, 16, 70736, 1.4137073060393577e-06)),
        ((32, 10.0, 1e-3, 0.1), {},
         (320000, 20, 6400000, 1.5625e-08)),
        # T = 1: both clamps (max(T, 2) and the inner max(., 2)) bind, N = 4
        ((1, 1.0, 0.5, 0.5), {"mu": 1.0},
         (1, 4, 4, 0.125)),
    ], ids=["sc", "nc", "tiny_t"])
    def test_frozen_values(self, args, kw, expected):
        pred = predict_complexity(*args, **kw)
        assert (pred.t, pred.n, pred.q, pred.delta) == expected

    def test_doubling_d_doubles_t(self):
        small = predict_complexity(32, 10.0, 1e-6, 0.1, mu=1.0)
        big = predict_complexity(64, 10.0, 1e-6, 0.1, mu=1.0)
        assert big.t / small.t == pytest.approx(2.0, rel=1e-3)

    def test_halving_eps_doubles_nonconvex_t(self):
        coarse = predict_complexity(32, 10.0, 1e-3, 0.1)
        fine = predict_complexity(32, 10.0, 5e-4, 0.1)
        assert fine.t / coarse.t == pytest.approx(2.0, rel=1e-3)

    def test_self_consistency(self):
        pred = predict_complexity(32, 10.0, 1e-6, 0.1, mu=1.0)
        assert pred.q == pred.t * pred.n
        assert pred.t > 0 and pred.n >= 4 and pred.n % 4 == 0
        assert 0 < pred.delta < 1

    def test_invalid_inputs(self):
        for mu in (0.0, -1.0, 20.0):
            with pytest.raises(ValueError, match=r"mu must lie in \(0, L\]"):
                predict_complexity(32, 10.0, 1e-6, 0.1, mu=mu)
        with pytest.raises(ValueError):
            predict_complexity(32, 10.0, 2.0, 0.1)


    @pytest.mark.parametrize("kwargs,message", [
        ({"alpha": -1e-4}, "alpha must be nonnegative, got -0.0001"),
        ({"alpha": 1e-4, "weight_ratio": 0.0},
         "weight_ratio must be in (0, 1], got 0.0"),
        ({"alpha": 1e-4, "weight_ratio": 1.5},
         "weight_ratio must be in (0, 1], got 1.5"),
    ], ids=["alpha", "ratio_zero", "ratio_above_1"])
    def test_invalid_inputs_rejected(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            floors(32, 100, 0.01, L=1.0, **kwargs)
        assert str(exc.value) == message


def linear_objective(d, grad_vec):
    g = np.asarray(grad_vec, dtype=float)
    return Objective(dim=d, fn=lambda x: float(g @ x),
                     grad=lambda x: g, L=1.0,
                     batch_fn=lambda pts: pts @ g, name="linear")


def quadratic_setup(n=16, d=20, delta=0.1, alpha_scale=1.0, seed=3):
    obj = make_quadratic(d, 1.0, 10.0, seed=seed)
    x = obj.x_star + new_generator(seed + 909).standard_normal(d)
    gn = float(np.linalg.norm(obj.grad(x)))
    alpha = alpha_scale * gn / (4.0 * obj.L * c_d_delta(d, delta))
    return EventSetup(obj=obj, x=x, alpha=alpha, n=n, delta=delta)


class TestCheckEvent:
    def test_preconditions(self):
        setup = quadratic_setup()
        with pytest.raises(ValueError):
            check_event("E9", setup, 2000, new_generator(0))
        with pytest.raises(ValueError):
            check_event("E1", setup, 999, new_generator(0))

    def test_alpha_regime_enforced(self):
        setup = quadratic_setup(alpha_scale=10.0)
        for event in ("E1", "E4", "E5"):
            with pytest.raises(ValueError):
                check_event(event, setup, 2000, new_generator(0))

    def test_zero_gradient_rejected(self):
        obj = make_quadratic(6, 1.0, 10.0, seed=1)
        setup = EventSetup(obj=obj, x=obj.x_star, alpha=1e-3, n=8, delta=0.1)
        with pytest.raises(ValueError):
            check_event("E4", setup, 2000, new_generator(0))

    @pytest.mark.parametrize("event", ["E1", "E2", "E3", "E4", "E5"])
    def test_small_suite_passes(self, event):
        setup = quadratic_setup()
        report = check_event(event, setup, 2000, new_generator(11))
        assert report.passed, (event, report)

    def test_e3_bound_is_loose(self):
        # with delta = 0.5 the max-of-gaussians bound covers all n samples,
        # so the observed failure rate sits far below it
        setup = quadratic_setup(n=16, delta=0.5)
        report = check_event("E3", setup, 4000, new_generator(5))
        assert report.passed
        assert report.empirical_failure_rate < 0.25

    def test_e4_linear_objective_zero_failures(self):
        # remainder-free regime: the quartile boundary crossing should
        # essentially never fire, matching the ~7.3e-12 bound at n=64
        rng = new_generator(21)
        g = rng.standard_normal(16)
        obj = linear_objective(16, g)
        x = np.zeros(16)
        alpha = float(np.linalg.norm(g)) / (4.0 * obj.L * c_d_delta(16, 0.1))
        setup = EventSetup(obj=obj, x=x, alpha=alpha, n=64, delta=0.1)
        for event in ("E4", "E5"):
            report = check_event(event, setup, 2000, new_generator(22))
            assert report.failures == 0
            assert report.passed
            assert report.theoretical_bound == pytest.approx(7.3e-12, rel=0.05)

    def test_deterministic_given_rng(self):
        setup = quadratic_setup()
        r1 = check_event("E2", setup, 1500, new_generator(9))
        r2 = check_event("E2", setup, 1500, new_generator(9))
        assert r1.empirical_failure_rate == r2.empirical_failure_rate


def recorded_l_setup(n, delta, recorded_l, d=20, seed=3):
    """A state on the L=10 quadratic whose objective records ``recorded_l``,
    with alpha at the regime bound that the recorded value implies."""
    obj = dataclasses.replace(make_quadratic(d, 1.0, 10.0, seed=seed), L=recorded_l)
    x = obj.x_star + new_generator(seed + 909).standard_normal(d)
    gn = float(np.linalg.norm(obj.grad(x)))
    alpha = gn / (4.0 * obj.L * c_d_delta(d, delta))
    return EventSetup(obj=obj, x=x, alpha=alpha, n=n, delta=delta)


# failure counts of E1..E5 frozen from the per-event checker that ran one
# experiment per event, each event on its own new_generator(seed) stream;
# recorded L = 0.1 on the L = 10 quadratic is the negative control below
FROZEN_FAILURES = [
    # (n, delta, recorded L, trials, seed), failures of E1..E5
    ((16, 0.1, 10.0, 1000, 11), (0, 0, 11, 0, 0)),
    ((32, 0.5, 10.0, 1500, 5), (0, 1, 73, 0, 0)),
    ((8, 0.9, 10.0, 1100, 29), (0, 3, 128, 0, 3)),
    ((16, 0.1, 0.1, 1000, 13), (1000, 0, 9, 2, 7)),
    ((32, 0.1, 0.1, 2000, 13), (2000, 0, 15, 2, 17)),
]


class TestCheckEvents:
    @pytest.mark.parametrize("key,expected", FROZEN_FAILURES,
                             ids=[str(k) for k, _ in FROZEN_FAILURES])
    def test_matches_one_experiment_per_event(self, key, expected):
        n, delta, recorded_l, trials, seed = key
        setup = recorded_l_setup(n, delta, recorded_l)
        reports = check_events(EVENT_IDS, setup, trials, new_generator(seed))
        assert [r.event_id for r in reports] == list(EVENT_IDS)
        assert tuple(r.failures for r in reports) == expected
        gn = float(np.linalg.norm(setup.obj.grad(setup.x)))
        for r, failures in zip(reports, expected):
            assert r.trials == trials
            assert r.empirical_failure_rate == failures / trials
            # the 3-sigma rule: within the bound plus 3 sigma of a
            # Bernoulli(min(bound, 1)) mean over the trials
            b = min(r.theoretical_bound, 1.0)
            assert r.passed == (failures / trials <= r.theoretical_bound
                                + 3.0 * math.sqrt(b * (1.0 - b) / trials))
            if r.event_id == "E2":  # E2 does not use the gradient
                assert "grad_norm" not in r.params
            else:
                assert r.params.pop("grad_norm") == gn
            assert r.params == {"n": n, "d": 20, "delta": delta, "alpha": setup.alpha}

    def test_each_event_same_alone_or_in_company(self):
        setup = quadratic_setup(n=8, delta=0.9)
        together = check_events(("E5", "E2", "E3"), setup, 1100, new_generator(29))
        assert [r.event_id for r in together] == ["E5", "E2", "E3"]
        for r in together:
            alone = check_event(r.event_id, setup, 1100, new_generator(29))
            assert alone.params_string() == r.params_string()
            assert (alone.failures, alone.passed, alone.theoretical_bound) == \
                (r.failures, r.passed, r.theoretical_bound)

    def test_repeated_id_repeats_report(self):
        setup = quadratic_setup()
        a, b = check_events(("E3", "E3"), setup, 1000, new_generator(1))
        assert a.failures == b.failures and a.params_string() == b.params_string()

    def test_preconditions_isolated_per_event(self):
        setup = quadratic_setup(alpha_scale=10.0)
        errors = event_precondition_errors(EVENT_IDS, setup)
        assert sorted(errors) == ["E1", "E4", "E5"]
        assert all("regime" in msg for msg in errors.values())
        with pytest.raises(ValueError, match="regime"):
            check_events(("E2", "E4"), setup, 1000, new_generator(0))
        assert check_events(("E2", "E3"), setup, 1000, new_generator(0))[1].trials == 1000

    def test_rejects_no_ids_and_unknown_ids(self):
        setup = quadratic_setup()
        with pytest.raises(ValueError):
            check_events((), setup, 1000, new_generator(0))
        with pytest.raises(ValueError, match="E9"):
            event_precondition_errors(("E1", "E9"), setup)


    @pytest.mark.parametrize("event,obj,at_optimum,message", [
        ("E3", Objective(dim=4, fn=lambda x: float(x @ x)), False,
         "E3 needs an objective with a gradient"),
        ("E3", make_quadratic(4, 1.0, 10.0, seed=1), True,
         "E3 needs a state with nonzero gradient"),
        ("E1", Objective(dim=4, fn=lambda x: float(x @ x)), False,
         "event check needs an objective with grad and L"),
        ("E4", Objective(dim=4, fn=lambda x: float(x @ x), grad=lambda x: 2 * x),
         False, "event check needs an objective with grad and L"),
    ], ids=["E3_no_grad", "E3_zero_grad", "E1_no_grad", "E4_no_L"])
    def test_precondition_rejected(self, event, obj, at_optimum, message):
        x = obj.x_star if at_optimum else np.ones(4)
        setup = EventSetup(obj=obj, x=x, alpha=1e-3, n=8, delta=0.1)
        assert event_precondition_errors((event,), setup) == {event: message}
        with pytest.raises(ValueError) as exc:
            check_events((event,), setup, 1000, new_generator(0))
        assert str(exc.value) == message

    def test_nonpositive_alpha_rejected(self):
        setup = dataclasses.replace(quadratic_setup(), alpha=0.0)
        with pytest.raises(ValueError) as exc:
            check_events(("E2",), setup, 1000, new_generator(0))
        assert str(exc.value) == "alpha must be positive, got 0.0"


class TestNegativeControls:
    """Each event check fails once its inequality is deliberately broken."""

    def test_e1_fails_with_understated_l(self):
        # true L = 10, recorded L = 0.1: the remainder bound C_d L alpha^2
        # is 100x too small for the radius the recorded L allows
        setup = recorded_l_setup(16, 0.1, 0.1)
        (r,) = check_events(("E1",), setup, 1000, new_generator(13))
        assert r.theoretical_bound == pytest.approx(0.8)
        assert r.empirical_failure_rate == 1.0 and not r.passed

    def test_e4_e5_fail_with_understated_l(self):
        # at n = 32 the quartile bound is 2.7e-6, so a few crossings fail it
        setup = recorded_l_setup(32, 0.1, 0.1)
        for r in check_events(("E4", "E5"), setup, 4000, new_generator(13)):
            assert r.theoretical_bound == pytest.approx(2.697837948496467e-06)
            assert r.failures > 0 and not r.passed, r

    def test_e2_fails_with_shrunk_spectral_constant(self, monkeypatch):
        monkeypatch.setattr(theory, "c_N_d_delta", lambda n, d, delta: 1.0)
        (r,) = check_events(("E2",), quadratic_setup(), 1000, new_generator(3))
        assert r.empirical_failure_rate == 1.0 and not r.passed

    def test_e2_screen_hides_no_failure(self, monkeypatch):
        # at a spectral constant that ~1% of trials exceed, the screened
        # count equals eigvalsh's on every trial of the same stream
        setup = quadratic_setup(n=32, d=100)
        screened_lmax, tops = theory._lmax, []

        def eigvalsh_lmax(gram, level):
            tops.append(np.linalg.eigvalsh(gram)[:, -1])
            return tops[-1]

        monkeypatch.setattr(theory, "_lmax", eigvalsh_lmax)
        check_events(("E2",), setup, 2000, new_generator(31))
        smax2 = np.concatenate(tops)
        level = float(np.quantile(smax2, 0.99))
        direct = int(np.sum(smax2 > level))
        assert 10 <= direct <= 30
        monkeypatch.setattr(theory, "c_N_d_delta", lambda n, d, delta: level)
        (r,) = check_events(("E2",), setup, 2000, new_generator(31))
        assert r.failures == direct
        monkeypatch.setattr(theory, "_lmax", screened_lmax)
        (r,) = check_events(("E2",), setup, 2000, new_generator(31))
        assert r.failures == direct

    def test_spectral_fails_below_every_norm(self):
        # tau = -6: thr = sqrt(8) + 10 - 6 = 6.8, below the smallest s_max
        # of a 100 x 8 Gaussian matrix (~ 10 - sqrt(8) = 7.2 and up)
        r = check_appendix_bounds("spectral", {"tau": -6.0}, 1000, new_generator(3))
        assert r.empirical_failure_rate == 1.0 and not r.passed

    @staticmethod
    def passes_then_fails(monkeypatch, name, factor, check):
        """``check()`` passes, then fails once ``theory.<name>`` returns
        ``factor`` times its value; both runs draw the same stream."""
        assert check().passed
        helper = getattr(theory, name)
        monkeypatch.setattr(theory, name, lambda *a: factor * helper(*a))
        report = check()
        assert report.passed is False, report
        return report

    def test_e3_fails_with_halved_gaussian_max(self, monkeypatch):
        self.passes_then_fails(monkeypatch, "_gauss_max", 0.5, lambda: check_events(
            ("E3",), quadratic_setup(), 2000, new_generator(5))[0])

    def test_gauss_max_fails_with_halved_threshold(self, monkeypatch):
        self.passes_then_fails(monkeypatch, "_gauss_max", 0.5, lambda: check_appendix_bounds(
            "gauss_max", None, 2000, new_generator(5)))

    @pytest.mark.parametrize("which,params", [
        ("chernoff", {"n": 64, "p": 0.2, "r": 0.25}),
        ("order_low1", {"n": 8}),
        ("order_low2", {"n": 8}),
    ])
    def test_chernoff_bounds_fail_with_inflated_divergence(self, monkeypatch,
                                                          which, params):
        # 50x the divergence shrinks exp(-n D) far below the failure rate
        r = self.passes_then_fails(monkeypatch, "kl_bernoulli", 50.0, lambda: (
            check_appendix_bounds(which, params, 2000, new_generator(5))))
        assert r.theoretical_bound < 1e-10 < r.empirical_failure_rate


def gram_stack(k, seed):
    """40 Gram matrices A A^T of k x (k + 3) Gaussian A, then a rank-1
    one, on which the bound is tight, and the zero matrix."""
    rng = new_generator(seed)
    a = rng.standard_normal((42, k, k + 3))
    a[40] = np.outer(rng.standard_normal(k), rng.standard_normal(k + 3))
    a[41] = 0.0
    return a @ np.swapaxes(a, 1, 2)


class TestSpectralScreen:
    """``_lmax`` gives every verdict that ``eigvalsh`` gives."""

    @pytest.mark.parametrize("k", [2, 8, 16])
    def test_verdicts_match_eigvalsh_at_the_threshold(self, k):
        gram = gram_stack(k, seed=k)
        top = np.linalg.eigvalsh(gram)[:, -1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in top:
                # down to one ulp either side of eigvalsh's own value
                for level in (lam * (1 - 1e-6), lam * (1 - 1e-12),
                              np.nextafter(lam, -np.inf), np.nextafter(lam, np.inf),
                              lam * (1 + 1e-12), lam * (1 + 1e-6)):
                    values = theory._lmax(gram, level)
                    np.testing.assert_array_equal(values > level, top > level)
                    if level >= 0:  # spectral compares sqrt(value) with thr
                        thr = math.sqrt(level)
                        np.testing.assert_array_equal(np.sqrt(values) > thr,
                                                      np.sqrt(top) > thr)

    @pytest.mark.parametrize("level,screened", [(1e9, 42), (0.0, 1), (-1.0, 0)],
                             ids=["all_screened", "zero_screened", "none_screened"])
    def test_eigvalsh_stack(self, monkeypatch, level, screened):
        # every trial decided by the bound leaves eigvalsh an empty stack;
        # at level 0 only the zero matrix, whose bound is 0, is decided,
        # and below 0 none is
        gram = gram_stack(8, seed=5)
        top = np.linalg.eigvalsh(gram)[:, -1]
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(stack):
            sizes.append(len(stack))
            return eigvalsh(stack)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = theory._lmax(gram, level)
        assert sizes == [42 - screened]
        np.testing.assert_array_equal(values > level, top > level)
        if screened == 42:
            assert np.all(values < level)
        else:
            np.testing.assert_array_equal(values, top)


def _event_rows(reports):
    # the fields a reports.csv row prints
    return [(r.event_id, r.trials, r.failures, r.passed, r.theoretical_bound,
             r.params_string()) for r in reports]


# per check: parameters at which it sees failures, and the values one trial
# counts against a block (spectral: the 4 k^2 values it holds, k = n/2 = 8)
APPENDIX_DRAWS = {
    "chernoff": ({"n": 32, "p": 0.1, "r": 0.25}, 1),
    "gauss_max": (None, 32),
    "chi2": ({"d": 1, "delta": 0.9}, 1),
    "spectral": ({"tau": 0.0}, 4 * 8 * 8),
    "order_low1": ({"n": 8}, 8),
    "order_low2": ({"n": 8}, 8),
}


class TestDrawBudget:
    """Splitting the trials into smaller draws changes no report: the
    stream yields the same values in one draw or in many."""

    @pytest.mark.parametrize("key,expected", FROZEN_FAILURES,
                             ids=[str(k) for k, _ in FROZEN_FAILURES])
    @pytest.mark.parametrize("trials_per_draw", [37, 1])
    def test_events(self, monkeypatch, key, expected, trials_per_draw):
        n, delta, recorded_l, trials, seed = key
        setup = recorded_l_setup(n, delta, recorded_l)
        default_rng = new_generator(seed)
        default = check_events(EVENT_IDS, setup, trials, default_rng)
        monkeypatch.setattr(sampling, "_BLOCK_VALUES", trials_per_draw * n * 20)
        rng = new_generator(seed)
        chunked = check_events(EVENT_IDS, setup, trials, rng)
        assert _event_rows(chunked) == _event_rows(default)
        assert tuple(r.failures for r in chunked) == expected
        # and the stream is left where one draw leaves it
        assert rng.random() == default_rng.random()

    @pytest.mark.parametrize("values,samples,expected", [
        (100, 100, [8, 16, 32, 44]),        # doubling, the last block short
        (1_000, 200, [8, 16, 32, 50, 50, 44]),  # up to a block's values
        (10_000, 12, [5, 5, 2]),            # a block's values cap the first
        (100, 3, [3]),
        (100, 0, []),
        (10**6, 2, [1, 1]),                 # at least one sample a block
    ])
    def test_draw_blocks(self, values, samples, expected):
        assert draw_blocks(values, samples) == expected

    # 1000 trials in chunks of 7 or 3 end on a chunk of 6 or 1
    @pytest.mark.parametrize("trials_per_draw", [7, 3])
    def test_events_short_last_chunk(self, monkeypatch, trials_per_draw):
        key, expected = FROZEN_FAILURES[0]
        n, delta, recorded_l, trials, seed = key
        setup = recorded_l_setup(n, delta, recorded_l)
        monkeypatch.setattr(sampling, "_BLOCK_VALUES", trials_per_draw * n * 20)
        assert draw_blocks(n * 20, trials)[-1] == trials % trials_per_draw
        rng = new_generator(seed)
        reports = check_events(EVENT_IDS, setup, trials, rng)
        assert tuple(r.failures for r in reports) == expected
        # the stream is left where one draw of every trial's values leaves it
        one = new_generator(seed)
        one.standard_normal(trials * n * 20)
        assert rng.random() == one.random()

    @pytest.mark.parametrize("which", theory.APPENDIX_IDS)
    def test_appendix(self, monkeypatch, which):
        params, per_trial = APPENDIX_DRAWS[which]
        default_rng = new_generator(17)
        default = check_appendix_bounds(which, params, 1000, default_rng)
        assert default.failures > 0
        monkeypatch.setattr(sampling, "_BLOCK_VALUES", 37 * per_trial)
        rng = new_generator(17)
        assert check_appendix_bounds(which, params, 1000, rng) == default
        # and the stream is left where one draw leaves it
        assert rng.random() == default_rng.random()

    def test_one_layout_for_every_draw(self, monkeypatch):
        """``sampling.draw_blocks`` lays out a run's directions, the E1..E5
        pass and the appendix checks: its two constants change all three
        layouts, and no trace or report."""
        obj = make_quadratic(8, 1.0, 10.0, seed=7)
        cfg = RunConfig(n=8, iterations=200, seed=0)
        setup = quadratic_setup(n=16, d=20)
        need = {"run": (8 * 8, cfg.iterations * optimizer.MAX_REGIME_RETRIES),
                "pass": (16 * 20, 1000), "gauss_max": (32, 5000)}

        class Recording:
            """A generator that records the shape of each normal draw."""

            def __init__(self, seed):
                self.rng, self.shapes = new_generator(seed), []

            def standard_normal(self, size):
                self.shapes.append(size)
                return self.rng.standard_normal(size)

        def draws():
            made, rows = [], []

            def recording(rng, shape, sizes):
                made.append(list(sizes))
                return DrawAhead(rng, shape, sizes)

            def batch_fn(points):
                rows.append(len(points))
                return setup.obj.batch_fn(points)

            with monkeypatch.context() as patch:
                patch.setattr(optimizer, "DrawAhead", recording)
                trace = run(obj, cfg)
            reports = check_events(EVENT_IDS, dataclasses.replace(
                setup, obj=dataclasses.replace(setup.obj, batch_fn=batch_fn)),
                1000, new_generator(5))
            rng = Recording(17)
            report = check_appendix_bounds("gauss_max", None, 5000, rng)
            layouts = {"run": made[0], "pass": [r // 16 for r in rows],
                       "gauss_max": [shape[0] for shape in rng.shapes]}
            assert layouts == {k: draw_blocks(*v) for k, v in need.items()}
            return layouts, (trace.t, trace.f, trace.alpha, trace.eta,
                             trace.queries_cum, trace.final_f), reports, report

        default = draws()
        monkeypatch.setattr(sampling, "_FIRST_BLOCK", 3)
        monkeypatch.setattr(sampling, "_BLOCK_VALUES", 7 * 320)
        patched = draws()
        assert all(patched[0][k] != default[0][k] for k in need)
        assert patched[1:] == default[1:]


class TestDrawMemory:
    """No check holds much more than one draw's worth of values at once.
    Each generator is made before tracing starts, so a first import of
    ``numpy.random`` does not count towards the peak."""

    @pytest.mark.parametrize("which", theory.APPENDIX_IDS)
    def test_appendix_peak(self, which):
        rng = new_generator(1)
        tracemalloc.start()
        try:
            check_appendix_bounds(which, None, 100_000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * sampling._BLOCK_VALUES * 8, peak

    def test_event_pass_peak(self):
        # two draw buffers, one probe buffer, and the quadratic's z and
        # z @ a, each a block: about 5 blocks; blocks of twice the size
        # would hold about 10
        setup = quadratic_setup(n=32, d=100)
        rng = new_generator(1)
        tracemalloc.start()
        try:
            check_events(EVENT_IDS, setup, 1000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.0 * sampling._BLOCK_VALUES * 8, peak


def raising_on_call(obj, call=None, error=None):
    """``obj`` whose ``batch_fn`` records the live thread count on each
    call and raises ``error`` on its ``call``-th call."""
    seen = []

    def batch_fn(points):
        seen.append(threading.active_count())
        if len(seen) == call:
            raise error
        return obj.batch_fn(points)

    return dataclasses.replace(obj, batch_fn=batch_fn), seen


class TestDrawerThread:
    """The pass's drawer thread is gone once ``check_events`` returns or
    raises."""

    def test_joined_after_return(self):
        setup = quadratic_setup()
        obj, seen = raising_on_call(setup.obj)
        before = threading.active_count()
        check_events(EVENT_IDS, dataclasses.replace(setup, obj=obj), 1000,
                     new_generator(1))
        assert len(seen) == len(draw_blocks(16 * 20, 1000))
        assert max(seen) == before + 1
        assert threading.active_count() == before

    def test_joined_after_objective_raises(self):
        setup = quadratic_setup()
        error = RuntimeError("simulator down")
        obj, seen = raising_on_call(setup.obj, 3, error)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as exc:
            check_events(EVENT_IDS, dataclasses.replace(setup, obj=obj), 1000,
                         new_generator(1))
        assert exc.value is error
        assert len(seen) == 3
        assert threading.active_count() == before


class TestDrawBuffers:
    """The pass's draw and probe buffers are reused, never while a chunk
    still reads them: every chunk's probes are those of one draw, and the
    reports those of one chunk."""

    @pytest.mark.parametrize("chunk", [1, 37])
    def test_probes_match_one_draw(self, monkeypatch, chunk):
        n, d, trials = 8, 5, 1000
        setup = quadratic_setup(n=n, d=d)
        one_chunk = check_events(EVENT_IDS, setup, trials, new_generator(5))
        monkeypatch.setattr(sampling, "_BLOCK_VALUES", chunk * n * d)
        seen = []

        def batch_fn(points):
            seen.append(points.copy())   # the buffer is overwritten later
            return setup.obj.batch_fn(points)

        reports = check_events(EVENT_IDS, dataclasses.replace(
            setup, obj=dataclasses.replace(setup.obj, batch_fn=batch_fn)),
            trials, new_generator(5))
        assert [r.failures for r in reports] == [r.failures for r in one_chunk]
        u = new_generator(5).standard_normal((trials, n, d))
        expected = (setup.alpha * u + setup.x).reshape(trials * n, d)
        sizes = draw_blocks(n * d, trials)
        starts = np.cumsum([0] + sizes[:-1])
        assert [len(p) for p in seen] == [n * m for m in sizes]
        for start, points in zip(starts, seen):
            np.testing.assert_array_equal(points, expected[start * n:start * n + len(points)])


def poisoned(obj, bad_probes, value):
    """``obj`` whose ``batch_fn`` returns ``value`` at the positions
    ``bad_probes`` of the sequence of all the rows it is given."""
    done = [0]

    def batch_fn(points):
        fv = obj.batch_fn(points)
        fv[[p - done[0] for p in bad_probes if 0 <= p - done[0] < len(fv)]] = value
        done[0] += len(fv)
        return fv

    return dataclasses.replace(obj, batch_fn=batch_fn)


class TestNonFiniteValues:
    """The E1-E5 pass stops at a nan or infinite probe value instead of
    ranking it: a nan compares false, so E1 would count no failure."""

    def test_every_7th_probe_nan(self):
        setup = quadratic_setup(n=16, d=20)
        obj = poisoned(setup.obj, range(6, 16 * 1000, 7), math.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValueError) as err:
                check_events(EVENT_IDS, dataclasses.replace(setup, obj=obj), 1000,
                             new_generator(1))
        assert err.value.index == 6 and math.isnan(err.value.value)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_state_value_rejected_under_e1(self, value):
        """E1 compares each probe with f(x); a nan f(x) would pass every trial."""
        setup = quadratic_setup(n=16, d=20)
        obj = dataclasses.replace(setup.obj, fn=lambda x: value)
        with pytest.raises(ValueError) as exc:
            check_events(("E1",), dataclasses.replace(setup, obj=obj), 1000,
                         new_generator(1))
        assert str(exc.value) == f"non-finite objective value {value!r} at the state x"

    # at n = 16, d = 20 the pass's blocks ramp up to 156 trials (2,496
    # probes); the last three probes below sit at the ends of the first two
    BLOCKS = draw_blocks(16 * 20, 1000)

    @pytest.mark.parametrize("probe", [
        0, 2495, 2496, 16 * 1000 - 1,
        16 * BLOCKS[0] - 1, 16 * BLOCKS[0], 16 * (BLOCKS[0] + BLOCKS[1]) - 1,
    ], ids=["first", "chunk_end", "second_chunk", "last",
            "first_block_end", "second_block_start", "second_block_end"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("events", [EVENT_IDS, ("E2",), ("E1",)],
                             ids=["all", "E2", "E1"])
    def test_first_bad_probe_named(self, probe, value, events):
        setup = quadratic_setup(n=16, d=20)
        obj = poisoned(setup.obj, [probe, probe + 1], value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValueError) as err:
                check_events(events, dataclasses.replace(setup, obj=obj), 1000,
                             new_generator(1))
        assert err.value.index == probe
        assert math.isnan(err.value.value) if math.isnan(value) else err.value.value == value


@functools.lru_cache(maxsize=None)
def direct_spectral_norms(d, cols):
    """s_max of 20,000 directly drawn d x cols Gaussian matrices, the
    matrices ``spectral`` stands for."""
    rng = new_generator(23)
    norms = []
    for _ in range(10):
        a = rng.standard_normal((2000, d, cols))
        norms.append(np.sqrt(np.linalg.eigvalsh(np.swapaxes(a, 1, 2) @ a)[:, -1]))
    return np.concatenate(norms)


class TestCheckAppendixBounds:
    def test_chernoff_zero_hits(self):
        report = check_appendix_bounds("chernoff", None, 10_000, new_generator(1))
        assert report.passed and report.failures == 0
        assert report.theoretical_bound == pytest.approx(7.3e-12, rel=0.05)

    def test_chernoff_moderate_regime(self):
        # wider tail where failures do occur but stay under the bound
        report = check_appendix_bounds(
            "chernoff", {"n": 32, "p": 0.1, "r": 0.25}, 20_000, new_generator(2))
        assert report.passed
        assert report.empirical_failure_rate > 0

    def test_gauss_max(self):
        report = check_appendix_bounds("gauss_max", {"n": 32, "delta": 0.1},
                                       20_000, new_generator(3))
        assert report.passed

    def test_chi2(self):
        report = check_appendix_bounds("chi2", {"d": 100, "delta": 0.01},
                                       20_000, new_generator(4))
        assert report.passed
        # threshold 2d + 3 ln(1/delta) = 213.8 sits ~8 sigma out
        assert report.empirical_failure_rate <= 0.01

    def test_spectral(self):
        report = check_appendix_bounds("spectral", {"n": 16, "d": 100, "tau": 2.0},
                                       5_000, new_generator(5))
        assert report.passed
        assert report.theoretical_bound == pytest.approx(2 * math.exp(-2), rel=1e-12)

    # s_max tail rates ~0.9 / 0.5 / 0.1 at d = 100, n/2 = 8, and ~0.5 at
    # d = 4 < n/2, where the check factors A A^T instead
    @pytest.mark.parametrize("d,tau", [(100, -1.2), (100, -0.6), (100, 0.0),
                                       (4, -0.8)])
    def test_spectral_matches_direct_draw(self, d, tau):
        norms = direct_spectral_norms(d, 8)
        trials = norms.size
        report = check_appendix_bounds("spectral", {"n": 16, "d": d, "tau": tau},
                                       trials, new_generator(29))
        direct = int(np.sum(norms > math.sqrt(8) + math.sqrt(d) + tau))
        # two independent binomial counts: sigma of their difference
        p = (report.failures + direct) / (2 * trials)
        sigma = math.sqrt(2 * trials * p * (1 - p))
        assert abs(report.failures - direct) <= 4 * sigma, (report.failures, direct)

    @pytest.mark.parametrize("which", ["order_low1", "order_low2"])
    def test_order_statistics(self, which):
        report = check_appendix_bounds(which, {"n": 64, "tau": 0.0},
                                       20_000, new_generator(6))
        assert report.passed
        assert report.theoretical_bound == pytest.approx(
            math.exp(-64 * kl_bernoulli(0.25, 0.5)), rel=1e-12)

    @pytest.mark.parametrize("tau", [-0.5, 0.0, 0.5])
    @pytest.mark.parametrize("which", ["order_low1", "order_low2"])
    def test_order_statistics_match_sorted_draw(self, which, tau):
        # the count of failures is the one the sorted rows give on the
        # same stream, drawn in one piece
        report = check_appendix_bounds(which, {"n": 8, "tau": tau}, 5000,
                                       new_generator(8))
        x = np.sort(new_generator(8).standard_normal((5000, 8)), axis=1)
        if which == "order_low1":
            direct = np.sum(x[:, 8 - 2] <= tau)     # 2nd largest
        else:
            direct = np.sum(x[:, 2 - 1] >= tau)     # 2nd smallest
        assert report.failures == direct > 0

    def test_order_invalid_regime_rejected(self):
        with pytest.raises(ValueError):
            check_appendix_bounds("order_low1", {"n": 64, "tau": 2.0},
                                  2000, new_generator(7))
        with pytest.raises(ValueError):
            check_appendix_bounds("order_low2", {"n": 64, "tau": -2.0},
                                  2000, new_generator(7))

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            check_appendix_bounds("hoeffding", None, 2000, new_generator(0))


    @pytest.mark.parametrize("which,params,trials,message", [
        ("chi2", None, 999, "need at least 1000 trials, got 999"),
        ("chernoff", {"n": math.nan}, 1000,
         "chernoff: n must be an integer >= 1, got nan"),
        ("gauss_max", {"n": math.inf}, 1000,
         "gauss_max: n must be an integer >= 1, got inf"),
        ("chi2", {"d": math.nan}, 1000, "chi2: d must be an integer >= 1, got nan"),
        ("spectral", {"n": math.inf}, 1000,
         "spectral: n must be an integer >= 2, got inf"),
        ("spectral", {"d": -math.inf}, 1000,
         "spectral: d must be an integer >= 1, got -inf"),
        ("spectral", {"tau": math.inf}, 1000, "spectral: tau must be finite, got inf"),
        ("spectral", {"tau": math.nan}, 1000, "spectral: tau must be finite, got nan"),
        ("order_low1", {"n": math.inf}, 1000,
         "order_low1: n must be an integer >= 4, got inf"),
        ("order_low1", {"tau": math.nan}, 1000,
         "order_low1: tau must be finite, got nan"),
        ("order_low1", {"tau": math.inf}, 1000,
         "order_low1: tau must be finite, got inf"),
        ("order_low1", {"tau": -math.inf}, 1000,
         "order_low1: tau must be finite, got -inf"),
        ("order_low2", {"tau": math.nan}, 1000,
         "order_low2: tau must be finite, got nan"),
        ("order_low2", {"tau": math.inf}, 1000,
         "order_low2: tau must be finite, got inf"),
        ("order_low2", {"tau": -math.inf}, 1000,
         "order_low2: tau must be finite, got -inf"),
        ("chernoff", {"p": 0.3, "r": 0.25}, 1000,
         "chernoff check needs 0 < p < r < 1"),
        ("chernoff", {"p": 0.1, "r": 1.0}, 1000,
         "chernoff check needs 0 < p < r < 1"),
        ("chernoff", {"n": 0}, 1000,
         "chernoff: n must be an integer >= 1, got 0"),
        ("gauss_max", {"n": 0}, 1000,
         "gauss_max: n must be an integer >= 1, got 0"),
        ("chi2", {"d": 0}, 1000, "chi2: d must be an integer >= 1, got 0"),
        ("chi2", {"d": 2.7}, 1000, "chi2: d must be an integer >= 1, got 2.7"),
        ("spectral", {"n": 1}, 1000,
         "spectral: n must be an integer >= 2, got 1"),
        ("spectral", {"d": 0}, 1000,
         "spectral: d must be an integer >= 1, got 0"),
        ("spectral", {"n": 16, "d": -3}, 1000,
         "spectral: d must be an integer >= 1, got -3"),
        ("order_low1", {"n": 3}, 1000,
         "order_low1: n must be an integer >= 4, got 3"),
        ("order_low2", {"n": 2}, 1000,
         "order_low2: n must be an integer >= 4, got 2"),
    ], ids=["trials", "chernoff_n_nan", "gauss_max_n_inf", "chi2_d_nan",
            "spectral_n_inf", "spectral_d_-inf", "spectral_tau_inf",
            "spectral_tau_nan", "order_low1_n_inf", "order_low1_tau_nan",
            "order_low1_tau_inf", "order_low1_tau_-inf", "order_low2_tau_nan",
            "order_low2_tau_inf", "order_low2_tau_-inf",
            "p_above_r", "r_one", "chernoff_n", "gauss_max_n",
            "chi2_d", "chi2_d_fraction", "spectral_n", "spectral_d_zero",
            "spectral_d_negative", "order_low1_n", "order_low2_n"])
    def test_bad_inputs_rejected(self, which, params, trials, message):
        rng = new_generator(0)
        with pytest.raises(ValueError) as exc:
            check_appendix_bounds(which, params, trials, rng)
        assert str(exc.value) == message
        # a "check: name must ..." message comes from a ParameterError naming it
        named = re.match(rf"{which}: (\w+) must", message)
        assert getattr(exc.value, "param", None) == (named and named.group(1))
        # rejected before anything is drawn
        assert rng.random() == new_generator(0).random()
