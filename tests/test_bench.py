"""Baselines, ablation plumbing, query-counting, and the grid runner."""

import json
import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rankzo.bench import (ExperimentGrid, GridCell, _median, build_objective,
                          fit_log_gap_slope, median_or_none, queries_to_target,
                          run_grid, write_json)
from rankzo.objective import Objective, make_quadratic, make_rosenbrock_like
from rankzo.optimizer import (AlphaPolicy, OptimizationError, RunConfig,
                              RunTrace, StepPolicy, baseline_value_zo, run)
from rankzo.sampling import (QueryLedger, new_generator, rank_oracle,
                             sample_directions, selected_ranks)
from rankzo.optimizer import descent_direction
from rankzo.weights import weights_by_name


def small_cfg(**kw):
    defaults = dict(n=8, iterations=30, seed=1,
                    alpha=AlphaPolicy("fixed", alpha0=1e-3))
    defaults.update(kw)
    return RunConfig(**defaults)


class TestBaselineValueZO:
    def test_estimator_unbiased_up_to_smoothing(self):
        # two-point estimate on f = x^2/2 at x: mean of ((f(x+au)-f(x))/a)*u
        # over many draws is x + O(a); checked within 3 sigma
        x, alpha = 0.7, 1e-3
        u = new_generator(4).standard_normal(100_000)
        ghat = ((0.5 * (x + alpha * u) ** 2 - 0.5 * x**2) / alpha) * u
        se = ghat.std(ddof=1) / np.sqrt(len(ghat))
        assert abs(ghat.mean() - x) <= 3 * se + alpha

    def test_deterministic_per_seed(self):
        obj = make_quadratic(6, 1.0, 10.0, seed=2)
        cfg = small_cfg(iterations=50)
        t1 = baseline_value_zo(obj, cfg)
        t2 = baseline_value_zo(obj, cfg)
        assert t1.f == t2.f
        np.testing.assert_array_equal(t1.final_x, t2.final_x)

    def test_two_queries_per_iteration(self):
        obj = make_quadratic(6, 1.0, 10.0, seed=2)
        trace = baseline_value_zo(obj, small_cfg(iterations=50))
        assert trace.total_queries == 100

    def test_makes_progress(self):
        obj = make_quadratic(8, 1.0, 10.0, seed=3)
        trace = baseline_value_zo(obj, small_cfg(iterations=4000))
        assert trace.final_gap < 0.1 * trace.fgap[0]

    def test_needs_L(self):
        bare = Objective(dim=2, fn=lambda x: float(x @ x))
        with pytest.raises(ValueError):
            baseline_value_zo(bare, small_cfg())

    @pytest.mark.parametrize("alpha", [AlphaPolicy("fixed", alpha0=1e-3),
                                       AlphaPolicy()],
                             ids=["fixed", "instrumented"])
    def test_gradnorm_is_at_row_iterate(self, alpha):
        obj = make_quadratic(6, 1.0, 10.0, seed=2)
        trace = baseline_value_zo(obj, small_cfg(alpha=alpha, record_iterates=True))
        assert trace.iterates.shape == (len(trace) + 1, 6)
        np.testing.assert_array_equal(trace.iterates[-1], trace.final_x)
        expected = [np.linalg.norm(obj.grad(x)) for x in trace.iterates[:-1]]
        assert trace.gradnorm == expected

    def test_stationary_start_raises_with_trace(self):
        obj = make_quadratic(5, 1.0, 10.0, seed=9)
        cfg = small_cfg(alpha=AlphaPolicy(), x0=obj.x_star.copy())
        with pytest.raises(OptimizationError) as err:
            baseline_value_zo(obj, cfg)
        assert str(err.value) == "iteration 0 failed: at stationary point: gradient norm is zero"
        assert len(err.value.trace) == 0


class TestAblatePositiveOnly:
    def test_positive_side_only(self):
        # the ablation's weights are the first n/4 signed weights, the
        # positive side, already normalized to 1
        w = weights_by_name("uniform", 8)[:2]
        assert w.sum() == pytest.approx(1.0)
        assert w.shape == (2,)

    def test_shared_sampling_path(self):
        # same seed: the first direction batch is identical; only the
        # combination differs
        b1 = sample_directions(new_generator(42), 16, 6)
        b2 = sample_directions(new_generator(42), 16, 6)
        np.testing.assert_array_equal(b1, b2)
        obj = make_quadratic(6, 1.0, 10.0, seed=0)
        perm, _ = rank_oracle(QueryLedger(obj), np.zeros(6), 0.1, b1)
        w = weights_by_name("uniform", 16)
        d_full = descent_direction(b1[perm[selected_ranks(16) - 1]], w)
        d_pos = descent_direction(b1[perm[selected_ranks(16)[:4] - 1]], w[:4])
        assert not np.allclose(d_full, d_pos)

    def test_runs_and_converges(self):
        obj = make_quadratic(8, 1.0, 10.0, seed=3)
        cfg = RunConfig(n=16, iterations=200, seed=5)
        trace = run(obj, replace(cfg, positive_only=True))
        assert trace.final_gap < trace.fgap[0]


def synthetic_trace(gaps, queries_per_iter=8):
    trace = RunTrace()
    for t, gap in enumerate(gaps):
        trace.record(t, gap, gap, float("nan"), 1e-3, 1.0,
                     (t + 1) * queries_per_iter)
    trace.final_f = gaps[-1] / 2
    trace.final_gap = gaps[-1] / 2
    trace.total_queries = len(gaps) * queries_per_iter
    return trace


class TestQueriesToTarget:
    def test_starts_below_target(self):
        # a run that starts at the optimum reaches any target at once
        trace = synthetic_trace([0.0, 0.0])
        assert queries_to_target(trace, 0.5) == 0

    @staticmethod
    def backtracking_run(obj, x0, iterations, eps_target):
        return run(obj, RunConfig(
            n=8, iterations=iterations, seed=1, x0=x0, eps_target=eps_target,
            step=StepPolicy("backtracking"), alpha=AlphaPolicy("fixed", alpha0=1e-3)))

    @pytest.mark.parametrize("eps_target", [None, 1e-3])
    def test_run_started_at_optimum(self, eps_target):
        # with eps_target the early stop fires at t = 0 and records no
        # row; the run reached its target with 0 queries either way
        obj = make_quadratic(6, 1.0, 10.0, seed=2)
        trace = self.backtracking_run(obj, obj.x_star.copy(), 50, eps_target)
        assert (len(trace) == 0) == (eps_target is not None)
        assert queries_to_target(trace, 1e-3) == 0

    def test_run_without_iterations_never_reaches(self):
        # T = 0 from a random start: no row, and x stays at its initial gap
        trace = self.backtracking_run(make_quadratic(6, 1.0, 10.0, seed=2), None, 0, None)
        assert len(trace) == 0 and trace.final_gap > 0
        assert queries_to_target(trace, 1e-3) is None

    def test_never_reached(self):
        trace = synthetic_trace([10.0, 9.0, 8.0])
        trace.final_gap = 7.0
        assert queries_to_target(trace, 1e-4) is None

    def test_counts_queries_before_arrival(self):
        trace = synthetic_trace([8.0, 4.0, 2.0, 1.0], queries_per_iter=10)
        # gap 2.0 = 0.25 x 8.0 is first reached at t=2, which cost the
        # first 20 queries
        assert queries_to_target(trace, 0.25) == 20

    def test_final_state_counts(self):
        trace = synthetic_trace([8.0, 4.0], queries_per_iter=10)
        # only the final iterate (gap 2.0) meets the target 2.5
        assert queries_to_target(trace, 2.5 / 8.0) == 20

    def test_monotone_in_eps(self):
        trace = synthetic_trace([8.0, 4.0, 2.0, 1.0, 0.5])
        q_loose = queries_to_target(trace, 0.5)
        q_tight = queries_to_target(trace, 0.075)
        assert q_tight >= q_loose


class TestQueriesToRelativeTarget:
    def test_scales_initial_gap(self):
        gaps = [8.0, 4.0, 2.0, 1.0]
        expected = {0.6: 10, 0.25: 20, 0.1: 40, 1e-3: None}
        for scale in (1.0, 100.0):
            trace = synthetic_trace([scale * g for g in gaps], queries_per_iter=10)
            assert {eps_rel: queries_to_target(trace, eps_rel)
                    for eps_rel in expected} == expected

    def test_none_without_optimum_or_rows(self):
        # without a known optimum value every gap is nan, the final one
        # too; a trace without rows takes its initial gap from that
        assert queries_to_target(synthetic_trace([np.nan, np.nan]), 0.5) is None
        assert queries_to_target(RunTrace(), 0.5) is None


class TestFitSlope:
    def test_recovers_exponential_decay(self):
        gaps = [2.0 ** -t for t in range(40)]
        slope = fit_log_gap_slope(synthetic_trace(gaps))
        assert slope == pytest.approx(-np.log(2), rel=1e-9)

    def test_nan_without_positive_gaps(self):
        trace = RunTrace()
        assert np.isnan(fit_log_gap_slope(trace))


def _same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or (
        a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


class TestMedian:
    """``bench._median`` is ``float(np.median(values))`` bit for bit."""

    @pytest.mark.parametrize("values", [
        [3], [2, 1], [5, 1, 4], [7, 2, 9, 4], [1.5, math.nan, 0.5], [-0.0],
        [-0.0, -0.0], [math.inf, -math.inf], [0.1, 0.2], [1e308, 1e308],
    ])
    def test_edge_cases(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = float(np.median(values))
        assert _same_float(_median(values), expected)

    def test_random_lists(self):
        rng = random.Random(5)
        specials = [math.inf, -math.inf, math.nan, 0.0, -0.0]
        for _ in range(2000):
            m = rng.randint(1, 12)
            if rng.random() < 0.3:
                values = [rng.randint(-1000, 10**6) for _ in range(m)]
            else:
                values = [rng.choice(specials) if rng.random() < 0.1
                          else rng.gauss(0.0, 10.0) for _ in range(m)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = float(np.median(values))
            assert _same_float(_median(values), expected), values

    def test_median_or_none_skips_none(self):
        assert median_or_none([None, 4, None, 1]) == 2.5
        assert median_or_none([None]) is None


def tiny_grid(seeds=(1, 2, 3)):
    cfg = RunConfig(n=8, iterations=150, seed=0,
                    step=StepPolicy("backtracking", eta0=1.0, shrink=0.5, max_tries=20),
                    alpha=AlphaPolicy("fixed", alpha0=1e-3))
    cell = GridCell(config_id="d8_k10", d=8, mu=1.0, L=10.0, config=cfg)
    return ExperimentGrid(cells=[cell], seeds=list(seeds), eps_rel=1e-2)


def diverging_cell():
    # a huge fixed step: f(x_1) overflows to a non-finite value
    cfg = RunConfig(n=8, iterations=50, seed=0, step=StepPolicy("fixed", eta0=1e300),
                    alpha=AlphaPolicy("fixed"))
    return GridCell(config_id="diverges", d=8, mu=1.0, L=10.0, config=cfg)


class TestRunGrid:
    def test_row_count(self):
        rows, summary = run_grid(tiny_grid())
        assert len(rows) == 3
        assert summary["cells"]["d8_k10"]["runs"] == 3

    def test_median_and_predictions(self):
        rows, summary = run_grid(tiny_grid())
        cell = summary["cells"]["d8_k10"]
        qs = sorted(r.queries_to_target for r in rows)
        assert cell["median_queries_to_target"] == qs[1]
        assert cell["predicted"] is not None
        assert cell["predicted"]["q"] == cell["predicted"]["t"] * cell["predicted"]["n"]

    def test_deterministic(self):
        rows1, _ = run_grid(tiny_grid())
        rows2, _ = run_grid(tiny_grid())
        for a, b in zip(rows1, rows2):
            assert (a.queries_to_target, a.final_gap, a.slope) == \
                   (b.queries_to_target, b.final_gap, b.slope)

    def test_cell_failure_recorded_grid_continues(self):
        bad_cfg = RunConfig(n=8, iterations=5, seed=0)
        cells = [
            GridCell(config_id="bad", d=4, mu=10.0, L=1.0,
                     config=bad_cfg),  # mu > L fails
            tiny_grid().cells[0],
        ]
        grid = ExperimentGrid(cells=cells, seeds=[1], eps_rel=1e-2)
        rows, summary = run_grid(grid)
        assert len(rows) == 1
        assert len(summary["errors"]) == 1
        assert "bad" in summary["errors"][0]

    def test_failing_cells_give_the_same_errors_in_parallel(self, recwarn):
        grid = ExperimentGrid(cells=[diverging_cell(), tiny_grid().cells[0]],
                              seeds=[1, 2], eps_rel=1e-2)
        _, serial = run_grid(grid, jobs=1)
        assert [e.split(":")[0] for e in serial["errors"]] == [
            "diverges/seed=1", "diverges/seed=2"]
        _, parallel = run_grid(grid, jobs=2)
        assert parallel["errors"] == serial["errors"]
        # only the runs that returned are timed
        for summary in (serial, parallel):
            assert sorted(summary["wall_ms"]) == ["d8_k10/seed=1", "d8_k10/seed=2"]
        # the diverging runs warn of no overflow
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_csv_output(self, tmp_path):
        run_grid(tiny_grid(seeds=(1,)), out_dir=str(tmp_path))
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0] == ("config_id,seed,scheme,N,d,kappa,policy,"
                            "queries_to_target,final_gap,slope")
        assert len(lines) == 2

    def test_summary_json_is_strict(self, tmp_path):
        # a one-iteration run has a single trace row, so its slope is nan
        cell = tiny_grid().cells[0]
        cell = replace(cell, config=replace(cell.config, iterations=1))
        grid = ExperimentGrid(cells=[cell], seeds=[1], eps_rel=1e-2)
        _, summary = run_grid(grid, out_dir=str(tmp_path))
        assert np.isnan(summary["cells"]["d8_k10"]["median_slope"])
        text = (tmp_path / "summary.json").read_text()
        assert json.loads(text, parse_constant=pytest.fail) == {
            **summary, "cells": {"d8_k10": {
                **summary["cells"]["d8_k10"], "median_slope": None}}}

    def test_parallel_matches_serial(self, tmp_path):
        run_grid(tiny_grid(), jobs=1, out_dir=str(tmp_path / "serial"))
        run_grid(tiny_grid(), jobs=2, out_dir=str(tmp_path / "parallel"))
        assert ((tmp_path / "serial" / "results.csv").read_bytes()
                == (tmp_path / "parallel" / "results.csv").read_bytes())


class TestExperimentGrid:
    @pytest.mark.parametrize("cells,seeds,eps_rel,message", [
        ([], [1], 1e-2, "grid needs at least one cell and one seed"),
        (None, [], 1e-2, "grid needs at least one cell and one seed"),
        (None, [1], 0.0, "eps_rel must lie in (0, 1)"),
        (None, [1], 1.0, "eps_rel must lie in (0, 1)"),
        (None, [2, 1, 2, 1], 1e-2, "repeated seeds [1, 2]"),
        (tiny_grid().cells * 2, [1], 1e-2, "repeated config_ids ['d8_k10']"),
    ], ids=["no_cells", "no_seeds", "eps_zero", "eps_one", "repeated_seeds",
            "repeated_config_ids"])
    def test_rejected(self, cells, seeds, eps_rel, message):
        cells = tiny_grid().cells if cells is None else cells
        with pytest.raises(ValueError) as exc:
            ExperimentGrid(cells=cells, seeds=seeds, eps_rel=eps_rel)
        assert str(exc.value) == message


class TestWriteJson:
    def test_non_finite_floats_become_null(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(str(path), {"b": [float("nan"), 1.5, None],
                               "a": {"c": float("-inf"), "d": (2, np.inf)}})
        text = path.read_text()
        assert text.endswith("}\n") and text.index('"a"') < text.index('"b"')
        assert json.loads(text, parse_constant=pytest.fail) == {
            "a": {"c": None, "d": [2, None]}, "b": [None, 1.5, None]}


class TestBuildObjective:
    def test_kinds(self):
        assert build_objective("quadratic", 4).dim == 4
        assert build_objective("rosenbrock", 4).dim == 4
        with pytest.raises(ValueError):
            build_objective("ackley", 4)

    def test_makers_hold_the_defaults(self):
        quad, reference = build_objective("quadratic", 6), make_quadratic(6)
        assert (quad.mu, quad.L, quad.name) == (reference.mu, reference.L,
                                                reference.name)
        np.testing.assert_array_equal(quad.x_star, reference.x_star)
        assert build_objective("rosenbrock", 4).name == make_rosenbrock_like(4).name

    @pytest.mark.parametrize("kind,param", [
        ("quadratic", "curvature"), ("rosenbrock", "mu"), ("rosenbrock", "L"),
        ("rosenbrock", "seed"), ("rosenbrock", "curvature"),
    ])
    def test_param_the_maker_does_not_take_rejected(self, kind, param):
        with pytest.raises(TypeError, match=param):
            build_objective(kind, 4, **{param: 1.0})


class TestGridCell:
    def test_objective_seed_passed_only_when_set(self):
        cfg = tiny_grid().cells[0].config
        default = GridCell(config_id="c", d=6, mu=1.0, L=10.0, config=cfg)
        seeded = replace(default, objective_seed=3)
        np.testing.assert_array_equal(default.make_objective().x_star,
                                      make_quadratic(6).x_star)
        np.testing.assert_array_equal(seeded.make_objective().x_star,
                                      make_quadratic(6, seed=3).x_star)


def _queries(fn, obj, cfg, eps_rel):
    return queries_to_target(fn(obj, cfg), eps_rel)


class TestComparisons:
    def test_rank_vs_value_baseline_both_reach_target(self, capsys):
        # both reach the target; the ratio is recorded, not asserted
        obj = make_quadratic(16, 1.0, 10.0, seed=7)
        eps_rel = 1e-3
        q_rank, q_value = [], []
        for seed in (100, 101, 102):
            rank_cfg = RunConfig(n=16, iterations=6000, seed=seed,
                                 step=StepPolicy("backtracking", eta0=1.0,
                                                 shrink=0.5, max_tries=60),
                                 alpha=AlphaPolicy("fixed", alpha0=1e-3),
                                 eps_target=eps_rel)
            value_cfg = RunConfig(n=16, iterations=40_000, seed=seed,
                                  alpha=AlphaPolicy("fixed", alpha0=1e-3),
                                  eps_target=eps_rel)
            q_rank.append(_queries(run, obj, rank_cfg, eps_rel))
            q_value.append(_queries(baseline_value_zo, obj, value_cfg, eps_rel))
        assert all(q is not None for q in q_rank)
        assert all(q is not None for q in q_value)
        ratio = np.median(q_value) / np.median(q_rank)
        print(f"value/rank query ratio at eps_rel={eps_rel:g}: {ratio:.2f}")

    def test_scheme_robustness(self):
        # all three schemes converge; uniform is never worse than 3x the
        # best scheme in median queries to the target
        obj = make_quadratic(32, 1.0, 10.0, seed=7)
        eps_rel = 1e-3
        medians = {}
        for scheme in ("uniform", "log", "blom"):
            qs = []
            for seed in range(100, 105):
                cfg = RunConfig(n=16, iterations=6000, seed=seed, scheme=scheme,
                                step=StepPolicy("backtracking", eta0=1.0,
                                                shrink=0.5, max_tries=60),
                                alpha=AlphaPolicy("fixed", alpha0=1e-3),
                                eps_target=eps_rel)
                q = _queries(run, obj, cfg, eps_rel)
                assert q is not None, (scheme, seed)
                qs.append(q)
            medians[scheme] = float(np.median(qs))
        assert medians["uniform"] <= 3.0 * min(medians.values())
