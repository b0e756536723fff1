"""Acceptance suite: one test per criterion, printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Comparative criteria use medians over ten fixed seeds; tolerances are
stated inline next to each assertion.
"""

import json
import time

import numpy as np

import rankzo as rz
from rankzo.cli import main

SEEDS = list(range(100, 110))
CANON = dict(d=32, mu=1.0, L=10.0, seed=7)   # canonical quadratic
DELTA = 0.1


def canonical_quadratic():
    return rz.make_quadratic(**CANON)


def _report(number, name, ok, detail):
    print(f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def median_queries(obj, step, alpha, seeds, iterations, eps_rel=1e-4,
                   n=16, positive_only=False):
    qs = []
    for seed in seeds:
        cfg = rz.RunConfig(n=n, iterations=iterations, seed=seed, step=step,
                           alpha=alpha, delta=DELTA,
                           positive_only=positive_only, eps_target=eps_rel)
        trace = rz.run(obj, cfg)
        q = rz.queries_to_target(trace, eps_rel)
        assert q is not None, f"target not reached for seed {seed}"
        qs.append(q)
    return float(np.median(qs))


def test_criterion_01_linear_convergence():
    """Instrumented run: log-gap is linear in t and reaches 1e-6 relative."""
    started = time.perf_counter()
    obj = canonical_quadratic()
    cfg = rz.RunConfig(n=16, iterations=4000, seed=123, scheme="uniform",
                       step=rz.StepPolicy(),
                       alpha=rz.AlphaPolicy(c=1.0), delta=DELTA)
    trace = rz.run(obj, cfg)
    elapsed = time.perf_counter() - started

    gaps = np.array(trace.fgap)
    ratio_w = rz.weight_ratio(rz.weights_by_name("uniform", 16))
    rho = rz.rho(16, CANON["d"], DELTA, CANON["mu"], CANON["L"], ratio_w)
    # with the instrumented alpha the floor shrinks with the gradient; the
    # fit segment runs until the gap meets 10x the floor at the final alpha
    floor_sc, _ = rz.floors(16, CANON["d"], DELTA, CANON["L"],
                            trace.alpha[-1], ratio_w)
    above = gaps > 10.0 * floor_sc / rho
    end = int(np.argmax(~above)) if not above.all() else len(gaps)
    assert end >= 50, "fit segment too short"
    y = np.log(gaps[:end])
    t = np.arange(end, dtype=float)
    design = np.vstack([t, np.ones_like(t)]).T
    _, residual, *_ = np.linalg.lstsq(design, y, rcond=None)
    r2 = 1.0 - residual[0] / ((y - y.mean()) ** 2).sum()
    reach = min(trace.final_gap, gaps.min()) / gaps[0]

    ok = r2 >= 0.95 and reach <= 1e-6 and elapsed <= 60.0
    _report(1, "linear-convergence",
            ok, f"R2={r2:.4f}, reach={reach:.2e}, wall={elapsed:.1f}s")
    assert r2 >= 0.95
    assert reach <= 1e-6
    assert elapsed <= 60.0


def test_criterion_02_dimension_scaling():
    """Median queries to 1e-4 relative scale with dimension, ratio in [2, 8]."""
    started = time.perf_counter()
    step = rz.StepPolicy("backtracking", eta0=1.0, shrink=0.5, max_tries=60)
    alpha = rz.AlphaPolicy("fixed", alpha0=1e-3)
    q16 = median_queries(rz.make_quadratic(16, 1.0, 10.0, seed=7),
                         step, alpha, SEEDS, 6000)
    q64 = median_queries(rz.make_quadratic(64, 1.0, 10.0, seed=7),
                         step, alpha, SEEDS, 12000)
    elapsed = time.perf_counter() - started
    ratio = q64 / q16
    ok = 2.0 <= ratio <= 8.0 and elapsed <= 600.0
    _report(2, "dimension-scaling",
            ok, f"Q(64)/Q(16)={ratio:.2f} ideal 4, wall={elapsed:.1f}s")
    assert 2.0 <= ratio <= 8.0
    assert elapsed <= 600.0


def test_criterion_03_condition_scaling():
    """Median queries grow with the condition number, ratio in [4, 25]."""
    step = rz.StepPolicy()
    alpha = rz.AlphaPolicy(c=1.0)
    q_k10 = median_queries(rz.make_quadratic(32, 1.0, 10.0, seed=7),
                           step, alpha, SEEDS, 10_000)
    q_k100 = median_queries(rz.make_quadratic(32, 1.0, 100.0, seed=7),
                            step, alpha, SEEDS, 50_000)
    ratio = q_k100 / q_k10
    ok = 4.0 <= ratio <= 25.0
    _report(3, "condition-scaling", ok, f"Q(k=100)/Q(k=10)={ratio:.2f} ideal 10")
    assert 4.0 <= ratio <= 25.0


def test_criterion_04_alpha_floor():
    """Fixed-alpha plateau scales quadratically: ratio in [2.5, 6]."""
    obj = canonical_quadratic()

    def plateau(alpha0):
        levels = []
        for seed in SEEDS:
            cfg = rz.RunConfig(n=16, iterations=4000, seed=seed, delta=DELTA,
                               step=rz.StepPolicy(),
                               alpha=rz.AlphaPolicy("fixed", alpha0=alpha0))
            trace = rz.run(obj, cfg)
            levels.append(float(np.median(trace.fgap[-1000:])))
        return float(np.median(levels))

    big, small = plateau(2e-3), plateau(1e-3)
    ratio = big / small
    ok = 2.5 <= ratio <= 6.0
    _report(4, "alpha-floor", ok,
            f"plateau(a)/plateau(a/2)={ratio:.2f} ideal 4")
    assert 2.5 <= ratio <= 6.0


def test_criterion_05_negative_sample_ablation():
    """Dropping the worst-quartile directions costs >= 1.5x the queries."""
    obj = canonical_quadratic()
    step = rz.StepPolicy("backtracking", eta0=1.0, shrink=0.5, max_tries=60)
    alpha = rz.AlphaPolicy("fixed", alpha0=1e-3)
    q_full = median_queries(obj, step, alpha, SEEDS, 6000)
    q_pos = median_queries(obj, step, alpha, SEEDS, 12_000, positive_only=True)
    ratio = q_pos / q_full
    ok = ratio >= 1.5
    _report(5, "negative-sample-ablation", ok,
            f"positive-only/full={ratio:.2f}, claimed ~2")
    assert ratio >= 1.5


def test_criterion_06_nonconvex_running_average():
    """Running average of ||grad||^2 at T=4000 is <= 0.6x its T=1000 value."""
    obj = rz.make_rosenbrock_like(16)
    ratios = []
    for seed in SEEDS:
        cfg = rz.RunConfig(n=16, iterations=4000, seed=seed, delta=DELTA,
                           x0=np.zeros(16))
        trace = rz.run(obj, cfg)
        gn2 = np.array(trace.gradnorm) ** 2
        ratios.append(gn2.mean() / gn2[:1000].mean())
    med = float(np.median(ratios))
    ok = med <= 0.6
    _report(6, "nonconvex-running-average", ok, f"A(4000)/A(1000)={med:.3f}")
    assert med <= 0.6


def test_criterion_07_monotone_transform_invariance():
    """Iterate sequences are bitwise identical under increasing transforms."""
    obj = rz.make_quadratic(8, 1.0, 10.0, seed=2)
    transforms = [rz.MonotoneTransform("affine", a=3.0, b=7.0),
                  rz.MonotoneTransform("exponential")]
    policies = [rz.StepPolicy("fixed", eta0=0.05),
                rz.StepPolicy("backtracking", eta0=1.0, shrink=0.5, max_tries=20)]
    mismatches = 0
    for step in policies:
        for seed in range(5):
            cfg = rz.RunConfig(n=16, iterations=30, seed=seed, step=step,
                               alpha=rz.AlphaPolicy("fixed", alpha0=1e-2),
                               record_iterates=True)
            base = rz.run(obj, cfg)
            for transform in transforms:
                other = rz.run(rz.wrap_monotone(obj, transform), cfg)
                if not np.array_equal(base.iterates, other.iterates):
                    mismatches += 1
    ok = mismatches == 0
    _report(7, "monotone-invariance", ok,
            f"{mismatches} mismatches across 5 seeds x 2 policies x 2 transforms")
    assert mismatches == 0


def test_criterion_08_event_verification_suite(tmp_path):
    """Every event and appendix bound passes its Monte-Carlo check."""
    started = time.perf_counter()
    rc = main(["verify", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - started
    lines = (tmp_path / "reports.csv").read_text().splitlines()[1:]
    failed = [ln.split(",")[0] for ln in lines if ln.endswith("false")]
    ok = rc == 0 and not failed and len(lines) == 11 and elapsed <= 300.0
    _report(8, "event-verification-suite", ok,
            f"{len(lines) - len(failed)}/{len(lines)} checks pass, "
            f"wall={elapsed:.0f}s" + (f", failed={failed}" if failed else ""))
    assert rc == 0
    assert not failed
    assert len(lines) == 11
    assert elapsed <= 300.0


def test_criterion_09_one_step_inequality():
    """>= 90% of instrumented iterations satisfy the contraction bound."""
    obj = canonical_quadratic()
    cfg = rz.RunConfig(n=16, iterations=1000, seed=11, delta=DELTA)
    trace = rz.run(obj, cfg)
    ratio_w = rz.weight_ratio(rz.weights_by_name("uniform", 16))
    rho = rz.rho(16, CANON["d"], DELTA, CANON["mu"], CANON["L"], ratio_w)
    gap = np.array(trace.fgap + [trace.final_gap])
    holds = 0
    for t in range(len(trace.t)):
        floor_sc, _ = rz.floors(16, CANON["d"], DELTA, CANON["L"],
                                trace.alpha[t], ratio_w)
        if gap[t + 1] <= (1.0 - rho) * gap[t] + floor_sc:
            holds += 1
    frac = holds / len(trace.t)
    ok = frac >= 0.9
    _report(9, "one-step-inequality", ok, f"{frac:.1%} of 1000 iterations")
    assert frac >= 0.9


def recursion_violations(trace, rho, ratio_w):
    """Iterations t where gap_{t+1} exceeds the unrolled recursion B_{t+1}.

    B_0 = gap_0 and B_{t+1} = (1 - rho) B_t + floor_sc(alpha_t), so B_t is
    (1 - rho)^t gap_0 plus the discounted floors, which tends to the fixed
    point floor_sc / rho under a constant alpha.
    """
    gap = np.array(trace.fgap + [trace.final_gap])
    bound, violations = gap[0], 0
    for t in range(len(trace.t)):
        floor_sc, _ = rz.floors(16, CANON["d"], DELTA, CANON["L"],
                                trace.alpha[t], ratio_w)
        bound = (1.0 - rho) * bound + floor_sc
        violations += int(gap[t + 1] > bound)
    return violations


def test_criterion_10_recursion_fixed_point():
    """The instrumented gap stays under the unrolled one-step recursion at
    every iteration, and the same check with rho overstated 100x fails."""
    obj = canonical_quadratic()
    trace = rz.run(obj, rz.RunConfig(n=16, iterations=1000, seed=11, delta=DELTA))
    ratio_w = rz.weight_ratio(rz.weights_by_name("uniform", 16))
    rho = rz.rho(16, CANON["d"], DELTA, CANON["mu"], CANON["L"], ratio_w)
    violations = recursion_violations(trace, rho, ratio_w)
    control = recursion_violations(trace, 100.0 * rho, ratio_w)
    ok = violations == 0 and control > 0
    _report(10, "recursion-fixed-point", ok,
            f"{violations} of 1000 iterations above the bound; "
            f"{control} with rho x100")
    assert violations == 0
    assert control > 0


def test_criterion_11_cli_determinism(tmp_path):
    """cmd_optimize run twice yields byte-identical trace.csv."""
    config = tmp_path / "run.cfg"
    config.write_text(
        "objective.kind = quadratic\n"
        "objective.d = 16\nobjective.mu = 1.0\nobjective.L = 10.0\n"
        "objective.seed = 7\n"
        "optimizer.N = 16\noptimizer.T = 200\noptimizer.scheme = uniform\n"
        "optimizer.step = instrumented\noptimizer.alpha = instrumented\n"
        "optimizer.seed = 5\noptimizer.delta = 0.1\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    rc1 = main(["optimize", "--config", str(config), "--out", str(out1)])
    rc2 = main(["optimize", "--config", str(config), "--out", str(out2)])
    identical = ((out1 / "trace.csv").read_bytes()
                 == (out2 / "trace.csv").read_bytes())
    summary = json.loads((out1 / "summary.json").read_text())
    ok = rc1 == 0 and rc2 == 0 and identical
    _report(11, "cli-determinism", ok,
            f"{summary['iterations']} rows, byte-identical={identical}")
    assert rc1 == 0 and rc2 == 0
    assert identical
