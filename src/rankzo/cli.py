"""Command-line entry point: optimize / verify / bench / ablate / predict.

Configuration is a flat structured-text file, one ``dotted.key = value``
per line, ``#`` comments allowed.  The full schema is documented in the
README; these are all the keys (:data:`CONFIG_KEYS`), and any other key
is a config error::

    objective.kind = quadratic | rosenbrock
    objective.d, objective.mu, objective.L, objective.seed,
    objective.curvature
    optimizer.N, optimizer.T, optimizer.scheme
    optimizer.step = instrumented | fixed | backtracking
    optimizer.alpha = instrumented | fixed | geometric
    optimizer.eta0, optimizer.shrink, optimizer.max_tries
    optimizer.alpha0, optimizer.gamma, optimizer.alpha_c
    optimizer.seed, optimizer.delta, optimizer.eps
    verify.events, verify.trials, verify.trials_appendix,
    verify.n, verify.d, verify.delta, verify.alpha_scale, verify.seed,
    verify.mu, verify.L, verify.objective_seed
    bench.dims, bench.kappas, bench.ns, bench.schemes, bench.seeds,
    bench.eps_rel, bench.mu, bench.objective_seed
    ablate.seeds, ablate.eps_rel

Exit codes: 0 success, 1 verification failure, 2 config error
(including an unknown or repeated key, a nan/inf value or ``predict``
flag, ``--jobs`` < 1, an ``n`` that is not a positive multiple of 4, a
dimension below 1, a negative seed, or a ``verify`` input no check can
run with), 3
runtime error.  All CSV output uses '.' decimals, '\\n' line endings and
a header row; reruns with the same config and seed are byte identical.
Summaries are strict JSON, with non-finite values written as ``null``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bench import (ExperimentGrid, GridCell, _median_or_none, build_objective,
                    queries_to_relative_target, run_grid, write_json)
from .optimizer import (AlphaPolicy, OptimizationError, RunConfig, RunTrace,
                        StepPolicy, run)
from .sampling import check_sample_size, new_generator
# check_event is not called here, but perfbench/tracer.py wraps
# rankzo.cli.check_event, so the name stays importable from this module
from .theory import (APPENDIX_IDS, EVENT_IDS, MIN_TRIALS, EventCheckReport,
                     EventSetup, c_d_delta, check_appendix_bounds, check_event,
                     check_events, event_precondition_errors, floors,
                     instrumented_alpha, predict_complexity)

__all__ = ["main", "parse_config", "ConfigError", "CONFIG_KEYS"]

ALL_CHECKS = EVENT_IDS + APPENDIX_IDS

#: every key a config file may set: exactly the keys the subcommands read
CONFIG_KEYS = frozenset([
    "objective.kind", "objective.d", "objective.mu", "objective.L",
    "objective.seed", "objective.curvature",
    "optimizer.N", "optimizer.T", "optimizer.scheme", "optimizer.step",
    "optimizer.alpha", "optimizer.eta0", "optimizer.shrink",
    "optimizer.max_tries", "optimizer.alpha0", "optimizer.gamma",
    "optimizer.alpha_c", "optimizer.seed", "optimizer.delta", "optimizer.eps",
    "verify.events", "verify.trials", "verify.trials_appendix", "verify.n",
    "verify.d", "verify.delta", "verify.alpha_scale", "verify.seed",
    "verify.mu", "verify.L", "verify.objective_seed",
    "bench.dims", "bench.kappas", "bench.ns", "bench.schemes", "bench.seeds",
    "bench.eps_rel", "bench.mu", "bench.objective_seed",
    "ablate.seeds", "ablate.eps_rel",
])


class ConfigError(ValueError):
    """Malformed or inconsistent configuration; maps to exit code 2."""


@contextmanager
def _config_errors(keys: str = ""):
    """Re-raise a library ``ValueError`` as a :class:`ConfigError`,
    prefixed with the config keys or flags it concerns."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}" if keys else str(exc)) from None


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

def parse_config(path: str) -> Dict[str, str]:
    """Read a flat ``key = value`` file into a dict of strings.

    A key outside :data:`CONFIG_KEYS` is a :class:`ConfigError`, and so
    is a repeated key; its message names the key and both line numbers.
    """
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    out: Dict[str, str] = {}
    first_line: Dict[str, int] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise ConfigError(f"{path}:{lineno}: empty key or value")
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in first_line:
                raise ConfigError(f"{path}:{lineno}: config key {key!r} repeats "
                                  f"line {first_line[key]}")
            first_line[key] = lineno
            out[key] = value
    return out


def _get(cfg: Dict[str, str], key: str, cast, default=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing config key {key!r}")
        return default
    try:
        value = cast(cfg[key])
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError("not finite")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {cfg[key]!r} ({exc})") from None
    return value


def _at_least(key: str, values, low) -> None:
    """Raise a :class:`ConfigError` naming ``key`` unless every value is >= ``low``."""
    for value in values:
        if value < low:
            raise ConfigError(f"{key} must be >= {low}, got {value}")


def _int_list(text: str) -> List[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> List[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not all(map(math.isfinite, values)):
        raise ValueError("not finite")
    return values


def _str_list(text: str) -> List[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def build_objective_from_config(cfg: Dict[str, str]):
    kind = _get(cfg, "objective.kind", str, "quadratic")
    d = _get(cfg, "objective.d", int)
    mu = _get(cfg, "objective.mu", float, 1.0)
    l_const = _get(cfg, "objective.L", float, 10.0)
    seed = _get(cfg, "objective.seed", int, 7)
    curvature = _get(cfg, "objective.curvature", float, 0.5)
    _at_least("objective.seed", [seed], 0)
    with _config_errors():
        return build_objective(kind, d, mu, l_const, seed, curvature)


def build_run_config(cfg: Dict[str, str], seed_override: Optional[int]) -> RunConfig:
    step_kind = _get(cfg, "optimizer.step", str, "instrumented")
    alpha_kind = _get(cfg, "optimizer.alpha", str, "instrumented")
    with _config_errors():
        step = StepPolicy(kind=step_kind,
                          eta0=_get(cfg, "optimizer.eta0", float, 1.0),
                          shrink=_get(cfg, "optimizer.shrink", float, 0.5),
                          max_tries=_get(cfg, "optimizer.max_tries", int, 40))
        alpha = AlphaPolicy(kind=alpha_kind,
                            alpha0=_get(cfg, "optimizer.alpha0", float, 1e-3),
                            gamma=_get(cfg, "optimizer.gamma", float, 0.99),
                            c=_get(cfg, "optimizer.alpha_c", float, 1.0))
        seed_key = "optimizer.seed" if seed_override is None else "--seed"
        seed = seed_override if seed_override is not None \
            else _get(cfg, "optimizer.seed", int, 0)
        _at_least(seed_key, [seed], 0)
        return RunConfig(
            n=_get(cfg, "optimizer.N", int),
            iterations=_get(cfg, "optimizer.T", int),
            scheme=_get(cfg, "optimizer.scheme", str, "uniform"),
            step=step, alpha=alpha, seed=seed,
            delta=_get(cfg, "optimizer.delta", float, 0.1),
            eps_target=_get(cfg, "optimizer.eps", float, float("nan")),
        )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_optimize(args) -> int:
    cfg = parse_config(args.config)
    obj = build_objective_from_config(cfg)
    run_cfg = build_run_config(cfg, args.seed)
    os.makedirs(args.out, exist_ok=True)
    try:
        trace = run(obj, run_cfg)
    except OptimizationError as exc:
        # keep what the run recorded before it failed; main maps the error to 3
        _write_run(args.out, exc.trace, "failed")
        raise
    _write_run(args.out, trace, "ok")
    if args.verbose:
        print(f"final_gap={trace.final_gap!r} total_queries={trace.total_queries}")
    return 0


def _write_run(out: str, trace: RunTrace, status: str) -> None:
    trace.to_csv(os.path.join(out, "trace.csv"))
    write_json(os.path.join(out, "summary.json"), {**trace.summary(), "status": status})


def _verify_reports(cfg: Dict[str, str], args) -> List[Tuple[EventCheckReport, int]]:
    """Run the requested checks; each report comes with its wall ms.

    Inputs are checked before the first check runs, so a value no check
    can run with is a config error; ``verify.alpha_scale > 1`` is the
    negative control and fails the checks instead.

    The requested events E1..E5 whose preconditions hold run as one
    shared Monte-Carlo pass on the first check's stream (seed + 101);
    the pass's wall ms goes to the first of them and the others get 0.
    Each appendix check draws from its own stream.
    """
    events_text = _get(cfg, "verify.events", str, "all")
    names = list(ALL_CHECKS) if events_text == "all" else _str_list(events_text)
    if not names:
        raise ConfigError("verify.events is empty")
    unknown = [e for e in names if e not in ALL_CHECKS]
    if unknown:
        raise ConfigError(f"unknown verification events: {unknown}")

    trials_key = "--trials" if args.trials is not None else "verify.trials"
    trials = args.trials if args.trials is not None \
        else _get(cfg, "verify.trials", int, 10_000)
    trials_appendix = _get(cfg, "verify.trials_appendix", int, 100_000)
    n = _get(cfg, "verify.n", int, 32)
    d = _get(cfg, "verify.d", int, 100)
    delta = _get(cfg, "verify.delta", float, 0.1)
    alpha_scale = _get(cfg, "verify.alpha_scale", float, 1.0)
    seed_key = "--seed" if args.seed is not None else "verify.seed"
    seed = args.seed if args.seed is not None else _get(cfg, "verify.seed", int, 7)
    mu = _get(cfg, "verify.mu", float, 1.0)
    l_const = _get(cfg, "verify.L", float, 10.0)
    objective_seed = _get(cfg, "verify.objective_seed", int, 3)

    _at_least(trials_key, [trials], MIN_TRIALS)
    _at_least("verify.trials_appendix", [trials_appendix], MIN_TRIALS)
    _at_least(seed_key, [seed], 0)
    if alpha_scale <= 0:
        raise ConfigError(f"verify.alpha_scale must be positive, got {alpha_scale!r}")
    with _config_errors("verify.n"):
        check_sample_size(n)
    with _config_errors("verify.d, verify.mu, verify.L, verify.objective_seed"):
        obj = build_objective("quadratic", d, mu, l_const, objective_seed)
    with _config_errors("verify.delta"):
        c_d = c_d_delta(d, delta)

    state_rng = new_generator(seed + 909)
    x = obj.x_star + state_rng.standard_normal(d)
    gnorm = float(np.linalg.norm(obj.grad(x)))
    alpha = alpha_scale * instrumented_alpha(gnorm, obj.L, c_d)
    setup = EventSetup(obj=obj, x=x, alpha=alpha, n=n, delta=delta)

    events = [e for e in names if e in EVENT_IDS]
    started = time.perf_counter()
    errors = event_precondition_errors(events, setup)
    runnable = [e for e in events if e not in errors]
    shared = {}
    if runnable:
        shared = dict(zip(runnable, check_events(runnable, setup, trials,
                                                 new_generator(seed + 101))))
    pass_ms = _ms_since(started)

    reports: List[Tuple[EventCheckReport, int]] = []
    for name in names:
        if name in errors:
            # a violated checker precondition (e.g. alpha outside the
            # regime bound) is reported as a failure, not a crash
            reports.append((EventCheckReport(
                event_id=name, trials=0, empirical_failure_rate=float("nan"),
                theoretical_bound=float("nan"), passed=False,
                params={"precondition_error": 1.0}), 0))
            if args.verbose:
                print(f"{name}: precondition violated: {errors[name]}", file=sys.stderr)
        elif name in shared:
            reports.append((shared[name], pass_ms))
            pass_ms = 0
        else:
            rng = new_generator(seed + 101 * (ALL_CHECKS.index(name) + 1))
            started = time.perf_counter()
            report = check_appendix_bounds(name, None, trials_appendix, rng)
            reports.append((report, _ms_since(started)))
    return reports


def _ms_since(started: float) -> int:
    return int(round((time.perf_counter() - started) * 1000))


def cmd_verify(args) -> int:
    cfg = parse_config(args.config) if args.config else {}
    reports = _verify_reports(cfg, args)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "reports.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write("event_id,params,trials,empirical,bound,pass\n")
        for r, _ in reports:
            fh.write(",".join([
                r.event_id, r.params_string(), str(r.trials),
                repr(float(r.empirical_failure_rate)),
                repr(float(r.theoretical_bound)),
                "true" if r.passed else "false",
            ]) + "\n")
    # wall time goes to stdout only; reports.csv stays deterministic
    for r, wall_ms in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.event_id}: empirical={r.empirical_failure_rate:.3g} "
              f"bound={r.theoretical_bound:.3g} trials={r.trials} wall_ms={wall_ms}")
    return 0 if all(r.passed for r, _ in reports) else 1


def _bench_grid(cfg: Dict[str, str], args) -> ExperimentGrid:
    dims = _get(cfg, "bench.dims", _int_list)
    kappas = _get(cfg, "bench.kappas", _float_list, [10.0])
    ns = _get(cfg, "bench.ns", _int_list, [16])
    schemes = _get(cfg, "bench.schemes", _str_list, ["uniform"])
    seeds = _get(cfg, "bench.seeds", _int_list)
    mu = _get(cfg, "bench.mu", float, 1.0)
    eps_rel = _get(cfg, "bench.eps_rel", float, 1e-4)
    objective_seed = _get(cfg, "bench.objective_seed", int, 7)
    template = build_run_config(cfg, args.seed)
    _at_least("bench.dims", dims, 1)
    _at_least("bench.seeds", seeds, 0)
    _at_least("bench.objective_seed", [objective_seed], 0)
    with _config_errors("bench.ns"):
        for n in ns:
            check_sample_size(n)
    cells = []
    for d in dims:
        for kappa in kappas:
            for n in ns:
                for scheme in schemes:
                    cells.append(GridCell(
                        config_id=f"d{d}_k{kappa:g}_N{n}_{scheme}",
                        objective_kind="quadratic", d=d, mu=mu, L=mu * kappa,
                        config=replace(template, n=n, scheme=scheme),
                        objective_seed=objective_seed))
    with _config_errors():
        return ExperimentGrid(cells=cells, seeds=seeds, eps_rel=eps_rel)


def cmd_bench(args) -> int:
    cfg = parse_config(args.config)
    grid = _bench_grid(cfg, args)
    rows, summary = run_grid(grid, jobs=args.jobs, out_dir=args.out)
    if args.verbose:
        print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_ablate(args) -> int:
    cfg = parse_config(args.config)
    obj = build_objective_from_config(cfg)
    base = build_run_config(cfg, args.seed)
    seeds = _get(cfg, "ablate.seeds", _int_list, [base.seed])
    _at_least("ablate.seeds", seeds, 0)
    eps_rel = _get(cfg, "ablate.eps_rel", float, 1e-4)
    os.makedirs(args.out, exist_ok=True)
    results = {"full": [], "positive_only": []}

    def write_summary(status: str) -> dict:
        med = {label: _median_or_none(qs) for label, qs in results.items()}
        write_json(os.path.join(args.out, "ablate_summary.json"),
                   {"eps_rel": eps_rel, "seeds": seeds, "status": status,
                    "queries_to_target": results, "median": med})
        return med

    for i, seed in enumerate(seeds):
        for label, pos in (("full", False), ("positive_only", True)):
            try:
                trace = run(obj, replace(base, seed=seed, positive_only=pos))
            except OptimizationError as exc:
                # keep what was recorded so far; main maps the error to 3
                if i == 0:
                    exc.trace.to_csv(os.path.join(args.out, f"trace_{label}.csv"))
                write_summary("failed")
                raise
            if i == 0:
                trace.to_csv(os.path.join(args.out, f"trace_{label}.csv"))
            results[label].append(
                queries_to_relative_target(trace, eps_rel, obj.f_star))
    med = write_summary("ok")
    if args.verbose:
        print(json.dumps(med, indent=2, sort_keys=True))
    return 0


def cmd_predict(args) -> int:
    kind = "strongly_convex" if args.kind in ("sc", "strongly_convex") \
        else "nonconvex" if args.kind in ("nc", "nonconvex") else None
    if kind is None:
        raise ConfigError(f"unknown kind {args.kind!r}; use sc or nc")
    with _config_errors():
        pred = predict_complexity(kind, args.d, args.L, args.eps,
                                  args.delta_prime, mu=args.mu, c1=args.c1)
        floor_sc, floor_nc = floors(pred.n, args.d, pred.delta, args.L, args.alpha)
    print(f"N = {pred.n}")
    print(f"T = {pred.t}")
    print(f"Q = {pred.q}")
    print(f"delta = {pred.delta!r}")
    print(f"floor_strongly_convex(alpha={args.alpha!r}) = {floor_sc!r}")
    print(f"floor_nonconvex(alpha={args.alpha!r}) = {floor_nc!r}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing / dispatch
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _add_common(p: argparse.ArgumentParser, config_required: bool = True) -> None:
    p.add_argument("--config", required=config_required, help="config file path")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="seed override")
    p.add_argument("-v", "--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankzo",
        description="Rank-based zeroth-order optimization and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("optimize", cmd_optimize), ("ablate", cmd_ablate)):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("bench")
    _add_common(p)
    p.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("verify")
    _add_common(p, config_required=False)
    p.add_argument("--trials", type=int, default=None,
                   help="Monte-Carlo trials override")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("predict")
    p.add_argument("--kind", required=True, help="sc (strongly convex) or nc")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=_finite_float, required=True)
    p.add_argument("--mu", type=_finite_float, default=None)
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--delta-prime", type=_finite_float, default=0.1)
    p.add_argument("--alpha", type=_finite_float, default=1e-4)
    p.add_argument("--c1", type=_finite_float, default=1.0)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(fn=cmd_predict)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the config-error code
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
