"""Command-line entry point: optimize / verify / bench / ablate / predict.

Configuration is a flat structured-text file, one ``dotted.key = value``
per line, ``#`` comments allowed.  :data:`CONFIG_KEYS` lists every key
and :data:`SECTIONS` the sections each subcommand reads; the README
documents each key and every config error (exit 2).  A key that
configures a library object is passed only when the config sets it, so
the library's default is the only default.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 runtime
error.  All CSV output uses '.' decimals, '\\n' line endings and a header
row; reruns with the same config are byte identical.  Summaries
are strict JSON, with non-finite values written as ``null``.
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

from .bench import (ExperimentGrid, GridCell, build_objective, median_or_none,
                    queries_to_target, run_grid, write_json)
from .optimizer import (AlphaPolicy, OptimizationError, RunConfig, RunTrace,
                        StepPolicy, run, write_csv)
from .sampling import check_sample_size, new_generator
# check_event is not called here, but perfbench/tracer.py wraps
# rankzo.cli.check_event, so the name stays importable from this module
from .theory import (APPENDIX_IDS, EVENT_IDS, MIN_TRIALS, EventCheckReport,
                     EventSetup, ParameterError, c_d_delta, check_appendix_bounds,
                     check_event, check_events, event_precondition_errors, floors,
                     instrumented_alpha, predict_complexity)

__all__ = ["main", "parse_config", "ConfigError", "CONFIG_KEYS", "SECTIONS"]

ALL_CHECKS = EVENT_IDS + APPENDIX_IDS
REPORT_COLUMNS = ("event_id", "params", "trials", "empirical", "bound", "pass")
#: ``predict --kind`` value -> the kind :func:`predict_complexity` takes
PREDICT_KINDS = {"sc": "strongly_convex", "nc": "nonconvex"}

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

#: the config sections each subcommand reads; a key from any other
#: section is a config error
SECTIONS = {
    "optimize": ("objective", "optimizer"),
    "ablate": ("objective", "optimizer", "ablate"),
    "bench": ("optimizer", "bench"),
    "verify": ("verify",),
}


class ConfigError(ValueError):
    """Malformed or inconsistent configuration; maps to exit code 2."""


@contextmanager
def _config_errors(keys: str):
    """Re-raise a library ``ValueError`` as a :class:`ConfigError`,
    prefixed with the config keys or flags it concerns."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}") from None


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


def _read_config(args) -> Dict[str, str]:
    """The config of ``args.config`` (empty when none is given), with
    every key in a section that ``args.command`` reads (:data:`SECTIONS`)."""
    if not args.config:
        return {}
    cfg = parse_config(args.config)
    sections = SECTIONS[args.command]
    for key in cfg:
        if key.split(".", 1)[0] not in sections:
            raise ConfigError(f"{args.command} does not read {key}; it reads only "
                              + ", ".join(f"{section}.*" for section in sections))
    return cfg


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


def _reject_unread(cfg: Dict[str, str], read: Dict[str, bool], kinds: str) -> None:
    """Raise a :class:`ConfigError` naming the first key of ``cfg`` that
    ``read`` maps to False: a key the chosen ``kinds`` do not read."""
    for key in cfg:
        if not read.get(key, True):
            raise ConfigError(f"{key} is not read when {kinds}")


def _entries(key: str, values: list) -> list:
    """``values``; a :class:`ConfigError` naming ``key`` if none or a repeat."""
    if not values:
        raise ConfigError(f"{key} is empty")
    repeated = sorted({value for value in values if values.count(value) > 1})
    if repeated:
        raise ConfigError(f"{key}: repeated entries {repeated}")
    return values


def _int_list(text: str) -> List[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> List[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not all(map(math.isfinite, values)):
        raise ValueError("not finite")
    return values


def _str_list(text: str) -> List[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _given(cfg: Dict[str, str], **fields) -> Tuple[dict, str]:
    """The keyword arguments the config sets, and the keys to name if the
    library rejects them: the mapped keys the config sets, else all of them.

    ``fields`` maps a library parameter to its ``(config key, cast)``; a
    key the config leaves out passes nothing, so the library's default is
    the only default.  ``(config key, cast, default)`` always passes the
    parameter, and a ``None`` default makes the key required.
    """
    kwargs = {name: _get(cfg, key, cast, *default)
              for name, (key, cast, *default) in fields.items()
              if key in cfg or default}
    keys = [key for key, *_ in fields.values()]
    return kwargs, ", ".join([key for key in keys if key in cfg] or keys)


def build_objective_from_config(cfg: Dict[str, str]):
    kwargs, keys = _given(
        cfg, kind=("objective.kind", str, "quadratic"), d=("objective.d", int, None),
        mu=("objective.mu", float), L=("objective.L", float),
        seed=("objective.seed", int), curvature=("objective.curvature", float))
    kind = kwargs["kind"]
    if "seed" in kwargs:
        _at_least("objective.seed", [kwargs["seed"]], 0)
    # an unknown kind reads every key here; build_objective rejects it
    read = dict.fromkeys(("objective.mu", "objective.L", "objective.seed"),
                         kind != "rosenbrock")
    read["objective.curvature"] = kind != "quadratic"
    _reject_unread(cfg, read, f"objective.kind = {kind}")
    with _config_errors(keys):
        return build_objective(**kwargs)


def build_run_config(cfg: Dict[str, str], n: Optional[int] = None) -> RunConfig:
    """The :class:`RunConfig` of the ``optimizer.*`` keys; ``n`` is the
    batch size when ``optimizer.N`` is not set (None makes it required)."""
    step, step_keys = _given(
        cfg, kind=("optimizer.step", str), eta0=("optimizer.eta0", float),
        shrink=("optimizer.shrink", float), max_tries=("optimizer.max_tries", int))
    alpha, alpha_keys = _given(
        cfg, kind=("optimizer.alpha", str), alpha0=("optimizer.alpha0", float),
        gamma=("optimizer.gamma", float), c=("optimizer.alpha_c", float))
    kwargs, keys = _given(
        cfg, scheme=("optimizer.scheme", str), seed=("optimizer.seed", int),
        delta=("optimizer.delta", float), eps_target=("optimizer.eps", float),
        n=("optimizer.N", int, n), iterations=("optimizer.T", int, None))
    if "seed" in kwargs:
        _at_least("optimizer.seed", [kwargs["seed"]], 0)
    with _config_errors(step_keys):
        step = StepPolicy(**step)
    with _config_errors(alpha_keys):
        alpha = AlphaPolicy(**alpha)
    with _config_errors(keys):
        run_cfg = RunConfig(step=step, alpha=alpha, **kwargs)
    _reject_unread(cfg, {
        "optimizer.eta0": step.kind != "instrumented",
        "optimizer.shrink": step.kind == "backtracking",
        "optimizer.max_tries": step.kind == "backtracking",
        "optimizer.alpha0": alpha.kind != "instrumented",
        "optimizer.gamma": alpha.kind == "geometric",
        "optimizer.alpha_c": alpha.kind == "instrumented",
        "optimizer.delta": "instrumented" in (step.kind, alpha.kind),
    }, f"optimizer.step = {step.kind}, optimizer.alpha = {alpha.kind}")
    return run_cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_optimize(args) -> int:
    cfg = _read_config(args)
    obj = build_objective_from_config(cfg)
    run_cfg = build_run_config(cfg)
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
    Each appendix check draws from its own stream.  The pass and the
    appendix checks run concurrently, so their wall ms overlap; every
    report is the same as in a serial run.
    """
    events_text = _get(cfg, "verify.events", str, "all")
    names = _entries("verify.events", list(ALL_CHECKS) if events_text == "all"
                     else _str_list(events_text))
    unknown = [e for e in names if e not in ALL_CHECKS]
    if unknown:
        raise ConfigError(f"verify.events: unknown checks {unknown}")

    trials = _get(cfg, "verify.trials", int, 10_000)
    trials_appendix = _get(cfg, "verify.trials_appendix", int, 100_000)
    n = _get(cfg, "verify.n", int, 32)
    delta = _get(cfg, "verify.delta", float, 0.1)
    alpha_scale = _get(cfg, "verify.alpha_scale", float, 1.0)
    seed = _get(cfg, "verify.seed", int, 7)
    quadratic, quadratic_keys = _given(
        cfg, d=("verify.d", int, 100), mu=("verify.mu", float), L=("verify.L", float),
        seed=("verify.objective_seed", int, 3))

    _at_least("verify.trials", [trials], MIN_TRIALS)
    _at_least("verify.trials_appendix", [trials_appendix], MIN_TRIALS)
    _at_least("verify.seed", [seed], 0)
    if alpha_scale <= 0:
        raise ConfigError(f"verify.alpha_scale must be positive, got {alpha_scale!r}")
    with _config_errors("verify.n"):
        check_sample_size(n)
    with _config_errors(quadratic_keys):
        obj = build_objective("quadratic", **quadratic)
    with _config_errors("verify.delta"):
        c_d = c_d_delta(obj.dim, delta)

    state_rng = new_generator(seed + 909)
    x = obj.x_star + state_rng.standard_normal(obj.dim)
    gnorm = float(np.linalg.norm(obj.grad(x)))
    alpha = alpha_scale * instrumented_alpha(gnorm, obj.L, c_d)
    setup = EventSetup(obj=obj, x=x, alpha=alpha, n=n, delta=delta)

    events = [e for e in names if e in EVENT_IDS]
    errors = event_precondition_errors(events, setup)
    runnable = [e for e in events if e not in errors]
    # one unit of work per stream: the shared pass, then each appendix check
    units = []
    if runnable:
        units.append((check_events, runnable, setup, trials, new_generator(seed + 101)))
    units += [(check_appendix_bounds, name, None, trials_appendix,
               new_generator(seed + 101 * (ALL_CHECKS.index(name) + 1)))
              for name in names if name in APPENDIX_IDS]
    results = iter(_run_concurrently(units))
    shared: Dict[str, EventCheckReport] = {}
    if runnable:
        pass_reports, pass_ms = next(results)
        shared = dict(zip(runnable, pass_reports))

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
            reports.append(next(results))
    return reports


def _run_concurrently(units: list) -> List[tuple]:
    """``(fn(*args), wall ms)`` for each ``(fn, *args)`` in ``units``, in
    order; the units run on up to one thread per usable CPU, and the
    first unit that raised re-raises here once all have stopped."""
    if not units:
        return []
    # imported here, as in bench.run_grid, so importing rankzo.cli never loads it
    from concurrent.futures import ThreadPoolExecutor

    def timed(fn, *args):
        started = time.perf_counter()
        result = fn(*args)
        return result, int(round((time.perf_counter() - started) * 1000))

    workers = min(len(units), len(os.sched_getaffinity(0)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(timed, *unit) for unit in units]
    return [future.result() for future in futures]


def cmd_verify(args) -> int:
    cfg = _read_config(args)
    reports = _verify_reports(cfg, args)
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "reports.csv"), REPORT_COLUMNS,
              [(r.event_id, r.params_string(), r.trials, r.empirical_failure_rate,
                r.theoretical_bound, r.passed) for r, _ in reports])
    # wall time goes to stdout only; reports.csv stays deterministic
    for r, wall_ms in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.event_id}: empirical={r.empirical_failure_rate:.3g} "
              f"bound={r.theoretical_bound:.3g} trials={r.trials} wall_ms={wall_ms}")
    return 0 if all(r.passed for r, _ in reports) else 1


def _bench_grid(cfg: Dict[str, str]) -> ExperimentGrid:
    # every run takes its seed from bench.seeds and its target from bench.eps_rel
    for key, instead in (("optimizer.seed", "bench.seeds"),
                         ("optimizer.eps", "bench.eps_rel")):
        if key in cfg:
            raise ConfigError(f"bench does not read {key}; set {instead}")
    # bench.ns, when set, is every cell's batch size, so optimizer.N is optional
    ns = (_entries("bench.ns", _get(cfg, "bench.ns", _int_list))
          if "bench.ns" in cfg else [])
    with _config_errors("bench.ns"):
        for n in ns:
            check_sample_size(n)
    template = build_run_config(cfg, n=ns[0] if ns else None)
    ns = ns or [template.n]
    dims = _entries("bench.dims", _get(cfg, "bench.dims", _int_list))
    kappas = _get(cfg, "bench.kappas", _float_list, [10.0])
    # the cell id writes kappa with %g, so two kappas alike there repeat
    _entries("bench.kappas", [f"{kappa:g}" for kappa in kappas])
    schemes = _entries("bench.schemes",
                       _get(cfg, "bench.schemes", _str_list, [template.scheme]))
    seeds = _entries("bench.seeds", _get(cfg, "bench.seeds", _int_list))
    mu = _get(cfg, "bench.mu", float, 1.0)
    cell_kwargs, _ = _given(cfg, objective_seed=("bench.objective_seed", int))
    grid_kwargs, eps_keys = _given(cfg, eps_rel=("bench.eps_rel", float))
    _at_least("bench.dims", dims, 1)
    _at_least("bench.kappas", kappas, 1)
    _at_least("bench.seeds", seeds, 0)
    _at_least("bench.objective_seed", cell_kwargs.values(), 0)
    if mu <= 0:
        raise ConfigError(f"bench.mu must be positive, got {mu!r}")
    with _config_errors("bench.schemes"):
        configs = {(n, scheme): replace(template, n=n, scheme=scheme)
                   for n in ns for scheme in schemes}
    cells = [GridCell(config_id=f"d{d}_k{kappa:g}_N{n}_{scheme}", d=d, mu=mu,
                      L=mu * kappa, config=configs[n, scheme], **cell_kwargs)
             for d in dims for kappa in kappas for n in ns for scheme in schemes]
    with _config_errors(eps_keys):
        return ExperimentGrid(cells=cells, seeds=seeds, **grid_kwargs)


def cmd_bench(args) -> int:
    cfg = _read_config(args)
    grid = _bench_grid(cfg)
    rows, summary = run_grid(grid, jobs=args.jobs, out_dir=args.out)
    if args.verbose:
        print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_ablate(args) -> int:
    cfg = _read_config(args)
    obj = build_objective_from_config(cfg)
    base = build_run_config(cfg)
    seeds = _get(cfg, "ablate.seeds", _int_list, [base.seed])
    # every run takes its seed from ablate.seeds, which defaults to optimizer.seed
    _reject_unread(cfg, {"optimizer.seed": "ablate.seeds" not in cfg},
                   "ablate.seeds is set")
    _at_least("ablate.seeds", _entries("ablate.seeds", seeds), 0)
    eps_rel = _get(cfg, "ablate.eps_rel", float, ExperimentGrid.eps_rel)
    if not (0.0 < eps_rel < 1.0):
        raise ConfigError(f"ablate.eps_rel must lie in (0, 1), got {eps_rel!r}")
    os.makedirs(args.out, exist_ok=True)
    results = {"full": [], "positive_only": []}

    def write_summary(status: str) -> dict:
        med = {label: median_or_none(qs) for label, qs in results.items()}
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
            results[label].append(queries_to_target(trace, eps_rel))
    med = write_summary("ok")
    if args.verbose:
        print(json.dumps(med, indent=2, sort_keys=True))
    return 0


def cmd_predict(args) -> int:
    # --c1 is passed only when given, so predict_complexity's default stands
    c1 = {} if args.c1 is None else {"c1": args.c1}
    try:
        pred = predict_complexity(PREDICT_KINDS[args.kind], args.d, args.L,
                                  args.eps, args.delta_prime, mu=args.mu, **c1)
        floor_sc, floor_nc = floors(pred.n, args.d, pred.delta, args.L, args.alpha)
    except ParameterError as exc:
        # each library parameter is the flag of the same name
        raise ConfigError(f"--{exc.param.replace('_', '-')}: {exc}") from None
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
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("predict")
    p.add_argument("--kind", required=True, choices=PREDICT_KINDS,
                   help="sc (strongly convex) or nc (nonconvex)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=_finite_float, required=True)
    p.add_argument("--mu", type=_finite_float, default=None)
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--delta-prime", type=_finite_float, default=0.1)
    p.add_argument("--alpha", type=_finite_float, default=1e-4)
    p.add_argument("--c1", type=_finite_float, default=None)
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
