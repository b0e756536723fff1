"""Command-line entry point: optimize / verify / bench / ablate / predict.

Configuration is a flat structured-text file, one ``dotted.key = value``
per line, ``#`` comments allowed.  :data:`CONFIG_KEYS` gives every key
its cast and least value, and :data:`SECTIONS` the sections each
subcommand reads; the README documents each key and every config error
(exit 2).  A key that configures a library object is passed only when
the config sets it, so the library's default is the only default.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 runtime
error.  All CSV output uses '.' decimals, '\\n' line endings and a header
row; reruns with the same config are byte identical.  Summaries
are strict JSON, with non-finite values written as ``null``.
"""

from __future__ import annotations

import argparse
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

def _list_of(cast):
    """The cast of a comma list: ``cast`` of each non-empty token.  int and
    float read the blanks around a token themselves, and string lists
    cast with ``str.strip``, so an error quotes the token as written."""
    return lambda text: [cast(tok) for tok in text.split(",") if tok.strip()]


#: every key a config file may set, exactly the keys the subcommands read:
#: ``key -> (cast, least)``, where ``least`` is the smallest value the key,
#: or each entry of a list key, may take (None: no bound)
CONFIG_KEYS = {
    "objective.kind": (str, None), "objective.d": (int, None),
    "objective.mu": (float, None), "objective.L": (float, None),
    "objective.seed": (int, 0),
    "optimizer.N": (int, None), "optimizer.T": (int, None),
    "optimizer.scheme": (str, None), "optimizer.step": (str, None),
    "optimizer.alpha": (str, None), "optimizer.eta0": (float, None),
    "optimizer.shrink": (float, None), "optimizer.max_tries": (int, None),
    "optimizer.alpha0": (float, None), "optimizer.gamma": (float, None),
    "optimizer.alpha_c": (float, None), "optimizer.seed": (int, 0),
    "optimizer.delta": (float, None), "optimizer.eps": (float, None),
    "verify.events": (_list_of(str.strip), None), "verify.trials": (int, MIN_TRIALS),
    "verify.trials_appendix": (int, MIN_TRIALS), "verify.n": (int, None),
    "verify.d": (int, None), "verify.delta": (float, None),
    "verify.alpha_scale": (float, None), "verify.seed": (int, 0),
    "bench.dims": (_list_of(int), 1), "bench.kappas": (_list_of(float), 1),
    "bench.ns": (_list_of(int), None), "bench.schemes": (_list_of(str.strip), None),
    "bench.seeds": (_list_of(int), 0), "bench.eps_rel": (float, None),
    "bench.mu": (float, None), "bench.objective_seed": (int, 0),
    "ablate.seeds": (_list_of(int), 0), "ablate.eps_rel": (float, None),
}

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


def _get(cfg: Dict[str, str], key: str, default=None):
    """The value of ``key``, cast and checked as :data:`CONFIG_KEYS` says:
    a list must be nonempty and repeat no entry, and the value, or each
    entry, must be at least the key's least value.  ``default`` when the
    config leaves the key out (None makes it required)."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing config key {key!r}")
        return default
    cast, least = CONFIG_KEYS[key]
    try:
        value = cast(cfg[key])
        entries = value if isinstance(value, list) else [value]
        if not all(math.isfinite(v) for v in entries if isinstance(v, float)):
            raise ValueError("not finite")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {cfg[key]!r} ({exc})") from None
    if not entries:
        raise ConfigError(f"{key} is empty")
    # float entries repeat when they print alike with %g, as bench's cell
    # ids write bench.kappas
    printed = [f"{v:g}" if isinstance(v, float) else v for v in entries]
    repeated = sorted({v for v in printed if printed.count(v) > 1})
    if repeated:
        raise ConfigError(f"{key}: repeated entries {repeated}")
    for entry in entries:
        if least is not None and entry < least:
            raise ConfigError(f"{key} must be >= {least}, got {entry}")
    return value


def _reject_unread(cfg: Dict[str, str], read: Dict[str, bool], kinds: str) -> None:
    """Raise a :class:`ConfigError` naming the first key of ``cfg`` that
    ``read`` maps to False: a key the chosen ``kinds`` do not read."""
    for key in cfg:
        if not read.get(key, True):
            raise ConfigError(f"{key} is not read when {kinds}")


def _given(cfg: Dict[str, str], **fields) -> Tuple[dict, str]:
    """The keyword arguments the config sets, and the keys to name if the
    library rejects them: the mapped keys the config sets, else all of them.

    ``fields`` maps a library parameter to its ``(config key,)``; a key
    the config leaves out passes nothing, so the library's default is the
    only default.  ``(config key, default)`` always passes the parameter,
    and a ``None`` default makes the key required.
    """
    kwargs = {name: _get(cfg, key, *default)
              for name, (key, *default) in fields.items()
              if key in cfg or default}
    keys = [key for key, *_ in fields.values()]
    return kwargs, ", ".join([key for key in keys if key in cfg] or keys)


def build_objective_from_config(cfg: Dict[str, str]):
    kwargs, keys = _given(
        cfg, kind=("objective.kind", "quadratic"), d=("objective.d", None),
        mu=("objective.mu",), L=("objective.L",), seed=("objective.seed",))
    kind = kwargs["kind"]
    # an unknown kind reads every key here; build_objective rejects it
    _reject_unread(cfg, dict.fromkeys(("objective.mu", "objective.L", "objective.seed"),
                                      kind != "rosenbrock"),
                   f"objective.kind = {kind}")
    with _config_errors(keys):
        return build_objective(**kwargs)


def build_run_config(cfg: Dict[str, str], n: Optional[int] = None) -> RunConfig:
    """The :class:`RunConfig` of the ``optimizer.*`` keys; ``n`` is the
    batch size when ``optimizer.N`` is not set (None makes it required)."""
    step, step_keys = _given(
        cfg, kind=("optimizer.step",), eta0=("optimizer.eta0",),
        shrink=("optimizer.shrink",), max_tries=("optimizer.max_tries",))
    alpha, alpha_keys = _given(
        cfg, kind=("optimizer.alpha",), alpha0=("optimizer.alpha0",),
        gamma=("optimizer.gamma",), c=("optimizer.alpha_c",))
    kwargs, keys = _given(
        cfg, scheme=("optimizer.scheme",), seed=("optimizer.seed",),
        delta=("optimizer.delta",), eps_target=("optimizer.eps",),
        n=("optimizer.N", n), iterations=("optimizer.T", None))
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
    return 0


def _write_run(out: str, trace: RunTrace, status: str) -> None:
    trace.to_csv(os.path.join(out, "trace.csv"))
    write_json(os.path.join(out, "summary.json"), {**trace.summary(), "status": status})


def _verify_reports(cfg: Dict[str, str]) -> List[Tuple[EventCheckReport, int]]:
    """Run the requested checks; each report comes with its wall ms.

    Inputs are checked before the first check runs, so a value no check
    can run with is a config error.  That includes a
    ``verify.alpha_scale`` that puts a requested E1, E4 or E5 outside the
    quartile-event regime bound (:func:`theory.event_precondition_errors`).

    The requested events E1..E5 run as one shared Monte-Carlo pass on
    the first check's stream (seed + 101); the pass's wall ms goes to the
    first of them and the others get 0.  Each appendix check draws from
    its own stream.  The pass runs on the calling thread and the
    appendix checks, in turn, on one worker thread, so their wall ms
    overlap; every report is the same as in a serial run.
    """
    names = _get(cfg, "verify.events", ["all"])
    if names == ["all"]:
        names = list(ALL_CHECKS)
    unknown = [e for e in names if e not in ALL_CHECKS]
    if unknown:
        raise ConfigError(f"verify.events: unknown checks {unknown}")

    trials = _get(cfg, "verify.trials", 10_000)
    trials_appendix = _get(cfg, "verify.trials_appendix", 100_000)
    n = _get(cfg, "verify.n", 32)
    delta = _get(cfg, "verify.delta", 0.1)
    alpha_scale = _get(cfg, "verify.alpha_scale", 1.0)
    seed = _get(cfg, "verify.seed", 7)
    d = _get(cfg, "verify.d", 100)

    if alpha_scale <= 0:
        raise ConfigError(f"verify.alpha_scale must be positive, got {alpha_scale!r}")
    with _config_errors("verify.n"):
        check_sample_size(n)
    with _config_errors("verify.d"):
        obj = build_objective("quadratic", d=d, seed=3)
    with _config_errors("verify.delta"):
        c_d = c_d_delta(obj.dim, delta)

    state_rng = new_generator(seed + 909)
    x = obj.x_star + state_rng.standard_normal(obj.dim)
    gnorm = float(np.linalg.norm(obj.grad(x)))
    alpha = alpha_scale * instrumented_alpha(gnorm, obj.L, c_d)
    setup = EventSetup(obj=obj, x=x, alpha=alpha, n=n, delta=delta)

    events = [e for e in names if e in EVENT_IDS]
    # the quadratic has grad and L and the state is random, so the regime
    # bound is the one precondition that can fail here
    errors = event_precondition_errors(events, setup)
    if errors:
        event, reason = next(iter(errors.items()))
        raise ConfigError(f"verify.alpha_scale: {event}: {reason}")
    # one unit of work per stream: the shared pass, then each appendix check
    units = []
    if events:
        units.append((check_events, events, setup, trials, new_generator(seed + 101)))
    units += [(check_appendix_bounds, name, None, trials_appendix,
               new_generator(seed + 101 * (ALL_CHECKS.index(name) + 1)))
              for name in names if name in APPENDIX_IDS]
    results = _run_concurrently(units)
    placed: Dict[str, Tuple[EventCheckReport, int]] = {}
    if events:
        pass_reports, pass_ms = results.pop(0)
        placed.update((r.event_id, (r, 0 if i else pass_ms))
                      for i, r in enumerate(pass_reports))
    placed.update((r.event_id, (r, wall_ms)) for r, wall_ms in results)
    return [placed[name] for name in names]


def _run_concurrently(units: list) -> List[tuple]:
    """``(fn(*args), wall ms)`` for each ``(fn, *args)`` in ``units``, in
    order.  ``units[0]`` runs on the calling thread and the rest, one after
    another, on one worker thread, which a single unit never starts; the
    first unit that raised re-raises here once both threads have stopped."""
    def timed(fn, *args):
        started = time.perf_counter()
        result = fn(*args)
        return result, int(round((time.perf_counter() - started) * 1000))

    # imported here, as in bench.run_grid, so importing rankzo.cli never loads it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        futures = [pool.submit(timed, *unit) for unit in units[1:]]
        head = timed(*units[0])
    return [head] + [future.result() for future in futures]


def cmd_verify(args) -> int:
    cfg = _read_config(args)
    reports = _verify_reports(cfg)
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
    ns = _get(cfg, "bench.ns", [])
    with _config_errors("bench.ns"):
        for n in ns:
            check_sample_size(n)
    template = build_run_config(cfg, n=ns[0] if ns else None)
    ns = ns or [template.n]
    dims = _get(cfg, "bench.dims")
    kappas = _get(cfg, "bench.kappas", [10.0])
    schemes = _get(cfg, "bench.schemes", [template.scheme])
    seeds = _get(cfg, "bench.seeds")
    mu = _get(cfg, "bench.mu", 1.0)
    cell_kwargs, _ = _given(cfg, objective_seed=("bench.objective_seed",))
    grid_kwargs, eps_keys = _given(cfg, eps_rel=("bench.eps_rel",))
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
    run_grid(grid, jobs=args.jobs, out_dir=args.out)
    return 0


def cmd_ablate(args) -> int:
    cfg = _read_config(args)
    obj = build_objective_from_config(cfg)
    base = build_run_config(cfg)
    seeds = _get(cfg, "ablate.seeds", [base.seed])
    # every run takes its seed from ablate.seeds, which defaults to optimizer.seed
    _reject_unread(cfg, {"optimizer.seed": "ablate.seeds" not in cfg},
                   "ablate.seeds is set")
    eps_rel = _get(cfg, "ablate.eps_rel", ExperimentGrid.eps_rel)
    if not (0.0 < eps_rel < 1.0):
        raise ConfigError(f"ablate.eps_rel must lie in (0, 1), got {eps_rel!r}")
    # each run stops once its gap falls to optimizer.eps times the initial gap
    if base.eps_target is not None and base.eps_target > eps_rel:
        raise ConfigError(f"optimizer.eps must be <= ablate.eps_rel ({eps_rel!r}), "
                          f"got {base.eps_target!r}: each run stops at optimizer.eps")
    os.makedirs(args.out, exist_ok=True)
    results = {"full": [], "positive_only": []}

    def write_summary(status: str) -> None:
        med = {label: median_or_none(qs) for label, qs in results.items()}
        write_json(os.path.join(args.out, "ablate_summary.json"),
                   {"eps_rel": eps_rel, "seeds": seeds, "status": status,
                    "queries_to_target": results, "median": med})

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
    write_summary("ok")
    return 0


def cmd_predict(args) -> int:
    # the flags a value out of float range comes from: all but --alpha for
    # the prediction, all for the alpha-floor terms
    flags = ["--d", "--L"] + ["--mu"] * (args.mu is not None) + ["--eps", "--delta-prime"]
    try:
        pred = predict_complexity(args.d, args.L, args.eps, args.delta_prime,
                                  mu=args.mu)
        flags.append("--alpha")
        floor_sc, floor_nc = floors(pred.n, args.d, pred.delta, args.L, args.alpha)
        if not all(map(math.isfinite, (floor_sc, floor_nc))):  # a product overflowed
            raise OverflowError
    except ParameterError as exc:
        # each library parameter is the flag of the same name
        raise ConfigError(f"--{exc.param.replace('_', '-')}: {exc}") from None
    except OverflowError:
        raise ConfigError(f"{', '.join(flags)}: a predicted value is out of float "
                          "range") from None
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
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=_finite_float, required=True)
    p.add_argument("--mu", type=_finite_float, default=None,
                   help="strong convexity; omit for the nonconvex prediction")
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--delta-prime", type=_finite_float, default=0.1)
    p.add_argument("--alpha", type=_finite_float, default=1e-4)
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
