"""Outside-in tracing of rankzo: spans and counters at each layer boundary.

Nothing under ``src/`` is edited.  :func:`installed` swaps module
attributes at the call sites rankzo itself uses (``rankzo.cli.run``,
``rankzo.optimizer.sample_directions``, ...), substitutes counting
subclasses for ``QueryLedger`` and ``RunTrace``, and wraps the ``fn`` /
``batch_fn`` / ``grad`` fields of every objective the program builds.
Everything is restored on exit, so untraced calls in the same process run
the original code.

A span's self time is its duration minus the time its child spans cover.
The layer of a span is the text before its first dot, so the self times
of all layers plus the unattributed remainder add up to the traced wall
time.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("objective", "sampling", "weights", "optimizer", "theory", "bench", "cli")


class Tracer:
    """Span self/inclusive times, call counts and named counters."""

    def __init__(self) -> None:
        self.stack: list = []
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.count: Counter = Counter()

    def wrap(self, name, fn):
        """``fn`` recorded as span ``name``."""
        stack, self_s, incl_s, calls = self.stack, self.self_s, self.incl_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self_s[name] += dt - frame[0]
                incl_s[name] += dt
                calls[name] += 1

        return traced

    def evals(self) -> int:
        """Objective evaluations so far: single-point calls plus batch rows."""
        return self.calls["objective.fn"] + self.count["objective.batch_rows"]


def _objective_wrapper(tracer: Tracer, build):
    span = tracer.wrap("objective.build", build)
    count = tracer.count

    def traced_build(*args, **kwargs):
        obj = span(*args, **kwargs)
        batch = tracer.wrap("objective.batch", obj.batch_fn)

        def counted_batch(points):
            count["objective.batch_rows"] += len(points)
            return batch(points)

        return dataclasses.replace(
            obj, fn=tracer.wrap("objective.fn", obj.fn), batch_fn=counted_batch,
            grad=tracer.wrap("objective.grad", obj.grad))

    return traced_build


def _run_wrapper(tracer: Tracer, run):
    """Span around one optimizer run, plus the query-ledger audit.

    Inside a run every objective evaluation is charged except the
    documented ones: f(x_t) at the top of each loop pass (one per trace
    row, plus the pass whose early-stop check ends the run) and the
    final f.  A run whose uncharged count differs is an audit failure.
    """
    span = tracer.wrap("optimizer.run", run)
    count = tracer.count

    def traced_run(obj, cfg):
        evals0, charged0 = tracer.evals(), count["sampling.queries_charged"]
        trace = span(obj, cfg)
        rows = len(trace.t)
        uncharged = (tracer.evals() - evals0) - (count["sampling.queries_charged"] - charged0)
        expected = rows + 1 + (1 if rows < cfg.iterations else 0)
        count["objective.uncharged_evals"] += uncharged
        count["objective.uncharged_mismatch"] += uncharged != expected
        count["optimizer.iterations"] += rows
        count["optimizer.null_steps"] += sum(1 for eta in trace.eta if eta == 0.0)
        return trace

    return traced_run


def _line_search_wrapper(tracer: Tracer, practical_step):
    span = tracer.wrap("optimizer.line_search", practical_step)
    count = tracer.count

    def traced_step(*args, **kwargs):
        x_new, eta, extra = span(*args, **kwargs)
        count["optimizer.line_search_tries"] += extra // 2
        count["optimizer.line_search_queries"] += extra
        count["optimizer.line_search_accepted"] += extra > 0 and eta > 0.0
        return x_new, eta, extra

    return traced_step


def _check_wrapper(tracer: Tracer, check, check_ids):
    spans = {cid: tracer.wrap(f"theory.check.{cid}", check) for cid in check_ids}
    count = tracer.count

    def traced_check(check_id, *args, **kwargs):
        evals0 = tracer.evals()
        report = spans[check_id](check_id, *args, **kwargs)
        count["theory.mc_evals"] += tracer.evals() - evals0
        return report

    return traced_check


def _grid_wrapper(tracer: Tracer, run_grid):
    span = tracer.wrap("bench.run_grid", run_grid)
    count = tracer.count

    def traced_grid(*args, **kwargs):
        rows, summary = span(*args, **kwargs)
        errors = summary.get("errors", [])
        count["bench.runs"] += len(rows) + len(errors)
        count["bench.runs_failed"] += len(errors) + sum(
            1 for r in rows if r.queries_to_target is None)
        return rows, summary

    return traced_grid


@contextmanager
def installed(tracer: Tracer):
    """Route rankzo's internal calls through ``tracer`` for the duration."""
    import rankzo.bench as bench
    import rankzo.cli as cli
    import rankzo.optimizer as optimizer
    from rankzo.optimizer import RunTrace
    from rankzo.sampling import QueryLedger

    count = tracer.count
    read = tracer.wrap("sampling.ledger_read", QueryLedger.total_queries.fget)

    class TracedLedger(QueryLedger):
        @property
        def total_queries(self) -> int:
            return read(self)

        def charge(self, n: int) -> None:
            count["sampling.ledger_charges"] += 1
            count["sampling.queries_charged"] += n
            QueryLedger.charge(self, n)

    class TracedTrace(RunTrace):
        record = tracer.wrap("optimizer.record", RunTrace.record)
        to_csv = tracer.wrap("optimizer.trace_write", RunTrace.to_csv)

    traced_run = _run_wrapper(tracer, optimizer.run)
    patches = [
        (cli, "run", traced_run),
        (bench, "run", traced_run),
        (cli, "run_grid", _grid_wrapper(tracer, cli.run_grid)),
        (cli, "check_event", _check_wrapper(tracer, cli.check_event, cli.ALL_CHECKS)),
        (cli, "check_appendix_bounds",
         _check_wrapper(tracer, cli.check_appendix_bounds, cli.ALL_CHECKS)),
        (bench, "make_quadratic", _objective_wrapper(tracer, bench.make_quadratic)),
        (optimizer, "sample_directions",
         tracer.wrap("sampling.sample", optimizer.sample_directions)),
        (optimizer, "rank_oracle", tracer.wrap("sampling.rank_oracle", optimizer.rank_oracle)),
        (optimizer, "weights_by_name", tracer.wrap("weights.build", optimizer.weights_by_name)),
        (optimizer, "descent_direction",
         tracer.wrap("optimizer.descent_direction", optimizer.descent_direction)),
        (optimizer, "instrumented_step_size",
         tracer.wrap("optimizer.instrumented_step", optimizer.instrumented_step_size)),
        (optimizer, "practical_step", _line_search_wrapper(tracer, optimizer.practical_step)),
        (optimizer, "QueryLedger", TracedLedger),
        (optimizer, "RunTrace", TracedTrace),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    for module, attr, new in patches:
        setattr(module, attr, new)
    try:
        yield
    finally:
        for module, attr, old in saved:
            setattr(module, attr, old)


def layer_metrics(tracer: Tracer, calls: int) -> dict:
    """Per-call means of every per-layer metric, from ``calls`` traced calls."""
    from rankzo.cli import ALL_CHECKS

    s, n, c = tracer.self_s, tracer.calls, tracer.count
    rows = c["objective.batch_rows"]
    charged = c["sampling.queries_charged"]
    tries = c["optimizer.line_search_tries"]
    m = {
        "objective.batch_calls": n["objective.batch"],
        "objective.batch_rows": rows,
        "objective.batch_s": s["objective.batch"],
        "objective.fn_calls": n["objective.fn"],
        "objective.fn_s": s["objective.fn"],
        "objective.build_calls": n["objective.build"],
        "objective.build_s": s["objective.build"],
        "objective.grad_calls": n["objective.grad"],
        "objective.grad_s": s["objective.grad"],
        "objective.uncharged_evals": c["objective.uncharged_evals"],
        "objective.uncharged_mismatch": c["objective.uncharged_mismatch"],
        "sampling.sample_calls": n["sampling.sample"],
        "sampling.sample_s": s["sampling.sample"],
        "sampling.rank_oracle_calls": n["sampling.rank_oracle"],
        "sampling.rank_oracle_self_s": s["sampling.rank_oracle"],
        "sampling.ledger_reads": n["sampling.ledger_read"],
        "sampling.ledger_read_s": s["sampling.ledger_read"],
        "sampling.ledger_charges": c["sampling.ledger_charges"],
        "sampling.queries_charged": charged,
        "weights.build_calls": n["weights.build"],
        "weights.build_s": s["weights.build"],
        "optimizer.iterations": c["optimizer.iterations"],
        "optimizer.run_self_s": s["optimizer.run"],
        "optimizer.descent_direction_s": s["optimizer.descent_direction"],
        "optimizer.instrumented_step_s": s["optimizer.instrumented_step"],
        "optimizer.regime_retries": n["sampling.rank_oracle"] - c["optimizer.iterations"],
        "optimizer.line_search_s": s["optimizer.line_search"],
        "optimizer.line_search_tries": tries,
        "optimizer.null_steps": c["optimizer.null_steps"],
        "optimizer.record_s": s["optimizer.record"],
        "optimizer.trace_write_s": s["optimizer.trace_write"],
        "theory.check_self_s": sum(s[f"theory.check.{cid}"] for cid in ALL_CHECKS),
        "theory.mc_evals": c["theory.mc_evals"],
        "bench.runs": c["bench.runs"],
        "bench.runs_failed": c["bench.runs_failed"],
    }
    for cid in ALL_CHECKS:
        m[f"theory.check_s.{cid}"] = tracer.incl_s[f"theory.check.{cid}"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in s.items() if k.split(".", 1)[0] == layer)
    m = {k: v / calls for k, v in m.items()}
    # ratios of sums need no per-call division
    m["objective.batch_ns_per_row"] = 1e9 * s["objective.batch"] / rows if rows else 0.0
    m["optimizer.line_search_query_frac"] = (
        c["optimizer.line_search_queries"] / charged if charged else 0.0)
    m["optimizer.line_search_accept_ratio"] = (
        c["optimizer.line_search_accepted"] / tries if tries else 0.0)
    return m
