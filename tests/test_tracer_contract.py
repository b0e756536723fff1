"""The benchmark tracer's contract with the program it traces.

``perfbench/tracer.py`` patches module globals of ``rankzo`` (the objective
maker ``rankzo.bench.make_quadratic``, ``rankzo.cli.run``, ...) rather than
editing the code it measures.  A change that renames one of those globals,
or builds objectives some other way, would leave per-layer metrics silently
at zero; these tests fail instead.  They only read ``perfbench/``.
"""

import importlib.util
from pathlib import Path

import pytest

from rankzo.cli import main

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

OPTIMIZE = """
objective.d = 8
optimizer.N = 8
optimizer.T = 20
"""

BENCH = """
bench.dims = 8
bench.seeds = 1
bench.eps_rel = 1e-2
optimizer.N = 8
optimizer.T = 100
optimizer.step = backtracking
optimizer.alpha = fixed
"""

VERIFY = """
verify.events = E2
verify.trials = 1000
verify.n = 8
verify.d = 10
"""


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: spans each subcommand must fire, with their call counts: a call site
#: that stops going through the module global it patches reads 0 here
SPANS = {
    "optimize": {"sampling.sample": 20, "optimizer.descent_direction": 20,
                 "optimizer.instrumented_step": 20},
    "bench": {"optimizer.line_search": 10},
    "verify": {},
}


@pytest.mark.parametrize("command,config,runs", [
    ("optimize", OPTIMIZE, 1), ("bench", BENCH, 1), ("verify", VERIFY, 0),
], ids=["optimize", "bench", "verify"])
def test_each_subcommand_is_traced(tmp_path, tracer_module, command, config, runs):
    path = tmp_path / "run.cfg"
    path.write_text(config)
    tracer = tracer_module.Tracer()
    with tracer_module.installed(tracer):
        rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    # every objective comes from rankzo.bench.make_quadratic, and its
    # evaluations reach the wrapped fn/batch_fn
    assert tracer.calls["objective.build"] == 1
    assert tracer.evals() > 0
    assert tracer.calls["optimizer.run"] == runs
    assert tracer.count["objective.uncharged_mismatch"] == 0
    if runs:
        assert tracer.calls["sampling.rank_oracle"] > 0
        assert tracer.count["sampling.queries_charged"] > 0
    assert {span: tracer.calls[span] for span in SPANS[command]} == SPANS[command]
    if command == "bench":
        # optimizer.practical_step returns three values, the third the
        # number of queries it made: all that is charged beyond the rank
        # oracle's batch rows
        assert (tracer.count["optimizer.line_search_queries"]
                == tracer.count["sampling.queries_charged"]
                - tracer.count["objective.batch_rows"])

