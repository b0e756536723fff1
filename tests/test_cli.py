"""CLI subcommands: exit codes, output files, determinism."""

import argparse
import json
import math
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from rankzo import cli
from rankzo.bench import build_objective
from rankzo.cli import (CONFIG_KEYS, ConfigError, build_objective_from_config,
                        build_parser, build_run_config, main, parse_config)
from rankzo.optimizer import RunConfig, write_csv
from rankzo.sampling import new_generator
from rankzo.theory import (APPENDIX_IDS, EVENT_IDS, EventSetup, c_d_delta,
                           check_appendix_bounds, check_events,
                           instrumented_alpha)

REPO = Path(__file__).resolve().parent.parent

QUAD_CONFIG = """
# canonical small quadratic
objective.kind = quadratic
objective.d = 8
objective.mu = 1.0
objective.L = 10.0
objective.seed = 7

optimizer.N = 16
optimizer.T = 25
optimizer.scheme = uniform
optimizer.step = instrumented
optimizer.alpha = instrumented
optimizer.alpha_c = 1.0
optimizer.seed = 3
optimizer.delta = 0.1
optimizer.eps = 1e-6
"""


# a huge fixed step overflows after one iteration, so f(x_1) is not
# finite and the run fails
FAILING_CONFIG = """
objective.d = 8
optimizer.N = 16
optimizer.T = 50
optimizer.step = fixed
optimizer.eta0 = 1e300
optimizer.alpha = fixed
"""


def with_values(text, values):
    """``text`` with each ``key = value`` line substituted, or appended if absent."""
    for key, value in values.items():
        line = f"{key} = {value}"
        text, hits = re.subn(rf"^{re.escape(key)} = .*$", line, text, flags=re.M)
        if not hits:
            text += line + "\n"
    return text


def without(text, *keys):
    """``text`` with the lines setting any of ``keys`` removed."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if line.split(" = ")[0] not in keys)


def names_key(text, key):
    """Whether ``text`` names the config key ``key`` (not a longer key)."""
    return re.search(rf"(?<![\w.]){re.escape(key)}(?!\w)", text) is not None


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def strict_json(path):
    """Parse ``path`` the way a strict JSON parser would (no NaN/Infinity)."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(Path(path).read_text(), parse_constant=reject)


class TestParseConfig:
    def test_roundtrip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, QUAD_CONFIG))
        assert cfg["optimizer.N"] == "16"
        assert cfg["objective.kind"] == "quadratic"

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/path.cfg")

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, "optimizer.N\n"))

    @pytest.mark.parametrize("line", ["optimizer.N =", "= 16"])
    def test_empty_key_or_value(self, tmp_path, line):
        with pytest.raises(ConfigError) as exc:
            parse_config(write_config(tmp_path, f"{line}\n"))
        assert str(exc.value).endswith(":1: empty key or value")

    def test_unknown_key_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUAD_CONFIG + "optimizer.etao = 5\n")
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "'optimizer.etao'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # keys of values the library now derives or fixes, set to what they held
    @pytest.mark.parametrize("command,key,value", [
        ("optimize", "objective.curvature", "0.5"), ("verify", "verify.mu", "1.0"),
        ("verify", "verify.L", "10.0"), ("verify", "verify.objective_seed", "3"),
    ], ids=["objective.curvature", "verify.mu", "verify.L", "verify.objective_seed"])
    def test_removed_key_exit2(self, tmp_path, capsys, command, key, value):
        cfg = write_config(tmp_path, with_values(BASE_CONFIG[command], {key: value}))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_duplicate_key_exit2(self, tmp_path, capsys):
        text = QUAD_CONFIG + "optimizer.N = 32\n"
        first = text.splitlines().index("optimizer.N = 16") + 1
        second = len(text.splitlines())
        cfg = write_config(tmp_path, text)
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "'optimizer.N'" in err
        assert f":{second}:" in err and f"line {first}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("optimizer.eta0", "nan"), ("optimizer.eps", "nan"),
        ("optimizer.alpha0", "inf"),
    ])
    def test_non_finite_value_exit2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, with_values(QUAD_CONFIG, {key: value}))
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_readme_documents_every_key(self):
        readme = (REPO / "README.md").read_text()
        assert [k for k in sorted(CONFIG_KEYS) if k not in readme] == []

    @pytest.mark.parametrize("name,command", [
        ("quadratic.cfg", "optimize"), ("quadratic.cfg", "ablate"),
        ("bench.cfg", "bench"), ("verify.cfg", "verify"),
    ])
    def test_demo_configs_run(self, tmp_path, name, command):
        cfg = str(REPO / "demos" / "configs" / name)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0


class TestOptimize:
    def test_success_and_outputs(self, tmp_path):
        cfg = write_config(tmp_path, QUAD_CONFIG)
        out = tmp_path / "out"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert len(lines) == 26  # header + T rows
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] == 25
        assert summary["total_queries"] >= 25 * 16

    def test_malformed_config_exit2(self, tmp_path):
        cfg = write_config(tmp_path, "objective.kind = quadratic\n")  # no N/T
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_bad_value_exit2(self, tmp_path):
        cfg = write_config(tmp_path, with_values(QUAD_CONFIG, {"optimizer.N": "sixteen"}))
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_zero_dimension_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, with_values(QUAD_CONFIG, {"objective.d": "0"}))
        out = tmp_path / "out"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 2
        assert "d must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("named", ["optimizer.seed", "objective.seed"],
                             ids=["key", "objective_seed"])
    def test_negative_seed_exit2(self, tmp_path, capsys, named):
        cfg = write_config(tmp_path, with_values(QUAD_CONFIG, {named: "-1"}))
        out = tmp_path / "out"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 2
        assert f"{named} must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values,message", [
        ({"optimizer.scheme": "foo"}, "unknown weight scheme 'foo'"),
        ({"optimizer.eps": "2"}, "eps_target must lie in (0, 1), got 2.0"),
        ({"optimizer.eps": "0"}, "eps_target must lie in (0, 1), got 0.0"),
        ({"optimizer.eps": "-1"}, "eps_target must lie in (0, 1), got -1.0"),
    ], ids=["scheme", "eps_two", "eps_zero", "eps_negative"])
    def test_run_config_rejected_exit2(self, tmp_path, capsys, values, message):
        cfg = write_config(tmp_path, with_values(QUAD_CONFIG, values))
        out = tmp_path / "out"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unset_keys_take_library_defaults(self):
        assert (build_run_config({"optimizer.N": "16", "optimizer.T": "5"})
                == RunConfig(n=16, iterations=5))
        built = build_objective_from_config({"objective.d": "8"})
        reference = build_objective("quadratic", 8)
        assert (built.L, built.mu) == (reference.L, reference.mu)
        np.testing.assert_array_equal(built.x_star, reference.x_star)

    def test_seed_override_changes_trace(self, tmp_path):
        # optimizer.seed is the one source of the run's seed
        traces = []
        for seed in ("3", "99"):
            text = with_values(QUAD_CONFIG, {"optimizer.seed": seed})
            cfg = write_config(tmp_path, text, name=f"seed{seed}.cfg")
            out = tmp_path / seed
            assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
            traces.append((out / "trace.csv").read_text())
        assert traces[0] != traces[1]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, QUAD_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["optimize", "--config", cfg, "--out", str(out1)])
        main(["optimize", "--config", cfg, "--out", str(out2)])
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_summary_status_ok(self, tmp_path):
        cfg = write_config(tmp_path, QUAD_CONFIG)
        out = tmp_path / "out"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["status"] == "ok"

    def test_failed_run_keeps_partial_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAILING_CONFIG)
        out = tmp_path / "out"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 3
        assert ("iteration 1 failed: non-finite objective value"
                in capsys.readouterr().err)
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "t,f,fgap,gradnorm,alpha,eta,queries_cum"
        assert len(lines) == 2 and lines[1].startswith("0,")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "failed"
        assert summary["iterations"] == 1
        assert summary["total_queries"] > 0

    def test_jobs_flag_exit2(self, tmp_path, capsys):
        # only bench reads --jobs
        cfg = write_config(tmp_path, QUAD_CONFIG)
        out = tmp_path / "out"
        assert main(["optimize", "--config", cfg, "--out", str(out), "--jobs", "2"]) == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_run_summary_is_strict_json(self, tmp_path):
        cfg = write_config(tmp_path, FAILING_CONFIG)
        out = tmp_path / "out"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 3
        summary = strict_json(out / "summary.json")
        assert summary["final_f"] is None and summary["final_gap"] is None


VERIFY_SMALL = """
verify.events = E2,E3,chernoff,order_low1
verify.trials = 1000
verify.trials_appendix = 2000
verify.n = 16
verify.d = 20
verify.delta = 0.1
verify.seed = 7
"""


class TestVerify:
    def test_small_suite_passes(self, tmp_path):
        cfg = write_config(tmp_path, VERIFY_SMALL)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "reports.csv").read_text().splitlines()
        assert lines[0] == "event_id,params,trials,empirical,bound,pass"
        assert len(lines) == 5
        assert all(line.endswith("true") for line in lines[1:])

    def test_empty_event_list_exit2(self, tmp_path):
        cfg = write_config(tmp_path, "verify.events = ,\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_event_exit2(self, tmp_path):
        cfg = write_config(tmp_path, "verify.events = E7\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2

    # E1/E4/E5 hold only inside the regime bound, so no check runs; the
    # message names the first of them requested
    @pytest.mark.parametrize("events,named", [("E4", "E4"), ("all", "E1")],
                             ids=["E4", "all"])
    def test_alpha_beyond_regime_bound_exit2(self, tmp_path, capsys, events, named):
        cfg = write_config(tmp_path, with_values(VERIFY_SMALL, {
            "verify.events": events, "verify.trials_appendix": "1000",
            "verify.alpha_scale": "10.0"}))
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: verify.alpha_scale: {named}: ")
        assert "regime" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_alpha_beyond_regime_bound_leaves_other_checks_running(self, tmp_path):
        cfg = write_config(tmp_path, with_values(VERIFY_SMALL, {
            "verify.events": "E2,E3,chernoff", "verify.trials_appendix": "1000",
            "verify.alpha_scale": "10.0"}))
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in
                (out / "reports.csv").read_text().splitlines()[1:]]
        assert [(row[0], row[2]) for row in rows] == [
            ("E2", "1000"), ("E3", "1000"), ("chernoff", "1000")]

    @pytest.mark.parametrize("named,value", [
        ("verify.trials", "-5"),
        ("verify.trials_appendix", "0"),
        ("verify.n", "6"),
        ("verify.alpha_scale", "0"),
        ("verify.alpha_scale", "-1"),
        ("verify.d", "0"),
        ("verify.delta", "1.5"),
        # keys no longer read: unknown, so also rejected before any check
        ("verify.L", "-2"),
        ("verify.mu", "20"),
        ("verify.seed", "-50"),
        ("verify.seed", "-500"),
    ], ids=["trials_key_neg", "trials_appendix_0", "n_6", "alpha_scale_0",
            "alpha_scale_neg", "d_0", "delta_1.5", "L_neg", "mu_above_L",
            "seed_-50", "seed_-500"])
    def test_bad_input_exit2_before_any_check(self, tmp_path, capsys, named, value):
        cfg = write_config(tmp_path, with_values(VERIFY_SMALL, {named: value}))
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""  # no check ran
        assert not out.exists()

    def test_event_row_independent_of_other_events(self, tmp_path):
        rows = {}
        for events in ("E2", "all"):
            cfg = write_config(tmp_path, with_values(VERIFY_SMALL, {
                "verify.events": events, "verify.trials_appendix": "1000"}))
            out = tmp_path / events
            main(["verify", "--config", cfg, "--out", str(out)])
            rows[events] = [line for line in (out / "reports.csv").read_text().splitlines()
                            if line.startswith("E2,")]
        assert len(rows["E2"]) == 1 and rows["E2"] == rows["all"]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, VERIFY_SMALL)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["verify", "--config", cfg, "--out", str(out1)])
        main(["verify", "--config", cfg, "--out", str(out2)])
        assert (out1 / "reports.csv").read_bytes() == (out2 / "reports.csv").read_bytes()

    def test_stdout_reports_wall_ms(self, tmp_path, capsys):
        cfg = write_config(tmp_path, VERIFY_SMALL)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "PASS E2", "PASS E3", "PASS chernoff", "PASS order_low1"]
        for line in lines:
            wall = line.rsplit(" ", 1)[1]
            assert wall.startswith("wall_ms=") and int(wall[len("wall_ms="):]) >= 0
        # E2 and E3 share one pass, whose time is printed on E2's line
        assert lines[1].endswith(" wall_ms=0")
        assert "wall_ms" not in (out / "reports.csv").read_text()

    def test_concurrent_checks_match_serial_reference(self, tmp_path):
        # the pass on seed + 101, then each appendix check on its own
        # stream, one after another, as the README documents them
        n, d, delta, seed = 16, 20, 0.1, 7
        obj = build_objective("quadratic", d=d, seed=3)
        x = obj.x_star + new_generator(seed + 909).standard_normal(d)
        alpha = instrumented_alpha(float(np.linalg.norm(obj.grad(x))), obj.L,
                                   c_d_delta(d, delta))
        setup = EventSetup(obj=obj, x=x, alpha=alpha, n=n, delta=delta)
        reports = check_events(EVENT_IDS, setup, 1000, new_generator(seed + 101))
        reports += [check_appendix_bounds(name, None, 1000,
                                          new_generator(seed + 101 * (len(EVENT_IDS) + i + 1)))
                    for i, name in enumerate(APPENDIX_IDS)]
        reference = tmp_path / "reference.csv"
        write_csv(reference, cli.REPORT_COLUMNS,
                  [(r.event_id, r.params_string(), r.trials, r.empirical_failure_rate,
                    r.theoretical_bound, r.passed) for r in reports])

        cfg = write_config(tmp_path, with_values(VERIFY_SMALL, {
            "verify.events": "all", "verify.trials_appendix": "1000"}))
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "reports.csv").read_bytes() == reference.read_bytes()

    def test_rows_follow_requested_order(self, tmp_path, capsys):
        order = ["spectral", "E3", "chi2", "E1"]
        cfg = write_config(tmp_path, with_values(VERIFY_SMALL, {
            "verify.events": ",".join(order), "verify.trials_appendix": "1000"}))
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "reports.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == order
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"PASS {e}" for e in order]
        # the pass's time goes on its first event's line, E3
        assert lines[3].endswith(" wall_ms=0")

    @pytest.mark.parametrize("cpu_count", [2, None])
    def test_pool_without_sched_getaffinity(self, tmp_path, monkeypatch, cpu_count):
        # sched_getaffinity is Linux-only; elsewhere the pool falls back to
        # cpu_count, or to one thread when that is unknown
        cfg = write_config(tmp_path, with_values(VERIFY_SMALL, {
            "verify.events": "all", "verify.trials_appendix": "1000"}))
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpu_count)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "reports.csv").read_bytes()
                == (tmp_path / "b" / "reports.csv").read_bytes())

    def test_failing_check_exit3_and_stops_its_threads(self, tmp_path, capsys,
                                                       monkeypatch):
        real = cli.check_appendix_bounds

        def spectral_fails(which, *args):
            if which == "spectral":
                raise RuntimeError("spectral draw failed")
            return real(which, *args)

        monkeypatch.setattr(cli, "check_appendix_bounds", spectral_fails)
        cfg = write_config(tmp_path, with_values(VERIFY_SMALL, {
            "verify.events": "all", "verify.trials_appendix": "1000"}))
        out = tmp_path / "out"
        threads = threading.active_count()
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: spectral draw failed\n"
        assert threading.active_count() == threads
        assert not out.exists()


BENCH_SMALL = """
bench.dims = 8
bench.kappas = 10
bench.ns = 8
bench.schemes = uniform
bench.seeds = 1,2
bench.eps_rel = 1e-2
optimizer.N = 8
optimizer.T = 150
optimizer.step = backtracking
optimizer.eta0 = 1.0
optimizer.alpha = fixed
optimizer.alpha0 = 1e-3
"""


class TestBench:
    def test_outputs(self, tmp_path):
        cfg = write_config(tmp_path, BENCH_SMALL)
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 1 cell x 2 seeds
        summary = strict_json(out / "summary.json")
        assert "d8_k10_N8_uniform" in summary["cells"]

    # f(x_1) overflows, which make_quadratic reads as +inf; at T = 1 it is
    # the final iterate's value
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("iterations", ["50", "1"])
    def test_diverged_runs_are_errors_not_reached(self, tmp_path, iterations):
        cfg = write_config(tmp_path, with_values(FAILING_CONFIG, {
            "optimizer.N": "8", "optimizer.T": iterations, "bench.seeds": "1,2",
            "bench.eps_rel": "1e-4"}).replace("objective.d", "bench.dims"))
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "results.csv").read_text().splitlines() == [
            "config_id,seed,scheme,N,d,kappa,policy,queries_to_target,final_gap,"
            "slope,wall_ms"]
        summary = strict_json(out / "summary.json")
        assert summary["cells"] == {}
        assert summary["errors"] == [
            f"d8_k10_N8_uniform/seed={seed}: iteration 1 failed: "
            "non-finite objective value inf" for seed in (1, 2)]

    @pytest.mark.parametrize("kappas", ["10,nan", "-inf"])
    def test_non_finite_kappa_exit2(self, tmp_path, capsys, kappas):
        cfg = write_config(tmp_path, with_values(BENCH_SMALL, {"bench.kappas": kappas}))
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
        assert "'bench.kappas'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit2(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path, BENCH_SMALL)
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_batch_size_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, with_values(BENCH_SMALL, {"bench.ns": "8,6"}))
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bench.ns" in err and "divisible by 4, got 6" in err
        assert not out.exists()

    def test_unknown_scheme_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, with_values(BENCH_SMALL,
                                                 {"bench.schemes": "uniform,foo"}))
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
        assert ("config error: bench.schemes: unknown weight scheme 'foo'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_kappa_below_one_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, with_values(BENCH_SMALL, {"bench.kappas": "10,0.5"}))
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
        assert "bench.kappas must be >= 1, got 0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_nonpositive_mu_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, with_values(BENCH_SMALL, {"bench.mu": "-1"}))
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
        assert "bench.mu must be positive, got -1.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values,named,bad", [
        ({"bench.seeds": "1,-2"}, "bench.seeds", "0, got -2"),
        ({"bench.dims": "0,8"}, "bench.dims", "1, got 0"),
        ({"bench.objective_seed": "-1"}, "bench.objective_seed", "0, got -1"),
    ], ids=["seeds_entry", "dims_entry", "objective_seed"])
    def test_bad_entry_exit2_before_any_cell(self, tmp_path, capsys,
                                             values, named, bad):
        cfg = write_config(tmp_path, with_values(BENCH_SMALL, values))
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
        assert f"{named} must be >= {bad}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_grid_keys_exit2(self, tmp_path):
        cfg = write_config(tmp_path, "bench.dims = 8\n")
        assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_ns_and_schemes_default_to_optimizer_keys(self, tmp_path):
        text = with_values(without(BENCH_SMALL, "bench.ns", "bench.schemes"),
                           {"optimizer.N": "32", "optimizer.scheme": "log"})
        out = tmp_path / "out"
        assert main(["bench", "--config", write_config(tmp_path, text),
                     "--out", str(out)]) == 0
        header, *rows = (out / "results.csv").read_text().splitlines()
        columns = header.split(",")
        assert len(rows) == 2
        for row in rows:
            cell = dict(zip(columns, row.split(",")))
            assert (cell["N"], cell["scheme"]) == ("32", "log")

    @pytest.mark.parametrize("key,value,instead", [
        ("optimizer.seed", "99", "bench.seeds"),
        ("optimizer.eps", "0.5", "bench.eps_rel"),
    ], ids=["seed", "eps"])
    def test_optimizer_key_bench_sets_per_run_exit2(self, tmp_path, capsys,
                                                    key, value, instead):
        cfg = write_config(tmp_path, with_values(BENCH_SMALL, {key: value}))
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert names_key(err, key) and names_key(err, instead)
        assert not out.exists()

    @pytest.mark.parametrize("key,value,repeated", [
        ("bench.dims", "8,8", "[8]"),
        # two objectives whose cells would share one summary entry
        ("bench.kappas", "10.0000001,10.0000002", "['10']"),
        ("bench.ns", "8,8", "[8]"),
        ("bench.schemes", "uniform,uniform", "['uniform']"),
        ("bench.seeds", "1,1", "[1]"),
    ], ids=["dims", "kappas", "ns", "schemes", "seeds"])
    def test_repeated_cell_or_seed_exit2(self, tmp_path, capsys, key, value,
                                         repeated):
        cfg = write_config(tmp_path, with_values(BENCH_SMALL, {key: value}))
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {key}: repeated entries {repeated}" in err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("bench.dims", ","), ("bench.ns", "8,6"), ("bench.seeds", ","),
        ("bench.eps_rel", "2"),
    ])
    def test_error_names_only_its_key(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, with_values(BENCH_SMALL, {key: value}))
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        others = {"bench.dims", "bench.kappas", "bench.ns", "bench.schemes",
                  "bench.seeds", "bench.eps_rel"} - {key}
        assert names_key(err, key), err
        assert not any(names_key(err, other) for other in others), err
        assert not out.exists()

    def test_ns_makes_optimizer_N_optional(self, tmp_path):
        text = "bench.dims = 8\nbench.ns = 8\nbench.seeds = 1\noptimizer.T = 5\n"
        out = tmp_path / "out"
        assert main(["bench", "--config", write_config(tmp_path, text),
                     "--out", str(out)]) == 0
        header, row = (out / "results.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["N"] == "8"

    def test_neither_ns_nor_optimizer_N_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bench.dims = 8\nbench.seeds = 1\noptimizer.T = 5\n")
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
        assert "missing config key 'optimizer.N'" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_exit2(self, tmp_path, capsys):
        # each run's seed comes from bench.seeds
        cfg = write_config(tmp_path, BENCH_SMALL)
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out), "--seed", "1"]) == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not out.exists()


# neither policy is instrumented, so neither reads alpha_c or delta
# and every run takes its seed from ablate.seeds
ABLATE_SMALL = with_values(without(QUAD_CONFIG, "optimizer.alpha_c",
                                   "optimizer.delta", "optimizer.seed"), {
    "optimizer.step": "backtracking",
    "optimizer.eta0": "1.0",
    "optimizer.alpha": "fixed",
    "optimizer.alpha0": "1e-3",
    "ablate.seeds": "1,2,3",
    "ablate.eps_rel": "1e-2",
    "optimizer.T": "200",
})


class TestAblate:
    def test_outputs(self, tmp_path):
        cfg = write_config(tmp_path, ABLATE_SMALL)
        out = tmp_path / "out"
        assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "trace_full.csv").exists()
        assert (out / "trace_positive_only.csv").exists()
        summary = strict_json(out / "ablate_summary.json")
        assert set(summary["median"]) == {"full", "positive_only"}
        assert summary["status"] == "ok"

    def test_failed_run_keeps_partial_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAILING_CONFIG + "ablate.seeds = 1,2\n")
        out = tmp_path / "out"
        assert main(["ablate", "--config", cfg, "--out", str(out)]) == 3
        assert "iteration 1 failed" in capsys.readouterr().err
        lines = (out / "trace_full.csv").read_text().splitlines()
        assert lines[0] == "t,f,fgap,gradnorm,alpha,eta,queries_cum"
        assert len(lines) == 2 and lines[1].startswith("0,")
        assert not (out / "trace_positive_only.csv").exists()
        summary = strict_json(out / "ablate_summary.json")
        assert summary["status"] == "failed"
        assert summary["seeds"] == [1, 2]
        assert summary["queries_to_target"] == {"full": [], "positive_only": []}

    @pytest.mark.parametrize("seeds", ["1,-1"], ids=["seeds_entry"])
    def test_negative_seed_exit2(self, tmp_path, capsys, seeds):
        cfg = write_config(tmp_path, with_values(ABLATE_SMALL, {"ablate.seeds": seeds}))
        out = tmp_path / "out"
        assert main(["ablate", "--config", cfg, "--out", str(out)]) == 2
        assert "ablate.seeds must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_seeds_default_to_optimizer_seed(self, tmp_path):
        text = with_values(without(ABLATE_SMALL, "ablate.seeds"), {"optimizer.seed": "5"})
        out = tmp_path / "out"
        assert main(["ablate", "--config", write_config(tmp_path, text),
                     "--out", str(out)]) == 0
        assert strict_json(out / "ablate_summary.json")["seeds"] == [5]

    def test_both_seed_keys_exit2(self, tmp_path, capsys):
        # ablate.seeds replaces optimizer.seed, so setting both is ambiguous
        cfg = write_config(tmp_path, with_values(ABLATE_SMALL, {"optimizer.seed": "5"}))
        out = tmp_path / "out"
        assert main(["ablate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert names_key(err, "optimizer.seed") and names_key(err, "ablate.seeds")
        assert not out.exists()

    def test_eps_rel_outside_unit_interval_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, with_values(ABLATE_SMALL, {"ablate.eps_rel": "5"}))
        out = tmp_path / "out"
        assert main(["ablate", "--config", cfg, "--out", str(out)]) == 2
        assert "ablate.eps_rel must lie in (0, 1), got 5.0" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_seeds_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, with_values(ABLATE_SMALL, {"ablate.seeds": ","}))
        out = tmp_path / "out"
        assert main(["ablate", "--config", cfg, "--out", str(out)]) == 2
        assert "ablate.seeds is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_trials_flag_exit2(self, tmp_path, capsys):
        # no subcommand takes --trials: verify.trials sets the trial count
        cfg = write_config(tmp_path, ABLATE_SMALL)
        out = tmp_path / "out"
        assert main(["ablate", "--config", cfg, "--out", str(out), "--trials", "5"]) == 2
        assert "unrecognized arguments: --trials 5" in capsys.readouterr().err
        assert not out.exists()


#: a strongly convex prediction: --mu selects that theorem
PREDICT_SC = ["predict", "--d", "32", "--L", "10", "--mu", "1", "--eps", "1e-6"]


def predicted_t(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    return int([l for l in out.splitlines() if l.startswith("T =")][0].split("=")[1])


class TestPredict:
    def test_strongly_convex_output(self, capsys):
        rc = main(PREDICT_SC)
        assert rc == 0
        out = capsys.readouterr().out
        values = {line.split(" = ")[0]: line.split(" = ")[1]
                  for line in out.strip().splitlines()}
        assert int(values["N"]) > 0 and int(values["T"]) > 0 and int(values["Q"]) > 0
        assert int(values["Q"]) == int(values["T"]) * int(values["N"])

    def test_doubling_d_doubles_t(self, capsys):
        def t_of(d):
            return predicted_t(capsys, ["predict", "--d", str(d), "--L", "10",
                                        "--mu", "1", "--eps", "1e-6"])
        assert t_of(64) / t_of(32) == pytest.approx(2.0, rel=1e-3)

    def test_nonconvex_eps_halved_doubles_t(self, capsys):
        def t_of(eps):
            return predicted_t(capsys, ["predict", "--d", "32", "--L", "10",
                                        "--eps", eps])
        assert t_of("5e-4") / t_of("1e-3") == pytest.approx(2.0, rel=1e-3)

    def test_mu_selects_the_theorem(self, capsys):
        # with --mu the strongly convex T = ceil((d L / mu) ln(1/eps)),
        # without it the nonconvex T = ceil(d L / eps)
        argv = ["predict", "--d", "32", "--L", "10", "--eps", "1e-3"]
        assert predicted_t(capsys, argv) == 320_000
        assert predicted_t(capsys, argv + ["--mu", "2"]) == math.ceil(160 * math.log(1e3))

    def test_bad_flags_exit2(self):
        assert main(["predict", "--d", "-3", "--L", "10", "--mu", "1",
                     "--eps", "1e-6"]) == 2
        assert main(["predict", "--d", "three", "--L", "10", "--eps", "1e-6"]) == 2

    @pytest.mark.parametrize("flag,value", [
        ("--L", "inf"),
        ("--mu", "nan"),
        ("--eps", "nan"),
        ("--delta-prime", "inf"),
        ("--alpha", "nan"),
    ], ids=["L", "mu", "eps", "delta-prime", "alpha"])
    def test_non_finite_flag_exit2(self, capsys, flag, value):
        # rejected while parsing, before any prediction is computed
        assert main(PREDICT_SC + [flag, value]) == 2
        assert f"argument {flag}: must be finite" in capsys.readouterr().err

    def test_missing_required_flag_exit2(self):
        assert main(["predict", "--d", "32"]) == 2

    @pytest.mark.parametrize("flag,value,message", [
        ("--mu", "20", "mu must lie in (0, L], got 20.0"),
        ("--d", "0", "d must be positive, got 0"),
        ("--L", "-1", "L must be positive, got -1.0"),
        ("--eps", "1", "eps must lie in (0, 1), got 1.0"),
        ("--delta-prime", "0", "delta_prime must lie in (0, 1), got 0.0"),
        ("--alpha", "-1e-4", "alpha must be nonnegative, got -0.0001"),
    ], ids=["mu_above_L", "d", "L", "eps", "delta-prime", "alpha"])
    def test_error_names_only_its_flag(self, capsys, flag, value, message):
        argv = ["predict", "--d", "32", "--L", "10", "--eps", "1e-3"]
        if flag != "--mu":
            argv += ["--mu", "1"]
        assert main(argv + [f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {flag}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flags,named", [
        (["--L", "1e308", "--eps", "1e-3"], "--d, --L, --eps, --delta-prime"),
        (["--L", "10", "--mu", "1", "--eps", "1e-6", "--alpha", "1e200"],
         "--d, --L, --mu, --eps, --delta-prime, --alpha"),
    ], ids=["T", "floor"])
    def test_overflowing_prediction_exit2(self, capsys, flags, named):
        # every flag is finite; T, or a floor term, computed from them is not
        assert main(["predict", "--d", "32"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"config error: {named}: a predicted value is out "
                                "of float range\n")
        assert captured.out == ""


BASE_CONFIG = {"optimize": QUAD_CONFIG, "ablate": ABLATE_SMALL,
               "bench": BENCH_SMALL, "verify": VERIFY_SMALL}

#: for every config key: a subcommand that reads it, a value the key cannot
#: take, and any other settings under which that value is checked
BAD_VALUE = {
    "objective.kind": ("optimize", "foo", {}),
    "objective.d": ("optimize", "0", {}),
    "objective.mu": ("optimize", "-1", {}),
    "objective.L": ("optimize", "0.5", {}),
    "objective.seed": ("optimize", "-1", {}),
    "optimizer.N": ("optimize", "6", {}),
    "optimizer.T": ("optimize", "-1", {}),
    "optimizer.scheme": ("optimize", "foo", {}),
    "optimizer.step": ("optimize", "foo", {}),
    "optimizer.alpha": ("optimize", "foo", {}),
    "optimizer.eta0": ("optimize", "-1", {"optimizer.step": "fixed"}),
    "optimizer.shrink": ("optimize", "1.5", {"optimizer.step": "backtracking"}),
    "optimizer.max_tries": ("optimize", "0", {"optimizer.step": "backtracking"}),
    "optimizer.alpha0": ("optimize", "0", {"optimizer.alpha": "fixed"}),
    "optimizer.gamma": ("optimize", "1.5", {"optimizer.alpha": "geometric"}),
    "optimizer.alpha_c": ("optimize", "0", {}),
    "optimizer.seed": ("optimize", "-1", {}),
    "optimizer.delta": ("optimize", "1.5", {}),
    "optimizer.eps": ("optimize", "2", {}),
    "verify.events": ("verify", "foo", {}),
    "verify.trials": ("verify", "5", {}),
    "verify.trials_appendix": ("verify", "5", {}),
    "verify.n": ("verify", "6", {}),
    "verify.d": ("verify", "0", {}),
    "verify.delta": ("verify", "1.5", {}),
    "verify.alpha_scale": ("verify", "0", {}),
    "verify.seed": ("verify", "-1", {}),
    "bench.dims": ("bench", "0", {}),
    "bench.kappas": ("bench", "0.5", {}),
    "bench.ns": ("bench", "6", {}),
    "bench.schemes": ("bench", "foo", {}),
    "bench.seeds": ("bench", "-1", {}),
    "bench.eps_rel": ("bench", "5", {}),
    "bench.mu": ("bench", "-1", {}),
    "bench.objective_seed": ("bench", "-1", {}),
    "ablate.seeds": ("ablate", "-1", {}),
    "ablate.eps_rel": ("ablate", "5", {}),
}


class TestConfigErrors:
    def exit2_naming(self, tmp_path, capsys, command, key, values):
        cfg = write_config(tmp_path, with_values(BASE_CONFIG[command], values))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert names_key(err, key), err
        assert not out.exists()

    @pytest.mark.parametrize("command,key,value", [
        ("optimize", "objective.kind", "foo"),
        ("optimize", "optimizer.step", "foo"),
        ("optimize", "optimizer.alpha", "foo"),
        ("optimize", "optimizer.scheme", "foo"),
        ("optimize", "optimizer.eps", "2"),
        ("optimize", "optimizer.eta0", "-1"),
        ("verify", "verify.events", "foo"),
        ("bench", "bench.eps_rel", "5"),
        ("bench", "bench.seeds", ","),
    ])
    def test_library_error_names_key(self, tmp_path, capsys, command, key, value):
        self.exit2_naming(tmp_path, capsys, command, key, {key: value})

    # a key of a section the subcommand does not read, set to a value the
    # subcommands that read it accept
    @pytest.mark.parametrize("command,key,value", [
        ("optimize", "bench.dims", "8"), ("optimize", "verify.n", "16"),
        ("optimize", "ablate.seeds", "3"),
        ("ablate", "bench.dims", "8"), ("ablate", "bench.seeds", "1"),
        ("ablate", "verify.n", "16"), ("ablate", "verify.trials", "1000"),
        ("bench", "objective.d", "64"), ("bench", "objective.L", "500"),
        ("bench", "ablate.seeds", "3"), ("bench", "verify.n", "16"),
        ("verify", "optimizer.N", "64"), ("verify", "objective.d", "5"),
        ("verify", "bench.dims", "3"), ("verify", "ablate.seeds", "3"),
    ])
    def test_key_of_unread_section(self, tmp_path, capsys, command, key, value):
        self.exit2_naming(tmp_path, capsys, command, key, {key: value})

    @pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
    def test_every_key_is_read_and_named(self, tmp_path, capsys, key):
        command, value, context = BAD_VALUE[key]
        self.exit2_naming(tmp_path, capsys, command, key, {**context, key: value})

    @pytest.mark.parametrize("command,key,value", [
        ("ablate", "ablate.seeds", "1,1"),
        ("verify", "verify.events", "E2,E2,chernoff,chernoff"),
    ])
    def test_repeated_entry_exit2(self, tmp_path, capsys, command, key, value):
        self.exit2_naming(tmp_path, capsys, command, key, {key: value})

    def test_library_error_names_only_keys_set(self, tmp_path, capsys):
        # StepPolicy rejects the kind; eta0 is left to its default
        cfg = write_config(tmp_path, with_values(QUAD_CONFIG, {"optimizer.step": "foo"}))
        out = tmp_path / "out"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert names_key(err, "optimizer.step") and not names_key(err, "optimizer.eta0")
        assert not out.exists()

    # each value has one source, its config key: no flag overrides it; and
    # predict's --mu selects the theorem, so no --kind, and N takes no --c1
    @pytest.mark.parametrize("command,flag,value", [
        ("optimize", "--seed", "1"), ("ablate", "--seed", "1"),
        ("verify", "--seed", "1"), ("verify", "--trials", "1000"),
        ("predict", "--kind", "sc"), ("predict", "--c1", "1"),
    ])
    def test_override_flag_exit2(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        argv = (PREDICT_SC if command == "predict" else
                [command, "--config", write_config(tmp_path, BASE_CONFIG[command]),
                 "--out", str(out)])
        assert main(argv + [flag, value]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()


#: a config of each subcommand that sets no kind and no key only some kinds read
MINIMAL_CONFIG = {
    "optimize": "objective.d = 8\noptimizer.N = 8\noptimizer.T = 5\n",
    "ablate": "objective.d = 8\noptimizer.N = 8\noptimizer.T = 5\nablate.seeds = 1\n",
    "bench": "bench.dims = 8\nbench.seeds = 1\noptimizer.N = 8\noptimizer.T = 5\n",
}

#: a key set to a value it can take, under kinds that do not read it
UNREAD = [
    ("objective.mu", "1.0", {"objective.kind": "rosenbrock"}),
    ("objective.L", "10.0", {"objective.kind": "rosenbrock"}),
    ("objective.seed", "7", {"objective.kind": "rosenbrock"}),
    ("optimizer.eta0", "1.0", {"optimizer.step": "instrumented"}),
    ("optimizer.shrink", "0.5", {"optimizer.step": "instrumented"}),
    ("optimizer.shrink", "0.5", {"optimizer.step": "fixed"}),
    ("optimizer.max_tries", "3", {"optimizer.step": "instrumented"}),
    ("optimizer.max_tries", "3", {"optimizer.step": "fixed"}),
    ("optimizer.alpha0", "1e-3", {"optimizer.alpha": "instrumented"}),
    ("optimizer.gamma", "0.9", {"optimizer.alpha": "instrumented"}),
    ("optimizer.gamma", "0.9", {"optimizer.alpha": "fixed"}),
    ("optimizer.alpha_c", "1.0", {"optimizer.alpha": "fixed"}),
    ("optimizer.alpha_c", "1.0", {"optimizer.alpha": "geometric"}),
    ("optimizer.delta", "0.1", {"optimizer.step": "fixed",
                                "optimizer.alpha": "fixed"}),
    ("optimizer.delta", "0.1", {"optimizer.step": "backtracking",
                                "optimizer.alpha": "geometric"}),
]


def _unread_cases():
    for key, value, kinds in UNREAD:
        # bench builds its own quadratics and reads no objective.* key
        commands = ("optimize", "ablate") + (() if key.startswith("objective.")
                                             else ("bench",))
        for command in commands:
            yield pytest.param(command, key, value, kinds,
                               id=f"{command}-{key}-{'_'.join(kinds.values())}")


class TestUnreadKeys:
    @pytest.mark.parametrize("command,key,value,kinds", list(_unread_cases()))
    def test_key_no_chosen_kind_reads_exit2(self, tmp_path, capsys, command,
                                            key, value, kinds):
        text = with_values(MINIMAL_CONFIG[command], {**kinds, key: value})
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, text),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} is not read when "), err
        assert not out.exists()

    @pytest.mark.parametrize("step,alpha", [("instrumented", "fixed"),
                                            ("fixed", "instrumented")])
    def test_delta_read_by_either_instrumented_policy(self, tmp_path, step, alpha):
        text = with_values(MINIMAL_CONFIG["optimize"], {
            "optimizer.step": step, "optimizer.alpha": alpha,
            "optimizer.eta0" if step == "fixed" else "optimizer.alpha0": "1e-3",
            "optimizer.delta": "0.2"})
        out = tmp_path / "out"
        assert main(["optimize", "--config", write_config(tmp_path, text),
                     "--out", str(out)]) == 0

    def test_kind_keys_read_under_their_kind(self, tmp_path):
        text = with_values(MINIMAL_CONFIG["optimize"], {
            "objective.kind": "rosenbrock",
            "optimizer.step": "backtracking", "optimizer.eta0": "1.0",
            "optimizer.shrink": "0.5", "optimizer.max_tries": "3",
            "optimizer.alpha": "geometric", "optimizer.alpha0": "1e-3",
            "optimizer.gamma": "0.9"})
        out = tmp_path / "out"
        assert main(["optimize", "--config", write_config(tmp_path, text),
                     "--out", str(out)]) == 0


class TestDispatch:
    def test_unknown_subcommand_exit2(self):
        assert main(["solve"]) == 2

    @pytest.mark.parametrize("flag", ["-v", "--verbose"])
    @pytest.mark.parametrize("command", ["optimize", "ablate", "bench", "verify",
                                         "predict"])
    def test_verbose_flag_exit2(self, tmp_path, capsys, command, flag):
        # every result is in the output files, or on predict's stdout
        argv = (PREDICT_SC if command == "predict" else
                [command, "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "out")])
        assert main(argv + [flag]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_console_entry_importable(self):
        parser = build_parser()
        assert parser.prog == "rankzo"

    def test_readme_cli_names_exactly_the_parser_flags(self):
        # every flag a `rankzo <command>` line of the README's CLI section
        # shows, against the flags build_parser() accepts for that command
        readme = (REPO / "README.md").read_text()
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        for command, parser in subparsers.choices.items():
            shown = set()
            for line in section.splitlines():
                words = line.split("#", 1)[0].split()
                if words[:2] == ["rankzo", command]:
                    shown.update(word.strip("[]") for word in words
                                 if word.startswith(("-", "[-")))
            actions = [a for a in parser._actions
                       if not isinstance(a, argparse._HelpAction)]
            accepted = {flag for a in actions for flag in a.option_strings}
            assert shown <= accepted, (command, shown - accepted)
            unshown = [a.option_strings for a in actions
                       if not shown & set(a.option_strings)]
            assert unshown == [], (command, unshown)
