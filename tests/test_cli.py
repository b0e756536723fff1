"""CLI subcommands: exit codes, output files, determinism."""

import inspect
import json
import re
from pathlib import Path

import pytest

from rankzo import cli
from rankzo.cli import CONFIG_KEYS, ConfigError, main, parse_config

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


# a huge fixed step overflows after one iteration; the rank oracle then
# sees a non-finite value and the run fails
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

    def test_unknown_key_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUAD_CONFIG + "optimizer.etao = 5\n")
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "'optimizer.etao'" in capsys.readouterr().err
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

    def test_known_keys_are_the_keys_read(self):
        read = set(re.findall(r'_get\(cfg, "([^"]+)"', inspect.getsource(cli)))
        assert read == CONFIG_KEYS

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

    @pytest.mark.parametrize("values,flags,named", [
        ({"optimizer.seed": "-1"}, [], "optimizer.seed"),
        ({}, ["--seed", "-1"], "--seed"),
        ({"objective.seed": "-1"}, [], "objective.seed"),
    ], ids=["key", "flag", "objective_seed"])
    def test_negative_seed_exit2(self, tmp_path, capsys, values, flags, named):
        cfg = write_config(tmp_path, with_values(QUAD_CONFIG, values))
        out = tmp_path / "out"
        assert main(["optimize", "--config", cfg, "--out", str(out)] + flags) == 2
        assert f"{named} must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_changes_trace(self, tmp_path):
        cfg = write_config(tmp_path, QUAD_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["optimize", "--config", cfg, "--out", str(out1)])
        main(["optimize", "--config", cfg, "--out", str(out2), "--seed", "99"])
        assert (out1 / "trace.csv").read_text() != (out2 / "trace.csv").read_text()

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
        assert "iteration 1 failed" in capsys.readouterr().err
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

    def test_adversarial_alpha_fails_exit1(self, tmp_path):
        cfg = write_config(tmp_path, """
verify.events = E4
verify.trials = 1000
verify.n = 16
verify.d = 20
verify.delta = 0.1
verify.alpha_scale = 10.0
""")
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        report_line = (out / "reports.csv").read_text().splitlines()[1]
        assert report_line.startswith("E4") and report_line.endswith("false")

    @pytest.mark.parametrize("values,flags,named", [
        ({}, ["--trials", "0"], "--trials"),
        ({}, ["--trials", "500"], "--trials"),
        ({"verify.trials": "-5"}, [], "verify.trials"),
        ({"verify.trials_appendix": "0"}, [], "verify.trials_appendix"),
        ({"verify.n": "6"}, [], "verify.n"),
        ({"verify.alpha_scale": "0"}, [], "verify.alpha_scale"),
        ({"verify.alpha_scale": "-1"}, [], "verify.alpha_scale"),
        ({"verify.d": "0"}, [], "verify.d"),
        ({"verify.delta": "1.5"}, [], "verify.delta"),
        ({"verify.L": "-2"}, [], "verify.L"),
        ({"verify.mu": "20"}, [], "verify.mu"),
        ({"verify.seed": "-50"}, [], "verify.seed"),
        ({"verify.seed": "-500"}, [], "verify.seed"),
        ({}, ["--seed", "-1"], "--seed"),
    ], ids=["trials_flag_0", "trials_flag_500", "trials_key_neg",
            "trials_appendix_0", "n_6", "alpha_scale_0", "alpha_scale_neg",
            "d_0", "delta_1.5", "L_neg", "mu_above_L", "seed_-50", "seed_-500",
            "seed_flag_neg"])
    def test_bad_input_exit2_before_any_check(self, tmp_path, capsys,
                                              values, flags, named):
        cfg = write_config(tmp_path, with_values(VERIFY_SMALL, values))
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)] + flags) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""  # no check ran
        assert not out.exists()

    def test_precondition_failures_leave_other_events_running(self, tmp_path):
        cfg = write_config(tmp_path, with_values(VERIFY_SMALL, {
            "verify.events": "all", "verify.trials_appendix": "1000",
            "verify.alpha_scale": "10.0"}))
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        rows = {line.split(",")[0]: line.split(",")
                for line in (out / "reports.csv").read_text().splitlines()[1:]}
        assert len(rows) == 11
        for event in ("E1", "E4", "E5"):
            assert rows[event][1:3] == ["precondition_error=1", "0"]
            assert rows[event][-1] == "false"
        for event in ("E2", "E3"):
            assert rows[event][2] == "1000"

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

    @pytest.mark.parametrize("values,flags,named,bad", [
        ({"bench.seeds": "1,-2"}, [], "bench.seeds", "0, got -2"),
        ({}, ["--seed", "-1"], "--seed", "0, got -1"),
        ({"bench.dims": "0,8"}, [], "bench.dims", "1, got 0"),
        ({"bench.objective_seed": "-1"}, [], "bench.objective_seed", "0, got -1"),
    ], ids=["seeds_entry", "seed_flag", "dims_entry", "objective_seed"])
    def test_bad_entry_exit2_before_any_cell(self, tmp_path, capsys,
                                             values, flags, named, bad):
        cfg = write_config(tmp_path, with_values(BENCH_SMALL, values))
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)] + flags) == 2
        assert f"{named} must be >= {bad}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_grid_keys_exit2(self, tmp_path):
        cfg = write_config(tmp_path, "bench.dims = 8\n")
        assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 2


ABLATE_SMALL = with_values(QUAD_CONFIG, {
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

    @pytest.mark.parametrize("values,flags,named", [
        ({"ablate.seeds": "1,-1"}, [], "ablate.seeds"),
        ({}, ["--seed", "-1"], "--seed"),
    ], ids=["seeds_entry", "seed_flag"])
    def test_negative_seed_exit2(self, tmp_path, capsys, values, flags, named):
        cfg = write_config(tmp_path, with_values(ABLATE_SMALL, values))
        out = tmp_path / "out"
        assert main(["ablate", "--config", cfg, "--out", str(out)] + flags) == 2
        assert f"{named} must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_trials_flag_exit2(self, tmp_path, capsys):
        # only verify reads --trials
        cfg = write_config(tmp_path, ABLATE_SMALL)
        out = tmp_path / "out"
        assert main(["ablate", "--config", cfg, "--out", str(out), "--trials", "5"]) == 2
        assert "unrecognized arguments: --trials 5" in capsys.readouterr().err
        assert not out.exists()


class TestPredict:
    def test_strongly_convex_output(self, capsys):
        rc = main(["predict", "--kind", "sc", "--d", "32", "--L", "10",
                   "--mu", "1", "--eps", "1e-6"])
        assert rc == 0
        out = capsys.readouterr().out
        values = {line.split(" = ")[0]: line.split(" = ")[1]
                  for line in out.strip().splitlines()}
        assert int(values["N"]) > 0 and int(values["T"]) > 0 and int(values["Q"]) > 0
        assert int(values["Q"]) == int(values["T"]) * int(values["N"])

    def test_doubling_d_doubles_t(self, capsys):
        def t_of(d):
            main(["predict", "--kind", "sc", "--d", str(d), "--L", "10",
                  "--mu", "1", "--eps", "1e-6"])
            out = capsys.readouterr().out
            return int([l for l in out.splitlines() if l.startswith("T =")][0]
                       .split("=")[1])
        assert t_of(64) / t_of(32) == pytest.approx(2.0, rel=1e-3)

    def test_nonconvex_eps_halved_doubles_t(self, capsys):
        def t_of(eps):
            main(["predict", "--kind", "nc", "--d", "32", "--L", "10",
                  "--eps", eps])
            out = capsys.readouterr().out
            return int([l for l in out.splitlines() if l.startswith("T =")][0]
                       .split("=")[1])
        assert t_of("5e-4") / t_of("1e-3") == pytest.approx(2.0, rel=1e-3)

    def test_bad_flags_exit2(self):
        assert main(["predict", "--kind", "sc", "--d", "-3", "--L", "10",
                     "--mu", "1", "--eps", "1e-6"]) == 2
        assert main(["predict", "--kind", "huh", "--d", "3", "--L", "10",
                     "--eps", "1e-6"]) == 2

    @pytest.mark.parametrize("kind,flag,value", [
        ("sc", "--L", "inf"),
        ("nc", "--mu", "nan"),
        ("sc", "--eps", "nan"),
        ("sc", "--delta-prime", "inf"),
        ("sc", "--alpha", "nan"),
        ("sc", "--c1", "inf"),
    ], ids=["L", "mu", "eps", "delta-prime", "alpha", "c1"])
    def test_non_finite_flag_exit2(self, capsys, kind, flag, value):
        # rejected while parsing, before any prediction is computed
        argv = ["predict", "--kind", kind, "--d", "32", "--L", "10",
                "--mu", "1", "--eps", "1e-6"]
        assert main(argv + [flag, value]) == 2
        assert f"argument {flag}: must be finite" in capsys.readouterr().err

    def test_missing_required_flag_exit2(self):
        assert main(["predict", "--kind", "sc", "--d", "32"]) == 2


class TestDispatch:
    def test_unknown_subcommand_exit2(self):
        assert main(["solve"]) == 2

    def test_console_entry_importable(self):
        from rankzo.cli import build_parser
        parser = build_parser()
        assert parser.prog == "rankzo"
