"""CLI subcommands: exit codes, output files, determinism."""

import json

import pytest

from rankzo.cli import ConfigError, main, parse_config

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


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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
        cfg = write_config(tmp_path, QUAD_CONFIG + "optimizer.N = sixteen\n")
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path)]) == 2

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
        # a huge fixed step overflows after one iteration; the rank
        # oracle then sees a non-finite value and the run fails
        cfg = write_config(tmp_path, """
objective.d = 8
optimizer.N = 16
optimizer.T = 50
optimizer.step = fixed
optimizer.eta0 = 1e300
optimizer.alpha = fixed
""")
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
        summary = json.loads((out / "summary.json").read_text())
        assert "d8_k10_N8_uniform" in summary["cells"]

    def test_missing_grid_keys_exit2(self, tmp_path):
        cfg = write_config(tmp_path, "bench.dims = 8\n")
        assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 2


ABLATE_SMALL = QUAD_CONFIG + """
optimizer.step = backtracking
optimizer.eta0 = 1.0
optimizer.alpha = fixed
optimizer.alpha0 = 1e-3
ablate.seeds = 1,2,3
ablate.eps_rel = 1e-2
optimizer.T = 200
"""


class TestAblate:
    def test_outputs(self, tmp_path):
        cfg = write_config(tmp_path, ABLATE_SMALL)
        out = tmp_path / "out"
        assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "trace_full.csv").exists()
        assert (out / "trace_positive_only.csv").exists()
        summary = json.loads((out / "ablate_summary.json").read_text())
        assert set(summary["median"]) == {"full", "positive_only"}


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

    def test_missing_required_flag_exit2(self):
        assert main(["predict", "--kind", "sc", "--d", "32"]) == 2


class TestDispatch:
    def test_unknown_subcommand_exit2(self):
        assert main(["solve"]) == 2

    def test_console_entry_importable(self):
        from rankzo.cli import build_parser
        parser = build_parser()
        assert parser.prog == "rankzo"
