"""Write the golden outputs of this checkout, or compare them with a revision's.

Usage::

    python3 tools/golden.py OUT
    python3 tools/golden.py --against REV

Runs the six demos and the ``rankzo`` CLI on fixed inputs, importing
rankzo from the tree's own ``src/``, and writes every output file and
stdout under ``OUT``, and the stderr of each config in
:data:`BAD_CONFIGS` under ``OUT/config_errors``.  Timing is stripped
and nothing else: the ``wall_ms`` entry of each summary and
``wall_ms=`` in ``rankzo verify`` stdout.  Two trees that behave the
same therefore write byte-identical directories.

``--against REV`` exports the git revision ``REV`` (for example
``HEAD~1``) with ``git archive`` into a temporary directory, writes the
golden outputs of that tree and of this checkout's working tree, both
from the fixed inputs of this script, and prints ``diff -r`` of the two.
It exits 0 when they are byte-identical, 1 when they differ and 2 when
``REV`` cannot be exported.
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: backtracking with log weights, a geometric alpha and an early stop
BACKTRACKING_LOG = """\
objective.d = 32
optimizer.N = 16
optimizer.T = 400
optimizer.scheme = log
optimizer.step = backtracking
optimizer.alpha = geometric
optimizer.alpha0 = 1e-2
optimizer.gamma = 0.99
optimizer.eps = 1e-5
optimizer.seed = 5
"""

#: a fixed step on the nonconvex valley with Blom weights
ROSENBROCK_BLOM = """\
objective.kind = rosenbrock
objective.d = 8
optimizer.N = 16
optimizer.T = 300
optimizer.scheme = blom
optimizer.step = fixed
optimizer.eta0 = 0.02
optimizer.alpha = fixed
optimizer.alpha0 = 1e-3
optimizer.seed = 3
"""

#: a fixed step so large that f(x_1) overflows: the run fails at iteration
#: 1 and keeps its partial trace and a "failed" summary
DIVERGING = """\
objective.d = 8
optimizer.N = 16
optimizer.T = 50
optimizer.step = fixed
optimizer.eta0 = 1e300
optimizer.alpha = fixed
"""

#: a subset of the checks in an order unlike the suite's, so the rows
#: must come back in the requested order, not in the order they finish
VERIFY_REORDERED = """\
verify.events = spectral,E3,chi2,E1
verify.trials = 1000
verify.trials_appendix = 1000
"""

#: the quartile events inside the regime bound, at half its radius
VERIFY_BELOW_BOUND = """\
verify.events = E1,E4,E5
verify.trials = 1000
verify.alpha_scale = 0.5
"""

#: appendix checks alone, so the calling thread runs one of them, not the
#: E1..E5 pass
VERIFY_APPENDIX_ONLY = """\
verify.events = chi2,spectral,gauss_max
verify.trials_appendix = 1000
"""

#: a config with one fault per family of config error: the subcommand
#: given it and the config text; each exits 2 with a message on stderr
BAD_CONFIGS = {
    "bad_cast": ("optimize", "objective.d = 8\noptimizer.N = sixteen\noptimizer.T = 5\n"),
    "negative_seed": ("optimize", "objective.d = 8\noptimizer.N = 8\noptimizer.T = 5\n"
                                  "optimizer.seed = -1\n"),
    "dims_entry_below_one": ("bench", "bench.dims = 0,8\nbench.seeds = 1\n"
                                      "optimizer.N = 8\noptimizer.T = 5\n"),
    "empty_seeds": ("bench", "bench.dims = 8\nbench.seeds = ,\n"
                             "optimizer.N = 8\noptimizer.T = 5\n"),
    "repeated_seeds": ("bench", "bench.dims = 8\nbench.seeds = 1,1\n"
                                "optimizer.N = 8\noptimizer.T = 5\n"),
    "trials_below_minimum": ("verify", "verify.trials = 5\n"),
    "missing_iterations": ("optimize", "objective.d = 8\noptimizer.N = 8\n"),
    "unread_gamma": ("optimize", "objective.d = 8\noptimizer.N = 8\noptimizer.T = 5\n"
                                 "optimizer.alpha = instrumented\noptimizer.gamma = 0.9\n"),
    "unread_section": ("verify", "optimizer.N = 16\n"),
}

PREDICT = {
    "predict_sc": ["--d", "32", "--L", "10", "--mu", "1",
                   "--eps", "1e-6", "--alpha", "1e-4"],
    "predict_nc": ["--d", "32", "--L", "10", "--eps", "1e-3"],
}


def _run(tree: Path, argv, stream: str = "stdout") -> str:
    """Run ``argv`` against ``tree``; return its ``stream`` ("stdout" or
    "stderr") plus the exit code."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, *argv], cwd=tree, env=env,
                          capture_output=True, text=True)
    return f"{getattr(done, stream)}exit={done.returncode}\n"


def _cli(tree: Path, out: Path, command: str, *argv: str) -> None:
    out.mkdir(parents=True)
    stdout = _run(tree, ["-m", "rankzo", command, *argv, "--out", str(out)])
    # verify prints each check's wall time; everything else must repeat
    (out / "stdout.txt").write_text(re.sub(r" wall_ms=\d+", "", stdout))


def _strip_timing(out: Path) -> None:
    for path in out.rglob("*summary.json"):
        data = json.loads(path.read_text())
        data.pop("wall_ms", None)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def write_golden(tree: Path, out: Path) -> None:
    """Write the golden outputs of the source tree ``tree`` under ``out``."""
    out.mkdir(parents=True, exist_ok=False)
    shipped = tree / "demos" / "configs"

    (out / "demos").mkdir()
    for demo in sorted((tree / "demos").glob("[0-9]*.py")):
        (out / "demos" / f"{demo.stem}.txt").write_text(_run(tree, [str(demo)]))

    configs = out / "configs"
    configs.mkdir()
    for name, text in (("backtracking_log.cfg", BACKTRACKING_LOG),
                       ("rosenbrock_blom.cfg", ROSENBROCK_BLOM),
                       ("diverging.cfg", DIVERGING),
                       ("verify_reordered.cfg", VERIFY_REORDERED),
                       ("verify_below_bound.cfg", VERIFY_BELOW_BOUND),
                       ("verify_appendix_only.cfg", VERIFY_APPENDIX_ONLY)):
        (configs / name).write_text(text)

    _cli(tree, out / "optimize_quadratic", "optimize",
         "--config", str(shipped / "quadratic.cfg"))
    _cli(tree, out / "optimize_backtracking_log", "optimize",
         "--config", str(configs / "backtracking_log.cfg"))
    _cli(tree, out / "optimize_rosenbrock_blom", "optimize",
         "--config", str(configs / "rosenbrock_blom.cfg"))
    _cli(tree, out / "optimize_diverging", "optimize",
         "--config", str(configs / "diverging.cfg"))
    _cli(tree, out / "ablate_quadratic", "ablate", "--config", str(shipped / "quadratic.cfg"))
    _cli(tree, out / "bench", "bench", "--config", str(shipped / "bench.cfg"))
    _cli(tree, out / "verify_defaults", "verify")
    _cli(tree, out / "verify_config", "verify", "--config", str(shipped / "verify.cfg"))
    _cli(tree, out / "verify_reordered", "verify",
         "--config", str(configs / "verify_reordered.cfg"))
    _cli(tree, out / "verify_below_bound", "verify",
         "--config", str(configs / "verify_below_bound.cfg"))
    _cli(tree, out / "verify_appendix_only", "verify",
         "--config", str(configs / "verify_appendix_only.cfg"))
    (out / "config_errors").mkdir()
    for name, (command, text) in BAD_CONFIGS.items():
        (configs / f"{name}.cfg").write_text(text)
        (out / "config_errors" / f"{name}.txt").write_text(_run(
            tree, ["-m", "rankzo", command, "--config", str(configs / f"{name}.cfg"),
                   "--out", str(out / "config_errors" / name)], stream="stderr"))
    for name, flags in PREDICT.items():
        (out / f"{name}.txt").write_text(_run(tree, ["-m", "rankzo", "predict", *flags]))
    _strip_timing(out)


def compare_against(rev: str) -> int:
    """Diff the golden outputs of ``rev`` and of this checkout; 1 if they differ."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True)
    if archive.returncode != 0:
        print(archive.stderr.decode(errors="replace"), end="", file=sys.stderr)
        return 2
    # the diff names its two sides <label>/ and checkout/
    label = "rev-" + rev.replace("/", "_")
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        work = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(work / "tree", filter="data")
        write_golden(work / "tree", work / label)
        write_golden(ROOT, work / "checkout")
        done = subprocess.run(["diff", "-r", label, "checkout"],
                              cwd=work, capture_output=True, text=True)
    print(done.stdout, end="")
    print(f"golden outputs of {rev} and this checkout: "
          f"{'identical' if done.returncode == 0 else 'differ'}")
    return 0 if done.returncode == 0 else 1


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--against":
        return compare_against(argv[1])
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    write_golden(ROOT, Path(argv[0]).resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
