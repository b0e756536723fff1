"""Write the golden outputs of this checkout into a directory.

Usage::

    python3 tools/golden.py OUT

Runs the six demos and the ``rankzo`` CLI on fixed inputs, importing
rankzo from this checkout's ``src/``, and writes every output file and
stdout under ``OUT``.  Timing is stripped and nothing else: the
``wall_ms`` entry of each summary, the ``wall_ms`` column of
``results.csv`` and ``wall_ms=`` in ``rankzo verify`` stdout.  Two trees
that behave the same therefore write byte-identical directories.  To
check a change against its parent, copy this script into a checkout of
the parent (for example a ``git worktree``), run it in both, and
``diff -r`` the two ``OUT`` directories.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "demos" / "configs"

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

PREDICT = {
    "predict_sc": ["--d", "32", "--L", "10", "--mu", "1",
                   "--eps", "1e-6", "--alpha", "1e-4"],
    "predict_nc": ["--d", "32", "--L", "10", "--eps", "1e-3"],
}


def _run(argv) -> str:
    """Run ``argv`` against this checkout; return stdout plus the exit code."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    return f"{done.stdout}exit={done.returncode}\n"


def _cli(out: Path, command: str, *argv: str) -> None:
    out.mkdir(parents=True)
    stdout = _run(["-m", "rankzo", command, *argv, "--out", str(out)])
    # verify prints each check's wall time; everything else must repeat
    (out / "stdout.txt").write_text(re.sub(r" wall_ms=\d+", "", stdout))


def _strip_timing(out: Path) -> None:
    for path in out.rglob("*summary.json"):
        data = json.loads(path.read_text())
        data.pop("wall_ms", None)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    for path in out.rglob("results.csv"):
        rows = [line.split(",") for line in path.read_text().splitlines()]
        keep = [i for i, name in enumerate(rows[0]) if name != "wall_ms"]
        path.write_text("".join(",".join(row[i] for i in keep) + "\n" for row in rows))


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=False)

    (out / "demos").mkdir()
    for demo in sorted((ROOT / "demos").glob("[0-9]*.py")):
        (out / "demos" / f"{demo.stem}.txt").write_text(_run([str(demo)]))

    configs = out / "configs"
    configs.mkdir()
    for name, text in (("backtracking_log.cfg", BACKTRACKING_LOG),
                       ("rosenbrock_blom.cfg", ROSENBROCK_BLOM),
                       ("verify_reordered.cfg", VERIFY_REORDERED),
                       ("verify_below_bound.cfg", VERIFY_BELOW_BOUND)):
        (configs / name).write_text(text)

    _cli(out / "optimize_quadratic", "optimize", "--config", str(CONFIGS / "quadratic.cfg"))
    _cli(out / "optimize_backtracking_log", "optimize",
         "--config", str(configs / "backtracking_log.cfg"))
    _cli(out / "optimize_rosenbrock_blom", "optimize",
         "--config", str(configs / "rosenbrock_blom.cfg"))
    _cli(out / "ablate_quadratic", "ablate", "--config", str(CONFIGS / "quadratic.cfg"))
    _cli(out / "bench", "bench", "--config", str(CONFIGS / "bench.cfg"))
    _cli(out / "verify_defaults", "verify")
    _cli(out / "verify_config", "verify", "--config", str(CONFIGS / "verify.cfg"))
    _cli(out / "verify_reordered", "verify",
         "--config", str(configs / "verify_reordered.cfg"))
    _cli(out / "verify_below_bound", "verify",
         "--config", str(configs / "verify_below_bound.cfg"))
    for name, flags in PREDICT.items():
        (out / f"{name}.txt").write_text(_run(["-m", "rankzo", "predict", *flags]))
    _strip_timing(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
