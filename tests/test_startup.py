"""Start-up cost and the standard-library normal CDF and quantile.

rankzo needs nothing heavier than numpy at import time; scipy is only a
reference here, for the agreement tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rankzo.theory import P_TAIL_EXACT, _normal_cdf
from rankzo.weights import weights_by_name

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_scipy_or_multiprocessing():
    code = (
        "import sys, rankzo, rankzo.cli\n"
        "heavy = ('scipy', 'concurrent.futures.process', 'multiprocessing')\n"
        "print(sorted(m for m in sys.modules\n"
        "             if any(m == h or m.startswith(h + '.') for h in heavy)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_p_tail_exact_value():
    assert P_TAIL_EXACT == 0.02275013194817921


def test_normal_cdf_at_zero_is_exactly_half():
    assert _normal_cdf(0.0) == 0.5


def test_normal_cdf_matches_scipy():
    special = pytest.importorskip("scipy.special")
    x = np.linspace(-8.0, 8.0, 1601)
    phi = np.array([_normal_cdf(v) for v in x])
    np.testing.assert_allclose(phi, special.ndtr(x), rtol=5e-14, atol=0)


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_blom_weights_match_scipy_quantile(n):
    special = pytest.importorskip("scipy.special")
    k = np.arange(1, n + 1)
    mag = np.abs(special.ndtri((k - 0.375) / (n + 0.25)))
    plus, minus = mag[: n // 4], mag[3 * n // 4:]
    np.testing.assert_allclose(weights_by_name("blom", n),
                               np.concatenate([plus / plus.sum(), -minus / minus.sum()]),
                               rtol=1e-14, atol=0)
