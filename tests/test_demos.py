"""Every demo script under demos/ runs to completion and prints its results."""

import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("[0-9]*.py"))

# demo 04's event table, frozen from the per-event checker that gave each
# event its own new_generator(11) stream; the shared pass must print it unchanged
DEMO_04_EVENTS = """\
check         trials  empirical      bound  pass
E1              2000          0        1.6  True
E2              2000          0        0.1  True
E3              2000      0.012        0.1  True
E4              2000          0    2.7e-06  True
E5              2000          0    2.7e-06  True
"""


def _stdout(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    assert _stdout(path).strip()


def test_demo_04_event_table_frozen():
    (path,) = [p for p in DEMOS if p.stem == "04_event_checks"]
    assert _stdout(path).startswith(DEMO_04_EVENTS)
