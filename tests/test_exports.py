"""Export consistency: every ``__all__`` entry resolves, every name the
package re-exports is public in the module that defines it, and the
README's quickstart runs and names only what exists."""

import ast
import importlib
import inspect
import pkgutil
import re
import types
from pathlib import Path

import pytest

import rankzo

README = Path(__file__).resolve().parent.parent / "README.md"

MODULES = sorted(f"rankzo.{m.name}" for m in pkgutil.iter_modules(rankzo.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def _assigned_names(module_name):
    """Names bound by a top-level assignment in the module's source."""
    tree = ast.parse(inspect.getsource(importlib.import_module(module_name)))
    names = set()
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _defining_module(name, value):
    module = getattr(value, "__module__", None)
    if module is not None:
        return module
    # a plain constant carries no __module__: it is defined where it is assigned
    owners = [m for m in MODULES if name in _assigned_names(m)]
    assert len(owners) == 1, f"rankzo.{name} is assigned in {owners}"
    return owners[0]


def test_reexports_are_public_where_defined():
    public = {name: value for name, value in vars(rankzo).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public
    stray = []
    for name, value in public.items():
        module = importlib.import_module(_defining_module(name, value))
        if name not in getattr(module, "__all__", ()):
            stray.append(f"{name} ({module.__name__})")
    assert stray == []


@pytest.mark.parametrize("name", MODULES)
def test_no_private_cross_module_imports(name):
    """A module reaches another rankzo module only through its public names."""
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("rankzo"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _resolve(dotted):
    """The object a dotted ``rankzo.``/``rz.`` name refers to."""
    parts = dotted.split(".")
    obj, path = rankzo, "rankzo"
    for part in parts[1:]:
        path += "." + part
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(path)
    return obj


def test_readme_quickstart_runs_and_names_resolve():
    text = README.read_text()
    quickstart = text.split("## Library quickstart\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", quickstart, re.S).group(1)
    exec(compile(block, "README quickstart", "exec"), {})
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    names = {name for span in re.findall(r"`([^`]+)`", prose)
             for name in re.findall(r"(?<![\w.])(?:rz|rankzo)(?:\.\w+)+", span)}
    assert names
    unresolved = []
    for name in sorted(names):
        try:
            _resolve(name)
        except (AttributeError, ImportError):
            unresolved.append(name)
    assert unresolved == []
