import ast
import importlib
import math
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mpfsim

ROOT = Path(__file__).resolve().parents[1]


def _modules():
    return [importlib.import_module(f"mpfsim.{m.name}") for m in pkgutil.iter_modules(mpfsim.__path__)]


def _readme_python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def _references(tree: ast.Module, in_src: bool) -> set[str]:
    """The identifiers a module reads: loaded names, attributes and dotted strings.

    ``__all__`` lists do not count, nor does a name that a top-level
    definition uses only inside its own body.  Imported names count outside
    ``src`` only: the package's own imports, the re-exports of
    ``mpfsim/__init__.py`` among them, are not callers.
    """
    refs = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets):
            continue
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias) and not in_src:
                found.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):  # perfbench's wrap points name attributes
                    found.update(node.value.split("."))
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.discard(stmt.name)
        refs |= found
    return refs


def test_every_exported_name_resolves():
    """A name deleted from a module but left in an export list fails here."""
    modules = _modules()
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert missing == [], f"{mod.__name__}.__all__ names missing {missing}"
    declared = {name for mod in modules for name in getattr(mod, "__all__", ())}
    reexported = {
        name
        for name, value in vars(mpfsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(reexported - declared) == []


def test_every_exported_name_has_a_caller():
    """Each ``__all__`` name is read by a program path, the benchmark, an acceptance test or the README example."""
    paths = [
        *(ROOT / "src").rglob("*.py"),
        *(ROOT / "scripts").rglob("*.py"),
        *(ROOT / "perfbench").rglob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
    refs = set()
    for path in paths:
        refs |= _references(ast.parse(path.read_text()), in_src=path.is_relative_to(ROOT / "src"))
    for block in _readme_python_blocks():
        refs |= _references(ast.parse(block), in_src=False)
    uncalled = [f"{mod.__name__}.{name}" for mod in _modules() for name in getattr(mod, "__all__", ()) if name not in refs]
    assert uncalled == []


def test_readme_library_example_runs():
    (block,) = _readme_python_blocks()
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["plan"].N == 8198
    assert math.isfinite(namespace["estimate"])


@pytest.mark.parametrize("script", sorted(path.name for path in (ROOT / "scripts").glob("*.py")))
def test_script_help_exits_zero(script):
    """Each script imports, parses its flags and prints its usage in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
