"""Every paritylab name that perfbench/*.py uses still resolves.

perfbench imports the library by name; a deletion or rename that it
depends on would otherwise surface only when the benchmark runs.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
KERNEL_NAMES = {"_kernels", "kernels"}  # names perfbench binds to paritylab._kernels


def _resolve(module: str, name: str):
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")  # a submodule


def _uses(path: Path):
    """(paritylab imports, _kernels attributes read, (callable, keywords) calls) of one file."""
    tree = ast.parse(path.read_text())
    imported, attrs, calls = {}, set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "paritylab":
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "paritylab":
                    importlib.import_module(alias.name)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in KERNEL_NAMES):
            attrs.add(node.attr)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in imported and node.keywords):
            calls.append((node.func.id, [k.arg for k in node.keywords if k.arg]))
    return imported, attrs, calls


def test_perfbench_is_scanned():
    names = {p.name for p in PERFBENCH}
    assert {"families.py", "run.py"} <= names


@pytest.mark.parametrize("path", PERFBENCH, ids=lambda p: p.name)
def test_perfbench_names_resolve(path):
    imported, attrs, calls = _uses(path)
    objects = {local: _resolve(module, name) for local, (module, name) in imported.items()}
    kernels = importlib.import_module("paritylab._kernels")
    missing = sorted(a for a in attrs if not hasattr(kernels, a))
    assert not missing, f"{path.name} reads _kernels.{missing}"
    for local, keywords in calls:
        params = inspect.signature(objects[local]).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
            continue
        unknown = sorted(set(keywords) - set(params))
        assert not unknown, f"{path.name} calls {local} with unknown keywords {unknown}"
