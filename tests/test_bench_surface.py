"""The package names the benchmark harness under ``bench/`` looks up.

``bench/tracing.py`` patches every ``OP_KINDS`` op of ``tensorad`` and every
``SPAN_FUNCTIONS`` entry by name with ``getattr``, and the bench modules
import package names and read module attributes. Removing or renaming any of
them breaks every traced bench run while the rest of this suite still
passes, so these tests read the names from the bench sources with ``ast``
(importing nothing from ``bench/``) and check that each one exists.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
BENCH_FILES = sorted(BENCH_DIR.glob("*.py"))


def _tree(name):
    return ast.parse((BENCH_DIR / name).read_text(encoding="utf-8"))


def _assigned(tree, name):
    """The expression node assigned to the module-level ``name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"no module-level assignment to {name}")


def _package_modules(tree):
    """Local name -> package module for every ``rewardtune`` module import."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "rewardtune":
            for alias in node.names:
                out[alias.asname or alias.name] = f"rewardtune.{alias.name}"
    return out


def _imported_names(tree):
    """(module, name) for every ``from rewardtune.<module> import name``."""
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.startswith("rewardtune.")
            for alias in node.names]


def _module_attributes(tree):
    """(module, attribute) for every ``<module alias>.<attribute>`` read."""
    modules = _package_modules(tree)
    return sorted({(modules[node.value.id], node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules})


def test_bench_sources_found():
    assert {p.name for p in BENCH_FILES} >= {"tracing.py", "workloads.py"}


def test_op_kinds_exist_in_tensorad():
    ta = importlib.import_module("rewardtune.tensorad")
    kinds = ast.literal_eval(_assigned(_tree("tracing.py"), "OP_KINDS"))
    assert kinds
    missing = [k for k in kinds if not callable(getattr(ta, k, None))]
    assert not missing, f"OP_KINDS names no tensorad op: {missing}"


def test_span_functions_exist():
    tree = _tree("tracing.py")
    modules = _package_modules(tree)
    entries = _assigned(tree, "SPAN_FUNCTIONS").elts
    assert entries
    missing = []
    for entry in entries:
        module, fn_name = entry.elts[0].id, ast.literal_eval(entry.elts[1])
        if not callable(getattr(importlib.import_module(modules[module]), fn_name, None)):
            missing.append(f"{modules[module]}.{fn_name}")
    assert not missing, f"SPAN_FUNCTIONS names no package function: {missing}"


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_imported_package_names_exist(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = [f"{module}.{name}" for module, name in _imported_names(tree)
               if not hasattr(importlib.import_module(module), name)]
    for module in _package_modules(tree).values():
        importlib.import_module(module)
    assert not missing, f"{path.name} imports missing names: {missing}"


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_module_attributes_read_exist(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = [f"{module}.{attr}" for module, attr in _module_attributes(tree)
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, f"{path.name} reads missing attributes: {missing}"
