"""The names the benchmark in ``perfbench/`` reaches still exist.

The benchmark's files are parsed, never imported or run, so this stays
fast; a renamed or removed entry point fails here instead of breaking
``perfbench/run.py --trace 1`` or a workload.
"""

import ast
import importlib
from pathlib import Path

import pytest

import adjoint3
from adjoint3 import ThreefoldProfile

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _tracer_table(name):
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value.elts
    raise AssertionError(f"perfbench/tracer.py defines no {name}")


def test_the_benchmark_files_are_there():
    assert (PERFBENCH / "tracer.py") in SOURCES
    assert (PERFBENCH / "workloads.py") in SOURCES


def test_traced_functions_resolve():
    for row in _tracer_table("FUNCTIONS"):
        owner, attr, _ = row.elts
        module = importlib.import_module(f"adjoint3.{owner.id}")
        assert callable(getattr(module, attr.value, None)), f"{owner.id}.{attr.value}"


def test_traced_profile_methods_resolve():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    methods = [row.elts[0].value for row in _tracer_table("METHODS")]
    # methods the tracer reads from the class dict by name, such as find_flag
    methods += [
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "__dict__"
        and isinstance(node.slice, ast.Constant)
    ]
    assert "find_flag" in methods
    for name in methods:
        assert callable(ThreefoldProfile.__dict__.get(name)), name


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_package_names_used_by_the_benchmark_exist(source):
    tree = ast.parse(source.read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "adjoint3":
            used.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "a3"
        ):
            used.add(node.attr)
    missing = sorted(name for name in used if not hasattr(adjoint3, name))
    assert not missing, f"{source.name} uses {missing}"
