"""The names the benchmark in ``perfbench/`` reaches still exist.

The benchmark's files are parsed, never imported or run, so this stays
fast; a renamed or removed entry point fails here instead of breaking
``perfbench/run.py --trace 1`` or a workload.  The attributes the
benchmark reads off returned objects (certificate fields, flag kinds,
``ChiExpression.expr``, ...) are read here off the results of real calls.
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


def _returned_attributes():
    """(name, value) for each attribute the benchmark reads off an object the
    package returns, each read off the result of a real call."""
    H = adjoint3.DivisorExpr.symbol("H")
    entry = adjoint3.get("P3")
    p3 = entry.profile
    # K + 4H = 0 on P3 is nef and not big: a conclusive certificate with a flag
    flagged = p3.with_flags(
        adjoint3.flag("Ample", 4 * H), adjoint3.flag("Uniruled"), adjoint3.flag("Nef", 0 * H),
        replace=True,
    ).with_named_divisors(A=4 * H)
    cert = adjoint3.certify_h0_adjoint(flagged, 4 * H)
    used = cert.hypotheses_used[0]
    chi = adjoint3.chi_expression(H, p3.canonical)
    return [
        ("CatalogEntry.profile", entry.profile),
        ("ThreefoldProfile.basis", p3.basis),
        ("ThreefoldProfile.canonical", p3.canonical.items()),
        ("ThreefoldProfile.with_flags", flagged.flags),
        ("ThreefoldProfile.with_named_divisors", flagged.named_divisors["A"]),
        ("Certificate.conclusion", cert.conclusion.value),
        ("Certificate.route", cert.route),
        ("Certificate.rational_bound", cert.rational_bound),
        ("Certificate.integer_bound", cert.integer_bound),
        ("Certificate.hypotheses_used", cert.hypotheses_used),
        ("Certificate.citations", cert.citations),
        ("PositivityFlag.kind", used.kind.value),
        ("PositivityFlag.subject", used.subject),
        ("ChiExpression.expr", p3.number_eval(chi.expr)),
        ("NumberExpr.cubic_terms", chi.expr.cubic_terms),
        ("NumberExpr.c2_pairings", chi.expr.c2_pairings),
    ]


def test_attributes_read_off_returned_objects_exist():
    # the names above are reached only through returned objects, so a rename
    # breaks a workload or the tracer here rather than only in the benchmark
    got = dict(_returned_attributes())
    assert got["ThreefoldProfile.basis"] == ("H",)
    assert got["Certificate.conclusion"] == "NonVanishingExternal"
    assert got["Certificate.route"] == "nef-not-big-external"
    assert got["PositivityFlag.kind"] in {"Ample", "Nef", "Uniruled"}
    assert got["ChiExpression.expr"] == 4
    assert got["NumberExpr.cubic_terms"] and got["NumberExpr.c2_pairings"]
    conclusion = adjoint3.bounds.Conclusion
    assert conclusion.NON_VANISHING and conclusion.NON_VANISHING_EXTERNAL


def test_the_benchmark_reads_those_attributes():
    # the list above follows the benchmark: each attribute it names is read there
    read = set()
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
    for name, _ in _returned_attributes():
        assert name.rpartition(".")[2] in read, name
