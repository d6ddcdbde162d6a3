"""The value protocol every immutable type shares through `core._Record`."""

import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import adjoint3
from adjoint3 import catalog
from adjoint3.bounds import Certificate, Conclusion
from adjoint3.core import ClassExpr, DivisorExpr, NumberExpr, _Record
from adjoint3.profile import FlagKind, PositivityFlag
from adjoint3.twist import QTwistedBundle

# each builds a fresh instance, equal to but not the one built before
RECORDS = {
    "DivisorExpr": lambda: DivisorExpr({"H": 2, "E": Fraction(-1, 2)}),
    "ClassExpr": lambda: ClassExpr(2, {("H", "E"): 1, ("H", "H"): Fraction(3, 4)}, 5),
    "NumberExpr": lambda: NumberExpr({("E", "H", "H"): 2}, {"H": -1}, 3, Fraction(1, 2)),
    "PositivityFlag": lambda: PositivityFlag(FlagKind.AMPLE, DivisorExpr.symbol("H")),
    "Certificate": lambda: Certificate(
        Conclusion.NON_VANISHING,
        "route",
        Fraction(3, 2),
        2,
        (PositivityFlag(FlagKind.UNIRULED),),
        ("citation",),
    ),
    "QTwistedBundle": lambda: QTwistedBundle(
        3, ClassExpr.symbol("K"), ClassExpr.c2_atom(), ClassExpr.symbol("H") * Fraction(1, 3)
    ),
    "ThreefoldProfile": lambda: catalog.get("BlP3").profile,
}


@pytest.mark.parametrize("name", RECORDS)
def test_value_protocol(name):
    make = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert isinstance(a, _Record)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != a._fields() and a._fields() != a
    for other_name, other in RECORDS.items():
        if other_name != name:
            assert a != other()
    assert not hasattr(a, "__dict__")


def test_record_alone_defines_equality_and_hash():
    modules = [adjoint3] + [
        importlib.import_module(f"adjoint3.{info.name}")
        for info in pkgutil.iter_modules(adjoint3.__path__)
    ]
    assert len(modules) >= 10
    own = [
        f"{module.__name__}.{cls.__qualname__}.{method}"
        for module in modules
        for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == module.__name__
        for method in ("__eq__", "__hash__")
        if method in cls.__dict__
    ]
    assert own == ["adjoint3.core._Record.__eq__", "adjoint3.core._Record.__hash__"]
