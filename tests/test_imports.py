"""What importing the package and running a command load.

The other tests import every module before they run a command, so they
cannot see a command that misses an import of its own.  The commands here
run as ``python -S -X importtime -m adjoint3.cli ...``, each in a fresh
interpreter: stdout and the exit code are the command's own, and stderr
lists every module an import statement loaded (``importlib.import_module``,
which only the package's lazy exports use, goes unlisted).  ``-S`` keeps
the site hooks of the installation out of that list.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adjoint3
from adjoint3 import get, serialize_profile

SRC = str(Path(adjoint3.__file__).resolve().parents[1])
GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())

# the package's public names by defining module, pinned when the exports
# became lazy
EXPORTED = {
    "core": (
        "CalcError", "ClassExpr", "DegreeOverflowError", "DivisorExpr", "DoubleC2AtomError",
        "NumberExpr", "Rational", "UnknownSymbolError", "expand_divisors", "expand_product",
        "format_rational", "identity_check", "rat",
    ),
    "profile": (
        "FlagContradictionError", "FlagKind", "MissingFlagError", "NonIntegerChiError",
        "PositivityFlag", "ThreefoldProfile", "flag",
    ),
    "twist": ("QTwistedBundle", "cotangent_twisted_c2", "twist_c1", "twist_c2"),
    "riemann_roch": (
        "ChiExpression", "chi_O_consistency", "chi_class", "chi_expression",
        "chi_identity_suite", "chi_line_bundle", "h0_lower_bound_from_chi",
    ),
    "bounds": (
        "BASEPOINTFREE", "BOUND_RULES", "CH02_THM42", "Certificate", "Conclusion",
        "FANO_TRIVIAL", "KA00_THM31", "MiyaokaTest", "PairingTest", "bound_bs",
        "bound_fukuma_gap", "bound_fukuma_ka", "bound_nefbig", "bs_class",
        "certify_h0_adjoint", "certify_h0_bs", "fukuma_gap_class", "fukuma_ka_class",
        "generic_nef_pairing_test", "miyaoka_c2_inequality", "miyaoka_correction",
        "nefbig_class",
    ),
    "birational": (
        "BlowupMap", "CurveCenter", "MissingCurveDegreeError", "SymbolCollisionError",
        "blow_up_curve", "blow_up_point", "blowdown_invariance_check", "pull_back",
    ),
    "catalog": (
        "CatalogEntry", "UnknownEntryError", "WitnessNotFoundError",
        "bad_anticanonical_witness", "check_expected", "get", "hypersurface", "names",
    ),
    "profile_io": (
        "DivisorParseError", "ProfileFormatError", "format_divisor", "load_profile",
        "parse_divisor", "parse_profile", "resolve_divisor", "save_profile",
        "serialize_profile",
    ),
}
EXPORTS = [(module, name) for module, names in EXPORTED.items() for name in names]

# the package modules each command leaves out, since it runs none of their code
LEFT_OUT = {
    "validate": {"adjoint3.riemann_roch", "adjoint3.birational"},
    "chi": {"adjoint3.birational"},
    "bound": {"adjoint3.riemann_roch", "adjoint3.birational"},
    "certify": {"adjoint3.riemann_roch", "adjoint3.birational"},
    "identities": {"adjoint3.birational"},
    "blowup": {"adjoint3.riemann_roch"},
    "catalog": {"adjoint3.riemann_roch", "adjoint3.birational"},
    "witness-bad-anticanonical": {"adjoint3.riemann_roch", "adjoint3.birational"},
}
# the first pinned command of each kind, and a catalog entry
_KINDS = {}
for _command in GOLDEN:
    _KINDS.setdefault(_command.split()[0], _command)
COMMANDS = [*_KINDS.values(), "catalog P3"]


def cold(args, cwd=None):
    """Run ``python -S -X importtime ARGS``; the process and the modules it imported."""
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args],
        cwd=cwd, env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=False, timeout=60,
    )
    modules, other = set(), []
    for line in proc.stderr.splitlines():
        head, _, rest = line.partition(":")
        columns = rest.split("|")
        if head == "import time" and columns[0].strip().isdigit():
            modules.add(columns[-1].strip())
        elif not (head == "import time" and "imported package" in rest):
            other.append(line)
    assert other == [], "\n".join(other)
    return proc, modules


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold")
    for name in ("P3", "Q5", "BlP3", "BlLineP3", "Pencil5"):
        (path / f"{name}.json").write_text(serialize_profile(get(name).profile))
    return path


def test_the_exports_are_pinned():
    assert sorted(adjoint3.__all__) == sorted(name for _, name in EXPORTS)
    assert len(adjoint3.__all__) == len(set(adjoint3.__all__)) == 78


@pytest.mark.parametrize("module, name", EXPORTS)
def test_each_export_is_its_defining_module_object(module, name):
    value = getattr(adjoint3, name)
    assert vars(adjoint3)[name] is value
    assert getattr(importlib.import_module(f"adjoint3.{module}"), name) is value
    if callable(value) and name != "Rational":  # core's alias of Fraction
        assert value.__module__ == f"adjoint3.{module}"


def test_import_loads_no_submodule():
    script = "import sys, adjoint3\nprint([m for m in sys.modules if m.startswith('adjoint3')])\n"
    proc, _ = cold(["-c", script])
    assert proc.returncode == 0
    assert proc.stdout == "['adjoint3']\n"


def test_first_access_binds_every_name():
    script = (
        "import sys, adjoint3\n"
        "adjoint3.rat\n"
        "assert [n for n in adjoint3.__all__ if n not in vars(adjoint3)] == []\n"
        "assert set(adjoint3.__all__) <= set(dir(adjoint3))\n"
        "print(sorted(m for m in sys.modules if m.startswith('adjoint3.')))\n"
    )
    proc, _ = cold(["-c", script])
    assert proc.returncode == 0
    assert proc.stdout == f"{sorted(f'adjoint3.{m}' for m in EXPORTED)}\n"


@pytest.mark.parametrize("command", COMMANDS)
def test_cold_command(workdir, command):
    proc, modules = cold(["-m", "adjoint3.cli", *command.split()], cwd=workdir)
    if command in GOLDEN:
        assert proc.returncode == GOLDEN[command]["exit"]
        assert proc.stdout == GOLDEN[command]["stdout"]
    else:
        assert proc.returncode == 0
        assert proc.stdout == serialize_profile(get(command.split()[1]).profile)
    assert "dataclasses" not in modules
    assert modules & LEFT_OUT[command.split()[0]] == set()
