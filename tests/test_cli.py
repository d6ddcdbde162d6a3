import contextlib
import copy
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adjoint3
from adjoint3 import birational, bounds, catalog, cli, get, parse_profile, serialize_profile
from adjoint3.cli import main
from conftest import assert_canonical_fields

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())
GOLDEN_HELP = json.loads(Path(__file__).with_name("golden_help.json").read_text())
PARSE = "DivisorParseError"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@contextlib.contextmanager
def all_digits():
    """Let int() and str() convert integers of any length, as `main` does."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.json"
    path.write_text(serialize_profile(get("P3").profile), encoding="utf-8")
    return str(path)


@pytest.fixture
def corrupt_file(tmp_path):
    profile = get("P3").profile
    obj = json.loads(serialize_profile(profile))
    obj["chi_O"] = "2/1"  # breaks the canonical-c2 pairing
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


class TestValidate:
    def test_clean_profile(self, capsys, p3_file):
        code, out = run(capsys, "validate", p3_file)
        report = json.loads(out)
        assert code == 0
        assert report["result"]["valid"] is True
        assert report["violations"] == []

    def test_corrupt_profile(self, capsys, corrupt_file):
        code, out = run(capsys, "validate", corrupt_file)
        report = json.loads(out)
        assert code == 1
        assert any("chiox" in v for v in report["violations"])

    @pytest.mark.parametrize(
        "field, value, message",
        [
            pytest.param("named_divisors", {"b": "1/1*H + 1/1*Y", "a": "1/1*X"},
                         "unknown symbol 'X' in named divisor 'a'", id="named-divisor"),
            pytest.param("flags", [{"kind": "Nef", "subject": "2/1*X"},
                                   {"kind": "Big", "subject": "1/1*H + 1/1*Y"}],
                         "unknown symbol 'Y' in flag Big(H + Y)", id="flag-subject"),
        ],
    )
    def test_off_basis_symbol_is_malformed_input(self, capsys, tmp_path, field, value, message):
        # once a violation with exit 1; now no profile holds such a symbol
        obj = json.loads(serialize_profile(get("P3").profile))
        obj[field] = value
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        for argv in (
            ["validate", str(path)],
            ["chi", str(path), "--divisor", "H"],
            ["blowup", str(path), "--point", "--symbol", "E"],
        ):
            code, out = run(capsys, *argv)
            assert code == 2
            error = {"type": "ProfileFormatError", "message": message}
            assert json.loads(out)["error"] == error

    def test_repeated_basis_symbol_is_malformed_input(self, capsys, tmp_path):
        # once reported as a duplicate triple record of the repeated symbol
        obj = json.loads(serialize_profile(get("P3").profile))
        obj["basis"] = ["H", "H"]
        obj["c2"] = ["6/1", "0/1"]
        obj["triple"].append({"i": 1, "j": 1, "k": 1, "value": "1/1"})
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, out = run(capsys, "validate", str(path))
        assert code == 2
        error = {"type": "ProfileFormatError", "message": "basis symbols must be distinct"}
        assert json.loads(out)["error"] == error

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, out = run(capsys, "validate", str(bad))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ProfileFormatError"

    def test_deeply_nested_json(self, capsys, tmp_path):
        # json.loads once raised a RecursionError traceback with exit 1
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000, encoding="utf-8")
        code, out = run(capsys, "validate", str(deep))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ProfileFormatError"

    def test_json_array_is_not_a_profile(self, capsys, tmp_path):
        path = tmp_path / "array.json"
        path.write_text(json.dumps([json.loads(serialize_profile(get("P3").profile))]))
        code, out = run(capsys, "validate", str(path))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ProfileFormatError"

    def test_bytes_that_are_not_utf8(self, capsys, tmp_path):
        # reading the file once raised a UnicodeDecodeError traceback with exit 1
        binary = tmp_path / "binary.json"
        binary.write_bytes(serialize_profile(get("P3").profile).encode().replace(b"H", b"\xff", 1))
        code, out = run(capsys, "validate", str(binary))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ProfileFormatError"

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("1.5", id="decimal"),
            pytest.param(" 1 ", id="padded"),
            pytest.param("1e2", id="exponent"),
        ],
    )
    @pytest.mark.parametrize("field", ["chi_O", "c2", "triple"])
    def test_inexact_rational_in_profile(self, capsys, tmp_path, field, text):
        # each once read silently as 3/2, 1 and 100
        obj = json.loads(serialize_profile(get("P3").profile))
        if field == "triple":
            obj["triple"][0]["value"] = text
        else:
            obj[field] = [text] if field == "c2" else text
        path = tmp_path / "inexact.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, out = run(capsys, "validate", str(path))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ProfileFormatError"

    @pytest.mark.parametrize("symbol", ["\u00c9", "E 1", "1E"])
    def test_basis_symbol_outside_the_grammar(self, capsys, tmp_path, symbol):
        # such a basis once validated, and its file did not read back
        obj = json.loads(serialize_profile(get("P3").profile))
        obj["basis"] = [symbol]
        path = tmp_path / "symbol.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, out = run(capsys, "validate", str(path))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ProfileFormatError"

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda o: o["triple"][0].update(i=0.7), id="fractional-index"),
            pytest.param(lambda o: o["triple"][0].update(i="0"), id="string-index"),
            pytest.param(lambda o: o["triple"][0].update(i=False), id="boolean-index"),
            pytest.param(
                lambda o: o["triple"].append({"i": 0, "j": 0, "k": 0, "value": "11/1"}),
                id="duplicate-record",
            ),
            pytest.param(lambda o: o["named_divisors"].update(H=1), id="named-divisor-number"),
            pytest.param(lambda o: o["flags"][0].update(subject=3), id="flag-subject-number"),
            pytest.param(
                lambda o: o["named_divisors"].update(H="1/0*H"), id="named-divisor-zero-denominator"
            ),
            pytest.param(lambda o: o["flags"][0].update(subject="1/0*H"), id="flag-subject-zero-denominator"),
            pytest.param(lambda o: o.update(flags=5), id="flags-not-a-list"),
            pytest.param(lambda o: o.update(triple={}), id="triple-not-a-list"),
            pytest.param(lambda o: o.update(chi_O=True), id="boolean-chi_O"),
            pytest.param(lambda o: o.update(c2=[True]), id="boolean-c2"),
            pytest.param(lambda o: o["triple"][0].update(value=True), id="boolean-triple-value"),
            pytest.param(lambda o: o.update(bogus=1), id="unknown-field"),
        ],
    )
    def test_malformed_profile_is_rejected(self, capsys, tmp_path, corrupt):
        # each defect once passed silently (or crashed); all must exit 2
        obj = json.loads(serialize_profile(get("P3").profile))
        corrupt(obj)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, out = run(capsys, "chi", str(path), "--divisor", "H")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ProfileFormatError"

    @pytest.mark.parametrize("command", [["validate"], ["chi", "--divisor", "H"]])
    def test_unsorted_record_is_rejected(self, capsys, tmp_path, command):
        # once read as E.H^2 = 5 and written back as the record (0, 0, 1)
        obj = json.loads(serialize_profile(get("BlP3").profile))
        obj["triple"].append({"i": 1, "j": 0, "k": 0, "value": "5/1"})
        path = tmp_path / "unsorted.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, out = run(capsys, command[0], str(path), *command[1:])
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ProfileFormatError"
        assert error["message"].startswith("triple indices must be sorted, i <= j <= k")

    @pytest.mark.parametrize(
        "argv, error",
        [
            pytest.param(["blowup", "P3.json", "--curve", "g=x,deg=H:1"], PARSE, id="genus-not-integer"),
            pytest.param(["blowup", "P3.json", "--curve", "g=-1,deg=H:1"], PARSE, id="genus-negative"),
            pytest.param(["blowup", "P3.json", "--curve", "g=0,deg=H:abc"], PARSE, id="degree-not-rational"),
            pytest.param(["blowup", "P3.json", "--curve", "g=0,deg=H:1/0"], PARSE, id="degree-zero-denominator"),
            pytest.param(["witness-bad-anticanonical", "Pencil5.json", "--eps", "abc"], PARSE, id="eps-not-rational"),
            pytest.param(["witness-bad-anticanonical", "Pencil5.json", "--eps", "1/0"], PARSE, id="eps-zero-denominator"),
            pytest.param(["witness-bad-anticanonical", "Pencil5.json", "--eps", "0"], PARSE, id="eps-zero"),
            pytest.param(["witness-bad-anticanonical", "Pencil5.json", "--eps=-1/2"], PARSE, id="eps-negative"),
            pytest.param(["blowup", "P3.json", "--curve", "g=0,deg=H:1.5"], PARSE, id="degree-decimal"),
            pytest.param(["blowup", "P3.json", "--curve", "g=0,deg=H:1e2"], PARSE, id="degree-exponent"),
            pytest.param(["witness-bad-anticanonical", "Pencil5.json", "--eps", "0.5"], PARSE, id="eps-decimal"),
            pytest.param(["witness-bad-anticanonical", "Pencil5.json", "--eps", " 1/2 "], PARSE, id="eps-padded"),
            pytest.param(["witness-bad-anticanonical", "Pencil5.json", "--eps", "1e-1"], PARSE, id="eps-exponent"),
            pytest.param(["blowup", "P3.json", "--curve", "g=1_0,deg=H:1"], PARSE, id="genus-underscore"),
            pytest.param(["blowup", "P3.json", "--curve", "g= 2,deg=H:1"], PARSE, id="genus-padded"),
            pytest.param(["blowup", "P3.json", "--curve", "g=+1,deg=H:1"], PARSE, id="genus-plus-sign"),
            pytest.param(["blowup", "P3.json", "--curve", "g=\u0663,deg=H:1"], PARSE, id="genus-non-ascii-digit"),
            pytest.param(["blowup", "P3.json", "--curve", "g=0,g=1,deg=H:1"], PARSE, id="genus-repeated"),
            pytest.param(["blowup", "P3.json", "--curve", "g=0,deg=H:1,deg=H:2"], PARSE, id="degrees-repeated"),
            pytest.param(["blowup", "P3.json", "--curve", "g=0,deg=H:1;H:2"], PARSE, id="degree-symbol-repeated"),
            pytest.param(["blowup", "P3.json", "--curve", "g=0,deg=:1"], PARSE, id="degree-symbol-empty"),
            pytest.param(["blowup", "P3.json", "--curve", "deg=H:1"], PARSE, id="genus-missing"),
            pytest.param(["bound", "P3.json", "--divisor", "H", "--rule", "miyaoka", "--ample", ""], PARSE, id="miyaoka-ample-empty"),
            pytest.param(["blowup", "P3.json", "--curve", "g=0,deg=H:\u0663"], PARSE, id="degree-non-ascii-digit"),
            pytest.param(["witness-bad-anticanonical", "Pencil5.json", "--eps", "\u0663"], PARSE, id="eps-non-ascii-digit"),
            pytest.param(["chi", "P3.json", "--divisor", "\u0663H"], PARSE, id="divisor-non-ascii-digit"),
            pytest.param(["blowup", "P3.json", "--curve", "g=0,deg=X:1"], "UnknownSymbolError", id="degree-unknown-symbol"),
        ],
    )
    def test_malformed_command_line_number(self, capsys, tmp_path, monkeypatch, argv, error):
        # each once escaped as a traceback with exit 1, or (eps <= 0) was scanned,
        # or (an unknown degree symbol) was reported as a missing degree with exit 1
        monkeypatch.chdir(tmp_path)
        for name in ("P3", "Pencil5"):
            Path(f"{name}.json").write_text(serialize_profile(get(name).profile))
        code, out = run(capsys, *argv, *(["--symbol", "E"] if argv[0] == "blowup" else []))
        assert code == 2
        report = json.loads(out)
        assert report["command"] == argv[0]
        assert report["error"]["type"] == error


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, command, message",
        [
            pytest.param(
                ["witness-bad-anticanonical", "f.json", "--eps", "-1/2"],
                "witness-bad-anticanonical",
                "unrecognized arguments: -1/2",
                id="negative-value-after-a-space",
            ),
            pytest.param(
                ["chi", "f.json", "--divisor", "H", "--jobs", "2"],
                "chi",
                "unrecognized arguments: --jobs 2",
                id="unknown-option",
            ),
            pytest.param(
                ["chi", "f.json"],
                "chi",
                "the following arguments are required: --divisor",
                id="missing-divisor",
            ),
            pytest.param(
                ["frobnicate", "f.json"],
                "frobnicate",
                "argument command: invalid choice: 'frobnicate'",
                id="unknown-command",
            ),
            pytest.param([], None, "the following arguments are required: command", id="no-command"),
            pytest.param(
                ["bound", "f.json", "--divisor", "5H", "--rule", "nefbig", "--ample", "2H"],
                "bound",
                "argument --ample: only --rule miyaoka takes it",
                id="ample-without-miyaoka",
            ),
        ],
    )
    def test_reported_as_json_with_exit_2(self, capsys, argv, command, message):
        # argparse once printed its usage to stderr and left stdout empty
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["command"] == command
        assert report["error"]["type"] == "UsageError"
        assert report["error"]["message"].startswith(message)

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: adjoint3")


class TestDoubleDashValue:
    # argparse once dropped the value of an option written `--name=--` and handed
    # the command []: four tracebacks, certify and the eps scan run on their
    # defaults, and two profiles written to stdout instead of a file named "--"
    @pytest.mark.parametrize(
        "argv, error",
        [
            pytest.param(["chi", "P3.json", "--divisor=--"], PARSE, id="divisor"),
            pytest.param(["bound", "P3.json", "--divisor", "H", "--rule", "miyaoka", "--ample=--"], PARSE, id="ample"),
            pytest.param(["blowup", "P3.json", "--curve=--", "--symbol", "E"], PARSE, id="curve"),
            pytest.param(["blowup", "P3.json", "--point", "--symbol=--"], PARSE, id="symbol"),
            pytest.param(["witness-bad-anticanonical", "Pencil5.json", "--eps=--"], PARSE, id="eps"),
            pytest.param(["bound", "P3.json", "--divisor", "H", "--rule=--"], "UsageError", id="rule"),
            pytest.param(["certify", "P3.json", "--divisor", "H", "--target=--"], "UsageError", id="target"),
        ],
    )
    def test_is_the_value_of_the_option(self, capsys, tmp_path, monkeypatch, argv, error):
        monkeypatch.chdir(tmp_path)
        for name in ("P3", "Pencil5"):
            Path(f"{name}.json").write_text(serialize_profile(get(name).profile))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["command"] == argv[0]
        assert report["error"]["type"] == error
        assert "'--'" in report["error"]["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["catalog", "P3", "--output=--"], id="output"),
            pytest.param(["blowup", "P3.json", "--point", "--symbol", "E", "-o=--"], id="o"),
        ],
    )
    def test_names_the_output_file(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        Path("P3.json").write_text(serialize_profile(get("P3").profile))
        code, out = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["result"]["output"] == "--"
        assert parse_profile(Path("--").read_text()).validate() == []


class TestChi:
    def test_hyperplane(self, capsys, p3_file):
        code, out = run(capsys, "chi", p3_file, "--divisor", "H")
        assert code == 0
        assert json.loads(out)["result"]["chi"] == "4/1"

    def test_expression_with_canonical(self, capsys, p3_file):
        code, out = run(capsys, "chi", p3_file, "--divisor", "K + 5H")
        assert code == 0
        assert json.loads(out)["result"]["chi"] == "4/1"

    def test_corrupt_profile_reports_violation(self, capsys, corrupt_file):
        code, out = run(capsys, "chi", corrupt_file, "--divisor", "H")
        report = json.loads(out)
        assert code == 1
        assert any("chiox" in v for v in report["violations"])

    def test_unknown_symbol_is_malformed_input(self, capsys, p3_file):
        code, out = run(capsys, "chi", p3_file, "--divisor", "Q")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "UnknownSymbolError"

    def test_zero_denominator_is_malformed_input(self, capsys, p3_file):
        code, out = run(capsys, "chi", p3_file, "--divisor", "1/0H")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "DivisorParseError"


class TestBound:
    def test_nefbig_display(self, capsys, p3_file):
        code, out = run(capsys, "bound", p3_file, "--divisor", "5H", "--rule", "nefbig")
        assert code == 0
        assert json.loads(out)["result"]["display"] == "4/1 (ceil 4)"

    def test_bs_rule(self, capsys, p3_file):
        code, out = run(capsys, "bound", p3_file, "--divisor", "3H", "--rule", "bs")
        assert json.loads(out)["result"] == {
            "rational": "10/1",
            "ceiling": 10,
            "display": "10/1 (ceil 10)",
        }

    def test_miyaoka_rule(self, capsys, tmp_path):
        path = tmp_path / "q5.json"
        path.write_text(serialize_profile(get("Q5").profile), encoding="utf-8")
        code, out = run(
            capsys, "bound", str(path), "--divisor", "H", "--rule", "miyaoka"
        )
        result = json.loads(out)["result"]
        assert code == 0
        assert result == {
            "lhs": "50/1",
            "rhs": "-5/3",
            "holds": True,
            "hypotheses_met": True,
        }


class TestCertify:
    def test_adjoint_on_quintic(self, capsys, tmp_path):
        path = tmp_path / "q5.json"
        path.write_text(serialize_profile(get("Q5").profile), encoding="utf-8")
        code, out = run(
            capsys, "certify", str(path), "--divisor", "H", "--target", "adjoint"
        )
        report = json.loads(out)
        assert code == 0
        cert = report["certificate"]
        assert cert["conclusion"] == "NonVanishing"
        assert cert["route"] == "not-uniruled-c2-bound"
        assert cert["rational_bound"] == "25/36"
        assert cert["integer_bound"] == 1

    def test_missing_flag_is_operation_error(self, capsys, p3_file):
        code, out = run(
            capsys, "certify", p3_file, "--divisor", "H", "--target", "bs"
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "MissingFlagError"


class TestIdentities:
    def test_six_passes_and_exit_zero(self, capsys):
        code, out = run(capsys, "identities")
        assert code == 0
        assert out.count('"status": "PASS"') == 6
        assert json.loads(out)["command"] == "identities"


class TestCatalog:
    def test_writes_profile_to_stdout(self, capsys):
        code, out = run(capsys, "catalog", "P3")
        assert code == 0
        assert parse_profile(out) == get("P3").profile

    def test_writes_profile_to_file(self, capsys, tmp_path):
        target = tmp_path / "q5.json"
        code, out = run(capsys, "catalog", "Q5", "-o", str(target))
        assert code == 0
        assert json.loads(out)["result"]["entry"] == "hypersurface(5)"
        assert parse_profile(target.read_text()) == get("Q5").profile

    def test_unknown_name(self, capsys):
        code, out = run(capsys, "catalog", "P4")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "UnknownEntryError"

    @pytest.mark.parametrize(
        "name", ["hypersurface(0)", "hypersurface(007)", "hypersurface(\u0663)"]
    )
    def test_hypersurface_degree_outside_the_name_grammar(self, capsys, name):
        # degree 0 once escaped as a ValueError traceback; the other two
        # were read as hypersurface(7) and hypersurface(3)
        code, out = run(capsys, "catalog", name)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "UnknownEntryError"


class TestBlowup:
    def test_point_blowup_roundtrips(self, capsys, p3_file, tmp_path):
        target = tmp_path / "blp3.json"
        code, _ = run(
            capsys, "blowup", p3_file, "--point", "--symbol", "E", "-o", str(target)
        )
        assert code == 0
        transformed = parse_profile(target.read_text())
        assert transformed.validate() == []
        assert dict(transformed.c2_vector) == {"H": 6, "E": 0}
        k = transformed.canonical
        assert transformed.triple_eval(k, k, k) == -56

    def test_curve_blowup_to_stdout(self, capsys, p3_file):
        code, out = run(
            capsys, "blowup", p3_file, "--curve", "g=0,deg=H:1", "--symbol", "E"
        )
        assert code == 0
        transformed = parse_profile(out)
        k = transformed.canonical
        assert transformed.triple_eval(k, k, k) == -54

    def test_symbol_collision_is_operation_error(self, capsys, p3_file):
        code, out = run(capsys, "blowup", p3_file, "--point", "--symbol", "H")
        assert code == 1

    @pytest.mark.parametrize("symbol", ["", "E 1", "1E", "\u00c9", "E+F"])
    @pytest.mark.parametrize("center", [["--point"], ["--curve", "g=0,deg=H:1"]])
    def test_symbol_outside_the_grammar_is_malformed_input(self, capsys, p3_file, center, symbol):
        # "" once escaped as a traceback; "E 1" wrote a file that failed validation
        code = main(["blowup", p3_file, *center, "--symbol", symbol])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["command"] == "blowup"
        assert report["error"]["type"] == "DivisorParseError"

    def test_only_the_symbol_check_becomes_a_parse_error(self, capsys, p3_file, monkeypatch):
        def fails(*args):
            raise ValueError("not about the symbol")

        monkeypatch.setattr(birational, "blow_up_point", fails)
        with pytest.raises(ValueError, match="not about the symbol"):
            main(["blowup", p3_file, "--point", "--symbol", "E"])


class TestWitness:
    def test_pencil_scan(self, capsys, tmp_path):
        path = tmp_path / "pencil.json"
        path.write_text(serialize_profile(get("Pencil5").profile), encoding="utf-8")
        code, out = run(capsys, "witness-bad-anticanonical", str(path))
        result = json.loads(out)["result"]
        assert code == 0
        assert result["eps"] == "1/2"
        assert result["value"] == "4/1"


class TestSingleFileViolations:
    # a profile with violations ends blowup and witness-bad-anticanonical
    # with its violations report, before any option is read or file written
    @pytest.mark.parametrize(
        "argv, inputs",
        [
            pytest.param(["blowup", "--point", "--symbol", "E"], {"symbol": "E"}, id="blowup"),
            pytest.param(
                ["blowup", "--point", "--symbol", "E", "-o", "out.json"], {"symbol": "E"}, id="blowup-o"
            ),
            pytest.param(["witness-bad-anticanonical"], {}, id="witness"),
        ],
    )
    def test_reported_with_exit_1(self, capsys, tmp_path, monkeypatch, corrupt_file, argv, inputs):
        monkeypatch.chdir(tmp_path)
        code, out = run(capsys, argv[0], corrupt_file, *argv[1:])
        assert code == 1
        assert json.loads(out) == {
            "command": argv[0],
            "inputs": {"file": corrupt_file, **inputs},
            "violations": ["chiox inconsistency: -24 != -48"],
        }
        assert not Path("out.json").exists()


class TestDeterminismAndBatch:
    def test_identical_bytes_on_repeat(self, capsys, p3_file):
        _, first = run(capsys, "bound", p3_file, "--divisor", "5H", "--rule", "nefbig")
        _, second = run(capsys, "bound", p3_file, "--divisor", "5H", "--rule", "nefbig")
        assert first == second

    def test_batch_order_is_input_order(self, capsys, tmp_path):
        files = []
        for name in ("P3", "Q5", "BlLineP3"):
            path = tmp_path / f"{name}.json"
            path.write_text(serialize_profile(get(name).profile), encoding="utf-8")
            files.append(str(path))
        _, out = run(capsys, "chi", *files, "--divisor", "2H")
        reports = json.loads(out)
        assert [r["inputs"]["file"] for r in reports] == files
        assert [r["result"]["chi"] for r in reports] == ["10/1", "15/1", "10/1"]

    @pytest.mark.parametrize(
        "case, seeds",
        [
            # unknown symbols were once listed in frozenset order, which moves
            # with PYTHONHASHSEED (X, Z, Y under seed 1; Y, X, Z under seed 3);
            # now the file is rejected, naming the first of them
            pytest.param("validate", ("1", "3"), id="validate"),
            # Nef(2H) was once certified by whichever implying flag came first
            # in frozenset order: Ample(2H) under seed 1, NefAndBig(2H) under 2
            pytest.param("certify", ("1", "2"), id="certify"),
        ],
    )
    def test_validate_bytes_do_not_depend_on_hash_seed(self, tmp_path, case, seeds):
        obj = json.loads(serialize_profile(get("P3").profile))
        if case == "validate":
            obj["canonical"] = "-4*H + X + Y + Z"
            argv = ["validate"]
        else:
            obj["flags"] = [
                {"kind": "Ample", "subject": "3*H"},
                {"kind": "Ample", "subject": "2*H"},
                {"kind": "NefAndBig", "subject": "2*H"},
                {"kind": "Uniruled", "subject": None},
                {"kind": "IrregularityZero", "subject": None},
            ]
            argv = ["certify", "--divisor", "3H", "--target", "bs"]
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        src = str(Path(adjoint3.__file__).resolve().parents[1])
        outputs = []
        for seed in seeds:
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-m", "adjoint3.cli", *argv, str(path)],
                env=env, capture_output=True, check=False,
            )
            assert proc.returncode == (2 if case == "validate" else 0)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        if case == "validate":
            assert report["error"] == {
                "type": "ProfileFormatError",
                "message": "unknown symbol 'X' in canonical class",
            }
        else:
            assert [h["kind"] for h in report["certificate"]["hypotheses_used"]] == [
                "Ample", "Ample", "Uniruled", "IrregularityZero"
            ]

    def test_batch_exit_code_is_worst_case(self, capsys, p3_file, corrupt_file):
        code, out = run(capsys, "validate", p3_file, corrupt_file)
        assert code == 1
        reports = json.loads(out)
        assert reports[0]["result"]["valid"] is True
        assert reports[1]["result"]["valid"] is False

    def test_any_calculator_error_is_one_file_report(self, capsys, tmp_path, monkeypatch):
        from adjoint3 import riemann_roch

        files = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.json"
            path.write_text(serialize_profile(get("P3").profile), encoding="utf-8")
            files.append(str(path))
        real, calls = riemann_roch.chi_line_bundle, []

        def first_call_fails(profile, divisor):
            calls.append(divisor)
            if len(calls) == 1:
                raise birational.SymbolCollisionError("raised for the first file")
            return real(profile, divisor)

        monkeypatch.setattr(riemann_roch, "chi_line_bundle", first_call_fails)
        code, out = run(capsys, "chi", *files, "--divisor", "H")
        assert code == 1
        first, second = json.loads(out)
        assert first == {
            "command": "chi",
            "inputs": {"file": files[0]},
            "error": {"type": "SymbolCollisionError", "message": "raised for the first file"},
        }
        assert second["inputs"]["file"] == files[1]
        assert second["result"]["chi"] == "4/1"

    def test_unreadable_file_is_its_own_report(self, capsys, p3_file, tmp_path):
        # an OSError once ended the batch with one command-level report
        missing = str(tmp_path / "missing.json")
        code, out = run(capsys, "chi", p3_file, missing, "--divisor", "H")
        assert code == 2
        first, second = json.loads(out)
        assert first["inputs"]["file"] == p3_file
        assert first["result"]["chi"] == "4/1"
        assert second["inputs"] == {"file": missing}
        assert second["error"]["type"] == "FileNotFoundError"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["validate", "missing.json"], id="validate-missing-file"),
        pytest.param(["blowup", "missing.json", "--point", "--symbol", "E"], id="blowup-missing-file"),
        pytest.param(["catalog", "P3", "-o", "missing/x.json"], id="catalog-missing-directory"),
        pytest.param(["catalog", "P3", "--output="], id="catalog-empty-output"),
    ],
)
def test_os_error_is_one_json_error_with_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["command"] == argv[0]
    assert report["error"]["type"] == "FileNotFoundError"


_NO_OUTPUT = (2, "FileNotFoundError", "[Errno 2] No such file or directory: 'missing/x.json'")


@pytest.mark.parametrize(
    "argv, inputs, error",
    [
        pytest.param(["catalog", "P3", "-o", "missing/x.json"], {"name": "P3"}, _NO_OUTPUT, id="catalog"),
        pytest.param(["blowup", "P3.json", "--point", "--symbol", "E", "-o", "missing/x.json"],
                     {"file": "P3.json", "symbol": "E", "point": True}, _NO_OUTPUT, id="blowup-point"),
        pytest.param(["blowup", "P3.json", "--curve", "g=0,deg=H:1", "--symbol", "E",
                      "-o", "missing/x.json"],
                     {"file": "P3.json", "symbol": "E", "curve": "g=0,deg=H:1"}, _NO_OUTPUT,
                     id="blowup-curve"),
        pytest.param(["blowup", "missing.json", "--point", "--symbol", "E"],
                     {"file": "missing.json", "symbol": "E"},
                     (2, "FileNotFoundError", "[Errno 2] No such file or directory: 'missing.json'"),
                     id="blowup-missing-file"),
        pytest.param(["blowup", "P3.json", "--curve", "g=0,deg=X:1", "--symbol", "E"],
                     {"file": "P3.json", "symbol": "E", "curve": "g=0,deg=X:1"},
                     (2, "UnknownSymbolError", "unknown symbol 'X' in curve degrees"),
                     id="blowup-off-basis-degree"),
        pytest.param(["witness-bad-anticanonical", "P3.json"], {"file": "P3.json"},
                     (2, "UnknownEntryError", "profile has no named divisor 'F'"), id="witness-no-F"),
        pytest.param(["catalog", "Nope"], {"name": "Nope"},
                     (2, "UnknownEntryError", "unknown catalog entry 'Nope'; known: P3, Q5, BlP3, "
                      "BlLineP3, Pencil5 and hypersurface(d)"), id="catalog-unknown-name"),
        pytest.param(["witness-bad-anticanonical", "Pencil5.json", "--eps", "0"],
                     {"file": "Pencil5.json"}, (2, "DivisorParseError", "eps 0/1 is not positive"),
                     id="witness-eps-zero"),
        # `--eps` with no value is an empty scan, not a request for the default one
        pytest.param(["witness-bad-anticanonical", "Pencil5.json", "--eps"], {"file": "Pencil5.json"},
                     (1, "WitnessNotFoundError", "no epsilon in [] makes K.(F + eps*H)^2 positive"),
                     id="witness-empty-eps"),
    ],
)
def test_command_level_errors_report_the_inputs(capsys, tmp_path, monkeypatch, argv, inputs, error):
    # these reports once had no "inputs", unlike that of a file that cannot be read
    monkeypatch.chdir(tmp_path)
    for name in ("P3", "Pencil5"):
        Path(f"{name}.json").write_text(serialize_profile(get(name).profile))
    code, out = run(capsys, *argv)
    exit_code, kind, message = error
    assert code == exit_code
    report = {"command": argv[0], "inputs": inputs, "error": {"type": kind, "message": message}}
    assert out == json.dumps(report, indent=2) + "\n"


def _calculator_error_classes():
    """Every `CalcError` subclass the package's modules define."""
    for info in pkgutil.iter_modules(adjoint3.__path__):
        importlib.import_module(f"adjoint3.{info.name}")
    found, todo = set(), [adjoint3.CalcError]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("adjoint3.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


# the exit code of each calculator error; a new error class must be added here
_ERROR_EXIT = {
    "UnknownSymbolError": 2,
    "ProfileFormatError": 2,
    "DivisorParseError": 2,
    "UnknownEntryError": 2,
    "MissingFlagError": 1,
    "FlagContradictionError": 1,
    "NonIntegerChiError": 1,
    "WitnessNotFoundError": 1,
    "SymbolCollisionError": 1,
    "MissingCurveDegreeError": 1,
    "DegreeOverflowError": 1,
    "DoubleC2AtomError": 1,
}


def test_exit_code_comes_from_the_error_class(capsys, p3_file, monkeypatch):
    from adjoint3 import riemann_roch
    from adjoint3.core import MalformedInputError

    classes = _calculator_error_classes() - {MalformedInputError}
    assert {cls.__name__ for cls in classes} == set(_ERROR_EXIT)
    malformed = {cls.__name__ for cls in classes if issubclass(cls, MalformedInputError)}
    assert malformed == {name for name, code in _ERROR_EXIT.items() if code == 2}
    for cls in sorted(classes, key=lambda c: c.__name__):
        # built without its own __init__, whose arguments differ per class
        error = cls.__new__(cls, "injected")

        def fails(profile, divisor, error=error):
            raise error

        monkeypatch.setattr(riemann_roch, "chi_line_bundle", fails)
        code, out = run(capsys, "chi", p3_file, "--divisor", "H")
        assert (code, json.loads(out)["error"]) == (
            _ERROR_EXIT[cls.__name__],
            {"type": cls.__name__, "message": "injected"},
        )


class TestPinnedOutput:
    @pytest.mark.parametrize("command", list(GOLDEN))
    def test_golden_bytes(self, capsys, tmp_path, monkeypatch, command):
        # captured before the bound formulas were shared between the
        # evaluator and the identity suite (identities, bound), and before
        # evaluation moved to the integer tensor (the other commands);
        # stdout must not move by a byte
        monkeypatch.chdir(tmp_path)
        for name in ("P3", "Q5", "BlP3", "BlLineP3", "Pencil5"):
            Path(f"{name}.json").write_text(serialize_profile(get(name).profile))
        expected = GOLDEN[command]
        code, out = run(capsys, *command.split())
        assert code == expected["exit"]
        assert out == expected["stdout"]

    @pytest.mark.parametrize("command", list(GOLDEN_HELP))
    def test_golden_help(self, capsys, monkeypatch, command):
        # captured with COLUMNS=80 before each command imported its own modules
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main(command.split())
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == GOLDEN_HELP[command]

    def test_one_table_of_bound_rules(self, capsys, p3_file, monkeypatch):
        rules = bounds.BOUND_RULES
        assert cli.BOUND_RULES is rules
        assert rules == {
            "fukuma-ka": bounds.bound_fukuma_ka,
            "fukuma-gap": bounds.bound_fukuma_gap,
            "nefbig": bounds.bound_nefbig,
            "bs": bounds.bound_bs,
        }
        # the CLI and the catalog look each rule up in the shared table
        monkeypatch.setitem(rules, "bs", lambda p, a: Fraction(7, 3))
        _, out = run(capsys, "bound", p3_file, "--divisor", "3H", "--rule", "bs")
        assert json.loads(out)["result"]["rational"] == "7/3"
        assert catalog.check_expected(get("P3")) == [
            "P3: bs(3*H) = 7/3, expected 10"
        ]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", ("P3", "Q5", "BlP3", "BlLineP3", "Pencil5", "hypersurface(7)")
    )
    def test_serialize_parse_identity(self, name):
        profile = get(name).profile
        text = serialize_profile(profile)
        reparsed = parse_profile(text)
        assert reparsed == profile
        assert serialize_profile(reparsed) == text
        assert_canonical_fields(profile)


# more digits than int() and str() convert by default: the first is too long
# to read, the cube of the second too long to print
_LONG, _LONG_TEXT = 10**4400, "1" + "0" * 4400
_SHORT, _SHORT_TEXT = 10**1500, "1" + "0" * 1500


class TestLongNumbers:
    # each once escaped as a ValueError traceback; now read and printed in full
    @pytest.mark.parametrize(
        "argv, check",
        [
            pytest.param(
                ["chi", "P3.json", "--divisor", f"{_LONG_TEXT}*H"],
                lambda r: r["result"]["chi"]
                == f"{(_LONG + 1) * (_LONG + 2) * (_LONG + 3) // 6}/1",
                id="divisor-coefficient",
            ),
            pytest.param(
                ["bound", "P3.json", "--divisor", f"{_SHORT_TEXT}*H", "--rule", "bs"],
                lambda r: r["result"]["ceiling"] == _SHORT**3 - 2 * _SHORT**2 + 1,
                id="bound-result",
            ),
            pytest.param(
                ["blowup", "P3.json", "--curve", f"g={_LONG_TEXT},deg=H:{_LONG_TEXT}", "--symbol", "E"],
                lambda r: r["triple"][-1]
                == {"i": 1, "j": 1, "k": 1, "value": f"{2 - 6 * _LONG}/1"},
                id="curve-genus-and-degree",
            ),
        ],
    )
    def test_read_and_printed_in_full(self, capsys, tmp_path, monkeypatch, argv, check):
        monkeypatch.chdir(tmp_path)
        Path("P3.json").write_text(serialize_profile(get("P3").profile))
        limit = sys.get_int_max_str_digits()
        code, out = run(capsys, *argv)
        assert sys.get_int_max_str_digits() == limit
        assert code == 0
        with all_digits():
            assert check(json.loads(out))


# seeds the fuzz test mutates: valid arguments, and numbers too long for int()
_FUZZ_FILES = ("P3", "Q5", "BlP3", "BlLineP3", "Pencil5")
_FUZZ_DIVISORS = ("H", "3H", "2*H - E", "A2", "F + 1/2*H", "K", "-K", "0", "9" * 4400 + "*H")
_FUZZ_CURVES = ("g=0,deg=H:1", "g=1,deg=H:2;E:-1", "g=3,deg=H:1/2;E:0", "g=0,deg=H:" + "7" * 4400)
_FUZZ_SYMBOLS = ("E", "X", "E2", "F'", "c_2")
_FUZZ_EPS = ("1/2", "1", "3/4", "2", "1/1000")
# no 'h', so that no argument becomes an abbreviation of --help
_FUZZ_ALPHABET = "0123456789/+-*:;,=_ .gHEKAF'\t\u0663\u00b2"


@st.composite
def _mutated(draw, seeds):
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:i] + draw(st.text(_FUZZ_ALPHABET, max_size=3)) + text[i + cut :]
    return text


@st.composite
def _command_lines(draw, folder):
    path = str(folder / f"{draw(st.sampled_from(_FUZZ_FILES))}.json")
    command = draw(st.sampled_from(["chi", "bound", "certify", "blowup", "witness-bad-anticanonical"]))
    divisor = f"--divisor={draw(_mutated(_FUZZ_DIVISORS))}"
    if command == "chi":
        return [command, path, divisor]
    if command == "bound":
        rule = draw(st.sampled_from([*bounds.BOUND_RULES, "miyaoka"]))
        ample = draw(st.lists(_mutated(_FUZZ_DIVISORS), max_size=1))
        return [command, path, divisor, "--rule", rule, *(f"--ample={a}" for a in ample)]
    if command == "certify":
        return [command, path, divisor, "--target", draw(st.sampled_from(["adjoint", "bs"]))]
    if command == "blowup":
        curve = draw(st.lists(_mutated(_FUZZ_CURVES), max_size=1))
        center = [f"--curve={c}" for c in curve] or ["--point"]
        return [command, path, *center, f"--symbol={draw(_mutated(_FUZZ_SYMBOLS))}"]
    eps = draw(st.lists(_mutated(_FUZZ_EPS), max_size=3))
    return [command, path, *([f"--eps={eps[0]}", *eps[1:]] if eps else [])]


class TestCommandLineFuzz:
    @pytest.fixture(scope="class")
    def folder(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("catalog")
        for name in _FUZZ_FILES:
            (folder / f"{name}.json").write_text(serialize_profile(get(name).profile))
        return folder

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_arguments_end_in_one_json_report(self, folder, data):
        argv = data.draw(_command_lines(folder))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2)
        with all_digits():
            json.loads(out.getvalue())


# values a profile field or record entry may be replaced by: each JSON type,
# indices out of range, and numbers too long for int() outside `main`
_FUZZ_VALUES = (
    None, True, False, 0, -1, 2, 7, 10**30, 10**4400, 0.5, 1e400, "", "H", "2*H - E", "1/0",
    "0/1", "1.5", "٣", "Ample", "Uniruled", "1" * 5000 + "/1", "1/" + "3" * 5000,
    "9" * 5000 + "*H", [], {}, ["H", "H"], {"i": 0, "j": 0, "k": 0, "value": "1/1"},
)
_DEEP = "DEEP-NESTING"  # a string the text mutation replaces by nested arrays


def _paths(node, at=()):
    """Every position in a JSON tree: the root, each key and each element."""
    yield at
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, (*at, key))


@st.composite
def _mutated_profile_bytes(draw):
    obj = json.loads(serialize_profile(get(draw(st.sampled_from(_FUZZ_FILES))).profile))
    for _ in range(draw(st.integers(1, 3))):
        *parent_path, key = draw(st.sampled_from([p for p in _paths(obj) if p]))
        parent = obj
        for step in parent_path:
            parent = parent[step]
        operation = draw(st.sampled_from(["replace", "replace", "delete", "duplicate", "nest"]))
        if operation == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(_FUZZ_VALUES)))
        elif operation == "delete":
            del parent[key]
        elif operation == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = _DEEP
    depth = draw(st.sampled_from((3, 500, 990, 100_000)))
    with all_digits():
        text = json.dumps(obj, indent=draw(st.sampled_from((None, 2))))
    data = text.replace(json.dumps(_DEEP), "[" * depth + "]" * depth).encode()
    if draw(st.booleans()):  # bytes that are not UTF-8, or a cut file
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from((b"\xff", b"\xc3", b"\xed\xa0\x80", b""))) + data[at + 1 :]
    return data


class TestProfileFileFuzz:
    _COMMANDS = (
        ["validate"],
        ["chi", "--divisor", "H"],
        ["bound", "--divisor", "H", "--rule", "bs"],
        ["certify", "--divisor", "H", "--target", "adjoint"],
        ["blowup", "--point", "--symbol", "Z"],
    )

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_mutated_files_end_in_one_json_document(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_bytes(data.draw(_mutated_profile_bytes()))
        command, *options = data.draw(st.sampled_from(self._COMMANDS))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, str(path), *options])
        assert code in (0, 1, 2)
        with all_digits():
            json.loads(out.getvalue())
