"""Command-line front end: profile file I/O, batch evaluation, JSON reports.

Every command prints a single deterministic JSON report (for several input
files, a JSON array of reports in input order; a calculator error in one
file, or a file that cannot be read, is that file's report).  Exit codes:
0 on success, 2 on malformed input (a `core.MalformedInputError`, an
`OSError`, or a ``UsageError``: a command line argparse rejects), 1 on any
other calculator error.  The two commands that produce profiles
(``catalog`` and ``blowup``) write a profile file instead, either to
``--output`` or to standard output.

Each ``_cmd_*`` handler records its inputs, as it reads them, in a dict
`main` holds, and returns its output and exit code; `main` writes it, a
report as indented JSON and a profile as its text, and is the one writer.
A report of violations or of an error comes from `_failure_report` and
names the inputs read before it, but `_run_per_file` reports a file's
error with the file alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

# A command imports the modules that evaluate it in its `_cmd_*` function, so
# a cold command compiles only what it runs.  The top level holds what the
# parser, the error reports and the shared profile file handling need.
from . import catalog as catalog_mod
from .bounds import BOUND_RULES
from .core import CalcError, MalformedInputError, format_rational, rat
from .profile import ThreefoldProfile
from .profile_io import (
    DivisorParseError,
    _flag_record,
    format_divisor,
    load_profile,
    resolve_divisor,
    save_profile,
    serialize_profile,
)

EXIT_OK = 0
EXIT_OPERATION = 1
EXIT_MALFORMED = 2


def _failure_report(command: str, inputs: dict, failure: list | Exception) -> tuple[dict, int]:
    """The report of a command that a profile's violations (a list) or an error ended."""
    if isinstance(failure, list):
        return {"command": command, "inputs": inputs, "violations": failure}, EXIT_OPERATION
    malformed = isinstance(failure, (MalformedInputError, OSError))
    error = {"type": type(failure).__name__, "message": str(failure)}
    report = {"command": command, "inputs": inputs, "error": error}
    return report, EXIT_MALFORMED if malformed else EXIT_OPERATION


def _bound_result(value: Fraction) -> dict:
    ceiling = math.ceil(value)
    return {
        "rational": format_rational(value),
        "ceiling": ceiling,
        "display": f"{format_rational(value)} (ceil {ceiling})",
    }


def _certificate_record(cert, basis) -> dict:
    return {
        "conclusion": cert.conclusion.value,
        "route": cert.route,
        "rational_bound": None
        if cert.rational_bound is None
        else format_rational(cert.rational_bound),
        "integer_bound": cert.integer_bound,
        "hypotheses_used": [_flag_record(f, basis) for f in cert.hypotheses_used],
        "citations": list(cert.citations),
    }


def _run_per_file(args, paths: list[str], options: dict, evaluate) -> tuple[dict | list, int]:
    """The report of each input file, in input order, and the worst exit code.

    Each file is loaded and validated; its inputs are its path and the
    command's ``options``.  A profile with violations is reported with them
    and exit 1; ``evaluate(profile, inputs)`` returns the report fields of a
    valid one.  With ``evaluate=None`` the validation itself is the result.
    """
    reports = []
    for path in paths:
        inputs = {"file": path, **options}
        try:
            profile = load_profile(path)
            violations = profile.validate()
            report = {"command": args.command, "inputs": inputs}
            if evaluate is None:
                report.update(result={"valid": not violations}, violations=violations)
            elif violations:
                report, _ = _failure_report(args.command, inputs, violations)
            else:
                report.update(evaluate(profile, inputs))
            reports.append((report, EXIT_OPERATION if violations else EXIT_OK))
        except (CalcError, OSError) as exc:
            reports.append(_failure_report(args.command, {"file": path}, exc))
    if len(reports) == 1:
        return reports[0]
    return [r for r, _ in reports], max(code for _, code in reports)


def _cmd_validate(args, inputs):
    return _run_per_file(args, args.files, inputs, None)


def _cmd_chi(args, inputs):
    from .riemann_roch import chi_line_bundle

    def evaluate(profile: ThreefoldProfile, inputs: dict) -> dict:
        divisor = resolve_divisor(profile, args.divisor)
        value = chi_line_bundle(profile, divisor)
        return {
            "result": {
                "divisor": format_divisor(divisor, profile.basis),
                "chi": format_rational(value),
            }
        }

    inputs["divisor"] = args.divisor
    return _run_per_file(args, args.files, inputs, evaluate)


def _cmd_bound(args, inputs):
    from .bounds import miyaoka_c2_inequality

    if args.ample is not None and args.rule != "miyaoka":
        raise argparse.ArgumentError(None, "argument --ample: only --rule miyaoka takes it")

    def evaluate(profile: ThreefoldProfile, inputs: dict) -> dict:
        ample_divisor = resolve_divisor(profile, args.divisor)
        if args.rule == "miyaoka":
            inputs["ample"] = ample = args.divisor if args.ample is None else args.ample
            pairing = resolve_divisor(profile, ample)
            lhs, rhs, holds, met = miyaoka_c2_inequality(profile, ample_divisor, pairing)
            result = {
                "lhs": format_rational(lhs),
                "rhs": format_rational(rhs),
                "holds": holds,
                "hypotheses_met": met,
            }
        else:
            result = _bound_result(BOUND_RULES[args.rule](profile, ample_divisor))
        return {"result": result}

    inputs.update(divisor=args.divisor, rule=args.rule)
    return _run_per_file(args, args.files, inputs, evaluate)


def _cmd_certify(args, inputs):
    from .bounds import certify_h0_adjoint, certify_h0_bs

    def evaluate(profile: ThreefoldProfile, inputs: dict) -> dict:
        ample_divisor = resolve_divisor(profile, args.divisor)
        certifier = certify_h0_adjoint if args.target == "adjoint" else certify_h0_bs
        record = _certificate_record(certifier(profile, ample_divisor), profile.basis)
        return {
            "result": {"conclusion": record["conclusion"], "route": record["route"]},
            "certificate": record,
        }

    inputs.update(divisor=args.divisor, target=args.target)
    return _run_per_file(args, args.files, inputs, evaluate)


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DivisorParseError(f"{what} '{text}' is not a rational p/q") from exc


def _parse_curve_spec(text: str) -> tuple[int, dict[str, Fraction]]:
    genus: int | None = None
    degrees: dict[str, Fraction] | None = None
    for part in text.split(","):
        part = part.strip()
        if part.startswith("g="):
            if genus is not None:
                raise DivisorParseError("curve component 'g=' given twice")
            if not (part[2:].isascii() and part[2:].isdigit()):
                raise DivisorParseError(f"genus '{part[2:]}' is not a nonnegative integer")
            genus = int(part[2:])
        elif part.startswith("deg="):
            if degrees is not None:
                raise DivisorParseError("curve component 'deg=' given twice")
            degrees = {}
            for pair in part[4:].split(";"):
                sym, sep, value = pair.partition(":")
                sym = sym.strip()
                if not sep or not sym:
                    raise DivisorParseError(f"curve degree '{pair}' is not SYM:value")
                if sym in degrees:
                    raise DivisorParseError(f"curve degree of '{sym}' given twice")
                degrees[sym] = _parse_rational(value, "curve degree")
        else:
            raise DivisorParseError(f"unrecognized curve component '{part}'")
    if genus is None:
        raise DivisorParseError("curve specification needs g=<genus>")
    return genus, degrees or {}


def _write_profile(args, inputs: dict, profile: ThreefoldProfile, result: dict):
    """Write the profile to ``--output`` and report it, or return its text."""
    if args.output is None:
        return serialize_profile(profile), EXIT_OK
    save_profile(profile, args.output)
    result = {"output": args.output, **result}
    return {"command": args.command, "inputs": inputs, "result": result}, EXIT_OK


def _cmd_blowup(args, inputs):
    from .birational import blow_up_curve, blow_up_point

    inputs.update(file=args.file, symbol=args.symbol)
    profile = load_profile(args.file)
    violations = profile.validate()
    if violations:
        return _failure_report(args.command, inputs, violations)
    if args.curve is None:
        inputs["point"] = True
        transformed, _ = blow_up_point(profile, args.symbol)
    else:
        inputs["curve"] = args.curve
        transformed, _ = blow_up_curve(profile, args.symbol, *_parse_curve_spec(args.curve))
    return _write_profile(args, inputs, transformed, {"basis": list(transformed.basis)})


def _cmd_identities(args, inputs):
    from .riemann_roch import chi_identity_suite

    results = chi_identity_suite()
    report = {
        "command": "identities",
        "inputs": inputs,
        "result": [
            {"identity": name, "status": "PASS" if ok else "FAIL"}
            for name, ok in results
        ],
    }
    return report, EXIT_OK if all(ok for _, ok in results) else EXIT_OPERATION


def _cmd_catalog(args, inputs):
    inputs["name"] = args.name
    entry = catalog_mod.get(args.name)
    return _write_profile(args, inputs, entry.profile, {"entry": entry.name})


def _cmd_witness(args, inputs):
    def evaluate(profile: ThreefoldProfile, inputs: dict) -> dict:
        eps_list = None if args.eps is None else [_parse_rational(e, "eps") for e in args.eps]
        eps, value = catalog_mod.bad_anticanonical_witness(profile, eps_list)
        fiber, polarization = catalog_mod._witness_classes(profile)
        candidate = fiber + eps * polarization
        return {
            "result": {
                "eps": format_rational(eps),
                "value": format_rational(value),
                "candidate": format_divisor(candidate, profile.basis),
            }
        }

    return _run_per_file(args, [args.file], inputs, evaluate)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # `main` reports it as JSON instead of exiting
        raise argparse.ArgumentError(None, message)

    def _get_values(self, action, arg_strings):
        # argparse 3.11 drops one "--" from any action's values; `--name=--` keeps it
        if action.option_strings and arg_strings == ["--"]:
            arg_strings = ["--", "--"]
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="adjoint3",
        description=(
            "Exact intersection-theory calculator for adjoint-bundle "
            "section bounds on smooth projective threefolds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        return p

    def add_files(p):
        p.add_argument("files", nargs="+", help="profile JSON file(s)")

    add_files(command("validate", _cmd_validate, "check profile invariants"))

    p = command("chi", _cmd_chi, "Euler characteristic of a line bundle")
    add_files(p)
    p.add_argument("--divisor", required=True, help="divisor name or expression")

    p = command("bound", _cmd_bound, "evaluate a section lower bound")
    add_files(p)
    p.add_argument("--divisor", required=True, help="the ample divisor A")
    p.add_argument("--rule", required=True, choices=[*BOUND_RULES, "miyaoka"])
    p.add_argument(
        "--ample",
        help="second divisor for the miyaoka rule (defaults to --divisor)",
    )

    p = command("certify", _cmd_certify, "run a non-vanishing certification")
    add_files(p)
    p.add_argument("--divisor", required=True, help="the ample divisor A")
    p.add_argument("--target", required=True, choices=["adjoint", "bs"])

    p = command("blowup", _cmd_blowup, "transform a profile under a blow-up")
    p.add_argument("file", help="profile JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", action="store_true", help="blow up a point")
    group.add_argument(
        "--curve",
        help="blow up a curve: 'g=<genus>,deg=SYM:val[;SYM:val...]'",
    )
    p.add_argument("--symbol", required=True, help="name of the exceptional symbol")
    p.add_argument("-o", "--output", help="write the profile here instead of stdout")

    command("identities", _cmd_identities, "verify the symbolic identity suite")

    p = command("catalog", _cmd_catalog, "write a built-in profile")
    p.add_argument("name", help=f"one of {', '.join(catalog_mod.names())} or hypersurface(d)")
    p.add_argument("-o", "--output", help="write the profile here instead of stdout")

    p = command(
        "witness-bad-anticanonical", _cmd_witness, "scan for eps with K.(F + eps*H)^2 > 0"
    )
    p.add_argument("file", help="profile JSON file with a named divisor F")
    p.add_argument("--eps", nargs="*", help="explicit rationals to scan")

    return parser


def main(argv=None) -> int:
    words = sys.argv[1:] if argv is None else list(argv)
    # exact numbers are read and printed in full, however many digits they have
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    inputs = {}  # the handler records each input as it reads it
    try:
        try:
            args = build_parser().parse_args(words)
            output, code = args.handler(args, inputs)
        except argparse.ArgumentError as exc:  # usage; the command as typed, known or not
            command = words[0] if words and not words[0].startswith("-") else None
            error = {"type": "UsageError", "message": str(exc)}
            output, code = {"command": command, "error": error}, EXIT_MALFORMED
        except (CalcError, OSError) as exc:
            output, code = _failure_report(args.command, inputs, exc)
        # the one write: a profile's text as is, a report as indented JSON
        text = output if isinstance(output, str) else json.dumps(output, indent=2) + "\n"
        sys.stdout.write(text)
        return code
    finally:
        sys.set_int_max_str_digits(digits)

if __name__ == "__main__":
    sys.exit(main())
