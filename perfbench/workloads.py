"""The four benchmark workloads, each a cycle of operations.

Each ``build_*`` function makes a workload's fixed inputs (its profiles,
files and command runner) from the seed and returns it.  The runner then
asks for one cycle after another: ``Workload.cycle(k)`` draws the ops of
cycle k (their divisors, multiples, profile files and command variants)
from the seed and k alone, so no two cycles, and no cycle and the set-up,
ask the same question, and a result memoised by input would not be reused.
Every cycle has the same mix of calls, so the same amount of work.  Cycle
0's renderings fold into the workload digest.

The library is always reached through module attributes at call time
(``a3.chi_line_bundle`` rather than a name bound at import), so a traced
run sees every call.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import adjoint3 as a3
from adjoint3 import DivisorExpr, FlagKind, flag

import profiles

# Outcomes that certifying random data may legitimately produce.
EXPECTED_ERRORS = (a3.FlagContradictionError, a3.MissingFlagError)

CLI_TIMEOUT_S = 60


@dataclass
class Op:
    """One public call, the predicate its result must satisfy, and an
    optional reference computed on the symbolic proof path after timing."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    reference: Callable[[], object] | None = None


@dataclass
class Workload:
    cycle: Callable[[int], list[Op]]  # the ops of cycle k
    profiles: list  # every profile the ops evaluate, touched once in warm-up
    warmup: Callable[[], object] | None = None
    runner: ColdRunner | None = None  # cli-cold: starts the commands

    def close(self) -> None:
        if self.runner is not None:
            self.runner.close()


class Unexpected:
    """An exception outside `EXPECTED_ERRORS`, kept with its traceback."""

    def __init__(self, exc: BaseException, text: str):
        self.name = type(exc).__name__
        self.text = text


def outcome(result) -> str:
    if isinstance(result, Unexpected):
        return "Unexpected:" + result.name
    if isinstance(result, BaseException):
        return type(result).__name__
    if isinstance(result, a3.Certificate):
        return f"{result.conclusion.value}:{result.route}"
    return "value"


def render(result) -> str:
    """Canonical text of a result; only first-cycle results are rendered."""
    if isinstance(result, Unexpected):
        return "Unexpected:" + result.name
    if isinstance(result, BaseException):
        return type(result).__name__
    if isinstance(result, int):  # bool included
        return str(result)
    if isinstance(result, Fraction):
        return a3.format_rational(result)
    if isinstance(result, str):
        return result
    if isinstance(result, a3.Certificate):
        return json.dumps(_certificate_record(result))
    if isinstance(result, a3.ThreefoldProfile):
        return "profile " + a3.serialize_profile(result)
    if isinstance(result, subprocess.CompletedProcess):
        return f"exit {result.returncode}\n{result.stdout}"
    if isinstance(result, (tuple, list)):
        return "[" + ", ".join(render(r) for r in result) + "]"
    raise TypeError(f"no rendering for {type(result).__name__}")


def cycle_rng(seed: int, cycle: int) -> random.Random:
    """The generator of cycle ``cycle``'s inputs; set-up uses Random(seed)."""
    return random.Random(f"{seed}/{cycle}")


def _certificate_record(cert) -> dict:
    return {
        "conclusion": cert.conclusion.value,
        "route": cert.route,
        "rational_bound": None
        if cert.rational_bound is None
        else a3.format_rational(cert.rational_bound),
        "integer_bound": cert.integer_bound,
        "hypotheses_used": [
            [f.kind.value, None if f.subject is None else a3.format_divisor(f.subject)]
            for f in cert.hypotheses_used
        ],
        "citations": list(cert.citations),
    }


def _is_value(result) -> bool:
    return outcome(result) == "value"


def _expect(label: str) -> Callable[[object], bool]:
    return lambda result: outcome(result) == label


# -- eval-large / eval-small: evaluation on random profiles ----------------


def _profile_pair(rng, n):
    return {
        "pos": profiles.random_valid_profile(rng, n, rng.randint(1, 3)),
        "neg": profiles.random_valid_profile(rng, n, rng.randint(-2, 0)),
    }


def _divisor(rng, p, kind):
    if kind == "small":
        return profiles.small_divisor(rng, p)
    return profiles.ample_candidate(rng, p)


def _route_ops(rng, pair, prefix, repeats=None):
    """One op per certification route, or ``repeats[label]`` of them.

    Each op sets its flags itself, as in the quick tour
    (``with_flags(..., replace=True)`` then certify): the flags name the
    op's divisor, so the flagged profile is built inside the timed call.
    """
    ops = []
    routes = [r for r in profiles.ROUTES for _ in range((repeats or {}).get(r[0], 1))]
    for label, certifier, which, kind, flags_of, expected in routes:
        base = pair[which]
        A = _divisor(rng, base, kind)
        flags = flags_of(base.canonical, A)

        def call(base=base, flags=flags, A=A, certifier=certifier):
            return getattr(a3, certifier)(base.with_flags(*flags, replace=True), A)

        ops.append(Op(f"{prefix}certify:{label}", call, _expect(expected)))
    return ops


_BOUNDS = ("bound_fukuma_ka", "bound_fukuma_gap", "bound_nefbig", "bound_bs")


def _eval_ops(rng, p, prefix, counts, flag_in_call):
    """Evaluation ops on one profile; ``counts`` gives how many of each."""
    ops = []

    def amp(A):
        return p.with_flags(flag(FlagKind.AMPLE, A), replace=True) if flag_in_call else p

    for _ in range(counts.get("chi", 0)):
        D = profiles.positive_divisor(rng, p.basis) + p.canonical
        ops.append(Op(
            f"{prefix}chi",
            lambda D=D: a3.chi_line_bundle(amp(D - p.canonical), D),
            _is_value,
            lambda D=D: p.number_eval(a3.chi_expression(D, p.canonical).expr),
        ))
    for name in _BOUNDS:
        for _ in range(counts.get(name, 0)):
            A = profiles.ample_candidate(rng, p)
            ops.append(Op(
                f"{prefix}{name}",
                lambda A=A, name=name: getattr(a3, name)(amp(A), A),
                _is_value,
            ))
    for _ in range(counts.get("miyaoka", 0)):
        A = profiles.ample_candidate(rng, p)
        H = profiles.positive_divisor(rng, p.basis)
        ops.append(Op(
            f"{prefix}miyaoka",
            lambda A=A, H=H: a3.miyaoka_c2_inequality(amp(A), A, H),
            lambda r: isinstance(r, a3.MiyaokaTest),
        ))
    for _ in range(counts.get("triple", 0)):
        ds = [profiles.positive_divisor(rng, p.basis) for _ in range(3)]
        ops.append(Op(
            f"{prefix}triple",
            lambda ds=ds: amp(ds[0]).triple_eval(*ds),
            _is_value,
            lambda ds=ds: p.number_eval(a3.expand_divisors(*ds)),
        ))
    return ops


# eval-large: how many of each evaluation per cycle, and of each certify
# route (default one; the cheap routes that only repeat a covered outcome
# are left out).  The weights put the median in the middle of the group of
# calls that each run one O(n^3) loop (bound_bs, bound_nefbig, triple_eval,
# chi and the two guard routes of certify_h0_bs), with as many calls below
# that group as above it, and the 90th percentile in the middle of the
# group of the two chi-bound certify routes; a quantile at the edge between
# two groups would jump with a little noise.
LARGE_N = 32
LARGE_COUNTS = {
    "chi": 2, "bound_fukuma_ka": 1, "bound_fukuma_gap": 4, "bound_nefbig": 2,
    "bound_bs": 2, "miyaoka": 1, "triple": 2,
}
LARGE_ROUTE_REPEATS = {
    "adjoint/anticanonical": 2, "bs/chi": 2,
    "adjoint/chi-guard": 0, "bs/none": 0, "bs/no-nef": 0,
}


def build_eval_large(seed: int, workdir: str) -> Workload:
    pair = _profile_pair(random.Random(seed), LARGE_N)

    def cycle(k):
        rng = cycle_rng(seed, k)
        ops = _eval_ops(rng, pair["pos"], "", LARGE_COUNTS, False)
        ops += _route_ops(rng, pair, "", LARGE_ROUTE_REPEATS)
        return _interleave(ops, rng)

    return Workload(cycle, list(pair.values()))


SMALL_SIZES = (1, 3, 8)
SMALL_COUNTS = {
    "chi": 1, "bound_fukuma_ka": 1, "bound_fukuma_gap": 1, "bound_nefbig": 1,
    "bound_bs": 1, "miyaoka": 1, "triple": 1,
}
CATALOG_NAMES = ("P3", "Q5", "BlP3", "BlLineP3", "Pencil5")


def build_eval_small(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    pairs = {n: _profile_pair(rng, n) for n in SMALL_SIZES}

    def cycle(k):
        rng = cycle_rng(seed, k)
        ops: list[Op] = []
        for n, pair in pairs.items():
            ops += _eval_ops(rng, pair["pos"], f"n{n}:", SMALL_COUNTS, True)
            ops += _route_ops(rng, pair, f"n{n}:")
        ops += _catalog_ops(rng)
        return _interleave(ops, rng)

    evaluated = [p for pair in pairs.values() for p in pair.values()]
    return Workload(cycle, evaluated, warmup=_warm_cycle(cycle))


def _catalog_ops(rng) -> list[Op]:
    """Quick-tour calls on the catalog entries, with seeded multiples."""
    H = DivisorExpr.symbol("H")
    p3 = a3.get("P3").profile
    q5 = a3.get("Q5").profile
    ops = [
        Op("P3:bs-sharp",
           lambda: a3.certify_h0_bs(p3.with_flags(
               flag(FlagKind.AMPLE, 3 * H), flag(FlagKind.NEF, 2 * H),
               flag(FlagKind.UNIRULED), flag(FlagKind.IRREGULARITY_ZERO), replace=True), 3 * H),
           _expect("NonVanishing:uniruled-regular-chi")),
        Op("P3:nefbig-sharp",
           lambda: a3.certify_h0_adjoint(p3.with_flags(
               flag(FlagKind.AMPLE, 5 * H), flag(FlagKind.PSEUDO_EFFECTIVE, 4 * H),
               flag(FlagKind.NEF_AND_BIG, H), flag(FlagKind.IRREGULARITY_ZERO), replace=True), 5 * H),
           _expect("NonVanishing:anticanonical-generically-nef")),
        Op("Q5:adjoint",
           lambda: a3.certify_h0_adjoint(q5.with_flags(
               flag(FlagKind.AMPLE, H), flag(FlagKind.NOT_UNIRULED), replace=True), H),
           _expect("NonVanishing:not-uniruled-c2-bound")),
    ]
    for name, p in (("P3", p3), ("Q5", q5)):
        a = rng.randint(1, 9)
        D = p.canonical + a * H
        ops.append(Op(
            f"{name}:h0",
            lambda p=p, a=a, D=D: a3.h0_lower_bound_from_chi(
                p.with_flags(flag(FlagKind.NEF_AND_BIG, a * H), replace=True), D),
            lambda r: type(r) is int,
        ))
        b = rng.randint(1, 9)
        ops.append(Op(f"{name}:chi", lambda p=p, b=b: a3.chi_line_bundle(p, b * H), _is_value))
    for name in CATALOG_NAMES:
        ops.append(Op(
            f"{name}:check_expected",
            lambda name=name: a3.check_expected(a3.get(name)),
            lambda r: r == [],
        ))
    ops.append(Op(
        "Pencil5:witness",
        lambda: a3.bad_anticanonical_witness(a3.get("Pencil5")),
        lambda r: r == (Fraction(1, 2), Fraction(4)),
    ))
    ops.append(Op(
        "identities",
        lambda: a3.chi_identity_suite(),
        lambda r: len(r) == 6 and all(ok for _, ok in r),
    ))
    return ops


def _warm_cycle(cycle):
    """A warm-up that runs one cycle, numbered -1 so that no timed cycle
    repeats its inputs."""

    def warmup():
        for op in cycle(-1):
            try:
                op.call()
            except EXPECTED_ERRORS:
                pass

    return warmup


def _interleave(ops, rng):
    """A seeded shuffle of one cycle's ops."""
    ops = list(ops)
    rng.shuffle(ops)
    return ops


# -- transform-large: profile files through blow-ups ----------------------

TRANSFORM_N = 16
TRANSFORM_FILES = 3


def _transform_profile(rng, n):
    p = profiles.random_valid_profile(rng, n, rng.randint(-2, 3))
    A = profiles.ample_candidate(rng, p)
    return p.with_flags(
        flag(FlagKind.AMPLE, A),
        flag(FlagKind.NEF, p.canonical + 2 * A),
        flag(FlagKind.UNIRULED),
        flag(FlagKind.IRREGULARITY_ZERO),
    ).with_named_divisors(A=A, H=profiles.positive_divisor(rng, p.basis))


def build_transform_large(seed: int, workdir: str) -> Workload:
    """Parse, validate, blow up a point then a curve, serialize, re-parse.

    Each cycle makes TRANSFORM_FILES fresh profile files (their text, so
    the timed calls do no file I/O) with fresh curve data.  Each blown-up
    profile is validated too, and the re-parsed profile must serialize to
    the same bytes (checked outside the timer).  Five of the eight calls per
    file are cheap (validate, blow-up), which keeps the median inside that
    group rather than at its edge.
    """

    def cycle(k):
        rng = cycle_rng(seed, k)
        ops: list[Op] = []
        for index in range(TRANSFORM_FILES):
            text = a3.serialize_profile(_transform_profile(rng, TRANSFORM_N))
            genus = rng.randint(0, 5)
            degrees = {s: rng.randint(0, 6) for s in profiles.basis_symbols(TRANSFORM_N)}
            degrees["E1"] = rng.randint(0, 2)
            ops += _transform_ops(f"file{index}:", text, genus, degrees)
        return ops

    return Workload(cycle, [], warmup=_warm_cycle(cycle))


def _transform_ops(prefix, text, genus, degrees) -> list[Op]:
    state: dict[str, object] = {}

    def step(key, fn):
        def call():
            state[key] = fn()
            return state[key]
        return call

    return [
        Op(f"{prefix}parse", step("parsed", lambda: a3.parse_profile(text)),
           lambda r: isinstance(r, a3.ThreefoldProfile)),
        Op(f"{prefix}validate", lambda: state["parsed"].validate(), lambda r: r == []),
        Op(f"{prefix}blow_up_point",
           step("point", lambda: a3.blow_up_point(state["parsed"], "E1")[0]),
           lambda r: isinstance(r, a3.ThreefoldProfile)),
        Op(f"{prefix}validate_point", lambda: state["point"].validate(), lambda r: r == []),
        Op(f"{prefix}blow_up_curve",
           step("curve", lambda: a3.blow_up_curve(state["point"], "E2", genus, degrees)[0]),
           lambda r: isinstance(r, a3.ThreefoldProfile)),
        Op(f"{prefix}validate_curve", lambda: state["curve"].validate(), lambda r: r == []),
        Op(f"{prefix}serialize", step("text", lambda: a3.serialize_profile(state["curve"])),
           lambda r: isinstance(r, str)),
        Op(f"{prefix}reparse", lambda: a3.parse_profile(state["text"]),
           lambda r: a3.serialize_profile(r) == state["text"]),
    ]


# -- cli-cold: one cold interpreter per command -----------------------------


def cli_env(src_dir: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    return env


def run_cold(argv, workdir, env) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, cwd=workdir, env=env, capture_output=True, text=True,
        timeout=CLI_TIMEOUT_S, check=False,
    )


_SPAWNER = """
import json, resource, subprocess, sys
for line in sys.stdin:
    proc = subprocess.run(json.loads(line), capture_output=True, text=True, timeout=%d)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps([proc.returncode, proc.stdout, proc.stderr, peak_kb]), flush=True)
"""


class ColdRunner:
    """Runs commands one at a time as children of a small spawner process.

    The peak memory the kernel reports for a child includes the memory of
    the process that forked it, so the commands are forked by this small
    interpreter rather than by the benchmark; ``peak_kb`` is then the peak
    of the largest command so far (or the spawner's, were it larger).
    ``prefix`` is the command line each CLI op starts with; the traced run
    puts trace_child.py in place of ``-m adjoint3.cli``.
    """

    def __init__(self, workdir: str, env: dict[str, str]):
        self.peak_kb = 0
        self.prefix = [sys.executable, "-m", "adjoint3.cli"]
        self._proc = subprocess.Popen(
            [sys.executable, "-S", "-c", _SPAWNER % CLI_TIMEOUT_S],
            cwd=workdir, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv) -> subprocess.CompletedProcess:
        self._proc.stdin.write(json.dumps(argv) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the command spawner exited")
        code, out, err, self.peak_kb = json.loads(reply)
        return subprocess.CompletedProcess(argv, code, out, err)

    def cli(self, args) -> subprocess.CompletedProcess:
        return self.run(self.prefix + args)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=CLI_TIMEOUT_S)
        self._proc.stdout.close()


def _cli_check(command, args):
    def check(proc) -> bool:
        if not isinstance(proc, subprocess.CompletedProcess) or proc.stderr:
            return False
        if command == "catalog":
            return proc.returncode == 0 and proc.stdout == a3.serialize_profile(a3.get(args[1]).profile)
        if command == "blowup":
            return proc.returncode == 0 and a3.parse_profile(proc.stdout).validate() == []
        report = json.loads(proc.stdout)
        if proc.returncode == 1:
            return report["error"]["type"] in {e.__name__ for e in EXPECTED_ERRORS}
        if proc.returncode != 0:
            return False
        if command == "identities":
            return all(r["status"] == "PASS" for r in report["result"])
        if command == "validate":
            return report["result"]["valid"] is True
        return "result" in report
    return check


CLI_FILES = {"P3": "p3.json", "Q5": "q5.json", "BlP3": "blp3.json",
             "BlLineP3": "bllinep3.json", "Pencil5": "pencil5.json"}


def cli_commands(rng) -> list[tuple[str, list[str]]]:
    """Two or more seeded variants of each of the eight commands."""
    out = []
    # P3 certifies nothing (inconclusive, or a missing flag), Q5 by its
    # not-uniruled bound, BlP3 by the trivial adjoint class of a Fano
    targets = {"P3": rng.choice(["adjoint", "bs"]), "Q5": "adjoint"}
    for name in ("P3", "Q5"):
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        f = CLI_FILES[name]
        out += [
            ("validate", ["validate", f]),
            ("chi", ["chi", f, "--divisor", f"K + {a}H"]),
            ("bound", ["bound", f, "--divisor", f"{b}H",
                       "--rule", rng.choice(["fukuma-ka", "fukuma-gap", "nefbig", "bs", "miyaoka"])]),
            ("certify", ["certify", f, "--divisor", "H", "--target", targets[name]]),
            ("identities", ["identities"]),
        ]
    for name in ("BlP3", "BlLineP3"):
        f = CLI_FILES[name]
        out.append(("validate", ["validate", f]))
        out.append(("blowup", ["blowup", f, "--point", "--symbol", "F"]))
    out.append(("certify", ["certify", CLI_FILES["BlP3"], "--divisor", "A2", "--target", "bs"]))
    out.append(("blowup", ["blowup", CLI_FILES["P3"], "--curve",
                           f"g={rng.randint(0, 3)},deg=H:{rng.randint(1, 6)}", "--symbol", "E"]))
    out.append(("catalog", ["catalog", rng.choice(sorted(CLI_FILES))]))
    out.append(("catalog", ["catalog", f"hypersurface({rng.randint(1, 9)})"]))
    out.append(("witness-bad-anticanonical", ["witness-bad-anticanonical", CLI_FILES["Pencil5"]]))
    out.append(("witness-bad-anticanonical", ["witness-bad-anticanonical", CLI_FILES["Pencil5"],
                                              "--eps", f"1/{rng.randint(2, 9)}", "1/16"]))
    return out


def build_cli_cold(seed: int, workdir: str, src_dir: str) -> Workload:
    for name, filename in CLI_FILES.items():
        a3.save_profile(a3.get(name).profile, os.path.join(workdir, filename))
    runner = ColdRunner(workdir, cli_env(src_dir))

    def cycle(k):
        return [
            Op(f"cli:{' '.join(args)}",
               lambda args=args: runner.cli(args),
               _cli_check(command, args))
            for command, args in cli_commands(cycle_rng(seed, k))
        ]

    return Workload(cycle, [], warmup=lambda: runner.cli(["identities"]), runner=runner)
