"""Benchmark of the adjoint3 calculator: four workloads, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of eval-large, eval-small, transform-large, cli-cold, or all
(each workload in turn, one child process apiece, so that each reports its
own peak memory).  The seed makes the inputs; the library under test is the
``src/adjoint3`` next to this directory, and nothing else is imported in
its place.

S is the run length; BENCHMARK.json's run_seconds is the value the
benchmark is defined with.

Each workload is a cycle of operations (see workloads.py) whose inputs are
drawn afresh for every cycle from the seed and the cycle's number.  After
set-up, the client makes one call at a time and runs whole cycles until S
seconds have passed and at least MIN_OPS calls are done, so at least ten
latency samples lie above the 90th percentile.  Every result is checked
against its op's predicate outside the timer; for a sample of cycles the
evaluations are also compared with the symbolic proof path.  Cycle 0's
renderings fold into a SHA-256 digest, which must match the pinned value
when the seed is 0.

With ``--trace 0`` the result line carries the end-to-end metrics:
throughput_ops_s (completed calls over the time spent in calls),
latency_p50_ms and latency_p90_ms over all calls, setup_s (the median of
SETUP_REPEATS set-ups, each in a fresh interpreter: ``import adjoint3``,
inputs, profiles and warm-up) and peak_rss_mb (this process, or on
cli-cold the largest command).  The ratio of failed to attempted
operations, which is zero when all is well and so no metric, is printed
above the result line.

With ``--trace 1`` the run makes one traced set-up, a timed phase without
tracing and a timed phase with spans around every public entry point of
each module (tracer.py), and reports per-layer metrics: self time, calls
and counts of the traced set-up plus the average cycle of the traced
phase, and trace.overhead_pct, the untraced throughput over the traced
one.  On cli-cold the figures are those of the average command, each
traced command runs cold under trace_child.py, and cli.interpreter_ms /
cli.import_ms come from cold ``python -c pass`` and ``python -c "import
adjoint3"`` runs started the same way.  All spans, and the self time per
basis size, are written to .perfbench-out/ when the run ends.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("eval-large", "eval-small", "transform-large", "cli-cold")

# SHA-256 of cycle 0's renderings at seed 0.
PINNED_DIGESTS = {
    "eval-large": "1b504db58ab993a296660934f6917b6f0f0ef3ad1338b90f7de98c7808b03518",
    "eval-small": "b48118e2fa6a5d379200cb3b4c27919a38e09c2bc6e7dae606c37ca9790dc144",
    "transform-large": "54cfb1748845454cc3df9a718637415aa629a3d039595e74804decfad4bc630b",
    "cli-cold": "e86cc46e853c0b6dcc8ba89e40c795f657a36212b48620b907efceb68abfea7f",
}


def _import_harness():
    """Import the harness, and with it adjoint3 from this checkout only."""
    package = os.path.join(SRC, "adjoint3")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"error: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import harness

    origin = os.path.dirname(os.path.abspath(sys.modules["adjoint3"].__file__))
    if origin != package:
        raise SystemExit(f"error: imported adjoint3 from {origin}, not {package}")
    return harness


# -- entry point -------------------------------------------------------------------


def run_one(args) -> dict:
    harness = _import_harness()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if args.trace:
            outcome = harness.measure_traced(args.workload, args.seed, args.seconds, workdir)
        else:
            outcome = harness.measure(args.workload, args.seed, args.seconds, workdir)
    pinned = PINNED_DIGESTS.get(args.workload) if args.seed == 0 else None
    digest_ok = pinned is None or pinned == outcome["digest"]
    for key, value in outcome["info"].items():
        if key != "per_size":
            print(f"{args.workload}  {key} = {value}")
    for row in outcome["info"].get("per_size", []):
        print(f"{args.workload}  n={row['n']!s:<4} {row['name']:<32} "
              f"calls={row['calls']:<10.6g} self_ms={row['self_ms']:.6g}")
    print(f"{args.workload}  digest = {outcome['digest']}" + ("" if digest_ok else f"  MISMATCH, pinned {pinned}"))
    units = harness.LAYER_UNITS if args.trace else harness.END_TO_END_UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in outcome["metrics"].items()}
    for key, m in metrics.items():
        print(f"{args.workload}  {key} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": outcome["failed"] == 0 and digest_ok,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Each workload in its own child process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
