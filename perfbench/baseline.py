"""Measure a baseline: every workload on several seeds, plus one traced run.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Runs ``run.py`` once per seed 1..RUNS on each workload with tracing off,
and once per workload with tracing on at seed 0, one process at a time.
For each end-to-end metric it records the values, their median and
quartiles, and the spread (interquartile range over the median) next to
the metric's bound in BENCHMARK.json.  The traced run gives the per-layer
metrics and the self time per basis size.  The machine (processor count,
CPU model, Python version) is recorded with the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(config, workload, seed, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{argv} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seeds = list(range(1, args.runs + 1))
    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
        },
        "run_seconds": config["run_seconds"],
        "metrics": {
            **{m["name"]: {"unit": m["unit"], "layer": "end-to-end"} for m in config["end_to_end"]},
            **{m["name"]: {"unit": m["unit"], "layer": m["name"].split(".")[0]}
               for m in config["per_layer"]},
        },
        "workloads": {},
    }
    for workload in config["workloads"]:
        name = workload["name"]
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        correct = True
        for seed in seeds:
            result = _run(config, name, seed, 0)
            correct &= result["correct"]
            failed += result["failed"]
            attempted += result["attempted"]
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        end_to_end = {}
        for key, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            end_to_end[key] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": bounds[key], "values": vals,
            }
            print(f"{name} {key}: median {median:.4g}, spread {(q3 - q1) / median:.3f} "
                  f"(bound {bounds[key]})", flush=True)
        traced = _run(config, name, 0, 1)
        correct &= traced["correct"]
        spans_file = os.path.join(ROOT, ".perfbench-out", f"spans-{name}-seed0.json")
        with open(spans_file, encoding="utf-8") as handle:
            per_size = json.load(handle)["self_ms_per_basis_size"]
        report["workloads"][name] = {
            "why": workload["why"],
            "seeds": seeds,
            "traced_seed": 0,
            "correct": correct,
            "failed": failed,
            "attempted": attempted,
            "end_to_end": end_to_end,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "self_ms_per_basis_size": per_size,
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
