"""Set-up, timed phases, output checks and metrics for one workload run."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import sys
import traceback
from time import perf_counter

from adjoint3 import DivisorExpr

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

MIN_OPS = 110
MAX_PHASE_S = 120.0
SETUP_REPEATS = 5
CLI_SPLIT_REPEATS = 9
# references on the symbolic proof path are checked for every this-many-th
# cycle (cycle 0 included); each costs about as much as the call it checks
REFERENCE_EVERY = 2
MAX_REPORTED_FAILURES = 5

LAYER_UNITS = tracer.PER_LAYER_UNITS
END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# -- phases -----------------------------------------------------------------


class Phase:
    """Latencies and failures of one timed phase, and cycle 0's renderings."""

    def __init__(self):
        self.latencies: list[float] = []
        self.rendered: list[tuple[str, str]] = []  # cycle 0: (label, rendering)
        self.failed = 0
        self.cycles = 0
        self.elapsed = 0.0

    @property
    def throughput(self) -> float:
        """Completed calls per second of call time: the closed-loop rate,
        with the time spent making inputs and checking results left out."""
        return len(self.latencies) / sum(self.latencies)

    def fail(self, label: str, detail: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAILED {label}: {detail[:400]}", file=sys.stderr)


def _passes(op, result) -> bool:
    try:
        return bool(op.check(result))
    except Exception:  # a crashing check is a failed check
        traceback.print_exc()
        return False


def run_phase(wl, seconds: float, min_ops: int, first_cycle: int = 0, spans=None) -> Phase:
    """Run cycles first_cycle, first_cycle + 1, ... until both limits are met
    (or MAX_PHASE_S), one call at a time.

    Each cycle's ops are drawn before the cycle, and each result is checked
    against its op's predicate right after the call, outside the latency
    timer, and then dropped.  Results of ops with a reference are kept for
    every REFERENCE_EVERY-th cycle and compared with the reference at the
    end.  ``spans``, when given, is resumed for each call and paused after
    it, so that only the timed calls are traced.
    """
    expected = workloads.EXPECTED_ERRORS
    phase = Phase()
    pending = []
    start = perf_counter()
    while True:
        cycle = first_cycle + phase.cycles
        keep_references = cycle % REFERENCE_EVERY == 0
        for op in wl.cycle(cycle):
            if spans is not None:
                spans.resume()
            t0 = perf_counter()
            try:
                result = op.call()
            except expected as exc:
                result = exc
            except Exception as exc:  # recorded and counted as a failure
                result = workloads.Unexpected(exc, traceback.format_exc())
            phase.latencies.append(perf_counter() - t0)
            if spans is not None:
                spans.pause()
            if cycle == 0:
                phase.rendered.append((op.label, workloads.render(result)))
            if not _passes(op, result):
                phase.fail(op.label, getattr(result, "text", "") or workloads.render(result))
            elif keep_references and op.reference is not None:
                pending.append((op, result))
        phase.cycles += 1
        phase.elapsed = perf_counter() - start
        if phase.elapsed >= MAX_PHASE_S:
            break
        if phase.elapsed >= seconds and len(phase.latencies) >= min_ops:
            break
    for op, result in pending:
        reference = op.reference()
        if type(reference) is not type(result) or reference != result:
            phase.fail(op.label, f"{workloads.render(result)} != reference "
                                 f"{workloads.render(reference)}")
    return phase


def digest(rendered) -> str:
    h = hashlib.sha256()
    for label, text in rendered:
        h.update(f"{label}\t{text}\n".encode())
    return h.hexdigest()


def build(name: str, seed: int, workdir: str):
    if name == "eval-large":
        return workloads.build_eval_large(seed, workdir)
    if name == "eval-small":
        return workloads.build_eval_small(seed, workdir)
    if name == "transform-large":
        return workloads.build_transform_large(seed, workdir)
    return workloads.build_cli_cold(seed, workdir, SRC)


def setup_once(name: str, seed: int, workdir: str):
    """Inputs, profiles and warm-up; returns the workload."""
    wl = build(name, seed, workdir)
    # one evaluation per profile, so that work a profile defers to its first
    # use is paid here rather than in the timed phase
    for p in wl.profiles:
        e = DivisorExpr.symbol(p.basis[0])
        p.triple_eval(e, e, e)
        p.c2_pair(e)
    if wl.warmup is not None:
        wl.warmup()
    return wl


def peak_rss_mb() -> float:
    """This process's own peak resident memory since it started.

    ``ru_maxrss`` would also count the memory of the process that started
    this one; the kernel's VmHWM does not.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


# -- the untraced run -----------------------------------------------------------


def cold_setup_seconds(name: str, seed: int, workdir: str) -> float:
    """One set-up, ``import adjoint3`` included, in a fresh interpreter."""
    argv = [sys.executable, os.path.join(HERE, "setup_child.py"), name, str(seed), workdir]
    proc = workloads.run_cold(argv, workdir, workloads.cli_env(SRC))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed: {proc.stderr}")
    return float(proc.stdout)


def measure(name: str, seed: int, seconds: float, workdir: str) -> dict:
    # each set-up runs in its own fresh interpreter, so none of them can
    # reuse another's work, and the median counts: one sample is too noisy
    setup_s = statistics.median(
        cold_setup_seconds(name, seed, workdir) for _ in range(SETUP_REPEATS)
    )
    wl = setup_once(name, seed, workdir)
    try:
        gc.collect()
        phase = run_phase(wl, seconds, MIN_OPS)
    finally:
        wl.close()
    lat_ms = [1000.0 * x for x in phase.latencies]
    p90 = statistics.quantiles(lat_ms, n=10)[-1]
    metrics = {
        "throughput_ops_s": phase.throughput,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": p90,
        "setup_s": setup_s,
        # on cli-cold the largest command, which the spawner reports
        "peak_rss_mb": wl.runner.peak_kb / 1024.0 if wl.runner else peak_rss_mb(),
    }
    return {
        "metrics": metrics,
        "attempted": len(lat_ms),
        "failed": phase.failed,
        "digest": digest(phase.rendered),
        "info": {
            "samples": len(lat_ms),
            "above_p90": sum(1 for x in lat_ms if x > p90),
            "cycles": phase.cycles,
            "failed_ratio": phase.failed / len(lat_ms),
        },
    }


# -- the traced run ------------------------------------------------------------


class _ChildSpans:
    """Takes in the spans a cold command wrote under trace_child.py, after
    the command ends (a command that died first wrote none); paused and
    resumed like a `tracer.Tracer`."""

    def __init__(self, recorder, path):
        self.recorder, self.path = recorder, path

    def resume(self):
        pass

    def pause(self):
        if not os.path.exists(self.path):
            return
        with open(self.path, encoding="utf-8") as handle:
            data = json.load(handle)
        os.remove(self.path)
        self.recorder.absorb(data["spans"], data["counts"])


def _cold_ms(runner, argv, repeats: int) -> float:
    """Median wall time of a cold interpreter running ``argv``, started the
    way the commands are."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        proc = runner.run(argv)
        times.append(1000.0 * (perf_counter() - start))
        if proc.returncode != 0:
            raise RuntimeError(f"{argv} failed: {proc.stderr!r}")
    return statistics.median(times)


def measure_traced(name: str, seed: int, seconds: float, workdir: str) -> dict:
    """Per-layer metrics: on cli-cold those of the average traced command,
    elsewhere those of the traced set-up plus the average traced cycle."""
    setup_tracer = tracer.Tracer()
    setup_tracer.install()
    try:
        wl = setup_once(name, seed, workdir)
    finally:
        setup_tracer.uninstall()

    phase_tracer = tracer.Tracer()
    try:
        plain = run_phase(wl, seconds / 2, 0)
        if name == "cli-cold":
            span_file = os.path.join(workdir, "spans.json")
            wl.runner.prefix = [sys.executable, os.path.join(HERE, "trace_child.py"), span_file]
            traced = run_phase(wl, seconds / 2, 0, plain.cycles, _ChildSpans(phase_tracer, span_file))
            interpreter = _cold_ms(wl.runner, [sys.executable, "-c", "pass"], CLI_SPLIT_REPEATS)
            with_import = _cold_ms(
                wl.runner, [sys.executable, "-c", "import adjoint3"], CLI_SPLIT_REPEATS
            )
        else:
            phase_tracer.pause()
            phase_tracer.install()
            try:
                traced = run_phase(wl, seconds / 2, 0, plain.cycles, phase_tracer)
            finally:
                phase_tracer.uninstall()
    finally:
        wl.close()

    if name == "cli-cold":
        weighted = [(phase_tracer, 1.0 / len(traced.latencies))]
    else:
        weighted = [(setup_tracer, 1.0), (phase_tracer, 1.0 / traced.cycles)]
    totals = tracer.merge([t.summary() for t, _ in weighted], [w for _, w in weighted])
    metrics = tracer.layer_metrics(totals)
    if name == "cli-cold":
        metrics["cli.interpreter_ms"] = interpreter
        metrics["cli.import_ms"] = with_import - interpreter
    metrics["trace.overhead_pct"] = 100.0 * (plain.throughput / traced.throughput - 1.0)

    per_size = tracer.per_size_rows([(t.self_times(), w) for t, w in weighted])
    _write_spans(name, seed, setup_tracer.spans, phase_tracer.spans, per_size)
    return {
        "metrics": metrics,
        "attempted": len(plain.latencies) + len(traced.latencies),
        "failed": plain.failed + traced.failed,
        "digest": digest(plain.rendered),
        "info": {"traced_cycles": traced.cycles, "per_size": per_size},
    }


def _write_spans(name, seed, setup_spans, phase_spans, per_size) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "span_fields": ["name", "start_s", "end_s", "parent", "basis_size"],
                "setup": setup_spans,
                "phase": phase_spans,
                "self_ms_per_basis_size": per_size,
            },
            handle,
        )
