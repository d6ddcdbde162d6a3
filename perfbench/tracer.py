"""Spans around the public entry points of each adjoint3 module.

`Tracer.install` replaces each traced function, in every loaded module that
holds it under any name, and each traced `ThreefoldProfile` method with a
wrapper that records a span (name, start, end, parent, basis size) or, for
`find_flag`, only a count, while the tracer is ``active``.  `uninstall`
puts the originals back.  Spans stay
in memory; `summary` turns them into per-layer self times, where a span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

from adjoint3 import (
    birational,
    bounds,
    catalog,
    cli,
    core,
    profile,
    profile_io,
    riemann_roch,
    twist,
)

_CONCLUSIVE = {bounds.Conclusion.NON_VANISHING, bounds.Conclusion.NON_VANISHING_EXTERNAL}


def _basis_size(value):
    if isinstance(value, catalog.CatalogEntry):
        value = value.profile
    elif isinstance(value, tuple) and value:
        value = value[0]
    basis = getattr(value, "basis", None)
    return len(basis) if isinstance(basis, tuple) else None


def _triple_terms(args):
    d1, d2, d3 = args[1:4]
    return len(d1.items()) * len(d2.items()) * len(d3.items())


def _number_terms(args):
    n = args[1]
    return len(n.cubic_terms) + len(n.c2_pairings)


# (owner, attribute, span name); methods are owned by the profile class
FUNCTIONS = (
    (core, "expand_product", "core.expand_product"),
    (core, "identity_check", "core.identity_check"),
    (twist, "cotangent_twisted_c2", "twist.cotangent_twisted_c2"),
    (riemann_roch, "chi_line_bundle", "riemann_roch.chi_line_bundle"),
    (riemann_roch, "chi_identity_suite", "riemann_roch.chi_identity_suite"),
    (bounds, "bound_fukuma_ka", "bounds.bound"),
    (bounds, "bound_fukuma_gap", "bounds.bound"),
    (bounds, "bound_nefbig", "bounds.bound"),
    (bounds, "bound_bs", "bounds.bound"),
    (bounds, "miyaoka_c2_inequality", "bounds.bound"),
    (bounds, "certify_h0_adjoint", "bounds.certify"),
    (bounds, "certify_h0_bs", "bounds.certify"),
    (birational, "blow_up_point", "birational.blow_up"),
    (birational, "blow_up_curve", "birational.blow_up"),
    (profile_io, "parse_profile", "profile_io.parse"),
    (profile_io, "serialize_profile", "profile_io.serialize"),
    (profile_io, "resolve_divisor", "profile_io.resolve_divisor"),
    (catalog, "get", "catalog.get"),
    (catalog, "check_expected", "catalog.check_expected"),
    (cli, "main", "cli.main"),
)
METHODS = (
    ("__init__", "profile.construct"),
    ("triple_eval", "profile.triple_eval"),
    ("number_eval", "profile.number_eval"),
    ("c2_pair", "profile.c2_pair"),
    ("validate", "profile.validate"),
)
# per-call work counted outside the program: span name -> (counter, args -> amount)
_ARG_COUNTERS = {
    "profile.triple_eval": ("profile.triple_eval.terms", _triple_terms),
    "profile.number_eval": ("profile.number_eval.terms", _number_terms),
    "profile_io.parse": ("profile_io.bytes", lambda args: len(args[0].encode())),
}

# The per-layer metrics, in report order, with their units.  Times are self
# times; every value covers one traced set-up plus one cycle of the workload,
# or on cli-cold one command.
PER_LAYER_UNITS = {
    "core.expand_product.calls": "count",
    "core.expand_product.self_ms": "ms",
    "core.identity_check.self_ms": "ms",
    "profile.triple_eval.calls": "count",
    "profile.triple_eval.self_ms": "ms",
    "profile.triple_eval.terms": "count",
    "profile.number_eval.self_ms": "ms",
    "profile.number_eval.terms": "count",
    "profile.c2_pair.self_ms": "ms",
    "profile.construct.calls": "count",
    "profile.construct.self_ms": "ms",
    "profile.validate.self_ms": "ms",
    "profile.find_flag.calls": "count",
    "twist.cotangent_twisted_c2.self_ms": "ms",
    "riemann_roch.chi_line_bundle.self_ms": "ms",
    "riemann_roch.chi_identity_suite.self_ms": "ms",
    "bounds.bound.self_ms": "ms",
    "bounds.certify.self_ms": "ms",
    "bounds.certify.calls": "count",
    "bounds.certify.conclusive_ratio": "ratio",
    "birational.blow_up.calls": "count",
    "birational.blow_up.self_ms": "ms",
    "profile_io.parse.self_ms": "ms",
    "profile_io.serialize.self_ms": "ms",
    "profile_io.resolve_divisor.self_ms": "ms",
    "profile_io.bytes": "B",
    "catalog.get.self_ms": "ms",
    "catalog.check_expected.self_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.self_ms": "ms",
    "trace.overhead_pct": "%",
}


def layer_metrics(totals) -> dict[str, float]:
    """The per-layer metrics that spans and counters give; the cold-start
    split and the tracing overhead are measured by the caller."""
    metrics = {name: float(totals.get(name, 0.0)) for name in PER_LAYER_UNITS}
    calls = totals.get("bounds.certify.calls", 0)
    conclusive = totals.get("bounds.certify.conclusive", 0)
    metrics["bounds.certify.conclusive_ratio"] = conclusive / calls if calls else 0.0
    return metrics


def merge(summaries, weights) -> dict[str, float]:
    """Weighted sum of several `Tracer.summary` results."""
    out: dict[str, float] = Counter()
    for summary, weight in zip(summaries, weights):
        for key, value in summary.items():
            out[key] += weight * value
    return out


def per_size_rows(weighted_self_times) -> list[dict]:
    """Self time and calls per (basis size, span name), weighted and summed."""
    cells = defaultdict(lambda: [0.0, 0.0])
    for self_times, weight in weighted_self_times:
        for key, (calls, seconds) in self_times.items():
            cells[key][0] += weight * calls
            cells[key][1] += weight * 1000.0 * seconds
    rows = [
        {"n": n, "name": name, "calls": calls, "self_ms": ms}
        for (name, n), (calls, ms) in cells.items()
    ]
    rows.sort(key=lambda r: (r["n"] is None, r["n"] or 0, r["name"]))
    return rows


class Tracer:
    """Records spans while installed; one instance per traced phase."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, basis size]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.active = True  # while paused, the wrappers only call through

    # -- recording -----------------------------------------------------

    def _wrap(self, name, fn):
        counter = _ARG_COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not (self._patched and self.active):  # paused, or kept past `uninstall`
                return fn(*args, **kwargs)
            if counter is not None:
                self.counts[counter[0]] += counter[1](args)
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, 0.0, 0.0, parent, _basis_size(args[0]) if args else None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if span[4] is None:
                # constructors know their size only afterwards; the graded
                # ring takes the size of the profile that asked for it
                span[4] = _basis_size(args[0] if args else None) or _basis_size(result)
                if span[4] is None and parent >= 0:
                    span[4] = spans[parent][4]
            if name == "profile_io.serialize":
                self.counts["profile_io.bytes"] += len(result.encode())
            elif name == "bounds.certify" and result.conclusion in _CONCLUSIVE:
                self.counts["bounds.certify.conclusive"] += 1
            return result

        return traced

    def _count_find_flag(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._patched and self.active:
                self.counts["profile.find_flag.calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def resume(self) -> None:
        self.active = True

    def pause(self) -> None:
        self.active = False

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        cls = profile.ThreefoldProfile
        replacements = {}
        for owner, attr, name in FUNCTIONS:
            original = getattr(owner, attr)
            replacements[id(original)] = (original, self._wrap(name, original))
        for attr, name in METHODS:
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        original = cls.__dict__["find_flag"]
        self._patched.append((cls, "find_flag", original))
        cls.find_flag = self._count_find_flag(original)
        # every module holding a traced function under any name, this package
        # and the benchmark's own modules included, and the package's lookup
        # tables (such as the CLI's table of bound rules)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            tables = [namespace]
            if module.__name__.startswith("adjoint3"):
                tables += [v for v in namespace.values() if type(v) is dict]
            for table in tables:
                for key, value in list(table.items()):
                    hit = replacements.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patched.append((table, key, value))
                        table[key] = hit[1]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if type(owner) is dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per (span name, basis size): [calls, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, n) in enumerate(self.spans):
            cell = out[(name, n)]
            cell[0] += 1
            cell[1] += end - start - child[i]
        return out

    def summary(self) -> dict[str, float]:
        """Layer totals: calls, self ms and the counters, summed over basis sizes."""
        totals: dict[str, float] = Counter()
        for (name, _), (calls, seconds) in self.self_times().items():
            totals[f"{name}.calls"] += calls
            totals[f"{name}.self_ms"] += 1000.0 * seconds
        totals.update(self.counts)
        return totals

    def absorb(self, spans, counts) -> None:
        """Append the spans and counts another process recorded."""
        offset = len(self.spans)
        for name, start, end, parent, n in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, n])
        self.counts.update(counts)
