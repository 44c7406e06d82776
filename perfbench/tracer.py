"""Spans around calls into the library, recorded from outside it.

The library's modules import each other's functions by name
(``from .flow import first_return_to_axis``), so a call is only seen if
the name is replaced in every ``filippov.*`` namespace that holds it.
`Tracer.install` does that and `Tracer.uninstall` puts the originals back.

A span is ``[name, start, end, parent, error, info]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``error`` the name of the
exception that left the call, ``info`` what an observer read from the
result.  Spans stay in memory; `Tracer.raw` folds them into additive
counters so that several processes' counters can be summed before the
ratios are taken in `layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Public functions timed per module: the layer boundaries the per-layer
# metrics read.
TRACED = {
    "core": ("classify_point", "tangency_points", "equilibrium_info", "sigma_decomposition"),
    "flow": ("first_return_to_axis", "filippov_orbit"),
    "canonical": ("to_canonical",),
    "halfmaps": ("make_context", "zeros_of_D", "P_R", "P_L_inv", "derivatives", "displacement"),
    "periodic": ("coexistence", "find_crossing_orbits", "find_sliding_orbits", "classify_configuration"),
    "specfile": ("resolve_spec",),
    "report": ("build_report", "report_to_json"),
    "cli": ("main",),  # root span of one flp request
}

# Exceptions on which find_crossing_orbits leaves the closed form for the
# shooting scan; any other refusal is counted as "other".
REFUSALS = (
    "NoAdmissibleFocus",
    "DegenerateField",
    "EtaZero",
    "ConditionViolated",
    "DeltaNotOne",
    "OverflowError",
)


def _orbit_info(orbit) -> tuple:
    return (orbit.terminal_event.kind == "BudgetExhausted", len(orbit.segments))


def _json_info(text: str) -> int:
    return len(text.encode("utf-8"))


OBSERVERS = {
    "flow.filippov_orbit": _orbit_info,
    "report.report_to_json": _json_info,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._wrappers: dict = {}  # id(original) -> (original, wrapper)
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[5] = observe(result)
            return result

        return traced

    def install(self) -> None:
        if not self._wrappers:
            for module_name, names in TRACED.items():
                module = importlib.import_module(f"filippov.{module_name}")
                for fname in names:
                    original = getattr(module, fname)
                    wrapper = self._wrap(f"{module_name}.{fname}", original)
                    self._wrappers[id(original)] = (original, wrapper)
        for key, ns in list(sys.modules.items()):
            if key != "filippov" and not key.startswith("filippov."):
                continue
            for attr, value in list(vars(ns).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._patches.append((ns, attr, value))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def raw(self) -> dict:
        """Additive counters over all spans recorded so far."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        closed_form: set = set()
        out: dict = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for name, start, end, parent, error, info in spans:
            dur = end - start
            if parent >= 0:
                child_time[parent] += dur
                if name == "halfmaps.zeros_of_D" and spans[parent][0] == "periodic.find_crossing_orbits":
                    closed_form.add(parent)
            outer = True
            p = parent
            while p >= 0:
                if spans[p][0] == name:
                    outer = False
                    break
                p = spans[p][3]
            add(f"{name}.calls", 1)
            if outer:
                add(f"{name}.total_s", dur)
            if error is not None:
                add(f"{name}.errors", 1)
                add(f"{name}.error.{error}", 1)
            if name == "flow.filippov_orbit" and info is not None:
                add(f"{name}.returned", 1)
                add(f"{name}.budget_exhausted", int(info[0]))
                add(f"{name}.segments", info[1])
            elif name == "report.report_to_json" and info is not None:
                add(f"{name}.bytes", info)
        for i, span in enumerate(spans):
            add(f"{span[0]}.self_s", (span[2] - span[1]) - child_time[i])
        add("periodic.find_crossing_orbits.closed_form", len(closed_form))
        return out


def merge(into: dict, raw: dict) -> dict:
    for key, value in raw.items():
        into[key] = into.get(key, 0) + value
    return into


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict, extra: dict) -> dict:
    """Per-layer metrics from summed counters plus the harness's own
    counts (``extra``: warnings, degenerate ratio, import times, overhead)."""

    def get(key):
        return raw.get(key, 0)

    m: dict = {}
    name = "flow.first_return_to_axis"
    m[f"{name}.calls"] = (get(f"{name}.calls"), "count")
    m[f"{name}.self_s"] = (get(f"{name}.self_s"), "s")
    m[f"{name}.fail_ratio"] = (_ratio(get(f"{name}.errors"), get(f"{name}.calls")), "ratio")

    name = "flow.filippov_orbit"
    m[f"{name}.calls"] = (get(f"{name}.calls"), "count")
    m[f"{name}.self_s"] = (get(f"{name}.self_s"), "s")
    m[f"{name}.total_s"] = (get(f"{name}.total_s"), "s")
    m[f"{name}.budget_exhausted_ratio"] = (
        _ratio(get(f"{name}.budget_exhausted"), get(f"{name}.returned")),
        "ratio",
    )
    m[f"{name}.segments_per_call"] = (
        _ratio(get(f"{name}.segments"), get(f"{name}.returned")),
        "count",
    )

    name = "periodic.find_crossing_orbits"
    m[f"{name}.total_s"] = (get(f"{name}.total_s"), "s")
    m[f"{name}.self_s"] = (get(f"{name}.self_s"), "s")
    m[f"{name}.closed_form_ratio"] = (
        _ratio(get(f"{name}.closed_form"), get(f"{name}.calls")),
        "ratio",
    )
    m["periodic.find_sliding_orbits.total_s"] = (get("periodic.find_sliding_orbits.total_s"), "s")
    m["periodic.classify_configuration.total_s"] = (
        get("periodic.classify_configuration.total_s"),
        "s",
    )

    name = "canonical.to_canonical"
    m[f"{name}.calls"] = (get(f"{name}.calls"), "count")
    m[f"{name}.self_s"] = (get(f"{name}.self_s"), "s")
    m[f"{name}.refused_ratio"] = (_ratio(get(f"{name}.errors"), get(f"{name}.calls")), "ratio")
    named = 0
    for exc in REFUSALS:
        m[f"{name}.refused.{exc}"] = (get(f"{name}.error.{exc}"), "count")
        named += get(f"{name}.error.{exc}")
    m[f"{name}.refused.other"] = (get(f"{name}.errors") - named, "count")

    name = "halfmaps.make_context"
    m[f"{name}.self_s"] = (get(f"{name}.self_s"), "s")
    m[f"{name}.refused_ratio"] = (_ratio(get(f"{name}.errors"), get(f"{name}.calls")), "ratio")
    m["halfmaps.zeros_of_D.total_s"] = (get("halfmaps.zeros_of_D.total_s"), "s")
    for fname in ("P_R", "P_L_inv", "derivatives", "displacement"):
        name = f"halfmaps.{fname}"
        m[f"{name}.calls"] = (get(f"{name}.calls"), "count")
        m[f"{name}.self_s"] = (get(f"{name}.self_s"), "s")

    for fname in ("classify_point", "tangency_points", "equilibrium_info", "sigma_decomposition"):
        name = f"core.{fname}"
        m[f"{name}.calls"] = (get(f"{name}.calls"), "count")
        m[f"{name}.self_s"] = (get(f"{name}.self_s"), "s")
    m["core.runtime_warnings"] = (extra["runtime_warnings"], "count")
    m["census.degenerate_ratio"] = (extra["degenerate_ratio"], "ratio")

    m["specfile.resolve_spec.self_s"] = (get("specfile.resolve_spec.self_s"), "s")
    m["report.build_report.total_s"] = (get("report.build_report.total_s"), "s")
    m["report.build_report.self_s"] = (get("report.build_report.self_s"), "s")
    m["report.report_to_json.self_s"] = (get("report.report_to_json.self_s"), "s")
    m["report.report_to_json.bytes"] = (get("report.report_to_json.bytes"), "bytes")

    m["cli.import_s"] = (extra["cli_import_s"], "s")
    m["cli.import.scipy_s"] = (extra["scipy_import_s"], "s")
    m["trace.overhead_ratio"] = (extra["overhead_ratio"], "ratio")
    return m
