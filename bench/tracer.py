"""Span tracer that wraps geoprofile's public functions from outside.

Nothing inside the package changes.  ``Tracer.install`` replaces each
target with a wrapper that records a span (name, start, end, parent) and
rebinds every alias of the original inside the package's modules, so
calls made through ``from .x import f`` names are caught too;
``uninstall`` restores the originals.  Spans are kept in memory and
written out by the caller at the end of the run.

A span's self time is its duration minus the durations of its direct
child spans.  ``MetricGrid.value_and_h`` (the geodesic right-hand side)
is counted but not timed: it runs tens of thousands of times per
distance and a span per call would swamp what it measures.

``install_memory`` wraps only ``finiteness_check``, with tracemalloc on
for the duration of each call.  tracemalloc slows every allocation
inside the call, so it runs in a pass of its own, never together with
the spans.
"""

import functools
import os
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "geoprofile"

# (module, attribute) of every timed target; "Class.method" names a method.
SPAN_TARGETS = (
    ("special_functions", "phi_inverse"),
    ("ode_core", "riccati_stability_check"),
    ("ode_core", "solve_riccati"),
    ("geodesy", "distance"),
    ("geodesy", "geodesic_integrate"),
    ("geodesy", "save_metric_json"),
    ("geodesy", "load_metric_json"),
    ("profiles", "DistanceProfile.value"),
    ("profiles", "DistanceProfile.deriv"),
    ("profiles", "DistanceProfile.second_deriv"),
    ("profiles", "read_profile_csv"),
    ("whitney", "whitney_extend"),
    ("whitney", "holder_seminorm_pairs"),
    ("profile_analysis", "analyze"),
    ("profile_analysis", "twelve_point_configurations"),
    ("profile_analysis", "finiteness_check"),
    ("synthesis", "synthesize"),
    ("synthesis", "decompose_annuli"),
    ("synthesis", "extend_fk"),
    ("synthesis", "glue_f"),
    ("synthesis", "assemble_metric"),
    ("synthesis", "verify_synthesis"),
    ("surfaces", "roundtrip_suite"),
    ("surfaces", "checker_suite"),
    ("surfaces", "variable_curvature_grid"),
    ("calibration", "calibrate_constants"),
    ("report", "CheckerReport.to_json"),
    ("cli", "cmd_check"),
    ("cli", "cmd_synthesize"),
    ("cli", "cmd_verify"),
)
COUNT_TARGET = ("geodesy", "MetricGrid.value_and_h")
DISTANCE = "geodesy.distance"


def span_name(module, attr):
    """Metric prefix of a target: module plus the function's own name."""
    return f"{module}.{attr.rpartition('.')[2]}"


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.counts = Counter()  # work counters keyed by metric name
        self.peak_mb = 0.0       # tracemalloc peak over finiteness_check
        self._stack = []         # [span index, name, child seconds]
        self._undo = []

    # -- recording ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append([index, name, 0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
                if self._stack:
                    self._stack[-1][2] += end - start
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def _counted(self, fn):
        counts, stack = self.counts, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["geodesy.value_and_h.calls"] += 1
            if stack and stack[-1][1] == DISTANCE:
                counts["geodesy.value_and_h.in_distance"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _with_tracemalloc(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peak_mb = max(self.peak_mb, peak / 2 ** 20)
                if started:
                    tracemalloc.stop()
        return wrapper

    # work counters read from results, outside the timed span
    def _after(self, name):
        counts = self.counts
        if name == "profile_analysis.twelve_point_configurations":
            return lambda res, args: counts.update(
                {"profile_analysis.configurations": len(res)})
        if name == "synthesis.decompose_annuli":
            return lambda res, args: counts.update(
                {"synthesis.pieces": sum(len(v) for v in res.pieces.values())})
        if name == "synthesis.assemble_metric":
            return lambda res, args: counts.update(
                {"synthesis.grid_nodes": int(res.metric.G.size)})
        if name == "geodesy.save_metric_json":
            return lambda res, args: counts.update(
                {"geodesy.grid_json_bytes": os.path.getsize(args[1])})
        return None

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [m for k, m in list(sys.modules.items())
                if m is not None and (k == PACKAGE
                                      or k.startswith(PACKAGE + "."))]

    def _replace(self, module, attr, make):
        owner_name, _, fn_name = attr.rpartition(".")
        mod = sys.modules[f"{PACKAGE}.{module}"]
        if owner_name:
            owner = getattr(mod, owner_name)
            original = owner.__dict__[fn_name]
            setattr(owner, fn_name, make(original))
            self._undo.append((owner, fn_name, original))
            return
        original = getattr(mod, fn_name)
        wrapped = make(original)
        for m in self._modules():
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
                    self._undo.append((m, key, original))

    def install(self):
        for module, attr in SPAN_TARGETS:
            name = span_name(module, attr)
            self._replace(module, attr, lambda fn, name=name:
                          self._span(name, fn, self._after(name)))
        self._replace(*COUNT_TARGET, self._counted)

    def install_memory(self):
        self._replace("profile_analysis", "finiteness_check",
                      self._with_tracemalloc)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- aggregation --------------------------------------------------------

    def table(self):
        """Per span name: calls, total and self seconds, parent names."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        rows = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0, "parents": Counter()})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = rows[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            row["parents"][self.spans[parent][0] if parent >= 0
                           else "(benchmark)"] += 1
        return rows
