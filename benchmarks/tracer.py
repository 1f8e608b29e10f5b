"""Outside-in span tracer for helflow's public entry points.

The tracer never edits ``src/helflow``.  It replaces a function, method or
property getter with a wrapper that records a span ``[name, start, end,
parent]`` and calls the original.  Each name is patched where its caller looks
it up (``helflow.cli.run_flow``, ``helflow.flow.build_cache``), so the wrapper
sees every call the flow makes.  Spans stay in memory until the run ends.

An entry point that no longer exists (renamed or removed by a refactor) makes
its span name *missing*: the metrics built on it are left out, and the run goes
on.
"""

import functools
import importlib
import time
from dataclasses import dataclass

# span name -> sites (module, attribute path) that the callers look up.
TARGETS = {
    "flow.step": [("helflow.flow", "step")],
    "flow.solve": [("helflow.flow", "ImplicitSolver.solve")],
    "flow.remesh_trigger": [("helflow.flow", "_needs_remesh")],
    "flow.run": [("helflow.cli", "run_flow")],
    "mesh.edges": [("helflow.mesh", "TriangleMesh.edges")],
    "mesh.face_angles": [("helflow.mesh", "TriangleMesh.face_angles")],
    "mesh.with_vertices": [("helflow.mesh", "TriangleMesh.with_vertices")],
    "mesh.io": [("helflow.cli", "load_mesh"), ("helflow.cli", "save_mesh")],
    "geometry.build_cache": [("helflow.flow", "build_cache")],
    "geometry.flow_velocity": [("helflow.flow", "flow_velocity")],
    # ``helflow.remesh`` as an attribute is the re-exported function; the
    # module is reached through importlib (sys.modules).
    "remesh": [("helflow.remesh", "remesh")],
    "remesh.hausdorff": [("helflow.remesh", "hausdorff_distance")],
    "diagnostics.kappa_profile": [("helflow.diagnostics", "kappa_profile")],
    "diagnostics.kappa": [("helflow.diagnostics", "kappa")],
    "diagnostics.frame": [("helflow.diagnostics", "extract_blowup_frame")],
    "diagnostics.classify": [("helflow.cli", "classify_singularity"),
                             ("helflow.diagnostics", "classify_singularity")],
    "cli.csv_sink": [("helflow.cli", "CsvSink.__call__")],
    "cli.outputs": [("helflow.cli", "_write_frames"),
                    ("helflow.cli", "_write_kappa_profiles"),
                    ("helflow.cli", "_write_json")],
}

# Per-layer metrics: (name, unit, span name or None, statistic).
LAYER_METRICS = (
    ("flow.step.calls", "count", "flow.step", "calls"),
    ("flow.step.self_ms", "ms", "flow.step", "self_ms"),
    ("flow.accept_ratio", "1", "flow.step", "accept_ratio"),
    ("flow.solve.calls", "count", "flow.solve", "calls"),
    ("flow.solve.ms", "ms", "flow.solve", "ms"),
    ("flow.solve.ms_per_call", "ms", "flow.solve", "ms_per_call"),
    ("flow.remesh_trigger.ms", "ms", "flow.remesh_trigger", "ms"),
    ("flow.remesh_count", "count", None, "remesh_count"),
    ("flow.run.self_ms", "ms", "flow.run", "self_ms"),
    ("mesh.edges.calls", "count", "mesh.edges", "calls"),
    ("mesh.edges.ms", "ms", "mesh.edges", "ms"),
    ("mesh.face_angles.ms", "ms", "mesh.face_angles", "ms"),
    ("mesh.with_vertices.ms", "ms", "mesh.with_vertices", "ms"),
    ("mesh.io.ms", "ms", "mesh.io", "ms"),
    ("geometry.build_cache.calls", "count", "geometry.build_cache", "calls"),
    ("geometry.build_cache.ms", "ms", "geometry.build_cache", "ms"),
    ("geometry.build_cache.ms_per_call", "ms", "geometry.build_cache",
     "ms_per_call"),
    ("geometry.flow_velocity.ms", "ms", "geometry.flow_velocity", "ms"),
    ("remesh.calls", "count", "remesh", "calls"),
    ("remesh.ms", "ms", "remesh", "ms"),
    ("remesh.ms_per_call", "ms", "remesh", "ms_per_call"),
    ("remesh.hausdorff.ms", "ms", "remesh.hausdorff", "ms"),
    ("diagnostics.kappa_profile.calls", "count", "diagnostics.kappa_profile",
     "calls"),
    ("diagnostics.kappa_profile.ms", "ms", "diagnostics.kappa_profile", "ms"),
    ("diagnostics.kappa.calls", "count", "diagnostics.kappa", "calls"),
    ("diagnostics.kappa.ms", "ms", "diagnostics.kappa", "ms"),
    ("diagnostics.frame.self_ms", "ms", "diagnostics.frame", "self_ms"),
    ("diagnostics.classify.ms", "ms", "diagnostics.classify", "ms"),
    ("cli.csv_sink.ms", "ms", "cli.csv_sink", "ms"),
    ("cli.outputs.ms", "ms", "cli.outputs", "ms"),
)

OVERHEAD_METRIC = ("trace.overhead_frac", "1")


class Tracer:
    """Records nested spans around patched entry points of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []     # [name, start, end, parent index or -1]
        self._stack = []
        self._undo = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def patch(self, name, module_name, path):
        """Wrap ``module.path`` in place; False if it cannot be found."""
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        # Class attributes are read from __dict__ so that a property is
        # replaced as a property, not by the value its getter returns.
        original = (owner.__dict__.get(attr) if isinstance(owner, type)
                    else getattr(owner, attr, None))
        if original is None:
            return False
        if isinstance(original, property):
            replacement = property(self.wrap(name, original.fget))
        elif callable(original):
            replacement = self.wrap(name, original)
        else:
            return False
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))
        return True

    def install(self, targets=TARGETS):
        """Patch every target; returns the span names that are missing.

        A name with several sites counts as missing when any site is, since
        its totals would be incomplete.
        """
        missing = []
        for name, sites in targets.items():
            found = [self.patch(name, module, path) for module, path in sites]
            if not all(found):
                missing.append(name)
        return missing

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _), c in zip(spans, covered)]


@dataclass
class SpanTotals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


def span_totals(spans):
    totals = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        t = totals.setdefault(name, SpanTotals())
        t.calls += 1
        t.seconds += end - start
        t.self_seconds += own
    return totals


def layer_metrics(spans, missing, accepted_steps=0, remesh_count=0):
    """Per-layer metrics of one traced process.

    Metrics on a missing span name are absent.  A layer that exists but did
    not run reads 0, ratios included.
    """
    totals = span_totals(spans)
    out = {}
    for name, _, span, stat in LAYER_METRICS:
        if span in missing:
            continue
        t = totals.get(span, SpanTotals())
        if stat == "calls":
            value = t.calls
        elif stat == "ms":
            value = 1e3 * t.seconds
        elif stat == "self_ms":
            value = 1e3 * t.self_seconds
        elif stat == "ms_per_call":
            value = 1e3 * t.seconds / t.calls if t.calls else 0.0
        elif stat == "accept_ratio":
            value = accepted_steps / t.calls if t.calls else 0.0
        elif stat == "remesh_count":
            value = remesh_count
        else:
            raise ValueError(f"unknown statistic {stat!r}")
        out[name] = value
    return out
