"""One benchmark operation, run in a fresh process by ``run.py``.

Usage: ``python3 benchmarks/op.py SPEC.json``.  The spec names the workload
kind, the source tree helflow must come from (the parent puts it on
``PYTHONPATH``), the output directory and whether to trace.  The process
writes ``result.json`` next to the spec: its monotonic-clock marks (the
first step or frame call, null if there was none, and the end), its CPU time
and peak RSS, the host-speed kernel's time measured right after the call,
and, when traced, its spans.
``time.monotonic`` is the same clock in every process, so the parent can
subtract its own spawn time.
"""

import json
import os
import resource
import sys
import time


def _mark_first_call(module, attr, marks):
    """Record the time of the first call to ``module.attr``, then get out of
    the way: the original (or traced) function is put back on that call."""
    original = getattr(module, attr)

    def first(*args, **kwargs):
        marks.setdefault("first", time.monotonic())
        setattr(module, attr, original)
        return original(*args, **kwargs)

    setattr(module, attr, first)


def run_flow_op(spec, marks):
    import helflow.cli
    import helflow.flow

    # wall_s starts at the first step.  If step is renamed or no longer
    # called through the module, the operation fails (no "first" mark) and
    # this line has to be updated on purpose.
    _mark_first_call(helflow.flow, "step", marks)
    return helflow.cli.main(["--quiet", "flow", "--config", spec["config"],
                             "--out", spec["out"]]), {}


def run_frames_op(spec, marks):
    import helflow.diagnostics as diagnostics
    from helflow.flow import FlowState
    from helflow.geometry import FlowParams, build_cache
    from helflow.validate import perturbed_sphere

    params = FlowParams(-1.0, 0.0)
    states = []
    for k, (amp, radius) in enumerate(zip(spec["amplitudes"], spec["radii"])):
        mesh = perturbed_sphere(spec["seed"], spec["level"], amp, radius)
        states.append(FlowState(t=0.01 * k, mesh=mesh,
                                cache=build_cache(mesh, params), dt=0.0))
    marks["first"] = time.monotonic()
    sink = diagnostics.FrameSink(params)
    for state in states:
        sink(state, None)
    cls = diagnostics.classify_singularity(sink.frames,
                                           "singular_area_collapse")
    return 0, {"willmore": [f.willmore for f in sink.frames],
               "verdict": cls.verdict}


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import helflow

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(helflow.__file__).startswith(src + os.sep):
        raise SystemExit(f"helflow imported from {helflow.__file__}, "
                         f"not from {src}")
    tracer, missing = None, []
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        missing = tracer.install()

    marks = {}
    run = run_flow_op if spec["kind"] == "flow" else run_frames_op
    exit_code, extra = run(spec, marks)
    marks["end"] = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    import hostspeed    # after the marks: its imports are not set-up work
    result = {
        "exit_code": exit_code,
        "first": marks.get("first"),
        "end": marks["end"],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,   # ru_maxrss is KiB on Linux
        "calibration_s": hostspeed.calibrate(),
        "missing": missing,
        "spans": tracer.spans if tracer else [],
        **extra,
    }
    with open(os.path.join(os.path.dirname(spec_path), "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
