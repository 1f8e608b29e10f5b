"""The benchmark's tracer and operation runner patch helflow's entry points by
name; a renamed or removed one would leave their results incomplete."""

import importlib.util
import os

import helflow.flow
from helflow.flow import SteppingPolicy, run_flow
from helflow.geometry import FlowParams
from helflow.mesh import make_icosphere

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                           "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_entry_point():
    tracer = _load_tracer().Tracer()
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()


def test_run_flow_calls_step_through_the_module(monkeypatch):
    # the operation runner times a flow from the first call of
    # helflow.flow.step
    calls = []
    original = helflow.flow.step

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(helflow.flow, "step", counted)
    _, report = run_flow(make_icosphere(1), FlowParams(-1.0),
                         SteppingPolicy(max_steps=2))
    assert len(calls) == report.steps + report.rejected_steps > 0
