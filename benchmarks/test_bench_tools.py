"""Tests for the benchmark's own code: span arithmetic, the tracer's patching
and the per-run output checks."""

import json
import math
import sys
import types

import pytest

from tracer import (LAYER_METRICS, Tracer, layer_metrics, self_times,
                    span_totals)
from workloads import (EXTINCTION_AREA_FLOOR, WORKLOADS, check_flow,
                       check_frames, check_summary, extinction_time)


def test_self_time_subtracts_direct_children_only():
    spans = [["run", 0.0, 10.0, -1],
             ["step", 1.0, 4.0, 0],
             ["step", 5.0, 9.0, 0],
             ["solve", 6.0, 7.5, 2]]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.5, 1.5])
    totals = span_totals(spans)
    assert totals["step"].calls == 2
    assert totals["step"].seconds == pytest.approx(7.0)
    assert totals["step"].self_seconds == pytest.approx(5.5)


def test_tracer_records_nesting_with_scripted_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    # outer [0, 5], inner [1, 2] and [3, 4]
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


@pytest.fixture
def fake_module():
    mod = types.ModuleType("fake_helflow_layer")

    class Mesh:
        @property
        def edges(self):
            return "edges"

        def angles(self):
            return "angles"

    mod.Mesh = Mesh
    mod.build = lambda x: x + 1
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_patch_wraps_functions_methods_and_properties(fake_module):
    tracer = Tracer()
    missing = tracer.install({
        "build": [("fake_helflow_layer", "build")],
        "edges": [("fake_helflow_layer", "Mesh.edges")],
        "angles": [("fake_helflow_layer", "Mesh.angles")],
    })
    assert missing == []
    mesh = fake_module.Mesh()
    assert fake_module.build(1) == 2
    assert mesh.edges == "edges"
    assert mesh.angles() == "angles"
    assert [s[0] for s in tracer.spans] == ["build", "edges", "angles"]
    tracer.uninstall()
    assert isinstance(fake_module.Mesh.__dict__["edges"], property)
    fake_module.build(1)
    assert len(tracer.spans) == 3


def test_missing_entry_point_makes_metrics_absent(fake_module):
    tracer = Tracer()
    missing = tracer.install({
        "geometry.build_cache": [("fake_helflow_layer", "build")],
        "flow.solve": [("fake_helflow_layer", "Solver.solve")],
        "flow.step": [("fake_helflow_layer", "step")],
        "mesh.io": [("fake_helflow_layer", "build"),
                    ("no_such_module_anywhere", "load")],
    })
    assert sorted(missing) == ["flow.solve", "flow.step", "mesh.io"]
    fake_module.build(1)
    metrics = layer_metrics(tracer.spans, missing)
    tracer.uninstall()
    assert metrics["geometry.build_cache.calls"] == 1
    for absent in ("flow.solve.ms", "flow.solve.calls", "flow.step.calls",
                   "flow.accept_ratio", "mesh.io.ms"):
        assert absent not in metrics
    # Layers that exist but did not run read 0; span-free counts stay.
    assert metrics["remesh.calls"] == 0
    assert metrics["remesh.ms_per_call"] == 0.0
    assert metrics["flow.remesh_count"] == 0


def test_every_layer_metric_is_reported_when_nothing_is_missing():
    metrics = layer_metrics([], [])
    assert list(metrics) == [name for name, *_ in LAYER_METRICS]


def _extinction_summary(final_time=None, reason="singular_area_collapse"):
    t = extinction_time(EXTINCTION_AREA_FLOOR) if final_time is None \
        else final_time
    return {
        "termination": {"reason": reason, "final_time": t, "steps": 178,
                        "rejected_steps": 0,
                        "final_energies": {"area": 1.2},
                        "evidence": {"remesh_count": 0}},
        "n_frames": 3,
        "classification": {"verdict": "round_shrinker"},
    }


def test_extinction_oracle_matches_closed_form():
    assert extinction_time(0.0) == pytest.approx(-1.5 + 4 * math.log(1.5))


def test_checker_accepts_a_good_summary():
    wl = WORKLOADS["extinction-ico3"]
    out = check_summary(wl, _extinction_summary(), rising_rows=0)
    assert out.errors == []
    assert out.oracle_rel_err == pytest.approx(0.0)


@pytest.mark.parametrize("summary", [
    _extinction_summary(reason="dt_collapse"),
    _extinction_summary(final_time=1.11 * extinction_time(EXTINCTION_AREA_FLOOR)),
    _extinction_summary(final_time=0.89 * extinction_time(EXTINCTION_AREA_FLOOR)),
])
def test_checker_rejects_doctored_summary(summary):
    out = check_summary(WORKLOADS["extinction-ico3"], summary, rising_rows=0)
    assert out.errors


def test_checker_rejects_rising_energy_and_wrong_exit_code(tmp_path):
    wl = WORKLOADS["extinction-ico3"]
    (tmp_path / "summary.json").write_text(json.dumps(_extinction_summary()))
    (tmp_path / "series.csv").write_text(
        "t,penalized\n0,10.0\n0.1,9.0\n0.2,9.5\n")
    out = check_flow(wl, str(tmp_path), exit_code=2)
    assert any("energy rose on 1 rows" in e for e in out.errors)
    (tmp_path / "series.csv").write_text("t,penalized\n0,10.0\n0.1,9.0\n")
    assert check_flow(wl, str(tmp_path), exit_code=2).errors == []
    assert check_flow(wl, str(tmp_path), exit_code=0).errors
    (tmp_path / "summary.json").write_text(json.dumps({"termination": {}}))
    assert any("unreadable" in e
               for e in check_flow(wl, str(tmp_path), exit_code=2).errors)


def test_remesh_workload_allows_one_rising_row_per_remesh():
    wl = WORKLOADS["ellipsoid-remesh-ico3"]
    summary = _extinction_summary(reason="step_budget")
    summary["termination"]["evidence"]["remesh_count"] = 2
    assert check_summary(wl, summary, rising_rows=2).errors == []
    assert check_summary(wl, summary, rising_rows=3).errors


def test_remesh_workload_fails_without_a_remesh():
    wl = WORKLOADS["ellipsoid-remesh-ico3"]
    summary = _extinction_summary(reason="step_budget")
    out = check_summary(wl, summary, rising_rows=0)
    assert any("0 remeshes" in e for e in out.errors)


def test_frames_checker():
    wl = WORKLOADS["frames-ico4"]
    good = {"willmore": [4 * math.pi * 1.01] * 3, "verdict": "round_shrinker"}
    assert check_frames(wl, good).errors == []
    assert check_frames(wl, {**good, "willmore": good["willmore"][:2]}).errors
    assert check_frames(wl, {**good, "verdict": "non_round_concentration"}).errors
    assert check_frames(wl, {**good, "willmore": [4 * math.pi * 1.2] * 3}).errors
