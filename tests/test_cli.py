import argparse
import csv
import json
import os
import re
import signal
import subprocess
import sys

import numpy as np
import pytest

from dataclasses import fields

import helflow.cli as cli
import helflow.flow
from helflow.cli import (EXIT_CONFIG, EXIT_INCONCLUSIVE, EXIT_IO, EXIT_OK,
                         EXIT_SINGULAR, EXIT_SOLVER, ConfigError, RunConfig,
                         build_parser, build_run_config, load_run_config, main,
                         parse_config_text)
from helflow.diagnostics import DiagnosticsError, SingularityClassification
from helflow.flow import (CSV_COLUMNS, FlowError, SolverError, SteppingPolicy,
                          TerminationReport, TimeSeriesRecord)
from helflow.geometry import FlowParams, GeometryError
from helflow.mesh import (MeshError, MeshFormatError, load_mesh,
                          make_icosphere, save_mesh)
from helflow.remesh import RemeshError
from helflow.sphere_ode import SphereOdeError, TheoryBounds

BASE_CFG = """
# shrinking-sphere run
mesh.icosphere.subdivisions = 1
mesh.icosphere.radius = 1.0
params.c0 = -1.0
params.lambda = 0.0
policy.max_steps = 8000
output.dir = out
"""


def write_cfg(tmp_path, text=BASE_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_text():
    raw = parse_config_text("a.b = 1 # comment\n\n# full comment\nc = x\n")
    assert raw == {"a.b": "1", "c": "x"}
    with pytest.raises(ConfigError):
        parse_config_text("not a pair\n")


def test_build_run_config_requires_exactly_one_mesh_source():
    with pytest.raises(ConfigError):
        build_run_config({"params.c0": "1.0"})
    with pytest.raises(ConfigError):
        build_run_config({"params.c0": "1.0", "mesh.path": "x.off",
                          "mesh.icosphere.subdivisions": "2"})


def test_build_run_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        build_run_config({"params.c0": "1.0",
                          "mesh.icosphere.subdivisions": "2",
                          "policy.bogus": "1"})
    with pytest.raises(ConfigError):
        build_run_config({"params.c0": "1.0",
                          "mesh.icosphere.subdivisions": "2",
                          "mystery": "1"})
    with pytest.raises(ConfigError):
        build_run_config({"params.c0": "1.0",
                          "mesh.icosphere.subdivisions": "2",
                          "diagnostics.kappa_radii": "auto"})


def test_policy_keys_parse_by_field_type():
    base = {"params.c0": "1.0", "mesh.icosphere.subdivisions": "2"}
    for f in fields(SteppingPolicy):
        raw = dict(base, **{f"policy.{f.name}": str(f.default)})
        assert build_run_config(raw).policy == SteppingPolicy(), f.name
    raw = dict(base, **{"policy.time_horizon": "infinite"})
    assert build_run_config(raw).policy == SteppingPolicy()


def test_unset_keys_take_the_field_defaults():
    cfg = build_run_config({"params.c0": "-1.5",
                            "mesh.icosphere.subdivisions": "3"})
    assert cfg == RunConfig(FlowParams(-1.5), SteppingPolicy(),
                            icosphere_subdivisions=3)


def _readme_config_keys():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("### Run configuration", 1)[1]
    rows = [line for line in section.split("\n### ", 1)[0].splitlines()
            if line.startswith("| `")]
    return [key for row in rows for key in re.findall(r"`([^`]+)`",
                                                      row.split("|")[1])]


def _config_value(value):
    """A field value written the way a config file writes it."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return "none" if value is None else str(value)


def test_readme_config_table_lists_every_key(tmp_path):
    documented = _readme_config_keys()
    assert len(documented) == len(set(documented))
    assert set(documented) == set(cli.CONFIG_FIELDS)
    # every documented key parses; set to its field's default, it changes
    # nothing
    save_mesh(make_icosphere(1), tmp_path / "s.off")
    base = {"params.c0": "1.0", "mesh.icosphere.subdivisions": "2"}
    expected = build_run_config(base)
    for key in documented:
        if key == "mesh.path":
            raw = {"params.c0": "1.0", key: "s.off"}
            assert build_run_config(raw, str(tmp_path)).mesh_path == \
                str(tmp_path / "s.off")
            continue
        owner, name = cli.CONFIG_FIELDS[key]
        instance = {FlowParams: expected.params,
                    SteppingPolicy: expected.policy}.get(owner, expected)
        value = _config_value(getattr(instance, name))
        assert build_run_config(dict(base, **{key: value})) == expected, key


def test_config_missing_mesh_path(tmp_path):
    cfg = write_cfg(tmp_path, "params.c0 = 1\nmesh.path = missing.off\n")
    with pytest.raises(ConfigError):
        load_run_config(cfg)


def test_overrides(tmp_path):
    cfg = write_cfg(tmp_path)
    rc = load_run_config(cfg, overrides=["params.c0=2.5",
                                         "policy.max_steps=7"])
    assert rc.params.c0 == 2.5
    assert rc.policy.max_steps == 7


def test_flow_command_singular_run(tmp_path):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    code = main(["--quiet", "flow", "--config", cfg, "--out", out])
    assert code == EXIT_SINGULAR

    with open(os.path.join(out, "series.csv")) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    assert tuple(header) == CSV_COLUMNS
    assert len(rows) > 10
    t_col = [float(r[0]) for r in rows]
    assert t_col == sorted(t_col)

    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["termination"]["reason"] == "singular_area_collapse"
    assert list(summary) == ["params", "mesh", "seed", "termination",
                             "theory_bounds", "threshold_comparisons",
                             "classification", "n_frames"]
    assert list(summary["theory_bounds"]) == [
        f.name for f in fields(TheoryBounds)]
    # each bound is stated once, in theory_bounds
    for key in ("en_threshold", "t_bound", "e0_inconsistent"):
        assert _key_count(summary, key) == 1, key
    assert summary["theory_bounds"]["t_bound"] is not None
    assert summary["threshold_comparisons"]["initial_energy"] > 0
    assert summary["threshold_comparisons"]["final_time_within_t_bound"]
    assert summary["classification"]["verdict"] in (
        "round_shrinker", "non_round_concentration")
    assert list(summary["termination"]) == [
        f.name for f in fields(TerminationReport)]
    assert list(summary["classification"]) == [
        f.name for f in fields(SingularityClassification)]
    assert summary["n_frames"] >= 3
    frames = os.listdir(os.path.join(out, "frames"))
    assert any(f.endswith(".off") for f in frames)
    assert any(f.endswith(".meta") for f in frames)
    with open(os.path.join(out, "kappa_profiles.csv")) as fh:
        assert fh.readline().strip() == "t,r,kappa,cx,cy,cz"
        assert len(fh.readlines()) > 10


def _key_count(doc, key):
    """How often ``key`` occurs as a key anywhere in a JSON document."""
    if isinstance(doc, dict):
        return (key in doc) + sum(_key_count(v, key) for v in doc.values())
    if isinstance(doc, list):
        return sum(_key_count(v, key) for v in doc)
    return 0


def test_flow_command_clean_run(tmp_path):
    text = BASE_CFG.replace("params.c0 = -1.0", "params.c0 = 2.0") + \
        "policy.time_horizon = 0.02\npolicy.gradient_tol = none\n"
    cfg = write_cfg(tmp_path, text)
    out = str(tmp_path / "out2")
    code = main(["--quiet", "flow", "--config", cfg, "--out", out,
                 "--override", "diagnostics.frames=off"])
    assert code == EXIT_OK
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["termination"]["reason"] == "horizon_reached"
    assert summary["classification"] is None


def test_flow_without_frames_starts_no_thread(tmp_path, helflow_env):
    # the kappa scan's thread pool starts on the first scan, so a run whose
    # frame sink never fires stays on the main thread and never loads the
    # pool's module
    text = BASE_CFG.replace("params.c0 = -1.0", "params.c0 = 1.0").replace(
        "params.lambda = 0.0", "params.lambda = 0.5") + \
        "policy.time_horizon = 0.02\npolicy.gradient_tol = none\n"
    cfg = write_cfg(tmp_path, text)
    code = ("import sys, threading\n"
            "import helflow.cli\n"
            f"code = helflow.cli.main(['--quiet', 'flow', '--config', {cfg!r}, "
            f"'--out', {str(tmp_path / 'out')!r}])\n"
            "print(code, threading.active_count(), "
            "'concurrent.futures.thread' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=helflow_env,
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == [str(EXIT_OK), "1", "False"]


def test_flow_command_writes_only_read_outputs(tmp_path):
    # a singular run writes these outputs and nothing else
    out = tmp_path / "out"
    assert main(["--quiet", "flow", "--config", write_cfg(tmp_path),
                 "--out", str(out)]) == EXIT_SINGULAR
    assert sorted(p.name for p in out.iterdir()) == [
        "frames", "kappa_profiles.csv", "series.csv", "summary.json"]


def test_summary_agrees_with_series(tmp_path):
    # the run facts summary.json leaves out are read off series.csv
    out = tmp_path / "out"
    assert main(["--quiet", "flow", "--config", write_cfg(tmp_path),
                 "--out", str(out), "--override", "diagnostics.frames=off",
                 "--override", "policy.max_steps=3"]) == EXIT_INCONCLUSIVE
    with open(out / "series.csv") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads((out / "summary.json").read_text())
    final_time = summary["termination"]["final_time"]
    t_bound = summary["theory_bounds"]["t_bound"]
    comparisons = summary["threshold_comparisons"]
    assert comparisons["initial_energy"] == float(rows[0]["penalized"])
    assert final_time == float(rows[-1]["t"])
    assert comparisons["final_time_within_t_bound"] == (final_time < t_bound)
    assert comparisons["initial_energy_below_threshold"] == (
        comparisons["initial_energy"]
        <= summary["theory_bounds"]["en_threshold"])


def test_flow_command_bad_config(tmp_path):
    cfg = write_cfg(tmp_path, "mesh.path = nowhere.off\nparams.c0 = 1\n")
    assert main(["--quiet", "flow", "--config", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize("command", [
    "flow --config {cfg} --out {out} --override policy.dt_init=-1",
    "flow --config {cfg} --out {out} --override policy.mode=foo",
    "flow --config {cfg} --out {out} --override policy.mode=semi_implicit",
    "flow --config {cfg} --out {out} --override policy.cfl_coefficient=0.05",
    "flow --config {cfg} --out {out} --override policy.max_steps=abc",
    "flow --config {cfg} --out {out} --override params.c0=x",
    "flow --config {cfg} --out {out} --override params.lambda=-1",
    "energy {mesh} --c0 1 --lambda -1",
    "rescale {mesh} --r 2 --c0 nan",
    "rescale {mesh} --r nan --c0 1",
    "rescale {mesh} --r inf --c0 1",
    "rescale {mesh} --r 2 --x nan 0 0 --c0 1",
    "ode --c0 -1 --r0 nan --horizon 1 --out {out}",
    "ode --c0 -1 --r0 1 --horizon inf --out {out}",
    "ode --c0 x --r0 1 --horizon 1 --out {out}",
    "ode --c0 -1 --horizon 1 --out {out}",
    "validate identities",
    # one spelling per setting: these duplicated diagnostics.frames and
    # policy.remesh_min_angle
    "flow --config {cfg} --out {out} --frames off",
    "flow --config {cfg} --out {out} --override policy.remesh_min_angle_deg=10",
    # values the parameters (or a number derived from them) cannot hold
    "ode --c0 1e200 --r0 1 --horizon 1 --out {out}",
    "ode --c0 -1 --r0 1e300 --horizon 1 --out {out}",
    "energy {mesh} --c0 1e200",
    "energy {mesh} --c0 1e200 --lambda 1e300",
    "energy {mesh} --c0 1 --lambda 1e308",
    "rescale {mesh} --r 1e300 --c0 1",
    "rescale {mesh} --r 1e-320 --c0 1",
    "flow --config {cfg} --out {out} --override params.c0=1e200",
    "flow --config {cfg} --out {out} --override mesh.icosphere.radius=1e78",
    "flow --config {cfg} --out {out} --override mesh.icosphere.radius=1e200",
    *(f"ode --c0 -1 --r0 1 --horizon 1 --rtol {value} --out {{out}}"
      for value in ("nan", "0", "-1", "1", "10", "1e-20", "1e-15")),
    # keys of the removed checkpoints
    "flow --config {cfg} --out {out} --override policy.checkpoint_every=2",
    "flow --config {cfg} --out {out} --override policy.checkpoint_dir=x",
    "flow --config {cfg} --out {out} --override policy.remesh_edge_drift=1",
    *(f"flow --config {{cfg}} --out {{out}} --override policy.{name}=nan"
      for name in ("dt_init", "dt_floor", "area_floor_fraction",
                   "blowup_threshold", "curvature_dt_coeff", "time_horizon",
                   "gradient_tol", "remesh_min_angle",
                   "energy_increase_tol_rel")),
    *("flow --config {cfg} --out {out} "
      f"--override diagnostics.kappa_target_fraction={value}"
      for value in ("0", "-1", "nan", "1", "2")),
])
def test_invalid_values_exit_with_config_error(tmp_path, capfd, command):
    mesh_path = str(tmp_path / "s.off")
    save_mesh(make_icosphere(1, 1.0), mesh_path)
    argv = command.format(cfg=write_cfg(tmp_path), out=str(tmp_path / "out"),
                          mesh=mesh_path).split()
    assert _main_within(30, ["--quiet", *argv]) == EXIT_CONFIG
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.parametrize("command,code,written", [
    # e0 ** 2 overflows in the t_bound, which then comes from e0 / kappa;
    # the normals' squared norms overflow too, and must not warn
    pytest.param(
        "flow --config {cfg} --out {out} --override mesh.icosphere.radius=1e77 "
        "--override policy.max_steps=3", EXIT_INCONCLUSIVE, "summary.json",
        marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    ("ode --c0 -1 --r0 1e100 --horizon 1 --out {out}", EXIT_OK,
     "ode_summary.json"),
])
def test_large_but_finite_inputs_run(tmp_path, capfd, command, code, written):
    out = tmp_path / "out"
    argv = command.format(cfg=write_cfg(tmp_path), out=str(out)).split()
    assert main(["--quiet", *argv]) == code
    assert "Traceback" not in capfd.readouterr().err
    # strict JSON: the flow's t_bound is inf
    json.loads((out / written).read_text(), parse_constant=_reject)


def _reject(token):
    raise ValueError(f"not strict JSON: {token}")


def test_json_text_writes_non_finite_floats_as_strings():
    text = cli._json_text({"a": [np.inf, -np.inf, np.nan, np.float64(2.5)]})
    assert json.loads(text, parse_constant=_reject) == {
        "a": ["inf", "-inf", "nan", 2.5]}


def _main_within(seconds, argv):
    """``main(argv)``, failing with TimeoutError after ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"{' '.join(argv)} ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("command", [
    "energy {mesh} --c0 1",
    "rescale {mesh} --r 2 --c0 1",
    "flow --config {cfg} --out {out}",
])
def test_unused_vertices_exit_with_config_error(tmp_path, capfd, command):
    # chi stays even with two extra vertices, so only the vertex check sees it
    base = make_icosphere(1)
    mesh_path = tmp_path / "unused.off"
    vertices = np.vstack([base.vertices, [[3.0, 3.0, 3.0], [4.0, 4.0, 4.0]]])
    mesh_path.write_text(
        f"OFF\n{len(vertices)} {base.n_faces} 0\n"
        + "".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in vertices)
        + "".join(f"3 {a} {b} {c}\n" for a, b, c in base.faces))
    cfg = write_cfg(tmp_path, f"mesh.path = {mesh_path}\nparams.c0 = -1.0\n"
                    "policy.max_steps = 3\n")
    argv = command.format(mesh=str(mesh_path), cfg=cfg,
                          out=str(tmp_path / "out")).split()
    assert main(["--quiet", *argv]) == EXIT_CONFIG
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.parametrize("command", [
    "energy {mesh} --c0 1 --out {tmp}/missing_dir/x.json",
    "ode --c0 -1 --r0 1 --horizon 0.1 --out {file}",
    "flow --config {cfg} --out {file}",
])
def test_output_io_errors_exit_with_io_error(tmp_path, capfd, caplog, command):
    mesh_path = str(tmp_path / "s.off")
    save_mesh(make_icosphere(1, 1.0), mesh_path)
    existing = tmp_path / "taken"
    existing.write_text("a file where a directory is expected\n")
    argv = command.format(mesh=mesh_path, tmp=str(tmp_path), file=str(existing),
                          cfg=write_cfg(tmp_path)).split()
    assert main(["--quiet", *argv]) == EXIT_IO
    assert "Traceback" not in capfd.readouterr().err
    assert "IO failure" in caplog.text


def test_csv_is_17_digit_round_trippable(tmp_path):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "out3")
    main(["--quiet", "flow", "--config", cfg, "--out", out,
          "--override", "policy.max_steps=3",
          "--override", "diagnostics.frames=off"])
    with open(os.path.join(out, "series.csv")) as fh:
        fh.readline()
        first = fh.readline().strip().split(",")
    # 17 significant digits round-trip float64 exactly
    for tok in first:
        assert float(tok) == float(f"{float(tok):.17g}")


def test_csv_header_follows_record_fields(tmp_path):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "out4")
    main(["--quiet", "flow", "--config", cfg, "--out", out,
          "--override", "policy.max_steps=2",
          "--override", "diagnostics.frames=off"])
    with open(os.path.join(out, "series.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert header == [f.name for f in fields(TimeSeriesRecord)]
    assert tuple(header) == CSV_COLUMNS


def test_flow_command_overflowing_steps_end_cleanly(tmp_path, capfd):
    text = BASE_CFG.replace("policy.max_steps = 8000", "policy.max_steps = 5") \
        + "policy.curvature_dt_coeff = 1e300\n" \
        + "policy.dt_init = 1e300\n"
    cfg = write_cfg(tmp_path, text)
    out = str(tmp_path / "out5")
    code = main(["--quiet", "flow", "--config", cfg, "--out", out,
                 "--override", "diagnostics.frames=off"])
    assert code == EXIT_INCONCLUSIVE
    captured = capfd.readouterr()
    assert "Traceback" not in captured.err + captured.out
    assert "Warning" not in captured.err
    with open(os.path.join(out, "summary.json")) as fh:
        assert json.load(fh)["termination"]["rejected_steps"] > 0


def test_flow_command_failed_solves_end_cleanly(tmp_path, capfd, monkeypatch):
    # every semi-implicit solve fails: each step is rejected until dt collapses
    monkeypatch.setattr(helflow.flow, "CG_MAXITER", 1)
    cfg = write_cfg(tmp_path, BASE_CFG.replace("subdivisions = 1",
                                               "subdivisions = 2"))
    out = str(tmp_path / "out7")
    code = main(["--quiet", "flow", "--config", cfg, "--out", out,
                 "--override", "diagnostics.frames=off"])
    assert code == EXIT_INCONCLUSIVE
    captured = capfd.readouterr()
    assert "Traceback" not in captured.err + captured.out
    with open(os.path.join(out, "summary.json")) as fh:
        termination = json.load(fh)["termination"]
    assert termination["reason"] == "dt_collapse"
    assert termination["rejected_steps"] > 0


# every typed error and the code it documents; RemeshError is a MeshError
TYPED_ERROR_CODES = {
    ConfigError: EXIT_CONFIG, MeshFormatError: EXIT_CONFIG,
    MeshError: EXIT_CONFIG, OverflowError: EXIT_CONFIG, OSError: EXIT_IO,
    RemeshError: EXIT_SOLVER, FlowError: EXIT_SOLVER, SolverError: EXIT_SOLVER,
    GeometryError: EXIT_SOLVER, DiagnosticsError: EXIT_SOLVER,
    SphereOdeError: EXIT_SOLVER,
}


@pytest.mark.parametrize("site,command", [
    pytest.param("run_flow", "flow --config {cfg} --out {out}", id="flow"),
    pytest.param("build_cache", "energy {mesh} --c0 1", id="energy"),
    pytest.param("build_cache", "rescale {mesh} --r 2 --c0 1 --out {out}.off",
                 id="rescale"),
    pytest.param("integrate_sphere_ode",
                 "ode --c0 -1 --r0 1 --horizon 1 --out {out}", id="ode"),
])
def test_every_typed_error_maps_to_its_exit_code(tmp_path, capfd, monkeypatch,
                                                 site, command):
    # each error is raised where the command does its work
    mesh_path = str(tmp_path / "s.off")
    save_mesh(make_icosphere(1), mesh_path)
    argv = ["--quiet", *command.format(cfg=write_cfg(tmp_path),
                                       out=str(tmp_path / "out"),
                                       mesh=mesh_path).split()]
    for error, code in TYPED_ERROR_CODES.items():
        monkeypatch.setattr(cli, site, _raising(error))
        assert main(argv) == code, error.__name__
        assert "Traceback" not in capfd.readouterr().err, error.__name__
    # anything untyped is a bug and keeps its traceback
    monkeypatch.setattr(cli, site, _raising(ValueError))
    with pytest.raises(ValueError, match="injected"):
        main(argv)


def _raising(error):
    def fail(*args, **kwargs):
        raise error("injected")
    return fail


def test_readme_exit_codes_match_the_table():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("### Exit codes", 1)[1].split("\n#", 1)[0]
    rows = {int(m.group(1)): m.group(2) for m in
            re.finditer(r"^\| `(\d+)` \| (.*) \|$", section, re.M)}
    assert set(rows) == {EXIT_OK, EXIT_SINGULAR, EXIT_INCONCLUSIVE} | {
        code for _, code, _ in cli.EXIT_CODES}
    for _, code, label in cli.EXIT_CODES:
        assert rows[code].startswith(label), code


@pytest.mark.parametrize("command", [
    "energy {mesh} --c0 1",
    "rescale {mesh} --r 2 --c0 1 --out {out}",
])
def test_unassemblable_geometry_exits_with_solver_error(tmp_path, capfd,
                                                        command):
    # a valid closed mesh whose sliver face overflows a cotangent weight
    mesh_path = tmp_path / "sliver.off"
    mesh_path.write_text(
        "OFF\n4 4 0\n0 0 0\n1 0 0\n0.5 1 0\n0.5 1e-13 1e-13\n"
        "3 0 2 1\n3 0 1 3\n3 1 2 3\n3 2 0 3\n")
    argv = command.format(mesh=str(mesh_path),
                          out=str(tmp_path / "out.off")).split()
    assert main(["--quiet", *argv]) == EXIT_SOLVER
    assert "Traceback" not in capfd.readouterr().err


def test_unintegrable_sphere_ode_exits_with_solver_error(tmp_path, capfd):
    # at r0 = 1e-300 the needed step size falls below the float spacing
    assert main(["--quiet", "ode", "--c0", "-1", "--r0", "1e-300",
                 "--horizon", "1", "--out", str(tmp_path)]) == EXIT_SOLVER
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.parametrize("command", [
    "energy {bad} --c0 1",
    "rescale {bad} --r 2 --c0 1",
    "flow --config {bad} --out {out}",
])
def test_non_utf8_input_exits_with_config_error(tmp_path, capfd, command):
    bad = tmp_path / "bad.off"
    bad.write_bytes(b"\xff")
    argv = command.format(bad=str(bad), out=str(tmp_path / "out")).split()
    assert main(["--quiet", *argv]) == EXIT_CONFIG
    assert "Traceback" not in capfd.readouterr().err


def test_ode_command(tmp_path):
    out = str(tmp_path / "ode")
    code = main(["--quiet", "ode", "--c0", "-1", "--r0", "1",
                 "--horizon", "1.0", "--out", out])
    assert code == EXIT_OK
    with open(os.path.join(out, "ode_summary.json")) as fh:
        summary = json.load(fh)
    assert sorted(summary) == ["extinction_time", "extinction_time_closed_form",
                               "final_radius", "params", "terminal",
                               "theory_bounds"]
    # the bounds block is the one flow and energy write
    assert sorted(summary["theory_bounds"]) == sorted(
        f.name for f in fields(TheoryBounds))
    assert summary["terminal"] == "extinct"
    assert summary["extinction_time"] == pytest.approx(0.121860432, rel=1e-6)
    assert summary["extinction_time_closed_form"] == pytest.approx(
        summary["extinction_time"], rel=1e-8)
    with open(os.path.join(out, "ode_series.csv")) as fh:
        assert fh.readline().strip() == "t,r"


def test_ode_command_equilibrium(tmp_path):
    out = str(tmp_path / "ode2")
    code = main(["--quiet", "ode", "--c0", "1", "--lambda", "0.5",
                 "--r0", "2.0", "--horizon", "50", "--out", out])
    assert code == EXIT_OK
    summary = json.load(open(os.path.join(out, "ode_summary.json")))
    assert summary["terminal"] == "equilibrium_reached"
    assert summary["final_radius"] == pytest.approx(1.0, rel=1e-5)


def test_energy_command(tmp_path, capsys):
    mesh_path = str(tmp_path / "sphere.off")
    save_mesh(make_icosphere(3, 1.0), mesh_path)
    out_json = str(tmp_path / "energy.json")
    code = main(["--quiet", "energy", mesh_path, "--c0", "1",
                 "--lambda", "0.5", "--out", out_json])
    assert code == EXIT_OK
    payload = json.load(open(out_json))
    assert payload["willmore"] == pytest.approx(4 * np.pi, rel=1e-2)
    assert payload["penalized"] == pytest.approx(2 * np.pi, rel=1e-2)
    assert payload["willmore_bound_residual"] == pytest.approx(0.0, abs=1e-6)
    assert payload["mesh"]["genus"] == 0
    assert payload["angle_defect_total"] == pytest.approx(4 * np.pi, abs=1e-10)


def test_rescale_command(tmp_path):
    mesh_path = str(tmp_path / "sphere.off")
    save_mesh(make_icosphere(2, 1.0), mesh_path)
    out_path = str(tmp_path / "half.off")
    code = main(["--quiet", "rescale", mesh_path, "--r", "2", "--c0", "1",
                 "--lambda", "0.5", "--out", out_path])
    assert code == EXIT_OK
    rescaled = load_mesh(out_path)
    assert np.linalg.norm(rescaled.vertices, axis=1).max() == \
        pytest.approx(0.5, rel=1e-12)


def test_rescale_rejects_nonpositive_r(tmp_path):
    mesh_path = str(tmp_path / "sphere.off")
    save_mesh(make_icosphere(1, 1.0), mesh_path)
    assert main(["--quiet", "rescale", mesh_path, "--r", "-1",
                 "--c0", "1"]) == EXIT_CONFIG


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: helflow" in capsys.readouterr().out


def test_readme_command_block_matches_parser():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    documented = [next(word for word in line.split()[1:]
                       if not word.startswith(("[", "-")))
                  for line in block.splitlines() if line.startswith("helflow ")]
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert documented == list(subparsers.choices)
