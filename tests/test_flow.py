import subprocess
import sys
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import spsolve

import helflow.flow as fl
import helflow.mesh as hm
from helflow.flow import (TERMINATION_REASONS, FlowError, SteppingPolicy,
                          init_state, run_flow, step)
from helflow.geometry import (FlowParams, GeometryError, _cotangents, build_cache,
                              flow_velocity)
from helflow.mesh import TriangleMesh, make_icosphere, make_torus
from helflow.remesh import RemeshError, remesh
from helflow.validate import perturbed_sphere


def radial_stats(mesh):
    v = np.asarray(mesh.vertices)
    r = np.linalg.norm(v - v.mean(axis=0), axis=1)
    return float(r.mean()), float(r.max()), float(r.min())


def test_policy_validation():
    with pytest.raises(ValueError):
        SteppingPolicy(dt_growth=0.9)
    with pytest.raises(ValueError):
        SteppingPolicy(dt_init=-1.0)


@pytest.mark.parametrize("name", [
    "dt_init", "dt_floor", "area_floor_fraction", "blowup_threshold",
    "curvature_dt_coeff", "time_horizon", "gradient_tol", "remesh_min_angle",
    "energy_increase_tol_rel"])
@pytest.mark.parametrize("value", [np.nan, -1.0])
def test_policy_rejects_nan_and_negative_values(name, value):
    with pytest.raises(ValueError, match=name):
        SteppingPolicy(**{name: value})


def test_init_state_requires_positive_volume(ico3):
    with pytest.raises(FlowError):
        init_state(TriangleMesh(ico3.vertices, ico3.faces[:, [0, 2, 1]]),
                   FlowParams(1.0, 0.0), SteppingPolicy())


def test_single_step_shrink_rate():
    # one step from r = 1 with dt = 1e-5: radius drops by ~ 3e-5
    mesh = make_icosphere(2, 1.0)
    params = FlowParams(-1.0, 0.0)
    policy = SteppingPolicy(dt_init=1e-5)
    state = init_state(mesh, params, policy)
    new = step(state, params, policy)
    assert new.last_step_accepted
    r0, _, _ = radial_stats(mesh)
    r1, _, _ = radial_stats(new.mesh)
    assert (r0 - r1) == pytest.approx(3e-5, rel=0.05)
    assert new.t == pytest.approx(1e-5)


def test_curvature_dt_cap():
    mesh = make_icosphere(2, 1.0)
    params = FlowParams(-1.0, 0.0)
    policy = SteppingPolicy(dt_init=1.0)
    state = init_state(mesh, params, policy)
    new = step(state, params, policy)
    assert new.last_step_accepted
    sup = state.cache.sup_Asq
    assert new.t == policy.curvature_dt_coeff / (sup * sup)


def test_curvature_dt_cap_is_exactly_covariant(monkeypatch):
    # x -> x/2 multiplies sup|A|^2 by 4, and the cap must fall by exactly 16;
    # at this sup|A|^2, libm's pow(x, 2) made the ratio 16.000000000000004
    caps = []
    monkeypatch.setattr(fl.ImplicitSolver, "solve",
                        lambda self, v_old, areas, L, dt, *args:
                        caps.append(dt) or v_old)
    params, policy = FlowParams(-1.0, 0.0), SteppingPolicy(dt_init=1.0)
    state = init_state(make_icosphere(2, 1.0), params, policy)
    for sup in (11.694885962096523, 4.0 * 11.694885962096523):
        step(replace(state, cache=replace(state.cache, sup_Asq=sup)),
             params, policy)
    assert caps[0] == 16.0 * caps[1]


def test_step_rejection_contract(monkeypatch):
    # a solve that inflates the critical sphere raises its energy; the step
    # must be rejected: dt shrunk, state otherwise unchanged
    mesh = make_icosphere(2, 1.0)
    params = FlowParams(2.0, 0.0)
    policy = SteppingPolicy(dt_init=1e-3)
    monkeypatch.setattr(fl.ImplicitSolver, "solve",
                        lambda self, v_old, *args: 1.01 * v_old)
    state = init_state(mesh, params, policy)
    new = step(state, params, policy)
    assert not new.last_step_accepted
    assert new.t == state.t
    assert new.rejected_steps == 1
    assert new.dt == pytest.approx(1e-3 * policy.dt_shrink)
    assert np.array_equal(new.mesh.vertices, mesh.vertices)


def test_semi_implicit_matches_explicit_at_tiny_dt():
    # at tiny dt the step is forward Euler on the velocity, v + dt xi nu
    mesh = make_icosphere(2, 1.0)
    params = FlowParams(-1.0, 0.0)
    dt = 1e-9
    policy = SteppingPolicy(dt_init=dt, curvature_dt_coeff=1e12)
    state = init_state(mesh, params, policy)
    xi = flow_velocity(state.cache, params)
    explicit = mesh.vertices + dt * xi[:, None] * state.cache.normals
    s_imp = step(state, params, policy)
    assert s_imp.last_step_accepted
    diff = np.abs(explicit - s_imp.mesh.vertices).max()
    move = np.abs(explicit - mesh.vertices).max()
    assert diff <= 1e-4 * move


def test_energy_monotone_along_run():
    records, report = run_flow(make_icosphere(2, 1.2), FlowParams(1.0, 0.5),
                               SteppingPolicy(max_steps=120))
    e = [r.penalized for r in records]
    tol = 1e-10 * e[0]
    assert all(b <= a + tol for a, b in zip(e, e[1:]))
    assert report.steps == 120


def test_stationary_run_converges_immediately():
    policy = SteppingPolicy(gradient_tol=0.05, convergence_window=20,
                            max_steps=500)
    records, report = run_flow(make_icosphere(2, 1.0), FlowParams(2.0, 0.0),
                               policy)
    assert report.reason == "converged"
    assert report.steps <= 25   # converged as soon as the window fills


def test_horizon_termination_exact():
    policy = SteppingPolicy(time_horizon=0.005, max_steps=10_000)
    records, report = run_flow(make_icosphere(2, 1.0), FlowParams(-1.0, 0.0),
                               policy)
    assert report.reason == "horizon_reached"
    assert report.final_time == pytest.approx(0.005, abs=1e-15)


def test_step_budget_termination():
    records, report = run_flow(make_icosphere(2, 1.0), FlowParams(-1.0, 0.0),
                               SteppingPolicy(max_steps=7))
    assert report.reason == "step_budget"
    assert report.steps == 7


def test_dt_collapse_termination():
    # from dt = 1e300 every solve's right-hand side leaves the float range and
    # the step is rejected; the floor is reached before a solve succeeds
    policy = SteppingPolicy(dt_init=1e300, curvature_dt_coeff=1e300,
                            dt_floor=1e200, max_steps=10_000)
    records, report = run_flow(make_icosphere(2, 1.0), FlowParams(2.0, 0.0),
                               policy)
    assert report.reason == "dt_collapse"
    assert report.rejected_steps >= 2
    assert report.steps == 0


def test_area_collapse_termination_small_mesh():
    records, report = run_flow(make_icosphere(2, 1.0), FlowParams(-1.0, 0.0),
                               SteppingPolicy(max_steps=50_000))
    assert report.reason == "singular_area_collapse"
    assert report.final_energies["area"] <= 1e-3 * records[0].area * 1.01
    assert report.evidence["sup_Asq_times_area"] == pytest.approx(8 * np.pi,
                                                                  rel=0.05)


def test_records_schema_and_rate_norm():
    records, report = run_flow(make_icosphere(2, 1.0), FlowParams(-1.0, 0.0),
                               SteppingPolicy(max_steps=5))
    from helflow.flow import CSV_COLUMNS

    for rec in records:
        for col in CSV_COLUMNS:
            assert hasattr(rec, col)
    assert records[0].t == 0.0
    assert records[1].grad_l2 > 0
    # initial record reports the raw velocity norm ~ |r'| * sqrt(area)
    assert records[0].grad_l2 == pytest.approx(3.0 * np.sqrt(records[0].area),
                                               rel=0.05)


def test_deterministic_replay():
    mesh = make_icosphere(2, 1.0)
    params = FlowParams(-1.0, 0.0)
    policy = SteppingPolicy(max_steps=40)
    out1, out2 = [], []
    rec1, _ = run_flow(mesh, params, policy,
                       sinks=[lambda s, r: out1.append(s.mesh.vertices)])
    rec2, _ = run_flow(mesh, params, policy,
                       sinks=[lambda s, r: out2.append(s.mesh.vertices)])
    assert [r.penalized for r in rec1] == [r.penalized for r in rec2]
    assert [r.t for r in rec1] == [r.t for r in rec2]
    # every recorded state, the final one included, bit for bit
    assert all(np.array_equal(a, b) for a, b in zip(out1, out2, strict=True))


def test_translation_equivariance():
    mesh = make_icosphere(2, 1.0)
    params = FlowParams(-1.0, 0.0)
    policy = SteppingPolicy(max_steps=25)
    shift = np.array([5.0, -2.0, 1.0])
    out1, out2 = [], []
    run_flow(mesh, params, policy, sinks=[lambda s, r: out1.append(s.mesh.vertices)])
    run_flow(mesh.translated(shift), params, policy,
             sinks=[lambda s, r: out2.append(s.mesh.vertices)])
    worst = max(np.abs(a + shift - b).max() for a, b in zip(out1, out2))
    assert worst <= 1e-9


def test_trajectory_rescaling_equivariance():
    # x -> x/2 maps the flow of (c0, lam) to that of (2 c0, 4 lam) with
    # t -> t/16; powers of two keep every accepted state exact in floating
    # point, so the twin runs agree bit for bit
    mesh = make_icosphere(3, 1.0)
    policy = SteppingPolicy(max_steps=100)
    twin_policy = SteppingPolicy(max_steps=100, dt_init=policy.dt_init / 16.0)
    out1, out2 = [], []
    run_flow(mesh, FlowParams(-1.0, 0.0), policy,
             sinks=[lambda s, r: out1.append(s.mesh.vertices)])
    run_flow(mesh.scaled(0.5), FlowParams(-2.0, 0.0), twin_policy,
             sinks=[lambda s, r: out2.append(s.mesh.vertices)])
    assert len(out1) == len(out2) > 1
    assert all(np.array_equal(a / 2.0, b) for a, b in zip(out1, out2))


def test_remesh_hook_fires_and_flow_continues(caplog):
    # hair-trigger angle floor: the icosphere's ~54 degree minimum trips the
    # trigger every step; the run must keep stepping through remeshes.  Each
    # remesh output fails the same test, and each failure is logged once.
    policy = SteppingPolicy(max_steps=3, remesh_min_angle=np.deg2rad(60.0))
    with caplog.at_level("WARNING", logger="helflow.flow"):
        records, report = run_flow(make_icosphere(2, 1.0),
                                   FlowParams(-1.0, 0.0), policy)
    assert report.reason == "step_budget"
    assert report.evidence["remesh_count"] == 3
    assert report.steps == 3
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 3
    assert all("fails the min angle test" in m for m in messages)


def test_needs_remesh_names_the_failing_measure(ico3):
    params, policy = FlowParams(-1.0, 0.0), SteppingPolicy()
    state = init_state(ico3, params, policy)
    edge = state.cache.mean_edge
    assert fl._needs_remesh(state, policy, edge) is None
    assert fl._needs_remesh(state, policy, 3.0 * edge) == "mean edge"
    assert fl._needs_remesh(state, replace(policy, remesh_min_angle=1.0),
                            edge) == "min angle"


def test_remesh_drops_the_rate(ico3):
    # the last update lives on the old vertices and cannot guess the next
    params, policy = FlowParams(-1.0, 0.0), SteppingPolicy()
    state = step(init_state(ico3, params, policy), params, policy)
    assert state.last_step_accepted and state.rate is not None
    target = 0.8 * state.cache.mean_edge
    remeshed = fl._apply_remesh(state, params, target, policy)
    assert remeshed.mesh.n_vertices != ico3.n_vertices
    assert remeshed.rate is None


def test_willmore_bound_along_flow():
    # W(f(t)) <= (2 lam + c0^2)/(2 lam) * penalized(f(0)) along the flow
    params = FlowParams(1.0, 0.5)
    records, _ = run_flow(make_icosphere(2, 1.4), params,
                          SteppingPolicy(max_steps=150))
    bound = 2.0 * records[0].penalized
    assert all(r.willmore <= bound + 1e-6 for r in records)


def test_overflowing_trial_step_is_rejected():
    # at dt = 1e300 the solve's right-hand side leaves the float range,
    # which must count as a rejection, not end the run
    policy = SteppingPolicy(curvature_dt_coeff=1e300, dt_init=1e300,
                            max_steps=5)
    params = FlowParams(-1.0)
    state = init_state(make_icosphere(1), params, policy)
    new = step(state, params, policy)
    assert not new.last_step_accepted
    assert new.rejected_steps == 1
    assert new.dt < state.dt * policy.dt_shrink * 1.0000001
    assert new.mesh is state.mesh

    records, report = run_flow(make_icosphere(1), params, policy)
    assert report.reason in TERMINATION_REASONS
    assert report.rejected_steps > 0


def _count_topology_builds(monkeypatch):
    """Lists that grow by one per Topology, per LaplacianPattern and per
    block layout of ``diag(L, L, L)`` built."""
    topologies, patterns, blocks = [], [], []

    class CountingTopology(hm.Topology):
        def __init__(self, faces):
            topologies.append(len(faces))
            super().__init__(faces)

    class CountingPattern(hm.LaplacianPattern):
        def __init__(self, topology, n_vertices):
            patterns.append(len(topology.faces))
            super().__init__(topology, n_vertices)

        @cached_property
        def block_layout(self):
            blocks.append(self.n)
            return super().block_layout

    monkeypatch.setattr(hm, "Topology", CountingTopology)
    monkeypatch.setattr(hm, "LaplacianPattern", CountingPattern)
    return topologies, patterns, blocks


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


@settings(max_examples=30, deadline=None)
@given(dt_init=_log_uniform(-12, 300),
       dt_growth=_log_uniform(-6, 6).map(lambda x: 1.0 + x),
       dt_shrink=_log_uniform(-12, -0.01),
       curvature_dt_coeff=_log_uniform(-12, 300))
def test_any_policy_ends_with_a_reason_or_typed_error(
        dt_init, dt_growth, dt_shrink, curvature_dt_coeff):
    policy = SteppingPolicy(dt_init=dt_init, dt_growth=dt_growth,
                            dt_shrink=dt_shrink,
                            curvature_dt_coeff=curvature_dt_coeff,
                            max_steps=10)
    try:
        _, report = run_flow(make_icosphere(1), FlowParams(-1.0), policy)
    except (FlowError, RemeshError, GeometryError):
        return
    assert report.reason in TERMINATION_REASONS


def test_step_budget_counts_rejected_steps():
    # from dt = 1e300 a shrink factor of 0.97 takes ~2e4 rejections to reach
    # dt_floor; the budget must end the run first
    policy = SteppingPolicy(dt_init=1e300, curvature_dt_coeff=1e300,
                            dt_growth=1.000001, dt_shrink=0.97, max_steps=10)
    _, report = run_flow(make_icosphere(1), FlowParams(-1.0), policy)
    assert report.reason == "step_budget"
    assert report.rejected_steps > 0
    assert report.steps + report.rejected_steps <= 10


def test_remeshes_are_listed_with_their_energy_change():
    policy = SteppingPolicy(max_steps=3, remesh_min_angle=np.deg2rad(60.0))
    _, report = run_flow(make_icosphere(2, 1.0), FlowParams(-1.0, 0.0), policy)
    remeshes = report.evidence["remeshes"]
    assert report.evidence["remesh_count"] == 3
    assert len(remeshes) == report.evidence["remesh_count"]
    assert [r["step"] for r in remeshes] == [1, 2, 3]
    assert all(b["t"] < a["t"] for b, a in zip(remeshes, remeshes[1:]))
    for before, after in zip(remeshes, remeshes[1:]):
        assert after["vertices_before"] == before["vertices_after"]
    for r in remeshes:
        assert np.isfinite(r["penalized_after"] - r["penalized_before"])
        assert r["vertices_before"] > 0 and r["vertices_after"] > 0


def test_record_every_emits_every_third_step_and_the_final_state():
    params = FlowParams(-1.0)
    every, _ = run_flow(make_icosphere(2), params, SteppingPolicy(max_steps=10))
    third, _ = run_flow(make_icosphere(2), params,
                        SteppingPolicy(max_steps=10, record_every=3))
    assert len(every) == 11     # the initial state and 10 accepted steps
    assert [r.t for r in third] == [every[i].t for i in (0, 3, 6, 9, 10)]


def test_remesh_disabled_never_remeshes():
    # with remeshing on, this angle floor remeshes after every step
    # (test_remeshes_are_listed_with_their_energy_change)
    policy = SteppingPolicy(max_steps=3, remesh_min_angle=np.deg2rad(60.0),
                            remesh_enabled=False)
    _, report = run_flow(make_icosphere(2, 1.0), FlowParams(-1.0, 0.0), policy)
    assert report.steps == 3
    assert report.evidence["remesh_count"] == 0
    assert report.evidence["remeshes"] == []


def test_flow_builds_topology_once_without_remesh(monkeypatch):
    base = make_icosphere(2, 1.0)
    built, patterns, blocks = _count_topology_builds(monkeypatch)
    mesh = TriangleMesh(base.vertices, base.faces)
    _, report = run_flow(mesh, FlowParams(-1.0, 0.0),
                         SteppingPolicy(max_steps=20))
    assert report.steps == 20
    assert report.evidence["remesh_count"] == 0
    assert len(built) == 1
    assert len(patterns) == 1
    assert len(blocks) == 1


def test_flow_builds_one_topology_per_remesh(monkeypatch):
    base = make_icosphere(2, 1.0)
    built, patterns, blocks = _count_topology_builds(monkeypatch)
    mesh = TriangleMesh(base.vertices, base.faces)
    policy = SteppingPolicy(max_steps=3, remesh_min_angle=np.deg2rad(60.0))
    _, report = run_flow(mesh, FlowParams(-1.0, 0.0), policy)
    assert report.evidence["remesh_count"] == 3
    assert len(built) == 1 + report.evidence["remesh_count"]
    assert len(patterns) == 1 + report.evidence["remesh_count"]
    # only solves build the block layout, and the last topology takes no step
    assert len(blocks) == report.steps == report.evidence["remesh_count"]


def _remeshed_sphere():
    mesh = perturbed_sphere(1, 3, 0.05)
    out = remesh(mesh, 1.3 * mesh.mean_edge_length())
    assert np.bincount(out.faces.ravel()).max() > 6   # valence != 6 occurs
    return out


def _coo_laplacian(mesh):
    """The cotangent Laplacian assembled by scipy's coo->csr."""
    f, n = mesh.faces, mesh.n_vertices
    cots = _cotangents(mesh.face_geometry())
    i = np.concatenate([f[:, 1], f[:, 2], f[:, 0]])
    j = np.concatenate([f[:, 2], f[:, 0], f[:, 1]])
    w = 0.5 * np.concatenate([cots[0], cots[1], cots[2]])
    return sparse.coo_matrix(
        (np.concatenate([w, w, -w, -w]),
         (np.concatenate([i, j, i, j]), np.concatenate([j, i, i, j]))),
        shape=(n, n)).tocsr()


LAPLACIAN_MESHES = pytest.mark.parametrize("make_mesh", [
    lambda: perturbed_sphere(1, 3, 0.05),
    lambda: perturbed_sphere(4, 2, 0.2),
    lambda: make_torus(1.0, 0.4, 48, 24),
    _remeshed_sphere,
], ids=["perturbed-ico3", "perturbed-ico2", "torus", "remeshed"])


@LAPLACIAN_MESHES
def test_laplacian_is_plain_coo_to_csr_assembly(make_mesh):
    # The pattern is coo->csr's; the values may differ from it only in the
    # summation order of duplicate entries, since step acceptance allows the
    # energy's rounding bound.
    mesh = make_mesh()
    n = mesh.n_vertices
    expected = _coo_laplacian(mesh)
    L = build_cache(mesh).laplacian
    for attr in ("indices", "indptr"):
        assert np.array_equal(getattr(L, attr), getattr(expected, attr))
    row_abs = abs(expected).sum(axis=1).A1
    rows = np.repeat(np.arange(n), np.diff(expected.indptr))
    assert np.all(np.abs(L.data - expected.data) <= 1e-15 * row_abs[rows])


@LAPLACIAN_MESHES
def test_laplacian_off_diagonal_is_bit_identical_to_coo_to_csr(make_mesh):
    # an off-diagonal entry sums the weights of an edge's two corners, and a
    # sum of two terms does not depend on their order
    mesh = make_mesh()
    expected = _coo_laplacian(mesh)
    L = build_cache(mesh).laplacian
    rows = np.repeat(np.arange(mesh.n_vertices), np.diff(expected.indptr))
    off = expected.indices != rows
    assert np.array_equal(L.indices, expected.indices)
    assert L.data[off].tobytes() == expected.data[off].tobytes()


def _nudged_laplacians(monkeypatch, seed):
    """Every Laplacian built from here on has a random half of its values
    raised by one ulp, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    fill = hm.LaplacianPattern.fill

    def nudged(pattern, w):
        L = fill(pattern, w)
        up = rng.random(L.nnz) < 0.5
        L.data[up] = np.nextafter(L.data[up], np.inf)
        return L

    monkeypatch.setattr(hm.LaplacianPattern, "fill", nudged)


def _stationary_ico1_run(shift=0.0):
    # the flow of test_flow_command_clean_run: a c0 = 2 unit sphere is
    # stationary, so its energy is roundoff
    mesh = make_icosphere(1).translated(np.array([shift, 0.0, 0.0]))
    _, report = run_flow(mesh, FlowParams(2.0),
                         SteppingPolicy(time_horizon=0.02))
    return report.reason, report.steps, report.rejected_steps


@pytest.mark.parametrize("seed, shift", [(0, 0.0), (1, 0.0), (2, 0.0),
                                         (3, 0.0), (4, 5.0)])
def test_one_ulp_laplacian_nudge_keeps_stationary_run(monkeypatch, seed, shift):
    expected = _stationary_ico1_run()
    _nudged_laplacians(monkeypatch, seed)
    assert _stationary_ico1_run(shift) == expected


SOLVER_MESHES = pytest.mark.parametrize("make_mesh", [
    lambda: perturbed_sphere(3, 3, 0.05),
    lambda: make_torus(1.0, 0.4, 48, 24),
], ids=["perturbed-ico3", "torus"])


def _assembled_system(a, L, dt):
    """The real implicit operator ``M + dt L M^-1 L``, assembled."""
    return (sparse.diags(a) + dt * ((L @ sparse.diags(1.0 / a)) @ L)).tocsr()


@SOLVER_MESHES
@pytest.mark.parametrize("dt", [1e-6, 1e-3])
def test_shifted_operator_matches_assembled_system(make_mesh, dt):
    mesh = make_mesh()
    cache = build_cache(mesh)
    a, L, s = cache.vertex_areas, cache.laplacian, np.sqrt(dt)
    shifted = (sparse.diags(a) + 1j * s * L).tocsr()
    pattern = mesh.topology.laplacian_pattern(mesh.n_vertices)
    apply, real_residual, diagonal, real_apply = fl.shifted_operator(
        a, L, s, pattern)
    # coordinate-major: one row per coordinate
    rng = np.random.default_rng(0)
    y = rng.standard_normal((3, len(a))) + 1j * rng.standard_normal((3, len(a)))
    shifted_y = (shifted @ y.T).T
    assert (np.linalg.norm(apply(y) - shifted_y)
            <= 1e-12 * np.linalg.norm(shifted_y))
    np.testing.assert_allclose(diagonal, shifted.diagonal(), rtol=1e-14, atol=0)
    # the real operator at s^2, as the complex one factors it
    real_y = (_assembled_system(a, L, s * s) @ y.real.T).T
    assert (np.linalg.norm(real_apply(y.real) - real_y)
            <= 1e-12 * np.linalg.norm(real_y))
    # one complex block diag(A, A, A), its three blocks bit-identical
    block, n = fl.shifted_block(a, L, s, pattern), len(a)
    blocks = [block[k * n:(k + 1) * n, k * n:(k + 1) * n] for k in range(3)]
    assert block.dtype == np.complex128 and block.nnz == 3 * blocks[0].nnz
    for other in blocks[1:]:
        for attr in ("indices", "indptr", "data"):
            assert (getattr(other, attr).tobytes()
                    == getattr(blocks[0], attr).tobytes())
    assert np.array_equal(blocks[0].diagonal(), a + 1j * s * L.diagonal())
    assert np.array_equal(diagonal, a + 1j * s * L.diagonal())
    # a residual of the complex system gives that of the real one at Re y
    b = rng.standard_normal((3, len(a)))
    real_y = (_assembled_system(a, L, dt) @ y.real.T).T
    scale = np.linalg.norm(b) + np.linalg.norm(real_y)
    assert (np.linalg.norm(real_residual(b - shifted_y) - (b - real_y))
            <= 1e-12 * scale)


@pytest.mark.parametrize("level", [3, 5])
def test_real_residual_keeps_the_bits_of_the_complex_product(level):
    # the residual's real product must give what the imaginary part of the
    # complex block's product gave, bit for bit
    mesh = perturbed_sphere(1, level, 0.05)
    cache = build_cache(mesh)
    a, L, s = cache.vertex_areas, cache.laplacian, np.sqrt(5e-3)
    pattern = mesh.topology.laplacian_pattern(mesh.n_vertices)
    _, real_residual, _, _ = fl.shifted_operator(a, L, s, pattern)
    op = fl.shifted_block(a, L, s, pattern)
    rng = np.random.default_rng(level)
    r = rng.standard_normal((3, len(a))) + 1j * rng.standard_normal((3, len(a)))
    expected = r.real + (op @ (r.imag / a).ravel()).imag.reshape(r.shape)
    assert real_residual(r).tobytes() == expected.tobytes()


def _count_products(monkeypatch):
    """Per solve, the products with the shifted operator, once patched."""
    counts = []
    shifted_operator = fl.shifted_operator

    def counting(*args):
        apply, *rest = shifted_operator(*args)
        counts.append(0)

        def counted(p):
            counts[-1] += 1
            return apply(p)

        return counted, *rest

    monkeypatch.setattr(fl, "shifted_operator", counting)
    return counts


def test_cocg_product_counts_are_pinned(monkeypatch):
    # a cheaper iteration that needs more iterations is no speedup, so the
    # products with the shifted operator per solve are pinned
    counts = _count_products(monkeypatch)
    mesh, params = perturbed_sphere(1, 3, 0.05), FlowParams(1.0, 0.5)
    cache = build_cache(mesh, params)
    velocity = flow_velocity(cache, params)[:, None] * cache.normals
    pattern = mesh.topology.laplacian_pattern(mesh.n_vertices)
    for dt in (1e-5, 1e-4, 1e-3, 5e-3, 1e-2):
        fl.ImplicitSolver().solve(mesh.vertices, cache.vertex_areas,
                                  cache.laplacian, dt, velocity, pattern)
    assert counts == [14, 25, 46, 65, 75]


def test_warm_started_product_counts_are_pinned(monkeypatch):
    # from the second step on, each solve starts from the last accepted
    # update, scaled per row by least squares; the first one starts cold
    counts = _count_products(monkeypatch)
    _, report = run_flow(perturbed_sphere(1, 3, 0.05), FlowParams(1.0, 0.5),
                         SteppingPolicy(max_steps=8))
    assert report.steps == 8 and report.rejected_steps == 0
    assert counts == [46, 47, 47, 51, 53, 58, 58, 58]


def test_complex_shift_identity():
    # Re[(M + i sqrt(dt) L)^-1 b] = (M + dt L M^-1 L)^-1 b, by direct solves
    mesh = perturbed_sphere(2, 2, 0.1)
    cache = build_cache(mesh)
    a, L, dt = cache.vertex_areas, cache.laplacian, 1e-3
    b = np.random.default_rng(1).standard_normal((len(a), 3))
    shifted = (sparse.diags(a) + 1j * np.sqrt(dt) * L).tocsc()
    expected = spsolve(_assembled_system(a, L, dt).tocsc(), b)
    got = spsolve(shifted, b.astype(complex)).real
    assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()


def _assert_meets_residual_contract(mesh, params, dt, scales=(1.0, 1.0, 1.0),
                                    rate=None):
    cache = build_cache(mesh, params)
    a, L = cache.vertex_areas, cache.laplacian
    velocity = (flow_velocity(cache, params)[:, None] * cache.normals
                * np.asarray(scales))
    delta = fl.ImplicitSolver().solve(
        np.zeros_like(velocity), a, L, dt, velocity,
        mesh.topology.laplacian_pattern(mesh.n_vertices), rate)
    b = dt * (a[:, None] * velocity)
    residual = b - _assembled_system(a, L, dt) @ delta
    assert np.abs(delta).max() > 0
    assert np.all(np.linalg.norm(residual, axis=0)
                  <= fl.CG_RTOL * np.linalg.norm(b, axis=0))
    # a coordinate with no right-hand side does not move at all
    assert np.all(delta[:, np.asarray(scales) == 0] == 0)


@SOLVER_MESHES
@pytest.mark.parametrize("dt", [1e-6, 1e-3])
def test_solve_meets_residual_contract_of_assembled_system(make_mesh, dt):
    # per coordinate, |b - (M + dt L M^-1 L) delta| <= CG_RTOL |b|
    _assert_meets_residual_contract(make_mesh(), FlowParams(1.0, 0.5), dt)


@SOLVER_MESHES
@pytest.mark.parametrize("dt", [1e-6, 1e-3])
@pytest.mark.parametrize("scales", [(1.0, 1e-3, 1e-8), (1e-8, 0.0, 1.0)],
                         ids=["graded", "zero-row"])
def test_solve_meets_residual_contract_on_rows_of_unequal_size(make_mesh, dt,
                                                               scales):
    # one step length serves rows whose sizes differ by up to 1e8, and each
    # must still meet its own test
    _assert_meets_residual_contract(make_mesh(), FlowParams(1.0, 0.5), dt,
                                    scales)


def _guess(kind, mesh, params):
    """A guessed rate: the flow velocity with no row scaled, or noise."""
    if kind == "random":
        return np.random.default_rng(7).standard_normal((mesh.n_vertices, 3))
    cache = build_cache(mesh, params)
    return flow_velocity(cache, params)[:, None] * cache.normals


@SOLVER_MESHES
@pytest.mark.parametrize("dt", [1e-6, 1e-3])
@pytest.mark.parametrize("scales", [(1.0, 1e-3, 1e-8), (1e-8, 0.0, 1.0)],
                         ids=["graded", "zero-row"])
@pytest.mark.parametrize("guess", ["velocity", "random"])
def test_guessed_solve_meets_residual_contract(make_mesh, dt, scales, guess):
    # the guess's rows are not scaled as the right-hand side's are, and a
    # guess unrelated to the solution must cost iterations, not accuracy;
    # a row with no right-hand side stays exactly zero
    mesh, params = make_mesh(), FlowParams(1.0, 0.5)
    _assert_meets_residual_contract(mesh, params, dt, scales,
                                    _guess(guess, mesh, params))


def test_ico5_solve_converges_at_flow_dt():
    # dt 5e-3 is the unit sphere's curvature cap; Jacobi CG on the real
    # system M + dt L M^-1 L does not converge here within CG_MAXITER
    _assert_meets_residual_contract(perturbed_sphere(1, 5, 0.05),
                                    FlowParams(1.0, 0.5), 5e-3)


def test_ico5_solve_is_independent_of_blas_threads(helflow_env):
    # OpenBLAS splits a long dot product over its threads, which would
    # change the sums' order with the thread count
    code = ("import hashlib\n"
            "import helflow.flow as fl\n"
            "from helflow.geometry import FlowParams, build_cache, flow_velocity\n"
            "from helflow.validate import perturbed_sphere\n"
            "mesh, params = perturbed_sphere(1, 5, 0.05), FlowParams(1.0, 0.5)\n"
            "cache = build_cache(mesh, params)\n"
            "velocity = flow_velocity(cache, params)[:, None] * cache.normals\n"
            "args = (mesh.vertices, cache.vertex_areas, cache.laplacian,\n"
            "        5e-3, velocity,\n"
            "        mesh.topology.laplacian_pattern(mesh.n_vertices))\n"
            "for rate in (None, 0.9 * velocity):\n"
            "    out = fl.ImplicitSolver().solve(*args, rate)\n"
            "    print(hashlib.sha256(out.tobytes()).hexdigest())")
    digests = {subprocess.run([sys.executable, "-c", code],
                              env=dict(helflow_env, OPENBLAS_NUM_THREADS=k),
                              check=True, capture_output=True, text=True,
                              timeout=120).stdout
               for k in ("1", "2")}
    assert len(digests) == 1
    # the cold and the guessed solve differ, so each was hashed
    assert len(set(digests.pop().split())) == 2


def test_solver_breakdown_raises():
    # p^T A p = 0 must not end the iteration with a zero update
    rhs = np.ones((3, 4))
    with pytest.raises(fl.SolverError, match="broke down"):
        fl.ImplicitSolver()._cocg(np.zeros_like, lambda r: r.real,
                                  np.ones(4, dtype=complex), rhs,
                                  np.zeros_like(rhs), rhs.astype(complex))


@pytest.mark.parametrize("make_mesh", [
    lambda: make_icosphere(3),
    lambda: make_torus(1.0, 0.4, 48, 24),
    lambda: TriangleMesh(make_icosphere(3).vertices * np.array([1.0, 1.0, 6.0]),
                         make_icosphere(3).faces),
], ids=["ico3", "torus", "ellipsoid6"])
def test_cached_mean_edge_matches_mesh(make_mesh):
    mesh = make_mesh()
    expected = mesh.mean_edge_length()
    assert abs(build_cache(mesh).mean_edge - expected) <= 1e-14 * expected


def test_rate_is_the_last_accepted_update(monkeypatch):
    # the rate that guesses the next solve is that of the last accepted
    # step; a rejected step keeps it
    params, policy = FlowParams(-1.0, 0.0), SteppingPolicy()
    state = init_state(make_icosphere(2), params, policy)
    assert state.rate is None
    new = step(state, params, policy)
    assert new.last_step_accepted
    dt = new.t - state.t
    assert np.array_equal(new.rate,
                          (new.mesh.vertices - state.mesh.vertices) / dt)
    monkeypatch.setattr(fl, "CG_MAXITER", 1)
    rejected = step(new, params, policy)
    assert not rejected.last_step_accepted
    assert rejected.rate is new.rate


def test_failed_solve_is_a_rejection(monkeypatch):
    # one CG iteration never meets CG_RTOL: every semi-implicit trial fails
    monkeypatch.setattr(fl, "CG_MAXITER", 1)
    params, policy = FlowParams(-1.0), SteppingPolicy(max_steps=5)
    state = init_state(make_icosphere(2), params, policy)
    new = step(state, params, policy)
    assert not new.last_step_accepted
    assert new.rejected_steps == 1
    assert new.mesh is state.mesh
    assert new.dt == state.dt * policy.dt_shrink

    _, report = run_flow(make_icosphere(2), params, policy)
    assert report.reason in TERMINATION_REASONS
    assert report.rejected_steps > 0


def test_out_of_range_solve_is_a_rejection():
    # at dt = 1e200 the squared right-hand side overflows; CG must not
    # report convergence with a zero update
    params = FlowParams(-1.0)
    policy = SteppingPolicy(dt_init=1e200, curvature_dt_coeff=1e300)
    state = init_state(make_icosphere(1), params, policy)
    new = step(state, params, policy)
    assert not new.last_step_accepted
    assert new.t == state.t
