import numpy as np
import pytest

from helflow.diagnostics import (KAPPA_SCAN_CHUNK, BlowUpFrame,
                                 DiagnosticsError, FrameSink, _kappa_scan,
                                 classify_singularity, default_radii_grid,
                                 extract_blowup_frame, hypothesis_monitors,
                                 kappa, kappa_profile, select_blowup_radius,
                                 sphere_fit)
from helflow.flow import SteppingPolicy, init_state
from helflow.geometry import FlowParams, build_cache
from helflow.mesh import TriangleMesh, make_icosphere, orient_for_positive_volume
from helflow.validate import perturbed_sphere

FOUR_PI = 4 * np.pi
EIGHT_PI = 8 * np.pi


@pytest.fixture(scope="module")
def sphere5():
    mesh = make_icosphere(5, 1.0)
    return mesh, build_cache(mesh)


def test_kappa_whole_sphere(ico4, ico4_cache):
    # a ball of radius 3 from any surface point covers the whole unit sphere
    val, center = kappa(ico4, ico4_cache, 3.0)
    total = float(np.sum(ico4_cache.Asq * ico4_cache.vertex_areas))
    assert val == pytest.approx(total, rel=1e-12)
    assert val == pytest.approx(EIGHT_PI, rel=5e-3)


def test_kappa_cap_formula(sphere5):
    # Euclidean ball of radius r centered on the unit sphere cuts a cap of
    # area pi r^2, so kappa = 2 pi r^2 below saturation
    mesh, cache = sphere5
    val, _ = kappa(mesh, cache, 0.5)
    assert val == pytest.approx(2 * np.pi * 0.25, rel=0.05)
    val2, _ = kappa(mesh, cache, 2.0)
    assert val2 == pytest.approx(EIGHT_PI, rel=0.05)


def test_kappa_requires_positive_radius(ico4, ico4_cache):
    with pytest.raises(DiagnosticsError):
        kappa(ico4, ico4_cache, 0.0)


def test_kappa_positive_with_vertex_centers(ico4, ico4_cache):
    # centers sit on the surface, so every ball catches at least its center
    val, _ = kappa(ico4, ico4_cache, 1e-6)
    assert val > 0


def test_kappa_profile_monotone_and_saturating(sphere5):
    mesh, cache = sphere5
    grid = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    prof = kappa_profile(mesh, cache, grid)
    assert np.all(np.diff(prof.kappa) >= 0)
    assert prof.kappa[-1] == pytest.approx(EIGHT_PI, rel=5e-3)
    assert prof.total == prof.kappa[-1]
    assert prof.centers.shape == (5, 3)


def test_kappa_profile_rejects_bad_grid(ico4, ico4_cache):
    with pytest.raises(DiagnosticsError):
        kappa_profile(ico4, ico4_cache, [0.5, 0.5, 1.0])
    with pytest.raises(DiagnosticsError):
        kappa_profile(ico4, ico4_cache, [-1.0, 0.5])


def test_kappa_no_double_counting(ico3):
    far = ico3.translated((10.0, 0.0, 0.0))
    both = TriangleMesh(
        np.vstack([ico3.vertices, far.vertices]),
        np.vstack([ico3.faces, far.faces + ico3.n_vertices]),
    )
    k_both, _ = kappa(both, build_cache(both), 1.0)
    k_one, _ = kappa(ico3, build_cache(ico3), 1.0)
    assert k_both == pytest.approx(k_one, rel=1e-12)


def _kappa_scan_reference(vertices, weights, radii):
    """The scan with a row array and a flat key array per chunk."""
    r_sq = np.asarray(radii, dtype=np.float64) ** 2
    n_r = len(r_sq)
    best = np.full(n_r, -np.inf)
    best_center = np.zeros(n_r, dtype=np.int64)
    v_sq = np.einsum("ij,ij->i", vertices, vertices)
    for start in range(0, len(vertices), KAPPA_SCAN_CHUNK):
        c = vertices[start: start + KAPPA_SCAN_CHUNK]
        m = len(c)
        d_sq = (np.einsum("ij,ij->i", c, c)[:, None] + v_sq[None, :]
                - 2.0 * (c @ vertices.T))
        bins = np.searchsorted(r_sq, d_sq.ravel(), side="right")
        rows = np.repeat(np.arange(m), len(vertices))
        acc = np.bincount(rows * (n_r + 1) + bins,
                          weights=np.broadcast_to(weights, d_sq.shape).ravel(),
                          minlength=m * (n_r + 1)).reshape(m, n_r + 1)
        vals = np.cumsum(acc[:, :n_r], axis=1)
        for k in range(n_r):
            i = int(np.argmax(vals[:, k]))
            if vals[i, k] > best[k]:
                best[k] = vals[i, k]
                best_center[k] = start + i
    return best, best_center


@pytest.mark.parametrize("level", [3, 4])
@pytest.mark.parametrize("radii", [[0.3], [0.05, 0.2, 0.7, 1.5, 2.5],
                                   np.geomspace(1e-3, 3.0, 40)],
                         ids=["one", "five", "geom40"])
def test_kappa_scan_matches_reference(level, radii):
    mesh = perturbed_sphere(5, level, 0.05)
    cache = build_cache(mesh)
    weights = cache.Asq * cache.vertex_areas
    got = _kappa_scan(mesh.vertices, weights, np.asarray(radii))
    expected = _kappa_scan_reference(mesh.vertices, weights, np.asarray(radii))
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and g.tobytes() == e.tobytes()


def test_select_blowup_radius(sphere5):
    mesh, cache = sphere5
    prof = kappa_profile(mesh, cache, np.linspace(0.25, 3.0, 12))
    # cap formula: kappa = 2 pi r^2 = 2 pi at r = 1
    r_t = select_blowup_radius(prof, 2 * np.pi)
    assert r_t == pytest.approx(1.0, rel=0.05)
    # target -> 0+ clamps to the smallest grid radius
    assert select_blowup_radius(prof, 1e-9) == prof.radii[0]
    with pytest.raises(DiagnosticsError):
        select_blowup_radius(prof, prof.total * 1.01)
    with pytest.raises(DiagnosticsError):
        select_blowup_radius(prof, -1.0)


def test_extract_blowup_frame_identity_scale(ico3):
    params = FlowParams(-1.0, 0.0)
    state = init_state(ico3, params, SteppingPolicy())
    frame = extract_blowup_frame(state, params)
    # energy identity is asserted inside; check the frame fields
    assert frame.r > 0
    assert frame.rescaled_params.c0 == pytest.approx(-frame.r)
    e_orig = state.cache.penalized
    assert frame.penalized == pytest.approx(e_orig, rel=1e-12)
    # identity rescale reproduces the input mesh
    manual = state.mesh.translated(-frame.x).scaled(1.0 / frame.r)
    assert np.array_equal(manual.vertices, frame.rescaled_mesh.vertices)


def test_blowup_frame_mean_radius_order_one():
    # frames from a small sphere rescale back to O(1) size
    small = make_icosphere(3, 0.05)
    params = FlowParams(-1.0, 0.0)
    state = init_state(small, params, SteppingPolicy())
    frame = extract_blowup_frame(state, params)
    v = np.asarray(frame.rescaled_mesh.vertices)
    mean_r = np.linalg.norm(v - v.mean(axis=0), axis=1).mean()
    assert 0.05 < mean_r < 20.0
    assert frame.rescaled_mesh.euler_characteristic == 2


def test_sphere_fit_exact_and_ellipsoid(ico3):
    center, radius, residual = sphere_fit(ico3.vertices)
    assert np.abs(center).max() < 1e-12
    assert radius == pytest.approx(1.0, rel=1e-12)
    assert residual < 1e-12
    ell = np.asarray(ico3.vertices) * np.array([2.0, 1.0, 1.0])
    _, _, res_e = sphere_fit(ell)
    assert res_e > 0.1


def test_classification_round_shrinker_synthetic():
    # three shrinking spheres rescale to near-identical unit spheres
    params = FlowParams(-1.0, 0.0)
    frames = []
    for i, r in enumerate((0.4, 0.2, 0.1)):
        mesh = make_icosphere(3, r)
        cache = build_cache(mesh, params)
        frames.append(BlowUpFrame(
            t=float(i), r=r, x=np.zeros(3),
            rescaled_mesh=mesh.scaled(1.0 / r),
            rescaled_params=params.rescaled(r),
            kappa_target=2 * np.pi,
            willmore=cache.willmore,
            penalized=cache.penalized,
        ))
    cls = classify_singularity(frames, "singular_area_collapse")
    assert cls.verdict == "round_shrinker"
    assert cls.fit_residual < 0.02
    assert all(abs(w - FOUR_PI) < 0.05 * FOUR_PI for w in cls.limit_willmore)


def test_classification_non_round_negative_control(ico3):
    # frozen ellipsoid frames: fit residual is large, W is 23% above 4 pi
    params = FlowParams(-1.0, 0.0)
    ell = orient_for_positive_volume(TriangleMesh(
        np.asarray(ico3.vertices) * np.array([2.0, 1.0, 1.0]), ico3.faces))
    cache = build_cache(ell, params)
    frames = [BlowUpFrame(t=float(i), r=1.0, x=np.zeros(3), rescaled_mesh=ell,
                          rescaled_params=params, kappa_target=2 * np.pi,
                          willmore=cache.willmore, penalized=cache.penalized)
              for i in range(3)]
    cls = classify_singularity(frames, "singular_area_collapse")
    assert cls.verdict == "non_round_concentration"


def test_classification_converged_is_none():
    cls = classify_singularity([], "converged")
    assert cls.verdict == "none"
    assert cls.fit_residual is None


def test_classification_needs_three_frames():
    with pytest.raises(DiagnosticsError):
        classify_singularity([], "singular_area_collapse")


def test_frame_sink_area_halving(ico3):
    params = FlowParams(-1.0, 0.0)
    sink = FrameSink(params)
    state = init_state(ico3, params, SteppingPolicy())
    sink(state, None)  # initializes the target from t=0 data
    assert sink.kappa_target == pytest.approx(
        0.25 * np.sum(state.cache.Asq * state.cache.vertex_areas))
    # shrink the mesh below half the area: one frame must be emitted
    small = init_state(ico3.scaled(0.6), params, SteppingPolicy())
    sink(small, None)
    assert len(sink.frames) == 1


def test_hypothesis_monitors_equilibrium(ico4):
    params = FlowParams(1.0, 0.5)
    state = init_state(ico4, params, SteppingPolicy())
    mon = hypothesis_monitors(state, params)
    assert mon["int_H"] == pytest.approx(EIGHT_PI, rel=5e-3)
    assert mon["int_H_positive"]
    assert mon["en_threshold"] == pytest.approx(FOUR_PI)
    assert mon["below_threshold"]  # unit-sphere initial energy ~ 2 pi
    assert mon["t_bound"] is None


def test_hypothesis_monitors_shrinker(ico4):
    params = FlowParams(-1.0, 0.0)
    state = init_state(ico4, params, SteppingPolicy())
    mon = hypothesis_monitors(state, params)
    # initial energy ~ 9 pi gives the finite-time bound 260
    assert mon["t_bound"] == pytest.approx(260.0, rel=5e-3)
    assert mon["remaining_budget"] == pytest.approx(mon["t_bound"])
    assert mon["below_threshold"] is None or not mon["below_threshold"]


def test_default_radii_grid_spans_diameter(ico4):
    grid = default_radii_grid(ico4)
    assert grid[0] < 0.1
    assert grid[-1] > ico4.bbox_diagonal()

