import tracemalloc

import numpy as np
import pytest

from helflow.diagnostics import (KAPPA_BLOCK, BlowUpFrame, DiagnosticsError,
                                 FrameSink, _kappa_scan,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kappa_rejects_non_finite_radius(bad):
    mesh = make_icosphere(2, 1.0)
    cache = build_cache(mesh)
    with pytest.raises(DiagnosticsError):
        kappa(mesh, cache, bad)
    for grid in ([0.5, bad, 1.0], [0.5, 1.0, bad]):
        with pytest.raises(DiagnosticsError):
            kappa_profile(mesh, cache, grid)


def _ball_sums_reference(vertices, weights, radii):
    """Per-center ball sums, row by row, with the scan's squared-distance
    formula and no use of symmetry: shape (n, len(radii))."""
    r_sq = np.asarray(radii, dtype=np.float64) ** 2
    v_sq = np.einsum("ij,ij->i", vertices, vertices)
    vals = np.empty((len(vertices), len(r_sq)))
    for i in range(len(vertices)):
        d_sq = v_sq[i] + v_sq - 2.0 * (vertices @ vertices[i])
        bins = np.searchsorted(r_sq, d_sq, side="right")
        vals[i] = np.cumsum(np.bincount(bins, weights=weights,
                                        minlength=len(r_sq) + 1)[:-1])
    return vals


def _two_spheres():
    """The two-component mesh of test_kappa_no_double_counting."""
    ico3 = make_icosphere(3, 1.0)
    far = ico3.translated((10.0, 0.0, 0.0))
    return TriangleMesh(
        np.vstack([ico3.vertices, far.vertices]),
        np.vstack([ico3.faces, far.faces + ico3.n_vertices]),
    )


POINT_CLOUD_SIZES = {"half_block": KAPPA_BLOCK // 2,
                     "two_blocks": 2 * KAPPA_BLOCK,
                     "two_blocks_plus_one": 2 * KAPPA_BLOCK + 1}


def _scan_input(case):
    """(vertices, weights) of a perturbed sphere at subdivision level
    ``case``, of the two spheres, or of random points on the unit sphere with
    random weights."""
    if case in POINT_CLOUD_SIZES:
        n = POINT_CLOUD_SIZES[case]
        rng = np.random.default_rng(n)
        v = rng.standard_normal((n, 3))
        return v / np.linalg.norm(v, axis=1)[:, None], rng.random(n)
    mesh = _two_spheres() if case == "two_spheres" else perturbed_sphere(5, case, 0.05)
    cache = build_cache(mesh)
    return mesh.vertices, cache.Asq * cache.vertex_areas


@pytest.mark.parametrize("case", [3, 4, *POINT_CLOUD_SIZES, "two_spheres"])
@pytest.mark.parametrize("radii", [[0.3], [0.05, 0.2, 0.7, 1.5, 2.5],
                                   np.geomspace(1e-3, 3.0, 40)],
                         ids=["one", "five", "geom40"])
def test_kappa_scan_matches_reference(case, radii):
    vertices, weights = _scan_input(case)
    got, got_center = _kappa_scan(vertices, weights, np.asarray(radii))
    ref = _ball_sums_reference(vertices, weights, radii)
    best = ref.max(axis=0)
    tol = len(vertices) * np.finfo(np.float64).eps * weights.sum()
    assert np.all(np.abs(got - best) <= tol)
    # tie rule: the lowest index among the centers within tol of the maximum
    expected = [int(np.flatnonzero(ref[:, k] >= best[k] - tol)[0])
                for k in range(len(best))]
    assert got_center.tolist() == expected


def _vertex_index(mesh, point):
    return int(np.argmin(np.linalg.norm(mesh.vertices - point, axis=1)))


def test_centers_survive_roundoff_jitter():
    # the icosphere's symmetric centers tie up to roundoff; a 1e-13 jitter
    # must not move the chosen centers of either scan or the frame's x
    mesh = make_icosphere(4, 1.0)
    rng = np.random.default_rng(0)
    jittered = TriangleMesh(
        mesh.vertices + 1e-13 * rng.standard_normal(mesh.vertices.shape),
        mesh.faces)
    params = FlowParams(-1.0, 0.0)
    picks = []
    for m in (mesh, jittered):
        state = init_state(m, params, SteppingPolicy())
        prof = kappa_profile(m, state.cache, default_radii_grid(m))
        frame = extract_blowup_frame(state, params, profile=prof)
        picks.append((
            [_vertex_index(m, c) for c in prof.centers],
            [_vertex_index(m, kappa(m, state.cache, r)[1]) for r in prof.radii],
            _vertex_index(m, frame.x),
        ))
    assert picks[0] == picks[1]


def test_kappa_profile_memory_peak():
    # the block walk keeps the scan's transient to a few 256 x 256 blocks
    mesh = perturbed_sphere(1, 4, 0.02)
    cache = build_cache(mesh)
    grid = default_radii_grid(mesh)
    tracemalloc.start()
    try:
        kappa_profile(mesh, cache, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


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

