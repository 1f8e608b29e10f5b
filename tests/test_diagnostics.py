import concurrent.futures
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import helflow.diagnostics as diagnostics
from helflow.diagnostics import (KAPPA_BLOCK, BlowUpFrame, DiagnosticsError,
                                 FrameSink, _ball_sums, _kappa_scan,
                                 classify_singularity, default_radii_grid,
                                 extract_blowup_frame, kappa, kappa_profile,
                                 select_blowup_radius, sphere_fit)
from helflow.flow import FlowState, SteppingPolicy, init_state
from helflow.geometry import FlowParams, build_cache, penalized_energy
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


@pytest.fixture
def scan_workers(monkeypatch):
    """Sets the scan's worker count, and lets scans of any size use the
    pool.  Each count gets a pool of its own, shut down when the test ends."""
    shared, made = diagnostics._pool, []
    monkeypatch.setattr(diagnostics, "KAPPA_POOL_MIN_VERTICES", 0)

    def use(workers):
        made.append(diagnostics._pool)
        monkeypatch.setattr(diagnostics, "KAPPA_WORKERS", workers)
        monkeypatch.setattr(diagnostics, "_pool", None)

    yield use
    made.append(diagnostics._pool)
    for pool in made:
        if pool is not None and pool is not shared:
            pool.shutdown()


def _ball_sums_sequential(vertices, weights, r_sq):
    """The scan's ball sums formed one block after another in the calling
    thread, each sum in the scan's order: blocks row-major with J >= I, and
    within a block's histograms rows and columns in index order."""
    n, n_r = len(vertices), len(r_sq)
    v_sq = np.einsum("ij,ij->i", vertices, vertices)
    acc = np.zeros((n, n_r + 1))
    for i0 in range(0, n, KAPPA_BLOCK):
        I = slice(i0, min(i0 + KAPPA_BLOCK, n))
        for j0 in range(i0, n, KAPPA_BLOCK):
            J = slice(j0, min(j0 + KAPPA_BLOCK, n))
            d_sq = (v_sq[I, None] + v_sq[None, J]
                    - 2.0 * (vertices[I] @ vertices[J].T))
            if n_r == 1:
                inside = d_sq < r_sq[0]
                acc[I, 0] += inside @ weights[J]
                if I != J:
                    acc[J, 0] += weights[I] @ inside
                continue
            bins = np.searchsorted(r_sq, d_sq, side="right")
            for a, row in enumerate(bins, start=i0):
                acc[a] += np.bincount(row, weights[J], minlength=n_r + 1)
            if I != J:
                for b, col in enumerate(bins.T, start=j0):
                    acc[b] += np.bincount(col, weights[I], minlength=n_r + 1)
    return acc[:, :1] if n_r == 1 else np.cumsum(acc[:, :n_r], axis=1)


@pytest.mark.parametrize("case", list(POINT_CLOUD_SIZES))
@pytest.mark.parametrize("radii", [[0.3], np.geomspace(1e-3, 3.0, 40)],
                         ids=["one", "geom40"])
def test_kappa_scan_is_independent_of_worker_count(case, radii, scan_workers):
    # the calling thread adds the blocks up in block order, so the number
    # of workers cannot move a bit of any sum
    vertices, weights = _scan_input(case)
    r_sq = np.asarray(radii, dtype=np.float64) ** 2
    expected = _ball_sums_sequential(vertices, weights, r_sq).tobytes()
    for workers in (1, 2, 3):
        scan_workers(workers)
        assert _ball_sums(vertices, weights, r_sq).tobytes() == expected


def test_only_large_scans_start_the_pool(ico3, ico4, ico4_cache,
                                         monkeypatch):
    # a process's first extra thread slows all of its later work, so the
    # few blocks of a small scan stay on the calling thread
    monkeypatch.setattr(diagnostics, "_pool", None)
    assert len(ico3.vertices) < diagnostics.KAPPA_POOL_MIN_VERTICES
    kappa(ico3, build_cache(ico3), 0.5)
    assert diagnostics._pool is None
    kappa(ico4, ico4_cache, 0.5)
    assert diagnostics._pool is not None
    diagnostics._pool.shutdown()


def test_concurrent_scans_share_the_pool(scan_workers, monkeypatch):
    # callers on several threads start their first scan at once and queue
    # their blocks on one pool, with thread switches forced often; one pool
    # is made, and each caller still gets its own sums
    made = []

    class SlowToStart(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            time.sleep(0.05)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SlowToStart)
    scan_workers(3)
    vertices, weights = _scan_input("two_blocks_plus_one")
    r_sq = np.geomspace(1e-3, 3.0, 40) ** 2
    expected = _ball_sums_sequential(vertices, weights, r_sq).tobytes()
    results = [None] * 4

    def scan(k):
        results[k] = _ball_sums(vertices, weights, r_sq).tobytes()

    threads = [threading.Thread(target=scan, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert made == [diagnostics._pool]
    assert results == [expected] * 4


def _frame_sink_bytes():
    """Profiles and frames of a FrameSink fed four ico3 snapshots whose area
    halves from one to the next, as bytes."""
    params = FlowParams(-1.0, 0.0)
    sink = FrameSink(params)
    for k in range(4):
        mesh = perturbed_sphere(1, 3, 0.04 / 2 ** k, 0.65 ** k)
        sink(FlowState(t=0.01 * k, mesh=mesh,
                       cache=build_cache(mesh, params), dt=0.0), None)
    assert len(sink.frames) == 3
    return [(p.kappa.tobytes(), p.centers.tobytes(), f.r, f.x.tobytes(),
             f.rescaled_mesh.vertices.tobytes(), f.willmore, f.penalized)
            for p, f in zip(sink.profiles, sink.frames)]


def test_frames_are_independent_of_worker_count(scan_workers):
    outputs = []
    for workers in (1, 2, 3):
        scan_workers(workers)
        outputs.append(_frame_sink_bytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_a_failing_block_fails_the_scan_and_cancels_the_rest(
        ico4, ico4_cache, scan_workers, monkeypatch):
    # the first block raises and the next ones hold both workers, so when
    # the exception reaches the caller the last of the 2 * workers submitted
    # blocks is still queued
    workers = 2
    scan_workers(workers)
    grid = default_radii_grid(ico4)
    expected = kappa_profile(ico4, ico4_cache, grid)
    d_sq_panels, lock = diagnostics._d_sq_panels, threading.Lock()
    error, started, finished = RuntimeError("block failed"), [], []

    def failing(v_sq, I, J, *args):
        with lock:
            started.append(None)
        try:
            if I.start == J.start == 0:
                raise error
            time.sleep(0.05)
            return d_sq_panels(v_sq, I, J, *args)
        finally:
            with lock:
                finished.append(None)

    monkeypatch.setattr(diagnostics, "_d_sq_panels", failing)
    with pytest.raises(RuntimeError) as raised:
        kappa_profile(ico4, ico4_cache, grid)
    assert raised.value is error
    # no block is left running, and the queued one never ran
    assert len(finished) == len(started) < 2 * workers
    monkeypatch.setattr(diagnostics, "_d_sq_panels", d_sq_panels)
    again = kappa_profile(ico4, ico4_cache, grid)
    assert again.kappa.tobytes() == expected.kappa.tobytes()
    assert again.centers.tobytes() == expected.centers.tobytes()


def test_scan_workers_add_at_most_one_block_of_temporaries(scan_workers,
                                                           monkeypatch):
    # the first block stalls, so every later block that is let in finishes
    # and waits to be added up: only the in-flight window bounds them
    mesh = perturbed_sphere(1, 4, 0.02)
    cache = build_cache(mesh)
    grid = default_radii_grid(mesh)
    d_sq_panels, peaks = diagnostics._d_sq_panels, {}
    for workers in (1, 2):
        scan_workers(workers)
        kappa_profile(mesh, cache, grid)    # starts the pool outside the trace

        def stall_first(v_sq, I, J, *args):
            if I.start == J.start == 0:
                time.sleep(0.3)
            return d_sq_panels(v_sq, I, J, *args)

        monkeypatch.setattr(diagnostics, "_d_sq_panels", stall_first)
        tracemalloc.start()
        try:
            kappa_profile(mesh, cache, grid)
            peaks[workers] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(diagnostics, "_d_sq_panels", d_sq_panels)
    # a block's d_sq, bins and weights, as a pass without buffers holds them
    one_block = 3 * KAPPA_BLOCK ** 2 * 8
    assert peaks[2] <= peaks[1] + one_block


def test_a_forked_child_scans_on_a_pool_of_its_own(helflow_env):
    # the parent's scan threads do not exist in a forked child, so the child
    # must start its own pool rather than queue blocks on a dead one
    code = ("import os, signal\n"
            "import helflow.diagnostics as d\n"
            "from helflow.geometry import build_cache\n"
            "from helflow.mesh import make_icosphere\n"
            "d.KAPPA_WORKERS, d.KAPPA_POOL_MIN_VERTICES = 2, 0\n"
            "mesh = make_icosphere(3, 1.0)\n"
            "cache = build_cache(mesh)\n"
            "parent = d.kappa(mesh, cache, 0.5)[0]\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(30)\n"
            "    os._exit(0 if d.kappa(mesh, cache, 0.5)[0] == parent else 1)\n"
            "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))")
    out = subprocess.run([sys.executable, "-c", code], env=helflow_env,
                         check=True, capture_output=True, text=True,
                         timeout=90).stdout
    assert out.split() == ["0"]


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


def test_extract_blowup_frame_checks_the_energy_of_its_own_params(ico3):
    # the state's cache holds energies for other parameters; the identity is
    # checked against the energy for the parameters passed in
    state = FlowState(t=0.0, mesh=ico3,
                      cache=build_cache(ico3, FlowParams(1.0, 0.5)), dt=0.0)
    params = FlowParams(-1.0, 0.0)
    frame = extract_blowup_frame(state, params)
    assert frame.penalized == pytest.approx(
        penalized_energy(build_cache(ico3), params), rel=1e-12)


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


def test_default_radii_grid_spans_diameter(ico4):
    grid = default_radii_grid(ico4)
    assert grid[0] < 0.1
    assert grid[-1] > ico4.bbox_diagonal()

