import importlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import helflow
from helflow.geometry import build_cache
from helflow.mesh import TriangleMesh, make_icosphere, make_tetrahedron, \
    make_torus, orient_for_positive_volume, quality_report, save_mesh
from helflow.remesh import (MAX_DISTANCE_BATCH, QUERY_BATCH, MeshProjector,
                            RemeshError, _collapse_pass, _compact, _flip_pass,
                            _split_pass, closest_point_on_triangles,
                            hausdorff_distance, remesh)
from helflow.validate import perturbed_sphere

# the module (``helflow.remesh`` as an attribute is the function)
helflow_remesh = importlib.import_module("helflow.remesh")


def _ellipsoid():
    base = make_icosphere(3, 1.0)
    stretched = np.asarray(base.vertices) * np.array([2.5, 1.0, 0.7])
    return orient_for_positive_volume(TriangleMesh(stretched, base.faces))


@pytest.fixture(scope="module")
def ellipsoid():
    return _ellipsoid()


def test_closest_point_on_triangles_regions():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0, 0.0]])
    c = np.array([[0.0, 1.0, 0.0]])
    # interior projection
    p = np.array([[0.25, 0.25, 1.0]])
    cp = closest_point_on_triangles(p, a, b, c)
    assert np.allclose(cp, [[0.25, 0.25, 0.0]])
    # vertex region
    p = np.array([[-1.0, -1.0, 0.0]])
    assert np.allclose(closest_point_on_triangles(p, a, b, c), [[0, 0, 0]])
    # edge region
    p = np.array([[0.5, -1.0, 0.0]])
    assert np.allclose(closest_point_on_triangles(p, a, b, c), [[0.5, 0, 0]])


def test_projector_points_on_surface(ico3):
    proj = MeshProjector(ico3)
    pts = np.asarray(ico3.vertices)[:20] * 1.1
    closest, dist, faces = proj.project(pts)
    assert np.all(dist <= 0.11)
    assert np.all(faces >= 0)
    # projecting surface points is the identity
    _, d0, _ = proj.project(np.asarray(ico3.vertices)[:20])
    assert d0.max() < 1e-12


def _full_array_closest_points(p, a, b, c):
    """Reference closest points: every region's candidate formed on all rows,
    then the first region that applies is copied in."""
    ab, ac, ap, bp, cp = b - a, c - a, p - a, p - b, p - c
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4
    with np.errstate(divide="ignore", invalid="ignore"):
        v_ab = d1 / (d1 - d3)
        w_ac = d2 / (d2 - d6)
        w_bc = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        denom = va + vb + vc
        v, w = vb / denom, vc / denom
        interior = a + v[:, None] * ab + w[:, None] * ac
    regions = [
        ((d1 <= 0) & (d2 <= 0), a),
        ((d3 >= 0) & (d4 <= d3), b),
        ((d6 >= 0) & (d5 <= d6), c),
        ((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + v_ab[:, None] * ab),
        ((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + w_ac[:, None] * ac),
        ((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0),
         b + w_bc[:, None] * (c - b)),
    ]
    out = interior.copy()
    done = np.zeros(len(p), dtype=bool)
    for mask, value in regions:
        mask = mask & ~done
        out[mask] = value[mask]
        done |= mask
    return out


def test_closest_point_matches_full_array_evaluation():
    rng = np.random.default_rng(3)
    a, b, c = (rng.standard_normal((4000, 3)) for _ in range(3))
    b[:500] = a[:500]                                   # degenerate
    c[500:1000] = 0.5 * (a[500:1000] + b[500:1000])     # collinear
    c[1000:1500] = a[1000:1500] + 1e-9 * rng.standard_normal((500, 3))
    p = 3.0 * rng.standard_normal((4000, 3))
    p[1500:2000] = a[1500:2000]                         # on a corner
    got = closest_point_on_triangles(p, a, b, c)
    assert got.tobytes() == _full_array_closest_points(p, a, b, c).tobytes()


def _loop_projection(mesh, points, k_nearest=10):
    """Reference projector: candidate faces gathered query by query with
    ``np.unique``, closest points formed on all rows, the first minimum per
    query picked by ``lexsort``."""
    _, near = cKDTree(mesh.vertices).query(
        points, k=min(k_nearest, mesh.n_vertices))
    verts = mesh.faces.ravel()
    order = np.argsort(verts, kind="stable")
    vf_faces = np.repeat(np.arange(mesh.n_faces), 3)[order]
    vf_start = np.concatenate(
        [[0], np.cumsum(np.bincount(verts, minlength=mesh.n_vertices))])
    faces, owners = [], []
    for qi, vs in enumerate(np.atleast_2d(near)):
        fs = np.unique(np.concatenate(
            [vf_faces[vf_start[v]: vf_start[v + 1]] for v in vs]))
        faces.append(fs)
        owners.append(np.full(len(fs), qi))
    cand, owners = np.concatenate(faces), np.concatenate(owners)
    tri = mesh.faces[cand]
    v = mesh.vertices
    cp = _full_array_closest_points(points[owners], v[tri[:, 0]],
                                    v[tri[:, 1]], v[tri[:, 2]])
    d = np.linalg.norm(cp - points[owners], axis=1)
    order = np.lexsort((d, owners))
    best = order[np.searchsorted(owners[order], np.arange(len(points)))]
    return cp[best], d[best], cand[best]


def _pinched_ico2():
    # vertices moved onto a neighbour: degenerate faces give NaN distances
    base = make_icosphere(2, 1.0)
    v = np.array(base.vertices)
    for j, k in base.edges[::7][:20]:
        v[k] = v[j]
    return TriangleMesh(v, base.faces, validate=False)


def _ellipsoid6():
    return TriangleMesh(np.asarray(make_icosphere(3, 1.0).vertices)
                        * np.array([1.0, 1.0, 6.0]), make_icosphere(3).faces)


def _samples(mesh):
    """The Hausdorff samples: vertices, edge midpoints and centroids."""
    v, e = mesh.vertices, mesh.edges
    v0, v1, v2 = mesh.face_corners()
    return np.concatenate([v, 0.5 * (v[e[:, 0]] + v[e[:, 1]]),
                           (v0 + v1 + v2) / 3.0])


@pytest.mark.parametrize("make_mesh", [
    lambda: make_icosphere(3, 1.0),
    lambda: make_torus(1.0, 0.4, 48, 24),
    _ellipsoid6,
    # sliver-heavy: minimum angle below 3 degrees
    lambda: remesh(_ellipsoid6(), _ellipsoid6().mean_edge_length()),
    _pinched_ico2,
], ids=["ico3", "torus", "ellipsoid6", "ellipsoid6-remeshed", "pinched-ico2"])
def test_projector_matches_per_query_loop(make_mesh, monkeypatch):
    # batches of one and of seven queries split the points differently, and
    # each query's result must not depend on its batch
    mesh = make_mesh()
    rng = np.random.default_rng(7)
    v = np.asarray(mesh.vertices)
    lo, hi = v.min(axis=0), v.max(axis=0)
    points = np.vstack([
        v * rng.uniform(0.7, 1.3, (len(v), 1)),          # off the surface
        v + 0.05 * rng.standard_normal(v.shape),
        rng.uniform(lo - 0.5, hi + 0.5, (500, 3)),       # anywhere nearby
        _samples(mesh),      # ties at distance 0: vertices, edges, centroids
    ])
    expected = _loop_projection(mesh, points)
    for query_batch in (QUERY_BATCH, 1, 7):
        monkeypatch.setattr(helflow_remesh, "QUERY_BATCH", query_batch)
        got = MeshProjector(mesh).project(points)
        for e, g in zip(expected, got):
            assert g.dtype == e.dtype and g.shape == e.shape
            assert g.tobytes() == e.tobytes()


@pytest.mark.parametrize("with_plane", [False, True], ids=["fan", "fan-and-plane"])
def test_projector_ranks_nan_after_every_number(with_plane, monkeypatch):
    # three faces with two corners at the origin and one at (1, 0, 0) give
    # NaN to a query between those points, so that query's whole star is
    # NaN; a wide triangle in the plane y = 1.5, whose corners are far from
    # the query, must then win, and with no such face the lowest face does
    v = np.r_[np.zeros((3, 3)), np.tile([1.0, 0.0, 0.0], (3, 1))]
    f = [[i, (i + 1) % 3, 3 + i] for i in range(3)]
    if with_plane:
        v = np.r_[v, [[-5.0, 1.5, -5.0], [5.0, 1.5, -5.0], [0.0, 1.5, 5.0]]]
        f.append([6, 7, 8])
    mesh = TriangleMesh(v, np.array(f), validate=False)
    points = np.array([[0.5, 1.0, 0.0], [0.5, 2.0, 0.0], [0.5, 1.2, 0.1]])
    with np.errstate(invalid="ignore", divide="ignore"):
        expected = _loop_projection(mesh, points)
        for query_batch in (QUERY_BATCH, 1):
            monkeypatch.setattr(helflow_remesh, "QUERY_BATCH", query_batch)
            got = MeshProjector(mesh).project(points)
            for e, g in zip(expected, got):
                assert g.tobytes() == e.tobytes()
    assert got[2].tolist() == ([3, 3, 3] if with_plane else [0, 0, 0])


def _valence_deviation(v, f):
    valence = np.bincount(TriangleMesh(*_compact(v, f), validate=False).edges.ravel())
    return int(np.sum((valence - 6) ** 2))


@pytest.mark.parametrize("make_mesh,factor", [
    (lambda: make_icosphere(3, 1.0), 0.5),
    (lambda: perturbed_sphere(2, 3, 0.2), 1.3),
    (lambda: make_torus(1.0, 0.4, 36, 18), 0.7),
], ids=["ico3-refine", "perturbed-coarsen", "torus"])
def test_flip_pass_lowers_valence_deviation(make_mesh, factor):
    mesh = make_mesh()
    targets = np.full(mesh.n_vertices, factor * mesh.mean_edge_length())
    v, f, t, _ = _split_pass(mesh.vertices, mesh.faces, targets)
    v, f, _ = _collapse_pass(v, f, t)
    flipped, flips = _flip_pass(v, f)
    assert flips > 0
    out = TriangleMesh(*_compact(v, flipped), validate=True)
    assert out.euler_characteristic == mesh.euler_characteristic
    assert _valence_deviation(v, flipped) < _valence_deviation(v, f)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.0, 0.9),
       factor=st.floats(0.5, 2.0))
def test_remesh_keeps_topology_and_surface_or_raises(seed, amplitude, factor):
    mesh = perturbed_sphere(seed, 2, amplitude)
    target = factor * mesh.mean_edge_length()
    try:
        out = remesh(mesh, target)
    except RemeshError:
        return
    assert out.euler_characteristic == mesh.euler_characteristic
    assert out.n_components == mesh.n_components
    assert hausdorff_distance(mesh, out) <= 0.5 * target
    assert np.bincount(out.edges.ravel()).min() >= 3


@pytest.mark.parametrize("factor", [10.0, 100.0])
@pytest.mark.parametrize("make_mesh", [
    make_tetrahedron, lambda: make_icosphere(0), lambda: make_icosphere(1),
], ids=["tetrahedron", "ico0", "ico1"])
def test_coarse_remesh_never_makes_a_pillow(make_mesh, factor):
    # collapsing toward a target far above the mesh size must stop before
    # two triangles lie back to back on three vertices
    mesh = make_mesh()
    try:
        out = remesh(mesh, factor * mesh.mean_edge_length())
    except RemeshError:
        return
    out = TriangleMesh(out.vertices, out.faces, validate=True)
    assert out.n_vertices >= 4
    assert np.bincount(out.edges.ravel()).min() >= 3


def test_remesh_is_deterministic(ellipsoid):
    first = remesh(ellipsoid, 0.15)
    again = remesh(ellipsoid, 0.15)
    rebuilt = remesh(TriangleMesh(np.array(ellipsoid.vertices),
                                  np.array(ellipsoid.faces)), 0.15)
    for out in (again, rebuilt):
        assert out.vertices.tobytes() == first.vertices.tobytes()
        assert out.faces.tobytes() == first.faces.tobytes()


def test_identity_remesh_near_noop(ico4):
    out = remesh(ico4, ico4.mean_edge_length())
    assert out.n_vertices == ico4.n_vertices
    assert hausdorff_distance(ico4, out) < 1e-3


def test_remesh_coarsen_and_refine(ico3):
    target = ico3.mean_edge_length()
    coarse = remesh(ico3, 2.0 * target)
    fine = remesh(ico3, 0.5 * target)
    assert coarse.n_vertices < ico3.n_vertices < fine.n_vertices
    for out, t in ((coarse, 2 * target), (fine, 0.5 * target)):
        assert out.euler_characteristic == 2
        assert hausdorff_distance(ico3, out) <= 0.5 * t


def test_remesh_ellipsoid_quality(ellipsoid):
    target = 0.15
    out = remesh(ellipsoid, target, iterations=10)
    rep = quality_report(out)
    assert rep.min_angle >= np.deg2rad(15.0)
    lengths = out.edge_lengths()
    # band [0.5, 1.5] * target except where curvature demands smaller
    assert lengths.max() <= 1.5 * target
    cache = build_cache(out)
    short = lengths < 0.5 * target
    if np.any(short):
        edges = out.edges[short]
        curv = np.sqrt(np.maximum(cache.Asq[edges].max(axis=1), 0))
        assert np.all(curv * target > 0.5 * 0.999)  # adaptive region only


def test_remesh_preserves_torus_topology():
    torus = make_torus(1.0, 0.4, 36, 18)
    out = remesh(torus, torus.mean_edge_length() * 1.3)
    assert out.genus == 1
    assert out.euler_characteristic == 0


@pytest.mark.parametrize("target", [-1.0, 0.0, np.nan, np.inf, -np.inf])
def test_remesh_rejects_bad_target(ico3, target):
    with pytest.raises(RemeshError):
        remesh(ico3, target)


def test_remesh_preserves_components(ico3):
    far = ico3.translated((10.0, 0.0, 0.0))
    both = TriangleMesh(
        np.vstack([ico3.vertices, far.vertices]),
        np.vstack([ico3.faces, far.faces + ico3.n_vertices]),
    )
    out = remesh(both, both.mean_edge_length())
    assert out.n_components == 2


def _remeshed_torus():
    torus = make_torus(1.0, 0.4, 36, 18)
    return torus, remesh(torus, torus.mean_edge_length() * 1.3)


@pytest.mark.parametrize("make_pair", [
    lambda: (_ellipsoid(), remesh(_ellipsoid(), 0.15)),
    _remeshed_torus,
    lambda: (make_icosphere(3, 1.0),
             make_icosphere(3, 1.0).translated((0.05, -0.02, 0.01))),
    lambda: (_pinched_ico2(), make_icosphere(2, 1.0)),
], ids=["ellipsoid", "torus", "translated-ico3", "pinched-ico2"])
def test_hausdorff_matches_full_projection(make_pair, monkeypatch):
    # only each side's maximum is computed, but it is the float that the
    # full per-query projection of every sample gives; batches of one
    # sample make the search go through several batches, and query
    # batches of one and of seven split every projection
    mesh_a, mesh_b = make_pair()
    for a, b in ((mesh_a, mesh_b), (mesh_b, mesh_a)):
        d_ab = _loop_projection(b, _samples(a))[1].max()
        d_ba = _loop_projection(a, _samples(b))[1].max()
        expected = np.float64(max(d_ab, d_ba)).tobytes()
        for batch in (MAX_DISTANCE_BATCH, 1):
            monkeypatch.setattr(helflow_remesh, "MAX_DISTANCE_BATCH", batch)
            assert np.float64(hausdorff_distance(a, b)).tobytes() == expected
            assert np.float64(hausdorff_distance(
                a, b, MeshProjector(a))).tobytes() == expected
        for query_batch, batch in ((1, MAX_DISTANCE_BATCH), (7, 1)):
            monkeypatch.setattr(helflow_remesh, "QUERY_BATCH", query_batch)
            monkeypatch.setattr(helflow_remesh, "MAX_DISTANCE_BATCH", batch)
            assert np.float64(hausdorff_distance(
                a, b, MeshProjector(a))).tobytes() == expected
        monkeypatch.setattr(helflow_remesh, "QUERY_BATCH", QUERY_BATCH)


def test_max_distance_is_nan_like_the_projected_maximum(monkeypatch):
    # every face has two corners at the origin and one at (1, 0, 0): a query
    # that projects between them gets NaN from every face; with query
    # batches of one, the NaN query is projected in the last batch
    v = np.r_[np.zeros((6, 3)), np.tile([1.0, 0.0, 0.0], (6, 1))]
    f = np.array([[i, (i + 1) % 6, 6 + i] for i in range(6)])
    projector = MeshProjector(TriangleMesh(v, f, validate=False))
    points = np.array([[3.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.5, 1.0, 0.0]])
    with np.errstate(invalid="ignore", divide="ignore"):
        for query_batch in (QUERY_BATCH, 1, 7):
            monkeypatch.setattr(helflow_remesh, "QUERY_BATCH", query_batch)
            for queries in (points, points[:2]):
                expected = projector.project(queries)[1].max()
                got = projector.max_distance(queries)
                assert np.float64(got).tobytes() == expected.tobytes()


def test_hausdorff_memory_is_bounded_by_the_batch():
    # the samples are projected a batch at a time: the check holds per-sample
    # arrays, not one of samples times candidate faces
    ico = make_icosphere(4)
    a = TriangleMesh(np.asarray(ico.vertices) * np.array([1.0, 1.0, 3.0]),
                     ico.faces)
    b = a.scaled(1.01)
    tracemalloc.start()
    try:
        hausdorff_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_hausdorff_rejects_a_projector_of_another_mesh(ico3):
    shifted = ico3.translated((0.05, 0.0, 0.0))
    expected = hausdorff_distance(ico3, shifted)
    assert hausdorff_distance(ico3, shifted, MeshProjector(ico3)) == expected
    for wrong in (shifted, ico3.translated((0.0, 0.0, 0.0))):
        with pytest.raises(ValueError, match="another mesh"):
            hausdorff_distance(ico3, shifted, MeshProjector(wrong))


def test_mesh_and_remesh_leave_csgraph_unloaded(tmp_path):
    # component labels come from a numpy union-find, so no workload pays
    # for importing scipy.sparse.csgraph
    path = tmp_path / "ico3.off"
    save_mesh(make_icosphere(3), path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(helflow.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys, helflow\n"
            "from helflow.mesh import load_mesh, make_icosphere\n"
            "from helflow.remesh import remesh\n"
            "make_icosphere(3)\n"
            f"mesh = load_mesh({str(path)!r})\n"
            "out = remesh(mesh, 1.5 * mesh.mean_edge_length())\n"
            "print(out.n_components, 'scipy.sparse.csgraph' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["1", "False"]


def test_hausdorff_zero_for_identical(ico3):
    assert hausdorff_distance(ico3, ico3) < 1e-14


def test_hausdorff_detects_offset(ico3):
    shifted = ico3.translated((0.05, 0.0, 0.0))
    d = hausdorff_distance(ico3, shifted)
    assert 0.03 <= d <= 0.06

