import numpy as np
import pytest

from helflow.geometry import build_cache
from helflow.mesh import TriangleMesh, make_icosphere, make_torus, \
    orient_for_positive_volume, quality_report
from helflow.remesh import (MeshProjector, RemeshError,
                            closest_point_on_triangles, hausdorff_distance,
                            remesh)


@pytest.fixture(scope="module")
def ellipsoid():
    base = make_icosphere(3, 1.0)
    stretched = np.asarray(base.vertices) * np.array([2.5, 1.0, 0.7])
    return orient_for_positive_volume(TriangleMesh(stretched, base.faces))


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


def test_remesh_rejects_bad_target(ico3):
    with pytest.raises(RemeshError):
        remesh(ico3, -1.0)


def test_remesh_preserves_components(ico3):
    far = ico3.translated((10.0, 0.0, 0.0))
    both = TriangleMesh(
        np.vstack([ico3.vertices, far.vertices]),
        np.vstack([ico3.faces, far.faces + ico3.n_vertices]),
    )
    out = remesh(both, both.mean_edge_length())
    assert out.n_components == 2


def test_hausdorff_zero_for_identical(ico3):
    assert hausdorff_distance(ico3, ico3) < 1e-14


def test_hausdorff_detects_offset(ico3):
    shifted = ico3.translated((0.05, 0.0, 0.0))
    d = hausdorff_distance(ico3, shifted)
    assert 0.03 <= d <= 0.06


def test_remesh_keeps_tags_unique():
    base = make_icosphere(2, 1.0)
    tagged = TriangleMesh(base.vertices, base.faces,
                          vertex_tags=np.arange(base.n_vertices))
    out = remesh(tagged, 0.7 * tagged.mean_edge_length())
    assert out.vertex_tags is not None
    assert len(np.unique(out.vertex_tags)) == out.n_vertices
