import numpy as np
import pytest

import helflow.mesh as hm
from helflow.geometry import build_cache
from helflow.mesh import (DegenerateFaceError, MeshError, MeshFormatError,
                          NonManifoldMeshError, OpenBoundaryError,
                          OrientationError, TriangleMesh,
                          component_signed_volumes, load_mesh, make_icosphere,
                          make_torus, orient_for_positive_volume,
                          quality_report, repair_winding, save_mesh,
                          signed_volume)

TETRA_OFF = """OFF
4 4 6
0 0 0
1 0 0
0 1 0
0 0 1
3 0 2 1
3 0 1 3
3 0 3 2
3 1 2 3
"""


def _reversed(mesh):
    """The mesh with the winding of every face reversed."""
    return TriangleMesh(mesh.vertices, mesh.faces[:, [0, 2, 1]], validate=False)


def test_tetrahedron_counts(tetra):
    assert (tetra.n_vertices, tetra.n_edges, tetra.n_faces) == (4, 6, 4)
    assert tetra.euler_characteristic == 2
    assert tetra.genus == 0


def test_tetrahedron_volume(tetra):
    assert signed_volume(tetra) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_load_off_tetrahedron(tmp_path):
    path = tmp_path / "tetra.off"
    path.write_text(TETRA_OFF)
    mesh = load_mesh(path)
    assert (mesh.n_vertices, mesh.n_edges, mesh.n_faces) == (4, 6, 4)
    assert mesh.euler_characteristic == 2
    assert mesh.genus == 0
    assert signed_volume(mesh) > 0


def test_load_torus_grid(tmp_path, torus):
    path = tmp_path / "torus.off"
    save_mesh(torus, path)
    loaded = load_mesh(path)
    assert loaded.euler_characteristic == 0
    assert loaded.genus == 1


def test_icosahedron_counts():
    ico = make_icosphere(0, 1.0)
    assert (ico.n_vertices, ico.n_edges, ico.n_faces) == (12, 30, 20)
    assert ico.euler_characteristic == 2


@pytest.mark.parametrize("level,faces", [(0, 20), (1, 80), (3, 1280)])
def test_icosphere_face_counts(level, faces):
    assert make_icosphere(level, 1.0).n_faces == faces


def test_icosphere_radius_and_center():
    center = np.array([1.0, 0.0, 0.0])
    mesh = make_icosphere(2, 0.5, center)
    radii = np.linalg.norm(mesh.vertices - center, axis=1)
    assert np.abs(radii - 0.5).max() < 1e-14


def test_icosphere_positive_volume():
    assert signed_volume(make_icosphere(3, 1.0)) > 0


def test_icosphere_subdivision_cap():
    with pytest.raises(Exception):
        make_icosphere(8, 1.0)


def test_orientation_flip_and_idempotence(ico3):
    flipped = _reversed(ico3)
    assert signed_volume(flipped) == pytest.approx(-signed_volume(ico3))
    fixed = orient_for_positive_volume(flipped)
    assert signed_volume(fixed) == pytest.approx(signed_volume(ico3))
    # already-compliant input is returned unchanged
    assert orient_for_positive_volume(ico3) is ico3


def test_orientation_positive_volume_matches_enclosed(ico4):
    # discrete signed volume of the oriented unit sphere ~ enclosed 4 pi / 3
    assert signed_volume(ico4) == pytest.approx(4 * np.pi / 3, rel=3e-3)


def test_per_component_orientation(ico3):
    far = _reversed(ico3.translated((10.0, 0.0, 0.0)))
    both = TriangleMesh(
        np.vstack([ico3.vertices, far.vertices]),
        np.vstack([ico3.faces, far.faces + ico3.n_vertices]),
    )
    fixed = orient_for_positive_volume(both)
    assert np.all(component_signed_volumes(fixed) > 0)
    assert fixed.n_components == 2
    assert fixed.genus == 0
    assert fixed.euler_characteristic == 4


def test_round_trip_off(tmp_path, ico3):
    path = tmp_path / "sphere.off"
    save_mesh(ico3, path)
    loaded = load_mesh(path)
    assert np.array_equal(loaded.vertices, ico3.vertices)
    assert np.array_equal(loaded.faces, ico3.faces)


def test_round_trip_obj(tmp_path, ico3):
    path = tmp_path / "sphere.obj"
    save_mesh(ico3, path)
    loaded = load_mesh(path)
    assert np.array_equal(loaded.vertices, ico3.vertices)
    assert np.array_equal(loaded.faces, ico3.faces)


def test_obj_polygon_fan_triangulation(tmp_path):
    # a cube of quads must load as a valid closed triangle mesh
    text = "\n".join(
        ["v 0 0 0", "v 1 0 0", "v 1 1 0", "v 0 1 0",
         "v 0 0 1", "v 1 0 1", "v 1 1 1", "v 0 1 1",
         "f 1 4 3 2", "f 5 6 7 8", "f 1 2 6 5",
         "f 2 3 7 6", "f 3 4 8 7", "f 4 1 5 8"]
    )
    path = tmp_path / "cube.obj"
    path.write_text(text)
    mesh = load_mesh(path)
    assert mesh.n_faces == 12
    assert mesh.euler_characteristic == 2
    assert signed_volume(mesh) == pytest.approx(1.0, abs=1e-12)


def test_winding_repair():
    base = make_icosphere(1, 1.0)
    faces = np.array(base.faces)
    rng = np.random.default_rng(7)
    bad = rng.choice(len(faces), size=20, replace=False)
    faces[bad] = faces[bad][:, [0, 2, 1]]
    repaired = repair_winding(faces)
    mesh = TriangleMesh(base.vertices, repaired)  # validates consistency
    assert abs(signed_volume(mesh)) == pytest.approx(abs(signed_volume(base)))


def _dict_walk_repair(faces):
    """Reference winding repair: a depth-first walk over an edge -> faces
    dict from each component's lowest-index face."""
    faces = np.array(faces, dtype=np.int64)
    edge_map = {}
    for fi, (a, b, c) in enumerate(faces):
        for u, v in ((a, b), (b, c), (c, a)):
            edge_map.setdefault((min(u, v), max(u, v)), []).append((fi, (u, v)))
    for inc in edge_map.values():
        if len(inc) == 1:
            raise OpenBoundaryError("boundary edge")
        if len(inc) > 2:
            raise NonManifoldMeshError("non-manifold edge")
    oriented = np.zeros(len(faces), dtype=bool)
    flip = np.zeros(len(faces), dtype=bool)
    for seed in range(len(faces)):
        if oriented[seed]:
            continue
        oriented[seed] = True
        stack = [seed]
        while stack:
            fi = stack.pop()
            a, b, c = faces[fi]
            corners = (a, c, b) if flip[fi] else (a, b, c)
            for k in range(3):
                u, v = corners[k], corners[(k + 1) % 3]
                (f0, d0), (f1, d1) = edge_map[(min(u, v), max(u, v))]
                gi, gdir = (f1, d1) if f0 == fi else (f0, d0)
                if gi == fi:
                    continue
                needs_flip = gdir == (u, v)
                if not oriented[gi]:
                    oriented[gi] = True
                    flip[gi] = needs_flip
                    stack.append(gi)
                elif flip[gi] != needs_flip:
                    raise OrientationError("mesh is not orientable")
    faces[flip] = faces[flip][:, [0, 2, 1]]
    return faces


def _two_spheres():
    ico = make_icosphere(1, 1.0)
    return np.vstack([ico.faces, ico.faces + ico.n_vertices])


@pytest.mark.parametrize("faces", [
    lambda: make_icosphere(2, 1.0).faces,
    lambda: make_torus(1.0, 0.4, 12, 8).faces,
    _two_spheres,
], ids=["ico2", "torus", "two-components"])
@pytest.mark.parametrize("seed", range(4))
def test_repair_winding_matches_dict_walk(faces, seed):
    faces = np.array(faces())
    rng = np.random.default_rng(seed)
    bad = rng.random(len(faces)) < 0.5
    faces[bad] = faces[bad][:, [0, 2, 1]]
    repaired = repair_winding(faces)
    assert repaired.dtype == np.int64
    assert np.array_equal(repaired, _dict_walk_repair(faces))
    assert TriangleMesh(np.zeros((faces.max() + 1, 3)), repaired,
                        validate=False).topology.consistent_winding


def test_repair_winding_keeps_a_reversed_component(ico3):
    # each component is consistent on its own, so each keeps the winding of
    # its lowest face; only the volume orientation flips the reversed one
    far = ico3.translated((10.0, 0.0, 0.0))
    faces = np.vstack([ico3.faces, far.faces[:, [0, 2, 1]] + ico3.n_vertices])
    faces = faces[np.random.default_rng(5).permutation(len(faces))]
    repaired = repair_winding(faces)
    assert np.array_equal(repaired, faces)
    assert np.array_equal(repaired, _dict_walk_repair(faces))
    mesh = TriangleMesh(np.vstack([ico3.vertices, far.vertices]), repaired)
    assert mesh.n_components == 2
    assert np.sign(component_signed_volumes(mesh)).tolist() in ([1, -1], [-1, 1])
    assert (component_signed_volumes(orient_for_positive_volume(mesh)) > 0).all()


def _csgraph_labels(n, a, b):
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    graph = coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def _random_graph(seed):
    # fewer edges than nodes, so some nodes are isolated; then self-loops,
    # repeated edges and a shuffled path that needs several hooking rounds
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    a, b = rng.integers(0, n, (2, int(rng.integers(1, n))))
    path = rng.permutation(n)[:n // 3]
    loops = rng.integers(0, n, 5)
    return n, np.r_[a, a[:10], path[:-1], loops], np.r_[b, b[:10], path[1:], loops]


def _face_graph(faces):
    return len(faces), *hm.Topology(np.asarray(faces)).edge_face_pairs.T


@pytest.mark.parametrize("graph", [
    *(lambda s=s: _random_graph(s) for s in range(8)),
    lambda: (1, np.array([0]), np.array([0])),
    lambda: (1, np.array([], dtype=int), np.array([], dtype=int)),
    lambda: (40, np.array([], dtype=int), np.array([], dtype=int)),
    lambda: _face_graph(_two_spheres()),
    lambda: _face_graph(make_torus(1.0, 0.4, 12, 8).faces),
], ids=[*(f"random{s}" for s in range(8)), "one-node", "one-node-no-edges",
        "no-edges", "two-spheres", "torus"])
def test_components_match_csgraph(graph):
    n, a, b = graph()
    expected = _csgraph_labels(n, a, b)
    assert np.array_equal(hm._components(n, a, b), expected)
    assert np.array_equal(hm._components(n, b, a), expected)


def test_repair_winding_rejects_projective_plane():
    # a closed non-orientable surface: every edge has two faces
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
             (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    for repair in (repair_winding, _dict_walk_repair):
        with pytest.raises(OrientationError):
            repair(faces)


@pytest.mark.parametrize("faces,error", [
    (lambda f: f[:3], OpenBoundaryError),
    (lambda f: np.vstack([f, [[0, 1, 2]]]), NonManifoldMeshError),
], ids=["open", "three-faces-on-an-edge"])
def test_repair_winding_rejects_non_manifold_input(tetra, faces, error):
    with pytest.raises(error):
        repair_winding(faces(tetra.faces))


def test_load_obj_repairs_flipped_faces(tmp_path, ico3):
    faces = np.array(ico3.faces)
    bad = np.random.default_rng(3).random(len(faces)) < 0.5
    faces[bad] = faces[bad][:, [0, 2, 1]]
    path = tmp_path / "flipped.obj"
    save_mesh(TriangleMesh(ico3.vertices, faces, validate=False), path)
    assert np.array_equal(load_mesh(path).faces, ico3.faces)


def test_off_without_faces_is_a_mesh_error(tmp_path):
    path = tmp_path / "empty.off"
    path.write_text("OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n")
    with pytest.raises(MeshError):
        load_mesh(path)


def test_open_boundary_rejected(tetra):
    with pytest.raises(OpenBoundaryError):
        TriangleMesh(tetra.vertices, tetra.faces[:3])


def test_non_manifold_rejected(tetra):
    faces = np.vstack([tetra.faces, [[0, 1, 2]]])
    with pytest.raises(NonManifoldMeshError):
        TriangleMesh(tetra.vertices, faces)


def test_inconsistent_winding_rejected(tetra):
    faces = np.array(tetra.faces)
    faces[0] = faces[0, [0, 2, 1]]
    with pytest.raises(OrientationError):
        TriangleMesh(tetra.vertices, faces)


def test_degenerate_face_rejected(tetra):
    verts = np.asarray(tetra.vertices).copy()
    verts[3] = verts[0]  # coincident positions: three faces with zero area
    with pytest.raises(DegenerateFaceError):
        TriangleMesh(verts, tetra.faces)


@pytest.mark.parametrize("scale", [1e78, 1e150, 1e200])
def test_faces_beyond_the_float_range_rejected(scale):
    # the face areas overflow to inf, which no area floor rejects
    ico = make_icosphere(1)
    with pytest.raises(MeshError):
        TriangleMesh(ico.vertices * scale, ico.faces)


def test_parse_failure(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OFF\nnot counts\n")
    with pytest.raises(MeshFormatError):
        load_mesh(path)


def test_missing_file():
    with pytest.raises(MeshFormatError):
        load_mesh("/nonexistent/mesh.off")


def test_quality_report_extremes(ico3):
    rep = quality_report(ico3)
    assert rep.min_edge_length == pytest.approx(ico3.edge_lengths().min())
    assert rep.max_edge_length == pytest.approx(ico3.edge_lengths().max())
    assert rep.min_angle == pytest.approx(ico3.face_angles().min())
    assert rep.min_face_area == pytest.approx(ico3.face_areas().min())
    assert rep.min_edge_length > 0
    assert rep.aspect_ratio_counts.sum() == ico3.n_faces


def test_euler_characteristic_from_angle_defects(tetra, ico3, torus):
    # chi from counts equals chi from total angle defect / 2 pi
    for mesh in (tetra, ico3, torus):
        cache = build_cache(mesh)
        chi_defect = np.sum(cache.K * cache.vertex_areas) / (2 * np.pi)
        assert chi_defect == pytest.approx(mesh.euler_characteristic, abs=1e-10)


def test_immutability(ico3):
    with pytest.raises(ValueError):
        ico3.vertices[0, 0] = 99.0
    v = np.asarray(ico3.vertices).copy()
    _ = TriangleMesh(v, ico3.faces)
    v[0, 0] = 5.0  # mesh owns a copy; caller's array stays writable


def test_mean_edge_and_bbox(ico3):
    assert ico3.mean_edge_length() > 0
    assert ico3.bbox_diagonal() == pytest.approx(2 * np.sqrt(3), rel=1e-2)


def test_vertex_moves_share_topology(ico3):
    topo = ico3.topology
    moved = ico3.with_vertices(np.asarray(ico3.vertices) * 1.1)
    assert moved.topology is topo
    assert moved.faces is ico3.faces
    assert ico3.translated([1.0, 2.0, 3.0]).topology is topo
    assert ico3.scaled(2.0).topology is topo
    assert moved.scaled(0.5).translated([0.0, 0.0, 1.0]).topology is topo
    pattern = topo.laplacian_pattern(ico3.n_vertices)
    assert moved.topology.laplacian_pattern(moved.n_vertices) is pattern
    assert pattern.indices.dtype == pattern.indptr.dtype == np.int32


def test_face_changes_build_new_topology(tmp_path, ico3):
    from helflow.remesh import remesh

    assert remesh(ico3, ico3.mean_edge_length()).topology is not ico3.topology
    path = str(tmp_path / "ico3.off")
    save_mesh(ico3, path)
    assert load_mesh(path).topology is not ico3.topology


def test_topology_matches_direct_computation(ico3, torus):
    for mesh in (ico3, torus, _reversed(ico3)):
        f = mesh.faces
        directed = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
        expected = np.unique(np.sort(directed, axis=1), axis=0)
        assert np.array_equal(mesh.edges, expected)
        pairs = mesh.topology.edge_face_pairs
        assert len(pairs) == len(expected)  # closed: two faces per edge
        shared = [len(set(f[a]) & set(f[b])) for a, b in pairs]
        assert shared == [2] * len(pairs)
    assert torus.n_components == 1 and torus.genus == 1


def _lexsort_topology(faces):
    """Reference connectivity: one lexsort of the directed edge incidences
    (incidence j * m + f runs from corner j of face f to corner j + 1)."""
    m = len(faces)
    src = faces.T.astype(np.int32).ravel()
    dst = np.roll(src, -m)
    e = np.column_stack([np.minimum(src, dst), np.maximum(src, dst)])
    fidx = np.tile(np.arange(m, dtype=np.int32), 3)
    order = np.lexsort((e[:, 1], e[:, 0]))
    e, fidx, forward = e[order], fidx[order], (src < dst)[order]
    same = np.all(e[1:] == e[:-1], axis=1)
    first = np.r_[True, ~same]
    edge_of = np.empty(len(e), dtype=np.int32)
    edge_of[order] = np.cumsum(first, dtype=np.int32) - 1
    return {"edges": e[first],
            "edge_face_pairs": np.column_stack([fidx[:-1][same], fidx[1:][same]]),
            "corner_edge": np.roll(edge_of, -m),
            "same_direction": forward[:-1][same] == forward[1:][same]}


def _remeshed_ellipsoid():
    from helflow.remesh import remesh

    base = hm.make_icosphere(3, 1.0)
    return remesh(hm.TriangleMesh(base.vertices * [2.5, 1.0, 0.7], base.faces),
                  0.15)


def _with_fin(faces):
    # a third face on the first edge of face 0: one non-manifold edge
    a, b = faces[0, :2]
    return np.vstack([faces, [[a, b, faces.max() + 1]]])


@pytest.mark.parametrize("make_faces", [
    lambda: hm.make_icosphere(3).faces,
    lambda: hm.make_torus(1.0, 0.4, 48, 24).faces,
    lambda: _remeshed_ellipsoid().faces,
    lambda: _with_fin(hm.make_icosphere(2).faces),
    # vertex indices too far apart to pack an edge and a corner in one int64
    lambda: _with_fin(hm.make_icosphere(1).faces) * 2**24 + 2**30,
], ids=["ico3", "torus", "ellipsoid", "non-manifold", "wide-indices"])
def test_topology_matches_lexsort_reference(make_faces):
    faces = make_faces()
    topo, expected = hm.Topology(faces), _lexsort_topology(faces)
    for name, want in expected.items():
        got = getattr(topo, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    by_edge = np.argsort(topo.corner_edge, kind="stable")
    assert np.array_equal(topo.edge_corners, by_edge)
    if not (topo.n_nonmanifold_edges or topo.n_boundary_edges):
        assert np.array_equal(topo.edge_corners.reshape(-1, 2),
                              by_edge.reshape(-1, 2))


@pytest.mark.parametrize("which", ["perturbed_ico4", "torus"])
def test_cache_min_angle_matches_face_angles(which, torus):
    from helflow.validate import perturbed_sphere

    mesh = perturbed_sphere(3, 4, 0.05) if which == "perturbed_ico4" else torus
    assert build_cache(mesh).min_angle == mesh.face_angles().min()


@pytest.mark.parametrize("which", ["perturbed_ico3", "torus"])
def test_face_quantities_come_from_one_face_geometry(which, torus):
    from helflow.validate import perturbed_sphere

    mesh = perturbed_sphere(2, 3, 0.05) if which == "perturbed_ico3" else torus
    fg = mesh.face_geometry()
    cache = build_cache(mesh)

    def same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and \
            a.tobytes() == b.tobytes()

    assert same(mesh.face_areas(), 0.5 * fg.cross_norm)
    assert same(mesh.face_angles(), fg.angles)
    assert same(signed_volume(mesh), fg.signed_volume)
    assert same(component_signed_volumes(mesh),
                np.bincount(mesh.face_components, weights=-fg.det_sixths))
    assert same(cache.area, float(0.5 * np.sum(fg.cross_norm)))
    assert same(cache.min_angle, float(fg.angles.min()))
    assert same(cache.signed_volume, fg.signed_volume)


def test_starting_a_flow_makes_one_face_geometry(monkeypatch, ico3):
    from helflow.flow import SteppingPolicy, init_state
    from helflow.geometry import FlowParams

    made, original = [], hm.FaceGeometry
    monkeypatch.setattr(hm, "FaceGeometry",
                        lambda mesh: made.append(mesh) or original(mesh))
    init_state(ico3, FlowParams(1.0, 0.5), SteppingPolicy())
    assert made == [ico3]


def _subdivide_midpoint_dict(verts, faces):
    """Midpoint subdivision by a per-face loop over an edge dict, numbering
    each midpoint when its edge is first met: the reference the vectorized
    ``_subdivide_midpoint`` must reproduce exactly."""
    edge_mid = {}
    new_verts = [verts]
    next_idx = len(verts)

    def midpoint(a, b):
        nonlocal next_idx
        key = (min(a, b), max(a, b))
        if key not in edge_mid:
            edge_mid[key] = next_idx
            new_verts.append(0.5 * (verts[a] + verts[b])[None, :])
            next_idx += 1
        return edge_mid[key]

    new_faces = np.empty((4 * len(faces), 3), dtype=np.int64)
    for i, (a, b, c) in enumerate(faces):
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_faces[4 * i: 4 * i + 4] = [
            (a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)
        ]
    return np.concatenate(new_verts, axis=0), new_faces


def test_subdivide_midpoint_matches_dict_loop():
    verts, faces = hm._icosahedron()
    for _ in range(6):
        expected = _subdivide_midpoint_dict(verts, faces)
        verts, faces = hm._subdivide_midpoint(verts, faces)
        for got, want in zip((verts, faces), expected):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
