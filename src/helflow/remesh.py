"""Quality-driven isotropic remeshing with back-projection to the input surface.

Classic split / collapse / flip / tangential-smooth passes toward a target
edge length.  Refinement is always curvature-adaptive: a vertex's target t
shrinks to ``ADAPT_CONSTANT / |A|`` where ``t * |A|`` exceeds that constant,
but not below ``ADAPT_MIN_FACTOR * t``.  Topology (component count and Euler
characteristic) is preserved or the operation aborts, and the result is
checked against the input by a sampled Hausdorff distance, which is logged.

The passes edit a dict-based scratch mesh one edge at a time, so their cost is
Python overhead per edge: valences are counted once per flip pass and updated
per flip, and the per-edge 3-vector arithmetic avoids numpy's small-array
dispatch while computing the same bits.  Closest-point projection (smoothing
and the Hausdorff check) is vectorized over all query points.  The output
depends only on the input mesh and the arguments.
"""

import logging
import math

import numpy as np
from scipy.spatial import cKDTree

from .geometry import build_cache
from .mesh import DegenerateFaceError, MeshError, TriangleMesh

logger = logging.getLogger(__name__)

# Split long edges above 4/3 of the local target.  Collapse below 0.6 (not
# the classic 4/5): split children land near 2/3, and meshes that already
# satisfy the contract band [0.5, 1.5] (icospheres have min/mean ~ 0.77)
# must pass through untouched.
SPLIT_RATIO = 4.0 / 3.0
COLLAPSE_RATIO = 0.6

# Curvature-adaptive targets, as in the module docstring.
ADAPT_CONSTANT = 0.5
ADAPT_MIN_FACTOR = 0.25
HAUSDORFF_FRACTION = 0.5    # see remesh()
K_NEAREST = 10              # see MeshProjector


class RemeshError(MeshError):
    """Remeshing failed or would have changed the mesh topology."""


# ---------------------------------------------------------------------------
# closest-point projection
# ---------------------------------------------------------------------------


def closest_point_on_triangles(p: np.ndarray, a: np.ndarray, b: np.ndarray,
                               c: np.ndarray) -> np.ndarray:
    """Closest point to p on each triangle (a, b, c); all inputs (n, 3).

    Each Voronoi region's point is formed only on the rows that region fills.
    """
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    out = np.empty_like(p)
    todo = np.ones(len(p), dtype=bool)

    def set_where(mask, value):
        # value(rows) is evaluated only on the rows it fills
        rows = np.flatnonzero(mask & todo)
        out[rows] = value(rows)
        todo[rows] = False

    set_where((d1 <= 0) & (d2 <= 0), lambda r: a[r])          # vertex a
    set_where((d3 >= 0) & (d4 <= d3), lambda r: b[r])         # vertex b
    set_where((d6 >= 0) & (d5 <= d6), lambda r: c[r])         # vertex c

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4
    d43, d56 = d4 - d3, d5 - d6
    with np.errstate(divide="ignore", invalid="ignore"):
        set_where((vc <= 0) & (d1 >= 0) & (d3 <= 0),             # edge ab
                  lambda r: a[r] + (d1[r] / (d1[r] - d3[r]))[:, None] * ab[r])
        set_where((vb <= 0) & (d2 >= 0) & (d6 <= 0),             # edge ac
                  lambda r: a[r] + (d2[r] / (d2[r] - d6[r]))[:, None] * ac[r])
        set_where((va <= 0) & (d43 >= 0) & (d56 >= 0),           # edge bc
                  lambda r: b[r] + (d43[r] / (d43[r] + d56[r]))[:, None]
                  * (c[r] - b[r]))

        def interior(r):
            denom = va[r] + vb[r] + vc[r]
            return (a[r] + (vb[r] / denom)[:, None] * ab[r]
                    + (vc[r] / denom)[:, None] * ac[r])

        set_where(todo, interior)
    return out


class MeshProjector:
    """Closest-point queries against a fixed reference mesh.

    A query's candidate faces are the faces around its ``K_NEAREST`` nearest
    reference vertices.  The vertex -> face incidence is the mesh topology's
    padded table (one row per vertex, faces in face order, padded with
    ``n_faces``), so gathering the candidates of every query is one fancy
    index, one sort per row and one mask, and the closest candidate is read
    from the same padded rows: no Python loop over the queries.
    """

    def __init__(self, mesh: TriangleMesh):
        self.mesh = mesh
        self.k_nearest = min(K_NEAREST, mesh.n_vertices)
        self._tree = cKDTree(mesh.vertices)
        self._vertex_faces = mesh.topology.vertex_faces

    def _candidate_faces(self, nearest_vertices: np.ndarray):
        """Candidate faces of each query, one row per query.

        Returns the gathered faces sorted along each row and the mask of the
        entries that are neither padding nor repeats; read row by row, the
        kept faces are ascending and unique.
        """
        cand = np.sort(self._vertex_faces[nearest_vertices].reshape(
            len(nearest_vertices), -1), axis=1)
        keep = cand < self.mesh.n_faces
        keep[:, 1:] &= cand[:, 1:] != cand[:, :-1]
        return cand, keep

    def project(self, points: np.ndarray):
        """Return (closest points, distances, face indices) for each query.

        Of equally close candidates the lowest face index wins; a NaN
        distance ranks after every number.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        _, near = self._tree.query(points, k=self.k_nearest)
        cand, keep = self._candidate_faces(np.atleast_2d(near))
        faces = cand[keep]
        queries = points[np.nonzero(keep)[0]]
        tri = self.mesh.faces[faces]
        v = self.mesh.vertices
        cp = closest_point_on_triangles(
            queries, v[tri[:, 0]], v[tri[:, 1]], v[tri[:, 2]]
        )
        # first minimum per row; padding and repeats hold NaN, and a row's
        # first entry is kept (it is padding only if none of the query's
        # nearest vertices has a face)
        dist = np.full(keep.shape, np.nan)
        dist[keep] = np.linalg.norm(cp - queries, axis=1)
        col = np.argmax(dist == np.fmin.reduce(dist, axis=1)[:, None], axis=1)
        rows = np.arange(len(points))
        best = np.cumsum(keep).reshape(keep.shape)[rows, col] - 1
        return cp[best], dist[rows, col], faces[best]


def hausdorff_distance(mesh_a: TriangleMesh, mesh_b: TriangleMesh) -> float:
    """Symmetric sampled Hausdorff distance (vertices, edge midpoints, centroids)."""

    def samples(m: TriangleMesh) -> np.ndarray:
        e = m.edges
        mid = 0.5 * (m.vertices[e[:, 0]] + m.vertices[e[:, 1]])
        v0, v1, v2 = m.face_corners()
        cen = (v0 + v1 + v2) / 3.0
        return np.concatenate([m.vertices, mid, cen])

    d_ab = MeshProjector(mesh_b).project(samples(mesh_a))[1].max()
    d_ba = MeshProjector(mesh_a).project(samples(mesh_b))[1].max()
    return float(max(d_ab, d_ba))


# ---------------------------------------------------------------------------
# editable mesh scratchpad
# ---------------------------------------------------------------------------


class _EditMesh:
    """Mutable face/vertex soup used inside one remeshing pass."""

    def __init__(self, mesh: TriangleMesh):
        self.v = [p for p in np.asarray(mesh.vertices)]
        self.faces = {i: tuple(f) for i, f in enumerate(np.asarray(mesh.faces))}
        self._next_face = len(self.faces)
        self._rebuild_maps()

    def _rebuild_maps(self):
        self.edge_faces: dict[tuple[int, int], list[int]] = {}
        self.vertex_faces: dict[int, set[int]] = {}
        for fi, (a, b, c) in self.faces.items():
            for u, w in ((a, b), (b, c), (c, a)):
                self.edge_faces.setdefault(_ekey(u, w), []).append(fi)
            for u in (a, b, c):
                self.vertex_faces.setdefault(u, set()).add(fi)

    def add_vertex(self, pos) -> int:
        self.v.append(np.asarray(pos, dtype=np.float64))
        self.vertex_faces[len(self.v) - 1] = set()
        return len(self.v) - 1

    def remove_face(self, fi: int):
        a, b, c = self.faces.pop(fi)
        for u, w in ((a, b), (b, c), (c, a)):
            key = _ekey(u, w)
            self.edge_faces[key].remove(fi)
            if not self.edge_faces[key]:
                del self.edge_faces[key]
        for u in (a, b, c):
            self.vertex_faces[u].discard(fi)

    def add_face(self, a: int, b: int, c: int) -> int:
        fi = self._next_face
        self._next_face += 1
        self.faces[fi] = (a, b, c)
        for u, w in ((a, b), (b, c), (c, a)):
            self.edge_faces.setdefault(_ekey(u, w), []).append(fi)
        for u in (a, b, c):
            self.vertex_faces.setdefault(u, set()).add(fi)
        return fi

    def vertex_ring(self, u: int) -> set[int]:
        ring = set()
        for fi in self.vertex_faces.get(u, ()):
            ring.update(self.faces[fi])
        ring.discard(u)
        return ring

    def to_mesh(self) -> TriangleMesh:
        used = sorted({i for f in self.faces.values() for i in f})
        remap = {old: new for new, old in enumerate(used)}
        verts = np.array([self.v[i] for i in used])
        faces = np.array([[remap[i] for i in f] for f in self.faces.values()],
                         dtype=np.int64)
        return TriangleMesh(verts, faces, validate=True)


def _ekey(u: int, w: int) -> tuple[int, int]:
    return (u, w) if u < w else (w, u)


# ---------------------------------------------------------------------------
# remeshing passes
# ---------------------------------------------------------------------------


def _local_targets(em: _EditMesh, target: float, asq: dict):
    """Per-vertex edge-length targets, shrunk where ``asq`` (|A|^2 by vertex)
    demands; vertices not in ``asq`` keep the full target."""
    out = {}
    for i in em.vertex_faces:
        curv = np.sqrt(max(asq.get(i, 0.0), 0.0))
        factor = 1.0 if curv * target <= ADAPT_CONSTANT else max(
            ADAPT_CONSTANT / (curv * target), ADAPT_MIN_FACTOR
        )
        out[i] = target * factor
    return out


def _split_pass(em: _EditMesh, targets) -> int:
    count = 0
    for key in list(em.edge_faces.keys()):
        fs = em.edge_faces.get(key)
        if not fs or len(fs) != 2:
            continue
        u, w = key
        length = _norm(em.v[u] - em.v[w])
        if length <= SPLIT_RATIO * min(targets.get(u, np.inf),
                                       targets.get(w, np.inf)):
            continue
        mid = em.add_vertex(0.5 * (em.v[u] + em.v[w]))
        targets[mid] = min(targets.get(u, np.inf), targets.get(w, np.inf))
        for fi in list(fs):
            a, b, c = em.faces[fi]
            em.remove_face(fi)
            # rotate so the split edge is (a, b)
            for _ in range(3):
                if _ekey(a, b) == key:
                    break
                a, b, c = b, c, a
            em.add_face(a, mid, c)
            em.add_face(mid, b, c)
        count += 1
    return count


def _collapse_pass(em: _EditMesh, targets) -> int:
    count = 0
    for key in sorted(em.edge_faces.keys()):
        fs = em.edge_faces.get(key)
        if not fs or len(fs) != 2:
            continue
        u, w = key
        if u not in em.vertex_faces or w not in em.vertex_faces:
            continue
        local = min(targets.get(u, np.inf), targets.get(w, np.inf))
        length = _norm(em.v[u] - em.v[w])
        if length >= COLLAPSE_RATIO * local:
            continue
        opposite = {next(iter(set(em.faces[fi]) - {u, w})) for fi in fs}
        ring_u, ring_w = em.vertex_ring(u), em.vertex_ring(w)
        if ring_u & ring_w != opposite:
            continue  # link condition: collapse would pinch the surface
        mid = 0.5 * (em.v[u] + em.v[w])
        ring = (ring_u | ring_w) - {u, w}
        if any(_norm(mid - em.v[r]) > SPLIT_RATIO * local for r in ring):
            continue  # would immediately re-trigger splitting
        # rewire: move u to the midpoint, delete w and the two shared faces
        em.v[u] = mid
        for fi in list(fs):
            em.remove_face(fi)
        for fi in list(em.vertex_faces.get(w, ())):
            a, b, c = em.faces[fi]
            em.remove_face(fi)
            tri = tuple(u if x == w else x for x in (a, b, c))
            if len(set(tri)) == 3:
                em.add_face(*tri)
        em.vertex_faces.pop(w, None)
        count += 1
    return count


def _flip_pass(em: _EditMesh) -> tuple[int, dict[int, int]]:
    """Flip edges that bring the four vertices' valences closer to 6.

    Valences are counted once; a flip removes the edge (u, w), whose two
    faces are the ones replaced, and adds (c, d), checked to be new, so it
    moves them by exactly -1, -1, +1, +1.  Returns the flip count and the
    running valence of every vertex.
    """
    valence = {i: len(em.vertex_ring(i)) for i in em.vertex_faces}
    count = 0
    for key in list(em.edge_faces.keys()):
        fs = em.edge_faces.get(key)
        if not fs or len(fs) != 2:
            continue
        u, w = key
        f0, f1 = fs
        c = next(iter(set(em.faces[f0]) - {u, w}))
        d = next(iter(set(em.faces[f1]) - {u, w}))
        if c == d or _ekey(c, d) in em.edge_faces:
            continue
        before = sum((valence[x] - 6) ** 2 for x in (u, w, c, d))
        after = ((valence[u] - 1 - 6) ** 2 + (valence[w] - 1 - 6) ** 2
                 + (valence[c] + 1 - 6) ** 2 + (valence[d] + 1 - 6) ** 2)
        if after >= before:
            continue
        if not _flip_is_safe(em, u, w, c, d):
            continue
        # preserve orientation: f0 traverses the edge in some direction (u', w')
        a0, b0, c0 = em.faces[f0]
        ordered = [(a0, b0), (b0, c0), (c0, a0)]
        uw = next(p for p in ordered if set(p) == {u, w})
        em.remove_face(f0)
        em.remove_face(f1)
        em.add_face(uw[0], d, c)
        em.add_face(d, uw[1], c)
        valence[u] -= 1
        valence[w] -= 1
        valence[c] += 1
        valence[d] += 1
        count += 1
    return count, valence


def _flip_is_safe(em: _EditMesh, u, w, c, d) -> bool:
    """Reject flips creating degenerate or folded triangles.

    The normals are formed in Python floats with ``np.cross``'s operations
    (same bits, without its dispatch); lengths and dot products then go
    through ``ndarray.dot``, the call ``np.linalg.norm`` makes.
    """
    pu, pw, pc, pd = (em.v[i].tolist() for i in (u, w, c, d))
    a = _cross(_sub(pw, pu), _sub(pc, pu))
    b = _cross(_sub(pu, pw), _sub(pd, pw))
    n_old, n1, n2 = np.array([[x + y for x, y in zip(a, b)],
                              _cross(_sub(pd, pu), _sub(pc, pu)),
                              _cross(_sub(pw, pd), _sub(pc, pd))])
    if _norm(n1) < 1e-14 or _norm(n2) < 1e-14 or _norm(n_old) < 1e-14:
        return False
    if n1.dot(n_old) <= 0 or n2.dot(n_old) <= 0:
        return False
    return n1.dot(n2) > 0


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


def _cross(p, q):
    return (p[1] * q[2] - p[2] * q[1],
            p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0])


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D array: the same ``sqrt(x.dot(x))``."""
    return math.sqrt(x.dot(x))


def _smooth_and_project(em: _EditMesh, projector: MeshProjector,
                        relaxation: float = 0.5):
    idx = sorted(em.vertex_faces.keys())
    pos = {i: em.v[i] for i in idx}
    new_pos = {}
    for i in idx:
        ring = em.vertex_ring(i)
        if not ring:
            new_pos[i] = pos[i]
            continue
        centroid = np.mean([pos[r] for r in ring], axis=0)
        new_pos[i] = pos[i] + relaxation * (centroid - pos[i])
    pts = np.array([new_pos[i] for i in idx])
    projected = projector.project(pts)[0]
    for j, i in enumerate(idx):
        em.v[i] = projected[j]


def remesh(mesh: TriangleMesh, target_edge: float,
           min_angle: float = np.deg2rad(15.0), iterations: int = 5) -> TriangleMesh:
    """Isotropically remesh toward ``target_edge``.

    The output keeps the input's genus and component count and stays within
    ``HAUSDORFF_FRACTION * target_edge`` of the input surface (enforced).
    Edge lengths land in ``[0.5, 1.5] * target_edge`` except where the
    curvature-adaptive local target is smaller.
    """
    if target_edge <= 0:
        raise RemeshError("target_edge must be positive")
    projector = MeshProjector(mesh)
    asq_by_vertex = dict(enumerate(build_cache(mesh).Asq))

    em = _EditMesh(mesh)
    for it in range(iterations):
        targets = _local_targets(em, target_edge, asq_by_vertex)
        splits = _split_pass(em, targets)
        collapses = _collapse_pass(em, targets)
        flips, _ = _flip_pass(em)
        logger.debug("remesh pass %d: %d splits, %d collapses, %d flips",
                     it, splits, collapses, flips)
        if splits == 0 and collapses == 0 and flips == 0:
            # already at target (e.g. remeshing to the current edge length):
            # skip smoothing so the surface is left untouched
            break
        _smooth_and_project(em, projector)
    else:
        # cap any edges the last smoothing stretched past the band
        targets = _local_targets(em, target_edge, asq_by_vertex)
        if _split_pass(em, targets):
            _smooth_and_project(em, projector, relaxation=0.0)

    try:
        out = em.to_mesh()
    except (MeshError, DegenerateFaceError) as exc:
        raise RemeshError(f"remeshing produced an invalid mesh: {exc}") from exc

    if out.euler_characteristic != mesh.euler_characteristic or \
            out.n_components != mesh.n_components:
        raise RemeshError(
            "remeshing would change topology "
            f"(chi {mesh.euler_characteristic} -> {out.euler_characteristic}, "
            f"components {mesh.n_components} -> {out.n_components}); aborted"
        )
    dist = hausdorff_distance(mesh, out)
    allowed = HAUSDORFF_FRACTION * target_edge
    logger.info("remesh: %d -> %d vertices, Hausdorff distance %.3e "
                "(allowed %.3e)", mesh.n_vertices, out.n_vertices, dist, allowed)
    if dist > allowed:
        raise RemeshError(f"remeshed surface drifted {dist:.3e} from the input "
                          f"(allowed {allowed:.3e})")
    angle = out.face_angles().min()
    if angle < min_angle:
        logger.warning("remesh: min angle %.2f deg below floor %.2f deg",
                       np.rad2deg(angle), np.rad2deg(min_angle))
    return out
