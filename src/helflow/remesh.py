"""Quality-driven isotropic remeshing with back-projection to the input surface.

Split / collapse / flip / tangential-smooth passes toward a target edge
length, as in Botsch & Kobbelt's isotropic remesher.  Refinement is always
curvature-adaptive: a vertex's target t shrinks to ``ADAPT_CONSTANT / |A|``
where ``t * |A|`` exceeds that constant, but not below
``ADAPT_MIN_FACTOR * t``.  Topology (component count and Euler
characteristic) is preserved or the operation aborts, and the result is
checked against the input by a sampled Hausdorff distance, which is logged.

The passes work on plain arrays: positions ``v``, faces ``f`` and a target
length per vertex ``t``.  Each round of a pass builds one :class:`Topology`
of ``f``, reads every edge's two faces and opposite vertices from its
``edge_corners``, picks the qualifying edges whose edits touch disjoint
faces (ties go to the lower index, so the choice is ordered), applies them
all at once and repeats until no edge qualifies.  Vertex indices stay fixed
until one compaction at the end.  The output depends only on the input mesh
and the arguments.

Closest points and the Hausdorff check skip work that cannot change their
result, so they return the floats a full evaluation would: the projector
evaluates each face around a query's nearest vertex (its star) once, and
of the other candidate faces only those whose bounding sphere could hold a
point closer than the star's best (:class:`MeshProjector`); the Hausdorff
check projects only the samples whose star distance could raise the
maximum (:meth:`MeshProjector.max_distance`).  Queries go in fixed batches
of ``QUERY_BATCH``, so the memory they take is bounded by the batch, not by
the number of queries: the check holds a few per-sample arrays and one
batch's candidates, whatever the mesh size.
"""

import logging

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .geometry import build_cache
from .mesh import (DegenerateFaceError, MeshError, Topology, TriangleMesh,
                   row_norms)

logger = logging.getLogger(__name__)

# Split long edges above 4/3 of the local target.  Collapse below 0.6 (not
# the classic 4/5): split children land near 2/3, and icospheres (min/mean
# edge ~ 0.77) must pass through untouched when remeshed to their own mean.
SPLIT_RATIO = 4.0 / 3.0
COLLAPSE_RATIO = 0.6

# Curvature-adaptive targets, as in the module docstring.
ADAPT_CONSTANT = 0.5
ADAPT_MIN_FACTOR = 0.25
HAUSDORFF_FRACTION = 0.5    # see remesh()
K_NEAREST = 10              # see MeshProjector
PRUNE_SLACK = 2.0**-20      # see MeshProjector
MAX_DISTANCE_BATCH = 64     # see MeshProjector.max_distance
QUERY_BATCH = 512           # see MeshProjector


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


def _batches(n: int) -> list[slice]:
    """Slices that cover ``range(n)`` in steps of ``QUERY_BATCH``."""
    return [slice(s, s + QUERY_BATCH) for s in range(0, n, QUERY_BATCH)]


def _first_min(keep: np.ndarray, d: np.ndarray):
    """Per row of the mask ``keep``, whose rows list faces in ascending
    order, the first smallest of the distances ``d`` of its kept entries
    (row-major); a NaN distance ranks after every number.

    Returns, per row, that distance, its column, whether the row keeps any
    entry (if not, the distance is NaN and the column 0) and its position
    in ``d``.
    """
    dist = np.full(keep.shape, np.nan)
    dist[keep] = d
    low = np.fmin.reduce(dist, axis=1)[:, None]
    col = np.argmax((dist == low) | (np.isnan(low) & keep), axis=1)
    rows = np.arange(len(keep))
    at = np.cumsum(keep).reshape(keep.shape)[rows, col] - 1
    return dist[rows, col], col, keep[rows, col], at


class MeshProjector:
    """Closest-point queries against a fixed reference mesh.

    A query's candidate faces are the faces around its ``K_NEAREST`` nearest
    reference vertices.  The vertex -> face incidence is the mesh topology's
    padded table (one row per vertex, faces in face order, padded with
    ``n_faces``), so gathering the candidates of a batch of queries is one
    fancy index, one sort per row and one mask, and the closest candidate is
    read from the same padded rows: no Python loop over the queries.

    Queries go in batches of ``QUERY_BATCH``.  A query's result depends only
    on that query, so batching leaves every result unchanged, and it bounds
    the working memory: between batches only per-query arrays live (the
    nearest vertices and the star's result), never one of queries times
    candidates.

    Most candidates are too far away to win, and only the survivors of an
    exact pruning are evaluated.  The faces around the query's nearest
    vertex (its star) are evaluated first, and only once: their best
    closest point is kept, and its distance ``u`` bounds the query's.  A
    candidate outside the star whose bounding sphere (centroid ``g``, radius
    ``r``) lies farther than ``u``, that is ``|q - g| - r > u + margin``,
    cannot be closest, and dropping it leaves the result bit for bit as if
    it had been evaluated.  The margin covers the rounding of the bound and
    of the computed closest point, whose barycentric weights lose accuracy
    with the square of the face's aspect ratio: it is ``PRUNE_SLACK *
    aspect**2 * (|q - g| + r + |g|)``, many orders of magnitude above that
    rounding and far below the gaps that pruning exploits, and infinite
    (never pruned) for a face of zero area.  The best surviving candidate
    and the star's best then meet under the rule of :meth:`project`.
    """

    def __init__(self, mesh: TriangleMesh):
        self.mesh = mesh
        self.k_nearest = min(K_NEAREST, mesh.n_vertices)
        self._tree = cKDTree(mesh.vertices)
        self._vertex_faces = mesh.topology.vertex_faces
        a, b, c = mesh.face_corners()
        self._centroid = (a + b + c) / 3.0
        self._radius = row_norms(np.stack([a, b, c]) - self._centroid).max(axis=0)
        fg = mesh.face_geometry()
        with np.errstate(divide="ignore", invalid="ignore"):
            aspect = fg.edge_sq.max(axis=0) / fg.cross_norm
        self._slack = PRUNE_SLACK * aspect**2
        self._reach = self._radius + row_norms(self._centroid)

    def _candidate_faces(self, nearest_vertices: np.ndarray):
        """Candidate faces of each query outside its star, one row per query.

        Returns the gathered faces sorted along each row and the mask of the
        entries that are neither padding, repeats nor star faces; read row
        by row, the kept faces are ascending and unique.
        """
        # face f sorts as 2f + 1, or as 2f around the nearest vertex, so a
        # star face's first entry is even
        key = 2 * self._vertex_faces[nearest_vertices] + 1
        key[:, 0] -= 1
        key = np.sort(key.reshape(len(nearest_vertices), -1), axis=1)
        cand = key >> 1
        keep = (cand < self.mesh.n_faces) & (key & 1 == 1)
        keep[:, 1:] &= cand[:, 1:] != cand[:, :-1]
        return cand, keep

    def _closest(self, points: np.ndarray, faces: np.ndarray):
        """Closest points of ``points`` on ``faces`` (row by row) and their
        distances."""
        tri = self.mesh.faces[faces]
        v = self.mesh.vertices
        cp = closest_point_on_triangles(
            points, *(np.take(v, tri[:, k], axis=0) for k in range(3)))
        return cp, row_norms(cp - points)

    def _near(self, points: np.ndarray):
        """Each query's nearest vertices and its star's best: the closest
        point, distance and face that :meth:`project` picks among the faces
        around the nearest vertex.  The distance bounds the query's; it is
        NaN if every star distance is (the face is then the star's lowest,
        and ``n_faces`` if the star is empty)."""
        n = len(points)
        near = np.empty((n, self.k_nearest), dtype=np.intp)
        cp, dist = np.full((n, 3), np.nan), np.empty(n)
        face = np.empty(n, dtype=np.intp)
        for b in _batches(n):
            q = points[b]
            near[b] = self._tree.query(q, k=self.k_nearest)[1].reshape(len(q), -1)
            star = self._vertex_faces[near[b, 0]]
            has = star < self.mesh.n_faces
            star_cp, d = self._closest(np.repeat(q, has.sum(axis=1), axis=0),
                                       star[has])
            dist[b], col, found, at = _first_min(has, d)
            face[b] = star[np.arange(len(q)), col]
            cp[b][found] = star_cp[at[found]]
        return near, (cp, dist, face)

    def _project(self, points, near, star):
        """:meth:`project` for one batch of queries whose nearest vertices
        and star results :meth:`_near` has found."""
        cand, keep = self._candidate_faces(near)
        star_cp, bound, star_face = star
        rows, faces = np.nonzero(keep)[0], cand[keep]
        dq = row_norms(np.take(points, rows, axis=0)
                       - np.take(self._centroid, faces, axis=0))
        keep[keep] = ~(dq - self._radius[faces] > bound[rows]
                       + self._slack[faces] * (dq + self._reach[faces]))
        cp, d = self._closest(points[np.nonzero(keep)[0]], cand[keep])
        dist, col, found, at = _first_min(keep, d)
        face = np.where(found, cand[np.arange(len(cand)), col],
                        self.mesh.n_faces)
        # the candidate wins if it ranks first: by distance, NaN last, then
        # by face; a row without candidates never wins
        tie = (dist == bound) | (np.isnan(dist) & np.isnan(bound))
        win = ((dist < bound) | (np.isnan(bound) & ~np.isnan(dist))
               | (tie & (face < star_face)))
        out = star_cp.copy(), bound.copy(), star_face.copy()
        out[0][win], out[1][win], out[2][win] = cp[at[win]], dist[win], face[win]
        return out

    def _project_rows(self, points, near, star, rows):
        """:meth:`project` of the queries ``rows``, ``QUERY_BATCH`` at a
        time."""
        n = len(rows)
        out = np.empty((n, 3)), np.empty(n), np.empty(n, dtype=np.intp)
        for b in _batches(n):
            r = rows[b]
            for whole, part in zip(out, self._project(
                    points[r], near[r], tuple(s[r] for s in star))):
                whole[b] = part
        return out

    def project(self, points: np.ndarray):
        """Return (closest points, distances, face indices) for each query.

        Of equally close candidates the lowest face index wins; a NaN
        distance ranks after every number.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return self._project_rows(points, *self._near(points),
                                  np.arange(len(points)))

    def max_distance(self, points: np.ndarray) -> float:
        """``project(points)[1].max()``, NaN included, projecting only the
        queries that can raise it.

        Queries go in batches of growing size, in descending order of star
        distance (NaN first).  Once the largest distance so far reaches the
        next query's star distance, no remaining query can exceed it.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        near, star = self._near(points)
        bound = star[1]
        order = np.argsort(bound)[::-1]
        best, start, size = -np.inf, 0, MAX_DISTANCE_BATCH
        while start < len(order) and not bound[order[start]] <= best:
            top = self._project_rows(points, near, star,
                                     order[start:start + size])[1].max()
            if np.isnan(top):   # the bits of a NaN maximum depend on the order
                return self._project_rows(points, near, star,
                                          np.arange(len(points)))[1].max()
            best, start, size = max(best, top), start + size, 2 * size
        return best


def hausdorff_distance(mesh_a: TriangleMesh, mesh_b: TriangleMesh,
                       projector_a: MeshProjector | None = None) -> float:
    """Symmetric sampled Hausdorff distance (vertices, edge midpoints,
    centroids).

    Only each side's maximum is needed, so :meth:`MeshProjector.max_distance`
    projects only the samples whose star distance (an upper bound of their
    distance) exceeds the largest distance found so far; the result is the
    float that projecting every sample gives.  ``projector_a``, a projector
    of ``mesh_a`` the caller already holds, saves building it again; a
    projector of any other mesh raises ``ValueError``.
    """
    if projector_a is not None and projector_a.mesh is not mesh_a:
        raise ValueError("projector_a was built for another mesh than mesh_a")

    def samples(m: TriangleMesh) -> np.ndarray:
        e = m.edges
        mid = 0.5 * (m.vertices[e[:, 0]] + m.vertices[e[:, 1]])
        v0, v1, v2 = m.face_corners()
        cen = (v0 + v1 + v2) / 3.0
        return np.concatenate([m.vertices, mid, cen])

    d_ab = MeshProjector(mesh_b).max_distance(samples(mesh_a))
    d_ba = (projector_a or MeshProjector(mesh_a)).max_distance(samples(mesh_b))
    return float(max(d_ab, d_ba))


# ---------------------------------------------------------------------------
# remeshing passes over (positions, faces, per-vertex targets)
# ---------------------------------------------------------------------------


def _edge_corners(f: np.ndarray):
    """Topology of ``f`` and, per edge, its two corners (corner-major, as in
    :class:`Topology`): the corner opposite the edge in each of its faces."""
    topo = Topology(f)
    if topo.n_nonmanifold_edges or topo.n_boundary_edges:
        raise RemeshError("remeshing produced a non-manifold or open edge")
    return topo, topo.edge_corners.reshape(-1, 2)


def _lengths(v: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Length of every edge of ``e``."""
    return row_norms(np.take(v, e[:, 0], axis=0) - np.take(v, e[:, 1], axis=0))


def _local(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Target of every edge of ``e``: its endpoints' smaller target."""
    return np.minimum(t[e[:, 0]], t[e[:, 1]])


def _neighbours(edges: np.ndarray, n: int):
    """Every vertex's neighbours (both directions of ``edges``) as CSR
    ``(indptr, indices)``, ascending within each row, and the sorted keys
    ``i << 32 | j`` of the directed edges, so ``(i, j)`` is an edge iff its
    key is found.  Row lengths are valences."""
    i, j = edges.T.astype(np.int64)
    keys = np.sort(np.concatenate([i << 32 | j, j << 32 | i]))
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) << 32)
    return indptr, keys & 0xFFFFFFFF, keys


def _found(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of the ``keys`` that occur in the nonempty ``sorted_keys``."""
    at = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[at] == keys


def _row_entries(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray,
                 owners: np.ndarray):
    """``(owner, index)`` pairs of the CSR entries of ``rows``, row ``rows[k]``
    owned by ``owners[k]``."""
    count = indptr[rows + 1] - indptr[rows]
    start = indptr[rows] - np.cumsum(count) + count
    return (np.repeat(owners, count),
            indices[np.arange(count.sum()) + np.repeat(start, count)])


def _independent(rank: np.ndarray, n: int, claims, checks=None) -> np.ndarray:
    """Mask of the candidates such that no candidate of lower rank claims an
    item (of ``n``) that they check.  ``claims`` and ``checks`` (default:
    ``claims``) are ``(owner, item)`` pairs: candidate ``owner[j]`` claims
    or checks item ``item[j]``."""
    (c_owner, c_item), (owner, item) = claims, checks or claims
    best = np.full(n, len(rank))
    np.minimum.at(best, c_item, rank[c_owner])
    lost = best[item] < rank[owner]
    return np.bincount(owner[lost], minlength=len(rank)) == 0


def _split_pass(v: np.ndarray, f: np.ndarray, t: np.ndarray):
    """Split every edge longer than ``SPLIT_RATIO`` times its endpoints'
    smaller target at its midpoint.

    Only edges between vertices that existed when the pass began split, so
    the pass ends.  A round splits each long edge that is the lowest-index
    long edge of both its faces; face ``(a, b, c)`` with ``c`` opposite
    becomes ``(a, mid, c)`` and ``(mid, b, c)``, and the midpoint takes the
    smaller target.  Returns ``(v, f, t, splits)``.
    """
    n0, count = len(v), 0
    while True:
        topo, corners = _edge_corners(f)
        e, m = topo.edges, len(f)
        long = np.flatnonzero((_lengths(v, e) > SPLIT_RATIO * _local(t, e))
                              & (e[:, 1] < n0))
        win = long[_independent(np.arange(len(long)), m, (
            np.repeat(np.arange(len(long)), 2), corners[long].ravel() % m))]
        if not len(win):
            return v, f, t, count
        a, b = e[win].T
        mid = np.repeat(len(v) + np.arange(len(win)), 2)
        v = np.vstack([v, 0.5 * (v[a] + v[b])])
        t = np.append(t, np.minimum(t[a], t[b]))
        c = corners[win].ravel()
        fi, k = c % m, c // m
        p, q, r = f[fi, (k + 1) % 3], f[fi, (k + 2) % 3], f[fi, k]
        f = np.vstack([f, np.column_stack([mid, q, r])])
        f[fi] = np.column_stack([p, mid, r])
        count += len(win)


def _collapse_pass(v: np.ndarray, f: np.ndarray, t: np.ndarray):
    """Collapse every edge shorter than ``COLLAPSE_RATIO`` times its
    endpoints' smaller target to its midpoint, where that is safe.

    An edge ``(a, b)``, ``a < b``, may collapse if its endpoints have
    exactly two common neighbours (the link condition: anything else would
    pinch the surface), both vertices opposite it have valence above 3 (so
    no two faces end up back to back), and no vertex of its ring would be
    farther from the midpoint than the split length (it would split again).
    A round collapses every candidate whose ring (its endpoints and their
    neighbours) holds no endpoint or opposite vertex of a shorter candidate
    (ties to the lower index), so no two of its collapses interact: ``a``
    moves to the midpoint and ``b`` leaves the faces.  Returns
    ``(v, f, collapses)``.
    """
    v, count = v.copy(), 0
    while True:
        topo, corners = _edge_corners(f)
        e = topo.edges
        indptr, nbrs, keys = _neighbours(e, len(v))
        valence = np.diff(indptr)
        local, lengths = _local(t, e), _lengths(v, e)
        cand = np.flatnonzero(lengths < COLLAPSE_RATIO * local)
        a, b = e[cand].T
        # (owner, ring): each candidate's endpoints' neighbours, which
        # include both endpoints; a common neighbour is one of a's that
        # makes an edge with b
        owner, ring = _row_entries(indptr, nbrs, np.r_[a, b],
                                   np.tile(np.arange(len(cand)), 2))
        of_a = slice(valence[a].sum())
        common = _found(keys, b[owner[of_a]].astype(np.int64) << 32 | ring[of_a])
        opposite = topo.corner_vertex[corners[cand]]
        mid = 0.5 * (v[a] + v[b])
        far = (row_norms(mid[owner] - np.take(v, ring, axis=0))
               > SPLIT_RATIO * local[cand][owner])
        ok = ((np.bincount(owner[of_a][common], minlength=len(cand)) == 2)
              & (valence[opposite] > 3).all(axis=1)
              & (np.bincount(owner[far], minlength=len(cand)) == 0))
        rank = np.empty(len(cand), dtype=np.int64)
        rank[np.lexsort((cand, lengths[cand]))] = np.arange(len(cand))
        rank[~ok] = len(cand)       # an unsafe candidate never wins a vertex
        claims = (np.tile(np.arange(len(cand)), 4),
                  np.r_[a, b, opposite.T.ravel()])
        win = ok & _independent(rank, len(v), claims, (owner, ring))
        if not win.any():
            return v, f, count
        v[a[win]] = mid[win]
        relabel = np.arange(len(v))
        relabel[b[win]] = a[win]
        f = relabel[np.delete(f, corners[cand[win]].ravel() % len(f), axis=0)]
        count += int(win.sum())


def _flip_pass(v: np.ndarray, f: np.ndarray):
    """Flip edges where that lowers the sum of (valence - 6)^2.

    Edge ``(p, q)`` of face ``(p, q, c)`` and face ``(q, p, d)`` becomes
    ``(c, d)`` with faces ``(p, d, c)`` and ``(d, q, c)``, if ``(c, d)`` is
    not an edge yet and both new faces have nonzero area and normals that
    agree with each other and with the old pair's.  A round flips the
    candidate of largest gain, ties to the lower index, among candidates
    that share a vertex, so every flip changes four valences by exactly
    -1, -1, +1, +1.  Returns ``(f, flips)``.
    """
    f, count = f.copy(), 0
    while True:
        topo, corners = _edge_corners(f)
        e, m, n = topo.edges, len(f), len(v)
        fi, k = corners % m, corners // m
        p = f[fi[:, 0], (k[:, 0] + 1) % 3]
        q = f[fi[:, 0], (k[:, 0] + 2) % 3]
        c, d = topo.corner_vertex[corners].T
        dev = np.bincount(e.ravel(), minlength=n) - 6
        # sum of squares of (dev[p], dev[q], dev[c], dev[d]) minus that of
        # (dev[p] - 1, dev[q] - 1, dev[c] + 1, dev[d] + 1)
        gain = 2 * (dev[p] + dev[q] - dev[c] - dev[d]) - 4
        keys = e[:, 0].astype(np.int64) * n + e[:, 1]
        new = np.minimum(c, d).astype(np.int64) * n + np.maximum(c, d)
        cand = np.flatnonzero((gain > 0) & (c != d) & ~_found(keys, new))
        P, Q, C, D = (np.take(v, x[cand], axis=0) for x in (p, q, c, d))
        # normals of (p, d, c), (d, q, c) and of the old pair, summed
        nrm = np.stack([np.cross(D - P, C - P), np.cross(Q - D, C - D),
                        np.cross(Q - P, C - P) + np.cross(P - Q, D - Q)])
        safe = ((row_norms(nrm) >= 1e-14).all(axis=0)
                & (np.einsum("kij,kij->ki", nrm[[0, 1, 0]], nrm[[2, 2, 1]]) > 0)
                .all(axis=0))
        cand = cand[safe]
        rank = np.empty(len(cand), dtype=np.int64)
        rank[np.lexsort((cand, -gain[cand]))] = np.arange(len(cand))
        win = cand[_independent(rank, n, (
            np.tile(np.arange(len(cand)), 4),
            np.concatenate([x[cand] for x in (p, q, c, d)])))]
        if not len(win):
            return f, count
        f[fi[win, 0]] = np.column_stack([p[win], d[win], c[win]])
        f[fi[win, 1]] = np.column_stack([d[win], q[win], c[win]])
        count += len(win)


def _smooth(v: np.ndarray, f: np.ndarray, projector: MeshProjector,
            relaxation: float = 0.5) -> np.ndarray:
    """Move every used vertex ``relaxation`` of the way to its neighbours'
    centroid, then onto the reference surface."""
    n = len(v)
    indptr, nbrs, _ = _neighbours(Topology(f).edges, n)
    degree = np.diff(indptr)
    used = np.flatnonzero(degree)
    adj = csr_matrix((np.ones(len(nbrs)), nbrs, indptr), shape=(n, n))
    moved = v[used] + relaxation * ((adj @ v)[used] / degree[used, None] - v[used])
    v = v.copy()
    v[used] = projector.project(moved)[0]
    return v


def _compact(v: np.ndarray, f: np.ndarray):
    """Drop the vertices no face uses and renumber the faces."""
    used, inverse = np.unique(f, return_inverse=True)
    return v[used], inverse.reshape(-1, 3)


def remesh(mesh: TriangleMesh, target_edge: float,
           iterations: int = 5) -> TriangleMesh:
    """Isotropically remesh toward ``target_edge``.

    Enforced: the output keeps the input's Euler characteristic and
    component count, and its sampled Hausdorff distance to the input is at
    most ``HAUSDORFF_FRACTION * target_edge``; otherwise ``RemeshError``.
    The passes aim for edge lengths in ``[0.5, 1.5] * target_edge`` (less
    where the curvature-adaptive local target is smaller) but do not
    enforce them; whether the output is good enough is the caller's test.
    """
    if not 0 < target_edge < np.inf:
        raise RemeshError(
            f"target_edge must be positive and finite, got {target_edge}")
    projector = MeshProjector(mesh)
    curv = np.sqrt(np.maximum(build_cache(mesh).Asq, 0.0)) * target_edge
    adapted = target_edge * np.maximum(
        ADAPT_CONSTANT / np.maximum(curv, ADAPT_CONSTANT), ADAPT_MIN_FACTOR)

    def targets(n):
        # vertices added by earlier passes take the full target
        return np.r_[adapted, np.full(n - len(adapted), target_edge)]

    v, f = mesh.vertices, mesh.faces
    for it in range(iterations):
        v, f, t, splits = _split_pass(v, f, targets(len(v)))
        v, f, collapses = _collapse_pass(v, f, t)
        f, flips = _flip_pass(v, f)
        logger.debug("remesh pass %d: %d splits, %d collapses, %d flips",
                     it, splits, collapses, flips)
        if splits == 0 and collapses == 0 and flips == 0:
            # already at target (e.g. remeshing to the current edge length):
            # skip smoothing so the surface is left untouched
            break
        v = _smooth(v, f, projector)
    else:
        # cap any edges the last smoothing stretched past the band
        v, f, _, splits = _split_pass(v, f, targets(len(v)))
        if splits:
            v = _smooth(v, f, projector, relaxation=0.0)

    try:
        out = TriangleMesh(*_compact(v, f), validate=True)
    except (MeshError, DegenerateFaceError) as exc:
        raise RemeshError(f"remeshing produced an invalid mesh: {exc}") from exc

    if out.euler_characteristic != mesh.euler_characteristic or \
            out.n_components != mesh.n_components:
        raise RemeshError(
            "remeshing would change topology "
            f"(chi {mesh.euler_characteristic} -> {out.euler_characteristic}, "
            f"components {mesh.n_components} -> {out.n_components}); aborted"
        )
    dist = hausdorff_distance(mesh, out, projector)
    allowed = HAUSDORFF_FRACTION * target_edge
    logger.info("remesh: %d -> %d vertices, Hausdorff distance %.3e "
                "(allowed %.3e)", mesh.n_vertices, out.n_vertices, dist, allowed)
    if dist > allowed:
        raise RemeshError(f"remeshed surface drifted {dist:.3e} from the input "
                          f"(allowed {allowed:.3e})")
    return out
