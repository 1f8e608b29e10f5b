"""Closed oriented triangle meshes: representation, validation, generators, file IO.

Conventions used throughout the package:

* A mesh is a closed oriented 2-manifold embedded (or immersed) in R^3,
  stored as an indexed face set.  All lengths share one global unit.
* The signed volume is ``-(1/3) * integral <f, nu> dmu``; the preferred
  orientation (see :func:`orient_for_positive_volume`) makes it non-negative,
  i.e. the winding normal points *inward* for embedded surfaces.  With that
  convention the mean curvature of a round sphere is ``+2/r``.
"""

import logging
from functools import cached_property

import numpy as np

logger = logging.getLogger(__name__)

# Faces thinner than this fraction of the squared bounding-box diagonal are
# rejected at validation time: their cotangent weights blow up downstream.
DEGENERATE_AREA_FRACTION = 1e-14

MAX_ICOSPHERE_SUBDIVISIONS = 7


class MeshError(Exception):
    """Base class for mesh construction and IO failures."""


class MeshFormatError(MeshError):
    """Input file could not be parsed as indexed triangle geometry."""


class NonManifoldMeshError(MeshError):
    """An edge is shared by more than two faces."""


class OpenBoundaryError(MeshError):
    """An edge belongs to only one face (surface is not closed)."""


class OrientationError(MeshError):
    """Face windings are inconsistent and cannot be repaired by flips."""


class DegenerateFaceError(MeshError):
    """A face has (numerically) zero area."""


def _as_vertex_array(vertices) -> np.ndarray:
    v = np.array(vertices, dtype=np.float64)  # always copy: meshes own their data
    if v.ndim != 2 or v.shape[1] != 3:
        raise MeshError(f"vertices must have shape (n, 3), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise MeshError("vertices contain non-finite coordinates")
    return v


def _as_face_array(faces) -> np.ndarray:
    # Another mesh's faces (read-only int64) are shared, not copied.
    shared = (isinstance(faces, np.ndarray) and faces.dtype == np.int64
              and not faces.flags.writeable)
    f = faces if shared else np.array(faces, dtype=np.int64)
    if f.ndim != 2 or f.shape[1] != 3:
        raise MeshError(f"faces must have shape (m, 3), got {f.shape}")
    return f


class Topology:
    """Connectivity of one faces array, the source of every index map that
    the geometry, the Laplacian and the projector read.

    Corner maps are corner-major: corner ``k * m + f`` is corner ``k`` of
    face ``f``.  ``corner_vertex`` is the vertex at each corner and
    ``corner_edge`` the edge opposite it.  One sort of the corners by their
    opposite edge gives the edges, the edge multiplicities and
    ``edge_corners``, which the remesher reads once per round.  Built on
    first use: ``corner_edge``, the edge-face pairs and their directions,
    the face components, the padded vertex -> face table and the
    Laplacian's CSR layout (:class:`LaplacianPattern`).  Meshes that only
    move vertices share one instance, so a flow computes connectivity once
    per remesh, not once per step.  Indices are int32; the face table is
    intp, like face indices.
    """

    def __init__(self, faces: np.ndarray):
        self.faces = faces
        m = len(faces)
        #: Vertex of every corner, corner-major.
        self.corner_vertex = cv = faces.T.astype(np.int32).ravel()
        # corner k * m + f faces the edge between corners k + 1 and k + 2 of
        # face f.  Sorting the corners by (edge, corner) gives the unique
        # edges (first of each run), each edge's multiplicity (run length),
        # each corner's edge (run number) and each edge's corners (the run).
        a, b = np.roll(cv, -m), np.roll(cv, -2 * m)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        n3 = len(cv)
        base = int(cv.min(initial=0))
        span = int(cv.max(initial=0)) - base + 1
        shift = n3.bit_length()
        if span * span << shift <= 2**63:
            # (edge, corner) packed in one int64, so a plain sort is stable
            order = np.sort(((lo - np.int64(base)) * span + (hi - base)) << shift
                            | np.arange(n3)) & ((1 << shift) - 1)
        else:
            order = np.lexsort((hi, lo))
        order = order.astype(np.int32)
        lo, hi = lo[order], hi[order]
        first = np.ones(n3, dtype=bool)
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        #: Unique undirected edges as an (E, 2) array of sorted index pairs.
        self.edges = np.column_stack([lo[first], hi[first]])
        #: Corners grouped by their opposite edge, edges ascending and each
        #: edge's corners ascending: ``argsort(corner_edge, kind="stable")``.
        #: On a closed manifold, ``edge_corners.reshape(-1, 2)`` holds each
        #: edge's two corners.
        self.edge_corners = order
        self._first = first
        multiplicity = np.diff(np.append(np.flatnonzero(first), n3))
        #: Number of edges shared by more than two faces.
        self.n_nonmanifold_edges = int(np.count_nonzero(multiplicity > 2))
        #: Number of edges that belong to a single face.
        self.n_boundary_edges = int(np.count_nonzero(multiplicity < 2))
        self._laplacian_pattern = None

    @cached_property
    def corner_edge(self) -> np.ndarray:
        """Edge opposite every corner (an index into ``edges``), corner-major."""
        edge = np.empty(len(self.edge_corners), dtype=np.int32)
        edge[self.edge_corners] = np.cumsum(self._first, dtype=np.int32) - 1
        return edge

    @cached_property
    def _edge_incidences(self):
        """Per edge-face pair: the two faces and whether both traverse the
        edge in one direction.

        Incidence ``j * m + f`` is the directed edge from corner ``j`` of face
        ``f`` to corner ``j + 1``, opposite corner ``j + 2``; pairs are
        neighbours in the incidences sorted by (edge, incidence).
        """
        m = len(self.faces)
        src, dst = self.corner_vertex, np.roll(self.corner_vertex, -m)
        edge = np.roll(self.corner_edge, m)          # edge of each incidence
        order = np.argsort(edge, kind="stable")
        edge = edge[order]
        same = edge[1:] == edge[:-1]
        face = (order % max(m, 1)).astype(np.int32)
        forward = (src < dst)[order]
        return (np.column_stack([face[:-1][same], face[1:][same]]),
                forward[:-1][same] == forward[1:][same])

    @property
    def edge_face_pairs(self) -> np.ndarray:
        """(k, 2) array of face-index pairs sharing an edge."""
        return self._edge_incidences[0]

    @property
    def same_direction(self) -> np.ndarray:
        """Per edge-face pair: both faces traverse the edge in one direction."""
        return self._edge_incidences[1]

    @property
    def consistent_winding(self) -> bool:
        """False if two faces traverse a shared edge in the same direction."""
        return not self.same_direction.any()

    def laplacian_pattern(self, n_vertices: int) -> "LaplacianPattern":
        """CSR layout of the cotangent Laplacian, built on first use."""
        if getattr(self._laplacian_pattern, "n", None) != n_vertices:
            self._laplacian_pattern = LaplacianPattern(self, n_vertices)
        return self._laplacian_pattern

    @cached_property
    def vertex_faces(self) -> np.ndarray:
        """Faces around each vertex as one padded table: row ``i`` lists the
        faces that use vertex ``i`` in ascending order, then ``n_faces``."""
        verts = self.faces.ravel()
        order = np.argsort(verts, kind="stable")
        counts = np.bincount(verts)
        slot = np.arange(len(verts)) - np.repeat(np.cumsum(counts) - counts,
                                                 counts)
        table = np.full((len(counts), counts.max()), len(self.faces))
        table[verts[order], slot] = order // 3
        return table

    @cached_property
    def face_components(self) -> np.ndarray:
        """Connected-component label per face (edge connectivity)."""
        return _components(len(self.faces), *self.edge_face_pairs.T)


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected-component label of each of ``n`` nodes joined by the edges
    ``(a[i], b[i])``, components numbered in order of their lowest node (as
    ``scipy.sparse.csgraph.connected_components`` numbers them).

    Union-find over arrays: every edge whose ends have different roots hooks
    the higher root to the lower, then pointers jump until each node points
    at its root.  Pointers only go down, so a root is the lowest node of its
    tree, and the rounds end when every edge joins one tree.
    """
    parent = np.arange(n)
    while True:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            break
        np.minimum.at(parent, np.maximum(ra, rb)[split],
                      np.minimum(ra, rb)[split])
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    root = parent == np.arange(n)
    return (np.cumsum(root) - 1)[parent]


class LaplacianPattern:
    """CSR layout of the cotangent Laplacian of one :class:`Topology`.

    The entries are both directions of every edge plus the diagonal.  Row
    ``i`` holds its lower neighbours, ``i`` itself and its upper neighbours,
    so columns are sorted; index arrays are int32.  ``term`` names, per CSR
    entry, its source in ``[lower edges, diagonal, upper edges]``, so
    :meth:`fill` is two ``bincount`` passes and one gather; ``diagonal``
    holds the CSR positions of the diagonal, row by row.  The layout of
    ``diag(B, B, B)`` for any ``B`` on this pattern is built on first use.
    """

    def __init__(self, topology: Topology, n_vertices: int):
        from scipy.sparse import coo_matrix

        n = self.n = n_vertices
        self.edges, self.corner_edge = topology.edges, topology.corner_edge
        lo, hi, diag = *self.edges.T, np.arange(n, dtype=np.int32)
        # coo->csr keeps the input order within a row, and the edges are
        # sorted by (lo, hi): lower terms, then the diagonal, then upper
        # terms leave every row's columns ascending
        rows = np.concatenate([hi, diag, lo])
        cols = np.concatenate([lo, diag, hi])
        csr = coo_matrix((np.arange(1, len(rows) + 1), (rows, cols)),
                         shape=(n, n)).tocsr()
        self.term = (csr.data - 1).astype(np.int32)
        self.diagonal = np.flatnonzero(np.isin(self.term, diag + len(lo)))
        self.indices, self.indptr = csr.indices, csr.indptr
        for a in (self.term, self.diagonal, self.indices, self.indptr):
            a.setflags(write=False)

    def fill(self, w: np.ndarray):
        """The Laplacian for corner weights ``w`` (corner-major) as a
        ``csr_matrix``: each edge weighs the sum of its corners' weights,
        and each diagonal entry is minus the sum of its row's edge weights."""
        from scipy.sparse import csr_matrix

        edge_w = np.bincount(self.corner_edge, weights=w,
                             minlength=len(self.edges))
        diag = np.bincount(self.edges.ravel(), weights=np.repeat(edge_w, 2),
                           minlength=self.n)
        data = np.concatenate([edge_w, -diag, edge_w])[self.term]
        return csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    @cached_property
    def block_layout(self):
        """``(indices, indptr)`` of ``diag(B, B, B)``: block ``k`` repeats
        the layout of ``L`` shifted by ``k * n`` columns and ``k * nnz``
        entries, so its data is that of ``B`` tiled three times."""
        nnz, k = self.indptr[-1], np.arange(3, dtype=np.int32)[:, None]
        indices = (self.indices + k * self.n).ravel()
        indptr = np.append((self.indptr[:-1] + k * nnz).ravel(), 3 * nnz)
        for a in (indices, indptr):
            a.setflags(write=False)
        return indices, indptr


class TriangleMesh:
    """Immutable closed oriented triangle mesh.

    Parameters
    ----------
    vertices : (n, 3) array_like
        Vertex positions.
    faces : (m, 3) array_like
        Oriented vertex-index triples with globally consistent winding.
    validate : bool
        Check the closed-manifold invariants (default).  Geometry-preserving
        constructors (``with_vertices`` etc.) skip re-validating topology.
    """

    def __init__(self, vertices, faces, validate=True):
        self.vertices = _as_vertex_array(vertices)
        self.faces = _as_face_array(faces)
        self._topology = None
        if validate:
            self._validate()
        self.vertices.setflags(write=False)
        self.faces.setflags(write=False)

    # -- basic counts -------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def topology(self) -> "Topology":
        """Connectivity of ``faces``, shared with every mesh derived by moving
        vertices (``with_vertices``, ``translated``, ``scaled``)."""
        if self._topology is None:
            self._topology = Topology(self.faces)
        return self._topology

    @property
    def edges(self) -> np.ndarray:
        """Unique undirected edges as an (E, 2) array of sorted index pairs."""
        return self.topology.edges

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    @property
    def genus(self) -> int:
        """Total genus; for a multi-component mesh, the sum over components."""
        return self.n_components - self.euler_characteristic // 2

    @property
    def n_components(self) -> int:
        return int(self.face_components.max()) + 1 if self.n_faces else 0

    @property
    def face_components(self) -> np.ndarray:
        """Connected-component label per face (edge connectivity)."""
        return self.topology.face_components

    # -- geometry helpers ----------------------------------------------------

    def face_corners(self):
        """The three vertex-position arrays (v0, v1, v2) of every face."""
        # np.take copies the same rows several times faster than v[f[:, k]]
        return tuple(np.take(self.vertices, self.faces[:, k], axis=0) for k in range(3))

    def face_geometry(self) -> "FaceGeometry":
        """A new :class:`FaceGeometry` of this mesh (none is cached)."""
        return FaceGeometry(self)

    def face_areas(self) -> np.ndarray:
        return 0.5 * self.face_geometry().cross_norm

    def face_angles(self) -> np.ndarray:
        """(m, 3) interior angles, column k is the angle at faces[:, k]."""
        return self.face_geometry().angles.T

    def edge_lengths(self) -> np.ndarray:
        e = self.edges
        return np.linalg.norm(self.vertices[e[:, 0]] - self.vertices[e[:, 1]], axis=1)

    def mean_edge_length(self) -> float:
        return float(self.edge_lengths().mean())

    def bbox_diagonal(self) -> float:
        v = self.vertices
        return float(np.linalg.norm(v.max(axis=0) - v.min(axis=0)))

    # -- derived meshes ------------------------------------------------------

    def with_vertices(self, vertices) -> "TriangleMesh":
        """Same topology with new positions; skips topological re-validation."""
        mesh = TriangleMesh(vertices, self.faces, validate=False)
        mesh._topology = self.topology
        return mesh

    def translated(self, offset) -> "TriangleMesh":
        return self.with_vertices(self.vertices + np.asarray(offset, dtype=np.float64))

    def scaled(self, factor: float) -> "TriangleMesh":
        if not 0 < factor < np.inf:
            raise MeshError("scale factor must be positive and finite")
        return self.with_vertices(self.vertices * float(factor))

    # -- validation ----------------------------------------------------------

    def _validate(self):
        if self.n_faces == 0:
            raise MeshError("mesh has no faces")
        if self.faces.min() < 0 or self.faces.max() >= self.n_vertices:
            raise MeshError("face indices out of range")
        f = self.faces
        unused = self.n_vertices - np.count_nonzero(np.bincount(f.ravel()))
        if unused:
            raise MeshError(f"{unused} vertex(es) used by no face")
        if np.any((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])):
            raise DegenerateFaceError("face with repeated vertex index")

        with np.errstate(over="ignore", invalid="ignore"):  # inf, not an error
            areas = self.face_areas()
            floor = DEGENERATE_AREA_FRACTION * np.float64(self.bbox_diagonal()) ** 2
        if not (np.isfinite(floor) and np.all(np.isfinite(areas))):
            raise MeshError("face areas or the mesh's size leave the float range")
        bad = np.nonzero(areas < floor)[0]
        if len(bad):
            raise DegenerateFaceError(
                f"{len(bad)} degenerate face(s) below area floor {floor:.3e}, "
                f"first at index {bad[0]}"
            )

        topo = self.topology
        if topo.n_nonmanifold_edges:
            raise NonManifoldMeshError(
                f"{topo.n_nonmanifold_edges} edge(s) shared by more than two faces"
            )
        if topo.n_boundary_edges:
            raise OpenBoundaryError(
                f"{topo.n_boundary_edges} boundary edge(s); mesh is not closed"
            )
        if not topo.consistent_winding:
            raise OrientationError(
                "inconsistent face windings (a directed edge occurs twice)"
            )
        if self.euler_characteristic % 2 != 0:
            raise MeshError(
                f"odd Euler characteristic {self.euler_characteristic}"
            )


# ---------------------------------------------------------------------------
# signed volume and orientation
# ---------------------------------------------------------------------------


def row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=-1)`` for a last axis of 3, same bits, faster."""
    return np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2 + x[..., 2] ** 2)


def _coord_dot(a, b):
    """Per-column dot products of ``(3, m)`` arrays, summed in the order of
    ``np.einsum("ij,ij->i")`` on ``(m, 3)`` rows: ``(x x' + z z') + y y'``."""
    return a[0] * b[0] + a[2] * b[2] + a[1] * b[1]


def _cross(a, b):
    """``np.cross`` of ``(3, m)`` arrays along the first axis, same bits."""
    return np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


class FaceGeometry:
    """Per-face quantities of one mesh state, corner-major.

    ``cross`` (row c is coordinate c) is ``(v1 - v0) x (v2 - v0)``, twice the
    area vector.  Row k of ``dots``, ``angles`` and ``edge_sq`` is corner k
    (vertex ``faces[:, k]``): the dot product of its two sides, its interior
    angle and its opposite side squared.  ``det_sixths`` is
    ``det(v0, v1, v2) / 6``.  One pass forms all of them but the angles.
    """

    def __init__(self, mesh: TriangleMesh):
        # v[k] is corner k as a (coord, m) array; kept, it would hold memory
        v = np.take(mesh.vertices.T, mesh.faces.T, axis=1).swapaxes(0, 1)
        e = [v[k - 1] - v[k - 2] for k in range(3)]  # side k is opposite corner k
        self.edge_sq = np.stack([_coord_dot(s, s) for s in e])
        self.dots = -np.stack([_coord_dot(e[k - 1], e[k - 2]) for k in range(3)])
        self.cross = c = _cross(e[2], -e[1])
        self.cross_norm = row_norms(c.T)
        self.det_sixths = _coord_dot(v[0], _cross(v[1], v[2])) / 6.0

    @cached_property
    def angles(self) -> np.ndarray:
        return np.arctan2(self.cross_norm, self.dots)

    @cached_property
    def signed_volume(self) -> float:
        return float(np.sum(self.det_sixths) * -1.0)


def signed_volume(mesh: TriangleMesh) -> float:
    """Signed volume ``-(1/3) * integral <f, nu> dmu`` of the discrete mesh.

    Equals ``-sum_F det(v0, v1, v2) / 6``; positive when the winding normal
    points inward (the preferred orientation).  Translation invariant for
    closed meshes.
    """
    return mesh.face_geometry().signed_volume


def component_signed_volumes(mesh: TriangleMesh) -> np.ndarray:
    """Signed volume per connected component (same convention as above)."""
    det = -mesh.face_geometry().det_sixths
    return np.bincount(mesh.face_components, weights=det, minlength=mesh.n_components)


def orientation_tolerance(mesh: TriangleMesh) -> float:
    """Volumes within this of zero have no reliable sign: ``1e-12 diag^3``."""
    return 1e-12 * mesh.bbox_diagonal() ** 3


def orient_for_positive_volume(mesh: TriangleMesh) -> TriangleMesh:
    """Flip windings (per component) so every component's signed volume is >= 0.

    Components whose enclosed volume is numerically zero are reported and left
    unchanged.  Idempotent; a no-op input is returned as-is.
    """
    vols = component_signed_volumes(mesh)
    ambiguous = np.abs(vols) <= orientation_tolerance(mesh)
    if np.any(ambiguous):
        logger.warning(
            "orient_for_positive_volume: %d component(s) with ~zero enclosed "
            "volume; orientation left unchanged there",
            int(ambiguous.sum()),
        )
    to_flip = (vols < 0) & ~ambiguous
    if not np.any(to_flip):
        return mesh
    faces = mesh.faces.copy()
    mask = to_flip[mesh.face_components]
    faces[mask] = faces[mask][:, [0, 2, 1]]
    return TriangleMesh(mesh.vertices, faces, validate=False)


def repair_winding(faces: np.ndarray) -> np.ndarray:
    """Make face windings globally consistent by flipping faces.

    Each face has two states, as given and reversed; a shared edge ties the
    states of its two faces, so the classes of the doubled face graph are the
    consistent orientations.  The lowest-index face of each component keeps
    its winding.  Raises :class:`OrientationError` for non-orientable input.
    """
    faces = np.array(faces, dtype=np.int64)
    topo = Topology(faces)
    if topo.n_nonmanifold_edges:
        raise NonManifoldMeshError(
            f"{topo.n_nonmanifold_edges} edge(s) shared by more than two "
            "faces; cannot orient")
    if topo.n_boundary_edges:
        raise OpenBoundaryError(
            f"{topo.n_boundary_edges} boundary edge(s); mesh is not closed")
    # node 2f is face f as given, 2f + 1 reversed; faces that traverse their
    # shared edge in one direction need opposite states
    f, g = 2 * topo.edge_face_pairs.T
    same = topo.same_direction
    labels = _components(2 * len(faces), np.concatenate([f, f + 1]),
                         np.concatenate([g + same, g + ~same]))
    if np.any(labels[0::2] == labels[1::2]):
        raise OrientationError("mesh is not orientable")
    # a class holds its component's lowest face as given iff its lowest
    # node is even
    _, lowest = np.unique(labels, return_index=True)
    flip = lowest[labels[0::2]] % 2 == 1
    faces[flip] = faces[flip][:, [0, 2, 1]]
    return faces


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def make_tetrahedron() -> TriangleMesh:
    """The reference tetrahedron (0,0,0), (1,0,0), (0,1,0), (0,0,1)."""
    vertices = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    faces = [(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)]
    return orient_for_positive_volume(TriangleMesh(vertices, faces))


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        ],
        dtype=np.float64,
    )
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=np.int64,
    )
    return verts, faces


def make_icosphere(subdivisions: int, radius: float = 1.0,
                   center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Icosahedron-based sphere mesh with ``20 * 4**subdivisions`` faces.

    All vertices lie at exactly ``radius`` from ``center`` (up to floating
    point); the returned orientation has non-negative signed volume.
    """
    if subdivisions < 0 or subdivisions > MAX_ICOSPHERE_SUBDIVISIONS:
        raise MeshError(f"subdivisions must be in [0, {MAX_ICOSPHERE_SUBDIVISIONS}]"
                        f", got {subdivisions}")
    if not 0 < radius < np.inf:
        raise MeshError("radius must be positive and finite")
    verts, faces = _icosahedron()
    for _ in range(subdivisions):
        verts, faces = _subdivide_midpoint(verts, faces)
    verts = verts / np.linalg.norm(verts, axis=1, keepdims=True)
    verts = verts * radius + np.asarray(center, dtype=np.float64)
    mesh = TriangleMesh(verts, faces)
    return orient_for_positive_volume(mesh)


def _subdivide_midpoint(verts: np.ndarray, faces: np.ndarray):
    """Split each triangle into four; midpoints are projected by the caller.

    Midpoints are numbered after the old vertices in the order their edges
    first occur in the face-major list ``ab, bc, ca`` of every face.
    """
    keys = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    edges, first, inverse = np.unique(keys, axis=0, return_index=True,
                                      return_inverse=True)
    by_first = np.argsort(first)
    number = np.empty(len(edges), dtype=np.int64)
    number[by_first] = np.arange(len(verts), len(verts) + len(edges))
    ab, bc, ca = number[inverse.reshape(-1, 3)].T
    a, b, c = faces.T
    new_faces = np.column_stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca])
    ends = edges[by_first]
    mids = 0.5 * (verts[ends[:, 0]] + verts[ends[:, 1]])
    return np.concatenate([verts, mids], axis=0), new_faces.reshape(-1, 3)


def make_torus(major_radius: float = 1.0, minor_radius: float = 0.4,
               n_major: int = 48, n_minor: int = 24) -> TriangleMesh:
    """Structured grid torus (genus 1), oriented for non-negative signed volume."""
    if not (0 < minor_radius < major_radius):
        raise MeshError("need 0 < minor_radius < major_radius")
    theta = 2 * np.pi * np.arange(n_major) / n_major
    phi = 2 * np.pi * np.arange(n_minor) / n_minor
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    ring = major_radius + minor_radius * np.cos(ph)
    verts = np.column_stack(
        [
            (ring * np.cos(th)).ravel(),
            (ring * np.sin(th)).ravel(),
            (minor_radius * np.sin(ph)).ravel(),
        ]
    )
    faces = []
    for i in range(n_major):
        for j in range(n_minor):
            a = i * n_minor + j
            b = ((i + 1) % n_major) * n_minor + j
            c = ((i + 1) % n_major) * n_minor + (j + 1) % n_minor
            d = i * n_minor + (j + 1) % n_minor
            faces.append((a, b, c))
            faces.append((a, c, d))
    return orient_for_positive_volume(TriangleMesh(verts, np.array(faces)))


# ---------------------------------------------------------------------------
# file IO (ASCII OFF / OBJ)
# ---------------------------------------------------------------------------


def load_mesh(path) -> TriangleMesh:
    """Load a closed triangle mesh from an OFF or OBJ file.

    A ``.obj`` extension means OBJ, any other OFF.  Non-triangle polygons are
    fan-triangulated; windings are made globally consistent and the result is
    oriented for non-negative signed volume.
    """
    path = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshFormatError(f"cannot read {path}: {exc}") from exc
    if path.lower().endswith(".obj"):
        verts, polys = _parse_obj(text, path)
    else:
        verts, polys = _parse_off(text, path)
    faces = _fan_triangulate(polys)
    faces = repair_winding(faces)
    mesh = TriangleMesh(verts, faces)
    return orient_for_positive_volume(mesh)


def save_mesh(mesh: TriangleMesh, path) -> None:
    """Write ASCII OFF, or OBJ to a ``.obj`` path; 17 significant digits."""
    lines = []
    if str(path).lower().endswith(".obj"):
        for x, y, z in mesh.vertices:
            lines.append(f"v {x:.17g} {y:.17g} {z:.17g}")
        for a, b, c in mesh.faces:
            lines.append(f"f {a + 1} {b + 1} {c + 1}")
    else:
        lines.append("OFF")
        lines.append(f"{mesh.n_vertices} {mesh.n_faces} {mesh.n_edges}")
        for x, y, z in mesh.vertices:
            lines.append(f"{x:.17g} {y:.17g} {z:.17g}")
        for a, b, c in mesh.faces:
            lines.append(f"3 {a} {b} {c}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _strip_comments(text: str, comment_chars: str) -> list[str]:
    out = []
    for line in text.splitlines():
        for ch in comment_chars:
            cut = line.find(ch)
            if cut >= 0:
                line = line[:cut]
        line = line.strip()
        if line:
            out.append(line)
    return out


def _parse_off(text: str, path: str):
    lines = _strip_comments(text, "#")
    if not lines:
        raise MeshFormatError(f"{path}: empty OFF file")
    header = lines[0]
    idx = 1
    if header.upper().startswith("OFF"):
        rest = header[3:].strip()
        if rest:  # counts on the header line
            lines.insert(1, rest)
    else:
        idx = 0  # headerless variant: first line is the counts
    try:
        nv, nf = (int(tok) for tok in lines[idx].split()[:2])
    except (ValueError, IndexError) as exc:
        raise MeshFormatError(f"{path}: bad OFF counts line") from exc
    idx += 1
    if len(lines) < idx + nv + nf:
        raise MeshFormatError(f"{path}: truncated OFF file")
    try:
        verts = np.array(
            [[float(t) for t in lines[idx + i].split()[:3]] for i in range(nv)]
        )
    except ValueError as exc:
        raise MeshFormatError(f"{path}: bad vertex line") from exc
    idx += nv
    polys = []
    for i in range(nf):
        toks = lines[idx + i].split()
        try:
            k = int(toks[0])
            poly = [int(t) for t in toks[1: 1 + k]]
        except (ValueError, IndexError) as exc:
            raise MeshFormatError(f"{path}: bad face line {i}") from exc
        if len(poly) != k or k < 3:
            raise MeshFormatError(f"{path}: face {i} declares {k} vertices")
        polys.append(poly)
    return verts, polys


def _parse_obj(text: str, path: str):
    verts, polys = [], []
    for line in _strip_comments(text, "#"):
        toks = line.split()
        if toks[0] == "v":
            try:
                verts.append([float(t) for t in toks[1:4]])
            except (ValueError, IndexError) as exc:
                raise MeshFormatError(f"{path}: bad vertex line") from exc
        elif toks[0] == "f":
            try:
                poly = [int(t.split("/")[0]) - 1 for t in toks[1:]]
            except (ValueError, IndexError) as exc:
                raise MeshFormatError(f"{path}: bad face line") from exc
            if len(poly) < 3:
                raise MeshFormatError(f"{path}: face with fewer than 3 vertices")
            polys.append(poly)
    if not verts or not polys:
        raise MeshFormatError(f"{path}: no geometry found")
    return np.array(verts, dtype=np.float64), polys


def _fan_triangulate(polys) -> np.ndarray:
    tris = []
    for poly in polys:
        for k in range(1, len(poly) - 1):
            tris.append((poly[0], poly[k], poly[k + 1]))
    return np.array(tris, dtype=np.int64).reshape(-1, 3)
