"""Discrete curvature operators, energies, and first variations.

Discretization (fixed across the package):

* cotangent Laplace-Beltrami operator ``L`` with mixed-Voronoi vertex areas
  ``a_i``; the pointwise operator is ``(Delta u)_i = (L u)_i / a_i``;
* mean curvature ``H_i = <(Delta f)_i, nu_i>`` with ``nu_i`` the area-weighted
  vertex normal of the winding orientation (inward for the preferred
  positive-volume orientation, so round spheres have ``H = +2/r``);
* Gauss curvature from angle defects, which makes the discrete Gauss-Bonnet
  identity ``sum K_i a_i = 2 pi chi`` exact;
* ``|A0|^2 = max(H^2/2 - 2K, 0)`` (clamped; the clamp mass is reported) and
  ``|A|^2 = |A0|^2 + H^2/2``.

All operations are pure functions of immutable inputs.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from .mesh import FaceGeometry, TriangleMesh, row_norms, signed_volume

__all__ = [
    "FlowParams", "GeometryCache", "GeometryError", "build_cache",
    "signed_volume", "helfrich_energy", "penalized_energy",
    "mean_curvature_integral", "gauss_bonnet_residual",
    "willmore_bound_residual", "flow_velocity", "first_variation_check",
    "discrete_gradient_fd",
]

COT_OVERFLOW = 1e12


class GeometryError(Exception):
    """Operator assembly failed (typically a degenerate triangle)."""


@dataclass(frozen=True)
class FlowParams:
    """Parameters of the penalized bending energy and its gradient flow.

    c0 : spontaneous curvature, unit 1/length.
    lam : local area penalty, unit 1/length^2; non-negative unless
        ``allow_negative_lam`` is set explicitly.  ``c0^2 + 2 lam`` (the
        round-sphere ODE's rate) must be finite too.
    """

    c0: float
    lam: float = 0.0
    allow_negative_lam: bool = False

    def __post_init__(self):
        c0 = float(self.c0)   # the sum is inf or NaN if c0 or lam is
        if not np.isfinite(c0 * c0 + 2.0 * float(self.lam)):
            raise ValueError("flow parameters and c0^2 + 2 lam must be finite")
        if self.lam < 0 and not self.allow_negative_lam:
            raise ValueError(
                "lam < 0 requires allow_negative_lam=True (all standard "
                "scenarios use lam >= 0)"
            )

    def rescaled(self, r: float) -> "FlowParams":
        """Parameters after parabolic rescaling by ``r``: (r*c0, r^2*lam)."""
        if r <= 0:
            raise ValueError("rescaling factor must be positive")
        return FlowParams(r * self.c0, r * r * self.lam, self.allow_negative_lam)


@dataclass
class GeometryCache:
    """Per-vertex geometric quantities plus global invariants of one mesh.

    Vertex arrays: ``vertex_areas`` (length^2), ``normals``, ``H`` (1/length),
    ``K`` (1/length^2), ``A0sq``, ``Asq`` (1/length^2 each).  ``laplacian`` is
    the integrated cotangent operator (row sums zero; apply and divide by
    ``vertex_areas`` for the pointwise Laplacian).  ``min_angle`` is the
    smallest face angle in radians, ``mean_edge`` the mean edge length.
    Energies that need flow parameters (``helfrich``, ``penalized``) are set
    when ``build_cache`` receives them; ``penalized_roundoff`` then bounds the
    rounding error of ``penalized``, formed on first read.  ``vertices`` are
    the positions the cache was built from.
    """

    vertex_areas: np.ndarray
    normals: np.ndarray
    H: np.ndarray
    K: np.ndarray
    A0sq: np.ndarray
    Asq: np.ndarray
    laplacian: sparse.csr_matrix
    area: float
    signed_volume: float
    willmore: float
    w0: float
    clamp_mass: float
    sup_Asq: float
    min_angle: float
    mean_edge: float
    helfrich: float | None = None
    penalized: float | None = None
    params: FlowParams | None = field(default=None, repr=False)
    vertices: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def penalized_roundoff(self) -> float:
        """First-order rounding bound of ``(1/4) sum d^2 a`` for ``d = H - c0``.

        ``H_i a_i`` is read from ``(L f)_i``, whose rounding error is of order
        ``eps * s_i`` with ``s = |L| |f|`` (the absolute Laplacian applied to
        the vertex norms), so ``|dH| a <= eps s`` and the energy moves by at
        most ``eps/2 sum |d| s + eps^2/4 sum s^2 / a``.  The area term's own
        rounding (about ``eps lam A / 2``) is left out: ``E >= lam A / 2``, so
        the relative tolerance of step acceptance already covers it.
        """
        L, a = self.laplacian, self.vertex_areas
        abs_L = sparse.csr_matrix((np.abs(L.data), L.indices, L.indptr),
                                  shape=L.shape)
        s = abs_L @ row_norms(self.vertices)
        eps = np.finfo(np.float64).eps
        return float(0.5 * eps * np.sum(np.abs(self.H - self.params.c0) * s)
                     + 0.25 * eps * eps * np.sum(s * s / a))


def _cotangents(fg: FaceGeometry) -> np.ndarray:
    """Corner cotangents like ``fg.dots``; raises GeometryError if degenerate."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cots = fg.dots / fg.cross_norm
    bad = ~np.isfinite(cots) | (np.abs(cots) > COT_OVERFLOW)
    if np.any(bad):
        face = int(np.nonzero(np.any(bad, axis=0))[0][0])
        raise GeometryError(
            f"cotangent weight overflow from degenerate triangle at face {face}"
        )
    return cots


def _corner_areas(fg: FaceGeometry, cots: np.ndarray) -> np.ndarray:
    """Mixed-Voronoi area share of every corner, corner-major."""
    face_area = 0.5 * fg.cross_norm
    # Voronoi part (valid for non-obtuse faces): corner k gets
    # (|e_{k+1}|^2 cot_{k+1} + |e_{k+2}|^2 cot_{k+2}) / 8.
    w = fg.edge_sq * cots
    contrib = np.stack([w[k - 2] + w[k - 1] for k in range(3)]) / 8.0
    # obtuse faces: half the area at the obtuse corner, a quarter elsewhere
    obtuse = cots < 0
    any_obtuse = np.any(obtuse, axis=0)
    if np.any(any_obtuse):
        cols = np.nonzero(any_obtuse)[0]
        contrib[:, cols] = 0.25 * face_area[cols]
        obtuse_corner = np.argmax(obtuse[:, cols], axis=0)
        contrib[obtuse_corner, cols] = 0.5 * face_area[cols]
    return contrib.ravel()


def build_cache(mesh: TriangleMesh, params: FlowParams | None = None) -> GeometryCache:
    """Assemble all per-vertex curvature data and global energies for a mesh."""
    n, topo = mesh.n_vertices, mesh.topology
    fg = mesh.face_geometry()
    cots = _cotangents(fg)

    def to_vertices(per_corner):
        return np.bincount(topo.corner_vertex, weights=per_corner, minlength=n)

    # corner k's cotangent weight sits on the opposite edge
    L = topo.laplacian_pattern(n).fill(0.5 * cots.ravel())
    a = to_vertices(_corner_areas(fg, cots))
    if np.any(a <= 0):
        raise GeometryError("non-positive mixed Voronoi vertex area")
    # every corner of a face carries the face's area vector
    nu = np.column_stack([to_vertices(np.tile(c, 3)) for c in fg.cross])
    with np.errstate(over="ignore"):
        norms = row_norms(nu)
    big = ~np.isfinite(norms)
    if np.any(big):   # squares past the float range: scale those rows first
        s = np.abs(nu[big]).max(axis=1)
        norms[big] = s * row_norms(nu[big] / s[:, None])
    if np.any(norms == 0):
        raise GeometryError("zero area-weighted normal at a vertex")
    nu /= norms[:, None]
    H = np.einsum("ij,ij->i", L @ mesh.vertices, nu) / a
    K = (2.0 * np.pi - to_vertices(fg.angles.ravel())) / a
    raw = 0.5 * H * H - 2.0 * K
    A0sq = np.maximum(raw, 0.0)
    clamp_mass = float(np.sum(np.minimum(raw, 0.0) * -a))
    Asq = A0sq + 0.5 * H * H
    cache = GeometryCache(
        vertex_areas=a,
        normals=nu,
        H=H,
        K=K,
        A0sq=A0sq,
        Asq=Asq,
        laplacian=L,
        area=float(0.5 * np.sum(fg.cross_norm)),
        signed_volume=fg.signed_volume,
        willmore=0.25 * float(np.sum(H * H * a)),
        w0=float(np.sum(A0sq * a)),
        clamp_mass=clamp_mass,
        sup_Asq=float(Asq.max()),
        min_angle=float(fg.angles.min()),
        # 2 sides per edge, summed face by face
        mean_edge=float(np.sqrt(fg.edge_sq).T.ravel().mean()),
        vertices=mesh.vertices,
    )
    if params is not None:
        cache.params = params
        cache.helfrich = helfrich_energy(cache, params)
        cache.penalized = penalized_energy(cache, params)
    return cache


# ---------------------------------------------------------------------------
# energies and monitors
# ---------------------------------------------------------------------------


def helfrich_energy(cache: GeometryCache, params: FlowParams) -> float:
    """(1/4) integral (H - c0)^2 dmu."""
    d = cache.H - params.c0
    return 0.25 * float(np.sum(d * d * cache.vertex_areas))


def penalized_energy(cache: GeometryCache, params: FlowParams) -> float:
    """Helfrich energy plus the local area penalty lam/2 * A."""
    return helfrich_energy(cache, params) + 0.5 * params.lam * cache.area


def mean_curvature_integral(cache: GeometryCache) -> float:
    """integral H dmu; its sign is the positivity monitor for shrinkers."""
    return float(np.sum(cache.H * cache.vertex_areas))


def gauss_bonnet_residual(cache: GeometryCache, genus: int) -> float:
    """Consistency residual of the two Gauss-Bonnet-derived energy identities.

    Returns ``max(|W0 - (2W - 8 pi (1-g))|, |int |A|^2 - (4(W - 2 pi) + 8 pi g)|)``.
    Zero up to the umbilic clamp mass for the exact discretization.
    """
    w, w0 = cache.willmore, cache.w0
    int_asq = float(np.sum(cache.Asq * cache.vertex_areas))
    r1 = abs(w0 - (2.0 * w - 8.0 * np.pi * (1 - genus)))
    r2 = abs(int_asq - (4.0 * (w - 2.0 * np.pi) + 8.0 * np.pi * genus))
    return max(r1, r2)


def willmore_bound_residual(cache: GeometryCache, params: FlowParams) -> float:
    """Slack in the bound W <= (2 lam + c0^2) / (2 lam) * (penalized energy).

    Non-negative (up to roundoff) for every valid mesh; requires lam > 0.
    """
    if params.lam <= 0:
        raise ValueError("willmore_bound_residual requires lam > 0")
    factor = (2.0 * params.lam + params.c0 ** 2) / (2.0 * params.lam)
    return factor * penalized_energy(cache, params) - cache.willmore


# ---------------------------------------------------------------------------
# flow velocity and first variations
# ---------------------------------------------------------------------------


def flow_velocity(cache: GeometryCache, params: FlowParams) -> np.ndarray:
    """Normal speed of the gradient flow per vertex, unit 1/length^3.

    xi = -(Delta H + |A0|^2 H - c0 (|A0|^2 - H^2/2) - (lam + c0^2/2) H);
    the velocity vector is ``xi_i nu_i``.  ``Delta H`` reuses the cotangent
    operator of the cache applied to the scalar field H.
    """
    c0, lam = params.c0, params.lam
    H, A0sq = cache.H, cache.A0sq
    lap_H = (cache.laplacian @ H) / cache.vertex_areas
    return -(
        lap_H
        + A0sq * H
        - c0 * (A0sq - 0.5 * H * H)
        - (lam + 0.5 * c0 * c0) * H
    )


_FUNCTIONALS = ("area", "volume", "helfrich", "penalized")


def _functional_value(mesh: TriangleMesh, params: FlowParams, which: str) -> float:
    if which == "area":
        return float(np.sum(mesh.face_areas()))
    if which == "volume":
        return signed_volume(mesh)
    cache = build_cache(mesh)
    if which == "helfrich":
        return helfrich_energy(cache, params)
    if which == "penalized":
        return penalized_energy(cache, params)
    raise ValueError(f"unknown functional {which!r}; expected one of {_FUNCTIONALS}")


def _analytic_variation(cache: GeometryCache, params: FlowParams, phi: np.ndarray,
                        which: str) -> float:
    a, H = cache.vertex_areas, cache.H
    if which == "area":
        return -float(np.sum(H * phi * a))
    if which == "volume":
        return -float(np.sum(phi * a))
    if which in ("helfrich", "penalized"):
        # the L2 gradient is -xi/2, so this checks the velocity the flow uses
        p = FlowParams(params.c0) if which == "helfrich" else params
        return -0.5 * float(np.sum(flow_velocity(cache, p) * phi * a))
    raise ValueError(f"unknown functional {which!r}; expected one of {_FUNCTIONALS}")


def first_variation_check(mesh: TriangleMesh, params: FlowParams, phi,
                          functional: str, fd_step: float | None = None):
    """Compare the analytic first variation against central differences.

    The mesh is perturbed by ``+- h * phi_i nu_i`` with frozen normals; the
    analytic value evaluates the smooth first-variation identities on the
    discrete quantities.  Returns ``(analytic, finite_difference)``.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (mesh.n_vertices,):
        raise ValueError("phi must be a scalar field over the vertices")
    if not np.all(np.isfinite(phi)):
        raise ValueError("phi contains non-finite entries")
    h = 1e-5 * mesh.bbox_diagonal() if fd_step is None else float(fd_step)
    if h <= 0 or h < 1e-300:
        raise ValueError("finite-difference step underflow")
    cache = build_cache(mesh)
    analytic = _analytic_variation(cache, params, phi, functional)
    direction = phi[:, None] * cache.normals
    f_plus = _functional_value(mesh.with_vertices(mesh.vertices + h * direction),
                               params, functional)
    f_minus = _functional_value(mesh.with_vertices(mesh.vertices - h * direction),
                                params, functional)
    return analytic, (f_plus - f_minus) / (2.0 * h)


def discrete_gradient_fd(mesh: TriangleMesh, params: FlowParams,
                         functional: str) -> np.ndarray:
    """Exact (to FD accuracy) Euclidean gradient of a discrete functional.

    Central differences of step ``1e-6 * bbox diagonal``, coordinate by
    coordinate; O(n) functional evaluations, intended for validation on
    coarse meshes.  Divide by the vertex areas for the L2(dmu) gradient
    comparable with the strong-form velocity.
    """
    h = 1e-6 * mesh.bbox_diagonal()
    base = np.array(mesh.vertices)
    grad = np.empty_like(base)
    for i in range(mesh.n_vertices):
        for k in range(3):
            bump = base.copy()
            bump[i, k] += h
            fp = _functional_value(mesh.with_vertices(bump), params, functional)
            bump[i, k] -= 2 * h
            fm = _functional_value(mesh.with_vertices(bump), params, functional)
            grad[i, k] = (fp - fm) / (2.0 * h)
    return grad
