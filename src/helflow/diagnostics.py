"""Curvature-concentration diagnostics and blow-up frame extraction.

The concentration function ``kappa(t, r) = sup_x integral_{B_r(x)} |A|^2 dmu``
is evaluated with the sup restricted to vertex positions (the maximizing ball
can be recentered onto the surface at an O(h) radius cost).  The reported
center is the lowest-index vertex among those whose ball sum lies within
``n eps sum(w)`` of the maximum (n vertices with weights ``w = |A|^2 dmu``),
so centers that tie up to roundoff do not depend on the order in which the
sums were formed.  Blow-up frames recenter and rescale a snapshot by
``(f - x_j) / r_j``, transforming the flow parameters to
``(r_j c0, r_j^2 lam)``; the energy identity between the two is exact and is
asserted on every extracted frame.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .flow import FlowState
from .geometry import (FlowParams, GeometryCache, build_cache,
                       mean_curvature_integral, penalized_energy)
from .mesh import TriangleMesh
from .sphere_ode import theory_bounds

logger = logging.getLogger(__name__)

FOUR_PI = 4.0 * np.pi

ROUND_FIT_RESIDUAL_MAX = 0.02
ROUND_WILLMORE_REL_TOL = 0.05
WILLMORE_TREND_SLACK = 1e-3 * FOUR_PI

KAPPA_BLOCK = 256          # vertices per side of a distance block of the scan
RADII_GRID_POINTS = 24     # of default_radii_grid


class DiagnosticsError(Exception):
    """A diagnostic invariant failed or inputs were unusable."""


@dataclass
class KappaProfile:
    """Concentration-function samples over an increasing radius grid."""

    radii: np.ndarray
    kappa: np.ndarray
    centers: np.ndarray         # argmax center per radius, (k, 3)
    t: float = 0.0

    @property
    def total(self) -> float:
        return float(self.kappa[-1])


@dataclass
class BlowUpFrame:
    """A recentered, rescaled snapshot ``(f(t_j) - x_j) / r_j``."""

    t: float
    r: float
    x: np.ndarray
    rescaled_mesh: TriangleMesh
    rescaled_params: FlowParams
    kappa_target: float
    willmore: float
    penalized: float


@dataclass
class SingularityClassification:
    verdict: str                        # round_shrinker | non_round_concentration | none
    fit_residual: float | None
    limit_willmore: list
    limit_penalized: list


# ---------------------------------------------------------------------------
# concentration function
# ---------------------------------------------------------------------------


def _distance_blocks(vertices: np.ndarray):
    """Squared distances in square blocks ``(I, J, d_sq)``, only for J >= I.

    ``d_sq = |v_I|^2 + |v_J|^2 - 2 v_I v_J^T`` is symmetric, so the blocks
    above the diagonal stand for their transposes as well.
    """
    n = len(vertices)
    v_sq = np.einsum("ij,ij->i", vertices, vertices)
    for i0 in range(0, n, KAPPA_BLOCK):
        I = slice(i0, min(i0 + KAPPA_BLOCK, n))
        for j0 in range(i0, n, KAPPA_BLOCK):
            J = slice(j0, min(j0 + KAPPA_BLOCK, n))
            d_sq = (v_sq[I, None] + v_sq[None, J]
                    - 2.0 * (vertices[I] @ vertices[J].T))
            yield I, J, d_sq


def _ball_sums(vertices: np.ndarray, weights: np.ndarray,
               r_sq: np.ndarray) -> np.ndarray:
    """Weight sums over the open ball of every squared radius at every
    vertex, shape ``(n, len(r_sq))``.

    One radius is a masked product per block.  A grid digitizes each block's
    distances once and fills a weighted histogram per center, whose cumsum
    gives every radius at once; within one center it is a cumulative sum of
    non-negative weights, so monotonicity in r is exact.  An off-diagonal
    block adds to its rows with the column weights and to its columns with
    the row weights.
    """
    n, n_r = len(vertices), len(r_sq)
    if n_r == 1:
        vals = np.zeros(n)
        for I, J, d_sq in _distance_blocks(vertices):
            inside = d_sq < r_sq[0]
            vals[I] += inside @ weights[J]
            if I != J:
                vals[J] += weights[I] @ inside
        return vals[:, None]
    stride = n_r + 1
    acc = np.zeros((n, stride))
    # non-negative doubles order like their bit patterns and negative ones
    # view as negative integers, so integer compares give the same bins
    r_key = r_sq.view(np.int64)
    for I, J, d_sq in _distance_blocks(vertices):
        # bin b: strictly inside radius k for all k >= b (strict d < r)
        bins = np.searchsorted(r_key, d_sq.view(np.int64), side="right")
        m_i, m_j = bins.shape
        # key a * stride + b is bin b of row a; then the same for columns
        row_off = np.arange(0, m_i * stride, stride)[:, None]
        bins += row_off
        acc[I] += np.bincount(bins.ravel(), weights=np.tile(weights[J], m_i),
                              minlength=m_i * stride).reshape(m_i, stride)
        if I != J:
            bins -= row_off
            bins += np.arange(0, m_j * stride, stride)
            acc[J] += np.bincount(
                bins.ravel(), weights=np.repeat(weights[I], m_j),
                minlength=m_j * stride).reshape(m_j, stride)
    return np.cumsum(acc[:, :n_r], axis=1)


def _pick_centers(vals: np.ndarray, total: float):
    """Per column: the maximum, and the lowest row within ``n eps total`` of it.

    ``n eps total`` bounds the roundoff of a sum of n non-negative weights
    that add up to ``total``, so centers whose ball sums differ only by
    roundoff count as tied, and the lowest vertex index among them wins.  The
    order in which the sums were formed then cannot choose the center.
    """
    best = vals.max(axis=0)
    tol = len(vals) * np.finfo(np.float64).eps * total
    return best, np.argmax(vals >= best - tol, axis=0)


def _kappa_scan(vertices: np.ndarray, weights: np.ndarray, radii: np.ndarray):
    """Max over vertex-centered balls of the weight sums inside, per radius.

    Returns the maxima and one center index per radius.  The center is the
    lowest vertex index among the centers whose sum lies within
    ``n eps sum(weights)`` of the maximum (``_pick_centers``).
    """
    r_sq = np.asarray(radii, dtype=np.float64) ** 2
    vals = _ball_sums(vertices, weights, r_sq)
    return _pick_centers(vals, float(np.sum(weights)))


def kappa(mesh: TriangleMesh, cache: GeometryCache, r: float):
    """Concentration of curvature at radius r: value and argmax center."""
    if not (np.isfinite(r) and r > 0):
        raise DiagnosticsError("radius must be finite and positive")
    weights = cache.Asq * cache.vertex_areas
    vals, idx = _kappa_scan(mesh.vertices, weights, np.array([r]))
    return float(vals[0]), np.array(mesh.vertices[idx[0]])


def kappa_profile(mesh: TriangleMesh, cache: GeometryCache, radii,
                  t: float = 0.0) -> KappaProfile:
    """Sample kappa over an increasing radius grid.

    Monotonicity in r is exact for nested balls at one center and must
    survive the sup; a violation indicates a scan bug and raises.
    """
    radii = np.asarray(radii, dtype=np.float64)
    if radii.ndim != 1 or len(radii) < 1 or np.any(np.diff(radii) <= 0):
        raise DiagnosticsError("radii must be a strictly increasing grid")
    if not (np.all(np.isfinite(radii)) and radii[0] > 0):
        raise DiagnosticsError("radii must be finite and positive")
    weights = cache.Asq * cache.vertex_areas
    vals, idx = _kappa_scan(mesh.vertices, weights, radii)
    slack = 1e-12 * max(float(vals[-1]), 1.0)
    if np.any(np.diff(vals) < -slack):
        raise DiagnosticsError("kappa profile is not monotone; scan bug")
    return KappaProfile(
        radii=radii,
        kappa=vals,
        centers=mesh.vertices[idx],
        t=t,
    )


def select_blowup_radius(profile: KappaProfile, kappa_target: float) -> float:
    """Smallest radius with kappa >= target (linear between grid points)."""
    if not (0 < kappa_target):
        raise DiagnosticsError("kappa_target must be positive")
    if kappa_target > profile.total:
        raise DiagnosticsError(
            f"kappa_target {kappa_target:.4g} exceeds total curvature energy "
            f"{profile.total:.4g}"
        )
    k = profile.kappa
    if k[0] >= kappa_target:
        return float(profile.radii[0])
    i = int(np.searchsorted(k, kappa_target, side="left"))
    r0, r1 = profile.radii[i - 1], profile.radii[i]
    k0, k1 = k[i - 1], k[i]
    if k1 == k0:
        return float(r1)
    return float(r0 + (kappa_target - k0) / (k1 - k0) * (r1 - r0))


def default_radii_grid(mesh: TriangleMesh) -> np.ndarray:
    """Geometric radius grid spanning cap scales up to past the diameter."""
    diam = mesh.bbox_diagonal()
    return np.geomspace(0.02 * diam, 1.25 * diam, RADII_GRID_POINTS)


# ---------------------------------------------------------------------------
# blow-up frames
# ---------------------------------------------------------------------------


def extract_blowup_frame(state: FlowState, params: FlowParams,
                         kappa_target: float | None = None,
                         profile: KappaProfile | None = None) -> BlowUpFrame:
    """Select (r_j, x_j) from the concentration profile and rescale.

    ``kappa_target`` defaults to 25% of the current total curvature energy;
    flows normally freeze the t=0 total and pass that.  A precomputed
    ``profile`` for this state may be supplied to avoid a second scan.  The
    exact discrete energy identity between the snapshot and the rescaled
    frame is verified to 1e-12 relative before returning.
    """
    mesh, cache = state.mesh, state.cache
    if profile is None:
        profile = kappa_profile(mesh, cache, default_radii_grid(mesh), t=state.t)
    if kappa_target is None:
        kappa_target = 0.25 * profile.total
    r = select_blowup_radius(profile, kappa_target)
    _, x = kappa(mesh, cache, r)
    rescaled_mesh = mesh.translated(-x).scaled(1.0 / r)
    rescaled_params = params.rescaled(r)
    rescaled_cache = build_cache(rescaled_mesh, rescaled_params)
    original = (cache.penalized if cache.penalized is not None
                else penalized_energy(cache, params))
    identity_err = abs(rescaled_cache.penalized - original) / max(abs(original), 1e-300)
    if identity_err > 1e-12:
        raise DiagnosticsError(
            f"parabolic rescaling energy identity violated: {identity_err:.3e}"
        )
    return BlowUpFrame(
        t=state.t, r=r, x=np.asarray(x), rescaled_mesh=rescaled_mesh,
        rescaled_params=rescaled_params, kappa_target=float(kappa_target),
        willmore=rescaled_cache.willmore, penalized=rescaled_cache.penalized,
    )


class FrameSink:
    """Flow sink that extracts a blow-up frame each time the area halves.

    Geometric sampling of the approach to extinction; the concentration target
    is frozen at ``kappa_target_fraction`` of the t=0 total curvature energy.
    The concentration profiles behind the frames are kept for export.
    """

    def __init__(self, params: FlowParams, kappa_target_fraction: float = 0.25):
        self.params = params
        self.kappa_target_fraction = kappa_target_fraction
        self.frames: list[BlowUpFrame] = []
        self.profiles: list[KappaProfile] = []
        self.kappa_target = None
        self._next_area = None

    def __call__(self, state, record):
        cache = state.cache
        if self._next_area is None:
            total = float(np.sum(cache.Asq * cache.vertex_areas))
            self.kappa_target = self.kappa_target_fraction * total
            self._next_area = cache.area / 2.0
            return
        if cache.area <= self._next_area:
            profile = kappa_profile(state.mesh, cache,
                                    default_radii_grid(state.mesh), t=state.t)
            self.frames.append(
                extract_blowup_frame(state, self.params, self.kappa_target,
                                     profile=profile)
            )
            self.profiles.append(profile)
            self._next_area /= 2.0


# ---------------------------------------------------------------------------
# sphere fitting and singularity classification
# ---------------------------------------------------------------------------


def sphere_fit(points: np.ndarray):
    """Least-squares sphere fit: algebraic solve plus one Gauss-Newton step.

    Returns ``(center, radius, residual)`` with residual the RMS distance
    deviation relative to the radius.
    """
    p = np.asarray(points, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 3 or len(p) < 4:
        raise DiagnosticsError("sphere fit needs at least 4 points in R^3")
    A = np.column_stack([2.0 * p, np.ones(len(p))])
    b = np.einsum("ij,ij->i", p, p)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    center = sol[:3]
    radius = float(np.sqrt(max(sol[3] + center @ center, 0.0)))

    # one Gauss-Newton step on sum (|p - c| - R)^2
    d = p - center
    dist = np.linalg.norm(d, axis=1)
    dist = np.where(dist == 0, 1e-300, dist)
    J = np.column_stack([-d / dist[:, None], -np.ones(len(p))])
    res = dist - radius
    update, *_ = np.linalg.lstsq(J, -res, rcond=None)
    center = center + update[:3]
    radius = radius + float(update[3])

    dist = np.linalg.norm(p - center, axis=1)
    residual = float(np.sqrt(np.mean((dist - radius) ** 2)) / max(radius, 1e-300))
    return center, radius, residual


def classify_singularity(frames, reason: str) -> SingularityClassification:
    """Classify the terminal behavior from a sequence of blow-up frames.

    A converged (or otherwise non-singular) run is verdict ``none``.  A
    singular run is a ``round_shrinker`` when the last rescaled frame fits a
    sphere to better than 2% RMS and the frame Willmore energies sit within
    5% of 4 pi without trending away from it; otherwise
    ``non_round_concentration``.
    """
    singular = reason in ("singular_area_collapse", "singular_curvature_blowup")
    if not singular:
        return SingularityClassification("none", None, [], [])
    frames = list(frames)
    if len(frames) < 3:
        raise DiagnosticsError(
            f"classification needs at least 3 frames, got {len(frames)}"
        )
    tail = frames[-5:]
    willmore = [f.willmore for f in tail]
    penalized = [f.penalized for f in tail]
    _, _, residual = sphere_fit(frames[-1].rescaled_mesh.vertices)

    near_4pi = all(abs(w - FOUR_PI) <= ROUND_WILLMORE_REL_TOL * FOUR_PI
                   for w in willmore)
    excess = [w - FOUR_PI for w in willmore]
    trending_down = all(b <= a + WILLMORE_TREND_SLACK
                        for a, b in zip(excess, excess[1:]))
    if residual < ROUND_FIT_RESIDUAL_MAX and near_4pi and trending_down:
        verdict = "round_shrinker"
    else:
        verdict = "non_round_concentration"
    return SingularityClassification(verdict, residual, willmore, penalized)


# ---------------------------------------------------------------------------
# hypothesis monitors
# ---------------------------------------------------------------------------


def hypothesis_monitors(state: FlowState, params: FlowParams) -> dict:
    """Runtime checks of the assumptions behind the two main scenarios.

    Reports the sign of ``integral H dmu``, the trace-free energy, whether the
    initial energy sits below the global-existence threshold, and (for
    c0 < 0) the remaining budget against the finite-time bound.
    """
    cache = state.cache
    int_h = mean_curvature_integral(cache)
    bounds = theory_bounds(params, e0=state.energy0)
    out = {
        "t": state.t,
        "int_H": int_h,
        "int_H_positive": bool(int_h > 0),
        "w0": cache.w0,
        "energy0": state.energy0,
        "en_threshold": bounds.en_threshold,
        "below_threshold": (None if bounds.en_threshold is None
                            else bool(state.energy0 <= bounds.en_threshold)),
        "t_bound": bounds.t_bound,
        "remaining_budget": (None if bounds.t_bound is None
                             else bounds.t_bound - state.t),
        "e0_inconsistent": bounds.e0_inconsistent,
    }
    return out
