"""Curvature-concentration diagnostics and blow-up frame extraction.

The concentration function ``kappa(t, r) = sup_x integral_{B_r(x)} |A|^2 dmu``
is evaluated with the sup restricted to vertex positions (the maximizing ball
can be recentered onto the surface at an O(h) radius cost).  The reported
center is the lowest-index vertex among those whose ball sum lies within
``n eps sum(w)`` of the maximum (n vertices with weights ``w = |A|^2 dmu``),
so centers that tie up to roundoff do not depend on the order in which the
sums were formed.  A radius grid bins each squared distance with a table
lookup on the top bits of its IEEE bit pattern and a compare, which gives
the bins of a binary search.  A large scan computes its distance blocks on
a small thread pool and adds them up in a fixed block order, so the number
of threads moves no output bit.  Blow-up frames recenter and rescale a snapshot by
``(f - x_j) / r_j``, transforming the flow parameters to
``(r_j c0, r_j^2 lam)``; the energy identity between the two is exact and is
asserted on every extracted frame.
"""

import logging
import os
import threading
from collections import deque
from concurrent.futures import wait
from dataclasses import dataclass

import numpy as np

from .flow import SINGULAR_REASONS, FlowState
from .geometry import FlowParams, GeometryCache, build_cache, penalized_energy
from .mesh import TriangleMesh
from .sphere_ode import FOUR_PI

logger = logging.getLogger(__name__)

KAPPA_TARGET_FRACTION = 0.25   # FrameSink's target: this share of the t=0 total
ROUND_FIT_RESIDUAL_MAX = 0.02
ROUND_WILLMORE_REL_TOL = 0.05
WILLMORE_TREND_SLACK = 1e-3 * FOUR_PI

KAPPA_BLOCK = 256          # vertices per side of a distance block of the scan
KAPPA_PANEL = 128          # rows of a block whose distances are formed at once
# A bin table bucket is a key's top 16 bits: its sign, its 11 exponent bits
# and 4 mantissa bits, so a bucket spans at most a factor 2^(1/16) in r^2.
BUCKET_SHIFT = 48
KAPPA_MAX_WORKERS = 2      # scan threads at most: no more were measured
KAPPA_WORKERS = min(KAPPA_MAX_WORKERS,
                    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
# Smaller scans run on the calling thread.  A process's first extra thread
# slowed a whole ico3 extinction flow (642 vertices, 6 blocks a scan) by a
# few percent, more than a pool saves on its three frames' scans.
KAPPA_POOL_MIN_VERTICES = 4 * KAPPA_BLOCK
RADII_GRID_POINTS = 24     # of default_radii_grid

_pool = None               # the scan's ThreadPoolExecutor, started on first use
_pool_lock = threading.Lock()


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


def _shaped(buf: np.ndarray, m: int, k: int) -> np.ndarray:
    """The first ``m * k`` entries of a flat buffer, as an ``(m, k)`` array."""
    return buf[:m * k].reshape(m, k)


def _d_sq_panels(v_sq, I, J, g, buf):
    """``(P, d_sq)`` for each panel ``P`` of ``KAPPA_PANEL`` rows of one
    block: the squared distances ``|v_I|^2 + |v_J|^2 - g`` of the panel's
    rows, written to ``buf``, where ``g = 2 v_I v_J^T`` is the block's."""
    for p0 in range(0, len(g), KAPPA_PANEL):
        P = slice(p0, min(p0 + KAPPA_PANEL, len(g)))
        d_sq = _shaped(buf, P.stop - P.start, g.shape[1])
        np.add(v_sq[I][P, None], v_sq[None, J], out=d_sq)
        d_sq -= g[P]
        yield P, d_sq


def _executor():
    # imported here, so a run that never scans loads no thread-pool code
    from concurrent.futures import ThreadPoolExecutor

    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(KAPPA_WORKERS,
                                       thread_name_prefix="kappa-scan")
        return _pool


def _forget_pool():
    # a forked child inherits the pool object but none of its threads
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _blocks_in_order(block, n: int):
    """``(I, J, block(I, J))`` for the square blocks of an n x n distance
    matrix with J >= I, in row-major block order.

    ``d_sq`` is symmetric, so the blocks above the diagonal stand for their
    transposes as well.  From ``KAPPA_POOL_MIN_VERTICES`` vertices on, the
    blocks run on the scan's thread pool, at most ``2 * KAPPA_WORKERS`` of
    them submitted but not yet yielded.  If a block raises, the blocks still
    queued are cancelled, the running ones are waited for, and the exception
    propagates.
    """
    pairs = ((slice(i0, min(i0 + KAPPA_BLOCK, n)),
              slice(j0, min(j0 + KAPPA_BLOCK, n)))
             for i0 in range(0, n, KAPPA_BLOCK)
             for j0 in range(i0, n, KAPPA_BLOCK))
    if n < KAPPA_POOL_MIN_VERTICES:
        for I, J in pairs:
            yield I, J, block(I, J)
        return
    pool, pending = _executor(), deque()
    try:
        while True:
            while len(pending) < 2 * KAPPA_WORKERS and (pair := next(pairs, None)):
                pending.append((*pair, pool.submit(block, *pair)))
            if not pending:
                return
            I, J, future = pending.popleft()
            yield I, J, future.result()
    finally:
        futures = [future for _, _, future in pending]
        for future in futures:
            future.cancel()
        wait(futures)


def _bin_table(r_key: np.ndarray):
    """``(base, limits)``, the tables with which ``_digitize`` bins keys
    against ``r_key``, a sorted array of at least one non-negative key.

    A key's bucket is the key shifted right by ``BUCKET_SHIFT``.  ``base[b]``
    counts the keys in buckets below ``b``, and ``limits[k, b]`` is the key
    ``base[b] + k`` for ``k < k_max``, the most keys that one bucket holds,
    or the largest int64 past the last key.  The last entry of ``base`` stands
    for every bucket from one past the last key's bucket up, where each key
    lies below, so it starts ``k_max`` keys before the end and its limits
    are all keys.
    """
    buckets = r_key >> BUCKET_SHIFT
    base = np.bincount(buckets + 1)
    np.cumsum(base, out=base)
    k_max = int(np.unique(buckets, return_counts=True)[1].max())
    base[-1] = len(r_key) - k_max
    limits = base + np.arange(k_max)[:, None]
    padded = np.append(r_key, np.iinfo(np.int64).max)
    np.take(padded, limits, out=limits, mode="clip")
    return base, limits


def _digitize(d_key, table, out, count):
    """``out[...] = searchsorted(r_key, d_key, side="right")`` for the
    ``table`` of ``_bin_table(r_key)``; ``count`` is a work buffer of
    ``d_key``'s shape, of an integer type that holds ``k_max``.

    A key's bin is the count of the keys in lower buckets plus the number of
    its bucket's limits that it reaches: the keys of its own bucket are
    sorted, and the keys after them lie above it.  A negative key (negative
    roundoff, -0.0) has a negative bucket, which ``mode="clip"`` sends to
    bucket 0, and reaches no limit, since every key is non-negative; a
    bucket past the end of the tables goes to their last entry.  ``np.take``
    reads each index before it writes that entry, so ``out`` serves as its
    own indices.
    """
    base, limits = table
    for k, limit in enumerate(limits):
        np.right_shift(d_key, BUCKET_SHIFT, out=out)
        np.take(limit, out, out=out, mode="clip")
        if k == 0:
            np.greater_equal(d_key, out, out=count)
        else:
            count += d_key >= out
    np.right_shift(d_key, BUCKET_SHIFT, out=out)
    np.take(base, out, out=out, mode="clip")
    out += count


def _ball_sums(vertices: np.ndarray, weights: np.ndarray,
               r_sq: np.ndarray) -> np.ndarray:
    """Weight sums over the open ball of every squared radius at every
    vertex, shape ``(n, len(r_sq))``.

    One radius is a masked product per block.  A grid digitizes each block's
    distances once and fills a weighted histogram per center, whose cumsum
    gives every radius at once; within one center it is a cumulative sum of
    non-negative weights, so monotonicity in r is exact.  An off-diagonal
    block adds to its rows with the column weights and to its columns with
    the row weights.  The blocks are computed as ``_blocks_in_order`` runs
    them and added up by the calling thread in block order.  Every sum adds the same
    terms in the same order as one pass over the whole block would, so no
    output depends on the number of workers.

    Distances are formed from coordinates about the midpoint of the
    bounding box: about the origin, the cancellation in
    ``|v_i|^2 + |v_j|^2 - 2 v_i.v_j`` cost a mesh far from it every digit.

    A grid's bins come from ``_digitize``: a table lookup on the top bits
    of each distance's bit pattern and one compare per key that a bucket
    can hold, with the bins of a binary search.  So every sum adds the
    same terms as when each distance was found in the grid by bisection.

    A block's arrays that grow with it live in three buffers: one of a
    block, one of a panel of ``KAPPA_PANEL`` rows, and the panel's compare
    counts for ``_digitize``, one byte an entry.  A worker allocates only
    the histograms, and a panel of compare results for each key past the
    first that one bucket of the grid holds.  The calling thread allocates
    one set of buffers per worker, so they go back to its heap after the
    scan, where a worker thread's heap would keep them.  The pool runs at
    most ``KAPPA_WORKERS`` blocks at once, so a set is free whenever a
    block starts.
    """
    n, n_r = len(vertices), len(r_sq)
    vertices = vertices - (vertices.min(axis=0) + vertices.max(axis=0)) / 2
    v_sq = np.einsum("ij,ij->i", vertices, vertices)
    # numpy sends ``A @ A.T`` to the slower BLAS syrk; a copy of the
    # transpose keeps every block on gemm, with the same bits
    vt = vertices.T.copy()

    if n_r == 1:
        def compute(I, J, g, panels, count):
            # a panel's mask, 1.0 inside and 0.0 outside, replaces its g
            for P, d_sq in panels:
                np.less(d_sq, r_sq[0], out=g[P])
            return g @ weights[J], (weights[I] @ g if I != J else None)

        acc = np.zeros(n)
        count_type = bool      # unused: one radius needs no bins
    else:
        stride = n_r + 1
        # non-negative doubles order like their bit patterns and negative
        # ones view as negative integers, so integer compares give the same bins
        table = _bin_table(r_sq.view(np.int64))
        row_keys = np.arange(0, KAPPA_PANEL * stride, stride)[:, None]
        count_type = np.min_scalar_type(len(table[1]))   # holds k_max

        def compute(I, J, g, panels, count):
            # bin b: strictly inside radius k for all k >= b (strict d < r).
            # Key a * stride + b is bin b of row a, and the same for columns.
            # A panel's bins replace its g, and the repeated weights of each
            # histogram its d_sq.  The column sums go on from one panel to
            # the next in row order, as in one bincount over the block.
            m_j = g.shape[1]
            rows, cols = np.empty((len(g), stride)), np.zeros(m_j * stride)
            col_keys = np.arange(0, m_j * stride, stride)
            for P, d_sq in panels:
                bins = g[P].view(np.int64)
                _digitize(d_sq.view(np.int64), table, bins,
                          _shaped(count, *bins.shape))
                bins += row_keys[:len(bins)]
                d_sq[:] = weights[J]
                rows[P] = np.bincount(
                    bins.ravel(), weights=d_sq.ravel(),
                    minlength=len(bins) * stride).reshape(-1, stride)
                if I != J:
                    bins -= row_keys[:len(bins)]
                    bins += col_keys
                    d_sq[:] = weights[I][P, None]
                    np.add.at(cols, bins.ravel(), d_sq.ravel())
            return rows, (cols.reshape(m_j, stride) if I != J else None)

        acc = np.zeros((n, stride))

    side = min(n, KAPPA_BLOCK)
    panel = min(side, KAPPA_PANEL) * side
    free = deque((np.empty(side * side), np.empty(panel),
                  np.empty(panel, count_type))
                 for _ in range(KAPPA_WORKERS))

    def block(I, J):
        block_buf, panel_buf, count_buf = free.pop()
        try:
            g = _shaped(block_buf, I.stop - I.start, J.stop - J.start)
            np.matmul(vertices[I], vt[:, J], out=g)
            g *= 2.0
            return compute(I, J, g, _d_sq_panels(v_sq, I, J, g, panel_buf),
                           count_buf)
        finally:
            free.append((block_buf, panel_buf, count_buf))

    for I, J, (rows, cols) in _blocks_in_order(block, n):
        acc[I] += rows
        if cols is not None:
            acc[J] += cols
    if n_r == 1:
        return acc[:, None]
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
    if not (np.isfinite(r) and r > 0 and r * r > 0):
        raise DiagnosticsError("radius must be finite and its square positive")
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
    if not (np.all(np.isfinite(radii)) and radii[0] > 0 and radii[0] ** 2 > 0):
        raise DiagnosticsError("radii must be finite and their squares positive")
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
                         kappa_target: float,
                         profile: KappaProfile) -> BlowUpFrame:
    """Select (r_j, x_j) at ``kappa_target`` from ``profile``, the
    concentration profile of ``state``, and rescale.

    The exact discrete energy identity between the snapshot (its energy for
    ``params``) and the rescaled frame is verified to 1e-12 relative before
    returning.
    """
    mesh, cache = state.mesh, state.cache
    r = select_blowup_radius(profile, kappa_target)
    _, x = kappa(mesh, cache, r)
    rescaled_mesh = mesh.translated(-x).scaled(1.0 / r)
    rescaled_params = params.rescaled(r)
    rescaled_cache = build_cache(rescaled_mesh, rescaled_params)
    original = penalized_energy(cache, params)
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
    The concentration profiles behind the frames are kept for export, one per
    frame.  A halving whose total curvature energy is below the target (a
    non-round start that rounds off) gives no frame: its time goes to
    ``skipped``, and a warning is logged.
    """

    def __init__(self, params: FlowParams,
                 kappa_target_fraction: float = KAPPA_TARGET_FRACTION):
        self.params = params
        self.kappa_target_fraction = kappa_target_fraction
        self.frames: list[BlowUpFrame] = []
        self.profiles: list[KappaProfile] = []
        self.skipped: list[float] = []
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
            self._next_area /= 2.0
            profile = kappa_profile(state.mesh, cache,
                                    default_radii_grid(state.mesh), t=state.t)
            if self.kappa_target > profile.total:
                self.skipped.append(state.t)
                logger.warning("no blow-up frame at t=%.6g: kappa target %.4g "
                               "exceeds total curvature energy %.4g", state.t,
                               self.kappa_target, profile.total)
                return
            self.frames.append(extract_blowup_frame(
                state, self.params, self.kappa_target, profile))
            self.profiles.append(profile)


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
    if reason not in SINGULAR_REASONS:
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

