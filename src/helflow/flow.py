"""Time integration of the surface flow with energy-monotone step control.

The evolving object is a :class:`FlowState`; accepted steps never increase the
penalized energy by more than the larger of the policy tolerance and the
energy's rounding bound (rejected attempts shrink dt and leave the state
unchanged).  Each step is semi-implicit: the bi-Laplacian stiffness is
treated implicitly in stabilized (add-subtract) form,

    (M + dt L M^-1 L) v+ = M v + dt (M xi nu + L M^-1 L v),

with M the diagonal mixed-area mass matrix and L the cotangent operator; all
curvature (lower-order) terms stay explicit.  The update is the real part of
one complex-shifted solve, by one COCG on the stacked coordinates
(:class:`ImplicitSolver`); a solve that fails rejects the step.  dt is
capped by ``curvature_dt_coeff / (sup |A|^2)^2``, which tracks the physical
r^4 stiffness scale, so shrinking surfaces remain time-accurate.

Time has units length^4 (fourth-order scaling).
"""

import cmath
import logging
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy import sparse

from .geometry import (FlowParams, GeometryCache, GeometryError, build_cache,
                       flow_velocity, mean_curvature_integral)
from .mesh import (LaplacianPattern, MeshError, TriangleMesh,
                   orientation_tolerance)

logger = logging.getLogger(__name__)

TERMINATION_REASONS = (
    "converged",
    "singular_area_collapse",
    "singular_curvature_blowup",
    "dt_collapse",
    "horizon_reached",
    "step_budget",
)
SINGULAR_REASONS = ("singular_area_collapse", "singular_curvature_blowup")

# Conjugate-gradient stopping rule of the semi-implicit solve; a solve that
# reaches the iteration cap fails, and the step is rejected.
CG_RTOL = 1e-9
CG_MAXITER = 1500


class FlowError(Exception):
    """Flow setup or stepping failed."""


class SolverError(FlowError):
    """The semi-implicit linear solve failed."""


@dataclass(frozen=True)
class SteppingPolicy:
    """Step-size control, termination thresholds, record cadence and remesh
    triggers.

    Every step is semi-implicit.  dt starts at ``dt_init``, is multiplied by
    ``dt_growth`` after an accepted step and by ``dt_shrink`` after a
    rejected one, and is capped by ``curvature_dt_coeff / (sup|A|^2)^2``.
    ``energy_increase_tol_rel`` is relative to the initial energy; an accepted
    step may raise the penalized energy by at most that amount or, if larger,
    by the rounding bound of the energies before and after the step
    (``GeometryCache.penalized_roundoff``), so that on a surface whose energy
    is roundoff (a stationary sphere) decisions do not hinge on one ulp.  A
    ``None`` gradient tolerance disables convergence detection.
    ``max_steps`` bounds stepping attempts: a run ends with ``step_budget``
    once accepted plus rejected steps reach it.  NaN, negative and (where
    zero is meaningless) zero values raise ``ValueError``.
    """

    dt_init: float = 1e-3
    dt_growth: float = 1.3
    dt_shrink: float = 0.25
    curvature_dt_coeff: float = 0.02       # dt <= c / sup|A|^2 ^2
    energy_increase_tol_rel: float = 1e-10
    gradient_tol: float | None = None
    convergence_window: int = 50
    max_steps: int = 200_000
    time_horizon: float = np.inf
    dt_floor: float = 1e-16
    area_floor_fraction: float = 1e-3
    blowup_threshold: float = 1e4          # on sup|A|^2 * A
    record_every: int = 1
    remesh_enabled: bool = True
    remesh_min_angle: float = np.deg2rad(10.0)
    remesh_edge_drift: float = 2.0

    def __post_init__(self):
        if not (0 < self.dt_shrink < 1 < self.dt_growth):
            raise ValueError("need 0 < dt_shrink < 1 < dt_growth")
        # written as "not > 0" so that NaN fails too
        for name in ("dt_init", "curvature_dt_coeff", "convergence_window",
                     "max_steps", "time_horizon", "dt_floor",
                     "area_floor_fraction", "blowup_threshold", "record_every"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("energy_increase_tol_rel", "remesh_min_angle"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")
        if self.gradient_tol is not None and not self.gradient_tol > 0:
            raise ValueError("gradient_tol must be positive (or None)")
        # At or below 1 the accepted band of mean edge lengths is empty.
        if not self.remesh_edge_drift > 1:
            raise ValueError("remesh_edge_drift must be > 1")


@dataclass
class FlowState:
    """The evolving object: time, mesh, geometry cache, and step statistics."""

    t: float
    mesh: TriangleMesh
    cache: GeometryCache
    dt: float
    step_index: int = 0
    rejected_steps: int = 0
    energy0: float = 0.0
    last_step_accepted: bool = True
    rate_norm: float = np.nan   # L2(dmu) norm of the realized dt f


@dataclass
class TimeSeriesRecord:
    """One monitoring sample; the CSV schema follows the field order."""

    t: float
    dt: float
    area: float
    volume: float
    willmore: float
    w0: float
    helfrich: float
    penalized: float
    int_H: float
    sup_Asq: float
    grad_l2: float
    clamp_mass: float
    step_rejections: int


CSV_COLUMNS = tuple(f.name for f in fields(TimeSeriesRecord))


@dataclass
class TerminationReport:
    """Why a run stopped, with the evidence backing the classification."""

    reason: str
    final_time: float
    steps: int
    rejected_steps: int
    final_energies: dict
    evidence: dict

    def __post_init__(self):
        if self.reason not in TERMINATION_REASONS:
            raise ValueError(f"unknown termination reason {self.reason!r}")


# ---------------------------------------------------------------------------
# semi-implicit solver
# ---------------------------------------------------------------------------


class ImplicitSolver:
    """Solves the stabilized implicit system in update form, where its
    add-subtract terms cancel: ``(M + dt L M^-1 L) delta = b = dt M xi nu``.

    With ``s = sqrt(dt)`` the operator is ``(M + i s L) M^-1 (M - i s L)``,
    so ``delta = Re[(M + i s L)^-1 b]``, a complex-symmetric system with
    about the square root of the condition number.  COCG (van der Vorst &
    Melissen, IEEE Trans. Magn. 26 (1990) 706), Jacobi-preconditioned by
    ``1/(a + i s L_ii)``, solves the stacked system ``diag(A, A, A)`` on a
    complex ``(3, n)`` array, one product with :func:`shifted_block` and one
    step length per iteration.  It stops once, at one iterate, every row's
    real residual ``Re r + s L M^-1 Im r`` is within ``CG_RTOL |b|`` of that
    row.  A breakdown, ``CG_MAXITER`` or non-finite positions raise
    :class:`SolverError`.  The solve is a pure function of the state at any
    BLAS thread count; ``sqrt`` is exact under parabolic rescaling by powers
    of two.
    """

    def solve(self, vertices: np.ndarray, areas: np.ndarray,
              laplacian: sparse.csr_matrix, dt: float, velocity: np.ndarray,
              pattern: LaplacianPattern) -> np.ndarray:
        """New ``(n, 3)`` positions; ``laplacian`` is filled on ``pattern``."""
        rhs = dt * (areas * np.ascontiguousarray(velocity.T))
        # The stopping test squares the right-hand side; past the float
        # range it would stop at once and return a zero update.
        if not np.isfinite(np.einsum("ij,ij->", rhs, rhs)):
            raise SolverError("right-hand side out of floating-point range")
        out = vertices + self._cocg(
            *shifted_operator(areas, laplacian, np.sqrt(dt), pattern), rhs).T
        if not np.all(np.isfinite(out)):
            raise SolverError("linear solve produced non-finite positions")
        return out

    def _cocg(self, apply, real_residual, diagonal, rhs):
        """``Re[A^-1 rhs]`` for complex-symmetric ``A``, one COCG on all rows
        stacked; the iterates are updated in place, in buffers made once."""
        inv_diag = 1.0 / diagonal
        tol_sq = (CG_RTOL ** 2) * np.einsum("ij,ij->i", rhs, rhs)
        check_sq = tol_sq.copy()
        x = np.zeros(rhs.shape)   # Re x alone: no bit of it reads Im x
        r = rhs.astype(np.complex128)
        r_parts = r.view(np.float64)
        p = inv_diag * r
        z = np.empty_like(p)   # also the scratch of the x and r updates
        r_flat, z_flat, p_flat = r.ravel(), z.ravel(), p.ravel()   # views
        rho = _dot(r_flat, p_flat)
        for _ in range(CG_MAXITER):
            r_sq = np.einsum("ij,ij->i", r_parts, r_parts)
            if (r_sq <= check_sq).all():
                res = real_residual(r)
                real_sq = np.einsum("ij,ij->i", res, res)
                failed = real_sq > tol_sq
                if not failed.any():
                    return x
                # recheck a failed row once |r| falls by its real/complex ratio
                check_sq[failed] = (r_sq * tol_sq)[failed] / real_sq[failed]
            q = apply(p)
            mu = _dot(p_flat, q.ravel())
            if mu == 0 or rho == 0 or not cmath.isfinite(mu):
                raise SolverError("COCG broke down")
            alpha = rho / mu
            x += np.multiply(alpha, p, out=z).real
            r -= np.multiply(alpha, q, out=z)
            del q   # before the next product allocates its own
            np.multiply(inv_diag, r, out=z)
            rho, rho_old = _dot(r_flat, z_flat), rho
            p *= rho / rho_old
            p += z
        raise SolverError(f"COCG did not converge in {CG_MAXITER} iterations")


def _dot(u, v) -> complex:
    """Unconjugated ``u . v`` of flat arrays, longer ones in pieces of 8192:
    OpenBLAS threads a complex dot product over 10000 entries, and its bits
    then vary with the threads."""
    if len(u) <= 8192:
        return complex(np.dot(u, v))
    return sum(complex(np.dot(u[k:k + 8192], v[k:k + 8192]))
               for k in range(0, len(u), 8192))


def shifted_block(areas, laplacian, s, pattern) -> sparse.csr_matrix:
    """``diag(A, A, A)`` for ``A = M + i s L`` as one complex ``csr_matrix``:
    ``i s L.data`` on ``pattern.block_layout``, the areas on its diagonal."""
    data = np.multiply(1j * s, laplacian.data,
                       out=np.empty((3, laplacian.nnz), dtype=np.complex128))
    data.real[:, pattern.diagonal] = areas   # the real part was zero
    return sparse.csr_matrix((data.ravel(), *pattern.block_layout),
                             shape=(3 * len(areas),) * 2)


def shifted_operator(areas, laplacian, s, pattern):
    """``P -> A P`` on complex C-ordered ``(3, n)`` arrays, one product of
    :func:`shifted_block` with the flattened ``P``; the real residual
    ``Re r + s L M^-1 Im r`` of a residual ``r`` of ``A``, by one real product
    of ``s L`` with the three rows (``s L.data`` is the imaginary part of the
    block's data, all that ``Im(A y)`` reads for a real ``y``: the same bits);
    and ``diag(A)``."""
    op = shifted_block(areas, laplacian, s, pattern)
    s_laplacian = sparse.csr_matrix((np.multiply(s, laplacian.data),
                                     laplacian.indices, laplacian.indptr),
                                    shape=laplacian.shape)

    def apply(p):
        return (op @ p.ravel()).reshape(p.shape)

    def real_residual(r):
        return r.real + (s_laplacian @ (r.imag / areas).T).T

    return apply, real_residual, op.data[pattern.diagonal]


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def init_state(mesh: TriangleMesh, params: FlowParams,
               policy: SteppingPolicy) -> FlowState:
    """Build the starting state; the mesh must be oriented for volume >= 0."""
    cache = build_cache(mesh, params)
    if cache.signed_volume < -orientation_tolerance(mesh):
        raise FlowError(
            f"initial mesh has negative signed volume {cache.signed_volume:.3e}; "
            "apply orient_for_positive_volume first"
        )
    return FlowState(
        t=0.0, mesh=mesh, cache=cache, dt=policy.dt_init,
        energy0=cache.penalized,
    )


def step(state: FlowState, params: FlowParams,
         policy: SteppingPolicy) -> FlowState:
    """One stepping attempt.

    On acceptance: positions advance, t increases by the (possibly capped) dt,
    and dt grows for the next attempt.  On rejection (energy increased beyond
    tolerance, the semi-implicit solve failed, or the trial positions do not
    form a valid mesh or geometry):
    the geometry is unchanged, dt shrinks, and the rejection counter
    increments.  The caller decides what a too-small dt means.
    """
    cache = state.cache
    if cache.penalized is None or cache.params != params:
        cache = build_cache(state.mesh, params)
        state = replace(state, cache=cache)
    dt = min(state.dt,
             policy.curvature_dt_coeff / max(cache.sup_Asq, 1e-300) ** 2)

    xi = flow_velocity(cache, params)
    velocity = xi[:, None] * cache.normals
    v_old = state.mesh.vertices

    # A trial that overflows is judged by the checks below, not by warnings.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            v_new = ImplicitSolver().solve(
                v_old, cache.vertex_areas, cache.laplacian, dt, velocity,
                state.mesh.topology.laplacian_pattern(len(v_old)))
            new_mesh = state.mesh.with_vertices(v_new)
            new_cache = build_cache(new_mesh, params)
    except (SolverError, GeometryError, MeshError) as exc:
        logger.debug("trial step at dt=%.3e rejected: %s", dt, exc)
        new_cache = None
    # the rounding bounds are formed only when the tolerance does not decide
    if new_cache is not None and (
            (rise := new_cache.penalized - cache.penalized)
            <= policy.energy_increase_tol_rel * abs(state.energy0)
            or rise <= cache.penalized_roundoff + new_cache.penalized_roundoff):
        rate = (v_new - v_old) / dt
        rate_norm = float(
            np.sqrt(np.sum(np.einsum("ij,ij->i", rate, rate)
                           * new_cache.vertex_areas))
        )
        return replace(
            state,
            t=state.t + dt,
            mesh=new_mesh,
            cache=new_cache,
            dt=dt * policy.dt_growth,
            step_index=state.step_index + 1,
            last_step_accepted=True,
            rate_norm=rate_norm,
        )
    return replace(
        state,
        dt=dt * policy.dt_shrink,
        rejected_steps=state.rejected_steps + 1,
        last_step_accepted=False,
    )


def _make_record(state: FlowState, grad_l2: float) -> TimeSeriesRecord:
    c = state.cache
    return TimeSeriesRecord(
        t=state.t,
        dt=state.dt,
        area=c.area,
        volume=c.signed_volume,
        willmore=c.willmore,
        w0=c.w0,
        helfrich=c.helfrich,
        penalized=c.penalized,
        int_H=mean_curvature_integral(c),
        sup_Asq=c.sup_Asq,
        grad_l2=grad_l2,
        clamp_mass=c.clamp_mass,
        step_rejections=state.rejected_steps,
    )


def _initial_rate_norm(state: FlowState, params: FlowParams) -> float:
    xi = flow_velocity(state.cache, params)
    return float(np.sqrt(np.sum(xi * xi * state.cache.vertex_areas)))


def run_flow(initial: TriangleMesh, params: FlowParams, policy: SteppingPolicy,
             sinks=()):
    """Iterate :func:`step` until termination.

    ``sinks`` are callables ``sink(state, record)`` invoked on every emitted
    record (immutable snapshots; safe to process concurrently).  Returns the
    list of records and a :class:`TerminationReport`; its
    ``evidence["remeshes"]`` lists every remesh with its step, time, vertex
    counts and penalized energy before and after.
    """
    state = init_state(initial, params, policy)
    area0 = state.cache.area
    target_edge0 = state.cache.mean_edge
    records: list[TimeSeriesRecord] = []
    remeshes: list[dict] = []
    below_tol_streak = 0
    reason = None

    def emit(st: FlowState, grad: float):
        rec = _make_record(st, grad)
        records.append(rec)
        for sink in sinks:
            sink(st, rec)

    emit(state, _initial_rate_norm(state, params))

    while True:
        if state.cache.area < policy.area_floor_fraction * area0:
            reason = "singular_area_collapse"
            break
        if state.t >= policy.time_horizon:
            reason = "horizon_reached"
            break
        if state.step_index + state.rejected_steps >= policy.max_steps:
            reason = "step_budget"
            break
        if np.isfinite(policy.time_horizon):
            room = policy.time_horizon - state.t
            if room <= 1e-15 * policy.time_horizon:
                reason = "horizon_reached"
                break
            if state.dt > room:
                state = replace(state, dt=room)

        state = step(state, params, policy)

        if not state.last_step_accepted:
            if state.dt < policy.dt_floor:
                blown = state.cache.sup_Asq * state.cache.area
                reason = ("singular_curvature_blowup"
                          if blown > policy.blowup_threshold else "dt_collapse")
                break
            continue

        # Scale-adaptive target keeps resolution relative to sqrt(area); for
        # a uniformly shrinking surface the ratio never drifts and no remesh
        # fires.
        target = target_edge0 * np.sqrt(max(state.cache.area / area0, 1e-300))
        if policy.remesh_enabled and _needs_remesh(state, policy, target):
            before = state
            state = _apply_remesh(state, params, target, policy)
            remeshes.append({
                "step": state.step_index,
                "t": state.t,
                "vertices_before": before.mesh.n_vertices,
                "vertices_after": state.mesh.n_vertices,
                "penalized_before": before.cache.penalized,
                "penalized_after": state.cache.penalized,
            })

        if state.step_index % policy.record_every == 0:
            emit(state, state.rate_norm)

        if policy.gradient_tol is not None:
            below_tol_streak = (below_tol_streak + 1
                                if state.rate_norm < policy.gradient_tol else 0)
            if below_tol_streak >= policy.convergence_window:
                reason = "converged"
                break

    if records and records[-1].t != state.t:
        emit(state, state.rate_norm)

    report = _build_report(state, records, reason, area0, remeshes)
    logger.info("flow terminated: %s at t=%.6g after %d steps (%d rejected)",
                report.reason, report.final_time, report.steps,
                report.rejected_steps)
    return records, report


def _needs_remesh(state: FlowState, policy: SteppingPolicy,
                  target: float) -> str | None:
    """The one mesh-quality test: the measure the mesh fails, ``"mean edge"``
    (off ``target`` by more than ``remesh_edge_drift``) or ``"min angle"``
    (below ``remesh_min_angle``), or ``None``."""
    drift = policy.remesh_edge_drift
    if not (target / drift <= state.cache.mean_edge <= target * drift):
        return "mean edge"
    if state.cache.min_angle < policy.remesh_min_angle:
        return "min angle"
    return None


def _apply_remesh(state: FlowState, params: FlowParams, target: float,
                  policy: SteppingPolicy) -> FlowState:
    """Remesh toward ``target``; warn if the output fails the quality test."""
    from .remesh import remesh

    logger.info("remeshing at t=%.6g (target edge %.4g)", state.t, target)
    new_mesh = remesh(state.mesh, target)
    state = replace(state, mesh=new_mesh, cache=build_cache(new_mesh, params))
    if failed := _needs_remesh(state, policy, target):
        logger.warning("remeshed mesh fails the %s test: mean edge %.4g, target "
                       "%.4g, min angle %.3g rad", failed, state.cache.mean_edge,
                       target, state.cache.min_angle)
    return state


def _build_report(state: FlowState, records, reason, area0, remeshes):
    c = state.cache
    tail = records[-10:]
    area_trend = tail[-1].area - tail[0].area if len(tail) >= 2 else 0.0
    asq_trend = tail[-1].sup_Asq - tail[0].sup_Asq if len(tail) >= 2 else 0.0
    return TerminationReport(
        reason=reason,
        final_time=state.t,
        steps=state.step_index,
        rejected_steps=state.rejected_steps,
        final_energies={
            "area": c.area,
            "volume": c.signed_volume,
            "willmore": c.willmore,
            "w0": c.w0,
            "helfrich": c.helfrich,
            "penalized": c.penalized,
        },
        evidence={
            "gradient_norm": state.rate_norm,
            "area_ratio": c.area / area0,
            "area_trend": area_trend,
            "sup_Asq": c.sup_Asq,
            "sup_Asq_trend": asq_trend,
            "sup_Asq_times_area": c.sup_Asq * c.area,
            "final_dt": state.dt,
            "remesh_count": len(remeshes),
            "remeshes": remeshes,
        },
    )

