"""The reference workloads: their inputs and the check every run must pass.

Three workloads are flows run through ``helflow --quiet flow``; one drives
the blow-up diagnostics (``FrameSink`` and ``classify_singularity``) on
prepared snapshots.  The checks use closed-form oracles written out here, not
helflow's own ``sphere_ode`` module.
"""

import csv
import json
import math
import os
from dataclasses import dataclass, field

FOUR_PI = 4.0 * math.pi

T_TOL_REL = 0.10          # acceptance criterion 03: extinction time
R_TOL = 0.02              # acceptance criterion 02: equilibrium radius
WILLMORE_TOL_REL = 0.05   # round-shrinker band of classify_singularity
ENERGY_TOL_REL = 1e-10    # default policy.energy_increase_tol_rel
MIN_FRAMES = 3

EXTINCTION_AREA_FLOOR = 0.1
ELLIPSOID_STRETCH = 6.0
# The first remesh comes at step 67; the budget leaves room for it to move
# later and still stops before the second one (step 112).
ELLIPSOID_MAX_STEPS = 90

# frames-ico4: snapshot k has area A0 * FRAME_AREA_RATIO**k (measured, so
# each one is below the next area halving FrameSink waits for).
FRAME_LEVEL = 4
FRAME_AMPLITUDES = (0.04, 0.02, 0.01, 0.005)
FRAME_AREA_RATIO = 0.45


def extinction_time(area_fraction):
    """Time for the round unit sphere (c0 = -1, lambda = 0) to reach the
    given fraction of its area.

    With r' = -(2 + r) / r^2, t(r) = F(1) - F(r) for
    F(r) = r^2/2 - 2r + 4 ln(2 + r); at r = 0 this is -1.5 + 4 ln 1.5.
    """
    def F(r):
        return 0.5 * r * r - 2.0 * r + 4.0 * math.log(2.0 + r)
    return F(1.0) - F(math.sqrt(area_fraction))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "flow" or "frames"
    why: str
    config: str = ""               # flow config; {seed} is filled in
    exit_codes: tuple = ()
    reason: tuple = ()
    energy_may_rise_at_remesh: bool = False
    min_frames: int = 0
    min_remeshes: int = 0
    # Deterministic counts of the parent commit; a mismatch is reported,
    # it does not fail the run (a numerics change may move it).
    reference: dict = field(default_factory=dict)


WORKLOADS = {
    "extinction-ico3": Workload(
        name="extinction-ico3", kind="flow",
        why="many cheap small-dt steps: per-step overhead (topology, "
            "remesh trigger, cache rebuild, CSV row) dominates",
        config=(
            "mesh.icosphere.subdivisions = 3\n"
            "mesh.icosphere.radius = 1\n"
            "params.c0 = -1\n"
            "params.lambda = 0\n"
            f"policy.area_floor_fraction = {EXTINCTION_AREA_FLOOR}\n"
            "diagnostics.frames = on\n"
            "seed = {seed}\n"),
        exit_codes=(2,), reason=("singular_area_collapse",),
        min_frames=MIN_FRAMES,
        reference={"accepted_steps": 178, "rejected_steps": 0,
                   "frames_emitted": 3}),
    "equilibrium-ico4": Workload(
        name="equilibrium-ico4", kind="flow",
        why="few large-dt implicit solves on 2562 vertices: the linear "
            "solver dominates a run checked against r* = 1",
        config=(
            "mesh.icosphere.subdivisions = 4\n"
            "mesh.icosphere.radius = 1.004\n"
            "params.c0 = 1\n"
            "params.lambda = 0.5\n"
            "policy.gradient_tol = 2e-2\n"
            "policy.convergence_window = 10\n"
            "policy.time_horizon = 50\n"
            "seed = {seed}\n"),
        exit_codes=(0,), reason=("converged",),
        reference={"accepted_steps": 47, "rejected_steps": 0,
                   "frames_emitted": 0}),
    "ellipsoid-remesh-ico3": Workload(
        name="ellipsoid-remesh-ico3", kind="flow",
        why="the only workload whose topology changes mid-run: remeshing "
            "runs and any per-topology cache must be rebuilt",
        config=(
            "mesh.path = ellipsoid.off\n"
            "params.c0 = 1\n"
            "params.lambda = 0.5\n"
            f"policy.max_steps = {ELLIPSOID_MAX_STEPS}\n"
            "seed = {seed}\n"),
        exit_codes=(0, 3),
        reason=("converged", "horizon_reached", "step_budget"),
        energy_may_rise_at_remesh=True, min_remeshes=1,
        reference={"accepted_steps": ELLIPSOID_MAX_STEPS,
                   "rejected_steps": 0,
                   "frames_emitted": 0, "remesh_count": 1}),
    "frames-ico4": Workload(
        name="frames-ico4", kind="frames",
        why="the blow-up diagnostics alone, where the O(n^2) kappa scan "
            "dominates; no stepping, so solver and topology work is absent",
        min_frames=MIN_FRAMES,
        reference={"frames_emitted": 3}),
}


def write_ellipsoid_off(path):
    """icosphere(3) stretched along z, written as an OFF file."""
    from helflow.mesh import make_icosphere

    mesh = make_icosphere(3, 1.0)
    lines = ["OFF", f"{mesh.n_vertices} {mesh.n_faces} 0"]
    for x, y, z in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g} {ELLIPSOID_STRETCH * z:.17g}")
    for a, b, c in mesh.faces:
        lines.append(f"3 {a} {b} {c}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def frame_snapshot_radii(seed):
    """Radii that give snapshot k exactly A0 * FRAME_AREA_RATIO**k.

    The area of a perturbed sphere depends on its seed, so fixed radii can
    leave a snapshot above the next halving and skip a frame.
    """
    from helflow.geometry import build_cache
    from helflow.validate import perturbed_sphere

    areas = [build_cache(perturbed_sphere(seed, FRAME_LEVEL, amp)).area
             for amp in FRAME_AMPLITUDES]
    return [math.sqrt(areas[0] * FRAME_AREA_RATIO ** k / a)
            for k, a in enumerate(areas)]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one run produced, and what was wrong with it."""

    accepted_steps: int | None = None
    rejected_steps: int | None = None
    frames_emitted: int | None = None
    remesh_count: int = 0
    oracle_rel_err: float | None = None
    errors: list = field(default_factory=list)


def _rising_rows(series_path):
    """Rows of series.csv whose penalized energy rose by more than the
    accepted-step tolerance, 1e-10 of E0."""
    with open(series_path, newline="", encoding="utf-8") as fh:
        energy = [float(row["penalized"]) for row in csv.DictReader(fh)]
    tol = ENERGY_TOL_REL * abs(energy[0])
    return sum(1 for a, b in zip(energy, energy[1:]) if b - a > tol)


def check_flow(wl, out_dir, exit_code):
    """Check one flow run from its exit code, summary.json and series.csv."""
    out = Outcome()
    if exit_code not in wl.exit_codes:
        out.errors.append(f"exit code {exit_code}, expected {wl.exit_codes}")
    try:
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        rising = _rising_rows(os.path.join(out_dir, "series.csv"))
        return check_summary(wl, summary, rising, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        out.errors.append(f"unreadable outputs: {exc!r}")
        return out


def check_summary(wl, summary, rising_rows, out=None):
    out = out or Outcome()
    term = summary["termination"]
    out.accepted_steps = term["steps"]
    out.rejected_steps = term["rejected_steps"]
    out.frames_emitted = summary["n_frames"]
    out.remesh_count = term["evidence"]["remesh_count"]
    if term["reason"] not in wl.reason:
        out.errors.append(f"reason {term['reason']!r}, expected {wl.reason}")

    if wl.name == "extinction-ico3":
        t_star = extinction_time(EXTINCTION_AREA_FLOOR)
        out.oracle_rel_err = abs(term["final_time"] - t_star) / t_star
        if not out.oracle_rel_err <= T_TOL_REL:
            out.errors.append(f"T = {term['final_time']:.6g} is "
                              f"{out.oracle_rel_err:.2%} from {t_star:.6g}")
    elif wl.name == "equilibrium-ico4":
        radius = math.sqrt(term["final_energies"]["area"] / FOUR_PI)
        out.oracle_rel_err = abs(radius - 1.0)
        if not out.oracle_rel_err <= R_TOL:
            out.errors.append(f"radius {radius:.6g} is not within {R_TOL} of 1")

    if wl.min_frames:
        verdict = (summary.get("classification") or {}).get("verdict")
        if out.frames_emitted < wl.min_frames or verdict != "round_shrinker":
            out.errors.append(f"{out.frames_emitted} frames, verdict {verdict!r}")

    if out.remesh_count < wl.min_remeshes:
        out.errors.append(f"{out.remesh_count} remeshes, "
                          f"expected at least {wl.min_remeshes}")

    # A remesh swaps the surface without an energy check (ROADMAP item 4c),
    # so each one may raise the energy once.
    allowed = out.remesh_count if wl.energy_may_rise_at_remesh else 0
    if rising_rows > allowed:
        out.errors.append(f"energy rose on {rising_rows} rows "
                          f"(allowed {allowed})")
    return out


def check_frames(wl, result):
    """Check the frames workload from the values the run reported."""
    out = Outcome(frames_emitted=len(result["willmore"]))
    out.oracle_rel_err = max((abs(w - FOUR_PI) / FOUR_PI
                              for w in result["willmore"]), default=math.inf)
    if out.frames_emitted < wl.min_frames:
        out.errors.append(f"{out.frames_emitted} frames, "
                          f"expected at least {wl.min_frames}")
    if result["verdict"] != "round_shrinker":
        out.errors.append(f"verdict {result['verdict']!r}")
    if not out.oracle_rel_err <= WILLMORE_TOL_REL:
        out.errors.append(f"frame Willmore {out.oracle_rel_err:.2%} from 4 pi")
    return out
