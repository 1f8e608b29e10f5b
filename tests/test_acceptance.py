"""Acceptance gate: every criterion at its stated tolerance, one line each.

The three reference flows (stationary, equilibrium attraction, finite-time
extinction) run once as module-scoped fixtures and several criteria read
their series.  Each test prints `ACCEPTANCE nn [PASS|FAIL] ...` before
asserting, so a full run yields one line per criterion.
"""

import time

import numpy as np
import pytest

from helflow.diagnostics import FrameSink, classify_singularity, kappa_profile
from helflow.flow import SteppingPolicy, run_flow
from helflow.geometry import FlowParams, build_cache, first_variation_check, \
    penalized_energy
from helflow.mesh import make_icosphere, make_tetrahedron, make_torus
from helflow.sphere_ode import (extinction_time_closed_form,
                                integrate_sphere_ode, sphere_energy,
                                theory_bounds)
from helflow.validate import (fd_order_estimate, perturbed_sphere,
                              random_params, smooth_test_field)

FOUR_PI = 4 * np.pi
EIGHT_PI = 8 * np.pi
T_EXTINCTION = -1.5 + 4.0 * np.log(1.5)   # closed-form oracle, (c0,lam)=(-1,0)


def report(num, ok, desc, detail):
    line = f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}: {detail}"
    print(line)
    assert ok, line


def mean_radius(vertices):
    v = np.asarray(vertices)
    c = v.mean(axis=0)
    return float(np.linalg.norm(v - c, axis=1).mean())


# ---------------------------------------------------------------------------
# shared reference runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def run_stationary():
    params = FlowParams(2.0, 0.0)
    policy = SteppingPolicy(time_horizon=1.0, max_steps=5000)
    holder = {}
    t0 = time.monotonic()
    records, rep = run_flow(make_icosphere(4, 1.0), params, policy,
                            sinks=[lambda s, r: holder.update(state=s)])
    return {"records": records, "report": rep, "state": holder["state"],
            "runtime": time.monotonic() - t0, "params": params}


@pytest.fixture(scope="module")
def run_equilibrium():
    params = FlowParams(1.0, 0.5)
    out = {}
    for r0 in (0.6, 1.5):
        policy = SteppingPolicy(gradient_tol=2e-2, time_horizon=50.0,
                                max_steps=20_000)
        holder = {}
        records, rep = run_flow(make_icosphere(4, r0), params, policy,
                                sinks=[lambda s, r: holder.update(state=s)])
        out[r0] = {"records": records, "report": rep,
                   "state": holder["state"]}
    out["params"] = params
    return out


@pytest.fixture(scope="module")
def run_extinction():
    params = FlowParams(-1.0, 0.0)
    # floor just below A0/1024 so the tenth area-halving frame is emitted
    policy = SteppingPolicy(max_steps=20_000, area_floor_fraction=9e-4)
    frames = FrameSink(params)
    holder = {}
    records, rep = run_flow(make_icosphere(4, 1.0), params, policy,
                            sinks=[frames, lambda s, r: holder.update(state=s)])
    return {"records": records, "report": rep, "frames": frames.frames,
            "state": holder["state"], "params": params}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_stationary_hopf_sphere(run_stationary):
    rep = run_stationary["report"]
    v = np.asarray(run_stationary["state"].mesh.vertices)
    deviation = float(np.abs(np.linalg.norm(v, axis=1) - 1.0).max())
    runtime = run_stationary["runtime"]
    ok = (rep.final_time >= 1.0 - 1e-12 and deviation <= 0.01
          and runtime <= 60.0)
    report(1, ok, "stationary sphere (c0=2, lam=0) to t=1",
           f"max radial deviation {deviation:.2e} (tol 1e-2), "
           f"runtime {runtime:.1f}s (cap 60s), reason={rep.reason}")


def test_criterion_02_equilibrium_attraction(run_equilibrium):
    params = run_equilibrium["params"]
    details = []
    ok = True
    for r0 in (0.6, 1.5):
        run = run_equilibrium[r0]
        rep, records = run["report"], run["records"]
        state = run["state"]
        r_final = mean_radius(state.mesh.vertices)
        w0_final = state.cache.w0
        sol = integrate_sphere_ode(r0, params, horizon=rep.final_time + 1.0)
        worst_e = max(
            abs(r.penalized - sphere_energy(max(sol.radius_at(r.t), 1e-12),
                                            params))
            / sphere_energy(max(sol.radius_at(r.t), 1e-12), params)
            for r in records
        )
        case_ok = (rep.reason == "converged" and abs(r_final - 1.0) <= 0.02
                   and w0_final < 1e-3 and worst_e <= 0.03)
        ok &= case_ok
        details.append(f"r0={r0}: {rep.reason}, radius {r_final:.4f}, "
                       f"w0 {w0_final:.1e}, energy-vs-ODE {worst_e:.2%}")
    report(2, ok, "equilibrium attraction (c0=1, lam=0.5) -> r*=1",
           "; ".join(details))


def test_criterion_03_finite_time_extinction(run_extinction):
    rep = run_extinction["report"]
    frames = run_extinction["frames"]
    t_rel = abs(rep.final_time - T_EXTINCTION) / T_EXTINCTION
    bounds = theory_bounds(run_extinction["params"],
                           e0=run_extinction["records"][0].penalized)
    cls = classify_singularity(frames, rep.reason)
    last_w = [f.willmore for f in frames[-5:]]
    w_near = all(abs(w - FOUR_PI) <= 0.05 * FOUR_PI for w in last_w)
    excess = [abs(w - FOUR_PI) for w in last_w]
    trending = all(b <= a + 1e-3 * FOUR_PI for a, b in zip(excess, excess[1:]))
    ok = (rep.reason == "singular_area_collapse" and t_rel <= 0.10
          and rep.final_time < bounds.t_bound
          and cls.verdict == "round_shrinker" and w_near and trending)
    report(3, ok, "finite-time extinction (c0=-1, lam=0)",
           f"T={rep.final_time:.6f} vs {T_EXTINCTION:.6f} ({t_rel:.2%}, tol 10%), "
           f"T_bound={bounds.t_bound:.0f}, verdict={cls.verdict}, "
           f"W(last) within {max(excess)/FOUR_PI:.2%} of 4pi")


def test_criterion_04_energy_monotonicity(run_stationary, run_equilibrium,
                                          run_extinction):
    worst = -np.inf
    for records in (run_stationary["records"],
                    run_equilibrium[0.6]["records"],
                    run_equilibrium[1.5]["records"],
                    run_extinction["records"]):
        e0 = records[0].penalized
        for a, b in zip(records, records[1:]):
            worst = max(worst, (b.penalized - a.penalized) / e0)
    ok = worst <= 1e-10
    report(4, ok, "energy monotonicity across criteria 1-3 series",
           f"worst per-step increase {worst:.2e} * E0 (tol 1e-10)")


def test_criterion_05_willmore_control(run_equilibrium):
    ok = True
    details = []
    for r0 in (0.6, 1.5):
        records = run_equilibrium[r0]["records"]
        bound = 2.0 * records[0].penalized + 1e-6
        worst = max(r.willmore - bound for r in records)
        ok &= worst <= 0
        details.append(f"r0={r0}: max(W - 2 E0) = {worst:.2e}")
    report(5, ok, "Willmore control W <= 2 * E0 + 1e-6 along criterion-2 runs",
           "; ".join(details))


def test_criterion_06_exact_discrete_identities():
    meshes = [make_tetrahedron(), make_torus()]
    meshes += [make_icosphere(lvl, 1.0) for lvl in range(6)]
    worst_gb = 0.0
    identity_exact = True
    for mesh in meshes:
        cache = build_cache(mesh)
        total = float(np.sum(cache.K * cache.vertex_areas))
        worst_gb = max(worst_gb,
                       abs(total - 2 * np.pi * mesh.euler_characteristic))
        identity_exact &= np.array_equal(cache.Asq,
                                         cache.A0sq + 0.5 * cache.H * cache.H)
    rng = np.random.default_rng(0)
    worst_rescale = 0.0
    for k in range(20):
        mesh = perturbed_sphere(k, 2, float(rng.uniform(0.0, 0.08)))
        params = random_params(rng)
        e = penalized_energy(build_cache(mesh), params)
        for r in (0.5, 1.0, 2.0, 5.0):
            e_r = penalized_energy(build_cache(mesh.scaled(1.0 / r)),
                                   params.rescaled(r))
            worst_rescale = max(worst_rescale, abs(e_r - e) / abs(e))
    ok = worst_gb <= 1e-10 and identity_exact and worst_rescale <= 1e-12
    report(6, ok, "exact discrete identities",
           f"Gauss-Bonnet worst {worst_gb:.2e} (tol 1e-10), "
           f"|A|^2 identity exact: {identity_exact}, "
           f"rescaling identity worst {worst_rescale:.2e} (tol 1e-12)")


def test_criterion_07_first_variation_oracle():
    mesh = make_icosphere(4, 1.0)
    params = FlowParams(1.0, 0.3)
    worst = {"area": 0.0, "volume": 0.0, "helfrich": 0.0}
    tols = {"area": 1e-6, "volume": 2e-3, "helfrich": 2e-3}
    min_order = np.inf
    for k in range(5):
        phi = smooth_test_field(mesh, k)
        scale = float(np.sum(np.abs(phi)))
        for fn in worst:
            analytic, fd = first_variation_check(mesh, params, phi, fn)
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-3 * scale)
            worst[fn] = max(worst[fn], rel)
            order, _ = fd_order_estimate(mesh, params, phi, fn)
            min_order = min(min_order, order)
    ok = min_order >= 1.9 and all(worst[f] <= tols[f] for f in worst)
    report(7, ok, "first-variation oracle on icosphere(4), 5 random fields",
           f"rel dev area {worst['area']:.1e}, volume {worst['volume']:.1e}, "
           f"helfrich {worst['helfrich']:.1e}; min FD order {min_order:.2f} "
           "(>= 1.9 required)")


def test_criterion_08_trajectory_rescaling_equivariance():
    params = FlowParams(-1.0, 0.0)
    n_steps, every = 200, 20
    policy = SteppingPolicy(max_steps=n_steps)
    twin_policy = SteppingPolicy(max_steps=n_steps,
                                 dt_init=policy.dt_init / 16.0)
    mesh = make_icosphere(4, 1.0)
    radii_a, radii_b = [], []

    def keep(acc):
        def sink(state, record):
            if state.step_index % every == 0 and state.step_index > 0:
                acc.append(mean_radius(state.mesh.vertices))
        return sink

    run_flow(mesh, params, policy, sinks=[keep(radii_a)])
    run_flow(mesh.scaled(0.5), FlowParams(-2.0, 0.0), twin_policy,
             sinks=[keep(radii_b)])
    n = min(len(radii_a), len(radii_b))
    worst = max(abs(a / 2.0 - b) / b for a, b in zip(radii_a[:n], radii_b[:n]))
    ok = n >= 10 and worst <= 1e-6
    report(8, ok, "trajectory rescaling equivariance (r=2 twin, dt/16)",
           f"worst relative radius deviation {worst:.2e} at {n} checkpoints "
           "(tol 1e-6)")


def test_criterion_09_kappa_diagnostics(run_extinction):
    mesh = make_icosphere(5, 1.0)
    cache = build_cache(mesh)
    grid = np.linspace(0.5, 2.75, 10)
    prof = kappa_profile(mesh, cache, grid)
    worst = max(
        abs(k - min(2 * np.pi * r * r, EIGHT_PI)) / min(2 * np.pi * r * r,
                                                        EIGHT_PI)
        for r, k in zip(prof.radii, prof.kappa)
    )
    frames = run_extinction["frames"][-10:]
    # r_t^2 / A(f(t)) = 1 / area(rescaled frame)
    ratios = [1.0 / build_cache(f.rescaled_mesh).area for f in frames]
    band = max(ratios) / min(ratios)
    # every frame leaves a parabolic-time margin before the run's extinction
    t_end = run_extinction["report"].final_time
    margin_ok = all(f.t + 0.01 * f.r ** 4 < t_end
                    for f in run_extinction["frames"])
    ok = worst <= 0.05 and len(frames) >= 3 and band <= 5.0 and margin_ok
    report(9, ok, "kappa diagnostics",
           f"unit-sphere kappa worst dev {worst:.2%} (tol 5%) on 10 radii; "
           f"r_t^2/A band factor {band:.2f} over last {len(frames)} frames "
           f"(tol 5); frame time margins hold: {margin_ok}")


def test_criterion_10_ode_oracle_self_consistency():
    rng = np.random.default_rng(123)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(50):
        r0 = float(rng.uniform(0.1, 3.0))
        params = FlowParams(float(rng.uniform(-3.0, -0.1)),
                            float(rng.uniform(0.0, 2.0)))
        t_exact = extinction_time_closed_form(r0, params)
        sol = integrate_sphere_ode(r0, params, horizon=10 * t_exact + 1.0)
        worst = max(worst, abs(sol.extinction_time - t_exact) / t_exact)
    runtime = time.monotonic() - t0
    ok = worst <= 1e-8 and runtime <= 10.0
    report(10, ok, "ODE oracle self-consistency (50 random shrink cases)",
           f"worst rel deviation {worst:.2e} (tol 1e-8), "
           f"runtime {runtime:.1f}s (cap 10s)")
