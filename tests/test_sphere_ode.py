import os
import subprocess
import sys

import numpy as np
import pytest

import helflow
from helflow.geometry import FlowParams
from helflow.sphere_ode import (EXTINCTION_SWITCH_FRACTION, MIN_RTOL,
                                equilibrium_radius, extinction_time_closed_form,
                                integrate_sphere_ode, sphere_energy,
                                sphere_ode_rhs, theory_bounds)

FOUR_PI = 4 * np.pi

# frozen closed-form oracles (separable integral of r^2 / (kappa r - 2 c0))
T_NEG1 = -1.5 + 4.0 * np.log(1.5)            # 0.121860432432658...
T_NEG2 = 0.25 * (-0.5 + np.log(2.0))         # 0.048286795139986...


def test_rhs_values():
    assert sphere_ode_rhs(1.0, FlowParams(2.0, 0.0)) == 0.0
    assert sphere_ode_rhs(1.0, FlowParams(-1.0, 0.0)) == -3.0
    assert sphere_ode_rhs(1.0, FlowParams(1.0, 0.5)) == 0.0
    with pytest.raises(ValueError):
        sphere_ode_rhs(0.0, FlowParams(1.0, 0.0))


def test_sphere_energy_values():
    assert sphere_energy(1.0, FlowParams(1.0, 0.5)) == pytest.approx(2 * np.pi)
    assert sphere_energy(1.0, FlowParams(2.0, 0.0)) == 0.0
    assert sphere_energy(1.0, FlowParams(-1.0, 0.0)) == pytest.approx(9 * np.pi)


def test_extinction_closed_forms():
    assert extinction_time_closed_form(1.0, FlowParams(-1.0, 0.0)) == \
        pytest.approx(T_NEG1, rel=1e-14)
    assert extinction_time_closed_form(1.0, FlowParams(-2.0, 0.0)) == \
        pytest.approx(T_NEG2, rel=1e-14)
    assert extinction_time_closed_form(1.0, FlowParams(1.0, 0.5)) is None
    # pure area penalty: d(r^2)/dt = -4 lam
    assert extinction_time_closed_form(1.0, FlowParams(0.0, 0.5)) == \
        pytest.approx(0.5)
    assert extinction_time_closed_form(2.0, FlowParams(0.0, 0.0)) is None
    with pytest.raises(ValueError):
        extinction_time_closed_form(-1.0, FlowParams(-1.0, 0.0))


def test_integration_extinction():
    sol = integrate_sphere_ode(1.0, FlowParams(-1.0, 0.0), horizon=1.0)
    assert sol.terminal == "extinct"
    assert sol.extinction_time == pytest.approx(T_NEG1, rel=1e-8)
    assert np.all(sol.radii > 0)


def test_integration_equilibrium():
    sol = integrate_sphere_ode(1.5, FlowParams(1.0, 0.5), horizon=50.0)
    assert sol.terminal == "equilibrium_reached"
    assert sol.radii[-1] == pytest.approx(1.0, rel=1e-6)
    assert sol.radius_at(50.0) == pytest.approx(1.0, rel=1e-9)
    # monotone approach from above
    assert np.all(np.diff(sol.radii) <= 1e-12)


@pytest.mark.parametrize("c0, lam", [(1.0, 5000.0), (3000.0, 0.0)])
def test_integration_settles_below_extinction_switch(c0, lam):
    # r* lies below the extinction switch radius, which a run that settles
    # at r* must not treat as the start of an extinction tail
    params, r0, horizon, rtol = FlowParams(c0, lam), 1.0, 1.0, 1e-10
    r_star = equilibrium_radius(params)
    assert r_star < EXTINCTION_SWITCH_FRACTION * r0
    sol = integrate_sphere_ode(r0, params, horizon=horizon, rtol=rtol)
    assert sol.terminal == "equilibrium_reached"
    assert sol.extinction_time is None
    assert abs(sol.radius_at(horizon) - r_star) <= rtol * r_star


def test_integration_stationary_constant_series():
    sol = integrate_sphere_ode(1.0, FlowParams(2.0, 0.0), horizon=5.0)
    assert sol.terminal == "equilibrium_reached"
    assert np.all(sol.radii == 1.0)
    assert sol.radius_at(3.0) == 1.0


def test_integration_growth_to_equilibrium():
    sol = integrate_sphere_ode(0.4, FlowParams(1.0, 0.5), horizon=50.0)
    assert sol.terminal == "equilibrium_reached"
    assert sol.radii[-1] == pytest.approx(1.0, rel=1e-6)


def test_integration_horizon():
    sol = integrate_sphere_ode(1.5, FlowParams(1.0, 0.5), horizon=1e-4)
    assert sol.terminal == "horizon"


def test_radius_at_extinction_tail():
    params = FlowParams(-1.0, 0.0)
    sol = integrate_sphere_ode(1.0, params, horizon=1.0)
    t_mid = 0.5 * sol.extinction_time
    r_mid = sol.radius_at(t_mid)
    # consistency: remaining time from r_mid equals T - t_mid
    assert extinction_time_closed_form(r_mid, params) == \
        pytest.approx(sol.extinction_time - t_mid, rel=1e-7)
    assert sol.radius_at(sol.extinction_time) == 0.0


def test_theory_bounds_shrinking():
    b = theory_bounds(FlowParams(-1.0, 0.0), e0=9 * np.pi)
    assert b.t_bound == pytest.approx(260.0, rel=1e-12)
    assert b.r_star is None
    assert not b.e0_inconsistent


def test_theory_bounds_t_bound_survives_overflowing_squares():
    # e0 ** 2 overflows; the bound in units of kappa = c0^2 + 2 lam does not
    b = theory_bounds(FlowParams(-1e150, 0.0), e0=1e160)
    assert b.t_bound == pytest.approx(4.0 * 1e-280 / np.pi ** 2, rel=1e-14)
    # here the bound itself is beyond the float range
    assert theory_bounds(FlowParams(-1.0, 0.0), e0=1e160).t_bound == np.inf
    assert theory_bounds(FlowParams(-1e-100, 0.0), e0=1e300).t_bound == np.inf


def test_theory_bounds_equilibrium():
    b = theory_bounds(FlowParams(1.0, 0.5))
    assert b.r_star == pytest.approx(1.0)
    assert b.en_threshold == pytest.approx(FOUR_PI)
    assert b.beta_upper == pytest.approx(2 * np.pi)
    assert b.willmore_ctrl_factor == pytest.approx(2.0)
    assert b.en_threshold == pytest.approx(2 * b.beta_upper)


def test_theory_bounds_degenerate_lambda():
    b = theory_bounds(FlowParams(1.0, 0.0))
    assert b.en_threshold == 0.0           # threshold degenerates at lam = 0
    assert b.beta_upper == 0.0
    assert b.willmore_ctrl_factor is None


def test_theory_bounds_inconsistent_e0():
    b = theory_bounds(FlowParams(-1.0, 0.0), e0=2 * np.pi)
    assert b.e0_inconsistent
    assert b.t_bound is None


def test_energy_critical_point_matches_beta():
    for c0 in np.union1d(np.linspace(0.2, 3.0, 8), (0.5, 1.0, 2.5)):
        for lam in np.union1d(np.linspace(0.1, 2.0, 8), (0.1, 0.5, 1.5)):
            params = FlowParams(float(c0), float(lam))
            b = theory_bounds(params)
            e_star = sphere_energy(b.r_star, params)
            assert e_star == pytest.approx(b.beta_upper, rel=1e-10)
            # E'(r*) = 0, by a central difference relative to E(r*) / r*
            h = 1e-6 * b.r_star
            slope = (sphere_energy(b.r_star + h, params)
                     - sphere_energy(b.r_star - h, params)) / (2 * h)
            assert abs(slope) * b.r_star <= 1e-8 * e_star


def test_energy_non_increasing_along_ode_flow():
    params = FlowParams(1.0, 0.5)
    sol = integrate_sphere_ode(1.8, params, horizon=20.0)
    ts = np.linspace(0.0, min(sol.times[-1], 20.0), 200)
    energies = [sphere_energy(sol.radius_at(t), params) for t in ts]
    assert np.max(np.diff(energies)) <= 1e-9


def test_closed_form_vs_integration_samples():
    rng = np.random.default_rng(5)
    for _ in range(10):
        r0 = float(rng.uniform(0.1, 3.0))
        params = FlowParams(float(rng.uniform(-3.0, -0.1)),
                            float(rng.uniform(0.0, 2.0)))
        t_exact = extinction_time_closed_form(r0, params)
        sol = integrate_sphere_ode(r0, params, horizon=10 * t_exact + 1)
        assert sol.extinction_time == pytest.approx(t_exact, rel=1e-8)


def test_ode_parabolic_rescaling_property():
    r0, tau, s = 1.2, 0.03, 3.0
    sol1 = integrate_sphere_ode(r0, FlowParams(-0.8, 0.4), horizon=tau)
    sol2 = integrate_sphere_ode(r0 / s, FlowParams(-0.8 * s, 0.4 * s * s),
                                horizon=tau / s ** 4)
    assert sol1.radius_at(tau) / s == pytest.approx(
        sol2.radius_at(tau / s ** 4), rel=1e-10)


@pytest.mark.parametrize("rtol", [1e-20, 1e-15, 0.5 * MIN_RTOL, 1.0])
def test_rtol_outside_solve_ivp_range_is_rejected(rtol):
    with pytest.raises(ValueError, match="rtol"):
        integrate_sphere_ode(1.0, FlowParams(-1.0), horizon=1.0, rtol=rtol)


def test_rtol_floor_runs_without_warning():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = integrate_sphere_ode(1.0, FlowParams(-1.0), horizon=1.0,
                                   rtol=MIN_RTOL)
    assert sol.terminal == "extinct"


@pytest.mark.parametrize("module", ["helflow", "helflow.cli"])
def test_import_leaves_ode_solvers_unloaded(module):
    # solve_ivp and brentq are imported at first use, off every flow's path
    src = os.path.dirname(os.path.dirname(os.path.abspath(helflow.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = (f"import sys, {module}; "
            "print(sorted({'scipy.integrate', 'scipy.optimize'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
