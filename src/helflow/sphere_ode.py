"""Round-sphere ground truth: radius ODE, equilibria, extinction times, bounds.

A family of round spheres of radius ``r(t)`` evolves under the flow iff

    r' = (c0 / r) (2 / r - c0) - 2 lam / r = -((c0^2 + 2 lam) r - 2 c0) / r^2.

This module is the oracle the mesh solver is validated against, so its
accuracy target (``DEFAULT_RTOL``) is far tighter than the mesh solver's.
``scipy.integrate`` and ``scipy.optimize`` are imported at first use: the
closed forms and :func:`theory_bounds` need neither, and importing them
would add about a third of a second to every ``import helflow``.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import FlowParams

__all__ = [
    "SphereOdeError", "SphereOdeSolution", "TheoryBounds", "sphere_ode_rhs",
    "sphere_energy", "equilibrium_radius", "extinction_time_closed_form",
    "integrate_sphere_ode", "theory_bounds",
]

# Below this fraction of r0 the ODE integration hands over to the closed-form
# antiderivative (the rhs stiffens like -C/r^2 near extinction).
EXTINCTION_SWITCH_FRACTION = 1e-3

# The smallest rtol that ``solve_ivp`` honours; below it scipy warns and runs
# at this value instead.
MIN_RTOL = 100 * np.finfo(float).eps
DEFAULT_RTOL = 1e-10   # of integrate_sphere_ode and ``helflow ode --rtol``

FOUR_PI = 4.0 * np.pi


class SphereOdeError(RuntimeError):
    """The radius ODE could not be integrated."""


def sphere_ode_rhs(r: float, params: FlowParams) -> float:
    """Radial speed of the round-sphere solution family."""
    if r <= 0:
        raise ValueError("sphere radius must be positive")
    c0, lam = params.c0, params.lam
    return (c0 / r) * (2.0 / r - c0) - 2.0 * lam / r


def sphere_energy(r: float, params: FlowParams) -> float:
    """Penalized bending energy of a round sphere: pi (2 - c0 r)^2 + 2 pi lam r^2."""
    if np.any(np.asarray(r) <= 0):
        raise ValueError("sphere radius must be positive")
    return np.pi * (2.0 - params.c0 * r) ** 2 + 2.0 * np.pi * params.lam * r ** 2


def equilibrium_radius(params: FlowParams) -> float | None:
    """The attracting radius 2 c0 / (c0^2 + 2 lam), defined for c0 > 0."""
    if params.c0 <= 0:
        return None
    return 2.0 * params.c0 / (params.c0 ** 2 + 2.0 * params.lam)


def _denominator_slope(params: FlowParams) -> float:
    return params.c0 ** 2 + 2.0 * params.lam


def _goes_extinct(r0: float, params: FlowParams) -> bool:
    """True when the phase line drives r from r0 monotonically to 0."""
    c0 = params.c0
    kappa = _denominator_slope(params)
    # r' = -g(r)/r^2 with g(r) = kappa*r - 2*c0; extinction needs g > 0 on (0, r0].
    if c0 < 0:
        return kappa * r0 - 2.0 * c0 > 0  # g(0) = -2 c0 > 0, g linear
    if c0 == 0:
        return kappa > 0  # pure area penalty shrinks; stationary if lam == 0
    return False  # c0 > 0: attractor at r* > 0


def _extinction_antiderivative(r: float, params: FlowParams) -> float:
    """Antiderivative of r^2 / (kappa r - 2 c0); valid where the denominator > 0."""
    c0 = params.c0
    kappa = _denominator_slope(params)
    if kappa == 0.0:
        # g(r) = -2 c0 constant (c0 < 0 here): integral of r^2 / (-2 c0)
        return r ** 3 / (-6.0 * c0)
    if c0 == 0.0:
        return r ** 2 / (2.0 * kappa)
    return (
        r ** 2 / (2.0 * kappa)
        + 2.0 * c0 * r / kappa ** 2
        + (4.0 * c0 ** 2 / kappa ** 3) * np.log(np.abs(kappa * r - 2.0 * c0))
    )


def extinction_time_closed_form(r0: float, params: FlowParams) -> float | None:
    """Exact time for the sphere radius to reach zero, or None if it never does."""
    if r0 <= 0:
        raise ValueError("initial radius must be positive")
    if not _goes_extinct(r0, params):
        return None
    return _extinction_antiderivative(r0, params) - _extinction_antiderivative(0.0, params)


def _radius_at_time_to_extinction(remaining: float, r_hint: float,
                                  params: FlowParams) -> float:
    """Invert the closed-form time-to-extinction for the tail interpolant."""
    from scipy.optimize import brentq

    if remaining <= 0:
        return 0.0
    f0 = _extinction_antiderivative(0.0, params)

    def resid(r):
        return (_extinction_antiderivative(r, params) - f0) - remaining

    hi = r_hint
    while resid(hi) < 0:
        hi *= 2.0
    return brentq(resid, 0.0, hi, xtol=1e-15 * max(r_hint, 1.0))


@dataclass
class SphereOdeSolution:
    """Sampled radius trajectory plus terminal classification.

    ``terminal`` is one of ``equilibrium_reached``, ``extinct``, ``horizon``.
    ``extinction_time`` is set for extinct runs; ``radius_at`` evaluates the
    dense solution (clamped to the attractor after equilibrium is reached).
    """

    times: np.ndarray
    radii: np.ndarray
    terminal: str
    extinction_time: float | None = None
    params: FlowParams | None = None
    _dense: object = field(default=None, repr=False)
    _t_dense_end: float = field(default=0.0, repr=False)
    _r_after: float | None = field(default=None, repr=False)

    def radius_at(self, t):
        """Radius at time(s) t in [0, horizon] (0 at/after extinction)."""
        t = np.asarray(t, dtype=np.float64)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        if np.any(t < 0):
            raise ValueError("time must be non-negative")
        out = np.empty_like(t)
        inside = t <= self._t_dense_end
        if self._dense is not None and np.any(inside):
            out[inside] = self._dense(t[inside])[0]
        elif np.any(inside):
            out[inside] = np.interp(t[inside], self.times, self.radii)
        after = ~inside
        if np.any(after):
            if self.terminal == "extinct":
                rem = self.extinction_time - t[after]
                out[after] = [
                    _radius_at_time_to_extinction(v, self.radii[-1], self.params)
                    for v in rem
                ]
            else:
                out[after] = self._r_after if self._r_after is not None else self.radii[-1]
        return float(out[0]) if scalar else out


def integrate_sphere_ode(r0: float, params: FlowParams, horizon: float,
                         rtol: float = DEFAULT_RTOL) -> SphereOdeSolution:
    """Integrate the radius ODE with event detection.

    Events: extinction (handled by switching to the closed form below
    ``1e-3 * r0``) and arrival within ``rtol``-relative distance of the
    equilibrium radius.  The classification reproduces the dichotomy:
    c0 < 0 shrinks to extinction in finite time, c0 > 0 settles at r*.
    ``rtol`` must lie in ``[MIN_RTOL, 1)``.
    """
    if r0 <= 0:
        raise ValueError("initial radius must be positive")
    if horizon <= 0 or not np.isfinite(horizon):
        raise ValueError("horizon must be positive and finite")
    if not MIN_RTOL <= rtol < 1:
        raise ValueError(f"rtol must lie in [{MIN_RTOL:.3g}, 1)")

    r_star = equilibrium_radius(params)
    eq_band = max(rtol, 1e-12)
    if r_star is not None and abs(r0 - r_star) <= eq_band * r_star:
        times = np.array([0.0, horizon])
        radii = np.array([r0, r0])
        return SphereOdeSolution(times, radii, "equilibrium_reached",
                                 params=params, _t_dense_end=0.0, _r_after=r0,
                                 _dense=None)
    if params.c0 == 0 and params.lam == 0:
        times = np.array([0.0, horizon])
        return SphereOdeSolution(times, np.array([r0, r0]), "horizon",
                                 params=params, _r_after=r0)

    # only runs that go extinct switch; c0 > 0 ones may settle below switch
    extinct = _goes_extinct(r0, params)
    switch = EXTINCTION_SWITCH_FRACTION * r0
    events = []
    if extinct:
        def hit_switch(t, y):
            return y[0] - switch

        hit_switch.terminal = True
        hit_switch.direction = -1
        events.append(hit_switch)

    if r_star is not None:
        def near_equilibrium(t, y):
            return abs(y[0] - r_star) - eq_band * r_star

        near_equilibrium.terminal = True
        near_equilibrium.direction = -1
        events.append(near_equilibrium)

    # trial RK stages may probe past the terminal event (even to r <= 0);
    # clamp the evaluation point below half the switch radius or r* so those
    # trial values stay finite -- everything past the event is discarded
    r_floor = 0.5 * (switch if r_star is None else min(switch, r_star))

    def rhs(t, y):
        return [sphere_ode_rhs(max(y[0], r_floor), params)]

    from scipy.integrate import solve_ivp

    with np.errstate(over="ignore", invalid="ignore"):   # failing runs raise
        sol = solve_ivp(rhs, (0.0, horizon), [r0], method="RK45", rtol=rtol,
                        atol=1e-14 * r0, events=events, dense_output=True)
    if not sol.success:
        raise SphereOdeError(f"sphere ODE integration failed: {sol.message}")

    times = sol.t
    radii = sol.y[0]
    t_end = times[-1]
    if sol.status == 1:  # the one terminal event fired
        if extinct:
            t_sw = float(sol.t_events[0][0])
            tail = extinction_time_closed_form(switch, params)
            return SphereOdeSolution(
                times, radii, "extinct", extinction_time=t_sw + tail,
                params=params, _dense=sol.sol, _t_dense_end=t_end,
            )
        return SphereOdeSolution(
            times, radii, "equilibrium_reached", params=params,
            _dense=sol.sol, _t_dense_end=t_end, _r_after=r_star,
        )
    return SphereOdeSolution(times, radii, "horizon", params=params,
                             _dense=sol.sol, _t_dense_end=t_end,
                             _r_after=float(radii[-1]))


@dataclass
class TheoryBounds:
    """Closed-form thresholds and bounds; fields are None where undefined.

    r_star : attracting sphere radius (c0 > 0).
    t_bound : upper bound on the maximal existence time in the shrinking
        scenario (c0 < 0, initial energy above 4 pi).
    en_threshold : global-existence energy threshold 2 lam/(c0^2+2 lam) * 8 pi.
    beta_upper : round-sphere infimum bound, exactly half the threshold.
    willmore_ctrl_factor : (2 lam + c0^2)/(2 lam), lam > 0 only.
    e0_inconsistent : set when c0 < 0 is paired with E0 <= 4 pi, which cannot
        occur for embedded spheres.
    """

    r_star: float | None
    t_bound: float | None
    en_threshold: float | None
    beta_upper: float | None
    willmore_ctrl_factor: float | None
    e0_inconsistent: bool = False


def theory_bounds(params: FlowParams, e0: float | None = None) -> TheoryBounds:
    c0, lam = params.c0, params.lam
    kappa = _denominator_slope(params)
    en_threshold = beta_upper = None
    if kappa > 0 and lam >= 0:
        en_threshold = (2.0 * lam / kappa) * 8.0 * np.pi
        beta_upper = (2.0 * lam / kappa) * 4.0 * np.pi
    ctrl = (2.0 * lam + c0 ** 2) / (2.0 * lam) if lam > 0 else None

    t_bound = None
    inconsistent = False
    if c0 < 0 and e0 is not None:
        if e0 <= FOUR_PI:
            inconsistent = True
        else:
            try:
                t_bound = 4.0 * (e0 ** 2 - FOUR_PI ** 2) / (np.pi ** 2 * (2.0 * lam + c0 ** 2) ** 2)
            except OverflowError:   # in units of kappa; inf if that overflows
                s, f = e0 / kappa, FOUR_PI / kappa   # too (float * does not raise)
                t_bound = 4.0 * ((s - f) * (s + f)) / np.pi ** 2

    return TheoryBounds(
        r_star=equilibrium_radius(params),
        t_bound=t_bound,
        en_threshold=en_threshold,
        beta_upper=beta_upper,
        willmore_ctrl_factor=ctrl,
        e0_inconsistent=inconsistent,
    )
