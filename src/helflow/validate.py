"""Test geometry shared by the test suite and the benchmark.

Seeded perturbed spheres, random flow parameters, smooth variation fields and
the convergence order of the first-variation finite-difference sweep.  The
checks that use them live in ``tests/``; ``tests/test_acceptance.py`` is the
fixed contract.
"""

import numpy as np

from .geometry import FlowParams, first_variation_check
from .mesh import TriangleMesh, make_icosphere

# Relative finite-difference steps of the convergence-order sweep.
FD_ORDER_STEPS = (1e-3, 1e-4, 1e-5)


def perturbed_sphere(seed: int, subdivisions: int = 3, amplitude: float = 0.05,
                     radius: float = 1.0) -> TriangleMesh:
    """Sphere with a smooth random radial perturbation (test geometry)."""
    rng = np.random.default_rng(seed)
    mesh = make_icosphere(subdivisions, radius)
    v = np.asarray(mesh.vertices)
    unit = v / np.linalg.norm(v, axis=1, keepdims=True)
    bump = np.zeros(len(v))
    for _ in range(4):
        q = rng.normal(size=3) * 2.0
        phase = rng.uniform(0, 2 * np.pi)
        bump += rng.uniform(0.2, 1.0) * np.sin(unit @ q + phase)
    bump /= max(np.abs(bump).max(), 1e-12)
    return mesh.with_vertices(v * (1.0 + amplitude * bump)[:, None])


def random_params(rng) -> FlowParams:
    return FlowParams(float(rng.uniform(-2, 2)), float(rng.uniform(0.1, 2.0)))


def smooth_test_field(mesh: TriangleMesh, seed: int) -> np.ndarray:
    """Smooth random scalar field over the vertices (low-frequency waves)."""
    rng = np.random.default_rng(seed)
    v = np.asarray(mesh.vertices)
    scale = mesh.bbox_diagonal()
    field = np.zeros(len(v))
    for _ in range(3):
        q = rng.normal(size=3) * (4.0 / scale)
        field += rng.uniform(0.3, 1.0) * np.sin(v @ q + rng.uniform(0, 2 * np.pi))
    return field


def fd_order_estimate(mesh: TriangleMesh, params: FlowParams, phi: np.ndarray,
                      functional: str):
    """Observed convergence order of the central-difference sweep over
    ``FD_ORDER_STEPS`` (relative to the bounding-box diagonal).

    Returns ``(order, values)``; the order compares successive differences of
    the FD values, which isolates the FD truncation from the (fixed)
    discretization offset of the analytic formula.
    """
    steps, diag = FD_ORDER_STEPS, mesh.bbox_diagonal()
    values = [first_variation_check(mesh, params, phi, functional,
                                    fd_step=h * diag)[1] for h in steps]
    d1 = abs(values[0] - values[1])
    d2 = abs(values[1] - values[2])
    scale = max(abs(values[0]), 1e-300)
    # below central-difference roundoff the order is unresolvable (already
    # converged); report it as such rather than fitting noise
    if d1 / scale < 1e-9 or d2 == 0:
        return np.inf, values
    return float(np.log(d1 / d2) / np.log(steps[0] / steps[1])), values
