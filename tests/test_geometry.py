import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helflow.geometry import (FlowParams, GeometryError, build_cache,
                              discrete_gradient_fd, first_variation_check,
                              flow_velocity, gauss_bonnet_residual,
                              helfrich_energy, mean_curvature_integral,
                              penalized_energy, willmore_bound_residual)
from helflow.mesh import (TriangleMesh, make_icosphere, make_torus,
                          orient_for_positive_volume)
from helflow.validate import (fd_order_estimate, perturbed_sphere,
                              smooth_test_field)

FOUR_PI = 4 * np.pi


# -- FlowParams -------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        FlowParams(np.inf, 0.0)
    with pytest.raises(ValueError):
        FlowParams(1.0, -0.5)
    p = FlowParams(1.0, -0.5, allow_negative_lam=True)
    assert p.lam == -0.5
    assert FlowParams(1.0, 0.5).rescaled(2.0) == FlowParams(2.0, 2.0)


# -- curvature --------------------------------------------------------------


def test_mean_curvature_refinement():
    errs = []
    for lvl in (2, 3, 4):
        cache = build_cache(make_icosphere(lvl, 1.0))
        errs.append(np.abs(cache.H - 2.0).max() / 2.0)
    assert errs[2] <= 0.02          # contract bound at level 4
    assert errs[0] > errs[1] > errs[2]


def test_mean_curvature_scales_with_radius():
    cache = build_cache(make_icosphere(3, 2.0))
    assert np.abs(cache.H - 1.0).max() < 1e-3


def test_sphere_umbilic(ico4_cache):
    assert ico4_cache.A0sq.max() <= 1e-8
    assert ico4_cache.clamp_mass < 0.05  # clamp magnitude is reported


def test_tetra_gauss_bonnet(tetra):
    cache = build_cache(tetra)
    total = np.sum(cache.K * cache.vertex_areas)
    assert total == pytest.approx(4 * np.pi, abs=1e-12)


def test_gauss_bonnet_all_meshes(tetra, ico3, torus):
    for mesh in (tetra, ico3, torus):
        cache = build_cache(mesh)
        total = np.sum(cache.K * cache.vertex_areas)
        assert total == pytest.approx(2 * np.pi * mesh.euler_characteristic,
                                      abs=1e-10)


def test_cache_invariants(tetra):
    # the mixed areas tile the surface on every reference mesh
    for mesh in (tetra, make_torus(), *(make_icosphere(lvl, 1.0)
                                        for lvl in range(6))):
        c = build_cache(mesh)
        assert abs(np.sum(c.vertex_areas) - c.area) <= 1e-12 * c.area
        assert np.array_equal(c.Asq, c.A0sq + 0.5 * c.H * c.H)
        assert c.willmore >= 0 and c.w0 >= 0
        assert c.sup_Asq == c.Asq.max()


def test_degenerate_triangle_names_face(tetra):
    verts = np.asarray(tetra.vertices).copy()
    verts[2] = (0.5, 1e-16, 0.0)  # collapse vertex onto the edge (0, 1)
    mesh = TriangleMesh(verts, tetra.faces, validate=False)
    with pytest.raises(GeometryError, match="face"):
        build_cache(mesh)


# -- areas, volumes, energies -----------------------------------------------


def test_sphere_area_volume_level5():
    cache = build_cache(make_icosphere(5, 1.0))
    assert cache.area == pytest.approx(FOUR_PI, rel=1e-3)
    assert cache.signed_volume == pytest.approx(FOUR_PI / 3, rel=3e-3)


def test_volume_translation_invariance(ico4):
    from helflow.mesh import signed_volume

    v0 = signed_volume(ico4)
    v1 = signed_volume(ico4.translated((10.0, 0.0, 0.0)))
    assert abs(v1 - v0) / v0 < 1e-10


def test_sphere_energies_closed_form():
    cache = build_cache(make_icosphere(5, 1.0))
    params = FlowParams(1.0, 0.5)
    # pi (2 - c0 r)^2 + 2 pi lam r^2 at r = 1 equals 2 pi, which is also the
    # round-sphere bound 2 lam / (c0^2 + 2 lam) * 4 pi at this radius
    assert penalized_energy(cache, params) == pytest.approx(2 * np.pi, rel=2e-3)
    assert cache.willmore == pytest.approx(FOUR_PI, rel=1e-3)
    assert helfrich_energy(cache, FlowParams(0.0, 0.0)) == cache.willmore


def test_willmore_bound_residual_closed_forms(ico4_cache):
    # equality case: (c0, lam) = (1, 1/2) makes the unit sphere tight
    assert abs(willmore_bound_residual(ico4_cache, FlowParams(1.0, 0.5))) < 1e-9
    # slack case: (1, 1) leaves exactly pi/2
    res = willmore_bound_residual(ico4_cache, FlowParams(1.0, 1.0))
    assert res == pytest.approx(0.5 * np.pi, rel=1e-2)
    with pytest.raises(ValueError):
        willmore_bound_residual(ico4_cache, FlowParams(1.0, 0.0))


def test_willmore_bound_property_random_spheres():
    rng = np.random.default_rng(11)
    for k in range(100):
        mesh = perturbed_sphere(500 + k, 2, float(rng.uniform(0, 0.05)))
        params = FlowParams(float(rng.uniform(-2, 2)), float(rng.uniform(0.05, 2)))
        cache = build_cache(mesh)
        assert willmore_bound_residual(cache, params) >= -1e-6 * cache.willmore


def test_gauss_bonnet_residual_refinement():
    residuals = [gauss_bonnet_residual(build_cache(make_icosphere(lvl, 1.0)), 0)
                 for lvl in (2, 3, 4)]
    assert residuals[2] <= 0.05
    assert residuals[1] <= residuals[0] / 2
    assert residuals[2] <= residuals[1] / 2


def test_gauss_bonnet_residual_perturbed_sphere():
    residuals = [gauss_bonnet_residual(build_cache(perturbed_sphere(3, lvl, 0.05)), 0)
                 for lvl in (2, 3, 4)]
    assert residuals[1] <= residuals[0] / 2  # observed order >= 1
    assert residuals[2] <= residuals[1] / 2


def test_gauss_bonnet_residual_torus(torus):
    # uses the 8 pi g term; no umbilic clamping occurs on this geometry
    assert gauss_bonnet_residual(build_cache(torus), 1) <= 1e-10


def test_mean_curvature_integral_sphere(ico4_cache):
    assert mean_curvature_integral(ico4_cache) == pytest.approx(8 * np.pi, rel=2e-3)
    cache_r = build_cache(make_icosphere(4, 2.0))
    assert mean_curvature_integral(cache_r) == pytest.approx(16 * np.pi, rel=2e-3)


def test_mean_curvature_integral_mirror_invariance(ico3):
    mirrored = orient_for_positive_volume(
        TriangleMesh(np.asarray(ico3.vertices) * np.array([-1.0, 1.0, 1.0]),
                     ico3.faces[:, [0, 2, 1]])
    )
    a = mean_curvature_integral(build_cache(ico3))
    b = mean_curvature_integral(build_cache(mirrored))
    assert a == pytest.approx(b, rel=1e-12)


# -- scaling and rescaling ---------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.2, max_value=5.0, allow_nan=False))
def test_scaling_equivariance(s):
    mesh = perturbed_sphere(42, 2, 0.05)
    c1 = build_cache(mesh)
    c2 = build_cache(mesh.scaled(s))
    assert np.allclose(c2.H, c1.H / s, rtol=1e-12, atol=1e-12)
    assert np.allclose(c2.K, c1.K / s ** 2, rtol=1e-12, atol=1e-12)
    assert c2.area == pytest.approx(c1.area * s ** 2, rel=1e-12)
    assert c2.signed_volume == pytest.approx(c1.signed_volume * s ** 3, rel=1e-12)
    assert c2.willmore == pytest.approx(c1.willmore, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_normals_where_their_squared_norms_overflow():
    # at radius 1e77 the area-weighted normals' squares leave the float range
    c1 = build_cache(make_icosphere(1))
    c2 = build_cache(make_icosphere(1, 1e77))
    assert np.all(np.any(c2.normals != 0, axis=1))
    assert np.allclose(c2.normals, c1.normals, rtol=0, atol=1e-15)
    assert np.allclose(c2.H * 1e77, c1.H, rtol=1e-14)


def test_parabolic_rescaling_energy_identity():
    mesh = perturbed_sphere(3, 2, 0.06)
    params = FlowParams(1.3, 0.7)
    base = penalized_energy(build_cache(mesh), params)
    for r in (0.5, 2.0, 5.0):
        e = penalized_energy(build_cache(mesh.scaled(1.0 / r)), params.rescaled(r))
        assert e == pytest.approx(base, rel=1e-12)


# -- flow velocity -----------------------------------------------------------


def test_flow_velocity_round_sphere_cases(ico4_cache):
    # xi = -2 c0 / r^2 + (2 lam + c0^2) / r on a round sphere of radius r
    xi_hopf = flow_velocity(ico4_cache, FlowParams(2.0, 0.0))
    assert np.abs(xi_hopf).max() < 0.05

    xi_shrink = flow_velocity(ico4_cache, FlowParams(-1.0, 0.0))
    assert xi_shrink.mean() == pytest.approx(3.0, abs=1e-3)
    assert np.abs(xi_shrink - 3.0).max() < 0.05

    xi_eq = flow_velocity(ico4_cache, FlowParams(1.0, 0.5))
    assert np.abs(xi_eq).max() < 0.05


# -- first variations ---------------------------------------------------------


def test_first_variation_volume(ico4):
    ones = np.ones(ico4.n_vertices)
    analytic, fd = first_variation_check(ico4, FlowParams(1.0, 0.5), ones,
                                         "volume")
    assert analytic == pytest.approx(-build_cache(ico4).area, rel=1e-12)
    assert abs(analytic - fd) / abs(analytic) <= 1e-3


def test_first_variation_area(ico4):
    ones = np.ones(ico4.n_vertices)
    analytic, fd = first_variation_check(ico4, FlowParams(1.0, 0.5), ones,
                                         "area")
    assert analytic == pytest.approx(-8 * np.pi, rel=5e-3)
    # the cotangent area gradient makes the analytic value exact here
    assert abs(analytic - fd) / abs(analytic) <= 1e-9


def test_first_variation_helfrich_critical(ico4):
    ones = np.ones(ico4.n_vertices)
    analytic, fd = first_variation_check(ico4, FlowParams(2.0, 0.0), ones,
                                         "helfrich")
    assert abs(analytic) < 1e-3   # discrete critical point
    assert abs(analytic - fd) < 1e-3


def test_first_variation_penalized_random_fields():
    # radius 1 is the equilibrium of (1, 0.5), where every variation
    # vanishes; lam = 0.3 keeps relative errors meaningful, and the scale
    # floor guards sign-cancelling directions
    mesh = make_icosphere(3, 1.0)
    params = FlowParams(1.0, 0.3)
    for k in range(5):
        phi = smooth_test_field(mesh, k)
        floor = 1e-3 * float(np.sum(np.abs(phi)))
        analytic, fd = first_variation_check(mesh, params, phi, "penalized")
        assert abs(analytic - fd) / max(abs(analytic), abs(fd), floor) <= 8e-3
        order, _ = fd_order_estimate(mesh, params, phi, "penalized")
        assert order >= 1.9


def test_strong_form_matches_discrete_gradient_under_refinement():
    # the discrete gradient also has a tangential (reparametrization) part
    # that the normal speed cannot see, so compare normal projections
    params = FlowParams(1.0, 0.5)
    devs = []
    for lvl in (2, 3):
        mesh = make_icosphere(lvl, 1.3)
        cache = build_cache(mesh)
        xi = flow_velocity(cache, params)
        grad = discrete_gradient_fd(mesh, params, "penalized")
        normal = np.einsum("ij,ij->i", grad / cache.vertex_areas[:, None],
                           cache.normals)
        num = np.sum((xi + 2.0 * normal) ** 2 * cache.vertex_areas)
        den = np.sum((2.0 * normal) ** 2 * cache.vertex_areas)
        devs.append(float(np.sqrt(num / den)))
    assert devs[1] < devs[0]
    assert devs[1] <= 0.1


def test_first_variation_errors(ico3):
    with pytest.raises(ValueError):
        first_variation_check(ico3, FlowParams(1.0, 0.0),
                              np.ones(ico3.n_vertices), "area", fd_step=0.0)
    with pytest.raises(ValueError):
        first_variation_check(ico3, FlowParams(1.0, 0.0),
                              np.ones(3), "area")
    with pytest.raises(ValueError):
        first_variation_check(ico3, FlowParams(1.0, 0.0),
                              np.ones(ico3.n_vertices), "nope")
