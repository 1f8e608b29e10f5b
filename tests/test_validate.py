from helflow.validate import perturbed_sphere


def test_perturbed_sphere_is_valid_geometry():
    mesh = perturbed_sphere(0, 3, 0.08)
    assert mesh.euler_characteristic == 2
    from helflow.geometry import build_cache

    cache = build_cache(mesh)
    assert cache.area > 0
    assert cache.willmore >= 0
