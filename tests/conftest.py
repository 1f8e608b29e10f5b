import os

import numpy as np
import pytest

import helflow
from helflow.geometry import build_cache
from helflow.mesh import make_icosphere, make_tetrahedron, make_torus


@pytest.fixture(scope="session")
def tetra():
    return make_tetrahedron()


@pytest.fixture(scope="session")
def ico3():
    return make_icosphere(3, 1.0)


@pytest.fixture(scope="session")
def ico4():
    return make_icosphere(4, 1.0)


@pytest.fixture(scope="session")
def ico4_cache(ico4):
    return build_cache(ico4)


@pytest.fixture(scope="session")
def helflow_env():
    """Environment for a Python subprocess that imports this helflow."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(helflow.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


@pytest.fixture(scope="session")
def torus():
    return make_torus(1.0, 0.4, 48, 24)


def mean_radius(mesh):
    v = np.asarray(mesh.vertices)
    center = v.mean(axis=0)
    return float(np.linalg.norm(v - center, axis=1).mean())
