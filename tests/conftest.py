import math

import numpy as np
import pytest

import solidsum as ss

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@pytest.fixture
def square():
    return ss.load_polytope(2, [(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture
def triangle():
    return ss.sqrt3_triangle()


@pytest.fixture
def tetrahedron():
    return ss.load_polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.fixture
def cube():
    return ss.load_polytope(3, [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])


@pytest.fixture
def octahedron():
    return ss.load_polytope(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])


@pytest.fixture
def triangular_prism():
    return ss.load_polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)])


@pytest.fixture
def golden_segment():
    return ss.load_polytope(1, [(0.0,), (GOLDEN,)])


@pytest.fixture
def golden_rectangle():
    return ss.load_polytope(2, [(0, 0), (GOLDEN, 0), (GOLDEN, 1), (0, 1)])


@pytest.fixture
def unit_cube_4d():
    return unit_cube(4)


@pytest.fixture
def cross_polytope_4d():
    return cross_polytope(4)


@pytest.fixture
def sphere_polytope_60():
    return sphere_polytope(60, 3, 2)


@pytest.fixture
def quadrant():
    return ss.simple_cone([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])


def unit_cube(d):
    """The cube [0, 1]^d."""
    return ss.load_polytope(d, [[(i >> k) & 1 for k in range(d)] for i in range(2 ** d)])


def cross_polytope(d):
    """The cross-polytope conv(+-e_k) in dimension d."""
    return ss.load_polytope(d, [[sign * float(j == k) for j in range(d)] for k in range(d) for sign in (1, -1)])


def sphere_polytope(n, d, seed):
    """The hull of n seeded Gaussian points in dimension d, scaled onto the
    unit sphere, so that every point is a vertex."""
    S = np.random.default_rng(seed).normal(size=(n, d))
    return ss.load_polytope(d, (S / np.linalg.norm(S, axis=1)[:, None]).tolist())


def random_pointed_cone_2d(rng, min_cross=0.1):
    while True:
        g = rng.normal(size=(2, 2))
        if abs(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]) > min_cross:
            return ss.simple_cone([0.0, 0.0], g)


def random_pole_free_s(rng, d, cones, imag=0.25):
    """Random complex argument kept safely away from denominator zeros."""
    while True:
        s = rng.uniform(0.1, 0.4, size=d) + 1j * rng.uniform(-imag, imag, size=d)
        if ss.pole_distance(cones, s) > 0.05:
            return s
