import math

import numpy as np
import pytest
from scipy.integrate import quad

import solidsum as ss
from solidsum.numerics import gauss_legendre_cells
from solidsum.transforms import phi_hat_1d_grid

SQRT3 = math.sqrt(3.0)


class TestConfig:
    def test_mass_constant_at_p2_is_pi(self):
        assert ss.DampedSumConfig(p=2.0).c == pytest.approx(math.pi, abs=1e-12)

    def test_schedule_must_decrease(self):
        with pytest.raises(ValueError):
            ss.DampedSumConfig(eps_schedule=(0.1, 0.2))
        with pytest.raises(ValueError):
            ss.DampedSumConfig(eps_schedule=(0.1, -0.05))

    def test_radius_rule(self):
        cfg = ss.DampedSumConfig()
        assert cfg.radius_for(0.5) == 30
        assert cfg.radius_for(0.02) == 30
        assert cfg.radius_for(0.001) == math.ceil(6.0 / math.sqrt(math.pi * 0.001))
        assert ss.DampedSumConfig(truncation_radius=12).radius_for(0.001) == 12
        with pytest.raises(ValueError):
            ss.DampedSumConfig(truncation_radius=0)

    @pytest.mark.parametrize("radius", [12.5, 0.5, math.inf, math.nan])
    def test_non_integral_radius_rejected(self, radius):
        # R = 12.5 laid the box on the half-integers: the square's volume at
        # t = 2 read 7.3e-32 +- 5.5e-15 in place of 4
        with pytest.raises(ValueError, match="integer"):
            ss.DampedSumConfig(truncation_radius=radius)

    def test_integral_radius_stored_as_int(self):
        for radius in (12, 12.0, np.int64(12)):
            cfg = ss.DampedSumConfig(truncation_radius=radius)
            assert type(cfg.truncation_radius) is int and cfg.truncation_radius == 12
        assert ss.DampedSumConfig(truncation_radius=12.0) == ss.DampedSumConfig(truncation_radius=12)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            ss.DampedSumConfig(p=0.5)


class TestPhi:
    def test_at_origin(self):
        cfg = ss.DampedSumConfig(p=2.0)
        assert ss.phi(cfg, 1.0, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_even(self):
        cfg = ss.DampedSumConfig(p=1.5)
        t = np.array([0.3, -0.7])
        assert ss.phi(cfg, 0.4, t) == ss.phi(cfg, 0.4, -t)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("eps", [1.0, 0.3])
    def test_unit_mass_1d_quadrature(self, p, eps):
        cfg = ss.DampedSumConfig(p=p)
        val, _ = quad(lambda x: ss.phi(cfg, eps, [x]), -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-9)


class TestPhiHat:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_unit_at_zero(self, p):
        cfg = ss.DampedSumConfig(p=p)
        for eps in cfg.eps_schedule:
            d = 1 if p != 2.0 else 2
            assert abs(ss.phi_hat(cfg, eps, np.zeros(d)) - 1.0) < 1e-10

    def test_p2_closed_form_vs_quadrature_grid(self):
        cfg = ss.DampedSumConfig(p=2.0)
        pts = [np.array([m1, m2], dtype=complex) + 1j * np.array([a, b])
               for m1 in (-2.0, 0.0, 1.0) for m2 in (-1.0, 3.0)
               for a, b in [(0.0, 0.0), (0.5, -1.0)]]
        for eps in (0.5, 0.1):
            for z in pts:
                closed = ss.phi_hat(cfg, eps, z)
                numeric = ss.phi_hat_quadrature(cfg, eps, z)
                assert abs(closed - numeric) < 1e-10

    def test_p2_no_spurious_prefactor(self):
        # direct 1-D quadrature of exp(2 pi i m x) eps^{-1/2} exp(-pi x^2/eps)
        # must equal exp(-pi eps m^2); in particular the value at m = 0 is 1,
        # independent of eps
        eps = 0.37
        for m in (0.0, 1.0, 2.0):
            val, _ = quad(lambda x: math.cos(2 * math.pi * m * x)
                          * eps ** -0.5 * math.exp(-math.pi * x * x / eps),
                          -np.inf, np.inf)
            assert val == pytest.approx(math.exp(-math.pi * eps * m * m), abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_even_in_z(self, p):
        rng = np.random.default_rng(21)
        cfg = ss.DampedSumConfig(p=p)
        for _ in range(3):
            z = rng.normal(size=2) + 1j * rng.uniform(-0.8, 0.8, size=2)
            assert abs(ss.phi_hat(cfg, 0.2, z) - ss.phi_hat(cfg, 0.2, -z)) < 1e-12

    @pytest.mark.parametrize("eps", ss.DampedSumConfig().eps_schedule)
    def test_p1_closed_form(self, eps):
        # the p = 1 density (1/eps) exp(-2|x|/eps) has transform 1/(1 + (pi eps z)^2),
        # analytic in the strip |Im z| < 1/(pi eps)
        cfg = ss.DampedSumConfig(p=1.0)
        strip = cfg.c / (2.0 * math.pi * eps)
        real = np.linspace(-200.0, 200.0, 41)
        z = np.concatenate([real, real[::4] + 0.9j * strip, real[::4] - 0.5j * strip,
                            [0.9j * strip, 0.3 + 0.45j * strip]])
        got = phi_hat_1d_grid(cfg, eps, z)
        assert np.max(np.abs(got - 1.0 / (1.0 + (math.pi * eps * z) ** 2))) < 1e-13

    def test_p1_strip_edge(self):
        cfg = ss.DampedSumConfig(p=1.0)
        edge = cfg.c / (2.0 * math.pi * 0.5)
        # at 0.99 of the strip exp(2 pi |Im z| L) alone would overflow
        z = np.array([0.99j * edge, 0.7 - 0.99j * edge])
        got = phi_hat_1d_grid(cfg, 0.5, z)
        assert np.max(np.abs(got - 1.0 / (1.0 + (math.pi * 0.5 * z) ** 2))) < 1e-12
        with pytest.raises(ss.ConvergenceDomain, match="strip"):
            phi_hat_1d_grid(cfg, 0.5, np.array([0.3 + 1j * edge]))
        with pytest.raises(ss.ConvergenceDomain, match="strip"):
            ss.phi_hat(cfg, 0.5, np.array([0.1, 0.2 - 2j * edge]))
        # the window grows like 1/(1 - r) at the fraction r of the strip;
        # past MAX_CELLS cells the quadrature refuses rather than exhaust memory
        with pytest.raises(ss.ConvergenceDomain, match="cells"):
            phi_hat_1d_grid(cfg, 0.5, np.array([30.0 + 0.9999j * edge]))

    @pytest.mark.parametrize("eps", [0.5, 0.0625])
    def test_p15_fast_oscillation(self, eps):
        # QAWF integrates the even density against cos(2 pi z x) on [0, inf);
        # it is good to a few 1e-11 here
        cfg = ss.DampedSumConfig(p=1.5)
        ref, _ = quad(lambda x: eps ** (-1.0 / 1.5) * math.exp(-(cfg.c / eps) * x ** 1.5),
                      0.0, np.inf, weight="cos", wvar=2.0 * math.pi * 300.0)
        assert abs(phi_hat_1d_grid(cfg, eps, np.array([300.0]))[0] - 2.0 * ref) < 1e-10


@pytest.mark.parametrize("func,kwargs", [
    (ss.DampedSumConfig, {"quad_halfwidth": 8.0}),
    (ss.DampedSumConfig, {"quad_points": 4000}),
    (lambda **kw: ss.solid_angle_gaussian(ss.simple_cone([0, 0], np.eye(2)), [0, 0], **kw),
     {"eps_schedule": (0.5, 0.25)}),
    (lambda **kw: ss.solid_angle_mc(ss.simple_cone([0, 0], np.eye(2)), [0, 0], **kw), {"epsilon": 0.5}),
    (lambda **kw: ss.discrete_volume(ss.sqrt3_triangle(), 1.0, **kw), {"method": "mc"}),
    (lambda **kw: ss.point_weight(ss.sqrt3_triangle(), 1.0, (0, 0), **kw), {"method": "mc"}),
], ids=["quad_halfwidth", "quad_points", "eps_schedule", "epsilon", "discrete_volume_method", "point_weight_method"])
def test_removed_keywords_are_type_errors(func, kwargs):
    with pytest.raises(TypeError):
        func(**kwargs)


class TestConeTransform:
    def test_quadrant_at_imaginary_point(self, quadrant):
        # direct integral of exp(-2 pi x1 - 2 pi x2) over the quadrant
        val = ss.cone_transform(quadrant, np.array([1j, 1j]))
        assert val == pytest.approx(1.0 / (4 * math.pi ** 2), abs=1e-15)

    def test_apex_shift_multiplies_phase(self, quadrant):
        z = np.array([0.3 + 0.2j, -0.1 + 0.4j])
        v = np.array([0.5, math.sqrt(2.0)])
        base = ss.cone_transform(quadrant, z)
        shifted = ss.cone_transform(quadrant.shifted(v), z)
        assert shifted == pytest.approx(base * np.exp(2j * math.pi * np.dot(v, z)), abs=1e-15)

    def test_pole_hit(self, quadrant):
        with pytest.raises(ss.PoleHit):
            ss.cone_transform(quadrant, np.array([0.0 + 0j, 1.0 + 0j]))

    def test_homogeneous_degree_minus_d(self, quadrant):
        z = np.array([0.4 + 0.1j, 0.7 - 0.3j])
        for lam in (2.0, -3.0, 0.5):
            assert ss.cone_transform(quadrant, lam * z) == pytest.approx(
                lam ** -2.0 * ss.cone_transform(quadrant, z), rel=1e-13)


class TestPoleDistance:
    def test_quadrant(self, quadrant):
        assert ss.pole_distance([quadrant], np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_triangle_direction_one_one(self, triangle):
        cones = [ss.vertex_simple_cones(triangle, i)[0] for i in range(3)]
        dist = ss.pole_distance(cones, np.array([1.0, 1.0]))
        assert dist == pytest.approx(SQRT3 - 1.0, abs=1e-12)

    def test_orthogonal_pair(self):
        cone = ss.simple_cone([0, 0], [[0, 1], [1, 0]])
        assert ss.pole_distance([cone], np.array([1.0, 0.0])) == 0.0


def _interval_hat(z):
    """Transform of 1_[0,1]; removable limit 1 at z = 0."""
    if abs(z) < 1e-12:
        return 1.0 + 0j
    return (np.exp(2j * math.pi * z) - 1.0) / (2j * math.pi * z)


def test_poisson_sanity_unit_square():
    """Direct-space Gaussian-smoothed sum over the square vs the
    transform-space sum; both sides computed from independent formulas."""
    eps = 0.1
    cfg = ss.DampedSumConfig(p=2.0)
    # LHS by tensor Gauss-Legendre quadrature of the damping kernel over [0,1]^2
    x, w = gauss_legendre_cells(np.linspace(0.0, 1.0, 25))
    lhs = 0.0
    for m1 in range(-8, 9):
        for m2 in range(-8, 9):
            g1 = w @ np.exp(-math.pi * (x - m1) ** 2 / eps)
            g2 = w @ np.exp(-math.pi * (x - m2) ** 2 / eps)
            lhs += (g1 / math.sqrt(eps)) * (g2 / math.sqrt(eps))
    # RHS: square transform = product of two interval transforms
    rhs = 0.0
    R = cfg.radius_for(eps)
    for m1 in range(-R, R + 1):
        for m2 in range(-R, R + 1):
            rhs += (_interval_hat(m1) * _interval_hat(m2)
                    * ss.phi_hat(cfg, eps, np.array([m1, m2], dtype=complex))).real
    assert abs(lhs - rhs) < 1e-8
