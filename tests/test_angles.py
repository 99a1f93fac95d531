import math

import numpy as np
import pytest

import solidsum as ss
from conftest import random_pointed_cone_2d
from solidsum.geometry import body_half_spaces

SQRT3 = math.sqrt(3.0)


class TestExact2D:
    def test_quadrant(self, quadrant):
        est = ss.solid_angle_exact_2d(quadrant)
        assert est.value == pytest.approx(0.25, abs=1e-15)
        assert est.std_error == 0.0

    def test_triangle_vertex_angles_vs_dot_product(self, triangle):
        # independent oracle: cos(theta) from the raw edge vectors
        expected_cos = {1: 0.5, 2: SQRT3 / 2.0}
        expected_val = {0: 0.25, 1: 1.0 / 6.0, 2: 1.0 / 12.0}
        for i in (1, 2):
            g = ss.vertex_tangent_cone(triangle, i).generators
            cos = np.dot(g[0], g[1]) / (np.linalg.norm(g[0]) * np.linalg.norm(g[1]))
            assert cos == pytest.approx(expected_cos[i], abs=1e-12)
            value = ss.solid_angle_exact_2d(ss.vertex_simple_cones(triangle, i)[0]).value
            assert value == pytest.approx(math.acos(cos) / (2 * math.pi), abs=1e-12)
            assert value == pytest.approx(expected_val[i], abs=1e-12)

    def test_polygon_angle_sum(self, triangle, square):
        # sum of vertex angles of an n-gon = (n - 2)/2
        for P in (triangle, square):
            total = sum(
                ss.solid_angle_exact_2d(ss.vertex_simple_cones(P, i)[0]).value
                for i in range(P.n_vertices))
            assert total == pytest.approx((P.n_vertices - 2) / 2.0, abs=1e-12)

    def test_triangle_sum_is_half(self, triangle):
        vals = [ss.solid_angle_exact_2d(ss.vertex_simple_cones(triangle, i)[0]).value
                for i in range(3)]
        assert vals == pytest.approx([0.25, 1 / 6, 1 / 12], abs=1e-12)
        assert sum(vals) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(ss.DegenerateCone):
            ss.solid_angle_exact_2d(ss.Cone(np.zeros(2), np.array([[1.0, 0.0], [2.0, 0.0]])))

    def test_facet_rows_of_a_fan(self):
        # an interior and a repeated generator leave the two facets unchanged
        fan = ss.Cone(np.zeros(2), np.array([(1, 0), (1, 1), (0.5, 2), (1, 1)], dtype=float))
        edges = ss.simple_cone([0, 0], [(1, 0), (0.5, 2)])
        for angle, want in [(ss.solid_angle_exact_2d, 0.21101043481131537), (ss.solid_angle_exact_2d_l1, 0.2)]:
            assert angle(fan).value == pytest.approx(want, abs=1e-15)
            assert angle(edges).value == pytest.approx(want, abs=1e-15)
        # thin and near-straight wedges, against the angle between the generators
        for theta in (1e-9, 1e-7, 1e-5, math.pi - 1e-9):
            for a in (0.3, 2.0, -2.5):
                g = np.array([(math.cos(a), math.sin(a)), (math.cos(a + theta), math.sin(a + theta))])
                want = math.atan2(abs(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]), g[0] @ g[1]) / (2 * math.pi)
                got = ss.solid_angle_exact_2d(ss.simple_cone([0, 0], g)).value
                assert abs(got - want) <= 1e-15

    @pytest.mark.parametrize("angle", [ss.solid_angle_exact_2d, ss.solid_angle_exact_2d_l1])
    def test_bare_tuple_rejected(self, angle):
        with pytest.raises(TypeError):
            angle((np.zeros(2), np.eye(2)))

    def test_complementarity(self):
        # four cones around the origin partition the plane: angles sum to 1
        rng = np.random.default_rng(5)
        for _ in range(10):
            cone = random_pointed_cone_2d(rng)
            g1, g2 = cone.generators
            quads = [(g1, g2), (g2, -g1), (-g1, -g2), (-g2, g1)]
            total = sum(ss.solid_angle_exact_2d(ss.Cone(np.zeros(2), np.array(q))).value
                        for q in quads)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            cone = random_pointed_cone_2d(rng)
            lam = rng.uniform(0.1, 10.0, size=2)
            scaled = ss.Cone(np.zeros(2), cone.generators * lam[:, None])
            a = ss.solid_angle_exact_2d(cone).value
            b = ss.solid_angle_exact_2d(scaled).value
            assert a == pytest.approx(b, abs=1e-14)


class TestExact2DL1:
    def test_quadrant_quarter(self, quadrant):
        assert ss.solid_angle_exact_2d_l1(quadrant).value == pytest.approx(0.25, abs=1e-14)

    def test_half_plane_not_pointed(self):
        with pytest.raises(ss.NotPointed):
            ss.solid_angle_exact_2d_l1(ss.Cone(np.zeros(2), np.array([[1.0, 0.0], [-1.0, 0.0]])))

    def test_diagonal_octant(self):
        # hand clipping: diamond cut by rays (1,0),(1,1) is the triangle
        # (0,0),(1,0),(1/2,1/2) of area 1/4; angle = area/2 = 1/8
        cone = ss.simple_cone([0, 0], [[1, 0], [1, 1]])
        assert ss.solid_angle_exact_2d_l1(cone).value == pytest.approx(0.125, abs=1e-12)

    def test_complement_partition(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            cone = random_pointed_cone_2d(rng)
            g1, g2 = cone.generators
            quads = [(g1, g2), (g2, -g1), (-g1, -g2), (-g2, g1)]
            total = sum(ss.solid_angle_exact_2d_l1(ss.Cone(np.zeros(2), np.array(q))).value
                        for q in quads)
            assert total == pytest.approx(1.0, abs=1e-12)


class TestMonteCarloBall:
    def test_interior_point(self, square):
        est = ss.solid_angle_mc(square, [0.5, 0.5], n_samples=2000, seed=1)
        assert est.value == 1.0
        assert est.std_error <= 1e-3

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_quadrant_apex(self, quadrant, p):
        est = ss.solid_angle_mc(quadrant, [0, 0], p=p, n_samples=40_000, seed=2)
        assert abs(est.value - 0.25) <= 3 * est.std_error

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_facet_midpoint(self, square, p):
        est = ss.solid_angle_mc(square, [0.5, 0.0], p=p, n_samples=40_000, seed=3)
        assert abs(est.value - 0.5) <= 3 * est.std_error

    def test_seed_reproducible(self, quadrant):
        a = ss.solid_angle_mc(quadrant, [0, 0], n_samples=5000, seed=9)
        b = ss.solid_angle_mc(quadrant, [0, 0], n_samples=5000, seed=9)
        assert a == b

    def test_scale_invariance_mc(self):
        rng = np.random.default_rng(8)
        cone = random_pointed_cone_2d(rng)
        scaled = ss.simple_cone(cone.apex, cone.generators * np.array([[3.0], [0.2]]))
        a = ss.solid_angle_mc(cone, [0, 0], n_samples=40_000, seed=4)
        b = ss.solid_angle_mc(scaled, [0, 0], n_samples=40_000, seed=5)
        assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error, b.std_error)

    def test_3d_octant(self):
        cone = ss.simple_cone([0, 0, 0], np.eye(3))
        est = ss.solid_angle_mc(cone, [0, 0, 0], n_samples=40_000, seed=6)
        assert abs(est.value - 0.125) <= 3 * est.std_error

    def test_cone_off_apex(self, quadrant):
        # the angle at a point of a cone is that of its tangent cone there,
        # not the share of a unit ball around the point
        edge = ss.solid_angle_mc(quadrant, [0.5, 0.0], n_samples=100_000, seed=1)
        assert abs(edge.value - 0.5) <= 3 * edge.std_error
        inside = ss.solid_angle_mc(quadrant, [0.2, 0.3], n_samples=100_000, seed=1)
        outside = ss.solid_angle_mc(quadrant, [-0.2, 0.3], n_samples=100_000, seed=1)
        assert (inside.value, outside.value) == (1.0, 0.0)

    def test_non_simple_cone(self):
        # square pyramid: solid angle 4 asin(1/3) of 4 pi; an interior and a
        # repeated generator leave its facets, and so every sample, unchanged
        gens = np.array([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)], dtype=float)
        est = ss.solid_angle_mc(ss.Cone(np.zeros(3), gens), [0, 0, 0], n_samples=100_000, seed=1)
        assert abs(est.value - math.asin(1 / 3) / math.pi) <= 3 * est.std_error
        extra = np.vstack([gens, [(0, 0, 1), (2, 0, 2)]])
        assert ss.solid_angle_mc(ss.Cone(np.zeros(3), extra), [0, 0, 0], n_samples=100_000, seed=1) == est
        A, b = body_half_spaces(ss.Cone(np.ones(3), extra))
        assert A.shape == (4, 3)
        assert np.allclose(A @ np.ones(3), b, atol=1e-15)


class TestGaussianLimit:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_quadrant_apex(self, quadrant, p):
        est = ss.solid_angle_gaussian(quadrant, [0, 0], p=p, n_samples=50_000, seed=10)
        assert abs(est.value - 0.25) <= 3 * est.std_error

    def test_triangle_second_vertex(self, triangle):
        cone = ss.vertex_simple_cones(triangle, 1)[0]
        est = ss.solid_angle_gaussian(cone, cone.apex, p=2.0, n_samples=50_000, seed=11)
        assert abs(est.value - 1 / 6) <= 3 * est.std_error

    @pytest.mark.parametrize("p,exact", [(2.0, ss.solid_angle_exact_2d),
                                         (1.0, ss.solid_angle_exact_2d_l1)])
    def test_agreement_random_cones(self, p, exact):
        rng = np.random.default_rng(12)
        for i in range(6):
            cone = random_pointed_cone_2d(rng)
            ref = exact(cone).value
            est = ss.solid_angle_gaussian(cone, cone.apex, p=p, n_samples=50_000, seed=50 + i)
            assert abs(est.value - ref) <= 3 * max(est.std_error, 1e-6)

    def test_additivity_at_lattice_points(self, square):
        # square split along the diagonal; piece angles add to the square's
        lower = ss.load_polytope(2, [(0, 0), (1, 0), (1, 1)])
        upper = ss.load_polytope(2, [(0, 0), (1, 1), (0, 1)])
        for x in [(0, 0), (1, 1), (1, 0), (0, 1)]:
            total = 0.0
            err = 0.0
            for piece in (lower, upper):
                w, se = ss.point_weight(piece, 1.0, np.array(x, dtype=float))
                total += w
                err += se
            target, _ = ss.point_weight(square, 1.0, np.array(x, dtype=float))
            assert abs(total - target) <= 3 * err + 1e-12


@pytest.mark.parametrize("n", [0, -5])
@pytest.mark.parametrize("estimator", [ss.solid_angle_mc, ss.solid_angle_gaussian])
def test_sample_count_must_be_positive(quadrant, estimator, n):
    with pytest.raises(ValueError, match=r"n_samples must be >= 1"):
        estimator(quadrant, [0, 0], n_samples=n)


@pytest.mark.parametrize("x", [(math.nan, 0.0), (0.0, math.inf)])
@pytest.mark.parametrize("estimator", [ss.solid_angle_mc, ss.solid_angle_gaussian])
def test_non_finite_point(quadrant, estimator, x):
    with pytest.raises(ValueError, match="x must be finite"):
        estimator(quadrant, x)


class TestSoftIndicator:
    def test_cone_apex_eps_free(self, quadrant):
        # scale invariance makes the finite-eps value exact at the apex
        for eps in (0.5, 0.1, 0.02):
            assert ss.soft_indicator(quadrant, [0, 0], 2.0, eps) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_quadrant_apex_all_p(self, quadrant, p):
        assert ss.soft_indicator(quadrant, [0, 0], p, 0.25) == pytest.approx(0.25, abs=1e-9)

    def test_square_deep_interior(self, square):
        assert ss.soft_indicator(square, [0.5, 0.5], 2.0, 0.005) == pytest.approx(1.0, abs=1e-12)

    def test_far_outside(self, square):
        assert ss.soft_indicator(square, [8.0, 8.0], 2.0, 0.1) == pytest.approx(0.0, abs=1e-15)

    def test_interval_endpoint(self, golden_segment):
        assert ss.soft_indicator(golden_segment, [0.0], 2.0, 0.05) == pytest.approx(0.5, abs=1e-10)

    def test_matches_erf_product_on_square(self, square):
        # independent closed form for a box at p = 2
        from scipy.special import erf
        eps = 0.1
        for x in [(0.3, 0.7), (0.0, 0.5), (-0.4, 1.2)]:
            want = 1.0
            for k in range(2):
                r = math.sqrt(math.pi / eps)
                want *= 0.5 * (erf(r * (1 - x[k])) - erf(r * (0 - x[k])))
            got = ss.soft_indicator(square, list(x), 2.0, eps)
            assert got == pytest.approx(want, abs=1e-11)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 3.0])
    def test_matches_nested_quad_on_a_polygon(self, p):
        # an irregular polygon with a vertical facet, against nested adaptive
        # quadrature with breaks at the vertices, at x_0 and where an edge
        # crosses u_1 = x_1
        from scipy.integrate import quad
        V = np.array([(0, 0), (1.3, -0.2), (1.3, 0.9), (0.4, 1.6), (-0.5, 0.7)], dtype=float)
        P = ss.load_polytope(2, V)
        edges = list(zip(V, np.roll(V, -1, axis=0)))
        c = (2 * math.gamma(1 / p + 1)) ** p

        def span(t):
            ys = [q0[1] + (q1[1] - q0[1]) * (t - q0[0]) / (q1[0] - q0[0])
                  for q0, q1 in edges if min(q0[0], q1[0]) <= t <= max(q0[0], q1[0]) and q0[0] != q1[0]]
            return min(ys), max(ys)

        for eps in (0.5, 0.05, 0.005):
            f = lambda u: eps ** (-1 / p) * math.exp(-(c / eps) * abs(u) ** p)
            width = (50 * eps / c) ** (1 / p)  # the density is below e^-50 beyond it
            for x in [(0.5, 0.6), (1.3, 0.3), (0.4, 1.6), (1.5, 1.2)]:
                def inner(t):
                    lo, hi = span(t)
                    lo, hi = max(lo, x[1] - width), min(hi, x[1] + width)
                    if lo >= hi:
                        return 0.0
                    pts = [x[1]] if lo < x[1] < hi else None
                    return quad(lambda y: f(y - x[1]), lo, hi, points=pts,
                                epsabs=1e-13, epsrel=1e-12, limit=200)[0]

                a, b = max(V[:, 0].min(), x[0] - width), min(V[:, 0].max(), x[0] + width)
                want = 0.0
                if a < b:
                    kinks = [q0[0] + (q1[0] - q0[0]) * (x[1] - q0[1]) / (q1[1] - q0[1])
                             for q0, q1 in edges if (q0[1] - x[1]) * (q1[1] - x[1]) < 0]
                    pts = [v for v in [*V[:, 0], x[0], *kinks] if a < v < b]
                    want = quad(lambda t: f(t - x[0]) * inner(t), a, b, points=pts or None,
                                epsabs=1e-13, epsrel=1e-12, limit=200)[0]
                assert ss.soft_indicator(P, list(x), p, eps) == pytest.approx(want, abs=1e-10), (eps, x)

    def test_bad_eps(self, square):
        with pytest.raises(ss.BadEpsilon):
            ss.soft_indicator(square, [0.5, 0.5], 2.0, 0.0)
