import math

import numpy as np
import pytest

import solidsum as ss
from solidsum.geometry import BOUNDARY_TOL
from solidsum.oracle import _classify, lattice_weights

SQRT3 = math.sqrt(3.0)


class TestDiscreteVolume:
    @pytest.mark.parametrize("t", [1.0, 2.0, 3.0])
    def test_square_quasi_polynomial(self, square, t):
        # corner/edge/interior weights give (t-1)^2 + 2(t-1) + 1 = t^2 exactly
        res = ss.discrete_volume(square, t)
        assert res.value == pytest.approx(t * t, abs=1e-12)
        assert res.std_error == 0.0

    @pytest.mark.parametrize("t, value", [(150.0, 22500.0), (150.5, 22650.25)])
    def test_square_large_t(self, square, t, value):
        # t^2 at integer t, (floor(t) + 1/2)^2 otherwise
        assert ss.discrete_volume(square, t).value == value

    @pytest.mark.parametrize("t", [150.0, 150.25, 150.5, 150.75])
    def test_triangle_large_t_by_rows(self, triangle, t):
        # row x = 0 is the leg, with the right angle at (0, 0) and the 60
        # degree corner at (0, t) when t is whole; row x >= 1 holds (x, 0) on
        # the foot and (x, 1..floor(t - x/sqrt3)) inside, since no lattice
        # point but (0, t) comes within 1e-9 of the hypotenuse at these t
        weights = [0.25] + [0.5] * (math.floor(t) - 1) + [1 / 6 if t.is_integer() else 0.5]
        for x in range(1, math.floor(SQRT3 * t) + 1):
            weights += [0.5] + [1.0] * math.floor(t - x / SQRT3)
        res = ss.discrete_volume(triangle, t)
        assert res.n_lattice_points == len(weights)
        assert abs(res.value - math.fsum(weights)) <= 1e-9 * len(weights)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_dilation(self, square, t):
        with pytest.raises(ValueError, match="t must be finite"):
            ss.discrete_volume(square, t)

    @pytest.mark.parametrize("t, match", [(math.nan, "t must be finite"), (math.inf, "t must be finite"),
                                          (-1.0, "dilation must be >= 0")])
    @pytest.mark.parametrize("m", [(-0.5, -0.2), (0.0, 0.0)])
    def test_point_weight_bad_dilation(self, triangle, t, match, m):
        # both points lie in (-1)*P, where the facet test A m <= t b is not t*P
        with pytest.raises(ValueError, match=match):
            ss.point_weight(triangle, t, m)

    @pytest.mark.parametrize("m", [(math.nan, 0.2), (0.5, -math.inf)])
    def test_point_weight_non_finite_point(self, triangle, m):
        with pytest.raises(ValueError, match="point must be finite"):
            ss.point_weight(triangle, 1.0, m)

    @pytest.mark.parametrize("m", [(0.0, 0.0, 0.0), (0.0,)])
    def test_point_weight_wrong_length(self, triangle, m):
        with pytest.raises(ss.DimensionMismatch):
            ss.point_weight(triangle, 1.0, m)

    def test_triangle_at_one(self, triangle):
        res = ss.discrete_volume(triangle, 1.0, keep_weights=True)
        assert res.value == pytest.approx(11.0 / 12.0, abs=1e-12)
        weights = dict(res.per_point_weights)
        assert weights[(0, 0)] == pytest.approx(0.25, abs=1e-12)
        assert weights[(0, 1)] == pytest.approx(1 / 6, abs=1e-12)
        assert weights[(1, 0)] == pytest.approx(0.5, abs=1e-12)

    def test_triangle_l1_weights(self, triangle):
        # vertex weights from diamond clipping, edge point 1/2
        res = ss.discrete_volume(triangle, 1.0, p=1.0, keep_weights=True)
        v2 = ss.solid_angle_exact_2d_l1(ss.vertex_simple_cones(triangle, 1)[0]).value
        weights = dict(res.per_point_weights)
        assert weights[(0, 0)] == pytest.approx(0.25, abs=1e-12)
        assert weights[(0, 1)] == pytest.approx(v2, abs=1e-12)
        assert weights[(1, 0)] == pytest.approx(0.5, abs=1e-12)
        assert res.value == pytest.approx(0.25 + v2 + 0.5, abs=1e-12)

    def test_per_point_weights_sum_to_value(self, triangle):
        res = ss.discrete_volume(triangle, 1.7, keep_weights=True)
        assert res.value == pytest.approx(sum(w for _, w in res.per_point_weights), abs=1e-12)
        assert all(0.0 <= w <= 1.0 for _, w in res.per_point_weights)
        # counting the weights equal to 1 keeps the fsum of all weights
        res = ss.discrete_volume(triangle, 40.25, keep_weights=True)
        assert res.value == math.fsum(w for _, w in res.per_point_weights)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_exact_vs_mc(self, triangle, p):
        exact = ss.discrete_volume(triangle, 1.0, p=p)
        mc = [ss.solid_angle_mc(triangle, m, p=p, n_samples=40_000, seed=3 + i)
              for i, m in enumerate(ss.lattice_points(triangle, 1.0))]
        value = math.fsum(est.value for est in mc)
        std_error = math.sqrt(math.fsum(est.std_error ** 2 for est in mc))
        assert abs(exact.value - value) <= 3 * std_error

    def test_monotone_in_t(self):
        # origin interior: angles of existing points never decrease
        P = ss.load_polytope(2, [(-1, -1), (1.5, -1), (1.5, 1), (-1, 1)])
        vals = [ss.discrete_volume(P, t).value for t in (0.5, 1.0, 1.5, 2.0, 2.5)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_tetrahedron_mc(self, tetrahedron):
        # 4 vertex cones; the corner at the origin is the octant (1/8)
        res = ss.discrete_volume(tetrahedron, 1.0, n_samples=40_000, seed=4, keep_weights=True)
        weights = dict(res.per_point_weights)
        assert abs(weights[(0, 0, 0)] - 0.125) <= 0.01
        assert res.n_lattice_points == 4


class TestAlphaOracle:
    """The phase-weighted oracle sum is ``alpha_polytope_direct``."""

    def test_phase_collapse_at_zero(self, triangle):
        a = ss.alpha_polytope_direct(triangle, np.zeros(2))
        b = ss.discrete_volume(triangle, 1.0)
        assert a.value == pytest.approx(b.value, abs=1e-12)
        assert abs(a.value.imag) < 1e-15

    def test_triangle_real_s(self, triangle):
        s = np.array([0.17, 0.29])
        got = ss.alpha_polytope_direct(triangle, s)
        want = (0.25 + (1 / 6) * np.exp(2j * math.pi * s[1])
                + 0.5 * np.exp(2j * math.pi * s[0]))
        assert abs(got.value - want) < 1e-12

    def test_empty(self):
        P = ss.load_polytope(2, [(0.2, 0.2), (0.8, 0.2), (0.8, 0.8), (0.2, 0.8)])
        assert ss.alpha_polytope_direct(P, np.array([0.4 + 0.2j, 0.1 + 0j])).value == 0j


# ----------------------------- bulk weights vs the per-point loop -----------

IRRATIONAL = [(0.1, -0.3), (math.pi, 0.2), (2.2, math.e), (-0.7, 1.9)]
FOUR_CUBE = ss.load_polytope(4, [(x, y, z, w) for x in (0, 1) for y in (0, 1)
                                 for z in (0, 1) for w in (0, 1)])


def loop_reference(P, t, **kw):
    """discrete_volume as a scalar loop of point_weight over the lattice points."""
    total, var, weights = 0.0, 0.0, []
    for m in ss.lattice_points(P, t):
        w, se = ss.point_weight(P, t, m, **kw)
        total += w
        var += se * se
        weights.append((tuple(int(v) for v in m), w))
    return total, math.sqrt(var), tuple(weights)


def assert_matches_loop(P, t, **kw):
    res = ss.discrete_volume(P, t, keep_weights=True, **kw)
    value, std_error, weights = loop_reference(P, t, **kw)
    assert res.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert res.std_error == pytest.approx(std_error, rel=1e-12, abs=0.0)
    assert res.per_point_weights == weights
    assert res.n_lattice_points == len(weights)
    return res


class TestBulkWeights:
    @pytest.mark.parametrize("t", [3.0, 4.5, 7.0, 150.25])
    def test_square(self, square, t):
        assert_matches_loop(square, t)

    # 2 + 1/sqrt3 puts (1, 2) on the hypotenuse; sqrt3 makes (3, 0) a vertex
    @pytest.mark.parametrize("t", [1.0, 4.0, 2.0 + 1.0 / SQRT3, SQRT3, 150.5])
    def test_triangle(self, triangle, t):
        res = assert_matches_loop(triangle, t)
        assert res.std_error == 0.0

    def test_triangle_boundary_weights(self, triangle):
        on_edge = dict(ss.discrete_volume(triangle, 2.0 + 1.0 / SQRT3, keep_weights=True).per_point_weights)
        assert on_edge[(1, 2)] == 0.5
        at_vertex = dict(ss.discrete_volume(triangle, SQRT3, keep_weights=True).per_point_weights)
        assert at_vertex[(3, 0)] == pytest.approx(1 / 12, abs=1e-12)

    @pytest.mark.parametrize("t", [1.0, 2.5, 7.3])
    def test_irrational_polygon(self, t):
        assert_matches_loop(ss.load_polytope(2, IRRATIONAL), t)

    def test_l1_exact(self, triangle):
        assert_matches_loop(triangle, 5.0, p=1.0)

    def test_planar_mc(self, triangle):
        # at p = 3 there is no exact planar angle: the corners are sampled
        res = assert_matches_loop(triangle, 3.0, p=3.0, n_samples=2000, seed=4)
        assert res.std_error > 0.0

    def test_simplex_mc(self, tetrahedron):
        res = assert_matches_loop(tetrahedron, 6.0, seed=11)
        assert res.std_error > 0.0

    def test_one_boundary_tolerance(self, triangle):
        # (1, 1) lies 5e-10 outside the hypotenuse: within the tolerance, so
        # enumeration and point weights must both count it as a boundary point
        t = 1.5773502686122756
        A, b = triangle.A, triangle.b
        assert -1e-9 < np.min(t * b - A @ [1.0, 1.0]) < -1e-10
        res = ss.discrete_volume(triangle, t)
        lattice = ss.lattice_points(triangle, t)
        box = [(x, y) for x in range(-1, 4) for y in range(-1, 3)]
        assert res.value == math.fsum(ss.point_weight(triangle, t, m)[0] for m in lattice)
        assert res.value == math.fsum(ss.point_weight(triangle, t, m)[0] for m in box)
        assert ss.point_weight(triangle, t, (1, 1))[0] == 0.5
        assert res.value == 2.25

    def test_planar_vertex_from_incidence(self):
        # (0, 0) is tight on both facets through the vertex (3e-6, 0), which
        # is 3e-6 away: it takes that vertex's exact angle, not a Monte Carlo one
        P = ss.load_polytope(2, [(3e-6, 0), (1, 0), (1, 1e-4)])
        want = ss.solid_angle_exact_2d(ss.vertex_simple_cones(P, 0)[0]).value
        assert want == pytest.approx(1.5915542e-05, rel=1e-7)
        assert ss.point_weight(P, 1, (0, 0)) == (want, 0.0)

    def test_empty_dilate(self):
        P = ss.load_polytope(2, [(0.2, 0.2), (0.8, 0.2), (0.8, 0.8), (0.2, 0.8)])
        res = ss.discrete_volume(P, 1.0, keep_weights=True)
        assert (res.value, res.std_error, res.n_lattice_points) == (0.0, 0.0, 0)
        assert res.per_point_weights == ()

    def test_point_weight_only_at_corners(self, square, tetrahedron, monkeypatch):
        import solidsum.oracle as oracle
        calls = []
        real = oracle.point_weight

        def counting(P, t, m, **kw):
            calls.append(tuple(int(v) for v in m))
            return real(P, t, m, **kw)

        monkeypatch.setattr(oracle, "point_weight", counting)
        ss.discrete_volume(square, 150.0)
        assert sorted(calls) == [(0, 0), (0, 150), (150, 0), (150, 150)]
        calls.clear()
        # at p = 2 the 6 * (t - 1) edge points of the 3-simplex take their
        # exact wedge angle in bulk: only the 4 vertices are sampled
        ss.discrete_volume(tetrahedron, 3.0, n_samples=500)
        assert sorted(calls) == [(0, 0, 0), (0, 0, 3), (0, 3, 0), (3, 0, 0)]

    @pytest.mark.parametrize("fixture, t", [("cube", 3.0), ("octahedron", 2.0), ("triangular_prism", 2.5)])
    def test_exact_wedges_match_loop(self, request, fixture, t):
        res = assert_matches_loop(request.getfixturevalue(fixture), t, n_samples=500, seed=2)
        assert res.std_error > 0.0

    def test_four_cube_matches_loop(self):
        res = assert_matches_loop(FOUR_CUBE, 2.0, n_samples=200, seed=2)
        assert res.std_error > 0.0


# ----------------------------- exact p = 2 wedge weights --------------------

def vos_weight(a, b, c):
    """Solid angle over 4 pi of the cone spanned by a, b, c in R^3 (Van
    Oosterom-Strackee)."""
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    la, lb, lc = map(np.linalg.norm, (a, b, c))
    num = abs(float(np.dot(a, np.cross(b, c))))
    den = la * lb * lc + np.dot(a, b) * lc + np.dot(a, c) * lb + np.dot(b, c) * la
    return 2.0 * math.atan2(num, den) / (4.0 * math.pi)


def simplex_vertex_weights(t):
    """Exact vertex weights of the dilated standard 3-simplex, keyed by point."""
    V = [np.array(v, dtype=float) for v in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))]
    return {tuple(int(c) for c in t * v): vos_weight(*[w - v for w in V if w is not v]) for v in V}


def tight_count(P, t, m):
    A, b = P.A, P.b
    return int(np.sum(np.abs(t * b - A @ np.asarray(m, dtype=float)) <= BOUNDARY_TOL))


class TestWedgeWeights:
    def test_cube_edges_quarter(self, cube):
        res = ss.discrete_volume(cube, 3.0, n_samples=500, keep_weights=True)
        edges = [w for m, w in res.per_point_weights if tight_count(cube, 3.0, m) == 2]
        assert len(edges) == 12 * 2
        assert all(w == 0.25 for w in edges)

    def test_simplex_edges(self, tetrahedron):
        t = 4.0
        res = ss.discrete_volume(tetrahedron, t, n_samples=500, keep_weights=True)
        outer = math.acos(1.0 / SQRT3) / (2.0 * math.pi)
        n_origin = n_outer = 0
        for m, w in res.per_point_weights:
            if tight_count(tetrahedron, t, m) != 2:
                continue
            if m.count(0) == 2:  # an edge through the origin: two coordinate planes
                assert w == 0.25
                n_origin += 1
            else:  # a coordinate plane and the slanted facet
                assert w == pytest.approx(outer, rel=0.0, abs=1e-15)
                n_outer += 1
        assert (n_origin, n_outer) == (3 * 3, 3 * 3)

    def test_octahedron_edges(self, octahedron):
        res = ss.discrete_volume(octahedron, 2.0, n_samples=500, keep_weights=True)
        want = (math.pi - math.acos(1.0 / 3.0)) / (2.0 * math.pi)
        edges = [w for m, w in res.per_point_weights if tight_count(octahedron, 2.0, m) == 2]
        assert len(edges) == 12
        assert all(w == pytest.approx(want, rel=0.0, abs=1e-15) for w in edges)

    def test_four_cube_two_tight_facets(self):
        assert ss.point_weight(FOUR_CUBE, 2, (0, 0, 1, 1)) == (0.25, 0.0)

    def test_mc_method_samples_edges(self, cube):
        # the sampled angle at an edge point agrees with the exact wedge weight
        est = ss.solid_angle_mc(ss.dilate(cube, 3), (0, 0, 1), n_samples=2000)
        assert est.std_error > 0.0 and abs(est.value - 0.25) <= 4 * est.std_error

    @pytest.mark.parametrize("t", range(2, 11))
    def test_simplex_polynomial_with_exact_vertices(self, tetrahedron, t):
        # with the 4 sampled vertex weights replaced by closed forms, every
        # weight is exact: the count is the solid-angle polynomial
        vertices = simplex_vertex_weights(t)
        a1 = math.fsum(simplex_vertex_weights(1).values())
        res = ss.discrete_volume(tetrahedron, float(t), n_samples=200, keep_weights=True)
        total = math.fsum(vertices.get(m, w) for m, w in res.per_point_weights)
        assert abs(total - (t ** 3 / 6 + (a1 - 1 / 6) * t)) <= 1e-12

    def test_simplex_error_bar_honest(self, tetrahedron):
        # only the 4 vertex weights are sampled, so the bar is about 6x
        # tighter than with sampled edges; it must still cover the miss, with
        # z-scores spread like a unit normal at each t (runs whose samples
        # did not depend on the seed would all give one z-score)
        a1 = math.fsum(simplex_vertex_weights(1).values())
        for t in (6, 8):
            ref = t ** 3 / 6 + (a1 - 1 / 6) * t
            z = []
            for seed in range(100, 140):
                res = ss.discrete_volume(tetrahedron, float(t), seed=seed)
                assert abs(res.value - ref) <= 4 * res.std_error
                z.append((res.value - ref) / res.std_error)
            assert 0.5 <= float(np.std(z, ddof=1)) <= 1.5


def classify_reference(P, t, pts):
    """The point weights of _classify before wedges, reduced along the
    point rows of the slack matrix."""
    A, b = P.A, P.b
    slack = t * b - pts @ A.T
    tight = np.abs(slack) <= BOUNDARY_TOL
    n_tight = np.count_nonzero(tight, axis=1)
    weights = np.where(n_tight == 0, 1.0, np.where((n_tight == 1) | (P.dim == 1), 0.5, np.nan))
    weights[np.min(slack, axis=1) < -BOUNDARY_TOL] = 0.0
    return weights, tight


@pytest.mark.parametrize("fixture, t", [("square", 150.5), ("triangle", 150.25), ("triangle", 2.0 + 1.0 / SQRT3),
                                        ("golden_segment", 3.0), ("tetrahedron", 4.0), ("cube", 3.0)])
def test_classify_matches_row_reduction(request, fixture, t):
    P = request.getfixturevalue(fixture)
    # the dilate's points and a shifted copy, part of which lies outside
    pts = ss.lattice_points(P, t)
    pts = np.concatenate([pts, pts + 1])
    weights, tight, _ = _classify(P, t, pts, 1.0)
    want, want_tight = classify_reference(P, t, pts)
    np.testing.assert_array_equal(weights, want)
    np.testing.assert_array_equal(tight, want_tight)
    assert (weights == 0.0).any()


@pytest.mark.parametrize("n", [0, -5])
def test_sample_count_must_be_positive(tetrahedron, n):
    calls = [lambda: ss.discrete_volume(tetrahedron, 2.0, n_samples=n),
             lambda: ss.point_weight(tetrahedron, 1.0, [0.2, 0.2, 0.2], n_samples=n),
             lambda: lattice_weights(tetrahedron, 1.0, n_samples=n),
             lambda: ss.alpha_polytope_direct(tetrahedron, [0.3, 0.2, 0.1], n_samples=n)]
    for call in calls:
        with pytest.raises(ValueError, match=r"n_samples must be >= 1"):
            call()


def _translated_simplex(shift, size=1):
    return ss.load_polytope(3, [np.add(shift, v) for v in
                                [(0, 0, 0), (size, 0, 0), (0, size, 0), (0, 0, size)]])


class TestSampleSeeds:
    def test_streams_are_unchanged(self, tetrahedron):
        # Monte Carlo values pinned bit for bit: a rounded coordinate
        # c >= -2**20 gives the seed word c + 2**20
        r = ss.discrete_volume(tetrahedron, 7.0, seed=5)
        assert (r.value, r.std_error) == (57.441180515862264, 0.0030527125233143063)
        P = _translated_simplex((-1000000, -7, 3), size=2)
        assert ss.point_weight(P, 1.0, (-1000000, -7, 3), n_samples=4000, seed=11) == (
            0.11925, 0.005124193534108563)
        assert ss.point_weight(P, 1.0, (-999998, -7, 3), n_samples=4000, seed=11) == (
            0.02525, 0.002480546184814949)

    def test_far_below_the_origin(self, tetrahedron):
        # below x = -2**20 the word c + 2**20 would be negative
        P = _translated_simplex((-2000000, 0, 0))
        value, err = ss.point_weight(P, 1.0, (-2000000, 0, 0), n_samples=4000)
        assert abs(value - 1 / 8) <= 5 * err
        far, near = ss.discrete_volume(P, 1.0), ss.discrete_volume(tetrahedron, 1.0)
        assert far.n_lattice_points == near.n_lattice_points == 4
        assert abs(far.value - near.value) <= 5 * math.hypot(far.std_error, near.std_error)
