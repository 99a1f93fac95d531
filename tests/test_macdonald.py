import math

import numpy as np
import pytest

import solidsum as ss
from conftest import cross_polytope, random_pole_free_s, unit_cube

SQRT3 = math.sqrt(3.0)


def vertex_cones(P):
    return [c for i in range(P.n_vertices) for c in ss.vertex_simple_cones(P, i)]


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_dilation(square, t, monkeypatch):
    # raised before any engine pass
    import solidsum.macdonald as macdonald
    monkeypatch.setattr(macdonald, "damped_transform_levels", None)
    s = np.array([0.31 + 0.12j, 0.22 - 0.07j])
    calls = [lambda: ss.macdonald_sum(square, t, s), lambda: ss.macdonald_volume(square, t),
             lambda: ss.verify_macdonald(square, t, s)]
    for call in calls:
        with pytest.raises(ValueError, match="t must be finite"):
            call()


@pytest.mark.parametrize("s", [(math.nan, 0.1), (0.31, complex(0.22, math.inf))])
def test_non_finite_s(triangle, quadrant, s):
    s = np.array(s, dtype=complex)
    calls = [lambda: ss.macdonald_sum(triangle, 1.0, s), lambda: ss.verify_brion(triangle, s),
             lambda: ss.verify_macdonald(triangle, 1.37, s),
             lambda: ss.verify_cone_reciprocity(quadrant, np.zeros(2), s)]
    for call in calls:
        with pytest.raises(ValueError, match="s must be finite"):
            call()


class TestMacdonaldSum:
    def test_square_unit_dilation_matches_alpha(self, square):
        s = np.array([0.3j, 0.4j])
        ev = ss.macdonald_sum(square, 1.0, s)
        alpha = ss.alpha_polytope_direct(square, s)
        assert abs(ev.value - alpha.value) < 1e-4

    def test_per_vertex_breakdown_sums_exactly(self, triangle):
        ev = ss.macdonald_sum(triangle, 1.37, np.array([0.21 + 0.1j, 0.33 - 0.05j]))
        assert sum(c for _, c in ev.per_vertex) == ev.value

    def test_zero_dilation_collapses_exponentials(self, triangle):
        # t = 0 puts every apex at the origin; cross-check against a direct
        # engine call on the same cones
        from solidsum.lattice import damped_transform_levels
        cfg = ss.DampedSumConfig()
        s = np.array([0.27 + 0.13j, 0.41 - 0.22j])
        terms = [c.shifted([0.0, 0.0]) for c in vertex_cones(triangle)]
        ev = ss.macdonald_sum(triangle, 0.0, s, cfg)
        ref = ss.richardson_limit(cfg.eps_schedule, [
            damped_transform_levels(terms, s, ss.DampedSumConfig(eps_schedule=(e,))).value[0]
            for e in cfg.eps_schedule])
        assert abs(ev.value - ref.value) < 1e-13

    def test_pole_hit_at_zero(self, square):
        with pytest.raises(ss.PoleHit):
            ss.macdonald_sum(square, 1.0, np.zeros(2))

    def test_vertex_partials_recover_alpha(self, square, triangle):
        rng = np.random.default_rng(31)
        for P in (square, triangle):
            cones = vertex_cones(P)
            for _ in range(5):
                s = random_pole_free_s(rng, 2, cones)
                ev = ss.macdonald_sum(P, 1.0, s)
                alpha = ss.alpha_polytope_direct(P, s)
                assert abs(sum(c for _, c in ev.per_vertex) - alpha.value) < 1e-4


    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("t", [1.0, 1.37, 2.0])
    def test_cube_closed_form(self, d, t):
        # the cube's vertex cones are coordinate cones, summed as products of
        # 1-D contractions, so the default config evaluates in any dimension;
        # the sum factors over the axes, with weight 1/2 at j = 0 and j = t
        P = unit_cube(d)
        for s in (np.array([0.21 + 0.13j, 0.37 - 0.08j, 0.11 + 0.05j, 0.29 + 0.07j][:d]),
                  np.array([0.21, 0.37, 0.11, 0.29][:d])):
            ev = ss.macdonald_sum(P, t, s)
            j = np.arange(math.floor(t) + 1)
            w = np.where((j == 0) | (j == t), 0.5, 1.0)
            want = math.prod(np.sum(w * np.exp(2j * math.pi * j * sk)) for sk in s)
            assert abs(ev.value - want) <= ev.error


def simplex_closed_form(t):
    """A(t) of the standard 3-simplex at integer t: t^3/6 + (A(1) - 1/6) t.
    The lattice points of the simplex itself are its vertices: the origin sees
    an octant and each other vertex a trihedral cone, whose solid angle comes
    from the Van Oosterom-Strackee formula."""
    a, b, c = np.array([-1.0, 0.0, 0.0]), np.array([-1.0, 1.0, 0.0]), np.array([-1.0, 0.0, 1.0])
    na, nb, nc = map(np.linalg.norm, (a, b, c))
    num = abs(np.dot(a, np.cross(b, c)))
    den = na * nb * nc + np.dot(a, b) * nc + np.dot(a, c) * nb + np.dot(b, c) * na
    a1 = 1 / 8 + 3 * 2 * math.atan2(num, den) / (4 * math.pi)
    return t ** 3 / 6 + (a1 - 1 / 6) * t


FAST_3D = ss.DampedSumConfig(eps_schedule=tuple(0.5 * 0.5 ** k for k in range(6)), truncation_radius=30)


class TestMacdonaldVolume:
    @pytest.mark.parametrize("t", [1.0, 2.0, 3.0])
    def test_square_is_t_squared(self, square, t):
        est = ss.macdonald_volume(square, t)
        assert abs(est.value - t * t) < 1e-13
        assert abs(est.value - t * t) <= est.error

    def test_triangle_unit_dilation_exact(self, triangle):
        est = ss.macdonald_volume(triangle, 1.0)
        assert abs(est.value - 11 / 12) < 1e-13
        assert abs(est.value - 11 / 12) <= est.error

    @pytest.mark.parametrize("t", [0.5, 1.0, 1.5])
    def test_triangle_matches_oracle(self, triangle, t):
        est = ss.macdonald_volume(triangle, t)
        orc = ss.discrete_volume(triangle, t)
        assert abs(est.value - orc.value) <= max(1e-2, 3 * orc.std_error)

    def test_golden_rectangle(self, golden_rectangle):
        est = ss.macdonald_volume(golden_rectangle, 1.0)
        orc = ss.discrete_volume(golden_rectangle, 1.0)
        assert orc.value == pytest.approx(1.5, abs=1e-12)
        assert abs(est.value - 1.5) < 1e-12
        assert abs(est.value - 1.5) <= est.error

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("t", [1.0, 1.5])
    def test_square_other_norms(self, square, p, t):
        # the square's solid-angle weights are 1, 1/2 and 1/4 for every p
        est = ss.macdonald_volume(square, t, cfg=ss.DampedSumConfig(p=p))
        assert abs(est.value - t * t) < 1e-12
        assert abs(est.value - t * t) <= est.error

    @pytest.mark.parametrize("t", [0.0, 1.0, 2.0])
    def test_three_simplex_closed_form(self, tetrahedron, t):
        est = ss.macdonald_volume(tetrahedron, t, cfg=FAST_3D)
        assert abs(est.value - simplex_closed_form(t)) <= est.error

    def test_ulp_tilted_edge(self):
        # 0.1 + 0.2 != 0.3: the lower edge is tilted by an ulp, so the poles
        # on the axis m_2 = 0 cancel across the cones only to about 1.8e-12
        # of their majorant, which is rounding, not a partial cone list
        quad = ss.load_polytope(2, [(0.1, 0.3), (2.3, 0.1 + 0.2), (2.0, 1.7), (0.4, 1.9)])
        est = ss.macdonald_volume(quad, 16.0)
        orc = ss.discrete_volume(quad, 16.0)
        assert orc.std_error == 0.0
        assert abs(est.value - orc.value) <= est.error

    @pytest.mark.parametrize("t", [1.0, 2.0])
    def test_four_cube(self, t):
        # simple vertex cones need no triangulation, in any dimension
        P = unit_cube(4)
        cfg = ss.DampedSumConfig(eps_schedule=(0.5, 0.25, 0.125), truncation_radius=6)
        est = ss.macdonald_volume(P, t, cfg=cfg)
        assert abs(est.value - t ** 4) < 1e-13 * t ** 4
        assert abs(est.value - t ** 4) <= est.error

    @pytest.mark.parametrize("t", [1.0, 2.0])
    def test_four_cross_polytope(self, t):
        # every vertex cone is non-simple (an octahedral vertex figure, four
        # pieces); Macdonald's closed form is (2/3)(t^4 + t^2).  A coarse
        # schedule fits the polynomial's structure without being exact, so
        # the gate is the closed form
        cfg = ss.DampedSumConfig(eps_schedule=(1 / 4, 1 / 8, 1 / 16, 1 / 32), truncation_radius=16)
        est = ss.macdonald_volume(cross_polytope(4), t, cfg=cfg)
        assert abs(est.value - 2 / 3 * (t ** 4 + t ** 2)) <= est.error

    def test_no_generic_direction(self, tetrahedron, monkeypatch):
        # (1,1,1) is orthogonal to the edge (-1,1,0) of the 3-simplex
        from solidsum import macdonald
        cfg = ss.DampedSumConfig(eps_schedule=(0.5, 0.25), truncation_radius=3)
        monkeypatch.setattr(macdonald, "_fallback_directions", lambda d: iter(()))
        with pytest.raises(ss.PoleHit, match="no generic direction"):
            ss.macdonald_volume(tetrahedron, 1.0, cfg=cfg)

    def test_three_simplex_matches_oracle(self, tetrahedron):
        cfg = ss.DampedSumConfig(eps_schedule=tuple(0.5 * 0.5 ** k for k in range(6)),
                                 truncation_radius=30)
        est = ss.macdonald_volume(tetrahedron, 1.0, cfg=cfg)
        orc = ss.discrete_volume(tetrahedron, 1.0, n_samples=40_000, seed=9)
        assert abs(est.value - orc.value) <= max(1e-2, 3 * orc.std_error)

    def test_triangulation_independence(self):
        # two different simplicial splits of the cone over a square must give
        # identical damped sums
        from solidsum.lattice import damped_transform_levels
        cfg = ss.DampedSumConfig(eps_schedule=(0.1,), truncation_radius=12)
        s = np.array([0.27 + 0.11j, 0.19 - 0.07j, 0.33 + 0.21j])
        e1, e2, e13, e23 = [1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]
        split_a = [ss.simple_cone([0, 0, 0], [e1, e2, e13]),
                   ss.simple_cone([0, 0, 0], [e2, e13, e23])]
        split_b = ss.triangulate_cone([0, 0, 0], np.array([e1, e2, e13, e23], dtype=float))
        va = sum(damped_transform_levels([c], s, cfg).value[0] for c in split_a)
        vb = sum(damped_transform_levels([c], s, cfg).value[0] for c in split_b)
        assert abs(va - vb) < 1e-12


class TestConeReciprocity:
    def test_origin_quadrant(self, quadrant):
        s = np.array([0.31 + 0.17j, 0.23 - 0.11j])
        rep = ss.verify_cone_reciprocity(quadrant, [0.0, 0.0], s)
        assert rep.residual < 1e-6
        assert rep.passed

    def test_shifted_quadrant(self, quadrant):
        s = np.array([0.31 + 0.17j, 0.23 - 0.11j])
        rep = ss.verify_cone_reciprocity(quadrant, [0.5, math.sqrt(2.0)], s)
        assert rep.residual < 1e-6

    def test_three_dimensional_sign(self):
        # odd dimension flips the sign: lhs must equal minus the raw sum
        cone = ss.simple_cone([0, 0, 0], np.eye(3))
        cfg = ss.DampedSumConfig(eps_schedule=tuple(0.5 * 0.5 ** k for k in range(6)))
        s = np.array([0.3 + 0.1j, -0.2 + 0.2j, 0.42 - 0.15j])
        rep = ss.verify_cone_reciprocity(cone, [0, 0, 0], s, cfg)
        assert rep.residual < 1e-6
        assert rep.inputs["dim"] == 3
        # rhs stored with the parity sign already applied
        assert abs(rep.lhs - rep.rhs) == rep.residual



class TestTruncationTail:
    """Reported errors carry the truncation tail of the last extrapolant:
    in each case below the Richardson difference alone is smaller than the
    miss against an exact reference."""

    S_COMPLEX = np.array([0.31 + 0.12j, 0.22 - 0.07j])

    def test_sum_at_p1(self, triangle):
        s = np.array([0.31, 0.22])
        ev = ss.macdonald_sum(triangle, 1.0, s, ss.DampedSumConfig(p=1.0))
        exact = ss.alpha_polytope_direct(triangle, s, p=1.0)
        assert abs(ev.value - exact.value) <= ev.error

    def test_sum_at_p1_complex_s(self, triangle):
        ev = ss.macdonald_sum(triangle, 1.0, self.S_COMPLEX, ss.DampedSumConfig(p=1.0))
        exact = ss.alpha_polytope_direct(triangle, self.S_COMPLEX, p=1.0)
        assert abs(ev.value - exact.value) <= ev.error

    @pytest.mark.parametrize("fixture", ["square", "triangle"])
    def test_sum_small_radius(self, fixture, request):
        P = request.getfixturevalue(fixture)
        ev = ss.macdonald_sum(P, 1.0, self.S_COMPLEX, ss.DampedSumConfig(truncation_radius=5))
        exact = ss.alpha_polytope_direct(P, self.S_COMPLEX)
        assert abs(ev.value - exact.value) <= ev.error

    def test_volume_at_p1(self, triangle):
        est = ss.macdonald_volume(triangle, 1.0, cfg=ss.DampedSumConfig(p=1.0))
        exact = ss.discrete_volume(triangle, 1.0, p=1.0)
        assert exact.std_error == 0.0
        assert abs(est.value - exact.value) <= est.error

    @pytest.mark.parametrize("radius", [5, None])
    def test_reciprocity_sides(self, quadrant, radius):
        # imaginary s: the quadrant's sum is a product of geometric series
        a, b = 0.15, 0.25
        q1, q2 = math.exp(-2 * math.pi * a), math.exp(-2 * math.pi * b)
        closed = 0.25 + 0.5 * (q1 / (1 - q1) + q2 / (1 - q2)) + q1 * q2 / ((1 - q1) * (1 - q2))
        rep = ss.verify_cone_reciprocity(quadrant, [0.0, 0.0], np.array([1j * a, 1j * b]),
                                         ss.DampedSumConfig(truncation_radius=radius))
        assert abs(rep.rhs - closed) <= rep.details["rhs_error"]
        assert abs(rep.lhs - closed) <= rep.details["lhs_error"]


class TestEngineCalls:
    """Each damped sum is one engine pass covering every eps level."""

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        from solidsum import macdonald
        calls = []
        engine = macdonald.damped_transform_levels

        def counting(terms, s, cfg, direction=None):
            try:
                levels = engine(terms, s, cfg, direction)
            except ss.PoleHit:
                calls.append("pole")
                raise
            calls.append(len(cfg.eps_schedule))
            return levels

        monkeypatch.setattr(macdonald, "damped_transform_levels", counting)
        return calls

    def test_volume_one_engine_call(self, square, engine_calls):
        est = ss.macdonald_volume(square, 1.0)
        assert engine_calls == [10]
        assert abs(est.value - 1.0) <= est.error

    def test_volume_engine_rejects_direction(self, tetrahedron, engine_calls):
        # the default (1,1,1) is orthogonal to an edge of the 3-simplex; the
        # generator check rejects it without a lattice pass, so the first
        # fallback direction makes the one engine call
        est = ss.macdonald_volume(tetrahedron, 1.0, cfg=FAST_3D)
        assert engine_calls == [6]
        assert abs(est.value - simplex_closed_form(1.0)) <= est.error

    def test_sum_one_call_per_vertex(self, triangle, engine_calls):
        ss.macdonald_sum(triangle, 1.37, np.array([0.21 + 0.1j, 0.33 - 0.05j]))
        assert engine_calls == [10] * triangle.n_vertices

    def test_reciprocity_one_call_per_side(self, quadrant, engine_calls):
        ss.verify_cone_reciprocity(quadrant, [0.5, math.sqrt(2.0)], np.array([0.31 + 0.17j, 0.23 - 0.11j]))
        assert engine_calls == [10, 10]

class TestBrion:
    def test_square_complex_s(self, square):
        rep = ss.verify_brion(square, np.array([0.3 + 0.2j, -0.1 + 0.4j]))
        assert rep.residual < 1e-4

    def test_triangle_closed_form_lhs(self, triangle):
        s = np.array([0.3 + 0.2j, -0.1 + 0.4j])
        rep = ss.verify_brion(triangle, s)
        closed = (0.25 + (1 / 6) * np.exp(2j * math.pi * s[1])
                  + 0.5 * np.exp(2j * math.pi * s[0]))
        assert abs(rep.lhs - closed) < 1e-12
        assert rep.residual < 1e-4

    def test_golden_segment(self, golden_segment):
        s = np.array([0.23 + 0.11j])
        rep = ss.verify_brion(golden_segment, s)
        closed = 0.5 + np.exp(2j * math.pi * s[0])
        assert abs(rep.lhs - closed) < 1e-12
        assert rep.residual < 1e-4

    def test_both_sides_use_the_config_norm(self, triangle):
        # the vertex (0, 1) has a 60 degree angle, whose weight depends on p
        cfg = ss.DampedSumConfig(p=1.5, eps_schedule=(0.05, 0.02, 0.01))
        s = np.array([0.3 + 0.2j, -0.1 + 0.4j])
        rep = ss.verify_brion(triangle, s, cfg)
        assert rep.inputs["p"] == cfg.p
        assert rep.lhs == ss.alpha_polytope_direct(triangle, s, p=cfg.p).value
        assert rep.lhs != ss.alpha_polytope_direct(triangle, s, p=2.0).value
        assert rep.rhs == ss.macdonald_sum(triangle, 1.0, s, cfg).value


class TestMacdonaldReciprocity:
    @pytest.mark.parametrize("t", [0.5, 1.37])
    def test_triangle(self, triangle, t):
        rng = np.random.default_rng(17)
        cones = [ss.vertex_simple_cones(triangle, i)[0] for i in range(3)]
        for _ in range(3):
            s = random_pole_free_s(rng, 2, cones)
            rep = ss.verify_macdonald(triangle, t, s)
            assert rep.residual < 1e-5

    def test_zero_dilation_reduces(self, triangle):
        s = np.array([0.27 + 0.1j, 0.31 - 0.2j])
        rep = ss.verify_macdonald(triangle, 0.0, s)
        assert rep.residual < 1e-6

    def test_three_simplex_parity(self, tetrahedron):
        cfg = ss.DampedSumConfig(eps_schedule=tuple(0.5 * 0.5 ** k for k in range(6)),
                                 truncation_radius=30)
        s = np.array([0.26 + 0.12j, 0.38 - 0.07j, 0.19 + 0.21j])
        rep = ss.verify_macdonald(tetrahedron, 1.0, s, cfg)
        assert rep.residual < 1e-5


    def test_four_cube(self):
        s = np.array([0.26 + 0.12j, 0.38 - 0.07j, 0.19 + 0.21j, 0.31 - 0.04j])
        rep = ss.verify_macdonald(unit_cube(4), 1.37, s)
        assert rep.passed
        assert rep.residual <= rep.details["lhs_error"] + rep.details["rhs_error"]


class TestConjecture:
    def test_triangle_even_dimension(self, triangle):
        est = ss.conjecture_check(triangle)
        assert abs(est.value) < 1e-3

    def test_square(self, square):
        est = ss.conjecture_check(square)
        assert abs(est.value) < 1e-3

    def test_three_simplex_odd_dimension(self, tetrahedron):
        cfg = ss.DampedSumConfig(eps_schedule=tuple(0.5 * 0.5 ** k for k in range(6)),
                                 truncation_radius=30)
        est = ss.conjecture_check(tetrahedron, cfg=cfg)
        assert abs(est.value) < 1e-3


class TestBrianchonGram:
    def test_interior_point_breakdown(self, square):
        from solidsum.geometry import face_tangent_cone_active_facets, half_spaces
        A, b = half_spaces(square)
        x = np.array([0.5, 0.5])
        total = 0
        for f in ss.faces(square):
            act = face_tangent_cone_active_facets(square, f)
            total += f.sign * int(np.all(A[act] @ x <= b[act]))
        assert total == 1

    def test_far_outside_triangle(self, triangle):
        from solidsum.geometry import face_tangent_cone_active_facets, half_spaces
        A, b = half_spaces(triangle)
        x = np.array([40.0, -35.0])
        total = sum(
            f.sign * int(np.all(A[face_tangent_cone_active_facets(triangle, f)] @ x
                                <= b[face_tangent_cone_active_facets(triangle, f)]))
            for f in ss.faces(triangle))
        assert total == 0

    @pytest.mark.parametrize("fixture", ["square", "triangle", "tetrahedron"])
    def test_random_points(self, fixture, request):
        P = request.getfixturevalue(fixture)
        res = ss.brianchon_gram_check(P, n_points=100, seed=7)
        assert res.passed
        assert res.n_failures == 0

    @pytest.mark.parametrize("make", [cross_polytope, unit_cube])
    def test_four_dim(self, make):
        res = ss.brianchon_gram_check(make(4), n_points=300, seed=7)
        assert res.passed and res.n_failures == 0


IRRATIONAL_POLYGON = [(0.1, -0.3), (math.pi, 0.2), (2.2, math.e), (-0.7, 1.9)]
CUBE = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]


def gram_reference(P, n_points, seed, margin, active_facets):
    """brianchon_gram_check as a per-point loop: draw, redraw near a facet
    plane, then evaluate the indicator identity at the one point."""
    from solidsum.geometry import half_spaces
    A, b = half_spaces(P)
    face_list = ss.faces(P)
    actives = [active_facets(P, f) for f in face_list]
    lo, hi = P.vertices.min(axis=0), P.vertices.max(axis=0)
    center = 0.5 * (lo + hi)
    halfwidth = np.maximum(0.5 * (hi - lo), 1.0)
    rng = np.random.default_rng(seed)
    failures = []
    for _ in range(n_points):
        while True:
            x = center + (rng.random(P.dim) * 4.0 - 2.0) * halfwidth
            if np.min(np.abs(A @ x - b)) > margin:
                break
        lhs = int(np.all(A @ x <= b))
        rhs = sum(f.sign * int(np.all(A[act] @ x <= b[act])) for f, act in zip(face_list, actives))
        if lhs != rhs:
            failures.append((tuple(float(v) for v in x), lhs, int(rhs)))
    return len(failures), tuple(failures[:5])


def drop_one_vertex_facet(P, face):
    """A wrong active set (vertex cones lose their last facet), so that the
    identity fails at many points and the comparison sees the sampled points."""
    from solidsum.geometry import face_tangent_cone_active_facets
    act = face_tangent_cone_active_facets(P, face)
    return act[:-1] if face.dim == 0 else act


class TestBatchedGramCheck:
    @pytest.fixture(params=["tetrahedron", "cube", "polygon"])
    def polytope(self, request):
        if request.param == "cube":
            return ss.load_polytope(3, CUBE)
        if request.param == "polygon":
            return ss.load_polytope(2, IRRATIONAL_POLYGON)
        return request.getfixturevalue(request.param)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_per_point_loop(self, polytope, seed, monkeypatch):
        import solidsum.macdonald as macdonald
        from solidsum.geometry import face_tangent_cone_active_facets
        res = ss.brianchon_gram_check(polytope, 300, seed)
        want = gram_reference(polytope, 300, seed, macdonald.GRAM_MARGIN, face_tangent_cone_active_facets)
        assert (res.n_failures, res.counterexamples) == want == (0, ())
        monkeypatch.setattr(macdonald, "face_tangent_cone_active_facets", drop_one_vertex_facet)
        res = ss.brianchon_gram_check(polytope, 300, seed)
        want = gram_reference(polytope, 300, seed, macdonald.GRAM_MARGIN, drop_one_vertex_facet)
        assert want[0] > 0
        assert (res.n_failures, res.counterexamples) == want

    @pytest.mark.parametrize("seed", [0, 5])
    def test_resampling_fallback(self, polytope, seed, monkeypatch):
        import solidsum.macdonald as macdonald
        # a wide margin rejects many draws, including some of the first few
        monkeypatch.setattr(macdonald, "GRAM_MARGIN", 0.3)
        monkeypatch.setattr(macdonald, "face_tangent_cone_active_facets", drop_one_vertex_facet)
        res = ss.brianchon_gram_check(polytope, 300, seed)
        want = gram_reference(polytope, 300, seed, 0.3, drop_one_vertex_facet)
        assert want[0] > 0
        assert (res.n_failures, res.counterexamples) == want
        assert res.n_points == 300

    def test_zero_points(self, tetrahedron):
        res = ss.brianchon_gram_check(tetrahedron, 0)
        assert (res.passed, res.n_points, res.n_failures) == (True, 0, 0)


class TestVertexConesBuiltOnce:
    def test_macdonald_volume(self, square, triangle, monkeypatch):
        # one triangulation per vertex per polytope, shared with
        # verify_macdonald and discrete_volume
        from solidsum import geometry
        apexes = []
        real = geometry.triangulate_cone

        def counting(apex, generators):
            apexes.append(tuple(apex))
            return real(apex, generators)

        monkeypatch.setattr(geometry, "triangulate_cone", counting)
        for P, want in ((square, 1.0), (triangle, 11.0 / 12.0)):
            apexes.clear()
            est = ss.macdonald_volume(P, 1.0)
            ss.verify_macdonald(P, 1.37, np.array([0.21 + 0.1j, 0.33 - 0.05j]))
            ss.discrete_volume(P, 1.0)
            assert sorted(apexes) == sorted(map(tuple, P.vertices))
            assert abs(est.value - want) <= est.error
            assert ss.vertex_simple_cones(P, 0) is ss.vertex_simple_cones(P, 0)
