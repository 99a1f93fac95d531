import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import solidsum as ss
from conftest import unit_cube
from solidsum import lattice
from solidsum.lattice import DampedSumResult, damped_direct_sum, damped_transform_levels
from solidsum.transforms import phi_hat_1d_grid

SQRT3 = math.sqrt(3.0)


@pytest.fixture
def quadrant_terms(quadrant):
    return [quadrant]


def one_level(terms, s, eps, **cfg_kw):
    """Engine sum at the single damping level eps, as a DampedSumResult."""
    lev = damped_transform_levels(terms, s, ss.DampedSumConfig(eps_schedule=(eps,), **cfg_kw))
    return DampedSumResult(complex(lev.value[0]), float(lev.tail[0]), float(lev.gross[0]))


class TestTransformSum:
    def test_matches_direct_space(self, quadrant, quadrant_terms):
        cfg = ss.DampedSumConfig()
        s = np.array([0.3 + 0.2j, -0.1 + 0.4j])
        for eps in (0.5, 0.1, 0.05, 0.0125):
            a = one_level(quadrant_terms, s, eps)
            b = damped_direct_sum(quadrant, s, cfg, eps)
            assert abs(a.value - b.value) < 1e-6

    def test_p15_wide_box(self, triangle):
        # R = 150 needs phi_hat at |z| up to 150; the wide box cuts the miss
        # against the direct-space sum from up to 8e-6 at R = 30 to 2e-8
        cfg = ss.DampedSumConfig(p=1.5, truncation_radius=150)
        s = np.array([0.31 + 0.12j, 0.22 - 0.07j])
        lv = damped_transform_levels(shifted_vertex_terms(triangle, 1.0), s, cfg)
        assert np.all(np.isfinite(lv.value))
        for eps, value in zip(cfg.eps_schedule[:4], lv.value):
            assert abs(value - damped_direct_sum(triangle, s, cfg, eps).value) < 5e-8

    def test_large_eps_tail_negligible(self, quadrant_terms):
        r = one_level(quadrant_terms, np.array([0.2 + 0.1j, 0.3 - 0.2j]), 10.0)
        assert r.tail < 1e-12

    def test_pole_hit_reports_lattice_point(self, quadrant_terms):
        with pytest.raises(ss.PoleHit) as exc:
            one_level(quadrant_terms, np.array([0.0 + 0j, 0.3 + 0j]), 0.1)
        assert exc.value.lattice_point is not None

    def test_reflection_symmetry(self, triangle):
        # value at -s equals (-1)^d times the value at s with apexes negated
        s = np.array([0.22 + 0.13j, 0.37 - 0.08j])
        cones = [ss.vertex_simple_cones(triangle, i)[0] for i in range(3)]
        reflected = [c.shifted(-c.apex) for c in cones]
        for eps in (0.25, 0.0625):
            a = one_level(cones, -s, eps)
            b = one_level(reflected, s, eps)
            assert abs(a.value - b.value) < 1e-13  # (-1)^2 = 1

    def test_truncation_tail_shrinks_in_radius(self, quadrant_terms):
        s = np.array([0.2 + 0.1j, 0.3 + 0.1j])
        tails = []
        for R in (10, 16, 22):
            tails.append(one_level(quadrant_terms, s, 0.05, truncation_radius=R).tail)
        assert tails[1] < 0.5 * tails[0]
        assert tails[2] < 0.5 * tails[1]



def per_level_reference(terms, s, cfg):
    """Each eps level summed on its own: that level's box, term by term, with
    the shell tail taken over the points with ||m||_inf = R."""
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    d = s.size
    pref = (-2j * math.pi) ** (-d)
    out = []
    for eps in cfg.eps_schedule:
        R = cfg.radius_for(eps)
        ms = np.arange(-R, R + 1)
        M = np.stack(np.meshgrid(*([ms] * d), indexing="ij"), axis=-1).reshape(-1, d)
        Z = M + s
        phi_vals = np.ones(M.shape[0], dtype=complex)
        for k in range(d):
            z = ms + s[k]
            table = np.exp(-math.pi * eps * z * z) if cfg.p == 2.0 else phi_hat_1d_grid(cfg, eps, z)
            phi_vals *= table[M[:, k] + R]
        shell = np.max(np.abs(M), axis=1) == R
        value, tail, gross = 0j, 0.0, 0.0
        for cone in terms:
            denoms = Z @ cone.generators.T
            mags = np.abs(denoms)
            row = int(np.argmin(np.min(mags, axis=1)))
            if mags[row].min() <= 1e-10:
                raise ss.PoleHit("pole", lattice_point=tuple(int(v) for v in M[row]))
            contrib = (pref * abs(cone.det) * phi_vals
                       / np.prod(denoms, axis=1) * np.exp(2j * math.pi * (Z @ cone.apex)))
            value += contrib.sum()
            gross += float(np.abs(contrib).sum())
            tail += float(np.abs(contrib[shell]).sum())
        out.append((value, tail, gross))
    return out


def shifted_vertex_terms(P, t):
    """Vertex cones of t*P."""
    return [c.shifted(t * P.vertices[i])
            for i in range(P.n_vertices) for c in ss.vertex_simple_cones(P, i)]


def segment_terms():
    return [ss.simple_cone([0.31], [[1.0]]), ss.simple_cone([1.7], [[-2.0]])]


def permuted_cone():
    """A coordinate cone with scaled, permuted generators and an irrational apex."""
    return ss.simple_cone([0.3 * SQRT3, -math.sqrt(5.0)], [[0.0, -2.5], [math.sqrt(2.0), 0.0]])


ENGINE_TERMS = {
    "segment": segment_terms,
    "triangle": lambda: shifted_vertex_terms(ss.sqrt3_triangle(), 1.37),
    "tetrahedron": lambda: shifted_vertex_terms(
        ss.load_polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]), 1.3),
    # coordinate cones only: summed as products of 1-D contractions
    "square": lambda: shifted_vertex_terms(unit_cube(2), 1.37),
    "cube": lambda: shifted_vertex_terms(unit_cube(3), 1.37),
    "4-cube": lambda: shifted_vertex_terms(unit_cube(4), 1.37),
    "permuted": lambda: [permuted_cone(), permuted_cone().shifted([1.1, 0.4])],
    # coordinate cones next to general ones, which take the box pass
    "mixed": lambda: (shifted_vertex_terms(unit_cube(2), 1.37) + shifted_vertex_terms(ss.sqrt3_triangle(), 0.8)
                      + [permuted_cone()]),
}

COMPLEX_S = (0.21 + 0.13j, 0.37 - 0.08j, 0.11 + 0.05j, 0.29 + 0.07j)
REAL_S = (0.21, 0.37, 0.11, 0.29)  # pole-free for the fixtures' vertex cones: the engine sums in real dtype

ENGINE_CASES = {
    # (terms, config, chunk limit, s); the default schedule has radii 30 (six
    # levels), 39, 55, 77 and 109
    "1d-default": ("segment", {}, None, COMPLEX_S),
    "2d-default": ("triangle", {}, None, COMPLEX_S),
    "2d-real-s": ("triangle", {}, None, REAL_S),
    "2d-fixed-R": ("triangle", {"truncation_radius": 12}, None, COMPLEX_S),
    "2d-p1.5": ("triangle", {"p": 1.5, "eps_schedule": (0.05, 0.02, 0.01)}, None, COMPLEX_S),
    "3d-fixed-R": ("tetrahedron", {"eps_schedule": (0.5, 0.25, 0.125, 0.0625), "truncation_radius": 8}, None,
                   COMPLEX_S),
    # radii 30, 30, 34: the 69^3 box is split into slabs of four rows
    "3d-mixed-chunked": ("tetrahedron", {"eps_schedule": (0.05, 0.02, 0.01)}, None, COMPLEX_S),
    "3d-mixed-chunked-real-s": ("tetrahedron", {"eps_schedule": (0.05, 0.02, 0.01)}, None, REAL_S),
    # slabs of three rows, with shell tails far above rounding
    "3d-fixed-R-slabs": ("tetrahedron", {"eps_schedule": (0.5, 0.25, 0.125, 0.0625), "truncation_radius": 8}, 1000,
                         COMPLEX_S),
    "square-default": ("square", {}, None, COMPLEX_S),
    "square-real-s": ("square", {}, None, REAL_S),
    "square-p1.5": ("square", {"p": 1.5, "eps_schedule": (0.05, 0.02, 0.01)}, None, COMPLEX_S),
    "cube-mixed-radii": ("cube", {"eps_schedule": (0.05, 0.02, 0.01)}, None, COMPLEX_S),
    "cube-mixed-radii-real-s": ("cube", {"eps_schedule": (0.05, 0.02, 0.01)}, None, REAL_S),
    "cube-fixed-R": ("cube", {"eps_schedule": (0.5, 0.25, 0.125, 0.0625), "truncation_radius": 8}, None,
                     COMPLEX_S),
    "permuted-default": ("permuted", {}, None, COMPLEX_S),
    "permuted-real-s": ("permuted", {}, None, REAL_S),
    "4-cube-fixed-R": ("4-cube", {"eps_schedule": (0.5, 0.25, 0.125), "truncation_radius": 6}, None, COMPLEX_S),
    "4-cube-fixed-R-real-s": ("4-cube", {"eps_schedule": (0.5, 0.25, 0.125), "truncation_radius": 6}, None,
                              REAL_S),
    "mixed-default": ("mixed", {}, None, COMPLEX_S),
    "mixed-slabs": ("mixed", {"truncation_radius": 12}, 100, REAL_S),
}


def count_formed(monkeypatch) -> list:
    """Counts box-pass work at its one counting point, lattice._spread: for
    every spread of denominators, the cone's per-axis denominator tables and
    the number of points it forms them at (a slab's points, or a coordinate
    cone's pole points in that slab)."""
    calls = []
    spread = lattice._spread

    def counted(tables, ufunc, *args):
        out = spread(tables, ufunc, *args)
        if ufunc is np.add:
            calls.append((tables, out.shape[-1]))
        return out

    monkeypatch.setattr(lattice, "_spread", counted)
    return calls


def points_per_cone(calls) -> list:
    """The points counted by ``count_formed`` summed per cone, sorted."""
    totals = {}
    for tables, n in calls:
        totals[id(tables)] = totals.get(id(tables), 0) + n
    return sorted(totals.values())


class TestLevelsEngine:
    @pytest.mark.parametrize("s", [(math.nan, 0.1), (0.3, complex(0.2, -math.inf))])
    def test_non_finite_s(self, quadrant_terms, s):
        with pytest.raises(ValueError, match="s must be finite"):
            damped_transform_levels(quadrant_terms, np.array(s, dtype=complex), ss.DampedSumConfig())

    @pytest.mark.parametrize("case", list(ENGINE_CASES))
    def test_matches_per_level_reference(self, case, monkeypatch):
        name, cfg_kw, chunk_limit, s = ENGINE_CASES[case]
        if chunk_limit is not None:
            monkeypatch.setattr(lattice, "CHUNK_LIMIT", chunk_limit)
        cfg = ss.DampedSumConfig(**cfg_kw)
        terms = ENGINE_TERMS[name]()
        s = np.array(s[:terms[0].dim])
        lev = damped_transform_levels(terms, s, cfg)
        ref = per_level_reference(terms, s, cfg)
        assert lev.value.shape == lev.tail.shape == lev.gross.shape == (len(cfg.eps_schedule),)
        for k, (value, tail, gross) in enumerate(ref):
            assert abs(lev.value[k] - value) <= 3e-15 * gross
            assert lev.gross[k] == pytest.approx(gross, rel=1e-12)
            assert lev.tail[k] == pytest.approx(tail, rel=1e-12, abs=1e-300)

    def test_pole_in_largest_box_only(self):
        # <w_0, m+s> vanishes at the single lattice point (41, -29), which lies
        # outside the boxes of radius 30 and 39 but inside those of 55, 77, 109
        r2 = math.sqrt(2.0)
        cone = ss.simple_cone([0.0, 0.0], [[1.0, r2], [1.0, -math.sqrt(3.0)]])
        s = np.array([-41.0 - r2 * (0.2 - 29.0), 0.2], dtype=complex)
        terms = [cone]
        cfg = ss.DampedSumConfig()
        with pytest.raises(ss.PoleHit) as want:
            per_level_reference(terms, s, cfg)
        with pytest.raises(ss.PoleHit) as got:
            damped_transform_levels(terms, s, cfg)
        assert want.value.lattice_point == (41, -29)
        assert got.value.lattice_point == want.value.lattice_point
        assert got.value.generator_index == 0

    def test_pole_in_later_slab(self, monkeypatch):
        # <w_0, m+s> vanishes at the single lattice point (5, -3, 2) only; with
        # slabs of three rows of the 17^3 box it lies in the fifth slab
        monkeypatch.setattr(lattice, "CHUNK_LIMIT", 1000)
        r2, r3 = math.sqrt(2.0), math.sqrt(3.0)
        cone = ss.simple_cone([0.0, 0.0, 0.0], [[1.0, r2, r3], [1.0, -r3, 0.5], [0.3, 1.0, -r2]])
        s = np.array([-5.0 - r2 * (0.2 - 3.0) - r3 * (0.3 + 2.0), 0.2, 0.3], dtype=complex)
        cfg = ss.DampedSumConfig(eps_schedule=(0.5, 0.25), truncation_radius=8)
        with pytest.raises(ss.PoleHit) as want:
            per_level_reference([cone], s, cfg)
        with pytest.raises(ss.PoleHit) as got:
            damped_transform_levels([cone], s, cfg)
        assert want.value.lattice_point == (5, -3, 2)
        assert got.value.lattice_point == want.value.lattice_point
        assert got.value.generator_index == 0

    def test_coordinate_cone_pole_in_largest_box_only(self):
        # a coordinate cone with a pole point in the box stays on the box
        # pass: w_0 (m + s) vanishes at the single lattice point 41, inside the
        # boxes of radius 55, 77 and 109 only
        cone = ss.simple_cone([0.3 * SQRT3], [[-2.5]])
        s = np.array([-41.0 + 0j])
        cfg = ss.DampedSumConfig()
        with pytest.raises(ss.PoleHit) as want:
            per_level_reference([cone], s, cfg)
        with pytest.raises(ss.PoleHit) as got:
            damped_transform_levels([cone], s, cfg)
        assert want.value.lattice_point == (41,)
        assert got.value.lattice_point == want.value.lattice_point
        assert got.value.generator_index == 0

    def test_coordinate_cone_pole_line(self):
        # the permuted cone's generator 0 is -2.5 e_1, so its pole points are
        # the line m_1 = 41, which lies in the largest boxes only
        s = np.array([0.2, -41.0], dtype=complex)
        cfg = ss.DampedSumConfig()
        with pytest.raises(ss.PoleHit):
            per_level_reference([permuted_cone()], s, cfg)
        with pytest.raises(ss.PoleHit) as got:
            damped_transform_levels([permuted_cone()] + shifted_vertex_terms(unit_cube(2), 1.37), s, cfg)
        assert got.value.lattice_point[1] == 41
        assert got.value.generator_index == 0

    @staticmethod
    def no_box_pass(monkeypatch):
        def spread(*args):
            raise AssertionError("box pass entered")

        monkeypatch.setattr(lattice, "_spread", spread)

    @pytest.mark.parametrize("name", ["segment", "square", "cube", "4-cube", "permuted"])
    def test_coordinate_cones_skip_box_pass(self, name, monkeypatch):
        terms = ENGINE_TERMS[name]()
        self.no_box_pass(monkeypatch)
        lev = damped_transform_levels(terms, np.array(COMPLEX_S[:terms[0].dim]), ss.DampedSumConfig())
        assert np.all(np.isfinite(lev.value)) and np.all(lev.gross > 0)

    def test_general_cone_takes_box_pass(self, monkeypatch):
        self.no_box_pass(monkeypatch)
        with pytest.raises(AssertionError, match="box pass entered"):
            damped_transform_levels(ENGINE_TERMS["mixed"](), np.array(COMPLEX_S[:2]), ss.DampedSumConfig())

    def test_volume_takes_pole_series(self, square, monkeypatch):
        # at s = 0 every coordinate cone has pole points on the hyperplanes
        # m_k = 0: macdonald_volume sums its points off them as products and
        # its points on them through the box pass's Laurent series
        calls = []
        pole_terms = lattice._pole_terms
        monkeypatch.setattr(lattice, "_pole_terms", lambda *a: calls.append(1) or pole_terms(*a))
        for t in (1.0, 1.37, 2.0):
            est = ss.macdonald_volume(square, t)
            want = t * t if t.is_integer() else (math.floor(t) + 0.5) ** 2
            assert abs(est.value - want) <= est.error
        assert calls


def truncated_product_pole_terms(C, a, zero, b, c, order):
    """The rows of lattice._pole_terms as a truncated product of the factors'
    power series in sigma, and the same product of coefficient magnitudes."""
    k = np.arange(order + 1)[:, None]
    fact = np.array([math.factorial(n) for n in range(order + 1)])[:, None]
    factors = [C * (2j * math.pi * c) ** k / fact]
    for aj, zj, bj in zip(a, zero, b):
        aj = np.where(zj, 1.0, aj)
        factors.append(np.where(zj, (k == 0) / bj, (-bj / aj) ** k / aj))
    shift = zero.sum(axis=0) - k
    rows = []
    for series in (factors, [np.abs(f) for f in factors]):
        prod = series[0]
        for f in series[1:]:
            prod = np.array([sum(prod[i] * f[n - i] for i in range(n + 1)) for n in range(order + 1)])
        rows.append(np.where(shift >= 0, np.take_along_axis(prod, np.maximum(shift, 0), 0), 0.0))
    return rows


class TestPoleTerms:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_truncated_product(self, d):
        # 300 pole points with |Z| = 1..d zero denominators each, at real and
        # complex a_j; values are compared on the scale of the majorant,
        # which bounds them and is free of cancellation
        rng = np.random.default_rng(d)
        n = 300
        n_zero = rng.integers(1, d + 1, size=n)
        zero = np.argsort(rng.random((d, n)), axis=0) < n_zero
        b = rng.uniform(0.3, 2.0, (d, n)) * rng.choice([-1.0, 1.0], (d, n))
        c = rng.normal(size=n)
        C = rng.normal(size=n) + 1j * rng.normal(size=n)
        for a in (rng.normal(size=(d, n)), rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n))):
            a = np.where(zero, 0.0, a)
            got = lattice._pole_terms(C, a, zero, b, c, d)
            want = truncated_product_pole_terms(C, a, zero, b, c, d)
            assert got[0].shape == got[1].shape == (d + 1, n)
            np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=0)
            assert np.all(np.abs(got[0] - want[0]) <= 1e-12 * want[1])
            assert np.all((want[1] > 0) == (np.arange(d + 1)[:, None] <= n_zero))


DIRECTION_CASES = {
    # (dim, config, direction)
    "1d": (1, {"eps_schedule": (0.5, 0.1), "truncation_radius": 6}, (1.3,)),
    "2d": (2, {"eps_schedule": (0.5, 0.1), "truncation_radius": 6}, (1.0, 0.7)),
    "2d-p1.5": (2, {"p": 1.5, "eps_schedule": (0.5, 0.1), "truncation_radius": 6}, (1.0, 0.7)),
    "3d": (3, {"eps_schedule": (0.5, 0.25), "truncation_radius": 4}, (1.0, 0.6, 0.3)),
}


OTHER_DIRECTIONS = {
    1: [(-0.7,)],
    2: [(2.0, 1.0), (1.0, 3.0), (0.3, 1.7)],
    3: [(0.3, 1.7, 1.1), (2.0, 0.5, 1.3)],
}


def direction_terms(d, triangle, tetrahedron):
    return {1: segment_terms(), 2: shifted_vertex_terms(triangle, 1.37),
            3: shifted_vertex_terms(tetrahedron, 1.3)}[d]


class TestConstantTerm:
    @pytest.mark.parametrize("case", list(DIRECTION_CASES))
    def test_pole_free_s_ignores_direction(self, case, triangle, tetrahedron):
        # with no denominator zero in the box the constant term in sigma is
        # the value at sigma = 0
        d, cfg_kw, x = DIRECTION_CASES[case]
        cfg = ss.DampedSumConfig(**cfg_kw)
        terms = direction_terms(d, triangle, tetrahedron)
        s = np.array([0.21 + 0.13j, 0.37 - 0.08j, 0.11 + 0.05j][:d])
        plain = damped_transform_levels(terms, s, cfg)
        along = damped_transform_levels(terms, s, cfg, x)
        assert np.all(np.abs(along.value - plain.value) <= 3e-15 * plain.gross)
        assert along.gross == pytest.approx(plain.gross, rel=1e-12)

    @pytest.mark.parametrize("case", list(DIRECTION_CASES))
    def test_matches_contour_mean(self, case, triangle, tetrahedron):
        # at s = 0 single cone terms have poles of order up to d, which cancel
        # over all vertex cones; the mean of the plain engine over a small
        # circle sigma = r e^{i theta} is the value at s = 0, up to aliasing
        # of order r^16
        d, cfg_kw, x = DIRECTION_CASES[case]
        cfg = ss.DampedSumConfig(**cfg_kw)
        terms = direction_terms(d, triangle, tetrahedron)
        along = damped_transform_levels(terms, np.zeros(d), cfg, x)
        sigmas = 0.02 * np.exp(2j * math.pi * (np.arange(16) + 0.5) / 16)
        mean = np.mean([damped_transform_levels(terms, sig * np.array(x), cfg).value for sig in sigmas], axis=0)
        assert np.all(np.abs(along.value - mean) <= 1e-12 * along.gross)

    @pytest.mark.parametrize("case", list(DIRECTION_CASES))
    def test_partial_cone_list_raises(self, case, triangle, tetrahedron):
        # without its last cone the sum is not entire at s = 0: its poles do
        # not cancel, and there is no value to return
        d, cfg_kw, x = DIRECTION_CASES[case]
        terms = direction_terms(d, triangle, tetrahedron)[:-1]
        with pytest.raises(ss.PoleHit, match="do not cancel") as exc:
            damped_transform_levels(terms, np.zeros(d), ss.DampedSumConfig(**cfg_kw), x)
        m = exc.value.lattice_point
        assert len(m) == d and all(isinstance(v, int) for v in m)
        assert ss.pole_distance(terms, np.array(m, dtype=float)) <= lattice.POLE_GUARD

    @pytest.mark.parametrize("case", list(DIRECTION_CASES))
    def test_direction_independence(self, case, triangle, tetrahedron):
        d, cfg_kw, x = DIRECTION_CASES[case]
        cfg = ss.DampedSumConfig(**cfg_kw)
        terms = direction_terms(d, triangle, tetrahedron)
        a = damped_transform_levels(terms, np.zeros(d), cfg, x)
        for y in OTHER_DIRECTIONS[d]:
            b = damped_transform_levels(terms, np.zeros(d), cfg, y)
            assert np.all(np.abs(a.value - b.value) <= 3e-15 * a.gross)

    def test_direction_length_checked(self, quadrant_terms):
        with pytest.raises(ValueError, match="direction has 3 components"):
            damped_transform_levels(quadrant_terms, np.zeros(2), ss.DampedSumConfig(), (1.0, 1.0, 1.0))

    def test_non_generic_direction_raises(self, quadrant_terms):
        with pytest.raises(ss.PoleHit, match="not generic"):
            damped_transform_levels(quadrant_terms, np.zeros(2), ss.DampedSumConfig(), (0.0, 1.0))


def full_box_levels(terms, s, cfg, x, monkeypatch):
    """The engine's levels with the half box and the ball forced off: the box
    pass walks every point of the largest box, as at complex s."""
    box_pass = lattice._box_pass
    with monkeypatch.context() as m:
        m.setattr(lattice, "_box_pass", lambda *args: box_pass(*args[:6], False))
        return damped_transform_levels(terms, s, cfg, x)


def assert_same_levels(got, want):
    assert np.all(np.abs(got.value - want.value) <= 3e-15 * want.gross)
    assert got.gross == pytest.approx(want.gross, rel=1e-12)
    assert got.tail == pytest.approx(want.tail, rel=1e-12, abs=1e-300)


HALF_BOX_POLYTOPES = {
    # fixture: (truncation radius, direction)
    "square": (12, (1.0, 0.7)),
    "triangle": (12, (1.0, 0.7)),
    "tetrahedron": (6, (1.0, 0.6, 0.3)),
}
FAST_3D = ss.DampedSumConfig(eps_schedule=tuple(0.5 * 0.5 ** k for k in range(6)), truncation_radius=30)


def ball_count(cfg, d, first=0) -> int:
    """Brute-force count of the half box's points with m_1 >= first that a
    p = 2 volume keeps: pi eps_min |m|^2 <= 36, or ||m||_inf = R for some
    level's R."""
    radii = sorted({cfg.radius_for(e) for e in cfg.eps_schedule})
    ms = np.arange(-radii[-1], radii[-1] + 1)
    M = np.stack(np.meshgrid(*([ms] * d), indexing="ij"), axis=-1).reshape(-1, d)
    M = M[M[:, 0] >= first]
    ball = math.pi * cfg.eps_schedule[-1] * (M * M).sum(axis=1) <= 36.0
    return int(np.sum(ball | np.isin(np.abs(M).max(axis=1), radii)))


class TestHalfBox:
    """At s = 0 along a real direction the tables are real and even, and
    r_n(-m) = (-1)^(d+n) conj(r_n(m)), so the box pass walks m_1 >= 0 only;
    at p = 2 it forms terms only where some level's weight reaches e^-36,
    and on every level's outer shell."""

    @pytest.mark.parametrize("case", list(DIRECTION_CASES))
    def test_direction_cases_match_the_full_box(self, case, triangle, tetrahedron, monkeypatch):
        d, cfg_kw, x = DIRECTION_CASES[case]
        cfg = ss.DampedSumConfig(**cfg_kw)
        terms = direction_terms(d, triangle, tetrahedron)
        got = damped_transform_levels(terms, np.zeros(d), cfg, x)
        assert_same_levels(got, full_box_levels(terms, np.zeros(d), cfg, x, monkeypatch))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("fixture", list(HALF_BOX_POLYTOPES))
    def test_polytopes_match_the_full_box(self, fixture, p, request, monkeypatch):
        # at p != 2 the quadrature tables are real and even up to rounding;
        # at p = 2 the ball of radius 9.57 cuts the corners of both boxes
        radius, x = HALF_BOX_POLYTOPES[fixture]
        P = request.getfixturevalue(fixture)
        cfg = ss.DampedSumConfig(p=p, eps_schedule=(0.5, 0.25, 0.125), truncation_radius=radius)
        for t in (0.0, 1.0, 1.37, 1.97533, 2.96939):
            terms = shifted_vertex_terms(P, t)
            got = damped_transform_levels(terms, np.zeros(P.dim), cfg, x)
            assert_same_levels(got, full_box_levels(terms, np.zeros(P.dim), cfg, x, monkeypatch))

    def test_fast_3d_volumes_match_the_full_box(self, tetrahedron, monkeypatch):
        # the ball of radius 27.1 keeps 53,637 of the 115,351 points of the
        # half box, and 226,981 points form the full box
        x = HALF_BOX_POLYTOPES["tetrahedron"][1]
        for t in (0.0, 1.0, 2.0, 3.0):
            terms = shifted_vertex_terms(tetrahedron, t)
            got = damped_transform_levels(terms, np.zeros(3), FAST_3D, x)
            assert_same_levels(got, full_box_levels(terms, np.zeros(3), FAST_3D, x, monkeypatch))

    def test_volumes_form_terms_on_half_the_ball(self, tetrahedron, triangle, monkeypatch):
        # the half boxes hold 31 * 61^2 = 115,351 and 110 * 219 = 24,090
        # points, and the ball and shells keep 53,637 and 18,992 of them; at
        # the default 2-D config the slab m_1 <= 90 keeps 87% of its 91 rows
        # and is formed whole, so 91 * 219 + 1,699 points form terms; each
        # general vertex cone forms its terms there, and the origin cone only
        # at its 5,021 and 3 * 109 + 1 pole points (see TestHyperplanes)
        assert ball_count(FAST_3D, 3) == 53_637
        cfg_2d = ss.DampedSumConfig()
        assert ball_count(cfg_2d, 2) == 18_992
        assert ball_count(cfg_2d, 2) - ball_count(cfg_2d, 2, 91) > lattice.GATHER_LIMIT * 91 * 219
        assert ball_count(cfg_2d, 2, 91) == 1_699
        calls = count_formed(monkeypatch)
        ss.macdonald_volume(tetrahedron, 2.0, cfg=FAST_3D)
        assert points_per_cone(calls) == [5_021] + 3 * [53_637]
        calls.clear()
        ss.conjecture_check(triangle)
        assert points_per_cone(calls) == [328] + 2 * [91 * 219 + 1_699]
        calls.clear()
        ss.macdonald_volume(triangle, 1.37)
        assert points_per_cone(calls) == [328] + 2 * [91 * 219 + 1_699]

    @pytest.mark.parametrize("cfg_kw, n_points", [
        (DIRECTION_CASES["2d"][1], 7 * 13),
        (DIRECTION_CASES["2d-p1.5"][1], 7 * 13),
        ({"p": 3.0, "eps_schedule": (0.5, 0.25, 0.125), "truncation_radius": 12}, 13 * 25),
    ])
    def test_no_cut_forms_the_whole_half_box(self, cfg_kw, n_points, triangle, monkeypatch):
        # R = 6 at eps_min = 0.1: the ball's radius 10.7 exceeds the corner's
        # 6 sqrt(2); at p != 2 there is no ball.  The origin cone forms its
        # terms at the 3 R + 1 pole points of the half box only
        calls = count_formed(monkeypatch)
        cfg = ss.DampedSumConfig(**cfg_kw)
        damped_transform_levels(shifted_vertex_terms(triangle, 1.37), np.zeros(2), cfg, (1.0, 0.7))
        assert points_per_cone(calls) == [3 * cfg.truncation_radius + 1] + 2 * [n_points]

    def test_partial_cone_list_raises_on_the_ball(self, triangle, monkeypatch):
        # the cancellation test runs on the gathered points too, and reports
        # one of them
        cfg = ss.DampedSumConfig(eps_schedule=(0.5, 0.25, 0.125), truncation_radius=12)
        terms = shifted_vertex_terms(triangle, 1.37)[:-1]
        calls = count_formed(monkeypatch)
        with pytest.raises(ss.PoleHit, match="do not cancel") as exc:
            damped_transform_levels(terms, np.zeros(2), cfg, (1.0, 0.7))
        # one slab: the origin cone's pole points, then the other cone's terms
        assert [n for _, n in calls][1:] == [ball_count(cfg, 2)] and ball_count(cfg, 2) < 13 * 25
        m = exc.value.lattice_point
        assert len(m) == 2 and all(isinstance(v, int) for v in m) and m[0] >= 0
        assert math.pi * 0.125 * (m[0] ** 2 + m[1] ** 2) <= 36.0 or max(map(abs, m)) == 12
        assert ss.pole_distance(terms, np.array(m, dtype=float)) <= lattice.POLE_GUARD

    def test_complex_s_walks_the_whole_box(self, triangle, monkeypatch):
        # two of the triangle's three vertex cones take the box pass
        calls = count_formed(monkeypatch)
        ss.macdonald_sum(triangle, 1.37, np.array([0.21 + 0.13j, 0.37 - 0.08j]))
        assert points_per_cone(calls) == 2 * [219 ** 2]

    @pytest.mark.parametrize("d", [2, 3])
    def test_mirror_identity(self, d, triangle, tetrahedron):
        # plain terms and Laurent rows of every vertex cone at m and -m
        terms = direction_terms(d, triangle, tetrahedron)
        x = np.array(DIRECTION_CASES[f"{d}d"][2])
        ms = np.arange(-3, 4)
        M = np.stack(np.meshgrid(*([ms] * d), indexing="ij"), axis=-1).reshape(-1, d).astype(float)
        n_poles = 0
        for cone in terms:
            a_plus, a_minus = cone.generators @ M.T, cone.generators @ -M.T
            C_plus = abs(cone.det) * np.exp(2j * math.pi * (M @ cone.apex))
            C_minus = abs(cone.det) * np.exp(2j * math.pi * (-M @ cone.apex))
            zero = np.abs(a_plus) <= lattice.POLE_GUARD
            assert np.array_equal(zero, np.abs(a_minus) <= lattice.POLE_GUARD)
            plain = ~zero.any(axis=0)
            term_plus = C_plus[plain] / np.prod(a_plus[:, plain], axis=0)
            term_minus = C_minus[plain] / np.prod(a_minus[:, plain], axis=0)
            assert np.all(np.abs(term_minus - (-1) ** d * term_plus.conj()) <= 1e-15 * np.abs(term_plus))
            poles = ~plain
            n_poles += poles.sum()
            b = np.broadcast_to((cone.generators @ x)[:, None], (d, poles.sum()))
            c = np.full(poles.sum(), float(cone.apex @ x))
            rows_plus, major_plus = lattice._pole_terms(C_plus[poles], a_plus[:, poles], zero[:, poles], b, c, d)
            rows_minus, major_minus = lattice._pole_terms(C_minus[poles], a_minus[:, poles], zero[:, poles], b, c, d)
            signs = ((-1.0) ** (d + np.arange(d + 1)))[:, None]
            assert np.all(np.abs(rows_minus - signs * rows_plus.conj()) <= 1e-15 * major_plus)
            np.testing.assert_allclose(major_minus, major_plus, rtol=1e-15)
        assert n_poles > 0


def box_pass_levels(terms, s, cfg, x, monkeypatch):
    """The engine's levels with every cone summed as a general one: each
    coordinate cone forms its terms at every point the box pass walks, not
    as products off its hyperplanes."""
    with monkeypatch.context() as m:
        m.setattr(lattice, "_axis_scales", lambda W: None)
        return damped_transform_levels(terms, s, cfg, x)


class TestHyperplanes:
    """Along a direction, a coordinate cone with pole points in the box sums
    its points off the hyperplanes w_k (m_k + s_k) = 0 as products of 1-D
    contractions, and enters the box pass only at its pole points."""

    @pytest.mark.parametrize("case", list(DIRECTION_CASES))
    def test_direction_cases_match_the_box_pass(self, case, triangle, tetrahedron, monkeypatch):
        # the 1-D segment's cones and the simplices' origin cones are
        # coordinate cones
        d, cfg_kw, x = DIRECTION_CASES[case]
        cfg = ss.DampedSumConfig(**cfg_kw)
        terms = direction_terms(d, triangle, tetrahedron)
        got = damped_transform_levels(terms, np.zeros(d), cfg, x)
        assert_same_levels(got, box_pass_levels(terms, np.zeros(d), cfg, x, monkeypatch))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("fixture", ["square", "triangle", "tetrahedron", "cube"])
    def test_polytopes_match_the_box_pass(self, fixture, p, request, monkeypatch):
        P = request.getfixturevalue(fixture)
        radius, x = HALF_BOX_POLYTOPES.get(fixture, HALF_BOX_POLYTOPES["tetrahedron"])
        cfg = ss.DampedSumConfig(p=p, eps_schedule=(0.5, 0.25, 0.125), truncation_radius=radius)
        for t in (0.0, 1.0, 1.37, 1.97533, 2.96939):
            terms = shifted_vertex_terms(P, t)
            got = damped_transform_levels(terms, np.zeros(P.dim), cfg, x)
            assert_same_levels(got, box_pass_levels(terms, np.zeros(P.dim), cfg, x, monkeypatch))

    @pytest.mark.parametrize("fixture, cfg, ts", [
        ("tetrahedron", FAST_3D, (0.0, 1.0, 2.0)),
        ("cube", FAST_3D, (1.0, 1.5)),
        ("unit_cube_4d", ss.DampedSumConfig(eps_schedule=(0.5, 0.25, 0.125), truncation_radius=6), (1.0, 1.5)),
    ])
    def test_volume_configs_match_the_box_pass(self, fixture, cfg, ts, request, monkeypatch):
        P = request.getfixturevalue(fixture)
        x = np.linspace(1.0, 0.3, P.dim)
        for t in ts:
            terms = shifted_vertex_terms(P, t)
            got = damped_transform_levels(terms, np.zeros(P.dim), cfg, x)
            assert_same_levels(got, box_pass_levels(terms, np.zeros(P.dim), cfg, x, monkeypatch))

    @pytest.mark.parametrize("fixture, s", [
        # pole lines away from s = 0: at an integer s_k, also next to a
        # complex or real non-integer s_j, where the whole box is walked
        ("square", (0.21 + 0.13j, 0.0)),
        ("square", (0.3, -1.0)),
        ("triangle", (0.0, 0.21 + 0.1j)),
        ("cube", (0.0, 0.2 - 0.1j, 2.0)),
    ])
    def test_pole_lines_off_zero_match_the_box_pass(self, fixture, s, request, monkeypatch):
        P = request.getfixturevalue(fixture)
        cfg = ss.DampedSumConfig(eps_schedule=(0.5, 0.25, 0.125), truncation_radius=12)
        terms, s, x = shifted_vertex_terms(P, 1.37), np.array(s, dtype=complex), np.linspace(1.0, 0.3, P.dim)
        got = damped_transform_levels(terms, s, cfg, x)
        assert_same_levels(got, box_pass_levels(terms, s, cfg, x, monkeypatch))

    def test_volumes_form_terms_on_the_hyperplanes_only(self, square, triangle, tetrahedron, monkeypatch):
        # the default 2-D half box has 219 pole points on the row m_1 = 0 and
        # 109 on the column m_2 = 0, m_1 > 0: the square's four cones form
        # denominators there and nowhere else; the triangle's origin cone
        # adds them to its two general cones' 21,628 points each, and the
        # 3-simplex's origin cone adds 5,021 to 3 * 53,637
        calls, pole_points = count_formed(monkeypatch), []
        pole_terms = lattice._pole_terms
        monkeypatch.setattr(lattice, "_pole_terms", lambda C, *args: pole_points.append(C.size) or pole_terms(C, *args))
        ss.macdonald_volume(square, 1.37)
        assert sum(n for _, n in calls) == sum(pole_points) == 4 * 328
        calls.clear()
        ss.macdonald_volume(triangle, 1.37)
        assert sum(n for _, n in calls) == 2 * 21_628 + 328
        calls.clear()
        ss.macdonald_volume(tetrahedron, 1.37, cfg=FAST_3D)
        assert sum(n for _, n in calls) == 3 * 53_637 + 5_021

    def test_partial_cone_list_raises(self, square):
        # three of the square's four coordinate cones: their Laurent rows on
        # the hyperplanes do not cancel
        terms = shifted_vertex_terms(square, 1.37)[:-1]
        cfg = ss.DampedSumConfig(eps_schedule=(0.5, 0.25, 0.125), truncation_radius=12)
        with pytest.raises(ss.PoleHit, match="do not cancel") as exc:
            damped_transform_levels(terms, np.zeros(2), cfg, (1.0, 0.7))
        m = exc.value.lattice_point
        assert len(m) == 2 and all(isinstance(v, int) for v in m) and 0 in m
        assert ss.pole_distance(terms, np.array(m, dtype=float)) <= lattice.POLE_GUARD


def traced_peak(op) -> int:
    """Bytes by which tracemalloc's traced memory peaks above its level
    before op, over one call of op."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        op()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def forced_pole_search(terms, s, cfg, monkeypatch):
    """The engine's levels with the pole-free certificate turned off: every
    cone on the box pass searches its slabs for poles."""
    with monkeypatch.context() as m:
        m.setattr(lattice, "_pole_free", lambda W, s: False)
        return damped_transform_levels(terms, s, cfg)


class TestWorkArea:
    """The box pass writes its slab-sized steps into a work area that each
    thread keeps between calls, and at complex s forms the terms of a cone
    with no generator orthogonal to Im s without a pole search."""

    @pytest.mark.parametrize("call", ["triangle sum", "triangle volume", "3-simplex volume"])
    def test_repeated_call_allocates_less_than_a_slab(self, call, triangle, tetrahedron):
        # after one warm-up call the repeated call allocates no slab-sized
        # array: at the parent commit these peaked at 2.1 to 5.5 MB
        op = {
            "triangle sum": lambda: ss.macdonald_sum(triangle, 1.37, np.array([0.31 + 0.12j, 0.22 - 0.07j])),
            "triangle volume": lambda: ss.macdonald_volume(triangle, 1.37),
            "3-simplex volume": lambda: ss.macdonald_volume(tetrahedron, 2.0, cfg=FAST_3D),
        }[call]
        op()
        assert traced_peak(op) < lattice.CHUNK_LIMIT * 16

    @pytest.mark.parametrize("apex, generators, s, j", [
        # the quadrant: Im s is orthogonal to e_1, and m_1 = 0 is a pole line
        ([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], (0.0, 0.3 + 0.2j), 0),
        # a general cone: Im s is orthogonal to w_0 = (1, 1), and Re s lies
        # on its zero set, so every m with m_1 + m_2 = 0 is a pole
        ([0.0, 0.0], [[1.0, 1.0], [1.0, -2.0]], (0.3 + 0.2j, -0.3 - 0.2j), 0),
    ])
    def test_orthogonal_im_s_keeps_the_pole_search(self, apex, generators, s, j):
        cone = ss.simple_cone(apex, generators)
        s = np.array(s)
        assert not lattice._pole_free(cone.generators, s)
        with pytest.raises(ss.PoleHit) as exc:
            damped_transform_levels([cone], s, ss.DampedSumConfig(eps_schedule=(0.5, 0.25), truncation_radius=6))
        assert exc.value.generator_index == j
        assert ss.pole_distance([cone], np.array(exc.value.lattice_point) + s) <= lattice.POLE_GUARD

    @pytest.mark.parametrize("case", [c for c, v in ENGINE_CASES.items() if v[3] == COMPLEX_S])
    def test_certified_matches_the_pole_search(self, case, monkeypatch):
        name, cfg_kw, chunk_limit, s = ENGINE_CASES[case]
        if chunk_limit is not None:
            monkeypatch.setattr(lattice, "CHUNK_LIMIT", chunk_limit)
        cfg = ss.DampedSumConfig(**cfg_kw)
        terms = ENGINE_TERMS[name]()
        s = np.array(s[:terms[0].dim])
        assert_same_levels(damped_transform_levels(terms, s, cfg), forced_pole_search(terms, s, cfg, monkeypatch))

    def test_certified_3_simplex_matches_the_pole_search(self, tetrahedron, monkeypatch):
        certified = []
        pole_free = lattice._pole_free
        monkeypatch.setattr(lattice, "_pole_free", lambda W, s: certified.append(pole_free(W, s)) or certified[-1])
        s = np.array(COMPLEX_S[:3])
        for t in (1.0, 1.37):
            terms = shifted_vertex_terms(tetrahedron, t)
            got = damped_transform_levels(terms, s, FAST_3D)
            assert_same_levels(got, forced_pole_search(terms, s, FAST_3D, monkeypatch))
        assert certified and all(certified)

    def test_threads_get_the_sequential_levels(self, triangle, tetrahedron):
        # four threads on two cores, each with its own work area, switching
        # every microsecond: a shared or clobbered array would change a level
        x = HALF_BOX_POLYTOPES["tetrahedron"][1]
        calls = [
            lambda: damped_transform_levels(shifted_vertex_terms(triangle, 1.37), np.array(COMPLEX_S[:2]),
                                            ss.DampedSumConfig()),
            lambda: damped_transform_levels(shifted_vertex_terms(tetrahedron, 2.0), np.zeros(3), FAST_3D, x),
        ] * 2
        want = [call() for call in calls]
        got = [None] * len(calls)

        def run(k):
            for _ in range(3):
                got[k] = calls[k]()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(calls))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for g, w in zip(got, want):
            assert np.array_equal(g.value, w.value) and np.array_equal(g.gross, w.gross)
            assert np.array_equal(g.tail, w.tail)


class TestDirectSum:
    def test_geometric_series_closed_form(self, quadrant, quadrant_terms):
        # imaginary argument makes the limit an explicit geometric series
        a, b = 0.15, 0.25
        s = np.array([1j * a, 1j * b])
        q1, q2 = math.exp(-2 * math.pi * a), math.exp(-2 * math.pi * b)
        closed = 0.25 + 0.5 * (q1 / (1 - q1) + q2 / (1 - q2)) + q1 * q2 / ((1 - q1) * (1 - q2))
        cfg = ss.DampedSumConfig()
        eps = cfg.eps_schedule
        est = ss.richardson_limit(eps, [damped_direct_sum(quadrant, s, cfg, e).value for e in eps])
        assert abs(est.value - closed) < 1e-6
        est_t = ss.richardson_limit(eps, [one_level(quadrant_terms, s, e).value for e in eps])
        assert abs(est_t.value - closed) < 1e-6

    def test_cone_independent_of_generator_length(self):
        # the margins are distances to the facets, compared with the
        # quadrature cutoff, so rescaling a generator moves no weight
        cfg = ss.DampedSumConfig(truncation_radius=8)
        s = np.array([0.2 + 0.15j, 0.3 + 0.1j])
        values = [damped_direct_sum(ss.simple_cone([0.37, 0.21], [[k, 0.0], [0.4 * k, 1.1 * k]]), s, cfg, 0.05).value
                  for k in (0.2, 1.0, 3.0, 30.0)]
        assert max(abs(v - values[1]) for v in values) < 1e-14

    def test_real_argument_outside_convergence_domain(self, quadrant):
        cfg = ss.DampedSumConfig()
        with pytest.raises(ss.ConvergenceDomain):
            damped_direct_sum(quadrant, np.array([0.3 + 0j, 0.4 + 0j]), cfg, 0.1)

    def test_polytope_accepts_any_argument(self, square):
        cfg = ss.DampedSumConfig()
        r = damped_direct_sum(square, np.array([0.3 + 0j, 0.4 + 0j]), cfg, 0.1)
        assert np.isfinite(r.value)


class TestExtrapolation:
    """eps -> 0 limits over the default damping schedule."""

    @staticmethod
    def limit(f, cfg=None):
        eps = (cfg or ss.DampedSumConfig()).eps_schedule
        return ss.richardson_limit(eps, [f(e) for e in eps])

    def test_constant(self):
        est = self.limit(lambda e: 3.25 + 0j)
        assert est.value == 3.25 + 0j
        assert est.error == 0.0

    def test_affine_exact(self):
        est = self.limit(lambda e: 1.5 + 2.0 * e)
        assert abs(est.value - 1.5) < 1e-12

    def test_non_convergent(self):
        cfg = ss.DampedSumConfig(eps_schedule=(0.5, 0.25, 0.125, 0.0625, 0.03125))
        with pytest.raises(ss.NonConvergent):
            self.limit(lambda e: math.exp(1.0 / e), cfg)

    def test_schedule_too_short(self):
        with pytest.raises(ss.ScheduleTooShort):
            self.limit(lambda e: 1.0, ss.DampedSumConfig(eps_schedule=(0.5,)))


class TestAlphaPolytopeDirect:
    def test_square_at_zero(self, square):
        est = ss.alpha_polytope_direct(square, np.zeros(2))
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_triangle_at_zero(self, triangle):
        est = ss.alpha_polytope_direct(triangle, np.zeros(2))
        assert est.value == pytest.approx(11.0 / 12.0, abs=1e-12)

    def test_triangle_closed_form_real_s(self, triangle):
        s = np.array([0.21, 0.34])
        est = ss.alpha_polytope_direct(triangle, s)
        closed = (0.25 + (1 / 6) * np.exp(2j * math.pi * s[1])
                  + 0.5 * np.exp(2j * math.pi * s[0]))
        assert abs(est.value - closed) < 1e-12

    @pytest.mark.parametrize("s", [(math.nan, 0.1), (0.3, complex(0.2, math.inf))])
    def test_non_finite_s(self, triangle, s):
        with pytest.raises(ValueError, match="s must be finite"):
            ss.alpha_polytope_direct(triangle, np.array(s, dtype=complex))

    @pytest.mark.parametrize("s", [(0.1, 0.2, 0.3), (0.1,)])
    def test_wrong_length_s(self, square, s):
        with pytest.raises(ss.DimensionMismatch, match=rf"s has shape \({len(s)},\), expected \(2,\)"):
            ss.alpha_polytope_direct(square, np.array(s, dtype=complex))

    @pytest.mark.parametrize("body", ["square", "quadrant"])
    @pytest.mark.parametrize("s", [(0.1, 0.2, -0.3j), (0.1,)])
    def test_wrong_length_s_direct_sum(self, body, s, request):
        with pytest.raises(ss.DimensionMismatch, match=rf"s has shape \({len(s)},\), expected \(2,\)"):
            damped_direct_sum(request.getfixturevalue(body), np.array(s, dtype=complex),
                              ss.DampedSumConfig(), 0.1)

    def test_no_lattice_points(self):
        P = ss.load_polytope(2, [(0.1, 0.1), (0.9, 0.1), (0.9, 0.9), (0.1, 0.9)])
        est = ss.alpha_polytope_direct(P, np.array([0.3 + 0.1j, 0.2 + 0j]))
        assert est.value == 0j
