import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

import solidsum as ss
from conftest import cross_polytope, sphere_polytope, unit_cube
from solidsum.geometry import BOUNDARY_TOL, body_half_spaces, edges

SQRT3 = math.sqrt(3.0)


class TestLoadPolytope:
    def test_sqrt3_triangle(self):
        P = ss.load_polytope(2, [(0, 0), (0, 1), (SQRT3, 0)])
        assert P.n_vertices == 3
        assert np.allclose(P.vertices[2], [SQRT3, 0.0])

    def test_unit_square(self):
        P = ss.load_polytope(2, [(0, 0), (1, 0), (1, 1), (0, 1)])
        assert P.n_vertices == 4

    def test_collinear_rejected(self):
        with pytest.raises(ss.DegenerateInput):
            ss.load_polytope(2, [(0, 0), (1, 1), (2, 2)])

    def test_row_length_mismatch(self):
        with pytest.raises(ss.DimensionMismatch):
            ss.load_polytope(2, [(0, 0), (1, 0, 0), (0, 1)])

    def test_nonextreme_point_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="non-extreme"):
            P = ss.load_polytope(2, [(0, 0), (1, 0), (0.5, 0.25), (1, 1), (0, 1)])
        assert P.n_vertices == 4

    def test_nonfinite_rejected(self):
        with pytest.raises(ss.DegenerateInput):
            ss.load_polytope(2, [(0, 0), (1, 0), (0, math.nan)])

    def test_too_few_vertices(self):
        with pytest.raises(ss.DegenerateInput):
            ss.load_polytope(2, [(0, 0), (1, 0)])

    def test_thinner_than_the_boundary_tolerance(self):
        # the smallest singular value of its edge vectors is 4.3e-10: above
        # the affine-rank tolerance, below BOUNDARY_TOL
        thin = np.array([(0, 0, 0), (-0.9383804314270437, 0.0462170073209513, -0.3424998600716364),
                         (0.9376793717498603, -0.05842230945763389, 0.342555440115062),
                         (-0.7704208856518993, -0.5796303999151315, -0.2654811828464836)])
        with pytest.raises(ss.DegenerateInput, match="span no 3-dimensional hull"):
            ss.load_polytope(3, thin)
        P = ss.load_polytope(3, 10.0 * thin)
        assert (P.n_vertices, len(P.A)) == (4, 4)

    def test_rounding_above_the_boundary_tolerance_raises(self):
        # two rows lie 2.6e8 from the origin, where the rounding in a plane's
        # slack exceeds BOUNDARY_TOL, so the hull keeps finding rows beyond a
        # plane that it already holds; run apart, so that a hang fails here
        # instead of stalling the suite
        code = """
import sys, time
sys.path.insert(0, sys.argv[1])
import solidsum as ss
V = [[0.0, 0.0, 0.0],
     [-45795440.52982621, -255992895.4390634, 10300314.366198154],
     [45979592.48328166, 257022278.42778075, -10341733.688696213],
     [2.2686672442749427, 2.79665580830114, 1.072205327290398],
     [2.2817424235813966, 2.86974494717472, 1.069264486999611]]
t0 = time.perf_counter()
try:
    ss.load_polytope(3, V)
except ss.DegenerateInput as exc:
    print(time.perf_counter() - t0, exc)
"""
        src = str(Path(ss.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, timeout=30)
        assert out.returncode == 0, out.stderr
        seconds, message = out.stdout.split(" ", 1)
        assert float(seconds) < 1.0
        assert "rounding" in message


class TestJsonLoader:
    def test_expression_coordinates(self, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(
            {"dim": 2, "vertices": [["0", "0"], ["0", "2/2"], ["sqrt(3)", "-0.0"]]}))
        P = ss.polytope_from_json(path)
        assert np.allclose(sorted(P.vertices[:, 0]), [0.0, 0.0, SQRT3])
        assert P.coord_sources[2][0] == "sqrt(3)"

    def test_dict_input_and_negatives(self):
        P = ss.polytope_from_json(
            {"dim": 1, "vertices": [["-sqrt(2)"], ["1/2"]]})
        assert np.allclose(sorted(P.vertices[:, 0]), [-math.sqrt(2), 0.5])

    def test_provenance_tracks_surviving_vertices(self):
        with pytest.warns(UserWarning, match="non-extreme"):
            P = ss.polytope_from_json({"dim": 1, "vertices": [["0"], ["1/4"], ["2"]]})
        assert P.n_vertices == 2
        assert P.coord_sources == (("0",), ("2",))

    def test_bad_coordinate(self):
        with pytest.raises(ss.DegenerateInput):
            ss.polytope_from_json({"dim": 1, "vertices": [["sqrt(-1)"], [1]]})

    def test_missing_keys(self):
        with pytest.raises(ss.DegenerateInput):
            ss.polytope_from_json({"vertices": [[0], [1]]})


class TestTangentCones:
    def test_triangle_vertex_generators(self, triangle):
        c0 = ss.vertex_tangent_cone(triangle, 0)
        assert np.allclose(sorted(map(tuple, c0.generators)), [(0, 1), (SQRT3, 0)])
        c1 = ss.vertex_tangent_cone(triangle, 1)
        assert np.allclose(sorted(map(tuple, c1.generators)), [(0, -1), (SQRT3, -1)])
        # raw edge vectors at the second vertex already give |det| = sqrt(3)
        assert abs(abs(np.linalg.det(c1.generators)) - SQRT3) < 1e-12

    def test_square_corner(self, square):
        c = ss.vertex_tangent_cone(square, 0)
        assert np.allclose(sorted(map(tuple, c.generators)), [(0, 1), (1, 0)])

    def test_bad_index(self, triangle):
        for i in (7, 3, -1):
            with pytest.raises(ss.BadIndex):
                ss.vertex_tangent_cone(triangle, i)
            with pytest.raises(ss.BadIndex):
                ss.vertex_simple_cones(triangle, i)


class TestTriangulateCone:
    def test_simple_2d_passthrough(self):
        pieces = ss.triangulate_cone([0, 0], [[1, 0], [0, 1]])
        assert len(pieces) == 1
        assert abs(pieces[0].det - 1.0) < 1e-12

    def test_simplicial_3d_passthrough(self):
        pieces = ss.triangulate_cone([0, 0, 0], np.eye(3))
        assert len(pieces) == 1

    def test_not_pointed(self):
        with pytest.raises(ss.NotPointed):
            ss.triangulate_cone([0, 0], [[1, 0], [-1, 0], [0, 1]])  # a half-plane

    def test_line_is_flat(self):
        # dimension is checked before pointedness: a line spans no plane
        with pytest.raises(ss.DegenerateCone):
            ss.triangulate_cone([0, 0], [[1, 0], [-1, 0]])
        with pytest.raises(ss.DegenerateCone):
            body_half_spaces(ss.Cone(np.zeros(2), np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]])))

    def test_coplanar_generators(self):
        with pytest.raises(ss.DegenerateCone):
            ss.triangulate_cone(np.zeros(3), [[1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 1, 0]])

    def test_square_cone_split(self):
        gens = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=float)
        pieces = ss.triangulate_cone([0, 0, 0], gens)
        assert len(pieces) == 2
        assert abs(sum(abs(p.det) for p in pieces) - 2.0) < 1e-12

    def test_square_cone_partition_mc(self):
        # union of pieces = parent cone {x,y,z >= 0, x+y >= z}, interiors disjoint
        gens = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=float)
        pieces = ss.triangulate_cone([0, 0, 0], gens)
        invs = [np.linalg.inv(p.generators) for p in pieces]
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1.5, 1.5, size=(10_000, 3))
        in_pieces = np.zeros(len(pts), dtype=int)
        for inv in invs:
            lam = pts @ inv
            in_pieces += np.all(lam >= 0, axis=1)
        parent = (np.min(pts, axis=1) >= 0) & (pts[:, 0] + pts[:, 1] - pts[:, 2] >= 0)
        # ignore the measure-zero band around all piece boundaries
        band = np.zeros(len(pts), dtype=bool)
        for inv in invs:
            band |= np.any(np.abs(pts @ inv) < 1e-9, axis=1)
        ok = ~band
        assert np.array_equal(in_pieces[ok] > 0, parent[ok])
        assert int(in_pieces[ok].max()) <= 1


def _assert_partition(gens, pieces, seed: int, n: int = 4000) -> None:
    """Every sampled point of the cone spanned by gens lies in exactly one
    piece, and no sampled point outside it lies in any.  Membership in the
    cone is decided by non-negative least squares; points within 1e-9 of a
    piece's boundary are skipped."""
    from scipy.optimize import nnls
    gens = np.asarray(gens, dtype=float)
    X = np.random.default_rng(seed).normal(size=(n, gens.shape[1]))
    lam = np.stack([X @ np.linalg.inv(p.generators) for p in pieces])
    ok = ~np.any(np.abs(lam) < 1e-9, axis=(0, 2))
    count = np.sum(np.all(lam > 0, axis=2), axis=0)
    inside = np.array([nnls(gens.T, x)[1] <= 1e-12 for x in X])
    assert ok.sum() > 0.99 * n
    assert 0.01 * n < np.sum(ok & inside)
    assert np.all(count[ok & inside] == 1)
    assert np.all(count[ok & ~inside] == 0)


SQUARE_CONE = [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]]


class TestConePartition:
    @pytest.mark.parametrize("gens, n_pieces", [
        (SQUARE_CONE + [[0, 0, 1]], 2),                          # interior generator
        ([[0, 0, 1]] + SQUARE_CONE + [[0.1, -0.2, 1]], 2),     # interior generators first and last
        (SQUARE_CONE + [[0.5, 0.5, 1], [-1, -1, 2]], 2),        # mid-facet generators
        (SQUARE_CONE + [[1, 0, 1], [0, 3, 3]], 2),              # repeated rays
        ([[math.cos(a), math.sin(a), 1.5] for a in np.linspace(0.3, 6.0, 7)]
         + [[0.2, 0.1, 1], [0.4, 0.0, 2.0]], 5),
        ([[1, 0], [0, 1], [1, 1], [2, 1]], 1),
    ])
    def test_pieces_partition_the_cone(self, gens, n_pieces):
        d = len(gens[0])
        pieces = ss.triangulate_cone(np.zeros(d), gens)
        assert len(pieces) == n_pieces
        rays = {tuple(g) for g in np.asarray(gens, dtype=float)}
        assert all(tuple(g) in rays for p in pieces for g in p.generators)
        _assert_partition(gens, pieces, seed=len(gens))

    def test_four_dim_vertex_cones(self):
        sphere = np.random.default_rng(5).normal(size=(12, 4))
        polys = [cross_polytope(4), ss.load_polytope(4, (sphere / np.linalg.norm(sphere, axis=1)[:, None]).tolist())]
        non_simple = 0
        for P in polys:
            for i in range(P.n_vertices):
                gens = ss.vertex_tangent_cone(P, i).generators
                _assert_partition(gens, ss.triangulate_cone(np.zeros(4), gens), seed=i, n=2000)
                non_simple += len(gens) > 4
        assert non_simple >= 12
        # the octahedral vertex figure of the cross-polytope splits into 4
        assert len(ss.vertex_simple_cones(polys[0], 0)) == 4


class TestLatticePoints:
    def test_square_dilate_two(self, square):
        pts = ss.lattice_points(square, 2.0)
        assert len(pts) == 9
        assert pts.tolist() == sorted(pts.tolist())
        assert set(map(tuple, pts)) == {(i, j) for i in range(3) for j in range(3)}

    def test_triangle_dilate_one(self, triangle):
        pts = ss.lattice_points(triangle, 1.0)
        assert set(map(tuple, pts)) == {(0, 0), (0, 1), (1, 0)}

    def test_dilate_zero(self, triangle):
        pts = ss.lattice_points(triangle, 0.0)
        assert set(map(tuple, pts)) == {(0, 0)}

    def test_negative_dilation(self, square):
        with pytest.raises(ValueError):
            ss.lattice_points(square, -1.0)

    @pytest.mark.parametrize("t1,t2", [(0.5, 1.0), (1.0, 2.0), (1.3, 2.7)])
    def test_monotone_in_t(self, square, t1, t2):
        small = set(map(tuple, ss.lattice_points(square, t1)))
        large = set(map(tuple, ss.lattice_points(square, t2)))
        assert small <= large

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_dilation(self, square, t):
        with pytest.raises(ValueError, match="t must be finite"):
            ss.lattice_points(square, t)

    def test_same_points_as_a_box_scan(self, square, triangle, tetrahedron):
        cases = [(P, 0.0) for P in (square, triangle, tetrahedron, unit_cube(4), cross_polytope(4))]
        cases += _random_cases(np.random.default_rng(7))
        cases += [(square, float(t)) for t in range(13)]
        # (x, y) lies on the hypotenuse x + sqrt3 y = sqrt3 t at t = x / sqrt3 + y
        cases += [(triangle, x / SQRT3 + y + e) for x, y in [(1, 2), (5, 3), (17, 0), (40, 9)]
                  for e in (-1e-12, 0.0, 1e-12)]
        # at these t, (3, 1) and (4, 7) pass the facet test, though the run's
        # end read off the hypotenuse rounds to one point short of them
        flipped = ss.load_polytope(2, [(0, 0), (0, -1), (SQRT3, 0)])
        cases += [(P, t) for P in (triangle, flipped) for t in (2.7320508064141764, 9.309401075603802)]
        cases += [(P, t) for P in (unit_cube(4), cross_polytope(4)) for t in (1.0, 2.5, 3.0)]
        # two facets 1e-9 rad off the rows' direction: too flat to bound a run
        c, s = math.cos(1e-9), math.sin(1e-9)
        tilted = ss.load_polytope(2, [(x * c - y * s, x * s + y * c) for x, y in
                                      [(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)]])
        cases += [(tilted, t) for t in (1.0, 2.0, 5.0, 7.5, 40.0)]
        segment = ss.load_polytope(1, [(-0.7,), (2.3,)])
        cases += [(segment, t) for t in (0.0, 0.2, 1.0, 3.7, 10.0)]
        # lattice-free dilates
        cases += [(ss.load_polytope(2, [(0.2, 0.2), (0.8, 0.2), (0.8, 0.8), (0.2, 0.8)]), 1.0),
                  (ss.load_polytope(3, [(0.1, 0.1, 0.1), (0.9, 0.1, 0.1), (0.1, 0.9, 0.1), (0.1, 0.1, 0.9)]), 1.0)]
        empty = 0
        for P, t in cases:
            pts = ss.lattice_points(P, t)
            assert pts.dtype == np.int64
            np.testing.assert_array_equal(pts, _box_scan(P, t), err_msg=f"dim {P.dim}, t = {t!r}")
            empty += len(pts) == 0
        assert empty >= 3

    def test_memory_follows_the_points(self):
        # the box of this needle's dilate holds 4M points, the dilate 3003
        needle = ss.load_polytope(2, [(0, 0), (1, 1), (1, 0.999)])
        tracemalloc.start()
        try:
            pts = ss.lattice_points(needle, 2000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert len(pts) == 3003
        assert set(pts[:, 0].tolist()) == set(range(2001))


def _box_scan(P, t):
    """Every point of the bounding box of t*P that passes the facet test,
    in the box's lexicographic order: what lattice_points must return."""
    A, b = P.A, P.b
    V = t * P.vertices
    lo = np.floor(V.min(axis=0) - BOUNDARY_TOL).astype(int)
    hi = np.ceil(V.max(axis=0) + BOUNDARY_TOL).astype(int)
    axes = [np.arange(lo[k], hi[k] + 1) for k in range(P.dim)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, P.dim)
    return grid[np.all(grid @ A.T <= t * b + BOUNDARY_TOL, axis=1)]


def _random_cases(rng):
    """Seeded random polygons and tetrahedra around the origin, so that
    coordinates of both signs occur, with their dilations."""
    cases = []
    while len(cases) < 60:
        d = 2 if len(cases) < 40 else 3
        V = rng.normal(size=(d + 1 + int(rng.integers(0, 5 if d == 2 else 1)), d)) * rng.uniform(0.3, 3.0)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # non-extreme points are dropped
                P = ss.load_polytope(d, V)
        except ss.DegenerateInput:
            continue
        cases.append((P, float(rng.uniform(0.0, 25.0 if d == 2 else 6.0))))
    return cases


class TestFaces:
    @pytest.mark.parametrize("fixture,count", [
        ("triangle", 7), ("square", 9), ("tetrahedron", 15),
        ("cube", 27), ("octahedron", 27), ("triangular_prism", 21)])
    def test_counts(self, fixture, count, request):
        P = request.getfixturevalue(fixture)
        assert len(ss.faces(P)) == count

    @pytest.mark.parametrize("fixture", [
        "triangle", "square", "tetrahedron", "golden_segment"])
    def test_euler_relation(self, fixture, request):
        P = request.getfixturevalue(fixture)
        assert sum(f.sign for f in ss.faces(P)) == 1

    def test_rotated_irrational_cube(self):
        a, c = 1.0, math.sqrt(2.0)  # rotation angles in radians
        Rz = np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]])
        Rx = np.array([[1, 0, 0], [0, math.cos(c), -math.sin(c)], [0, math.sin(c), math.cos(c)]])
        corners = np.array([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=float)
        V = math.sqrt(3.0) * corners @ (Rz @ Rx).T + [math.pi, math.e, math.sqrt(5.0)]
        P = ss.load_polytope(3, V.tolist())
        assert len(edges(P)) == 12
        facets = [f for f in ss.faces(P) if f.dim == 2]
        assert sorted(len(f.vertex_indices) for f in facets) == [4] * 6
        assert P.A.shape == (6, 3)
        assert all(len(ss.vertex_tangent_cone(P, i).generators) == 3 for i in range(8))

    def test_cross_polytope_4d(self):
        face_list = ss.faces(cross_polytope(4))
        assert [sum(f.dim == k for f in face_list) for k in range(5)] == [8, 24, 32, 16, 1]
        assert sum(f.sign for f in face_list) == 1


@st.composite
def sphere_points(draw):
    """3 to 10 points on the unit circle or sphere, pairwise apart, so that
    all of them are vertices of their hull."""
    d = draw(st.integers(2, 3))
    n = draw(st.integers(d + 1, 10))
    angle = st.floats(0.0, 2.0 * math.pi)
    if d == 2:
        phis = draw(st.lists(angle, min_size=n, max_size=n))
        V = np.array([(math.cos(f), math.sin(f)) for f in phis])
    else:
        zs = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
        phis = draw(st.lists(angle, min_size=n, max_size=n))
        V = np.array([(math.sqrt(1.0 - z * z) * math.cos(f), math.sqrt(1.0 - z * z) * math.sin(f), z)
                      for z, f in zip(zs, phis)])
    gaps = np.linalg.norm(V[:, None] - V[None], axis=-1) + 2.0 * np.eye(n)
    assume(gaps.min() > 0.05)
    assume(np.linalg.svd(V[1:] - V[0], compute_uv=False)[-1] > 0.05)  # not flat
    return V


@settings(max_examples=60, deadline=None)
@given(sphere_points())
def test_simplicial_hull_faces(V):
    d = V.shape[1]
    hull = ConvexHull(V)
    # simplicial: no vertex lies on a hull facet that it does not span
    slack = np.abs(V @ hull.equations[:, :-1].T + hull.equations[:, -1])
    assume(np.count_nonzero(slack <= 1e-6) == d * len(hull.simplices))
    P = ss.load_polytope(d, V.tolist())
    sides = {tuple(sorted((int(s[i]), int(s[j])))) for s in hull.simplices
             for i in range(d) for j in range(i + 1, d)}
    assert set(edges(P)) == sides
    assert sum(f.sign for f in ss.faces(P)) == 1
    assert ss.brianchon_gram_check(P, n_points=200, seed=7).passed


def test_half_spaces_contain_vertices(triangle, square, tetrahedron):
    for P in (triangle, square, tetrahedron):
        A, b = P.A, P.b
        assert np.all(P.vertices @ A.T <= b + 1e-9)
        assert np.allclose(np.linalg.norm(A, axis=1), 1.0)


def test_simple_cone_det_validation():
    with pytest.raises(ss.DegenerateCone):
        ss.simple_cone([0, 0], [[1, 1], [2, 2]])
    c = ss.simple_cone([0, 0], [[0, 1], [SQRT3, -1]])
    assert abs(abs(c.det) - SQRT3) < 1e-12


class TestHalfSpaceCache:
    def test_arrays_read_only_and_shared(self, triangle, tetrahedron, golden_segment):
        for P in (triangle, tetrahedron, golden_segment):
            A, b = P.A, P.b
            assert not A.flags.writeable and not b.flags.writeable
            with pytest.raises(ValueError):
                A[0, 0] = 0.0
            with pytest.raises(ValueError):
                b[0] = 0.0
            A2, b2 = body_half_spaces(P)
            assert A2 is A and b2 is b

    @staticmethod
    def _count_hulls(monkeypatch) -> list:
        import solidsum.geometry as geometry
        builds = []
        real = geometry._hull

        def counting(V):
            builds.append(V.shape[1])
            return real(V)

        monkeypatch.setattr(geometry, "_hull", counting)
        return builds

    @pytest.mark.parametrize("fixture, t", [
        ("square", 3.0), ("triangle", 150.25), ("tetrahedron", 2.0),
        ("octahedron", 2.0), ("cross_polytope_4d", 1.0), ("sphere_polytope_60", 1.0)])
    def test_one_hull_per_polytope(self, fixture, t, request, monkeypatch):
        builds = self._count_hulls(monkeypatch)
        P = request.getfixturevalue(fixture)  # loaded here, so the load's hull counts
        for _ in range(2):
            # vertex cones are read off the facet table, also where they are not simple
            for i in range(P.n_vertices):
                ss.vertex_simple_cones(P, i)
            ss.lattice_points(P, t)
            ss.discrete_volume(P, t, n_samples=500)
            ss.brianchon_gram_check(P, n_points=20)
        # a dilate scales P's facet table and builds no hull
        D = ss.dilate(P, 2.0)
        ss.discrete_volume(D, 1.0, n_samples=500)
        assert len(builds) == 1

    def test_json_load_builds_one_hull(self, monkeypatch):
        builds = self._count_hulls(monkeypatch)
        with pytest.warns(UserWarning, match=r"indices \[4\]"):
            P = ss.polytope_from_json({"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                                                               ["1/4", "1/4", "1/4"]]})
        assert P.n_vertices == 4 and P.coord_sources[1] == ("1", "0", "0")
        ss.faces(P)
        ss.vertex_simple_cones(P, 0)
        assert builds == [3]

    def test_one_hull_per_cone(self, monkeypatch):
        builds = self._count_hulls(monkeypatch)
        gens = np.array([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)], dtype=float)
        cone = ss.Cone(np.zeros(3), gens)
        ss.solid_angle_mc(cone, [0, 0, 0], n_samples=2000, seed=1)
        ss.solid_angle_mc(cone, [0, 0, 1], n_samples=2000, seed=2)
        assert builds == [3]
        A, b = body_half_spaces(cone)
        assert not A.flags.writeable and not b.flags.writeable
        assert body_half_spaces(cone)[0] is A


def _planar_cloud(rng, kind: int) -> np.ndarray:
    """A random planar cloud: Gaussian (interior points), integer grid
    (collinear boundary points, repeats) or uniform with exact duplicates,
    at a scale from 0.1 to 100."""
    n = int(rng.integers(3, 40))
    if kind == 0:
        V = rng.normal(size=(n, 2))
    elif kind == 1:
        V = rng.integers(0, int(rng.integers(2, 7)) + 1, size=(n, 2)).astype(float)
    else:
        V = rng.uniform(-1.0, 1.0, size=(n, 2))
        V = np.vstack([V, V[rng.integers(0, n, size=int(rng.integers(1, 5)))]])
        V = V[rng.permutation(len(V))]
    return V * 10.0 ** rng.uniform(-1.0, 2.0)


def _qhull_extreme_rows(V: np.ndarray, hull) -> list:
    """Qhull's extreme points of the rows of V, ascending.  Qhull keeps an
    arbitrary copy of a repeated point; it is mapped to the lowest index."""
    _, inverse = np.unique(V, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    lowest = {}
    for i, c in enumerate(inverse):
        lowest.setdefault(int(c), i)
    return sorted(lowest[int(inverse[i])] for i in hull.vertices)


class TestDilate:
    @pytest.mark.parametrize("t", [-2.0, 0.5, 3.0, 150.25])
    @pytest.mark.parametrize("fixture", ["square", "triangle", "tetrahedron", "octahedron"])
    def test_scales_the_facet_table(self, fixture, t, request):
        P = request.getfixturevalue(fixture)
        D = ss.dilate(P, t)
        assert np.array_equal(D.A, P.A if t > 0 else -P.A)
        assert np.array_equal(D.b, abs(t) * P.b)
        assert np.array_equal(D.incidence, P.incidence)
        assert np.array_equal(D.vertices, t * P.vertices)
        # the scaled table is the one the dilate's vertices give
        assert np.array_equal(np.abs(D.vertices @ D.A.T - D.b) <= BOUNDARY_TOL, D.incidence)
        assert not (D.A.flags.writeable or D.b.flags.writeable or D.vertices.flags.writeable)

    @pytest.mark.parametrize("t", [0.5, 3.0, 7.3, 150.25])
    @pytest.mark.parametrize("fixture", ["square", "triangle"])
    def test_oracle_volume_of_the_dilate(self, fixture, t, request):
        P = request.getfixturevalue(fixture)
        assert ss.discrete_volume(ss.dilate(P, t), 1.0).value == pytest.approx(
            ss.discrete_volume(P, t).value, abs=1e-12)

    def test_negative_factor_reflects_the_lattice_points(self, triangle):
        got = ss.lattice_points(ss.dilate(triangle, -2.5), 1.0)
        want = -ss.lattice_points(triangle, 2.5)
        assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, want.tolist()))

    @pytest.mark.parametrize("t, error, match", [(0.0, ss.DegenerateInput, "dilation by 0"),
                                                 (math.nan, ValueError, "t must be finite"),
                                                 (math.inf, ValueError, "t must be finite"),
                                                 (-math.inf, ValueError, "t must be finite")])
    def test_bad_factor_raises_at_the_call(self, square, t, error, match):
        with pytest.raises(error, match=match):
            ss.dilate(square, t)


def test_direct_construction_needs_the_facet_table():
    # the table comes from load_polytope, polytope_from_json or dilate; a
    # vertex list alone (here with a point that is not extreme) is refused
    V = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0)], dtype=float)
    with pytest.raises(TypeError, match="'A', 'b', and 'incidence'"):
        ss.Polytope(dim=2, vertices=V)


class TestPolygonHull:
    def test_matches_qhull(self):
        from solidsum.geometry import _hull
        rng = np.random.default_rng(20261018)
        checked = 0
        for trial in range(1500):
            V = _planar_cloud(rng, trial % 3)
            if np.linalg.matrix_rank(V[1:] - V[0]) < 2:
                continue
            keep, A, b = _hull(V)
            hull = ConvexHull(V)
            assert keep == _qhull_extreme_rows(V, hull), trial
            norms = np.linalg.norm(hull.equations[:, :-1], axis=1)
            A_q = hull.equations[:, :-1] / norms[:, None]
            b_q = -hull.equations[:, -1] / norms
            assert len(A) == len(A_q), trial
            scale = np.abs(V).max()
            for row, off in zip(A, b):
                j = int(np.argmin(np.abs(A_q - row).sum(axis=1)))
                assert np.abs(A_q[j] - row).max() <= 4.4e-16, trial
                assert abs(b_q[j] - off) <= 1e-14 * scale, trial
            checked += 1
        assert checked > 1400

    def test_vertex_near_an_edge(self):
        square = [(0, 0), (2, 0), (2, 2), (0, 2)]
        with pytest.warns(UserWarning, match=r"indices \[4\]"):
            P = ss.load_polytope(2, square + [(1.0, -1e-12)])
        assert P.n_vertices == 4 and len(P.A) == 4
        P = ss.load_polytope(2, square + [(1.0, -1e-6)])
        assert P.n_vertices == 5 and len(P.A) == 5
        assert sum(len(ss.vertex_simple_cones(P, i)) for i in range(5)) == 5

    def test_lowest_duplicate_kept(self):
        with pytest.warns(UserWarning, match=r"indices \[2, 3, 5\]"):
            P = ss.load_polytope(2, [(0, 0), (1, 0), (0, 0), (0.2, 0.2), (0, 1), (1, 0)])
        assert P.n_vertices == 3


class TestSegmentHull:
    def test_end_points(self):
        from solidsum.geometry import _hull
        rng = np.random.default_rng(20261020)
        for trial in range(300):
            n = int(rng.integers(2, 20))
            if trial % 2:
                V = rng.integers(-4, 5, size=(n, 1)).astype(float)
            else:
                V = rng.normal(size=(n, 1))
                V = np.vstack([V, V[rng.integers(0, n, size=int(rng.integers(1, 5)))]])
                V = V[rng.permutation(len(V))]
            V *= 10.0 ** rng.uniform(-1.0, 2.0)
            x = V[:, 0]
            if x.min() == x.max():
                continue
            keep, A, b = _hull(V)
            # the lowest index of each end point, ascending
            assert keep == sorted([int(np.argmin(x)), int(np.argmax(x))]), trial
            assert A.tolist() == [[-1.0], [1.0]], trial
            assert b.tolist() == [-x.min(), x.max()], trial

    @pytest.mark.parametrize("t", [1.0, 2.5, 7.3, 150.25])
    def test_irrational_segment_count(self, t):
        P = ss.load_polytope(1, [(math.pi,), (-math.sqrt(2.0),)])
        count = math.floor(t * math.pi) - math.ceil(-t * math.sqrt(2.0)) + 1
        assert ss.discrete_volume(P, t).value == count


def _solid_cloud(rng, d: int, kind: int) -> np.ndarray:
    """A random cloud in dimension d: Gaussian (interior points), integer
    grid (coplanar boundary points, repeats), on the unit sphere (every
    point extreme) or uniform with exact duplicates, at a scale from 0.1 to
    100."""
    n = int(rng.integers(d + 2, 28))
    if kind == 0:
        V = rng.normal(size=(n, d))
    elif kind == 1:
        V = rng.integers(0, int(rng.integers(2, 5)) + 1, size=(n, d)).astype(float)
    elif kind == 2:
        V = rng.normal(size=(n, d))
        V /= np.linalg.norm(V, axis=1)[:, None]
    else:
        V = rng.uniform(-1.0, 1.0, size=(n, d))
        V = np.vstack([V, V[rng.integers(0, n, size=int(rng.integers(1, 5)))]])
        V = V[rng.permutation(len(V))]
    return V * 10.0 ** rng.uniform(-1.0, 2.0)


class TestFacetHull:
    def test_matches_qhull(self):
        from solidsum.geometry import _facet_table, _hull
        rng = np.random.default_rng(20261019)
        checked = 0
        for trial in range(240):
            d = 3 + trial % 2
            V = _solid_cloud(rng, d, (trial // 2) % 4)
            if np.linalg.matrix_rank(V[1:] - V[0]) < d:
                continue
            keep, A, b = _hull(V)
            hull = ConvexHull(V)
            assert keep == _qhull_extreme_rows(V, hull), trial
            # Qhull splits a facet into simplices; merge both sides' planes by incidence
            norms = np.linalg.norm(hull.equations[:, :-1], axis=1)
            A_q, b_q, _ = _facet_table(V, hull.equations[:, :-1] / norms[:, None], -hull.equations[:, -1] / norms)
            A, b, _ = _facet_table(V, A, b)
            assert len(A) == len(A_q), trial
            scale = np.abs(V).max()
            for row, off in zip(A, b):
                j = int(np.argmin(np.abs(A_q - row).sum(axis=1)))
                assert np.abs(A_q[j] - row).max() <= 1e-13, trial
                assert abs(b_q[j] - off) <= 1e-13 * scale, trial
            checked += 1
        assert checked > 220

    # off the cube's bottom facet the point is the lowest row, so the hull
    # starts from it; off the octahedron's facet x + y + z = 1 it is no axis
    # extreme, so the facet expansion has to find it
    @pytest.mark.parametrize("body, centre, normal, facets, edges_with_apex", [
        ([(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)], (1, 1, 0), (0, 0, -1), (6, 9), 16),
        ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
         (1 / 3, 1 / 3, 1 / 3), (1 / SQRT3, 1 / SQRT3, 1 / SQRT3), (8, 10), 15),
    ])
    def test_vertex_near_a_facet(self, body, centre, normal, facets, edges_with_apex):
        n = len(body)
        with pytest.warns(UserWarning, match=rf"indices \[{n}\]"):
            P = ss.load_polytope(3, body + [tuple(np.add(centre, 1e-12 * np.array(normal)))])
        assert P.n_vertices == n and len(P.A) == facets[0]
        P = ss.load_polytope(3, body + [tuple(np.add(centre, 1e-6 * np.array(normal)))])
        assert P.n_vertices == n + 1 and len(P.A) == facets[1]
        assert len(edges(P)) == edges_with_apex

    def test_lowest_duplicate_kept(self):
        simplex = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        rows = [simplex[0], simplex[1], simplex[0], (0.2, 0.2, 0.2), simplex[2], simplex[1], simplex[3]]
        with pytest.warns(UserWarning, match=r"indices \[2, 3, 5\]"):
            P = ss.load_polytope(3, rows)
        assert P.vertices.tolist() == [list(map(float, v)) for v in simplex]


def _random_cone(rng, i: int) -> np.ndarray:
    """Generators of a random cone in d = 2 or 3 with 2..6 rays: Gaussian
    (often not pointed), pointed, of width close to pi, or containing a line."""
    d = 2 + i % 2
    k = int(rng.integers(2, 7))
    kind = (i // 2) % 4
    g = rng.normal(size=(k, d))
    if kind == 1:
        g *= np.sign(g @ rng.normal(size=d))[:, None]
    elif kind == 2:
        delta = 10.0 ** rng.uniform(-10.0, -1.0)
        e = np.linalg.qr(rng.normal(size=(d, d)))[0]
        ang = np.concatenate([[0.0, math.pi - delta], rng.uniform(0.0, math.pi - delta, k - 2)])
        g = np.cos(ang)[:, None] * e[0] + np.sin(ang)[:, None] * e[1]
        if d == 3:
            g = g + 10.0 ** rng.uniform(-12.0, -2.0) * rng.normal(size=(k, 1)) * e[2]
    elif kind == 3:
        g[-1] = -g[0] * rng.uniform(0.5, 2.0)
    return g


class TestIsPointed:
    def test_certificate_agrees_with_lp(self):
        # the hull of the origin and the unit generators keeps the origin
        # exactly when the LP finds a direction with G u >= delta > 1e-9,
        # on every draw whose generators span the space by more than 1e-6
        from scipy.optimize import linprog

        from solidsum.geometry import _cone_table
        rng = np.random.default_rng(7)
        verdicts = []
        for i in range(500):
            g = _random_cone(rng, i)
            G = g / np.linalg.norm(g, axis=1)[:, None]
            k, d = G.shape
            if k < d or np.linalg.svd(G, compute_uv=False)[d - 1] <= 1e-6:
                continue
            c = np.zeros(d + 1)
            c[-1] = -1.0
            res = linprog(c, A_ub=np.hstack([-G, np.ones((k, 1))]), b_ub=np.zeros(k),
                          bounds=[(-1.0, 1.0)] * d + [(None, None)], method="highs",
                          options={"primal_feasibility_tolerance": 1e-10,
                                   "dual_feasibility_tolerance": 1e-10})
            lp = bool(res.success and -res.fun > 1e-9)
            try:
                A = _cone_table(g)[0]
            except ss.NotPointed:
                A = None
            assert (A is not None) == lp, i
            if A is not None:
                assert np.all(G @ A.T <= BOUNDARY_TOL), i
            verdicts.append(lp)
        assert len(verdicts) == 377
        assert 100 < sum(verdicts) < len(verdicts) - 100  # both verdicts are well represented

    def test_flat_generator_lists_raise_a_cone_error(self):
        # some of these cones are flatter than BOUNDARY_TOL, so the hulls of
        # their unit generators are flat: that is a DegenerateCone, like a
        # rank-deficient generator list, also where the list holds a line
        rng = np.random.default_rng(7)
        outcomes = {"pieces": 0, "NotPointed": 0, "DegenerateCone": 0}
        for i in range(2000):
            g = _random_cone(rng, i)
            try:
                pieces = ss.triangulate_cone(np.zeros(g.shape[1]), g)
            except (ss.NotPointed, ss.DegenerateCone) as exc:
                outcomes[type(exc).__name__] += 1
                continue
            rays = {tuple(r) for r in g}
            assert pieces and all(tuple(r) in rays for p in pieces for r in p.generators), i
            outcomes["pieces"] += 1
        assert min(outcomes.values()) > 50, outcomes


class TestVertexConesFromTable:
    @staticmethod
    def _assert_same_pieces(P) -> int:
        """The vertex cones read off P's facet table are the pieces that
        triangulate_cone makes of the tangent cones' generator lists, bit
        for bit; returns the number of vertices that are not simple."""
        non_simple = 0
        for i in range(P.n_vertices):
            mine = ss.vertex_simple_cones(P, i)
            cone = ss.vertex_tangent_cone(P, i)
            ref = ss.triangulate_cone(cone.apex, cone.generators)
            assert len(mine) == len(ref), i
            for a, b in zip(mine, ref):
                assert a.generators.tobytes() == b.generators.tobytes(), i
                assert a.apex.tobytes() == b.apex.tobytes() and a.det == b.det, i
            non_simple += len(cone.generators) > P.dim
        return non_simple

    @pytest.mark.parametrize("fixture, non_simple", [
        ("golden_segment", 0), ("square", 0), ("triangle", 0), ("golden_rectangle", 0), ("tetrahedron", 0),
        ("cube", 0), ("octahedron", 6), ("triangular_prism", 0), ("unit_cube_4d", 0), ("cross_polytope_4d", 8)])
    def test_fixtures(self, fixture, non_simple, request):
        assert self._assert_same_pieces(request.getfixturevalue(fixture)) == non_simple

    def test_random_clouds(self):
        rng = np.random.default_rng(20261033)
        checked = non_simple = 0
        for trial in range(220):
            d = 3 + trial % 2
            V = _solid_cloud(rng, d, (trial // 2) % 4)[:8]
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # non-extreme points are dropped
                    P = ss.load_polytope(d, V)
            except ss.DegenerateInput:
                continue
            non_simple += self._assert_same_pieces(P)
            checked += 1
        assert checked >= 200 and non_simple > 200
