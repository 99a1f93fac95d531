import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

import solidsum as ss
from solidsum.geometry import edges, half_spaces, normalize_generator

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

    def test_canonical_determinants(self, triangle):
        dets = []
        for i in range(3):
            c = ss.vertex_tangent_cone(triangle, i)
            G = np.array([normalize_generator(w) for w in c.generators])
            dets.append(abs(np.linalg.det(G)))
        assert np.allclose(dets, [1.0, SQRT3, 1.0], atol=1e-12)


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
            ss.triangulate_cone([0, 0], [[1, 0], [-1, 0]])

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
        assert half_spaces(P)[0].shape == (6, 3)
        assert all(len(ss.vertex_tangent_cone(P, i).generators) == 3 for i in range(8))

    def test_unsupported_dimension(self):
        cross = [row for i in range(4) for row in
                 (np.eye(4)[i].tolist(), (-np.eye(4)[i]).tolist())]
        P = ss.load_polytope(4, cross)
        with pytest.raises(ss.UnsupportedDimension):
            ss.faces(P)


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
        A, b = half_spaces(P)
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
            A, b = half_spaces(P)
            assert not A.flags.writeable and not b.flags.writeable
            with pytest.raises(ValueError):
                A[0, 0] = 0.0
            with pytest.raises(ValueError):
                b[0] = 0.0
            A2, b2 = half_spaces(P)
            assert A2 is A and b2 is b

    @pytest.mark.parametrize("fixture, t", [("square", 3.0), ("triangle", 150.25), ("tetrahedron", 2.0)])
    def test_one_hull_per_polytope(self, fixture, t, request, monkeypatch):
        import solidsum.geometry as geometry
        P = request.getfixturevalue(fixture)
        builds = []
        real = geometry.ConvexHull

        def counting(*args, **kwargs):
            builds.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(geometry, "ConvexHull", counting)
        for _ in range(2):
            half_spaces(P)
            ss.lattice_points(P, t)
            ss.discrete_volume(P, t, n_samples=500)
            ss.brianchon_gram_check(P, n_points=20)
        assert len(builds) == 1
        # a dilate is a new polytope with its own hull
        half_spaces(ss.dilate(P, 2.0))
        assert len(builds) == 2
