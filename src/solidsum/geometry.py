"""Polytopes, vertex tangent cones, cone triangulation, faces, lattice points.

Polytopes are stored by their vertices (V-representation).  Each polytope
builds its convex hull at most once and keeps from it only the facet
inequalities (H-representation) and the vertex-facet incidence table; edges,
faces and face tangent cones are all read off that table.  ``load_polytope``
builds the hull while it selects the extreme points, and the loaded polytope
starts with that hull's inequalities; any other polytope (a dilate, say)
builds its own on first use.  The inequalities, the table, the faces and the
triangulated vertex cones are cached on the polytope, the arrays read-only
and the rest as tuples.  All objects are otherwise immutable after
construction and every operation is a pure function.

The hull is built per dimension: the two end points in 1-D, Andrew's
monotone chain in numpy in 2-D, and Qhull (``scipy.spatial``, imported on
first use) in dim >= 3.  The planar path therefore loads no scipy module;
scipy is also imported, on first use, by the pointedness LP fallback
(``_is_pointed``) and the soft-indicator CDF (``angles._lp_cdf``).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadIndex,
    DegenerateCone,
    DegenerateInput,
    DimensionMismatch,
    NotPointed,
    UnsupportedDimension,
)

BOUNDARY_TOL = 1e-9    # membership/incidence tolerance (unit facet normals)
DET_RTOL = 1e-12       # relative tolerance for generator independence


def _readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Polytope:
    """Full-dimensional convex polytope given by its extreme points."""

    dim: int
    vertices: np.ndarray                  # (n, dim), extreme points, input order
    coord_sources: tuple = ()             # original coordinate strings, if loaded

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @cached_property
    def _facets(self) -> tuple:
        """(A, b, inc): unit facet inequalities A x <= b and the incidence
        table, inc[i, f] true when vertex i lies on facet f."""
        _, A, b = _hull(self.vertices)
        return _facet_table(self.vertices, A, b)

    @cached_property
    def _faces(self) -> tuple:
        return _face_list(self)

    @cached_property
    def _vertex_cones(self) -> tuple:
        """Per vertex, its tangent cone fan-triangulated into simple cones."""
        cones = (vertex_tangent_cone(self, i) for i in range(self.n_vertices))
        return tuple(tuple(triangulate_cone(c.apex, c.generators)) for c in cones)


@dataclass(frozen=True, eq=False)
class Cone(object):
    """Pointed cone: apex plus generating rays (possibly more than dim)."""

    apex: np.ndarray        # (dim,)
    generators: np.ndarray  # (k, dim) rows


@dataclass(frozen=True, eq=False)
class SimpleCone:
    """Simplicial cone: apex plus exactly dim independent generators.

    ``det`` is the determinant of the generator matrix (generators as rows);
    its absolute value enters the cone's Fourier-Laplace transform.
    """

    apex: np.ndarray        # (dim,)
    generators: np.ndarray  # (dim, dim) rows
    det: float

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    def shifted(self, apex) -> "SimpleCone":
        return SimpleCone(_readonly(np.asarray(apex, dtype=float)), self.generators, self.det)


@dataclass(frozen=True)
class Face:
    """Nonempty face of a polytope; ``sign`` is (-1)**dim."""

    dim: int
    vertex_indices: tuple
    sign: int


def simple_cone(apex, generators) -> SimpleCone:
    apex = _readonly(np.atleast_1d(np.asarray(apex, dtype=float)))
    gens = _readonly(np.atleast_2d(np.asarray(generators, dtype=float)))
    d = gens.shape[1]
    if gens.shape[0] != d:
        raise DegenerateCone(f"need exactly {d} generators, got {gens.shape[0]}")
    det = float(np.linalg.det(gens))
    scale = float(np.prod(np.linalg.norm(gens, axis=1)))
    if scale <= 0.0 or abs(det) <= DET_RTOL * scale:
        raise DegenerateCone("generators are linearly dependent")
    return SimpleCone(apex, gens, det)


# ----------------------------- construction --------------------------------

def load_polytope(dim: int, vertex_rows) -> Polytope:
    """Validate a vertex list and return the polytope of its extreme points.

    Non-extreme rows are dropped with a warning; the surviving rows keep
    their input order.  Raises DimensionMismatch for a bad row length and
    DegenerateInput when the points do not affinely span dimension ``dim``.
    """
    if dim < 1:
        raise DegenerateInput(f"dimension must be >= 1, got {dim}")
    rows = list(vertex_rows)
    for i, row in enumerate(rows):
        if len(row) != dim:
            raise DimensionMismatch(f"vertex {i} has length {len(row)}, expected {dim}")
    V = np.asarray(rows, dtype=float)
    if V.size == 0 or not np.all(np.isfinite(V)):
        raise DegenerateInput("vertex coordinates must be finite real numbers")
    if V.shape[0] < dim + 1:
        raise DegenerateInput(f"a full-dimensional {dim}-polytope needs at least {dim + 1} vertices")
    if _affine_rank(V) < dim:
        raise DegenerateInput(f"affine hull has dimension < {dim}")
    keep, A, b = _hull(V)
    if len(keep) < V.shape[0]:
        dropped = sorted(set(range(V.shape[0])) - set(keep))
        warnings.warn(f"dropping non-extreme vertices at indices {dropped}", stacklevel=2)
    V = _readonly(V[keep])
    return _with_facets(Polytope(dim=dim, vertices=V), _facet_table(V, A, b))


def _with_facets(P: Polytope, facets: tuple) -> Polytope:
    """Fill P's facet cache from a table already built for its vertices."""
    P.__dict__["_facets"] = facets
    return P


def _affine_rank(V: np.ndarray) -> int:
    diffs = V[1:] - V[0]
    if diffs.size == 0:
        return 0
    svals = np.linalg.svd(diffs, compute_uv=False)
    scale = max(svals[0], 1.0) if svals.size else 1.0
    return int(np.sum(svals > 1e-10 * scale))


def _hull(V: np.ndarray) -> tuple:
    """Convex hull of the rows of V: the ascending indices of its extreme
    points, and its facet inequalities A x <= b with unit rows of A."""
    d = V.shape[1]
    if d == 1:
        lo, hi = int(np.argmin(V[:, 0])), int(np.argmax(V[:, 0]))
        return sorted({lo, hi}), np.array([[-1.0], [1.0]]), np.array([-V[lo, 0], V[hi, 0]])
    if d == 2:
        return _polygon_hull(V)
    from scipy.spatial import ConvexHull, QhullError
    try:
        hull = ConvexHull(V)
    except QhullError as exc:
        raise DegenerateInput(f"convex hull failed: {exc}") from exc
    eqs = hull.equations  # rows [a | c] with a x + c <= 0
    norms = np.linalg.norm(eqs[:, :-1], axis=1)
    return sorted(int(i) for i in hull.vertices), eqs[:, :-1] / norms[:, None], -eqs[:, -1] / norms


def _polygon_hull(V: np.ndarray) -> tuple:
    """Andrew's monotone chain over the distinct points, sorted by (x, y).

    A point within BOUNDARY_TOL of the chord between its hull neighbours is
    not extreme; among exact duplicates the lowest index is kept.  The facet
    rows are the outward unit normals of the counterclockwise edges.
    """
    pts, first = np.unique(V, axis=0, return_index=True)
    xy = pts.tolist()

    def chain(order) -> list:
        out = []
        for i in order:
            while len(out) >= 2:
                (ax, ay), (bx, by), (cx, cy) = xy[out[-2]], xy[out[-1]], xy[i]
                cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
                if cross > BOUNDARY_TOL * math.hypot(cx - ax, cy - ay):
                    break
                out.pop()
            out.append(i)
        return out[:-1]

    n = len(pts)
    ring = chain(range(n)) + chain(range(n - 1, -1, -1))  # counterclockwise
    if len(ring) < 3:
        raise DegenerateInput("convex hull failed: the points are collinear")
    corners = pts[ring]
    E = np.roll(corners, -1, axis=0) - corners
    A = np.stack([E[:, 1], -E[:, 0]], axis=1) / np.hypot(E[:, 0], E[:, 1])[:, None]
    return sorted(int(i) for i in first[ring]), A, np.einsum("ij,ij->i", A, corners)


_COORD_FORMS = "number, decimal string, 'a/b', or 'sqrt(k)'"


def _parse_coord(raw) -> float:
    if isinstance(raw, (int, float)):
        return float(raw)
    if not isinstance(raw, str):
        raise DegenerateInput(f"coordinate {raw!r} is not a {_COORD_FORMS}")
    text = raw.strip()
    sign = 1.0
    if text.startswith("-"):
        sign, text = -1.0, text[1:].strip()
    try:
        if text.startswith("sqrt(") and text.endswith(")"):
            inner = float(text[5:-1])
            if inner < 0:
                raise ValueError("negative radicand")
            return sign * math.sqrt(inner)
        if "/" in text:
            num, den = text.split("/", 1)
            return sign * (float(num) / float(den))
        return sign * float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DegenerateInput(f"cannot parse coordinate {raw!r} ({_COORD_FORMS})") from exc


def polytope_from_json(source) -> Polytope:
    """Load a polytope from a JSON file path, file object, or parsed dict.

    Schema: {"dim": d, "vertices": [[x1, ..., xd], ...]} where coordinates may
    be numbers or the strings "a/b" and "sqrt(k)".  Original strings are kept
    on the returned polytope for provenance.
    """
    if isinstance(source, dict):
        data = source
    elif hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    if "dim" not in data or "vertices" not in data:
        raise DegenerateInput("polytope JSON needs 'dim' and 'vertices' keys")
    dim = int(data["dim"])
    rows = [[_parse_coord(c) for c in row] for row in data["vertices"]]
    poly = load_polytope(dim, rows)
    # keep only the source strings of the rows that survived validation
    sources = []
    for v in poly.vertices:
        idx = next(i for i, row in enumerate(rows) if np.array_equal(row, v))
        sources.append(tuple(str(c) for c in data["vertices"][idx]))
    return _with_facets(Polytope(dim=poly.dim, vertices=poly.vertices, coord_sources=tuple(sources)),
                        poly._facets)


def dilate(P: Polytope, t: float) -> Polytope:
    """Dilate by a scalar: vertices are scaled, tangent-cone generators are not."""
    return Polytope(dim=P.dim, vertices=_readonly(t * P.vertices))


# ----------------------------- half-spaces ---------------------------------

def half_spaces(P: Polytope):
    """Facet inequalities A x <= b with unit rows of A (derived from the hull).

    Computed once per polytope and cached on it; the returned arrays are
    read-only and shared by every caller.
    """
    A, b, _ = P._facets
    return A, b


def _facet_table(V: np.ndarray, A: np.ndarray, b: np.ndarray) -> tuple:
    inc = np.abs(V @ A.T - b) <= BOUNDARY_TOL
    # a simplicial hull splits a facet into pieces with one incident-vertex set
    _, keep = np.unique(inc.T, axis=0, return_index=True)
    keep = np.sort(keep)
    return _readonly(A[keep]), _readonly(b[keep]), _readonly(inc[:, keep], bool)


def cone_halfplanes_2d(apex, g1, g2):
    """H-representation {a_i . x <= b_i} of the planar cone spanned by g1, g2."""
    cross = g1[0] * g2[1] - g1[1] * g2[0]
    sgn = 1.0 if cross > 0 else -1.0
    n1 = np.array([-g1[1], g1[0]])
    n2 = np.array([-g2[1], g2[0]])
    A = np.stack([-sgn * n1, sgn * n2])
    b = A @ np.asarray(apex, dtype=float)
    return A, b


def body_half_spaces(body):
    """H-representation A x <= b of a polytope or of a simple cone (dim <= 2)."""
    if isinstance(body, Polytope):
        return half_spaces(body)
    if isinstance(body, SimpleCone):
        if body.dim == 1:
            g = float(body.generators[0, 0])
            sgn = -1.0 if g > 0 else 1.0
            return np.array([[sgn]]), np.array([sgn * float(body.apex[0])])
        if body.dim == 2:
            return cone_halfplanes_2d(body.apex, body.generators[0], body.generators[1])
        raise UnsupportedDimension("cone half-spaces support dim <= 2")
    raise TypeError(f"unsupported body type {type(body).__name__}")


# ----------------------------- adjacency -----------------------------------

def edges(P: Polytope) -> list:
    """Edges (1-faces) as sorted index pairs: the vertex pairs whose common
    facets have rank dim - 1."""
    if P.dim == 1:
        return [(0, 1)] if P.n_vertices == 2 else []
    A, _, inc = P._facets
    shared = inc.astype(int) @ inc.T.astype(int)
    cand = zip(*np.nonzero(np.triu(shared >= P.dim - 1, 1)))
    return [(int(i), int(j)) for i, j in cand
            if np.linalg.matrix_rank(A[inc[i] & inc[j]]) == P.dim - 1]


def vertex_tangent_cone(P: Polytope, v_index: int) -> Cone:
    """Tangent cone of P at a vertex: apex v, one generator per incident edge.

    Generators are the raw edge vectors (neighbor - v); downstream transform
    formulas are invariant under positive rescaling of each generator.
    """
    if not 0 <= v_index < P.n_vertices:
        raise BadIndex(f"vertex index {v_index} out of range [0, {P.n_vertices})")
    v = P.vertices[v_index]
    neighbors = sorted({j if i == v_index else i for (i, j) in edges(P) if v_index in (i, j)})
    gens = P.vertices[neighbors] - v
    return Cone(apex=_readonly(v), generators=_readonly(gens))


# ----------------------------- triangulation -------------------------------

def _is_pointed(generators: np.ndarray) -> bool:
    """A cone is pointed iff some u has <u, g_i> > 0 for every generator.

    Decided by the LP: maximize delta subject to G u >= delta and
    -1 <= u <= 1 for the unit generators G; pointed iff delta > 1e-9.  The
    LP is tried last.  The sum u of the unit generators, scaled to
    ``u / ||u||_inf``, is a feasible point of it with delta =
    ``min(G u) / ||u||_inf``.  When that clears 1e-9 by more than the
    rounding of ``G u``, so does the LP's optimum, and the verdict is the
    same without solving it.  The certificate holds for two generators at
    an angle below pi (every vertex cone of a polygon) and for generators
    that meet pairwise at no obtuse angle, where ``G u >= 1``; scipy's
    ``linprog`` is imported only when it fails.
    """
    gens = np.atleast_2d(generators)
    norms = np.linalg.norm(gens, axis=1)
    if np.any(norms <= 0.0):
        raise DegenerateCone("zero generator")
    G = gens / norms[:, None]
    k, d = G.shape
    if k == 1:
        return True
    u = G.sum(axis=0)
    # rounding moves G u by less than 2 d k^2 ulp, so the margin keeps this sound
    if np.min(G @ u) > 1e-9 * np.max(np.abs(u)) + 1e-15 * d * k * k:
        return True
    from scipy.optimize import linprog
    c = np.zeros(d + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-G, np.ones((k, 1))])
    bounds = [(-1.0, 1.0)] * d + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(k), bounds=bounds, method="highs")
    return bool(res.success and -res.fun > 1e-9)


def triangulate_cone(apex, generators) -> list:
    """Fan-triangulate a pointed cone into simple cones with disjoint interiors.

    A cone with exactly dim generators is simple in any dimension; others are
    triangulated for dim <= 3.  The fan is anchored at the lexicographically
    smallest generator so the output is deterministic.  Raises NotPointed
    when the generators span a line through the apex.
    """
    apex = np.atleast_1d(np.asarray(apex, dtype=float))
    gens = np.atleast_2d(np.asarray(generators, dtype=float))
    d = gens.shape[1]
    if not _is_pointed(gens):
        raise NotPointed("generators do not span a pointed cone")
    if gens.shape[0] == d:
        return [simple_cone(apex, gens)]
    if d == 1:
        return [simple_cone(apex, gens[:1])]
    if d == 2:
        # extreme rays = angular extremes (pointed => angular width < pi)
        ref = gens[np.lexsort(gens.T[::-1])][0]
        ref = ref / np.linalg.norm(ref)
        ang = np.arctan2(gens @ np.array([-ref[1], ref[0]]), gens @ ref)
        return [simple_cone(apex, gens[[int(np.argmin(ang)), int(np.argmax(ang))]])]
    if d == 3:
        order = _cyclic_generator_order(gens)
        first = order[0]
        pieces = []
        for i in range(1, len(order) - 1):
            tri = gens[[first, order[i], order[i + 1]]]
            if abs(np.linalg.det(tri)) > DET_RTOL * np.prod(np.linalg.norm(tri, axis=1)):
                pieces.append(simple_cone(apex, tri))
        return pieces
    raise UnsupportedDimension(f"non-simple cone triangulation supports dim <= 3, got {d}")


def _cyclic_generator_order(gens: np.ndarray) -> list:
    """Cyclic order of 3-D generators around the cone axis, starting at the
    lexicographically smallest generator."""
    norms = np.linalg.norm(gens, axis=1)
    G = gens / norms[:, None]
    axis = G.mean(axis=0)
    axis /= np.linalg.norm(axis)
    a = np.zeros(3)
    a[int(np.argmin(np.abs(axis)))] = 1.0
    u = np.cross(axis, a)
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    ang = np.arctan2(G @ v, G @ u)
    order = [int(i) for i in np.argsort(ang)]
    start = min(range(len(order)), key=lambda i: tuple(gens[order[i]]))
    order = order[start:] + order[:start]
    return order


def vertex_simple_cones(P: Polytope, v_index: int) -> tuple:
    """Tangent cone at a vertex, fan-triangulated into simple cones.

    All vertices are triangulated once per polytope, on first use, and the
    cones are cached on it; every call returns the same tuple.
    """
    if not 0 <= v_index < P.n_vertices:
        raise BadIndex(f"vertex index {v_index} out of range [0, {P.n_vertices})")
    return P._vertex_cones[v_index]


def normalize_generator(w) -> np.ndarray:
    """Canonical scaling: divide by the smallest nonzero |coordinate|."""
    w = np.asarray(w, dtype=float)
    mags = np.abs(w)
    nz = mags[mags > 1e-12 * max(mags.max(), 1.0)]
    return w / nz.min()


# ----------------------------- lattice points ------------------------------

def lattice_points(P: Polytope, t: float) -> np.ndarray:
    """Integer points of the closed dilate t*P (points within BOUNDARY_TOL of
    the boundary are included), by bounding-box scan + half-space tests.

    The scan runs the box in lexicographic order, so the points come out
    sorted."""
    if t < 0:
        raise ValueError(f"dilation must be >= 0, got {t}")
    A, b = half_spaces(P)
    V = t * P.vertices
    lo = np.floor(V.min(axis=0) - BOUNDARY_TOL).astype(int)
    hi = np.ceil(V.max(axis=0) + BOUNDARY_TOL).astype(int)
    axes = [np.arange(lo[k], hi[k] + 1) for k in range(P.dim)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, P.dim)
    return grid[np.all(grid @ A.T <= t * b + BOUNDARY_TOL, axis=1)]


# ----------------------------- faces ---------------------------------------

def faces(P: Polytope) -> tuple:
    """All nonempty faces (vertices, edges, ..., P itself) for dim <= 3.

    Built once per polytope from its incidence table and cached on it.
    """
    if P.dim > 3:
        raise UnsupportedDimension(f"face enumeration supports dim <= 3, got {P.dim}")
    return P._faces


def _face_list(P: Polytope) -> tuple:
    out = [Face(0, (i,), 1) for i in range(P.n_vertices)]
    if P.dim >= 2:
        out += [Face(1, e, -1) for e in edges(P)]
    if P.dim == 3:
        inc = P._facets[2]
        out += [Face(2, tuple(int(i) for i in np.flatnonzero(col)), 1) for col in inc.T]
    out.append(Face(P.dim, tuple(range(P.n_vertices)), (-1) ** P.dim))
    return tuple(out)


def face_tangent_cone_active_facets(P: Polytope, face: Face):
    """Row indices of half_spaces(P) that are tight on the whole face: the
    facets incident to every vertex of the face.

    The tangent cone of the face is exactly the set of points satisfying
    those facet inequalities, which gives a cheap indicator test.
    """
    inc = P._facets[2]
    return np.flatnonzero(np.all(inc[list(face.vertex_indices)], axis=0))
