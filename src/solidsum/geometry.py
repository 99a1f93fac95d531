"""Polytopes, vertex tangent cones, cone triangulation, faces, lattice points.

Polytopes are stored by their vertices (V-representation) together with
their facet inequalities (H-representation, fields ``A`` and ``b``) and the
vertex-facet incidence table, all three filled at construction.
``load_polytope`` reads the facets off the hull it builds while it selects
the extreme points, so each loaded polytope builds one hull and no other;
``dilate`` scales that table.  Faces, edges, face tangent cones and the
triangulated vertex cones are all read off the table, in any dimension, and
the faces and cones are cached on the polytope.  Its arrays are read-only,
and every operation is a pure function.

A non-simple cone is triangulated in every dimension by a pulling
triangulation read off the incidence of its extreme rays with its facets.
A vertex cone's rays are the edges at the vertex and its facets are the
polytope's facets there.  A cone given by generators (``triangulate_cone``)
is read off one hull, that of the origin and the unit generators: the cone
is pointed exactly when the origin is a vertex of it, the hull facets
through the origin are the cone's facets, which are also its
H-representation (``body_half_spaces``), cached on the cone, and the
generators on facets whose normals have rank d - 1 are its extreme rays.

Every hull, in every dimension from 1 up, is built in numpy by one routine
(``_hull``): the facet expansion of Quickhull around an exact enumeration of
the facets of a growing set of hull points.  This module therefore imports
no scipy module; the package imports scipy in one place, on first use: the
soft-indicator CDF (``angles._lp_cdf``, through ``gammainc``).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import (
    BadIndex,
    DegenerateCone,
    DegenerateInput,
    DimensionMismatch,
    NotPointed,
)

BOUNDARY_TOL = 1e-9    # membership/incidence tolerance (unit facet normals)
DET_RTOL = 1e-12       # relative tolerance for generator independence
FLAT_SLOPE = 1e-6      # smallest |last facet coefficient| that bounds a lattice row

# lattice_points splits a row's span into seven pieces: its first three
# points and its last three, which are tested, and the points between them,
# which are not
_PIECE_ENDS = np.array([0, 0, 0, 0, 1, 1, 1])      # the span's start, then its end
_PIECE_OFFSETS = np.array([0, 1, 2, 3, -2, -1, 0])  # from that end
# the least span width (last minus first point) at which a tested piece lies
# in the span apart from the pieces before it
_PIECE_MIN_WIDTH = np.array([0, 1, 2, 0, 5, 4, 3])


def _readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Polytope:
    """Full-dimensional convex polytope: its extreme points, its facet
    inequalities ``A x <= b`` with unit rows of A, and the incidence table,
    ``incidence[i, f]`` true when vertex i lies on facet f.  Build one with
    ``load_polytope``, ``polytope_from_json`` or ``dilate``, which fill the
    three consistently; the constructor itself checks nothing."""

    dim: int
    vertices: np.ndarray                  # (n, dim), extreme points, input order
    A: np.ndarray                         # (n_facets, dim), read-only
    b: np.ndarray                         # (n_facets,), read-only
    incidence: np.ndarray                 # (n, n_facets) bool, read-only
    coord_sources: tuple = ()             # original coordinate strings, if loaded

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @cached_property
    def _faces(self) -> tuple:
        """The face list of ``faces``."""
        facets = {frozenset(np.flatnonzero(col).tolist()) for col in self.incidence.T}
        found, new = set(), facets
        while new:
            found |= new
            new = {F & G for F in new for G in facets if not F.isdisjoint(G)} - found
        out = [(_affine_rank(self.vertices[sorted(F)]), tuple(sorted(F))) for F in found]
        out.append((self.dim, tuple(range(self.n_vertices))))
        return tuple(Face(k, f, (-1) ** k) for k, f in sorted(out))

    @cached_property
    def _vertex_cones(self) -> tuple:
        """Per vertex, the simple cones of ``vertex_simple_cones``."""
        cones = []
        for i, v in enumerate(self.vertices):
            nbrs = _neighbours(self, i)
            gens = self.vertices[nbrs] - v
            cones.append((simple_cone(v, gens),) if len(nbrs) == self.dim else
                         tuple(_fan(v, gens, self.incidence[nbrs][:, self.incidence[i]])))
        return tuple(cones)


@dataclass(frozen=True, eq=False)
class Cone(object):
    """Pointed cone: apex plus generating rays (possibly more than dim)."""

    apex: np.ndarray        # (dim,)
    generators: np.ndarray  # (k, dim) rows

    @cached_property
    def _half_spaces(self) -> tuple:
        """(A, b): the inequalities A x <= b, with unit rows of A, read-only;
        the cone's facets, read off the hull of the origin and the unit
        generators (``_cone_table``), which raises for a flat or
        non-pointed cone."""
        A = _cone_table(np.asarray(self.generators, dtype=float))[0]
        return _readonly(A), _readonly(A @ self.apex)


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

    @cached_property
    def _half_spaces(self) -> tuple:
        """(A, b): the inequalities A x <= b, with unit rows of A, read-only;
        row j is the outward normal of the facet that misses generator j.
        The generators are scaled to unit length first: the rows keep their
        directions, and lengths far apart do not cost accuracy."""
        W = self.generators
        A = -np.linalg.inv(W / np.linalg.norm(W, axis=1)[:, None]).T
        A /= np.linalg.norm(A, axis=1)[:, None]
        return _readonly(A), _readonly(A @ self.apex)

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
    DegenerateInput when the hull has fewer than ``dim + 1`` extreme points
    (``_hull``), as when the points lie within BOUNDARY_TOL of a hyperplane.
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
    keep, A, b = _hull(V)
    if len(keep) < V.shape[0]:
        dropped = sorted(set(range(V.shape[0])) - set(keep))
        warnings.warn(f"dropping non-extreme vertices at indices {dropped}", stacklevel=2)
    V = _readonly(V[keep])
    return Polytope(dim, V, *_facet_table(V, A, b))


def _affine_rank(V: np.ndarray) -> int:
    diffs = V[1:] - V[0]
    if diffs.size == 0:
        return 0
    svals = np.linalg.svd(diffs, compute_uv=False)
    scale = max(svals[0], 1.0) if svals.size else 1.0
    return int(np.sum(svals > 1e-10 * scale))


def _hull(V: np.ndarray) -> tuple:
    """Convex hull of the rows of V in any dimension d >= 1: the ascending
    indices of its extreme points, and its facet inequalities A x <= b with
    unit rows of A.  Built by the facet expansion of Quickhull (Barber,
    Dobkin and Huhdanpaa, ACM TOMS 22, 1996) around an exact facet
    enumeration.

    A working set E of rows starts with the lowest and the highest row along
    each axis, or with every row when those do not span the space.  The
    facet planes of hull(E) are the planes through d rows of E with every row
    of E on one side within BOUNDARY_TOL (``_support_planes``).  A row more
    than BOUNDARY_TOL beyond such a plane is outside hull(E); the farthest
    one beyond each plane maximizes a linear functional, so it lies on the
    hull, and it joins E.  When no row is beyond any plane, hull(E) is the
    hull; when every row beyond a plane is already in E, the rounding in the
    slacks exceeds BOUNDARY_TOL, and DegenerateInput is raised.  Planes with
    the same incident rows are merged (``_facet_table``); a row is extreme
    when the normals of its facets span the space, and among rows within
    BOUNDARY_TOL of each other the lowest index is kept.  Fewer than d + 1
    kept rows (a flat V) raise DegenerateInput.
    """
    n, d = V.shape
    E = list(dict.fromkeys(np.concatenate([np.argmin(V, axis=0), np.argmax(V, axis=0)]).tolist()))
    if _affine_rank(V[E]) < d:
        E = list(range(n))
        if _affine_rank(V) < d:
            raise DegenerateInput(f"convex hull failed: the points do not span dimension {d}")
    A, b = np.empty((0, d)), np.empty(0)
    new = 0  # E[new:] joined in the last round
    while True:
        inside = np.all(V[E[new:]] @ A.T - b <= BOUNDARY_TOL, axis=0)
        A_new, b_new = _support_planes(V[E], new)
        A, b = np.vstack([A[inside], A_new]), np.concatenate([b[inside], b_new])
        slack = V @ A.T - b
        beyond = np.flatnonzero(np.max(slack, axis=0) > BOUNDARY_TOL)
        if beyond.size == 0:
            break
        new = len(E)
        E += sorted(set(np.argmax(slack[:, beyond], axis=0).tolist()) - set(E))
        if len(E) == new:
            raise DegenerateInput("convex hull failed: every row beyond a facet plane is already in the "
                                  "working set, so rounding in the plane slacks exceeds BOUNDARY_TOL")
    A, b, inc = _facet_table(V, A, b)
    rows = [i for i in np.flatnonzero(np.count_nonzero(inc, axis=1) >= d)
            if np.linalg.matrix_rank(A[inc[i]]) == d]
    W = V[rows]
    close = np.max(np.abs(W[:, None, :] - W[None, :, :]), axis=2) <= BOUNDARY_TOL
    keep = [int(i) for i, dup in zip(rows, np.tril(close, -1).any(axis=1)) if not dup]
    if len(keep) <= d:
        raise DegenerateInput(f"convex hull failed: {len(keep)} extreme points span no {d}-dimensional hull")
    return keep, A, b


def _support_planes(X: np.ndarray, new: int) -> tuple:
    """The planes through d rows of X, one of them at a position >= new,
    that have every row of X on one side within BOUNDARY_TOL, as outward
    unit normals A and offsets b.  A plane's normal is the generalized cross
    product of its rows' differences (``_cofactors``); a set of rows whose
    normal is shorter than DET_RTOL times the product of the differences'
    lengths spans no plane.  In 1-D a plane is one row, with normal [1]."""
    k, d = X.shape
    sets = np.array([(*c, j) for j in range(new, k) for c in combinations(range(j), d - 1)],
                    dtype=int).reshape(-1, d)
    A_out, b_out = [], []
    for chunk in range(0, len(sets), 4096):
        P = X[sets[chunk:chunk + 4096]]
        D = P[:, 1:] - P[:, :1]
        N = _cofactors(D)
        norms = np.linalg.norm(N, axis=1)
        ok = norms > DET_RTOL * np.prod(np.linalg.norm(D, axis=2), axis=1)
        A = N[ok] / norms[ok, None]
        b = np.einsum("ij,ij->i", A, P[ok, 0])
        slack = X @ A.T - b
        out, inner = np.max(slack, axis=0) <= BOUNDARY_TOL, np.min(slack, axis=0) >= -BOUNDARY_TOL
        sign = np.where(out, 1.0, -1.0)[out | inner]
        A_out.append(sign[:, None] * A[out | inner])
        b_out.append(sign * b[out | inner])
    return np.vstack([np.empty((0, d)), *A_out]), np.concatenate([np.empty(0), *b_out])


def _cofactors(D: np.ndarray) -> np.ndarray:
    """Generalized cross products of the d - 1 rows of each D[i]: entry j is
    (-1)^j times the minor without column j, so the result is normal to
    every row and vanishes when the rows are dependent."""
    d = D.shape[-1]
    return np.stack([(-1) ** j * _det(np.delete(D, j, axis=-1)) for j in range(d)], axis=-1)


def _det(M: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square matrices by cofactor expansion
    along the first row, exact on small integer entries.  The expansion
    ends at the 0x0 matrix, whose determinant is 1, so a 1x1 matrix gives
    its entry and ``_cofactors`` of no rows gives the normal [1]."""
    m = M.shape[-1]
    if m == 0:
        return np.ones(M.shape[:-2])
    return sum((-1) ** j * M[..., 0, j] * _det(np.delete(M[..., 1:, :], j, axis=-1)) for j in range(m))


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
    return replace(poly, coord_sources=tuple(sources))


def dilate(P: Polytope, t: float) -> Polytope:
    """The dilate t*P, by a nonzero finite scalar.  Vertices are scaled and
    P's facet table is reused: the rows are kept (negated for t < 0), the
    offsets become |t| b and the incidence is unchanged, so no hull is
    built.  Tangent-cone generators are not scaled.  Raises ValueError for
    a non-finite t and DegenerateInput for t = 0."""
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if t == 0:
        raise DegenerateInput("dilation by 0 collapses the polytope to a point")
    A = P.A if t > 0 else _readonly(-P.A)
    return Polytope(P.dim, _readonly(t * P.vertices), A, _readonly(abs(t) * P.b), P.incidence)


# ----------------------------- half-spaces ---------------------------------

def _facet_table(V: np.ndarray, A: np.ndarray, b: np.ndarray) -> tuple:
    inc = np.abs(V @ A.T - b) <= BOUNDARY_TOL
    # a simplicial hull splits a facet into pieces with one incident-vertex set
    _, keep = np.unique(inc.T, axis=0, return_index=True)
    keep = np.sort(keep)
    return _readonly(A[keep]), _readonly(b[keep]), _readonly(inc[:, keep], bool)


def body_half_spaces(body):
    """H-representation A x <= b, with unit rows of A, of a polytope, a
    simple cone or a cone.  This is the one description of a body that
    membership tests and solid angles read.  A ``Cone``'s rows are the
    facets through the origin of the hull of the origin and its unit
    generators, so interior and repeated generators add no row.  The rows are
    built once per body and cached on it, read-only."""
    if isinstance(body, Polytope):
        return body.A, body.b
    if isinstance(body, (SimpleCone, Cone)):
        return body._half_spaces
    raise TypeError(f"unsupported body type {type(body).__name__}")


# ----------------------------- adjacency -----------------------------------

def edges(P: Polytope) -> list:
    """Edges (1-faces) as sorted index pairs, read off the cached face list."""
    return [f.vertex_indices for f in P._faces if f.dim == 1]


def _neighbours(P: Polytope, i: int) -> list:
    """The vertices that share an edge with vertex i, ascending."""
    return sorted({k if j == i else j for (j, k) in edges(P) if i in (j, k)})


def vertex_tangent_cone(P: Polytope, v_index: int) -> Cone:
    """Tangent cone of P at a vertex: apex v, one generator per incident edge.

    Generators are the raw edge vectors (neighbor - v); downstream transform
    formulas are invariant under positive rescaling of each generator.
    """
    if not 0 <= v_index < P.n_vertices:
        raise BadIndex(f"vertex index {v_index} out of range [0, {P.n_vertices})")
    v = P.vertices[v_index]
    gens = P.vertices[_neighbours(P, v_index)] - v
    return Cone(apex=_readonly(v), generators=_readonly(gens))


# ----------------------------- triangulation -------------------------------

def triangulate_cone(apex, generators) -> list:
    """Triangulate a pointed cone, given by generators, into simple cones
    with disjoint interiors, in any dimension.

    A cone with exactly dim generators is simple and returned as it is:
    independent generators span a pointed cone, and ``simple_cone`` raises
    DegenerateCone for dependent ones.  Any other cone is triangulated by
    ``_fan`` from its extreme rays and facets, read off one hull
    (``_cone_table``), so interior and repeated generators drop out.
    Dimension is checked before pointedness: DegenerateCone when the
    generators do not span the space by more than BOUNDARY_TOL, even when
    they contain a line, and NotPointed when they span a cone that is not
    pointed.
    """
    apex = np.atleast_1d(np.asarray(apex, dtype=float))
    gens = np.atleast_2d(np.asarray(generators, dtype=float))
    if len(gens) == gens.shape[1]:
        return [simple_cone(apex, gens)]
    _, rays, inc = _cone_table(gens)
    return _fan(apex, gens[rays], inc)


def _cone_table(gens: np.ndarray) -> tuple:
    """The facets and extreme rays of the cone spanned by the rows of gens,
    read off the hull of the origin and the unit generators.  The cone is
    pointed exactly when the origin is a vertex of that hull, and then the
    hull's facets through the origin are the cone's facets.

    Returns their unit rows A (the cone is A x <= 0), the ascending indices
    of the extreme rays in gens, and ``inc[j, f]``, true when ray j lies on
    facet f.  A ray is extreme when the normals of its facets have rank
    d - 1; of repeated rays the lowest is kept (``_hull``).  A zero
    generator or a flat hull raises DegenerateCone, and an origin that the
    hull does not keep raises NotPointed.
    """
    d = gens.shape[1]
    norms = np.linalg.norm(gens, axis=1)
    if np.any(norms <= 0.0):
        raise DegenerateCone("zero generator")
    X = np.vstack([np.zeros(d), gens / norms[:, None]])
    try:
        keep, A, b = _hull(X)
    except DegenerateInput:
        raise DegenerateCone(f"generators do not span dimension {d} by more than BOUNDARY_TOL") from None
    if keep[0] != 0:
        raise NotPointed("generators do not span a pointed cone")
    A, _, inc = _facet_table(X[keep], A, b)
    A, inc = A[inc[0]], inc[1:, inc[0]]  # keep[0] is the origin
    ext = [j for j in range(len(inc)) if np.linalg.matrix_rank(A[inc[j]]) == d - 1]
    return A, [keep[j + 1] - 1 for j in ext], inc[ext]


def _fan(apex, gens: np.ndarray, inc: np.ndarray) -> list:
    """Simple cones that triangulate a pointed cone (``_pull``), from its
    extreme rays, the rows of gens, and ``inc[j, f]``, true when ray j lies
    on facet f.  Rays are taken in lexicographic order, so the output is
    deterministic."""
    order = sorted(range(len(gens)), key=lambda j: tuple(gens[j]))
    X = np.vstack([np.zeros(gens.shape[1]), gens[order]])
    facets = {frozenset((np.flatnonzero(col) + 1).tolist()) for col in inc[order].T}
    return [simple_cone(apex, gens[[order[i - 1] for i in piece]])
            for piece in _pull(frozenset(range(1, len(X))), facets, X)]


def _pull(rays: frozenset, facets, X: np.ndarray) -> list:
    """Pulling triangulation of the cone over the points X[rays] (row 0 of X
    is the origin), given its facets as sets of rays: the smallest ray,
    coned over the pieces of every facet that misses it.  A facet's own
    facets are its intersections with the other facets that have one
    dimension less.  Returns tuples of row indices into X, one per simple
    cone."""
    rank = _affine_rank(X[[0, *rays]])
    if len(rays) == rank:
        return [tuple(sorted(rays))]
    r = min(rays)
    pieces = []
    for F in sorted(facets, key=sorted):
        if r not in F:
            ridges = {F & G for G in facets
                      if len(F & G) >= rank - 2 and _affine_rank(X[[0, *(F & G)]]) == rank - 2}
            pieces += [(r, *piece) for piece in _pull(F, ridges, X)]
    return pieces


def vertex_simple_cones(P: Polytope, v_index: int) -> tuple:
    """Tangent cone at a vertex, fan-triangulated into simple cones: its
    rays are the edges there and its facets are P's facets there, read off
    P's table (no hull); a vertex with dim edges is one simple cone,
    generators ascending by neighbour.  Built once, for every vertex, and
    cached on P."""
    if not 0 <= v_index < P.n_vertices:
        raise BadIndex(f"vertex index {v_index} out of range [0, {P.n_vertices})")
    return P._vertex_cones[v_index]


# ----------------------------- lattice points ------------------------------

def lattice_points(P: Polytope, t: float) -> np.ndarray:
    """Integer points m of the closed dilate t*P, those with
    ``m @ A.T <= t*b + BOUNDARY_TOL`` for the facet rows (A, b), so points
    within BOUNDARY_TOL of the boundary are included.  Sorted
    lexicographically, as int64.

    The box of the first d-1 coordinates is run row by row.  Each row meets
    the dilate in an interval of the last coordinate, its run, whose ends
    are read off the facets with a last coefficient of at least FLAT_SLOPE
    in size.  Only the points within one unit of either end of the run get
    the membership test; the points farther inside are members without
    one.  A facet with a smaller last coefficient bounds no run: a row it
    misses all along is empty, and a row where it cuts off a tested point
    next to the untested ones is tested point by point.  So the work and
    the memory grow with the number of rows and points, not with the
    bounding box.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if t < 0:
        raise ValueError(f"dilation must be >= 0, got {t}")
    A, b = P.A, P.b
    d = P.dim
    V = t * P.vertices
    lo = np.floor(V.min(axis=0) - BOUNDARY_TOL).astype(np.int64)
    hi = np.ceil(V.max(axis=0) + BOUNDARY_TOL).astype(np.int64)
    x_lo, x_hi = int(lo[-1]), int(hi[-1])
    shape = hi[:-1] - lo[:-1] + 1
    rows = np.indices(shape, dtype=np.int64).reshape(d - 1, shape.prod()).T + lo[:-1]
    limit = t * b + BOUNDARY_TOL

    def members(prefix, x):
        m = np.empty((len(x), d), dtype=np.int64)
        m[:, :-1] = prefix
        m[:, -1] = x
        return (m @ A.T <= limit).all(axis=1)

    # on a row, facet i reads a_i * x <= room_i for the last coordinate x;
    # the row's span is its run and one more point at each end, in the box
    room = limit - rows @ A[:, :-1].T
    a = A[:, -1]
    steep = np.abs(a) >= FLAT_SLOPE
    bound = room[:, steep] / a[steep]
    up = a[steep] > 0
    span = np.empty((len(rows), 2), dtype=np.int64)
    span[:, 0] = np.ceil(bound[:, ~up].max(axis=1, initial=x_lo + 1)) - 1
    span[:, 1] = np.floor(bound[:, up].min(axis=1, initial=x_hi - 1)) + 1
    # a row that misses a facet all along the box is empty: this settles
    # the rows that a facet too flat to bound a run cuts off whole
    most = room + np.abs(a) * max(abs(x_lo), abs(x_hi))
    span[(most < -BOUNDARY_TOL).any(axis=1)] = (x_hi + 1, x_lo - 1)

    # the seven pieces of each row (see _PIECE_OFFSETS), each tested at its start
    width = span[:, 1] - span[:, 0]
    starts = span[:, _PIECE_ENDS] + _PIECE_OFFSETS
    hit = members(np.repeat(rows, 7, axis=0), starts.ravel()).reshape(-1, 7)
    lengths = (hit & (width[:, None] >= _PIECE_MIN_WIDTH)).astype(np.int64)
    lengths[:, 3] = np.maximum(width - 5, 0)
    counts = lengths.sum(axis=1)
    # a row meets the dilate in an interval, so the points between two
    # members are members; if a tested point next to them fails, a flat
    # facet cuts the row, and all of it is tested
    cut = (width > 5) & ~(hit[:, 2] & hit[:, 4])
    n_cut = np.count_nonzero(cut)
    if n_cut:
        lengths[cut] = 0
        row_x = np.arange(x_lo, x_hi + 1)
        whole = members(np.repeat(rows[cut], len(row_x), axis=0), np.tile(row_x, n_cut))
        counts[cut] = whole.reshape(n_cut, -1).sum(axis=1)

    n = int(counts.sum())
    pts = np.empty((n, d), dtype=np.int64)
    pts[:, :-1] = np.repeat(rows, counts, axis=0)
    # each piece's points count up from its start
    lengths = lengths.ravel()
    x = np.repeat(starts.ravel() - np.cumsum(lengths) + lengths, lengths)
    x += np.arange(len(x))
    if n_cut:
        in_cut = np.repeat(cut, counts)
        pts[in_cut, -1] = np.tile(row_x, n_cut)[whole]
        pts[~in_cut, -1] = x
    else:
        pts[:, -1] = x
    return pts


# ----------------------------- faces ---------------------------------------

def faces(P: Polytope) -> tuple:
    """All nonempty faces (vertices, edges, ..., P itself), in any dimension,
    sorted by dimension and then by vertex indices.

    Every proper face is an intersection of facets, so the list is the
    closure of the incidence table's facet columns under intersection; a
    face's dimension is the affine rank of its vertices.  Built once per
    polytope and cached on it.
    """
    return P._faces


def face_tangent_cone_active_facets(P: Polytope, face: Face):
    """Row indices of ``P.A`` and ``P.b`` that are tight on the whole face:
    the facets incident to every vertex of the face.

    The tangent cone of the face is exactly the set of points satisfying
    those facet inequalities, which gives a cheap indicator test.
    """
    return np.flatnonzero(np.all(P.incidence[list(face.vertex_indices)], axis=0))
