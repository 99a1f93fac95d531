"""Brute-force ground truth for solid-angle lattice sums.

Everything here enumerates lattice points geometrically and weights them by
classified solid angles (interior 1, facet-interior 1/2, edge point = wedge
angle, vertex = tangent-cone angle); no transform-space machinery is
involved, so these values make honest oracles for the analytic evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import mc_cone_angle, solid_angle_exact_2d, solid_angle_exact_2d_l1, wedge_angle
from .errors import DimensionMismatch
from .geometry import BOUNDARY_TOL, Polytope, lattice_points, vertex_simple_cones


@dataclass(frozen=True)
class OracleResult:
    """A solid-angle weighted lattice-point count.

    ``std_error`` is the Monte Carlo standard error of the sampled weights
    only (summed in quadrature); exact weights contribute nothing to it, so
    it is 0 when no weight was sampled.
    """

    value: float
    std_error: float
    n_lattice_points: int
    per_point_weights: tuple | None = None


def _classify(P: Polytope, t: float, pts: np.ndarray, p: float) -> tuple:
    """Weights of the points ``pts`` in the dilate t*P from their facet
    slacks, all from one matrix product: 0 outside, 1 with no tight facet,
    1/2 with one (and at any boundary point in 1-D), and, in dim >= 3 at
    p = 2, the exact wedge angle with exactly two.  Every other point, a
    corner, gets nan.  Returns the weights, the tight mask and the facet
    rows A.

    The least slack and the tight count of each point are reduced over the
    facets one column at a time, which is faster than along the short
    rows."""
    A, b = P.A, P.b
    slack = pts @ A.T
    np.subtract(t * b, slack, out=slack)
    tight = (slack <= BOUNDARY_TOL) & (slack >= -BOUNDARY_TOL)
    low = slack[:, 0].copy()
    n_tight = tight[:, 0].astype(np.intp)
    for i in range(1, len(A)):
        np.minimum(low, slack[:, i], out=low)
        n_tight += tight[:, i]
    weights = np.array([1.0, 0.5, 0.5 if P.dim == 1 else np.nan])[np.minimum(n_tight, 2)]
    weights[low < -BOUNDARY_TOL] = 0.0
    if P.dim >= 3 and p == 2.0:
        wedge = (n_tight == 2) & np.isnan(weights)
        pairs = np.nonzero(tight[wedge])[1].reshape(-1, 2)
        weights[wedge] = [wedge_angle(A[i], A[j]) for i, j in pairs]
    return weights, tight, A


def point_weight(P: Polytope, t: float, m, p: float = 2.0, n_samples: int = 20_000,
                 seed: int = 0) -> tuple:
    """Solid angle of the dilate t*P at a point, with its standard error.

    The point is classified by its facet slacks (``_classify``, shared with
    ``lattice_weights``): no tight facet gives weight 1, one tight facet
    gives 1/2, and in dim >= 3 at p = 2 exactly two tight facets give the
    exact wedge angle ``(pi - angle(a_i, a_j)) / (2 pi)`` of the two unit
    normals (``angles.wedge_angle``).  A corner, a point with more tight
    facets, gets the angle of its tangent cone, the cone the tight facets
    cut out.  In the plane the corner is at the vertex those facets share,
    read off the incidence table, and its angle is exact for p in {1, 2}.
    Every other corner gets the Monte Carlo angle of ``angles.mc_cone_angle``,
    from one chunk seeded by ``seed`` and one entropy word per rounded
    coordinate, a different word for each int64 value.

    Raises ValueError for a non-finite or negative t or a non-finite point,
    and DimensionMismatch for a point of the wrong length.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if t < 0:
        raise ValueError(f"dilation must be >= 0, got {t}")
    m = np.asarray(m, dtype=float)
    if m.shape != (P.dim,):
        raise DimensionMismatch(f"point has shape {m.shape}, expected ({P.dim},)")
    if not np.isfinite(m).all():
        raise ValueError("point must be finite")
    (w,), (tight,), A = _classify(P, t, m[None, :], p)
    if not np.isnan(w):
        return float(w), 0.0

    shared = np.flatnonzero(np.all(P.incidence[:, tight], axis=1))
    if P.dim == 2 and p in (1.0, 2.0) and shared.size:
        # dilation leaves tangent-cone directions unchanged
        cone = vertex_simple_cones(P, int(shared[0]))[0]
        est = solid_angle_exact_2d(cone) if p == 2.0 else solid_angle_exact_2d_l1(cone)
        return est.value, 0.0

    # a coordinate c >= -2**20 gives the word c + 2**20, a lower one
    # 2**64 - c, which no int64 coordinate reaches the other way
    entropy = [seed] + [int(c) + 2**20 if c >= -2**20 else 2**64 - int(c) for c in np.round(m)]
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    return mc_cone_angle(A[tight], p, [(n_samples, rng)])


def lattice_weights(P: Polytope, t: float, p: float = 2.0, n_samples: int = 20_000,
                    seed: int = 0) -> tuple:
    """Lattice points of the dilate t*P with their solid-angle weights and
    standard errors, as arrays ``(points, weights, std_errors)``.

    One matrix of facet slacks classifies every point (``_classify``, the
    classifier ``point_weight`` uses), which settles all but the corners
    with no error.  Each corner (a vertex point, in 3-D) goes through
    ``point_weight``, which gives it the exact angle where one exists and a
    sampled one otherwise, with the same per-point seeds as a scalar loop.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    pts = lattice_points(P, t)
    weights = _classify(P, t, pts, p)[0]
    std_errors = np.zeros(len(pts))
    for i in np.flatnonzero(np.isnan(weights)):
        weights[i], std_errors[i] = point_weight(P, t, pts[i], p=p, n_samples=n_samples, seed=seed)
    return pts, weights, std_errors


def discrete_volume(P: Polytope, t: float, p: float = 2.0, n_samples: int = 20_000,
                    seed: int = 0, keep_weights: bool = False) -> OracleResult:
    """Solid-angle weighted lattice-point count of the dilate t*P."""
    pts, weights, std_errors = lattice_weights(P, t, p=p, n_samples=n_samples, seed=seed)
    mc = std_errors[std_errors > 0.0]  # only Monte Carlo weights carry an error
    # fsum rounds the exact sum, so counting the whole points changes no bit
    rest = weights[weights != 1.0]
    return OracleResult(
        value=math.fsum([float(len(weights) - len(rest)), *rest.tolist()]),
        std_error=math.sqrt(math.fsum((mc * mc).tolist())),
        n_lattice_points=len(pts),
        per_point_weights=(tuple(zip(map(tuple, pts.tolist()), weights.tolist()))
                           if keep_weights else None),
    )
