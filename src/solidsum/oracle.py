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

from .angles import sample_lp_ball, solid_angle_exact_2d, solid_angle_exact_2d_l1
from .errors import UnsupportedCombination
from .geometry import BOUNDARY_TOL, Polytope, half_spaces, lattice_points, vertex_simple_cones


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


def _mc_halfspace_cone_angle(A_tight: np.ndarray, p: float, n_samples: int,
                             seed_entropy) -> tuple:
    """MC solid angle of the cone {y : A_tight y <= 0} at its apex."""
    d = A_tight.shape[1]
    rng = np.random.default_rng(np.random.SeedSequence(seed_entropy))
    Y = sample_lp_ball(rng, n_samples, d, p)
    frac = float(np.mean(np.all(Y @ A_tight.T <= 1e-12, axis=1)))
    se = math.sqrt(frac * (1.0 - frac) / n_samples)
    return frac, (se if se > 0 else 1.0 / n_samples)


def _wedge_weight(a_i: np.ndarray, a_j: np.ndarray) -> float:
    """p = 2 solid angle of the wedge {y : a_i . y <= 0, a_j . y <= 0} for
    unit normals a_i, a_j, in any dimension: (pi - angle(a_i, a_j)) / (2 pi)."""
    c = float(a_i @ a_j)
    angle = math.atan2(float(np.linalg.norm(a_j - c * a_i)), c)
    return (math.pi - angle) / (2.0 * math.pi)


def _check_method(P: Polytope, p: float, method: str) -> tuple:
    """Validate a weighting method.  Returns whether planar vertex angles are
    exact, and whether points with two tight facets in dim >= 3 take the
    exact wedge angle."""
    exact_ok = P.dim <= 2 and p in (1.0, 2.0)
    if method == "exact2d" and not exact_ok:
        raise UnsupportedCombination(f"exact weights need dim <= 2 and p in {{1,2}}, got dim={P.dim}, p={p}")
    if method not in ("auto", "exact2d", "mc"):
        raise ValueError(f"unknown method {method!r}")
    exact = method != "mc"
    return exact and exact_ok, exact and P.dim >= 3 and p == 2.0


def point_weight(P: Polytope, t: float, m, p: float = 2.0, method: str = "auto",
                 n_samples: int = 20_000, seed: int = 0) -> tuple:
    """Solid angle of the dilate t*P at a point, with its standard error.

    Classification is by facet incidence: no tight facet gives weight 1, one
    tight facet gives 1/2, and a point with more tight facets gets the angle
    of its tangent cone.  In the plane, a point with two tight facets is at
    the vertex those facets share, read off the incidence table; its angle is
    exact for p in {1, 2}.  In dim >= 3 at p = 2, a point with exactly two
    tight facets (an edge point in 3-D) gets the exact wedge angle
    ``(pi - angle(a_i, a_j)) / (2 pi)`` of the two unit normals.  Every other
    corner, and every corner under ``method="mc"``, gets a Monte Carlo angle
    seeded by ``seed`` and the point.
    """
    planar_exact, wedge_exact = _check_method(P, p, method)

    m = np.asarray(m, dtype=float)
    A, b = half_spaces(P)
    slack = t * b - A @ m
    if np.min(slack) < -BOUNDARY_TOL:
        return 0.0, 0.0  # outside the closed dilate
    tight = np.abs(slack) <= BOUNDARY_TOL
    n_tight = int(tight.sum())
    if n_tight == 0:
        return 1.0, 0.0
    if n_tight == 1 or P.dim == 1:
        return 0.5, 0.0
    if n_tight == 2 and wedge_exact:
        i, j = np.flatnonzero(tight)
        return _wedge_weight(A[i], A[j]), 0.0

    shared = np.flatnonzero(np.all(P._facets[2][:, tight], axis=1))
    if planar_exact and shared.size:
        # dilation leaves tangent-cone directions unchanged
        cone = vertex_simple_cones(P, int(shared[0]))[0]
        est = solid_angle_exact_2d(cone) if p == 2.0 else solid_angle_exact_2d_l1(cone)
        return est.value, 0.0

    # tangent cone of t*P at m in H-form; MC over an l^p ball at the apex
    entropy = [seed] + [int(c) + 2**20 for c in np.round(m)]
    return _mc_halfspace_cone_angle(A[tight], p, n_samples, entropy)


def lattice_weights(P: Polytope, t: float, p: float = 2.0, method: str = "auto",
                    n_samples: int = 20_000, seed: int = 0) -> tuple:
    """Lattice points of the dilate t*P with their solid-angle weights and
    standard errors, as arrays ``(points, weights, std_errors)``.

    The facet slacks of all points come from one matrix product, which
    settles every point with at most one tight facet (weight 1 or 1/2, no
    error).  In dim >= 3 at p = 2 (unless ``method="mc"``), points with
    exactly two tight facets take the exact wedge angle of their facet pair,
    from the helper ``point_weight`` uses.  The
    remaining points with two or more tight facets (vertices, in 3-D) go
    through ``point_weight``, with the same per-point seeds.
    """
    _, wedge_exact = _check_method(P, p, method)
    pts = lattice_points(P, t)
    A, b = half_spaces(P)
    slack = t * b - pts @ A.T
    tight = np.abs(slack) <= BOUNDARY_TOL
    n_tight = np.count_nonzero(tight, axis=1)
    weights = np.where(n_tight == 0, 1.0, 0.5)
    weights[np.min(slack, axis=1) < -BOUNDARY_TOL] = 0.0
    std_errors = np.zeros(len(pts))
    corner = (n_tight >= 2) & (weights > 0.0)
    if wedge_exact:
        wedge = corner & (n_tight == 2)
        pairs = np.nonzero(tight[wedge])[1].reshape(-1, 2)
        weights[wedge] = [_wedge_weight(A[i], A[j]) for i, j in pairs]
        corner &= ~wedge
    for i in np.flatnonzero(corner):
        weights[i], std_errors[i] = point_weight(P, t, pts[i], p=p, method=method,
                                                 n_samples=n_samples, seed=seed)
    return pts, weights, std_errors


def discrete_volume(P: Polytope, t: float, p: float = 2.0, method: str = "auto",
                    n_samples: int = 20_000, seed: int = 0,
                    keep_weights: bool = False) -> OracleResult:
    """Solid-angle weighted lattice-point count of the dilate t*P."""
    pts, weights, std_errors = lattice_weights(P, t, p=p, method=method,
                                               n_samples=n_samples, seed=seed)
    mc = std_errors[std_errors > 0.0]  # only Monte Carlo weights carry an error
    return OracleResult(
        value=math.fsum(weights.tolist()),
        std_error=math.sqrt(math.fsum((mc * mc).tolist())),
        n_lattice_points=len(pts),
        per_point_weights=(tuple(zip(map(tuple, pts.tolist()), weights.tolist()))
                           if keep_weights else None),
    )
