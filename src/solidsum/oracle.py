"""Brute-force ground truth for solid-angle lattice sums.

Everything here enumerates lattice points geometrically and weights them by
classified solid angles (interior 1, facet-interior 1/2, vertex = tangent-cone
angle); no transform-space machinery is involved, so these values make honest
oracles for the analytic evaluators.
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


def _check_method(P: Polytope, p: float, method: str) -> bool:
    """Validate a weighting method; True when planar vertex angles are exact."""
    exact_ok = P.dim <= 2 and p in (1.0, 2.0)
    if method == "exact2d" and not exact_ok:
        raise UnsupportedCombination(f"exact weights need dim <= 2 and p in {{1,2}}, got dim={P.dim}, p={p}")
    if method not in ("auto", "exact2d", "mc"):
        raise ValueError(f"unknown method {method!r}")
    return exact_ok and method != "mc"


def point_weight(P: Polytope, t: float, m, p: float = 2.0, method: str = "auto",
                 n_samples: int = 20_000, seed: int = 0) -> tuple:
    """Solid angle of the dilate t*P at a point, with its standard error.

    Classification is by facet incidence: no tight facet gives weight 1, one
    tight facet gives 1/2, and a vertex gets its tangent-cone angle (exact in
    the plane for p in {1, 2}, Monte Carlo otherwise).  In the plane, a point
    with two tight facets is at the vertex those facets share, read off the
    incidence table.
    """
    use_exact = _check_method(P, p, method)

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

    shared = np.flatnonzero(np.all(P._facets[2][:, tight], axis=1))
    if use_exact and shared.size:
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
    error).  Only points with two or more tight facets (vertices, and in 3-D
    edge points) go through ``point_weight``, with the same per-point seeds.
    """
    _check_method(P, p, method)
    pts = lattice_points(P, t)
    A, b = half_spaces(P)
    slack = t * b - pts @ A.T
    n_tight = np.count_nonzero(np.abs(slack) <= BOUNDARY_TOL, axis=1)
    weights = np.where(n_tight == 0, 1.0, 0.5)
    weights[np.min(slack, axis=1) < -BOUNDARY_TOL] = 0.0
    std_errors = np.zeros(len(pts))
    for i in np.flatnonzero((n_tight >= 2) & (weights > 0.0)):
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
