"""Dilation solid-angle sums and identity verifiers.

``macdonald_sum`` evaluates the vertex-cone formula for the phase-weighted
solid-angle sum of a dilated polytope,

    sum_v |det K(v)| / (-2 pi i)^d
        * sum_m exp(2 pi i t <v, m+s>) phi_hat(m+s) / prod_j <w_j(v), m+s>,

with the eps -> 0 limit taken by Richardson extrapolation.  ``macdonald_volume``
takes the s -> 0 limit exactly: summed over all vertex cones the transform is
entire (Brion), so the limit is its value at s = 0, which the engine takes
along an internal generic direction.
The verifiers compute residuals of the cone reciprocity, Brion,
dilation-reciprocity, and Brianchon-Gram identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ImaginaryResidue, PoleHit
from .geometry import (
    Polytope,
    SimpleCone,
    face_tangent_cone_active_facets,
    faces,
    half_spaces,
    load_polytope,
    vertex_simple_cones,
)
from .lattice import POLE_GUARD, DampedLevels, alpha_polytope_direct, damped_transform_levels
from .numerics import Estimate, richardson_extrapolants, richardson_limit
from .transforms import DampedSumConfig, pole_distance

GRAM_MARGIN = 1e-9         # Brianchon-Gram sample points this close to a facet plane are redrawn


@dataclass(frozen=True)
class MacdonaldEvaluation:
    t: float
    s: tuple
    value: complex
    error: float
    per_vertex: tuple  # ((vertex coords), partial value) pairs; sums to value


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    inputs: dict
    lhs: complex
    rhs: complex
    residual: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GramCheckResult:
    passed: bool
    n_points: int
    n_failures: int
    counterexamples: tuple


def sqrt3_triangle() -> Polytope:
    """Triangle with vertices (0,0), (0,1), (sqrt(3),0); the standard
    irrational fixture."""
    return load_polytope(2, [(0.0, 0.0), (0.0, 1.0), (math.sqrt(3.0), 0.0)])


# ----------------------------- core evaluators ------------------------------

def _vertex_terms(P: Polytope, t: float):
    """Per-vertex simple cones of the dilate t*P (apex t*v, generators
    unchanged: cones at the origin are dilation invariant)."""
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    return [(v, [c.shifted(t * v) for c in vertex_simple_cones(P, i)])
            for i, v in enumerate(P.vertices)]


def _eps_limit(eps, levels: DampedLevels) -> Estimate:
    """eps -> 0 limit of damped levels.  The error adds to the Richardson
    estimate the rounding floor 3e-15 * gross (the levels share one lattice
    pass, so the extrapolant differences do not show their rounding) and the
    last two shell tails under the absolute Richardson weights."""
    noise = 3e-15 * float(levels.gross.max())
    est = richardson_limit(eps, levels.value, noise_floor=noise)
    e1, e2 = eps[-2], eps[-1]
    tail = (e1 * levels.tail[-1] + e2 * levels.tail[-2]) / (e1 - e2)
    return Estimate(est.value, float(est.error + noise + tail))


def macdonald_sum(P: Polytope, t: float, s, cfg: DampedSumConfig | None = None) -> MacdonaldEvaluation:
    """Phase-weighted solid-angle sum of the dilate t*P at s, by damped
    vertex-cone transform sums extrapolated to eps -> 0.

    Convergence is judged on the vertex-summed totals: individual cone sums
    need not converge at real s, but their sum equals a finite direct-space
    sum and does.  Per-vertex partials are the same linear extrapolation
    applied vertex by vertex, so they add up to the value exactly.  The error
    is that of the vertex-summed limit, rounding floor and tail included.
    """
    cfg = cfg or DampedSumConfig()
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    eps = list(cfg.eps_schedule)
    vertex_terms = _vertex_terms(P, t)
    levels = [damped_transform_levels(terms, s, cfg) for _, terms in vertex_terms]
    per_eps = np.array([lv.value for lv in levels])
    total_est = _eps_limit(eps, DampedLevels(per_eps.sum(axis=0), sum(lv.tail for lv in levels),
                                             sum(lv.gross for lv in levels)))
    partials = []
    total = 0j
    for (vertex, _), row in zip(vertex_terms, per_eps):
        partial = complex(richardson_extrapolants(eps, row)[-1])
        partials.append((tuple(float(v) for v in vertex), partial))
        total += partial
    return MacdonaldEvaluation(
        t=float(t), s=tuple(complex(v) for v in s),
        value=complex(total), error=float(total_est.error), per_vertex=tuple(partials),
    )


def _fallback_directions(d: int) -> list:
    rng = np.random.default_rng(2024)
    return [rng.integers(1, 12, size=d) / rng.integers(1, 5, size=d) for _ in range(20)]


def macdonald_volume(P: Polytope, t: float, cfg: DampedSumConfig | None = None) -> Estimate:
    """Solid-angle discrete volume of the dilate t*P: the s -> 0 limit of
    macdonald_sum, the value at s = 0 of the entire vertex-cone sum, in one
    damped-sum engine pass.  The engine approaches the pole points along the
    first of (1, ..., 1) and seeded rational fallbacks with
    |<w_j, x>| > POLE_GUARD for every vertex-cone generator; the value does
    not depend on that choice beyond rounding.  The error also counts any
    imaginary part, and ImaginaryResidue is raised when that part is
    significant."""
    cfg = cfg or DampedSumConfig()
    d = P.dim
    terms = [c for _, cones in _vertex_terms(P, t) for c in cones]
    direction = next((x for x in [np.ones(d), *_fallback_directions(d)]
                      if pole_distance(terms, x) > POLE_GUARD), None)
    if direction is None:
        raise PoleHit("no generic direction found")

    est = _eps_limit(cfg.eps_schedule, damped_transform_levels(terms, np.zeros(d), cfg, direction))
    c0 = est.value
    if abs(c0.imag) > 1e-6 * (1.0 + abs(c0.real)):
        raise ImaginaryResidue(f"imaginary part {c0.imag:.2e} in the s -> 0 limit")
    return Estimate(float(c0.real), float(est.error + abs(c0.imag)))


# ----------------------------- verifiers ------------------------------------

def verify_cone_reciprocity(cone: SimpleCone, shift, s, cfg: DampedSumConfig | None = None,
                            tolerance: float = 1e-5) -> IdentityReport:
    """Reciprocity of the damped cone sum: value at (shift + K, -s) against
    (-1)^d times the value at (-shift + K, s); exact term-by-term under the
    m -> -m relabeling, so both the fixed-eps and extrapolated residuals are
    reported.  Each side's error includes its rounding floor and tail."""
    cfg = cfg or DampedSumConfig()
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    d = cone.dim
    shift = np.asarray(shift, dtype=float)
    sign = (-1.0) ** d
    plus = [cone.shifted(cone.apex + shift)]
    minus = [cone.shifted(cone.apex - shift)]

    eps = cfg.eps_schedule
    lv = damped_transform_levels(plus, -s, cfg)
    rv = damped_transform_levels(minus, s, cfg)
    per_eps = [(e, float(abs(a - sign * b))) for e, a, b in zip(eps, lv.value, rv.value)]
    lhs = _eps_limit(eps, lv)
    rhs = _eps_limit(eps, rv)
    residual = abs(lhs.value - sign * rhs.value)
    return IdentityReport(
        identity="cone_reciprocity",
        inputs={"shift": shift.tolist(), "s": [complex(v) for v in s], "dim": d},
        lhs=lhs.value, rhs=sign * rhs.value,
        residual=float(residual), tolerance=tolerance, passed=bool(residual < tolerance),
        details={"per_eps_residuals": per_eps, "lhs_error": lhs.error, "rhs_error": rhs.error},
    )


def verify_brion(P: Polytope, s, cfg: DampedSumConfig | None = None,
                 tolerance: float = 1e-4) -> IdentityReport:
    """Brion-type identity: the finite solid-angle sum over P's lattice points
    equals the sum of the damped, extrapolated vertex-cone sums, both in the
    l^p norm of ``cfg``.

    ``passed`` is ``residual < tolerance`` alone.  Where the lattice-point
    side samples weights (planar corners at p not in {1, 2}, corners in
    dim >= 3), its Monte Carlo error ``details["lhs_error"]`` can exceed the
    tolerance and decide the verdict."""
    cfg = cfg or DampedSumConfig()
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    lhs = alpha_polytope_direct(P, s, p=cfg.p)
    rhs = macdonald_sum(P, 1.0, s, cfg)
    residual = abs(lhs.value - rhs.value)
    return IdentityReport(
        identity="brion",
        inputs={"s": [complex(v) for v in s], "dim": P.dim, "p": cfg.p},
        lhs=lhs.value, rhs=rhs.value,
        residual=float(residual), tolerance=tolerance, passed=bool(residual < tolerance),
        details={"per_vertex": rhs.per_vertex, "lhs_error": lhs.error, "rhs_error": rhs.error},
    )


def verify_macdonald(P: Polytope, t: float, s, cfg: DampedSumConfig | None = None,
                     tolerance: float = 1e-5) -> IdentityReport:
    """Dilation reciprocity: value at (-t, s) against (-1)^d value at (t, -s)."""
    cfg = cfg or DampedSumConfig()
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    sign = (-1.0) ** P.dim
    lhs = macdonald_sum(P, -t, s, cfg)
    rhs = macdonald_sum(P, t, -s, cfg)
    residual = abs(lhs.value - sign * rhs.value)
    return IdentityReport(
        identity="macdonald_reciprocity",
        inputs={"t": t, "s": [complex(v) for v in s], "dim": P.dim},
        lhs=lhs.value, rhs=sign * rhs.value,
        residual=float(residual), tolerance=tolerance, passed=bool(residual < tolerance),
        details={"lhs_error": lhs.error, "rhs_error": rhs.error},
    )


def conjecture_check(P: Polytope, cfg: DampedSumConfig | None = None) -> Estimate:
    """Value of the discrete volume at t = 0 (a theorem for odd dimension,
    a conjectured zero otherwise)."""
    return macdonald_volume(P, 0.0, cfg=cfg)


def brianchon_gram_check(P: Polytope, n_points: int = 100, seed: int = 0) -> GramCheckResult:
    """Exact indicator identity 1_P(x) = sum_F (-1)^dim(F) 1_{K_F}(x) at random
    points; points within GRAM_MARGIN of any facet plane are resampled.

    All points are drawn in one batch, which is the same random stream as
    drawing them one by one.  If a drawn point needs resampling, the points
    from it on are drawn again one at a time from the same stream position,
    so the sampled points never depend on the batching.
    """
    A, b = half_spaces(P)
    face_list = faces(P)
    actives = [face_tangent_cone_active_facets(P, f) for f in face_list]
    lo = P.vertices.min(axis=0)
    hi = P.vertices.max(axis=0)
    center = 0.5 * (lo + hi)
    halfwidth = np.maximum(0.5 * (hi - lo), 1.0)
    rng = np.random.default_rng(seed)

    def draw(shape):
        return center + (rng.random(shape) * 4.0 - 2.0) * halfwidth

    state = rng.bit_generator.state
    X = draw((n_points, P.dim))
    near = np.flatnonzero(np.min(np.abs(X @ A.T - b), axis=1) <= GRAM_MARGIN)
    if near.size:
        first = int(near[0])
        rng.bit_generator.state = state
        X = list(draw((first, P.dim)))
        while len(X) < n_points:
            x = draw(P.dim)
            if np.min(np.abs(A @ x - b)) > GRAM_MARGIN:
                X.append(x)
        X = np.array(X)

    inside = X @ A.T <= b
    lhs = np.all(inside, axis=1).astype(int)
    rhs = sum(f.sign * np.all(inside[:, act], axis=1).astype(int) for f, act in zip(face_list, actives))
    failures = [(tuple(float(v) for v in X[i]), int(lhs[i]), int(rhs[i]))
                for i in np.flatnonzero(lhs != rhs)]
    return GramCheckResult(
        passed=not failures, n_points=n_points,
        n_failures=len(failures), counterexamples=tuple(failures[:5]),
    )
