"""Solid-angle estimators.

Three routes to the l^p solid angle of a point with respect to a convex body:

* exact 2-D values (planar angle / 2*pi for p = 2, diamond clipping for p = 1),
* geometric Monte Carlo over a small l^p ball,
* the Gaussian-limit route: mass of a mass-one generalized Gaussian inside the
  body, importance-sampled and extrapolated over a decreasing eps schedule.

``soft_indicator`` evaluates the finite-eps convolution (1_body * phi_eps)(x)
deterministically by strip quadrature; the damped direct-space lattice sums
are built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadEpsilon, DegenerateCone, NotPointed, UnsupportedDimension
from .geometry import (
    Cone,
    Polytope,
    SimpleCone,
    body_half_spaces,
    cone_halfplanes_2d,
    half_spaces,
    triangulate_cone,
)
from .numerics import gauss_legendre_panels
from .transforms import clip_cutoff, mass_one_constant

EXACT_2D = "exact2d"
MC_BALL = "mc_ball"
GAUSSIAN_LIMIT = "gaussian_limit"

N_CHUNKS = 16   # fixed sample partition; it fixes the random stream, so changing it changes every MC value
GAUSSIAN_EPS = (0.0625, 0.03125, 0.015625)  # halving levels: Richardson weights 2 and -1 are exact


@dataclass(frozen=True)
class SolidAngleEstimate:
    value: float
    std_error: float
    method: str


def _clip01(v: float) -> float:
    return min(1.0, max(0.0, v))


# ----------------------------- sampling ------------------------------------

def sample_lp_ball(rng: np.random.Generator, n: int, d: int, p: float) -> np.ndarray:
    """Uniform samples from the unit l^p ball."""
    mags = rng.gamma(1.0 / p, size=(n, d)) ** (1.0 / p)
    signs = rng.integers(0, 2, size=(n, d)) * 2 - 1
    g = signs * mags
    w = rng.standard_exponential(n)
    denom = (np.sum(np.abs(g) ** p, axis=1) + w) ** (1.0 / p)
    return g / denom[:, None]


def _chunk_sizes(n: int) -> list:
    base, extra = divmod(n, N_CHUNKS)
    return [base + (1 if i < extra else 0) for i in range(N_CHUNKS)]


def _membership_test(body):
    """Vectorized indicator for a polytope or cone."""
    if isinstance(body, Polytope):
        A, b = half_spaces(body)
        return lambda Y: np.all(Y @ A.T <= b + 1e-12, axis=1)
    if isinstance(body, SimpleCone):
        inv = np.linalg.inv(body.generators)
        apex = body.apex
        return lambda Y: np.all((Y - apex) @ inv >= -1e-12, axis=1)
    if isinstance(body, Cone):
        pieces = triangulate_cone(body.apex, body.generators)
        tests = [_membership_test(pc) for pc in pieces]
        return lambda Y: np.any(np.stack([t(Y) for t in tests]), axis=0)
    raise TypeError(f"unsupported body type {type(body).__name__}")


def _default_ball_radius(body, x) -> float:
    if isinstance(body, (SimpleCone, Cone)):
        return 1.0  # cones are scale invariant at the apex
    A, b = half_spaces(body)
    dists = np.abs(b - A @ np.asarray(x, dtype=float))
    dists = dists[dists > 1e-9]
    return float(dists.min() / 2.0) if dists.size else 1.0


def solid_angle_mc(body, x, p: float = 2.0, n_samples: int = 100_000,
                   seed: int = 0) -> SolidAngleEstimate:
    """Fraction of a small l^p ball at x that lies in the body (geometric MC).

    For a polytope the ball's radius is half the distance from x to the
    nearest facet plane not through x, so the ball meets only the faces
    through x; a cone is scale invariant at its apex and gets radius 1.
    Deterministic for a given seed: samples are drawn in N_CHUNKS = 16 fixed
    chunks with seeds spawned from ``seed``.  The partition fixes the random
    stream, so changing it changes every Monte Carlo value.
    """
    radius = _default_ball_radius(body, x)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    x = np.asarray(x, dtype=float)
    inside = _membership_test(body)
    hits = 0
    seeds = np.random.SeedSequence(seed).spawn(N_CHUNKS)
    for size, ss in zip(_chunk_sizes(n_samples), seeds):
        if size == 0:
            continue
        rng = np.random.default_rng(ss)
        Y = x + radius * sample_lp_ball(rng, size, x.size, p)
        hits += int(np.sum(inside(Y)))
    frac = hits / n_samples
    se = math.sqrt(frac * (1.0 - frac) / n_samples)
    if se == 0.0:
        se = 1.0 / n_samples  # conservative floor at the binomial extremes
    return SolidAngleEstimate(frac, se, MC_BALL)


# ----------------------------- exact 2-D ------------------------------------

def _two_generators(cone):
    if not isinstance(cone, (SimpleCone, Cone)):
        raise TypeError(f"unsupported cone type {type(cone).__name__}")
    gens = cone.generators
    if gens.shape != (2, 2):
        raise DegenerateCone(f"expected 2 generators in the plane, got shape {gens.shape}")
    return gens[0], gens[1]


def _check_pointed_2d(g1, g2) -> None:
    cross = g1[0] * g2[1] - g1[1] * g2[0]
    scale = np.linalg.norm(g1) * np.linalg.norm(g2)
    if scale == 0.0 or abs(cross) > 1e-14 * scale:
        return
    if np.dot(g1, g2) < 0:
        raise NotPointed("generators span a line; the cone is a half-plane")
    raise DegenerateCone("generators are parallel")


def solid_angle_exact_2d(cone) -> SolidAngleEstimate:
    """Planar angle between the two generators divided by 2*pi (p = 2)."""
    g1, g2 = _two_generators(cone)
    _check_pointed_2d(g1, g2)
    cross = g1[0] * g2[1] - g1[1] * g2[0]
    angle = math.atan2(abs(cross), float(np.dot(g1, g2)))
    return SolidAngleEstimate(angle / (2.0 * math.pi), 0.0, EXACT_2D)


_DIAMOND = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def clip_polygon_halfplane(poly: np.ndarray, a, b: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a polygon against {x : <a, x> <= b}."""
    a = np.asarray(a, dtype=float)
    out = []
    n = len(poly)
    for i in range(n):
        cur, nxt = poly[i], poly[(i + 1) % n]
        c_in = np.dot(a, cur) <= b
        n_in = np.dot(a, nxt) <= b
        if c_in:
            out.append(cur)
        if c_in != n_in:
            da = np.dot(a, nxt - cur)
            t = (b - np.dot(a, cur)) / da
            out.append(cur + t * (nxt - cur))
    return np.asarray(out) if out else np.empty((0, 2))


def polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def solid_angle_exact_2d_l1(cone) -> SolidAngleEstimate:
    """l^1 solid angle of a planar cone at its apex by diamond clipping.

    The unit cross-polytope {|x|+|y| <= 1} has area 2, so the angle equals
    area(diamond intersect cone-at-origin) / 2.
    """
    g1, g2 = _two_generators(cone)
    _check_pointed_2d(g1, g2)
    A, _ = cone_halfplanes_2d(np.zeros(2), g1, g2)
    poly = _DIAMOND
    for row in A:
        poly = clip_polygon_halfplane(poly, row, 0.0)
    return SolidAngleEstimate(polygon_area(poly) / 2.0, 0.0, EXACT_2D)


# ----------------------------- Gaussian route --------------------------------

def solid_angle_gaussian(cone: SimpleCone, x, p: float = 2.0, n_samples: int = 100_000,
                         seed: int = 0) -> SolidAngleEstimate:
    """Mass of the mass-one l^p Gaussian centered at x inside a simple cone,
    Richardson-extrapolated over the levels GAUSSIAN_EPS.

    The proposal is the product of 1-D exponential-power densities centered at
    x, so each sample's weight is exactly the cone indicator; draws are shared
    across eps levels (only the radial scale eps^(1/p) changes), which makes
    the extrapolation noise-stable.  The error adds to the Monte Carlo error
    the gap to the extrapolant one level coarser.
    """
    x = np.asarray(x, dtype=float)
    c = mass_one_constant(p)
    inv = np.linalg.inv(cone.generators)
    apex = cone.apex
    scales = np.array([(e / c) ** (1.0 / p) for e in GAUSSIAN_EPS])

    sum_xi = 0.0
    sum_xi2 = 0.0
    sum_prev = 0.0
    seeds = np.random.SeedSequence(seed).spawn(N_CHUNKS)
    for size, ss in zip(_chunk_sizes(n_samples), seeds):
        if size == 0:
            continue
        rng = np.random.default_rng(ss)
        mags = rng.gamma(1.0 / p, size=(size, x.size)) ** (1.0 / p)
        signs = rng.integers(0, 2, size=(size, x.size)) * 2 - 1
        base = signs * mags
        ind = np.empty((len(scales), size), dtype=float)
        for k, sc in enumerate(scales):
            Y = x + sc * base
            ind[k] = np.all((Y - apex) @ inv >= -1e-12, axis=1)
        xi = 2.0 * ind[2] - ind[1]
        sum_xi += float(xi.sum())
        sum_xi2 += float(np.dot(xi, xi))
        sum_prev += float((2.0 * ind[1] - ind[0]).sum())

    n = n_samples
    value = sum_xi / n
    var = max(sum_xi2 / n - value * value, 0.0)
    mc_se = math.sqrt(var / n)
    resid = abs(value - sum_prev / n)
    se = math.hypot(mc_se, resid)
    if se == 0.0:
        se = 1.0 / n  # conservative floor when every draw agrees
    return SolidAngleEstimate(_clip01(value), se, GAUSSIAN_LIMIT)


# ----------------------------- soft indicator --------------------------------

def _lp_cdf(u, p: float, c: float, eps: float):
    """CDF of the 1-D density eps^(-1/p) exp(-(c/eps)|u|^p)."""
    from scipy.special import gammainc  # only the soft indicator needs scipy here
    u = np.asarray(u, dtype=float)
    g = gammainc(1.0 / p, (c / eps) * np.abs(u) ** p)
    return 0.5 * (1.0 + np.sign(u) * g)


def _polygon_of(body, x: np.ndarray, cut: float) -> np.ndarray:
    """Convex polygon of body intersected with the quadrature box around x."""
    box = np.array([
        [x[0] - cut, x[1] - cut],
        [x[0] + cut, x[1] - cut],
        [x[0] + cut, x[1] + cut],
        [x[0] - cut, x[1] + cut],
    ])
    A, b = body_half_spaces(body)
    poly = box
    for row, off in zip(A, b):
        poly = clip_polygon_halfplane(poly, row, off)
        if len(poly) == 0:
            break
    return poly


def _strip_integral(poly: np.ndarray, x: np.ndarray, p: float, c: float, eps: float) -> float:
    """Integral of the product density centered at x over a convex polygon,
    sliced into vertical strips whose bounds are affine."""
    if polygon_area(poly) == 0.0:
        return 0.0
    n = len(poly)
    edge_list = [(poly[i], poly[(i + 1) % n]) for i in range(n)]
    breaks = set(float(v[0]) for v in poly)
    breaks.add(float(x[0]))  # density kink
    for q0, q1 in edge_list:  # CDF kink where an edge crosses y = x[1]
        y0, y1 = q0[1] - x[1], q1[1] - x[1]
        if y0 * y1 < 0:
            breaks.add(float(q0[0] + (q1[0] - q0[0]) * (-y0) / (y1 - y0)))
    lo, hi = min(v[0] for v in poly), max(v[0] for v in poly)
    xs = sorted(b for b in breaks if lo - 1e-13 <= b <= hi + 1e-13)
    scale = (eps / c) ** (1.0 / p)
    total = 0.0
    for a, b in zip(xs, xs[1:]):
        if b - a < 1e-13:
            continue
        mid = 0.5 * (a + b)
        ys = []
        for q0, q1 in edge_list:
            x0, x1 = q0[0], q1[0]
            if (x0 - mid) * (x1 - mid) < 0:
                ys.append((q0, q1))
        if len(ys) < 2:
            continue
        def edge_y(edge, t):
            q0, q1 = edge
            return q0[1] + (q1[1] - q0[1]) * (t - q0[0]) / (q1[0] - q0[0])
        ys.sort(key=lambda e: edge_y(e, mid))
        e_lo, e_hi = ys[0], ys[-1]
        n_panels = max(1, math.ceil((b - a) / (0.7 * scale)))
        t, w = gauss_legendre_panels(a, b, n_panels)
        f1 = eps ** (-1.0 / p) * np.exp(-(c / eps) * np.abs(t - x[0]) ** p)
        G = _lp_cdf(edge_y(e_hi, t) - x[1], p, c, eps) - _lp_cdf(edge_y(e_lo, t) - x[1], p, c, eps)
        total += float(np.dot(w, f1 * G))
    return total


def soft_indicator(body, x, p: float, eps: float) -> float:
    """(1_body * phi_eps)(x) by deterministic quadrature (dim <= 2).

    This is the finite-eps smoothed solid angle; it converges to the l^p solid
    angle as eps -> 0 and equals it exactly at a cone apex.
    """
    if eps <= 0:
        raise BadEpsilon(f"eps must be positive, got {eps}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    c = mass_one_constant(p)
    if x.size == 1:
        if isinstance(body, Polytope):
            lo, hi = float(body.vertices.min()), float(body.vertices.max())
            return float(_lp_cdf(hi - x[0], p, c, eps) - _lp_cdf(lo - x[0], p, c, eps))
        if isinstance(body, SimpleCone):
            a = float(body.apex[0])
            if body.generators[0, 0] > 0:
                return float(1.0 - _lp_cdf(a - x[0], p, c, eps))
            return float(_lp_cdf(a - x[0], p, c, eps))
        raise TypeError(f"unsupported body type {type(body).__name__}")
    if x.size == 2:
        cut = clip_cutoff(p, c, eps)
        poly = _polygon_of(body, x, cut)
        return _strip_integral(poly, x, p, c, eps)
    raise UnsupportedDimension("soft_indicator quadrature supports dim <= 2")
