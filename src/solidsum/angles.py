"""Solid-angle estimators.

Three routes to the l^p solid angle of a point with respect to a convex body:

* exact 2-D values from a cone's two facet rows (the wedge angle over 2*pi
  for p = 2, half the area the rows cut from the l^1 ball for p = 1),
* geometric Monte Carlo: the share of the unit l^p ball inside the tangent
  cone at the point (``mc_cone_angle``),
* the Gaussian-limit route: mass of a mass-one generalized Gaussian inside the
  body, importance-sampled and extrapolated over a decreasing eps schedule.

Every body is read through its H-representation ``body_half_spaces``: the
facets whose slack at a point is within ``BOUNDARY_TOL`` of 0 cut out the
tangent cone there, which is all the solid angle depends on.

In the plane, a body's rows and those of a clipping box or of the l^1 ball
cut out a polygon {u : A u <= b}; the exact l^1 angle and ``soft_indicator``
read only its corners (``_corners``) and its lower and upper edges
(``_envelopes``).  ``soft_indicator`` evaluates the finite-eps convolution
(1_body * phi_eps)(x) by quadrature between those edges; the damped
direct-space lattice sums are built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import BadEpsilon, DegenerateCone, DimensionMismatch, UnsupportedDimension
from .geometry import BOUNDARY_TOL, SimpleCone, body_half_spaces
from .numerics import gauss_legendre_cells
from .transforms import clip_cutoff, mass_one_constant

N_CHUNKS = 16   # fixed sample partition; it fixes the random stream, so changing it changes every MC value
GAUSSIAN_EPS = (0.0625, 0.03125, 0.015625)  # halving levels: Richardson weights 2 and -1 are exact


@dataclass(frozen=True)
class SolidAngleEstimate:
    value: float
    std_error: float


def _clip01(v: float) -> float:
    return min(1.0, max(0.0, v))


# ----------------------------- sampling ------------------------------------

def _exponential_power(rng: np.random.Generator, n: int, d: int, p: float) -> np.ndarray:
    """An (n, d) array of independent draws from the density proportional to
    exp(-|u|^p): a gamma(1/p) magnitude to the power 1/p, with a random sign."""
    mags = rng.gamma(1.0 / p, size=(n, d)) ** (1.0 / p)
    signs = rng.integers(0, 2, size=(n, d)) * 2 - 1
    return signs * mags


def sample_lp_ball(rng: np.random.Generator, n: int, d: int, p: float) -> np.ndarray:
    """Uniform samples from the unit l^p ball."""
    g = _exponential_power(rng, n, d, p)
    w = rng.standard_exponential(n)
    denom = (np.sum(np.abs(g) ** p, axis=1) + w) ** (1.0 / p)
    return g / denom[:, None]


def _seeded_chunks(n: int, seed: int):
    """``(size, generator)`` pairs that split n samples into N_CHUNKS fixed
    chunks, each drawn from its own stream spawned from ``seed``; empty
    chunks are skipped."""
    base, extra = divmod(n, N_CHUNKS)
    sizes = [base + (i < extra) for i in range(N_CHUNKS)]
    for size, ss in zip(sizes, np.random.SeedSequence(seed).spawn(N_CHUNKS)):
        if size:
            yield size, np.random.default_rng(ss)


def mc_cone_angle(A: np.ndarray, p: float, chunks) -> tuple:
    """Monte Carlo l^p solid angle of the cone {y : A y <= 0} at its apex:
    the share of uniform samples of the unit l^p ball that it holds, and the
    binomial standard error of that share (floored at 1/n when every sample
    agrees).  ``chunks`` yields ``(size, generator)`` pairs, one draw each."""
    hits = n = 0
    for size, rng in chunks:
        Y = sample_lp_ball(rng, size, A.shape[1], p)
        hits += int(np.count_nonzero(np.all(Y @ A.T <= 1e-12, axis=1)))
        n += size
    frac = hits / n
    se = math.sqrt(frac * (1.0 - frac) / n)
    return frac, (se if se > 0 else 1.0 / n)


def solid_angle_mc(body, x, p: float = 2.0, n_samples: int = 100_000,
                   seed: int = 0) -> SolidAngleEstimate:
    """l^p solid angle of a polytope or cone at any point x, by Monte Carlo.

    The facets of ``body_half_spaces(body)`` whose slack at x is within
    BOUNDARY_TOL of 0 cut out the tangent cone at x, and ``mc_cone_angle``
    samples it; a point with a slack below -BOUNDARY_TOL is outside and gets
    0, an interior point 1, both with the 1/n error floor.  Deterministic
    for a given seed: samples are drawn in N_CHUNKS = 16 fixed chunks
    (``_seeded_chunks``).  The partition fixes the random stream, so
    changing it changes every Monte Carlo value.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    A, b = body_half_spaces(body)
    x = np.asarray(x, dtype=float)
    if x.shape != (A.shape[1],):
        raise DimensionMismatch(f"point has shape {x.shape}, expected ({A.shape[1]},)")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    slack = b - A @ x
    if np.min(slack) < -BOUNDARY_TOL:
        return SolidAngleEstimate(0.0, 1.0 / n_samples)
    return SolidAngleEstimate(*mc_cone_angle(A[np.abs(slack) <= BOUNDARY_TOL], p,
                                             _seeded_chunks(n_samples, seed)))


# ----------------------------- planar H-polygons ---------------------------

_BOX_ROWS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
_DIAMOND_ROWS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def _corners(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Corners of the polygon {u : A u <= b}: the pairwise intersections of
    its facet lines that satisfy every row within 1e-12, as rows."""
    i, j = np.array(list(combinations(range(len(A)), 2))).T
    det = A[i, 0] * A[j, 1] - A[i, 1] * A[j, 0]
    i, j, det = i[det != 0], j[det != 0], det[det != 0]  # parallel lines never meet
    u = np.stack([b[i] * A[j, 1] - b[j] * A[i, 1], A[i, 0] * b[j] - A[j, 0] * b[i]], axis=1) / det[:, None]
    return u[np.all(u @ A.T <= b + 1e-12, axis=1)]


def _envelopes(A: np.ndarray, b: np.ndarray, t: np.ndarray) -> tuple:
    """Lower and upper edges of the polygon {u : A u <= b} at the abscissae
    t: the max over rows with A[:, 1] < 0 and the min over rows with
    A[:, 1] > 0 of (b - A[:, 0] t) / A[:, 1]."""
    def edge(rows):
        return (b[rows, None] - A[rows, :1] * t) / A[rows, 1:]
    return (np.max(edge(A[:, 1] < 0), axis=0, initial=-np.inf),
            np.min(edge(A[:, 1] > 0), axis=0, initial=np.inf))


# ----------------------------- exact 2-D ------------------------------------

def _planar_rows(cone) -> np.ndarray:
    """The two unit facet rows of a pointed planar cone (``body_half_spaces``);
    raises DegenerateCone for any other shape."""
    A, _ = body_half_spaces(cone)
    if A.shape != (2, 2):
        raise DegenerateCone(f"expected 2 facets in the plane, got rows of shape {A.shape}")
    return A


def wedge_angle(a_i: np.ndarray, a_j: np.ndarray) -> float:
    """p = 2 solid angle of the wedge {y : a_i . y <= 0, a_j . y <= 0} for
    unit normals a_i, a_j, in any dimension: the angle between its two
    facets, pi - angle(a_i, a_j), over 2 pi."""
    c = float(a_i @ a_j)
    r = a_j - c * a_i
    return math.atan2(math.sqrt(r @ r), -c) / (2.0 * math.pi)


def solid_angle_exact_2d(cone) -> SolidAngleEstimate:
    """Planar angle of a cone divided by 2*pi (p = 2): the wedge angle of its
    two facet rows."""
    A = _planar_rows(cone)
    return SolidAngleEstimate(wedge_angle(A[0], A[1]), 0.0)


def solid_angle_exact_2d_l1(cone) -> SolidAngleEstimate:
    """l^1 solid angle of a planar cone at its apex.

    The unit cross-polytope {|x|+|y| <= 1} has area 2, so the angle is half
    the area of the polygon that the cone's facet rows and the diamond's
    rows cut out.  Between consecutive corner abscissae both edges are
    straight, so the strip midpoints give that area exactly.
    """
    A = np.vstack([_planar_rows(cone), _DIAMOND_ROWS])
    b = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    xs = np.sort(_corners(A, b)[:, 0])
    lo, hi = _envelopes(A, b, 0.5 * (xs[1:] + xs[:-1]))
    return SolidAngleEstimate(float(np.diff(xs) @ (hi - lo)) / 2.0, 0.0)


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
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    x = np.asarray(x, dtype=float)
    if x.shape != (cone.dim,):
        raise DimensionMismatch(f"point has shape {x.shape}, expected ({cone.dim},)")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    c = mass_one_constant(p)
    A, b = body_half_spaces(cone)
    scales = np.array([(e / c) ** (1.0 / p) for e in GAUSSIAN_EPS])

    sum_xi = 0.0
    sum_xi2 = 0.0
    sum_prev = 0.0
    for size, rng in _seeded_chunks(n_samples, seed):
        base = _exponential_power(rng, size, x.size, p)
        ind = np.empty((len(scales), size), dtype=float)
        for k, sc in enumerate(scales):
            Y = x + sc * base
            ind[k] = np.all(Y @ A.T <= b + 1e-12, axis=1)
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
    return SolidAngleEstimate(_clip01(value), se)


# ----------------------------- soft indicator --------------------------------

def _lp_cdf(u, p: float, c: float, eps: float):
    """CDF of the 1-D density eps^(-1/p) exp(-(c/eps)|u|^p)."""
    from scipy.special import gammainc  # only the soft indicator needs scipy here
    u = np.asarray(u, dtype=float)
    g = gammainc(1.0 / p, (c / eps) * np.abs(u) ** p)
    return 0.5 * (1.0 + np.sign(u) * g)


def soft_indicator(body, x, p: float, eps: float) -> float:
    """(1_body * phi_eps)(x) by deterministic quadrature (dim <= 2).

    This is the finite-eps smoothed solid angle; it converges to the l^p solid
    angle as eps -> 0 and equals it exactly at a cone apex.

    In the plane, the body's rows shifted to x and the rows of the box where
    the density has dropped by e^-45 cut out a polygon in u = y - x.  The
    density times the difference of the 1-D CDFs at its upper and lower
    edges (``_envelopes``) is integrated over u_0 on Gauss-Legendre cells
    that end at the corners, where an edge meets u_1 = 0 (the CDF's kink),
    and at 0, toward which they shrink geometrically (the density's |u|^p
    kink); elsewhere they are 0.7 (eps/c)^(1/p) wide at p = 2 and a quarter
    of that at any other p, whose density is less smooth.
    """
    if eps <= 0:
        raise BadEpsilon(f"eps must be positive, got {eps}")
    A, b = body_half_spaces(body)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (A.shape[1],):
        raise DimensionMismatch(f"point has shape {x.shape}, expected ({A.shape[1]},)")
    if x.size > 2:
        raise UnsupportedDimension("soft_indicator quadrature supports dim <= 2")
    c = mass_one_constant(p)
    if x.size == 1:
        hi = np.min(b[A[:, 0] > 0], initial=np.inf)
        lo = np.max(-b[A[:, 0] < 0], initial=-np.inf)
        return float(_lp_cdf(hi - x[0], p, c, eps) - _lp_cdf(lo - x[0], p, c, eps))
    A, b = np.vstack([A, _BOX_ROWS]), np.concatenate([b - A @ x, np.full(4, clip_cutoff(p, c, eps))])
    corners = _corners(A, b)
    if len(corners) == 0:
        return 0.0
    lo, hi = np.min(corners[:, 0]), np.max(corners[:, 0])
    h = (0.7 if p == 2.0 else 0.175) * (eps / c) ** (1.0 / p)
    graded = h * 0.5 ** np.arange(46)  # toward the density's |u|^p kink at 0
    crossings = b[A[:, 0] != 0] / A[A[:, 0] != 0, 0]  # the CDF's kink, where an edge meets u_1 = 0
    bounds = np.concatenate([corners[:, 0], [0.0], graded, -graded, crossings, np.arange(lo, hi, h)])
    u, w = gauss_legendre_cells(np.unique(np.clip(bounds, lo, hi)))
    below, above = _envelopes(A, b, u)
    density = eps ** (-1.0 / p) * np.exp(-(c / eps) * np.abs(u) ** p)
    return float(w @ (density * (_lp_cdf(above, p, c, eps) - _lp_cdf(below, p, c, eps))))
