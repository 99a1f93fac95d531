"""The damping function, its Fourier-Laplace transform, and cone transforms.

The damping function is the mass-one generalized Gaussian

    phi_eps(t) = eps^(-d/p) * exp(-(c/eps) * ||t||_p^p),   c = (2*Gamma(1/p+1))^p,

so its transform (bilinear kernel exp(2*pi*i*<x, z>), no conjugation anywhere)
satisfies phi_hat(0) = 1.  For p = 2 the transform has the closed form
exp(-pi*eps*sum(z_k^2)); for general p each coordinate factor is computed by
composite Gauss-Legendre quadrature of an entire integrand over a finite
window.  A simple cone with apex v and generator rows w_j has transform

    (-2*pi*i)^(-d) * |det| * exp(2*pi*i*<v, z>) / prod_j <w_j, z>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PoleHit, QuadratureUnderResolved
from .geometry import SimpleCone
from .numerics import gauss_legendre_cells

POLE_TOL = 1e-14          # per-evaluation pole guard in cone_transform
TAIL_TARGET = 1e-12       # admissible transform tail mass beyond the window
DEFAULT_EPS_LEVELS = 10


def default_eps_schedule(eps0: float = 0.5, levels: int = DEFAULT_EPS_LEVELS) -> tuple:
    return tuple(eps0 * 0.5 ** k for k in range(levels))


def mass_one_constant(p: float) -> float:
    """c = (2*Gamma(1/p+1))^p; equals pi at p = 2."""
    return (2.0 * math.gamma(1.0 / p + 1.0)) ** p


@dataclass(frozen=True)
class DampedSumConfig:
    """Parameters shared by every damped lattice-sum evaluation.

    ``truncation_radius`` of None selects the automatic sup-norm cutoff
    R(eps) = max(30, ceil(6/sqrt(pi*eps))), which keeps the Gaussian tail of
    the damping transform below ~1e-12.  ``quad_halfwidth``/``quad_points``
    control the 1-D transform quadrature used for p != 2.
    """

    p: float = 2.0
    eps_schedule: tuple = field(default_factory=default_eps_schedule)
    truncation_radius: int | None = None
    quad_halfwidth: float = 8.0
    quad_points: int = 4000

    def __post_init__(self):
        if self.p < 1.0:
            raise ValueError(f"p must be >= 1, got {self.p}")
        eps = tuple(float(e) for e in self.eps_schedule)
        if len(eps) < 1 or any(e <= 0 for e in eps):
            raise ValueError("eps_schedule must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps_schedule must be strictly decreasing")
        object.__setattr__(self, "eps_schedule", eps)
        if self.truncation_radius is not None and self.truncation_radius < 1:
            raise ValueError("truncation_radius must be >= 1")
        if self.quad_halfwidth <= 0 or self.quad_points < 32:
            raise ValueError("bad quadrature parameters")

    @property
    def c(self) -> float:
        return mass_one_constant(self.p)

    def radius_for(self, eps: float) -> int:
        if self.truncation_radius is not None:
            return self.truncation_radius
        return max(30, math.ceil(6.0 / math.sqrt(math.pi * eps)))


def phi(cfg: DampedSumConfig, eps: float, t) -> float:
    """Damping function at a real point; integrates to 1 over d-space."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    d = t.size
    return float(eps ** (-d / cfg.p) * math.exp(-(cfg.c / eps) * np.sum(np.abs(t) ** cfg.p)))


def clip_cutoff(p: float, c: float, eps: float) -> float:
    """Distance beyond which the 1-D damping density eps^(-1/p) exp(-(c/eps)|x|^p)
    has dropped by the factor e^-45."""
    return (eps * 45.0 / c) ** (1.0 / p)


def _quad_window(cfg: DampedSumConfig, eps: float, im_max: float) -> float:
    """Window half-width where the 1-D integrand drops below the tail target."""
    c = cfg.c
    L = clip_cutoff(cfg.p, c, eps)
    for _ in range(8):
        L = (eps * (45.0 + 2.0 * math.pi * im_max * L) / c) ** (1.0 / cfg.p)
    return min(cfg.quad_halfwidth, max(L, 1e-3))


def phi_hat_1d_grid(cfg: DampedSumConfig, eps: float, z_values: np.ndarray) -> np.ndarray:
    """1-D transforms of the damping factor at an array of complex arguments,
    by composite Gauss-Legendre quadrature on [-L, L]."""
    z = np.atleast_1d(np.asarray(z_values, dtype=complex))
    im_max = float(np.max(np.abs(z.imag))) if z.size else 0.0
    re_max = float(np.max(np.abs(z.real))) if z.size else 0.0
    L = _quad_window(cfg, eps, im_max)
    tail = eps ** (-1.0 / cfg.p) * math.exp(-(cfg.c / eps) * L ** cfg.p + 2 * math.pi * im_max * L) * max(L, 1.0)
    if L >= cfg.quad_halfwidth - 1e-12 and tail > TAIL_TARGET:
        raise QuadratureUnderResolved(f"tail mass {tail:.2e} beyond window L={L} exceeds {TAIL_TARGET}")
    nodes_per_cycle = cfg.quad_points / max(2.0 * L * max(re_max, 1.0), 1.0)
    if nodes_per_cycle < 6.0:
        raise QuadratureUnderResolved(
            f"{cfg.quad_points} nodes resolve only {nodes_per_cycle:.1f} per oscillation; raise quad_points"
        )
    n_uniform = max(8, cfg.quad_points // 16)
    n_uniform += n_uniform % 2  # keep a cell boundary at 0
    bounds = np.linspace(-L, L, n_uniform + 1)
    # |x|^p in the exponent has a kink at 0: refine the two central cells
    # geometrically so non-even p keeps full quadrature accuracy
    h = bounds[1] - bounds[0]
    graded = h * 0.5 ** np.arange(1, 46)
    bounds = np.unique(np.concatenate([bounds, -graded, graded, [0.0]]))
    u, w = gauss_legendre_cells(bounds)
    dens = eps ** (-1.0 / cfg.p) * np.exp(-(cfg.c / eps) * np.abs(u) ** cfg.p)
    return np.exp(2j * np.pi * np.outer(z, u)) @ (w * dens)


def phi_hat(cfg: DampedSumConfig, eps: float, z) -> complex:
    """Transform of the damping function at a complex point (phi_hat(0) = 1)."""
    if cfg.p != 2.0:
        return phi_hat_quadrature(cfg, eps, z)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return complex(np.exp(-math.pi * eps * np.sum(z * z)))


def phi_hat_quadrature(cfg: DampedSumConfig, eps: float, z) -> complex:
    """Transform by 1-D quadrature for any p: phi_hat's path for p != 2, and a
    cross-check of its p = 2 closed form."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    factors = [phi_hat_1d_grid(cfg, eps, zk)[0] for zk in z]
    return complex(np.prod(factors))


def cone_transform(cone: SimpleCone, z) -> complex:
    """Fourier-Laplace transform of the indicator of a shifted simple cone."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    d = cone.dim
    denoms = cone.generators @ z
    small = np.abs(denoms) <= POLE_TOL
    if np.any(small):
        j = int(np.argmax(small))
        raise PoleHit(f"<w_{j}, z> = {denoms[j]} is numerically zero", generator_index=j)
    pref = (-2j * math.pi) ** (-d) * abs(cone.det)
    return complex(pref * np.exp(2j * math.pi * np.dot(cone.apex, z)) / np.prod(denoms))


def pole_distance(cones, z) -> float:
    """min over cones and generators of |<w_j, z>|; certifies nondegeneracy."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    best = math.inf
    for cone in cones:
        best = min(best, float(np.min(np.abs(cone.generators @ z))))
    return best
