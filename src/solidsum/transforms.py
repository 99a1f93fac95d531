"""The damping function, its Fourier-Laplace transform, and cone transforms.

The damping function is the mass-one generalized Gaussian

    phi_eps(t) = eps^(-d/p) * exp(-(c/eps) * ||t||_p^p),   c = (2*Gamma(1/p+1))^p,

so its transform (bilinear kernel exp(2*pi*i*<x, z>), no conjugation anywhere)
satisfies phi_hat(0) = 1.  For p = 2 the transform has the closed form
exp(-pi*eps*sum(z_k^2)); for general p each coordinate factor is computed by
composite Gauss-Legendre quadrature of an entire integrand over a finite
window sized from (p, eps, z).  A simple cone with apex v and generator rows
w_j has transform

    (-2*pi*i)^(-d) * |det| * exp(2*pi*i*<v, z>) / prod_j <w_j, z>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceDomain, PoleHit
from .geometry import SimpleCone
from .numerics import gauss_legendre_cells

POLE_TOL = 1e-14          # per-evaluation pole guard in cone_transform
QUAD_BLOCK = 1 << 21      # entries per block of the 1-D quadrature's phase matrix
MAX_CELLS = 1 << 18       # uniform cells (16 nodes each) one 1-D quadrature may use
DEFAULT_EPS0 = 0.5
DEFAULT_EPS_LEVELS = 10


def default_eps_schedule(eps0: float = DEFAULT_EPS0, levels: int = DEFAULT_EPS_LEVELS) -> tuple:
    return tuple(eps0 * 0.5 ** k for k in range(levels))


def mass_one_constant(p: float) -> float:
    """c = (2*Gamma(1/p+1))^p; equals pi at p = 2."""
    return (2.0 * math.gamma(1.0 / p + 1.0)) ** p


@dataclass(frozen=True)
class DampedSumConfig:
    """Parameters shared by every damped lattice-sum evaluation.

    ``truncation_radius`` of None selects the automatic sup-norm cutoff
    R(eps) = max(30, ceil(6/sqrt(pi*eps))), so that pi eps R^2 >= 36: at
    p = 2 a point on the face of the box weighs at most e^-36 (2.3e-16).
    A fixed radius must be an integer, so that the box lies on the lattice;
    it is stored as an int.
    """

    p: float = 2.0
    eps_schedule: tuple = field(default_factory=default_eps_schedule)
    truncation_radius: int | None = None

    def __post_init__(self):
        if self.p < 1.0:
            raise ValueError(f"p must be >= 1, got {self.p}")
        eps = tuple(float(e) for e in self.eps_schedule)
        if len(eps) < 1 or any(e <= 0 for e in eps):
            raise ValueError("eps_schedule must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps_schedule must be strictly decreasing")
        object.__setattr__(self, "eps_schedule", eps)
        if self.truncation_radius is not None:
            if not float(self.truncation_radius).is_integer():
                raise ValueError(f"truncation_radius must be an integer, got {self.truncation_radius}")
            if self.truncation_radius < 1:
                raise ValueError("truncation_radius must be >= 1")
            object.__setattr__(self, "truncation_radius", int(self.truncation_radius))

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


def _quad_window(p: float, c: float, eps: float, im_max: float, L_max: float) -> float:
    """Half-width L where the 1-D integrand has dropped by e^-45:
    (c/eps) L^p - 2 pi im_max L = 45.  The fixed-point map increases from
    the real-axis cutoff, so the iterates rise to the root; stop when they
    no longer do, or once they pass L_max."""
    L = clip_cutoff(p, c, eps)
    while L <= L_max and (nxt := (eps * (45.0 + 2.0 * math.pi * im_max * L) / c) ** (1.0 / p)) > L:
        L = nxt
    return L


def phi_hat_1d_grid(cfg: DampedSumConfig, eps: float, z_values: np.ndarray) -> np.ndarray:
    """1-D transforms of the damping factor at an array of complex arguments,
    by composite Gauss-Legendre quadrature on [-L, L].

    The window L comes from ``_quad_window``, and the uniform cells give at
    least 6 of their 16 nodes per oscillation of exp(2 pi i Re(z) x), with
    never fewer than 250 cells.  For p = 1 the integrand decays only like
    exp(-(c/eps - 2 pi |Im z|) |x|), so the transform exists only for
    2 pi eps |Im z| < c, and L grows like 1/(1 - r) at the fraction r of
    that strip.  ConvergenceDomain is raised outside the strip, and where
    the quadrature would need more than MAX_CELLS cells.
    """
    z = np.atleast_1d(np.asarray(z_values, dtype=complex))
    im_max = float(np.max(np.abs(z.imag)))
    c = cfg.c
    if cfg.p == 1.0 and 2.0 * math.pi * eps * im_max >= c:
        raise ConvergenceDomain(f"z lies outside the p = 1 strip |Im z| < {1 / (math.pi * eps):.6g}")
    # per unit of L: 2 max|Re z| oscillations, 6 nodes each, 16 nodes a cell
    cells_per_L = 0.75 * max(float(np.max(np.abs(z.real))), 1.0)
    L = _quad_window(cfg.p, c, eps, im_max, MAX_CELLS / cells_per_L)
    n_uniform = 2 * max(125, math.ceil(cells_per_L * L / 2))  # even: a cell boundary at 0
    if n_uniform > MAX_CELLS:
        raise ConvergenceDomain(f"the quadrature needs more than {MAX_CELLS} cells (window {L:.4g})")
    bounds = np.linspace(-L, L, n_uniform + 1)
    # |x|^p in the exponent has a kink at 0: refine the two central cells
    # geometrically so non-even p keeps full quadrature accuracy
    h = bounds[1] - bounds[0]
    graded = h * 0.5 ** np.arange(1, 46)
    bounds = np.unique(np.concatenate([bounds, -graded, graded, [0.0]]))
    u, w = gauss_legendre_cells(bounds)
    # the density goes into the exponent: as a separate factor it underflows
    # where exp(2 pi |Im z| |x|) overflows, near the p = 1 strip edge
    k = (c / eps) * np.abs(u) ** cfg.p
    a = w * eps ** (-1.0 / cfg.p)
    # column blocks bound the memory of a wide window; it then costs only time
    step = max(1, QUAD_BLOCK // z.size)
    return sum(np.exp(2j * np.pi * np.outer(z, u[i:i + step]) - k[i:i + step]) @ a[i:i + step]
               for i in range(0, u.size, step))


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
