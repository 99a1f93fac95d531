"""Shared numeric helpers: extrapolation, panel quadrature, estimates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from .errors import NonConvergent, ScheduleTooShort


@dataclass(frozen=True)
class Estimate:
    """Numeric value with an error estimate and the method that produced it."""

    value: complex
    error: float
    method: str

    @property
    def real(self) -> float:
        return float(np.real(self.value))


def richardson_extrapolants(eps_values, values) -> np.ndarray:
    """One Richardson level over consecutive schedule points (O(eps) model)."""
    eps = np.asarray(eps_values, dtype=float)
    vals = np.asarray(values)
    if eps.size < 2:
        raise ScheduleTooShort("need at least 2 schedule points to extrapolate")
    return (eps[:-1] * vals[1:] - eps[1:] * vals[:-1]) / (eps[:-1] - eps[1:])


def richardson_limit(eps_values, values, noise_floor: float = 0.0):
    """Limit of values(eps) as eps -> 0, assuming a leading O(eps) error term.

    The returned value is the last extrapolant and the error estimate is the
    difference of the last two extrapolants (exact for affine input).  Raises
    NonConvergent when the extrapolant differences grow over the last three
    steps while staying above ``noise_floor`` (the caller's rounding scale).
    """
    vals = np.asarray(values)
    extrap = richardson_extrapolants(eps_values, vals)
    if extrap.size == 1:
        return Estimate(complex(extrap[0]), float(abs(extrap[0] - vals[-1])), "richardson")
    diffs = np.abs(np.diff(extrap))
    scale = max(float(np.max(np.abs(vals))), 1.0)
    if diffs.size >= 3:
        d3 = diffs[-3:]
        floor = max(1e-14 * scale, noise_floor)
        if np.all(d3 > floor) and d3[1] > d3[0] and d3[2] > d3[1]:
            raise NonConvergent(f"extrapolant differences grow: {d3.tolist()}")
    return Estimate(complex(extrap[-1]), float(diffs[-1]), "richardson")


def gauss_legendre_cells(bounds, nodes_per_panel: int = 16):
    """Composite Gauss-Legendre nodes and weights over explicit cell bounds."""
    bounds = np.asarray(bounds, dtype=float)
    x0, w0 = legendre.leggauss(nodes_per_panel)
    half = 0.5 * (bounds[1:] - bounds[:-1])
    mid = 0.5 * (bounds[1:] + bounds[:-1])
    x = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    w = (half[:, None] * w0[None, :]).ravel()
    return x, w


def gauss_legendre_panels(a: float, b: float, n_panels: int, nodes_per_panel: int = 16):
    """Composite Gauss-Legendre nodes and weights on [a, b], uniform panels."""
    return gauss_legendre_cells(np.linspace(a, b, n_panels + 1), nodes_per_panel)
