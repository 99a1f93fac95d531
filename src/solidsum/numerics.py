"""Shared numeric helpers: extrapolation, cell quadrature, estimates."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.polynomial import legendre

from .errors import NonConvergent, ScheduleTooShort


@dataclass(frozen=True)
class Estimate:
    """Numeric value with an error estimate."""

    value: complex
    error: float


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
        return Estimate(complex(extrap[0]), float(abs(extrap[0] - vals[-1])))
    diffs = np.abs(np.diff(extrap))
    scale = max(float(np.max(np.abs(vals))), 1.0)
    if diffs.size >= 3:
        d3 = diffs[-3:]
        floor = max(1e-14 * scale, noise_floor)
        if np.all(d3 > floor) and d3[1] > d3[0] and d3[2] > d3[1]:
            raise NonConvergent(f"extrapolant differences grow: {d3.tolist()}")
    return Estimate(complex(extrap[-1]), float(diffs[-1]))


@cache
def _gauss_legendre_16() -> tuple:
    """The 16-node rule of every cell, built on first use, not at import (it costs about 1 MB)."""
    return legendre.leggauss(16)


def gauss_legendre_cells(bounds):
    """Composite 16-node Gauss-Legendre nodes and weights over explicit cell bounds."""
    bounds = np.asarray(bounds, dtype=float)
    x0, w0 = _gauss_legendre_16()
    half = 0.5 * (bounds[1:] - bounds[:-1])
    mid = 0.5 * (bounds[1:] + bounds[:-1])
    x = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    w = (half[:, None] * w0[None, :]).ravel()
    return x, w
