"""Damped Poisson-summation lattice sums over cones and polytopes.

Every evaluator truncates the lattice to a sup-norm box ||m||_inf <= R(eps);
limits eps -> 0 are always taken explicitly by ``numerics.richardson_limit``.
Transform-space sums

    sum_m sum_cones cone_transform(cone, m + s) * phi_hat(m + s)

are evaluated for every level of the damping schedule in one pass over the
largest box: only the separable factor phi_hat depends on eps, so the summed
cone-rational factor r(m) is formed once and contracted, one axis at a time,
with per-level 1-D phi_hat tables that vanish outside each level's own box.
Direct-space sums accumulate (1_body * phi_eps)(m) * exp(2*pi*i*<s, m>) at one
eps.  The bilinear pairing is used throughout; nothing is conjugated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angles import soft_indicator
from .errors import ConvergenceDomain, PoleHit, UnsupportedDimension
from .geometry import Polytope, SimpleCone, cone_halfplanes_2d, half_spaces
from .numerics import Estimate
from .oracle import lattice_weights
from .transforms import DampedSumConfig, clip_cutoff, phi_hat_1d_grid

POLE_GUARD = 1e-10     # minimum |<w_j, m+s>| over the enumerated box
CHUNK_LIMIT = 300_000  # points per chunk of the box (slabs along the first axis)

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class DampedSumResult:
    """Truncated damped sum, the magnitude collected on the outer shell, and
    the gross magnitude sum (the cancellation scale: rounding noise in
    ``value`` is a small multiple of ``gross`` times machine epsilon)."""

    value: complex
    tail: float
    gross: float = 0.0


@dataclass(frozen=True)
class DampedLevels:
    """Transform-space sums at every level of ``cfg.eps_schedule``, in schedule
    order: truncated values, the magnitude on each level's outer shell, and
    the gross magnitude sums (cancellation scales, as in DampedSumResult)."""

    value: np.ndarray
    tail: np.ndarray
    gross: np.ndarray


@lru_cache(maxsize=16)
def _level_tables(cfg: DampedSumConfig, s_tuple: tuple):
    """Per-axis 1-D tables over the largest box ms, one row per eps level, zero
    outside that level's radius R: phi_hat_1d(m_k + s_k), and magnitude rows
    for the gross sums followed by magnitude rows for the shell tails.  Cached
    because macdonald_sum makes one call per vertex at the same s, and for
    p != 2 the tables come from quadrature."""
    radii = np.array([cfg.radius_for(e) for e in cfg.eps_schedule])[:, None]
    ms = np.arange(-radii.max(), radii.max() + 1)
    inside = np.abs(ms) <= radii
    tables, mag_tables = [], []
    for a, sk in enumerate(s_tuple):
        table = np.zeros(inside.shape, dtype=complex)
        for row, eps, mask in zip(table, cfg.eps_schedule, inside):
            z = ms[mask] + sk
            row[mask] = np.exp(-math.pi * eps * z * z) if cfg.p == 2.0 else phi_hat_1d_grid(cfg, eps, z)
        mag = np.abs(table)
        interior = np.where(np.abs(ms) < radii, mag, 0.0)
        edge = np.where(np.abs(ms) == radii, mag, 0.0)
        # the shell ||m||_inf = R split by the first axis k with |m_k| = R:
        # interior before k, edge at k, the whole box after k
        shell = [interior if a < k else edge if a == k else mag for k in range(len(s_tuple))]
        tables.append(table)
        mag_tables.append(np.vstack([mag] + shell))
    for t in tables + mag_tables:
        t.setflags(write=False)
    return ms, tables, mag_tables


def _contract(x: np.ndarray, tables) -> np.ndarray:
    """sum_m x[m] * prod_k tables[k][l, m_k] for every row l, one axis at a time
    (x has one axis per table)."""
    y = tables[0] @ x.reshape(x.shape[0], -1)
    for t in tables[1:]:
        y = np.matmul(t[:, None, :], y.reshape(t.shape[0], t.shape[1], -1))[:, 0, :]
    return y[:, 0]


def _box_chunks(ms: np.ndarray, d: int):
    """The box ms^d in deterministic slabs along the first axis, each of at
    most CHUNK_LIMIT points (or one row): yields (i0, i1, M) where M lists the
    points with first index in [i0, i1) in lexicographic order."""
    step = max(1, CHUNK_LIMIT // ms.size ** (d - 1))
    for i0 in range(0, ms.size, step):
        i1 = min(i0 + step, ms.size)
        yield i0, i1, np.stack(np.meshgrid(ms[i0:i1], *([ms] * (d - 1)), indexing="ij"),
                               axis=-1).reshape(-1, d)


def damped_transform_levels(terms, s, cfg: DampedSumConfig) -> DampedLevels:
    """Truncated transform-space sum of simple cones at every eps level.

    ``terms`` are the SimpleCones, each entering with weight 1.  One pass over
    the largest box forms r(m) = sum of the cone terms and the sum of their
    magnitudes; each level's value, gross and shell tail follow by
    contracting them with that level's phi_hat tables.  Raises PoleHit when
    some m + s in the largest box comes within 1e-10 of a denominator zero;
    the caller should perturb s or pick another direction.
    """
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    d = s.size
    ms, tables, mag_tables = _level_tables(cfg, tuple(complex(v) for v in s))
    n_levels = len(cfg.eps_schedule)
    pref = (-TWO_PI_I) ** (-d)

    prepared = []
    for cone in terms:
        if cone.dim != d:
            raise ValueError(f"cone dimension {cone.dim} != len(s) = {d}")
        amp = pref * abs(cone.det)
        apex = cone.apex if np.max(np.abs(cone.apex)) > 1e-15 else None
        prepared.append((amp, cone.generators, apex))

    value = np.zeros(n_levels, dtype=complex)
    mags_sum = np.zeros((d + 1) * n_levels)
    for i0, i1, M in _box_chunks(ms, d):
        Z = M.T + s[:, None]  # one row per axis: products along contiguous rows
        r = np.zeros(M.shape[0], dtype=complex)
        r_abs = np.zeros(M.shape[0])
        for amp, W, apex in prepared:
            denoms = W @ Z
            mags = np.abs(denoms)
            if mags.min() <= POLE_GUARD:
                row = int(np.argmin(mags.min(axis=0)))
                j = int(np.argmin(mags[:, row]))
                m_bad = tuple(int(v) for v in M[row])
                raise PoleHit(
                    f"pole at m={m_bad}: |<w_{j}, m+s>| = {mags[j, row]:.3e}",
                    generator_index=j, lattice_point=m_bad,
                )
            contrib = amp / np.prod(denoms, axis=0)
            del denoms, mags
            if apex is not None:
                contrib *= np.exp(TWO_PI_I * (apex @ Z))
            r += contrib
            r_abs += np.abs(contrib)
        del M, Z
        grid = (i1 - i0,) + (ms.size,) * (d - 1)
        value += _contract(r.reshape(grid), [tables[0][:, i0:i1]] + tables[1:])
        mags_sum += _contract(r_abs.reshape(grid), [mag_tables[0][:, i0:i1]] + mag_tables[1:])
    gross = mags_sum[:n_levels]
    tail = mags_sum[n_levels:].reshape(d, n_levels).sum(axis=0)
    return DampedLevels(value, tail, gross)


def _body_halfspaces(body, d: int):
    if isinstance(body, Polytope):
        return half_spaces(body)
    if isinstance(body, SimpleCone):
        if d == 1:
            g = float(body.generators[0, 0])
            sgn = -1.0 if g > 0 else 1.0
            return np.array([[sgn]]), np.array([sgn * float(body.apex[0])])
        if d == 2:
            return cone_halfplanes_2d(body.apex, body.generators[0], body.generators[1])
        raise UnsupportedDimension("direct sums over cones support dim <= 2")
    raise TypeError(f"unsupported body type {type(body).__name__}")


def damped_direct_sum(body, s, cfg: DampedSumConfig, eps: float) -> DampedSumResult:
    """Truncated direct-space sum sum_m (1_body * phi_eps)(m) e^{2 pi i <s,m>}.

    For a cone the series only converges when -Im(s) lies strictly inside the
    polar cone; otherwise ConvergenceDomain is raised.  Polytopes accept any s.
    """
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    d = s.size
    if isinstance(body, SimpleCone):
        pairing = body.generators @ (-s.imag)
        if np.max(pairing) >= 0.0:
            raise ConvergenceDomain("-Im(s) is not interior to the polar cone")
    A, b = _body_halfspaces(body, d)
    cut = clip_cutoff(cfg.p, cfg.c, eps)
    R = cfg.radius_for(eps)

    total = 0j
    tail = 0.0
    gross = 0.0
    for _, _, M in _box_chunks(np.arange(-R, R + 1), d):
        margins = b[None, :] - M @ A.T
        weights = np.full(M.shape[0], np.nan)
        weights[np.min(margins, axis=1) >= cut] = 1.0
        weights[np.max(-margins, axis=1) >= cut] = 0.0
        for i in np.flatnonzero(np.isnan(weights)):
            weights[i] = soft_indicator(body, M[i].astype(float), cfg.p, eps)
        phases = np.exp(TWO_PI_I * (M @ s))
        contrib = weights * phases
        total += contrib.sum()
        gross += float(np.abs(contrib).sum())
        shell = np.max(np.abs(M), axis=1) == R
        tail += float(np.abs(contrib[shell]).sum())
    return DampedSumResult(complex(total), tail, gross)


def alpha_polytope_direct(P: Polytope, s, p: float = 2.0,
                          n_samples: int = 20_000, seed: int = 0) -> Estimate:
    """Solid-angle generating sum of a polytope: finite sum over its lattice
    points of omega_P(m) * exp(2*pi*i*<s, m>), with exact planar weights when
    available (dim <= 2, p in {1, 2}) and Monte Carlo weights otherwise; the
    ground truth for the Brion identity's polytope side."""
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    pts, weights, std_errors = lattice_weights(P, 1.0, p=p, n_samples=n_samples, seed=seed)
    phases = np.exp(TWO_PI_I * (pts @ s))
    total = np.sum(weights * phases)
    var = np.sum((std_errors * np.abs(phases)) ** 2)
    return Estimate(complex(total), math.sqrt(var), "direct")
