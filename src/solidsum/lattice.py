"""Damped Poisson-summation lattice sums over cones and polytopes.

Every evaluator truncates the lattice to a sup-norm box ||m||_inf <= R(eps);
limits eps -> 0 are always taken explicitly by ``numerics.richardson_limit``.
Transform-space sums

    sum_m sum_cones cone_transform(cone, m + s) * phi_hat(m + s)

are evaluated for every level of the damping schedule in one pass over the
largest box: only the separable factor phi_hat depends on eps, so the summed
cone-rational factor r(m) is formed once and contracted, one axis at a time,
with per-level 1-D phi_hat tables that vanish outside each level's own box.
Given a direction x to approach the pole points along, the same pass returns
the value at s of a cone sum that is entire there, as the sum over all vertex
cones of a polytope is (Brion): the exact s -> 0 limit of
``macdonald_volume``.  Direct-space sums accumulate
(1_body * phi_eps)(m) * exp(2*pi*i*<s, m>) at one eps.  The bilinear pairing
is used throughout; nothing is conjugated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angles import soft_indicator
from .errors import ConvergenceDomain, PoleHit
from .geometry import Polytope, SimpleCone, body_half_spaces
from .numerics import Estimate
from .oracle import lattice_weights
from .transforms import DampedSumConfig, clip_cutoff, phi_hat_1d_grid, pole_distance

POLE_GUARD = 1e-10     # minimum |<w_j, m+s>| over the enumerated box
CHUNK_LIMIT = 20_000   # points per chunk of the box (slabs along the first axis)

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
    """Per-axis 1-D tables over the largest box ms, indexed [level, m_k] and
    zero outside each level's radius R: phi_hat_1d(m_k + s_k), and magnitude
    rows for the gross sums followed by rows for the shell tails.  Cached
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
        mag_tables.append(np.concatenate([mag] + shell))
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


def _pole_terms(C, a, zero, b, c, order: int):
    """Rows r_n, n = 0..order, at each pole point (column): the sigma^(|Z|-n)
    Taylor coefficient (0 for n > |Z|) of C e^{2 pi i sigma c}
    prod_{j not in Z} 1/(a_j + sigma b_j) prod_{j in Z} 1/b_j, Z = {j: zero[j]};
    and the same rows of its majorant, the product of coefficient magnitudes."""
    k = np.arange(order + 1)[:, None]
    fact = np.array([math.factorial(n) for n in range(order + 1)])[:, None]
    factors = [C * (TWO_PI_I * c) ** k / fact]
    for aj, zj, bj in zip(a, zero, b):
        aj = np.where(zj, 1.0, aj)
        factors.append(np.where(zj, (k == 0) / bj, (-bj / aj) ** k / aj))
    shift = zero.sum(axis=0) - k
    rows = []
    for series in (factors, [np.abs(f) for f in factors]):
        prod = series[0]
        for f in series[1:]:  # truncated product of power series
            prod = np.array([sum(prod[i] * f[n - i] for i in range(n + 1)) for n in range(order + 1)])
        rows.append(np.where(shift >= 0, np.take_along_axis(prod, np.maximum(shift, 0), 0), 0.0))
    return rows


def damped_transform_levels(terms, s, cfg: DampedSumConfig, direction=None) -> DampedLevels:
    """Truncated transform-space sum of simple cones at every eps level.

    ``terms`` are the SimpleCones, each entering with weight 1.  One pass over
    the largest box forms r(m) = sum of the cone terms and the sum of their
    magnitudes; each level's value, gross and shell tail follow by
    contracting them with that level's phi_hat tables.  Raises PoleHit when
    some m + s in the largest box comes within POLE_GUARD of a denominator
    zero, unless a direction x is given: the value at s is then taken where
    the sum of the terms is entire.  A term with a_j = <w_j, m+s> = 0 for j in
    Z has a pole of order |Z| <= d along s + sigma * x; its Laurent
    coefficients r_n(m), the coefficient of sigma^-n, are formed per cone, r_0
    enters the sum, and PoleHit is raised where the summed r_n, n >= 1, do not
    cancel (a cone list whose sum is not entire there), or for a direction
    with some |<w_j, x>| <= POLE_GUARD."""
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    d = s.size
    x = None if direction is None else tuple(float(v) for v in direction)
    if x is not None and len(x) != d:
        raise ValueError(f"direction has {len(x)} components, the sum has dimension {d}")
    if x is not None and pole_distance(terms, x) <= POLE_GUARD:
        raise PoleHit(f"direction {x} is not generic: some |<w_j, x>| <= {POLE_GUARD}")
    ms, tables, mag_tables = _level_tables(cfg, tuple(complex(v) for v in s))
    n_levels = len(cfg.eps_schedule)
    pref = (-TWO_PI_I) ** (-d)

    prepared = []
    for cone in terms:
        if cone.dim != d:
            raise ValueError(f"cone dimension {cone.dim} != len(s) = {d}")
        amp = pref * abs(cone.det)
        apex = cone.apex if np.max(np.abs(cone.apex)) > 1e-15 else None
        b = None if x is None else cone.generators @ x
        c = 0.0 if apex is None or x is None else float(apex @ x)
        prepared.append((amp, cone.generators, apex, b, c))

    value = np.zeros(n_levels, dtype=complex)
    mags_sum = np.zeros((d + 1) * n_levels)
    for i0, i1, M in _box_chunks(ms, d):
        Z = M.T + s[:, None]  # one row per axis: products along contiguous rows
        r = np.zeros(M.shape[0], dtype=complex)
        r_abs = np.zeros(M.shape[0])
        neg = neg_abs = None  # summed rows r_n, n >= 1, and their majorants
        for amp, W, apex, b, c in prepared:
            denoms = W @ Z
            mags = np.abs(denoms)
            zero = mags <= POLE_GUARD
            poles = np.flatnonzero(zero.any(axis=0))
            if poles.size and x is None:
                row = int(np.argmin(mags.min(axis=0)))
                j = int(np.argmin(mags[:, row]))
                m_bad = tuple(int(v) for v in M[row])
                raise PoleHit(
                    f"pole at m={m_bad}: |<w_{j}, m+s>| = {mags[j, row]:.3e}",
                    generator_index=j, lattice_point=m_bad,
                )
            a, zero = denoms[:, poles], zero[:, poles]
            denoms[:, poles] = 1.0
            contrib = amp / np.prod(denoms, axis=0)
            del denoms, mags
            if apex is not None:
                contrib *= np.exp(TWO_PI_I * (apex @ Z))
            if poles.size:
                series, majorant = _pole_terms(contrib[poles], a, zero, b, c, d)
                contrib[poles] = 0.0
                r[poles] += series[0]
                r_abs[poles] += majorant[0]
                if neg is None:
                    neg, neg_abs = np.zeros((d, M.shape[0]), dtype=complex), np.zeros((d, M.shape[0]))
                neg[:, poles] += series[1:]
                neg_abs[:, poles] += majorant[1:]
            r += contrib
            r_abs += np.abs(contrib)
        if neg is not None:
            # summed over all vertex cones of a polytope these rows are
            # rounding: at most 1.7e-16 of their majorant on exact fixtures,
            # and about 7e-14 * t where float vertices tilt an edge by an ulp
            # (3.6e-12 at t = 25).  A missing cone leaves 0.29 or more.
            cols = np.flatnonzero(neg_abs.any(axis=0))
            bad = np.any(np.abs(neg[:, cols]) > 1e-6 * neg_abs[:, cols], axis=0)
            if bad.any():
                m_bad = tuple(int(v) for v in M[cols[np.argmax(bad)]])
                raise PoleHit(f"poles do not cancel across the cones at m={m_bad}", lattice_point=m_bad)
        del M, Z
        grid = (i1 - i0,) + (ms.size,) * (d - 1)
        value += _contract(r.reshape(grid), [tables[0][:, i0:i1]] + tables[1:])
        mags_sum += _contract(r_abs.reshape(grid), [mag_tables[0][:, i0:i1]] + mag_tables[1:])
    gross = mags_sum[:n_levels]
    tail = mags_sum[n_levels:].reshape(d, n_levels).sum(axis=0)
    return DampedLevels(value, tail, gross)


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
    A, b = body_half_spaces(body)
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
