"""Damped Poisson-summation lattice sums over cones and polytopes.

Every evaluator truncates the lattice to a sup-norm box ||m||_inf <= R(eps);
limits eps -> 0 are always taken explicitly by ``numerics.richardson_limit``.
Transform-space sums

    sum_m sum_cones cone_transform(cone, m + s) * phi_hat(m + s)

are evaluated for every level of the damping schedule at once: only the
separable factor phi_hat depends on eps, and its per-level 1-D tables vanish
outside each level's own box.  A coordinate cone, whose generators lie along
distinct coordinate axes, has a term that is a product of one factor per
axis; when no denominator comes within POLE_GUARD of zero in the largest
box, its sums are products of 1-D contractions with those tables, at O(d n)
cost for a box of n^d points.  The other cones are summed by one pass over
the largest box: the summed cone-rational factor r(m) is formed once and
contracted, one axis at a time, with the same tables.  The pass walks the
box in slabs along the first axis and never lists its points: each cone's
denominators <w_j, m+s> and phase exp(2*pi*i*<apex, m+s>) are broadcast over
a slab from per-axis tables, in real arithmetic when s is real.  Given a
direction x to approach the pole points along, the same pass returns the
value at s of a cone sum that is entire there, as the sum over all vertex
cones of a polytope is (Brion): the exact s -> 0 limit of
``macdonald_volume``.  The Laurent coefficients at the pole points of all
cones in a slab come from one closed-form power-series call.  Direct-space
sums accumulate (1_body * phi_eps)(m) * exp(2*pi*i*<s, m>) at one eps.  The
bilinear pairing is used throughout; nothing is conjugated.
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


def _slabs(n: int, d: int):
    """The box of n^d points in deterministic slabs along the first axis, each
    of at most CHUNK_LIMIT points (or one row): yields the first-axis index
    ranges (i0, i1)."""
    step = max(1, CHUNK_LIMIT // n ** (d - 1))
    for i0 in range(0, n, step):
        yield i0, min(i0 + step, n)


def _outer(vectors, ufunc):
    """ufunc-combination of per-axis vectors over their grid: the result's
    [..., i_0, ..., i_{d-1}] is ufunc(vectors[0][..., i_0], ..., vectors[d-1][..., i_{d-1}]),
    with any leading axes shared.  Built from the last axis back, so only the
    first axis's step touches the whole grid."""
    out = vectors[-1]
    for v in vectors[-2::-1]:
        out = ufunc(v.reshape(v.shape + (1,) * (out.ndim - v.ndim + 1)), np.expand_dims(out, v.ndim - 1))
    return out


def _pole_terms(C, a, zero, b, c, order: int):
    """Rows r_n, n = 0..order, at each pole point (a column of a, zero and b,
    which have one row per generator j; an entry of C and c): the
    sigma^(|Z|-n) Taylor coefficient (0 for n > |Z|) of

        g(sigma) = C e^{2 pi i sigma c} prod_{j not in Z} 1/(a_j + sigma b_j) prod_{j in Z} 1/b_j,

    Z = {j: zero[j]}; and the same rows of its majorant, the series with every
    factor's coefficients replaced by their magnitudes.  The coefficients
    L_k of log g are 2 pi i c [k = 1] + sum_{j not in Z} (-b_j/a_j)^k / k, and
    g' = g (log g)' gives g_n = (1/n) sum_{k=1}^n k L_k g_{n-k}; the majorant
    is the same recursion on 2 pi |c| and |b_j/a_j|."""
    ratio = np.where(zero, 0.0, -b / np.where(zero, 1.0, a))  # -b_j/a_j, 0 for j in Z
    g0 = C / np.prod(np.where(zero, b, a), axis=0)
    kl, kl_abs = [], []  # rows k L_k, k = 1..order, and their majorants
    power = np.ones_like(ratio)
    for _ in range(order):
        power = power * ratio
        kl.append(power.sum(axis=0))
        kl_abs.append(np.abs(power).sum(axis=0))
    kl[0] = kl[0] + TWO_PI_I * c
    kl_abs[0] = kl_abs[0] + 2.0 * math.pi * np.abs(c)
    shift = zero.sum(axis=0) - np.arange(order + 1)[:, None]
    flat = np.maximum(shift, 0) * shift.shape[1] + np.arange(shift.shape[1])  # g_{|Z|-n} in g.ravel()
    rows = []
    for first, lk in ((g0, kl), (np.abs(g0), kl_abs)):
        g = [first]
        for n in range(1, order + 1):
            g.append(sum(lk[k - 1] * g[n - k] for k in range(1, n + 1)) / n)
        rows.append(np.where(shift >= 0, np.array(g).ravel().take(flat), 0.0))
    return rows


def _axis_scales(W: np.ndarray):
    """The per-axis scales of a coordinate cone, one whose generator matrix W
    has exactly one nonzero per row and per column: entry k is the nonzero
    W[j, k] of column k, so <w_j, z> = W[j, k] z_k.  None for any other cone."""
    nonzero = W != 0.0
    if (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all():
        return W.sum(axis=0)
    return None


def damped_transform_levels(terms, s, cfg: DampedSumConfig, direction=None) -> DampedLevels:
    """Truncated transform-space sum of simple cones at every eps level.

    ``terms`` are the SimpleCones, each entering with weight 1.  Each level's
    value is sum_m r(m) prod_k phi_hat(m_k + s_k), with r(m) the sum of the
    cone terms, and its gross and shell tail are the same contraction of the
    summed term magnitudes with magnitude tables.

    A coordinate cone (see ``_axis_scales``) whose per-axis denominators
    w_k (m_k + s_k) clear POLE_GUARD over the largest box has a term that is
    a product of one factor per axis, phase_k / (w_k (m_k + s_k)); its sums
    are products of d one-dimensional contractions, and its magnitude
    factors are |1 / (w_k (m_k + s_k))| times the constant phase modulus.

    Every other cone is summed by one pass over the largest box, which forms
    r(m) and the sum of the magnitudes and contracts them with every level's
    tables.  The box is walked in slabs along the first axis; per cone, the
    denominators <w_j, m+s> and the phase exp(2 pi i <apex, m+s>) are
    broadcast over the slab from per-axis tables of m_k + s_k and
    exp(2 pi i apex_k (m_k + s_k)), in real arithmetic when s is real (the
    phase then has modulus 1).  The box pass is skipped when no such cone
    remains.  Raises PoleHit when some m + s in the largest box comes within
    POLE_GUARD of a denominator zero, unless a direction x is given: the
    value at s is then taken where the sum of the terms is entire.  A term
    with a_j = <w_j, m+s> = 0 for j in Z has a pole of order |Z| <= d along
    s + sigma * x; its Laurent coefficients r_n(m), the coefficient of
    sigma^-n, come from one closed-form series call per slab for the pole
    points of all cones, r_0 enters the sum, and PoleHit is raised where the
    summed r_n, n >= 1, do not cancel (a cone list whose sum is not entire
    there), or for a direction with some |<w_j, x>| <= POLE_GUARD."""
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    if not np.isfinite(s).all():
        raise ValueError("s must be finite")
    d = s.size
    x = None if direction is None else tuple(float(v) for v in direction)
    if x is not None and len(x) != d:
        raise ValueError(f"direction has {len(x)} components, the sum has dimension {d}")
    if x is not None and pole_distance(terms, x) <= POLE_GUARD:
        raise PoleHit(f"direction {x} is not generic: some |<w_j, x>| <= {POLE_GUARD}")
    ms, tables, mag_tables = _level_tables(cfg, tuple(complex(v) for v in s))
    n_levels = len(cfg.eps_schedule)
    axes = ms + (s if s.imag.any() else s.real)[:, None]  # row k: m_k + s_k, real at real s

    prepared, factors = [], []
    for cone in terms:
        if cone.dim != d:
            raise ValueError(f"cone dimension {cone.dim} != len(s) = {d}")
        det = abs(cone.det)
        if np.max(np.abs(cone.apex)) > 1e-15:
            phase = np.exp(TWO_PI_I * cone.apex[:, None] * axes)  # row k: exp(2 pi i apex_k (m_k + s_k))
            modulus = math.exp(-2.0 * math.pi * float(cone.apex @ s.imag))  # |phase|, constant
        else:
            phase, modulus = None, 1.0
        scales = _axis_scales(cone.generators)
        if scales is not None:
            denoms = scales[:, None] * axes  # row k: w_k (m_k + s_k), as the box pass forms them
            if np.abs(denoms).min() > POLE_GUARD:
                inv = 1.0 / denoms
                factors.append((det, modulus, inv if phase is None else phase * inv, np.abs(inv)))
                continue
        b = None if x is None else cone.generators @ x
        c = 0.0 if phase is None or x is None else float(cone.apex @ x)
        prepared.append((det, modulus, cone.generators, phase, b, c))

    value = np.zeros(n_levels, dtype=complex)
    mags_sum = np.zeros((d + 1) * n_levels)
    if factors:
        dets, moduli, g, h = (np.array(v) for v in zip(*factors))  # g, h: [cone, k, m_k]
        prod_value = np.ones((n_levels, dets.size), dtype=complex)
        prod_mags = np.ones((mags_sum.size, dets.size))
        for k in range(d):
            prod_value *= tables[k] @ g[:, k].T
            prod_mags *= mag_tables[k] @ h[:, k].T
        value += prod_value @ dets
        mags_sum += prod_mags @ (moduli * dets)
    if prepared:
        box_value, box_mags = _box_pass(prepared, ms, axes, tables, mag_tables, x is None)
        value += box_value
        mags_sum += box_mags
    pref = (-TWO_PI_I) ** (-d)
    value *= pref
    mags_sum *= abs(pref)
    gross = mags_sum[:n_levels]
    tail = mags_sum[n_levels:].reshape(d, n_levels).sum(axis=0)
    return DampedLevels(value, tail, gross)


def _box_pass(prepared, ms, axes, tables, mag_tables, raise_at_poles: bool):
    """Sum of the prepared cone terms over the largest box ms^d, slab by slab,
    contracted with every level's tables: the values and the magnitude rows,
    both before the prefactor (-2 pi i)^-d."""
    d = axes.shape[0]
    value = np.zeros(tables[0].shape[0], dtype=complex)
    mags_sum = np.zeros(mag_tables[0].shape[0])
    for i0, i1 in _slabs(ms.size, d):
        grid = (i1 - i0,) + (ms.size,) * (d - 1)
        slab_axes = [axes[0, i0:i1]] + list(axes[1:])
        r = np.zeros(math.prod(grid), dtype=complex)
        r_abs = np.zeros(r.size)
        pole_cols = []  # per cone: (points, a, C, b, c) at its pole points
        for det, modulus, W, phase, b, c in prepared:
            denoms = _outer([w[:, None] * v for w, v in zip(W.T, slab_axes)], np.add).reshape(d, -1)
            mags = np.abs(denoms)
            nearest = mags.min(axis=0)
            poles = np.flatnonzero(nearest <= POLE_GUARD)
            if poles.size and raise_at_poles:
                row = int(np.argmin(nearest))
                j = int(np.argmin(mags[:, row]))
                m_bad = _lattice_point(ms, grid, i0, row)
                raise PoleHit(
                    f"pole at m={m_bad}: |<w_{j}, m+s>| = {mags[j, row]:.3e}",
                    generator_index=j, lattice_point=m_bad,
                )
            del mags, nearest
            prod = np.prod(denoms, axis=0)
            prod[poles] = 1.0
            inv = det / prod
            inv[poles] = 0.0
            r_abs += modulus * np.abs(inv)
            if phase is None:
                r += inv
                C = np.full(poles.size, det, dtype=complex)
            else:
                ph = _outer([phase[0, i0:i1]] + list(phase[1:]), np.multiply).reshape(-1)
                r += inv * ph
                C = det * ph[poles]
            if poles.size:
                pole_cols.append((poles, denoms[:, poles], C,
                                  np.broadcast_to(b[:, None], (d, poles.size)), np.full(poles.size, c)))
        if pole_cols:
            points, a, C, b, c = (np.concatenate(v, axis=-1) for v in zip(*pole_cols))
            series, majorant = _pole_terms(C, a, np.abs(a) <= POLE_GUARD, b, c, d)
            # rows r_n summed per pole point over the cones: r_0 enters the
            # sum; summed over all vertex cones of a polytope the rows n >= 1
            # are rounding, at most 1.7e-16 of their majorant on exact
            # fixtures and about 7e-14 * t where float vertices tilt an edge
            # by an ulp (3.6e-12 at t = 25).  A missing cone leaves 0.29 or more.
            points, where = np.unique(points, return_inverse=True)
            flat = (where + points.size * np.arange(d + 1)[:, None]).ravel()
            rows = np.zeros((d + 1, points.size), dtype=complex)
            rows_abs = np.zeros((d + 1, points.size))
            np.add.at(rows.reshape(-1), flat, series.reshape(-1))
            np.add.at(rows_abs.reshape(-1), flat, majorant.reshape(-1))
            r[points] += rows[0]
            r_abs[points] += rows_abs[0]
            bad = np.any(np.abs(rows[1:]) > 1e-6 * rows_abs[1:], axis=0)
            if bad.any():
                m_bad = _lattice_point(ms, grid, i0, points[np.argmax(bad)])
                raise PoleHit(f"poles do not cancel across the cones at m={m_bad}", lattice_point=m_bad)
        value += _contract(r.reshape(grid), [tables[0][:, i0:i1]] + tables[1:])
        mags_sum += _contract(r_abs.reshape(grid), [mag_tables[0][:, i0:i1]] + mag_tables[1:])
    return value, mags_sum


def _lattice_point(ms: np.ndarray, grid: tuple, i0: int, flat: int) -> tuple:
    """The lattice point m at a flat index into the slab of the box ms^d that
    starts at first-axis index i0 and has shape grid."""
    idx = np.unravel_index(flat, grid)
    return (int(ms[i0 + idx[0]]),) + tuple(int(ms[i]) for i in idx[1:])


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
    ms = np.arange(-R, R + 1)
    for i0, i1 in _slabs(ms.size, d):
        M = np.stack(np.meshgrid(ms[i0:i1], *([ms] * (d - 1)), indexing="ij"), axis=-1).reshape(-1, d)
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
    points of omega_P(m) * exp(2*pi*i*<s, m>), with the weights of
    ``lattice_weights``: exact planar weights for p in {1, 2}, exact wedge
    weights at points with two tight facets for p = 2 in dim >= 3, and Monte
    Carlo weights otherwise.  Its error is the Monte Carlo error of the
    sampled weights only.  The ground truth for the Brion identity's
    polytope side."""
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    if not np.isfinite(s).all():
        raise ValueError("s must be finite")
    pts, weights, std_errors = lattice_weights(P, 1.0, p=p, n_samples=n_samples, seed=seed)
    phases = np.exp(TWO_PI_I * (pts @ s))
    total = np.sum(weights * phases)
    var = np.sum((std_errors * np.abs(phases)) ** 2)
    return Estimate(complex(total), math.sqrt(var))
