"""Damped Poisson-summation lattice sums over cones and polytopes.

Every evaluator truncates the lattice to a sup-norm box ||m||_inf <= R(eps),
and a p = 2 volume further to a ball and the boxes' shells (below); limits
eps -> 0 are always taken explicitly by ``numerics.richardson_limit``.
Transform-space sums

    sum_m sum_cones cone_transform(cone, m + s) * phi_hat(m + s)

are evaluated for every level of the damping schedule at once: only the
separable factor phi_hat depends on eps, and its per-level 1-D tables vanish
outside each level's own box.  A coordinate cone, whose generators lie along
distinct coordinate axes, has a term that is a product of one factor per
axis; when no denominator comes within POLE_GUARD of zero in the largest
box, its sums are products of 1-D contractions with those tables, at O(d n)
cost for a box of n^d points.  Given a direction (below), the products also
sum such a cone over its points off its pole hyperplanes w_k (m_k + s_k) = 0
(every cone of a volume has them: m_k = 0 at s = 0), and the box pass forms
its terms only at its points on them.  The other cones are summed by one
pass over the largest box: the summed cone-rational factor r(m) is formed
once and contracted, one axis at a time, with the same tables.  The pass
walks the box in slabs along the first axis and never lists its points: each
cone's denominators <w_j, m+s> and phase exp(2*pi*i*<apex, m+s>) are
broadcast over a slab from per-axis tables, in real arithmetic when s is
real.  At complex s a cone none of whose generators is orthogonal to Im s
has no pole in the box, since |<w_j, m+s>| >= |<w_j, Im s>|: its terms are
formed without a pole search.  Given a direction x to approach the pole
points along, the same pass returns the value at s of a cone sum that is
entire there, as the sum over all vertex cones of a polytope is (Brion): the
exact s -> 0 limit of ``macdonald_volume``.  The Laurent coefficients at the
pole points of all cones in a slab come from closed-form power-series calls
of at most POLE_CHUNK points each.  Every slab-sized step of the pass, the
series included, writes with out= into one work area per thread, made on
first use and kept between calls, so a repeated call allocates no
slab-sized array and faults no memory back in.  At s = 0 the
tables are real and even and every term at -m is (-1)^d times the conjugate
of its value at m, so a volume forms its terms on the half box m_1 >= 0 only
and pairs each slab with its mirror.  At p = 2 the tables multiply to the
radial Gaussian exp(-pi eps |m|^2), so a volume forms its terms only at the
points of that half box where pi eps_min |m|^2 <= 36, or on some level's
outer shell; every other point weighs less than e^-36 at every level.
Direct-space sums accumulate (1_body * phi_eps)(m) * exp(2*pi*i*<s, m>) at
one eps.  The bilinear pairing is used throughout; nothing is conjugated.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angles import soft_indicator
from .errors import ConvergenceDomain, DimensionMismatch, PoleHit
from .geometry import Polytope, SimpleCone, body_half_spaces
from .numerics import Estimate
from .oracle import lattice_weights
from .transforms import DampedSumConfig, clip_cutoff, phi_hat_1d_grid, pole_distance

POLE_GUARD = 1e-10     # minimum |<w_j, m+s>| over the enumerated box
CHUNK_LIMIT = 20_000   # points per chunk of the box (slabs along the first axis)
GATHER_LIMIT = 0.75    # largest share of a slab whose kept points are gathered
POLE_CHUNK = 2048      # pole columns per Laurent series call

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


def _contract(x: np.ndarray, tables, out=None) -> np.ndarray:
    """sum_m x[m] * prod_k tables[k][l, m_k] for every row l, one axis at a time
    (x has one axis per table).  The first step, the only one as large as x,
    writes into out when it is given."""
    y = np.matmul(tables[0], x.reshape(x.shape[0], -1), out=out)
    for t in tables[1:]:
        y = np.matmul(t[:, None, :], y.reshape(t.shape[0], t.shape[1], -1))[:, 0, :]
    return y[:, 0]


def _slabs(n: int, d: int, start: int = 0):
    """The box of n^d points from first-axis index start on, in deterministic
    slabs along the first axis, each of at most CHUNK_LIMIT points (or one
    row): yields the first-axis index ranges (i0, i1)."""
    step = max(1, CHUNK_LIMIT // n ** (d - 1))
    for i0 in range(start, n, step):
        yield i0, min(i0 + step, n)


def _outer(vectors, ufunc, out=None, spare=None):
    """ufunc-combination of per-axis vectors over their grid: the result's
    [..., i_0, ..., i_{d-1}] is ufunc(vectors[0][..., i_0], ..., vectors[d-1][..., i_{d-1}]),
    with any leading axes shared.  Built from the last axis back, so only the
    first axis's step touches the whole grid; that step writes into out and
    the one before it into spare, when they are given.

    numpy buffers a broadcast whose innermost run is shorter than a third of
    its ufunc buffer (8192 elements by default), and allocates a whole buffer
    per operand to do so: a 2-D slab, with runs of 219, took 2.7 to 3.2 times
    as long that way (numpy 2.4, 2-core VM).  A 16-element buffer leaves
    every run of 6 or more unbuffered."""
    if out is not None and len(vectors) == 1:
        np.copyto(out, vectors[0])
        return out
    bufsize = np.setbufsize(16)
    try:
        result = vectors[-1]
        for k in range(len(vectors) - 2, -1, -1):
            v = vectors[k]
            result = ufunc(v.reshape(v.shape + (1,) * (result.ndim - v.ndim + 1)),
                           np.expand_dims(result, v.ndim - 1), out=out if k == 0 else spare if k == 1 else None)
    finally:
        np.setbufsize(bufsize)
    return result


class _WorkArea:
    """Named arrays that the box pass writes its slab-sized steps into with
    out=.  Each is a view of a byte buffer that grows to the largest request
    and is then reused, so a pass that reuses an area allocates, and faults
    in, no slab-sized memory."""

    def __init__(self):
        self._buffers = {}

    def array(self, name: str, shape: tuple, dtype=float, keep: int = 0) -> np.ndarray:
        """The array name of the given shape and dtype, uninitialised except
        that its first keep rows (along the first axis) are carried over
        from the last request when the buffer grows."""
        try:
            return np.ndarray(shape, dtype, self._buffers[name])
        except (KeyError, TypeError):  # no buffer yet, or too small
            pass
        dtype = np.dtype(dtype)
        grown = np.empty(math.prod(shape) * dtype.itemsize, dtype=np.uint8)
        kept = keep * math.prod(shape[1:]) * dtype.itemsize
        if kept:
            grown[:kept] = self._buffers[name][:kept]
        self._buffers[name] = grown
        return np.ndarray(shape, dtype, grown)


_thread = threading.local()  # .work: this thread's _WorkArea, made on first use


def _work_area(points: int) -> _WorkArea:
    """The work area of a pass whose largest slab has the given number of
    points: the thread's own, kept between calls, when the slab fits in
    CHUNK_LIMIT points; else a new one that the call drops, so what a
    thread keeps is sized by slabs of at most CHUNK_LIMIT points."""
    if points > CHUNK_LIMIT:
        return _WorkArea()
    work = getattr(_thread, "work", None)
    if work is None:
        work = _thread.work = _WorkArea()
    return work


def _pole_terms(C, a, zero, b, c, order: int, work: _WorkArea | None = None):
    """Rows r_n, n = 0..order, at each pole point (a column of a, zero and b,
    which have one row per generator j; an entry of C and c): the
    sigma^(|Z|-n) Taylor coefficient (0 for n > |Z|) of

        g(sigma) = C e^{2 pi i sigma c} prod_{j not in Z} 1/(a_j + sigma b_j) prod_{j in Z} 1/b_j,

    Z = {j: zero[j]}; and the same rows of its majorant, the series with every
    factor's coefficients replaced by their magnitudes.  The coefficients
    L_k of log g are 2 pi i c [k = 1] + sum_{j not in Z} (-b_j/a_j)^k / k, and
    g' = g (log g)' gives g_n = (1/n) sum_{k=1}^n k L_k g_{n-k}; the majorant
    is the same recursion on 2 pi |c| and |b_j/a_j|.  Every step writes with
    out= into work (a new area when none is given), and the rows returned
    are views of it."""
    work = work or _WorkArea()
    d, n = a.shape
    dtype = np.result_type(a, b)
    ratio = work.array("ratio", (d, n), dtype)  # -b_j/a_j, 0 for j in Z
    power = work.array("power", (d, n), dtype)
    np.copyto(ratio, a)
    np.copyto(ratio, 1.0, where=zero)
    np.divide(np.negative(b, out=power), ratio, out=ratio)
    np.copyto(ratio, 0.0, where=zero)
    g = work.array("taylor", (order + 1, n), complex)
    g_abs = work.array("taylor_abs", (order + 1, n))
    np.copyto(power, a)
    np.copyto(power, b, where=zero)
    np.divide(C, np.prod(power, axis=0, out=g[0]), out=g[0])
    np.abs(g[0], out=g_abs[0])
    kl = work.array("log_terms", (order, n), complex)  # rows k L_k, k = 1..order
    kl_abs = work.array("log_terms_abs", (order, n))  # and their majorants
    power_abs = work.array("power_abs", (d, n))
    row, row_abs = work.array("term", (n,), complex), work.array("term_abs", (n,))
    np.copyto(power, ratio)
    for k in range(order):
        if k:
            np.multiply(power, ratio, out=power)
        kl[k] = np.sum(power, axis=0, out=row if dtype.kind == "c" else row_abs)
        np.sum(np.abs(power, out=power_abs), axis=0, out=kl_abs[k])
    np.add(kl[0], np.multiply(c, TWO_PI_I, out=row), out=kl[0])
    np.add(kl_abs[0], np.multiply(np.abs(c, out=row_abs), 2.0 * math.pi, out=row_abs), out=kl_abs[0])
    for series, lk, term in ((g, kl, row), (g_abs, kl_abs, row_abs)):
        for m in range(1, order + 1):
            np.multiply(lk[0], series[m - 1], out=series[m])
            for k in range(2, m + 1):
                np.add(series[m], np.multiply(lk[k - 1], series[m - k], out=term), out=series[m])
            series[m] /= m
    n_zero = np.sum(zero, axis=0, out=work.array("n_zero", (n,), np.intp))
    shift = np.subtract(n_zero, np.arange(order + 1)[:, None], out=work.array("shift", (order + 1, n), np.intp))
    below = np.less(shift, 0, out=work.array("below", (order + 1, n), bool))
    flat = np.maximum(shift, 0, out=shift)
    flat *= n
    flat += np.arange(n)  # g_{|Z|-n} in g.ravel()
    rows = g.take(flat, out=work.array("rows", (order + 1, n), complex), mode="clip")
    rows_abs = g_abs.take(flat, out=work.array("rows_abs", (order + 1, n)), mode="clip")
    np.copyto(rows, 0.0, where=below)
    np.copyto(rows_abs, 0.0, where=below)
    return rows, rows_abs


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
    Given a direction, a coordinate cone whose denominators do come within
    POLE_GUARD of zero is split: the products, with the pole entries of its
    1-D factors set to 0, sum exactly its points off the hyperplanes
    w_k (m_k + s_k) = 0, and the box pass forms its Laurent rows at its pole
    points only, the points on them.  Without a direction it is summed whole
    by the box pass, which raises PoleHit.

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
    sigma^-n, come from closed-form series calls per slab for the pole
    points of all cones, r_0 enters the sum, and PoleHit is raised where the
    summed r_n, n >= 1, do not cancel (a cone list whose sum is not entire
    there), or for a direction with some |<w_j, x>| <= POLE_GUARD.  At
    s = 0 with a direction, as for every volume, r_n(-m) =
    (-1)^(d+n) conj(r_n(m)) and the tables are even, so the pass forms the
    terms on the half box m_1 >= 0 only, and at p = 2 only at the points
    of ``_ball_points``: where some level's weight reaches e^-36, and on
    every level's outer shell (see ``_box_pass``).  There a coordinate
    cone's pole points are those with some m_k = 0."""
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
            raise DimensionMismatch(f"s has shape {s.shape}, expected ({cone.dim},)")
        det = abs(cone.det)
        if np.max(np.abs(cone.apex)) > 1e-15:
            phase = np.exp(TWO_PI_I * cone.apex[:, None] * axes)  # row k: exp(2 pi i apex_k (m_k + s_k))
            modulus = math.exp(-2.0 * math.pi * float(cone.apex @ s.imag))  # |phase|, constant
        else:
            phase, modulus = None, 1.0
        scales = _axis_scales(cone.generators)
        on_pole = None  # per-axis pole entries of a coordinate cone whose products skip them
        if scales is not None:
            denoms = scales[:, None] * axes  # row k: w_k (m_k + s_k), as the box pass forms them
            poles = np.abs(denoms) <= POLE_GUARD
            if x is not None or not poles.any():
                inv = 1.0 / np.where(poles, 1.0, denoms)
                inv[poles] = 0.0
                factors.append((det, modulus, inv if phase is None else phase * inv, np.abs(inv)))
                if not poles.any():
                    continue
                on_pole = poles
        spans = cone.generators.T[:, :, None] * axes[:, None, :]  # [k, j, m_k]: w_jk (m_k + s_k)
        b = None if x is None else cone.generators @ x
        c = 0.0 if phase is None or x is None else float(cone.apex @ x)
        prepared.append((det, modulus, spans, phase, b, c, on_pole, _pole_free(cone.generators, s)))

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
        mirror = x is not None and not s.any()
        box_value, box_mags = _box_pass(prepared, ms, axes, tables, mag_tables, x is None, mirror,
                                        cfg if mirror and cfg.p == 2.0 else None)
        value += box_value
        mags_sum += box_mags
    pref = (-TWO_PI_I) ** (-d)
    value *= pref
    mags_sum *= abs(pref)
    gross = mags_sum[:n_levels]
    tail = mags_sum[n_levels:].reshape(d, n_levels).sum(axis=0)
    return DampedLevels(value, tail, gross)


def _pole_free(W: np.ndarray, s: np.ndarray) -> bool:
    """Whether no lattice point m can be a pole of the cone with generator
    matrix W at s: |<w_j, m+s>| >= |<w_j, Im s>| for real m, so
    min_j |<w_j, Im s>| > 2 POLE_GUARD rules every pole out, with room for
    the rounding of the denominators the box pass forms."""
    return bool(np.min(np.abs(W @ s.imag)) > 2.0 * POLE_GUARD)


def _box_pass(prepared, ms, axes, tables, mag_tables, raise_at_poles: bool, mirror: bool,
              ball: DampedSumConfig | None = None):
    """Sum of the prepared cone terms over the largest box ms^d, slab by slab,
    contracted with every level's tables: the values and the magnitude rows,
    both before the prefactor (-2 pi i)^-d.  A cone prepared with its
    per-axis pole entries on_pole, a coordinate cone whose products sum its
    other points, enters only at its pole points, with its Laurent rows.

    Every slab-sized step (denominators, product, phase, terms, their
    magnitudes and nearest-pole rows, the pole points' columns and Laurent
    series, the gathered and scattered slabs and the first contraction
    step) writes with out= into a ``_WorkArea``, the thread's own when the
    slabs fit in CHUNK_LIMIT points: a repeated call allocates no slab-sized
    array.  A cone prepared as pole-free (see ``_pole_free``: complex s, and
    no generator orthogonal to Im s) forms det * phase / prod of its
    denominators with one division and no pole search; every other cone
    finds the points where some |<w_j, m+s>| <= POLE_GUARD, and raises
    PoleHit there or hands them to the Laurent series.

    With mirror (s = 0 along a real direction) the tables are real and even,
    and every term, Laurent row and magnitude at -m is (-1)^d times the
    conjugate of, or equal to, its value at m; the cancellation test is
    mirror-symmetric too.  So only the slabs with m_1 >= 0 are walked, the
    row m_1 = 0, its own mirror, at weight 1/2: the summed value v enters as
    v + (-1)^d conj(v), the magnitudes twice.  With ball, the config of a
    p = 2 mirror pass, the terms are formed only at the points of
    ``_ball_points`` and scattered into the slab: every other point weighs
    less than e^-36 at every level and enters as 0."""
    d, dtype = axes.shape[0], axes.dtype
    value = np.zeros(tables[0].shape[0], dtype=complex)
    mags_sum = np.zeros(mag_tables[0].shape[0])
    start = ms.size // 2 if mirror else 0
    slabs = tuple(_slabs(ms.size, d, start))
    kept = None if ball is None else _ball_points(ball, d, slabs)
    work = _work_area(max(i1 - i0 for i0, i1 in slabs) * ms.size ** (d - 1))
    for (i0, i1), entry in zip(slabs, kept or (None,) * len(slabs)):
        grid = (i1 - i0,) + (ms.size,) * (d - 1)
        size, at, flat = _slab_points(grid, entry, work)
        r = work.array("r", (size,), complex)
        r_abs = work.array("r_abs", (size,))
        r.fill(0.0)
        r_abs.fill(0.0)
        denoms = work.array("denominators", (d, size), dtype)
        row = work.array("row", (size,))  # a real row: nearest poles, then magnitudes
        n_poles = 0  # pole columns of the slab's cones so far (see _pole_columns)
        hyperplanes = {}  # per distinct on_pole: the slab's points on those hyperplanes
        for det, modulus, spans, phase, b, c, on_pole, pole_free in prepared:
            if on_pole is not None:
                # a coordinate cone whose products sum its points off the
                # hyperplanes: only its pole points are formed
                key = on_pole.tobytes()
                if key not in hyperplanes:
                    hit = _spread(on_pole, np.logical_or, i0, at, work.array("hit", (size,), bool), work)
                    poles = np.flatnonzero(hit)
                    hyperplanes[key] = poles, _point_indices(grid, i0, poles, at)
                poles, idx = hyperplanes[key]
                if poles.size:
                    a = _spread(spans, np.add, i0, idx, work.array("pole_rows", (d, poles.size), dtype), work)
                    ph = (None if phase is None else
                          _spread(phase, np.multiply, i0, idx, work.array("pole_phase", (poles.size,), complex), work))
                    n_poles = _append_poles(work, n_poles, poles, a, ph, det, b, c)
                continue
            _spread(spans, np.add, i0, at, denoms, work)
            prod = np.prod(denoms, axis=0, out=work.array("product", (size,), dtype))
            if pole_free:
                if phase is None:
                    term = np.divide(det, prod, out=prod)
                else:
                    term = _spread(phase, np.multiply, i0, at, work.array("phase", (size,), complex), work)
                    term *= det
                    term /= prod
                r += term
                r_abs += np.abs(term, out=row)
                continue
            mags = np.abs(denoms, out=work.array("magnitudes", (d, size)))
            nearest = np.min(mags, axis=0, out=row)
            poles = np.flatnonzero(np.less_equal(nearest, POLE_GUARD, out=work.array("hit", (size,), bool)))
            if poles.size and raise_at_poles:
                at_min = int(np.argmin(nearest))
                j = int(np.argmin(mags[:, at_min]))
                m_bad = _lattice_point(ms, grid, i0, at_min, at)
                raise PoleHit(
                    f"pole at m={m_bad}: |<w_{j}, m+s>| = {mags[j, at_min]:.3e}",
                    generator_index=j, lattice_point=m_bad,
                )
            prod[poles] = 1.0
            inv = np.divide(det, prod, out=prod)
            inv[poles] = 0.0
            r_abs += np.multiply(modulus, np.abs(inv, out=row), out=row)
            ph = None if phase is None else _spread(phase, np.multiply, i0, at, work.array("phase", (size,), complex), work)
            if poles.size:
                a = np.take(denoms, poles, axis=1, out=work.array("pole_rows", (d, poles.size), dtype), mode="clip")
                ph_poles = (None if ph is None else
                            np.take(ph, poles, out=work.array("pole_phase", (poles.size,), complex), mode="clip"))
                n_poles = _append_poles(work, n_poles, poles, a, ph_poles, det, b, c)
            _add_terms(r, inv, ph)
        if n_poles:
            # rows r_n summed per pole point over the cones: r_0 enters the
            # sum; summed over all vertex cones of a polytope the rows n >= 1
            # are rounding, at most 1.7e-16 of their majorant on exact
            # fixtures and about 7e-14 * t where float vertices tilt an edge
            # by an ulp (3.6e-12 at t = 25).  A missing cone leaves 0.29 or more.
            points, a, C, b, c = _pole_columns(work, n_poles, 0, d, dtype)
            bad = _add_pole_rows(r, r_abs, points, C, a.T, b.T, c, work)
            if bad >= 0:
                m_bad = _lattice_point(ms, grid, i0, bad, at)
                raise PoleHit(f"poles do not cancel across the cones at m={m_bad}", lattice_point=m_bad)
        if at is not None:
            formed, formed_abs = r, r_abs
            r, r_abs = work.array("r_slab", grid, complex), work.array("r_abs_slab", grid)
            r.fill(0.0)
            r_abs.fill(0.0)
            r.reshape(-1)[flat], r_abs.reshape(-1)[flat] = formed, formed_abs
        if mirror and i0 == start:  # the row m_1 = 0, its own mirror, at weight 1/2
            r.reshape(grid)[0] *= 0.5
            r_abs.reshape(grid)[0] *= 0.5
        rest = math.prod(grid[1:])  # the two contractions take turns in one array
        value += _contract(r.reshape(grid), [tables[0][:, i0:i1]] + tables[1:],
                           work.array("contracted", (tables[0].shape[0], rest), complex))
        mags_sum += _contract(r_abs.reshape(grid), [mag_tables[0][:, i0:i1]] + mag_tables[1:],
                              work.array("contracted", (mag_tables[0].shape[0], rest)))
    if mirror:
        return value + (-1) ** d * value.conj(), 2.0 * mags_sum
    return value, mags_sum


def _add_terms(r, inv, phase) -> None:
    """r += inv * phase (inv where phase is None), in place in phase.  A
    real inv enters the real and imaginary parts apart: numpy casts a mixed
    real and complex operation through a newly allocated buffer."""
    if inv.dtype.kind == "c":
        r += inv if phase is None else np.multiply(inv, phase, out=phase)
    elif phase is None:
        np.add(r.real, inv, out=r.real)
    else:
        np.multiply(phase.real, inv, out=phase.real)
        np.multiply(phase.imag, inv, out=phase.imag)
        r += phase


def _pole_columns(work: _WorkArea, used: int, count: int, d: int, dtype):
    """A slab's pole columns in work, grown to used + count with the first
    used kept: the pole points (flat slab indices), the denominators a_j
    and the pairings b_j = <w_j, x> there (one row per column), and C and c
    (see ``_pole_terms``)."""
    n = used + count
    return (work.array("pole_points", (n,), np.intp, keep=used),
            work.array("pole_a", (n, d), dtype, keep=used),
            work.array("pole_C", (n,), complex, keep=used),
            work.array("pole_b", (n, d), keep=used),
            work.array("pole_c", (n,), keep=used))


def _append_poles(work: _WorkArea, used: int, poles, a, phase, det: float, b, c: float) -> int:
    """Appends a cone's columns at its pole points poles (flat slab indices)
    to the slab's ``_pole_columns``, given its denominators a there (one row
    per generator) and its phase there (None for phase 1); returns the new
    number of columns."""
    points, a_cols, C, b_cols, c_cols = _pole_columns(work, used, poles.size, a.shape[0], a.dtype)
    new = slice(used, used + poles.size)
    points[new], a_cols[new], b_cols[new], c_cols[new] = poles, a.T, b, c
    if phase is None:
        C[new] = det
    else:
        np.multiply(phase, det, out=C[new])
    return used + poles.size


def _add_pole_rows(r, r_abs, points, C, a, b, c, work: _WorkArea) -> int:
    """Adds to r and r_abs, at the pole points (flat indices into r, one
    column per cone with a pole there), the constant Laurent rows r_0 summed
    per point over the cones, and returns the smallest point where the
    summed rows r_n, n >= 1, do not cancel, or -1.  The series is formed
    POLE_CHUNK columns at a time, so its steps stay small."""
    d, n = a.shape
    slot = work.array("pole_slot", (r.size,), np.intp)
    slot[points] = np.arange(n)
    last = np.take(slot, points, out=work.array("pole_last", (n,), np.intp), mode="clip")  # each point's last column
    sums, sums_abs = work.array("pole_sums", (d + 1, n), complex), work.array("pole_sums_abs", (d + 1, n))
    sums.fill(0.0)
    sums_abs.fill(0.0)
    for j0 in range(0, n, POLE_CHUNK):
        cols = slice(j0, j0 + POLE_CHUNK)
        a_cols = a[:, cols]
        mags = np.abs(a_cols, out=work.array("pole_mags", a_cols.shape))
        zero = np.less_equal(mags, POLE_GUARD, out=work.array("pole_zero", a_cols.shape, bool))
        series, majorant = _pole_terms(C[cols], a_cols, zero, b[:, cols], c[cols], d, work)
        for total, total_abs, row, row_abs in zip(sums, sums_abs, series, majorant):
            np.add.at(total, last[cols], row)
            np.add.at(total_abs, last[cols], row_abs)
    for x, total, dtype in ((r, sums[0], complex), (r_abs, sums_abs[0], float)):
        at_points = np.take(x, points, out=work.array("pole_value", (n,), dtype), mode="clip")
        at_points += np.take(total, last, out=work.array("pole_sum", (n,), dtype), mode="clip")
        np.put(x, points, at_points)
    mags, bounds = work.array("pole_mags", (d, n)), work.array("pole_bounds", (d, n))
    above = np.greater(np.abs(sums[1:], out=mags), np.multiply(sums_abs[1:], 1e-6, out=bounds),
                       out=work.array("pole_zero", (d, n), bool))
    bad = np.any(above, axis=0, out=work.array("pole_bad", (n,), bool))
    return int(points[bad].min()) if bad.any() else -1


@lru_cache(maxsize=16)
def _ball_points(cfg: DampedSumConfig, d: int, slabs: tuple):
    """The points of the given slabs of the half box m_1 >= 0 at which a
    p = 2 pass forms its terms: those with pi eps_min |m|^2 <= 36, where
    some level's weight exp(-pi eps |m|^2) reaches e^-36 (the bound
    ``radius_for`` sizes R by), and those on each level's outer shell
    ||m||_inf = R, which carry the tails.  One entry per slab: None where
    the slab is formed whole, else the kept points' flat indices into the
    slab and their indices along each axis of the box, in the smallest
    unsigned types that hold them.  None when every slab is formed whole.

    A slab that keeps more than GATHER_LIMIT of its points is formed whole:
    a term costs more at gathered points than on the broadcast slab, and at
    the default 2-D config the slab m_1 <= 90 keeps 87% of its points and
    took about 5% longer gathered."""
    radii = sorted({cfg.radius_for(e) for e in cfg.eps_schedule})
    ms = np.arange(-radii[-1], radii[-1] + 1)
    ball = math.floor(36.0 / (math.pi * cfg.eps_schedule[-1]))  # the largest |m|^2 kept
    on_shell = np.isin(np.arange(radii[-1] + 1), radii)  # by sup norm
    index_type = np.min_scalar_type(ms.size - 1)
    kept = []
    for i0, i1 in slabs:
        coords = [ms[i0:i1]] + [ms] * (d - 1)
        keep = ((_outer([v * v for v in coords], np.add) <= ball)
                | on_shell[_outer([np.abs(v) for v in coords], np.maximum)])
        if keep.mean() > GATHER_LIMIT:
            kept.append(None)
            continue
        idx = [np.arange(i0, i1, dtype=index_type)] + [np.arange(ms.size, dtype=index_type)] * (d - 1)
        entry = (np.flatnonzero(keep).astype(np.min_scalar_type(keep.size - 1)),
                 tuple(np.broadcast_to(v.reshape((-1,) + (1,) * (d - 1 - k)), keep.shape)[keep]
                       for k, v in enumerate(idx)))
        for v in (entry[0],) + entry[1]:
            v.setflags(write=False)
        kept.append(entry)
    return None if all(e is None for e in kept) else tuple(kept)


def _slab_points(grid: tuple, entry, work: _WorkArea):
    """The points of a slab of shape grid at which the box pass forms terms:
    (number, at, flat), with at and flat None for every point of the slab in
    C order, else the per-axis box indices and the flat slab indices of the
    points of a ``_ball_points`` entry, copied into work as intp (take and
    fancy indexing convert other index types into new arrays)."""
    if entry is None:
        return math.prod(grid), None, None
    flat = work.array("flat", entry[0].shape, np.intp)
    at = work.array("at", (len(grid),) + entry[0].shape, np.intp)
    np.copyto(flat, entry[0])
    for row, idx in zip(at, entry[1]):
        np.copyto(row, idx)
    return flat.size, at, flat


def _spread(tables, ufunc, i0: int, at, out: np.ndarray, work: _WorkArea) -> np.ndarray:
    """ufunc-combination of per-axis tables, tables[k][..., i] the entry of
    axis k at box index i (any leading axes shared), written into out over
    a slab's points from the last axis back: over the grid of the slab that
    starts at first-axis index i0 (at None, see ``_outer``), else point by
    point at the per-axis box indices at.  Every denominator the box pass
    forms is formed here."""
    if at is None:
        n = tables[0].shape[-1]
        grid = (out.shape[-1] // n ** (len(tables) - 1),) + (n,) * (len(tables) - 1)
        lead = tables[0].shape[:-1]
        spare = work.array("spare", lead + grid[1:], out.dtype) if len(tables) > 2 else None
        _outer([tables[0][..., i0:i0 + grid[0]]] + list(tables[1:]), ufunc, out.reshape(lead + grid), spare)
        return out
    spare = work.array("spare", out.shape, out.dtype)
    np.take(tables[-1], at[-1], axis=-1, out=out, mode="clip")
    for t, i in zip(tables[-2::-1], at[-2::-1]):
        ufunc(np.take(t, i, axis=-1, out=spare, mode="clip"), out, out=out)
    return out


def _point_indices(grid: tuple, i0: int, flat, at) -> list:
    """Per-axis box indices of the points at flat indices into the points of
    the slab that starts at first-axis index i0 and has shape grid: the
    whole slab (at None), or the points with per-axis box indices at."""
    if at is not None:
        return [i[flat] for i in at]
    idx = np.unravel_index(flat, grid)
    return [idx[0] + i0, *idx[1:]]


def _lattice_point(ms: np.ndarray, grid: tuple, i0: int, flat: int, at) -> tuple:
    """The lattice point m of the box ms^d at a flat index into a slab's
    points (see ``_point_indices``)."""
    return tuple(int(ms[i]) for i in _point_indices(grid, i0, flat, at))


def damped_direct_sum(body, s, cfg: DampedSumConfig, eps: float) -> DampedSumResult:
    """Truncated direct-space sum sum_m (1_body * phi_eps)(m) e^{2 pi i <s,m>}.

    For a cone the series only converges when -Im(s) lies strictly inside the
    polar cone; otherwise ConvergenceDomain is raised.  Polytopes accept any s.
    """
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    A, b = body_half_spaces(body)
    d = A.shape[1]
    if s.shape != (d,):
        raise DimensionMismatch(f"s has shape {s.shape}, expected ({d},)")
    if isinstance(body, SimpleCone):
        pairing = body.generators @ (-s.imag)
        if np.max(pairing) >= 0.0:
            raise ConvergenceDomain("-Im(s) is not interior to the polar cone")
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
    if s.shape != (P.dim,):
        raise DimensionMismatch(f"s has shape {s.shape}, expected ({P.dim},)")
    if not np.isfinite(s).all():
        raise ValueError("s must be finite")
    pts, weights, std_errors = lattice_weights(P, 1.0, p=p, n_samples=n_samples, seed=seed)
    phases = np.exp(TWO_PI_I * (pts @ s))
    total = np.sum(weights * phases)
    var = np.sum((std_errors * np.abs(phases)) ** 2)
    return Estimate(complex(total), math.sqrt(var))
