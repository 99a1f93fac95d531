"""Damped Poisson-summation lattice sums over cones and polytopes.

Every evaluator truncates the lattice to a sup-norm box ||m||_inf <= R(eps);
limits eps -> 0 are always taken explicitly by ``numerics.richardson_limit``.
Transform-space sums sum_m sum_cones cone_transform(cone, m + s) *
phi_hat(m + s) are evaluated for every level of the damping schedule at
once: only the separable factor phi_hat depends on eps, and its per-level
1-D tables vanish outside each level's own box.  A coordinate cone, whose
generators lie along distinct axes, is summed as products of 1-D
contractions (along a direction, off its pole hyperplanes).  The other
cones are summed by one pass over the largest box, which forms their
summed term r(m) in dense pieces, broadcast from slices of per-axis tables,
and contracts each piece one axis at a time.  At p = 2 the tables multiply
to a Gaussian, exp(-pi eps (|m + Re s|^2 - |Im s|^2)) in modulus, below
e^-36 of its largest weight at every level outside the ball
pi eps_min |m + Re s|^2 <= 36 (the bound R is sized by; the spherical
cutoff of Ewald-type sums): the pieces are blocks around that ball and the
box's outer shell, which carries the tails.  Given a direction, the pass
returns the value at s of a cone sum that is entire there, as the sum over
all vertex cones of a polytope is (Brion), from Laurent rows at the pole
points: the exact s -> 0 limit of ``macdonald_volume``, formed on the half
box m_1 >= 0.  Direct-space sums accumulate (1_body * phi_eps)(m) *
exp(2*pi*i*<s, m>) at one eps.  The bilinear pairing is used throughout.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .angles import soft_indicator
from .errors import ConvergenceDomain, DimensionMismatch, PoleHit
from .geometry import Polytope, SimpleCone, body_half_spaces
from .numerics import Estimate
from .oracle import lattice_weights
from .transforms import DampedSumConfig, clip_cutoff, phi_hat_1d_grid, pole_distance

POLE_GUARD = 1e-10     # minimum |<w_j, m+s>| over the enumerated box
CHUNK_LIMIT = 20_000   # points per chunk of the box (slabs along the first axis)
POLE_CHUNK = 2048      # pole columns per Laurent series call
PIECE_COST = 5_000     # points whose forming costs about as much as one more piece

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
    zero outside each level's radius R: phi_hat_1d(m_k + s_k), entries below
    1e-150 set to 0 (their products are subnormal, which slows a contraction),
    and its magnitudes [part, level, m_k]: whole, on |m_k| = R and on
    |m_k| < R (see ``_contract``).  Cached: macdonald_sum makes one call per
    vertex at the same s, and at p != 2 the tables come from quadrature."""
    radii = np.array([cfg.radius_for(e) for e in cfg.eps_schedule])[:, None]
    ms = np.arange(-radii.max(), radii.max() + 1)
    edge, inner = np.abs(ms) == radii, np.abs(ms) < radii
    eps = np.array(cfg.eps_schedule)[:, None]
    tables, mag_tables = [], []
    for sk in s_tuple:
        z, table = ms + sk, np.zeros(edge.shape, dtype=complex)
        if cfg.p == 2.0:
            np.exp(-math.pi * eps * z * z, out=table, where=edge | inner)
        else:
            for row, e, mask in zip(table, cfg.eps_schedule, edge | inner):
                row[mask] = phi_hat_1d_grid(cfg, e, z[mask])
        mag = np.abs(table)
        table[mag < 1e-150] = 0.0
        tables.append(table)
        mag_tables.append(np.stack([mag, np.where(edge, mag, 0.0), np.where(inner, mag, 0.0)]))
    for t in tables + mag_tables:
        t.setflags(write=False)
    return ms, tables, mag_tables


def _contract(x: np.ndarray, tables) -> np.ndarray:
    """sum_m x[m] prod_k tables[k][..., l, m_k] for every row l, one axis at a
    time from the last (x has one axis per table, each sliced to x's axis).
    Value tables [l, m_k] give the values; magnitude tables (``_level_tables``)
    the gross rows and the tails, stacked.  A tail sums the shell ||m||_inf =
    R split by the first axis k with |m_k| = R (|m_j| < R before k), so from
    the last axis back tail <- gross . edge + tail . inner and gross <- gross
    . whole.  Only the first step reads all of x, for the tails only where
    x's last axis reaches a shell; no step writes an x-sized array."""
    flat = x.reshape(-1, x.shape[-1])
    last = tables[-1]
    if last.ndim == 2:
        y = last @ flat.T
        for t in tables[-2::-1]:
            y = np.matmul(y.reshape(t.shape[0], -1, t.shape[1]), t[:, :, None])[..., 0]
        return y[:, 0]
    n_levels = last.shape[1]
    if last[1].any():
        y = (last[:2].reshape(2 * n_levels, -1) @ flat.T).reshape(2, n_levels, -1)
    else:
        y = np.zeros((2, n_levels, flat.shape[0]))
        np.matmul(last[0], flat.T, out=y[0])
    for t in tables[-2::-1]:  # parts (gross, gross, tail) . (whole, edge, inner)
        y = np.matmul(y[[0, 0, 1]].reshape(3, n_levels, -1, t.shape[-1]), t[..., None])[..., 0]
        y[1] += y[2]
    return y[:2, :, 0]


def _outer(vectors, ufunc, out=None, spare=None):
    """ufunc-combination of per-axis vectors over their grid: the result's
    [..., i_0, ..., i_{d-1}] is ufunc(vectors[0][..., i_0], ..., vectors[d-1][..., i_{d-1}]),
    with any leading axes shared.  Built from the last axis back, so only the
    first axis's step touches the whole grid; that step writes into out and
    the one before it into spare, when they are given.

    numpy buffers a broadcast whose innermost run is shorter than a third of
    its ufunc buffer (8192 elements), allocating a buffer per operand: a 2-D
    slab, with runs of 219, took 2.7 to 3.2 times as long that way (numpy
    2.4, 2-core VM).  A 16-element buffer leaves runs of 6 or more alone."""
    if out is not None and len(vectors) == 1:
        np.copyto(out, vectors[0])
        return out
    # a grid of at most 8192 points fits one buffer, and is not worth the switch
    bufsize = None if math.prod(v.shape[-1] for v in vectors) <= 8192 else np.setbufsize(16)
    try:
        result = vectors[-1]
        for k in range(len(vectors) - 2, -1, -1):
            v = vectors[k]
            lead = v.ndim - 1
            result = ufunc(v.reshape(v.shape + (1,) * (result.ndim - lead)),
                           result.reshape(result.shape[:lead] + (1,) + result.shape[lead:]),
                           out=out if k == 0 else spare if k == 1 else None)
    finally:
        if bufsize is not None:
            np.setbufsize(bufsize)
    return result


class _WorkArea:
    """Byte buffers that the box pass carves its piece-sized arrays from, one
    per stage: "terms" holds a piece's summed terms, "poles" its pole
    columns, "stage" one cone's terms and then the pole stage, and "spare" a
    broadcast's second-to-last step.  Each grows to its largest request and
    is reused, so a thread keeps its largest stage, not every array, and a
    repeated pass allocates, and faults in, no piece-sized memory."""

    def __init__(self):
        self._buffers = {}

    def arrays(self, name: str, *specs, keep: int = 0, start: int = 0) -> list:
        """Uninitialised arrays of the given (shape, dtype) specs, laid end to
        end, 64-byte aligned, from byte start of buffer name (so they replace
        its earlier arrays there), except that its first keep bytes are
        carried over when the buffer grows."""
        offsets, end = _layout(specs, start)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < end:
            grown = np.empty(end, dtype=np.uint8)
            if keep:
                grown[:keep] = buffer[:keep]
            buffer = self._buffers[name] = grown
        return [np.ndarray(shape, dtype, buffer, offset) for (shape, dtype), offset in zip(specs, offsets)]


@lru_cache(maxsize=256)
def _layout(specs: tuple, start: int) -> tuple:
    """The byte offsets of (shape, dtype) specs laid end to end from byte
    start, each 64-byte aligned, and the end of the last: cached, as a
    repeated pass asks for the same layouts."""
    offsets, end = [], start
    for shape, dtype in specs:
        offsets.append(end)
        end += -(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64
    return offsets, end


_thread = threading.local()  # .work: this thread's _WorkArea, made on first use


def _work_area(points: int) -> _WorkArea:
    """The work area of a pass whose largest piece has the given number of
    points: the thread's own, kept between calls, when it fits in
    CHUNK_LIMIT points; else a new one that the call drops."""
    if points > CHUNK_LIMIT:
        return _WorkArea()
    if not hasattr(_thread, "work"):
        _thread.work = _WorkArea()
    return _thread.work


def _pole_terms(C, a, zero, b, c, order: int, work: _WorkArea | None = None, start: int = 0):
    """Rows r_n, n = 0..order, at each pole point (a column of a, zero and b,
    which have one row per generator j; an entry of C and c): the
    sigma^(|Z|-n) Taylor coefficient (0 for n > |Z|) of

        g(sigma) = C e^{2 pi i sigma c} prod_{j not in Z} 1/(a_j + sigma b_j) prod_{j in Z} 1/b_j,

    Z = {j: zero[j]}; and the same rows of its majorant, the series with every
    factor's coefficients replaced by their magnitudes.  The coefficients
    L_k of log g are 2 pi i c [k = 1] + sum_{j not in Z} (-b_j/a_j)^k / k, and
    g' = g (log g)' gives g_n = (1/n) sum_{k=1}^n k L_k g_{n-k}; the majorant
    is the same recursion on 2 pi |c| and |b_j/a_j|.  Every step writes into
    the "stage" buffer of work from byte start on (a new area by default)."""
    work = work or _WorkArea()
    d, n = a.shape
    dtype = np.result_type(a, b)
    (ratio, power, g, g_abs, kl, kl_abs, power_abs, row, row_abs, n_zero, shift, below, rows,
     rows_abs) = work.arrays(
        "stage", ((d, n), dtype), ((d, n), dtype), ((order + 1, n), complex), ((order + 1, n), float),
        ((order, n), complex), ((order, n), float), ((d, n), float), ((n,), complex), ((n,), float),
        ((n,), np.intp), ((order + 1, n), np.intp), ((order + 1, n), bool), ((order + 1, n), complex),
        ((order + 1, n), float), start=start)
    # ratio: -b_j/a_j, 0 for j in Z; kl, kl_abs: rows k L_k, k = 1..order, and their majorants
    np.copyto(ratio, a)
    np.copyto(ratio, 1.0, where=zero)
    np.divide(np.negative(b, out=power), ratio, out=ratio)
    np.copyto(ratio, 0.0, where=zero)
    np.copyto(power, a)
    np.copyto(power, b, where=zero)
    np.divide(C, np.prod(power, axis=0, out=g[0]), out=g[0])
    np.abs(g[0], out=g_abs[0])
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
    np.sum(zero, axis=0, out=n_zero)
    np.subtract(n_zero, np.arange(order + 1)[:, None], out=shift)
    np.less(shift, 0, out=below)
    flat = np.maximum(shift, 0, out=shift)
    flat *= n
    flat += np.arange(n)  # g_{|Z|-n} in g.ravel()
    g.take(flat, out=rows, mode="clip")
    g_abs.take(flat, out=rows_abs, mode="clip")
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
    a product of one factor per axis, phase_k / (w_k (m_k + s_k)), and its
    sums are products of d one-dimensional contractions.  Given a direction,
    a coordinate cone whose denominators do come within POLE_GUARD of zero
    is split: the products, with the pole entries of its 1-D factors set to
    0, sum its points off the hyperplanes w_k (m_k + s_k) = 0, and the box
    pass forms its Laurent rows at its points on them only.  Without a
    direction it is summed whole by the box pass, which raises PoleHit.

    Every other cone is summed by ``_box_pass``, which raises PoleHit where
    some m + s it forms comes within POLE_GUARD of a denominator zero,
    unless a direction x is given: a term with a_j = <w_j, m+s> = 0 for j
    in Z has a pole of order |Z| <= d along s + sigma * x, its Laurent
    coefficient r_0(m) enters the sum, and PoleHit is raised where the
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
            raise DimensionMismatch(f"s has shape {s.shape}, expected ({cone.dim},)")
        det = abs(cone.det)
        if np.max(np.abs(cone.apex)) > 1e-15:
            phase = np.exp(TWO_PI_I * cone.apex[:, None] * axes)  # row k: exp(2 pi i apex_k (m_k + s_k))
            modulus = math.exp(-2.0 * math.pi * float(cone.apex @ s.imag))  # |phase|, constant
        else:
            phase, modulus = None, 1.0
        scales = _axis_scales(cone.generators)
        on_pole = None  # per-axis pole indices of a coordinate cone whose products skip them
        if scales is not None:
            denoms = scales[:, None] * axes  # row k: w_k (m_k + s_k), as the box pass forms them
            poles = np.abs(denoms) <= POLE_GUARD
            if x is not None or not poles.any():
                inv = 1.0 / np.where(poles, 1.0, denoms)
                inv[poles] = 0.0
                factors.append((det, modulus, inv if phase is None else phase * inv, np.abs(inv)))
                if not poles.any():
                    continue
                on_pole = tuple(tuple(np.flatnonzero(row).tolist()) for row in poles)
        spans = cone.generators.T[:, :, None] * axes[:, None, :]  # [k, j, m_k]: w_jk (m_k + s_k)
        b = None if x is None else cone.generators @ x
        c = 0.0 if phase is None or x is None else float(cone.apex @ x)
        prepared.append((det, modulus, spans, phase, b, c, on_pole, _pole_free(cone.generators, s)))

    value = np.zeros(n_levels, dtype=complex)
    mags_sum = np.zeros((2, n_levels))  # gross, tail
    if factors:
        dets, moduli, g, h = (np.array(v) for v in zip(*factors))  # g, h: [cone, k, m_k]
        prod_value = np.ones((n_levels, dets.size), dtype=complex)
        for k in range(d):
            prod_value *= tables[k] @ g[:, k].T
        value += prod_value @ dets
        parts = [mag_tables[k] @ h[:, k].T for k in range(d)]  # [part, level, cone], as in _contract
        gross, tail = parts[-1][0], parts[-1][1]
        for part in parts[-2::-1]:
            gross, tail = gross * part[0], gross * part[1] + tail * part[2]
        mags_sum += np.stack([gross, tail]) @ (moduli * dets)
    if prepared:
        mirror = x is not None and not s.any()
        box_value, box_mags = _box_pass(prepared, ms, axes, tables, mag_tables, x is None, mirror,
                                        cfg if cfg.p == 2.0 else None)
        value += box_value
        mags_sum += box_mags
    pref = (-TWO_PI_I) ** (-d)
    value *= pref
    mags_sum *= abs(pref)
    return DampedLevels(value, mags_sum[1], mags_sum[0])


def _pole_free(W: np.ndarray, s: np.ndarray) -> bool:
    """Whether no lattice point m can be a pole of the cone with generator
    matrix W at s: |<w_j, m+s>| >= |<w_j, Im s>| for real m, so
    min_j |<w_j, Im s>| > 2 POLE_GUARD rules every pole out, with room for
    the rounding of the denominators the box pass forms."""
    return bool(np.min(np.abs(W @ s.imag)) > 2.0 * POLE_GUARD)


def _box_pass(prepared, ms, axes, tables, mag_tables, raise_at_poles: bool, mirror: bool,
              ball: DampedSumConfig | None = None):
    """Sum of the prepared cone terms over the largest box ms^d, contracted
    with every level's tables: the values and the (gross, tail) magnitude
    rows, both before the prefactor (-2 pi i)^-d.  A cone prepared with its
    per-axis pole indices on_pole, a coordinate cone whose products sum its
    other points, enters only at its pole points, with its Laurent rows.

    Each of the ``_pieces`` is formed by broadcast from slices of the
    per-axis tables, writing into a ``_WorkArea``, and contracted.  With
    ball, the config of a p = 2 pass, they are blocks around the ball about
    -Re s, which keep their pole columns in the ball, and the outer shell.
    A pole-free cone (``_pole_free``) forms
    det * phase / prod of its denominators with no pole search; every other
    cone finds its pole points, and raises PoleHit there or hands them to
    the Laurent series.

    With mirror (s = 0 along a real direction) the tables are real and even,
    and every term, Laurent row and magnitude at -m is (-1)^d times the
    conjugate of, or equal to, its value at m, and so is the cancellation
    test.  So only m_1 >= 0 is formed, the row m_1 = 0, its own mirror, at
    weight 1/2 (in the first axis's tables): the summed value v enters as
    v + (-1)^d conj(v), the magnitudes twice."""
    d, dtype, n = axes.shape[0], axes.dtype, ms.size
    value, mags_sum = np.zeros(tables[0].shape[0], dtype=complex), np.zeros((2, tables[0].shape[0]))
    start = n // 2 if mirror else 0
    if mirror:
        weight = np.where(ms == 0, 0.5, 1.0)
        tables, mag_tables = [tables[0] * weight] + tables[1:], [mag_tables[0] * weight] + mag_tables[1:]
    pieces = _volume_pieces(ball, d) if mirror and ball else _pieces(n, d, start, _block_radii(ball, ms, axes))
    work = _work_area(max(math.prod(map(len, piece)) for piece in pieces))
    square = axes.real ** 2  # row k: (m_k + Re s_k)^2
    for piece in pieces:
        grid = tuple(map(len, piece))
        size = math.prod(grid)
        r, r_abs, inside = work.arrays("terms", ((size,), complex), ((size,), float), ((size,), bool))
        # a block keeps pole columns only in the ball: the rest weigh below
        # e^-36 at every level, and leave the sum as their terms do
        block = ball is not None and d > 1 and piece[-1].step == 1 and len(piece[-1]) < n - 2
        if block:
            spare = work.arrays("spare", (grid[1:], float))[0] if d > 2 else None
            _outer([t[_cut(v)] for t, v in zip(square, piece)], np.add, r_abs.reshape(grid), spare)
            np.less_equal(r_abs, 36.0 / (math.pi * ball.eps_schedule[-1]), out=inside)
        r.fill(0.0)
        r_abs.fill(0.0)
        n_poles = 0  # pole columns of the piece's cones so far (see _pole_columns)
        hyperplanes = {}  # per distinct on_pole: the piece's points on those hyperplanes
        for det, modulus, spans, phase, b, c, on_pole, pole_free in prepared:
            if on_pole is not None:
                # a coordinate cone whose products sum its points off the hyperplanes
                if on_pole not in hyperplanes:
                    hyperplanes[on_pole] = _hyperplane_points(piece, on_pole)
                for sub, points in hyperplanes[on_pole]:
                    a, ph = work.arrays("stage", ((d, points.size), dtype), ((points.size,), complex))
                    _spread(spans, np.add, sub, a, work)
                    ph = None if phase is None else _spread(phase, np.multiply, sub, ph, work)
                    if block:
                        keep = inside[points]
                        points, a, ph = points[keep], a[:, keep], None if ph is None else ph[keep]
                    n_poles = _append_poles(work, n_poles, points, a, ph, det, b, c)
                continue
            # the phase and pole-free magnitudes reuse the spent denominators' memory
            denoms, prod, rows, hit = work.arrays(
                "stage", ((max(d, 2), size), dtype), ((size,), dtype), ((0 if pole_free else 2, size), float),
                ((0 if pole_free else size,), bool))
            ph = denoms[:2].reshape(-1).view(complex)[:size]
            denoms = denoms[:d]
            _spread(spans, np.add, piece, denoms, work)
            np.prod(denoms, axis=0, out=prod)
            if pole_free:
                if phase is None:
                    term, row = np.divide(det, prod, out=prod), ph.real
                else:
                    term, row = _spread(phase, np.multiply, piece, ph, work), prod.real
                    term *= det
                    term /= prod
                r += term
                r_abs += np.abs(term, out=row)
                continue
            nearest, row = rows
            np.abs(denoms[0], out=nearest)
            for a in denoms[1:]:
                np.minimum(nearest, np.abs(a, out=row), out=nearest)
            poles = np.flatnonzero(np.less_equal(nearest, POLE_GUARD, out=hit))
            if poles.size and raise_at_poles:
                at_min = int(np.argmin(nearest))
                j = int(np.argmin(np.abs(denoms[:, at_min])))
                m_bad = _lattice_point(ms, piece, at_min)
                raise PoleHit(f"pole at m={m_bad}: |<w_{j}, m+s>| = {abs(denoms[j, at_min]):.3e}",
                              generator_index=j, lattice_point=m_bad)
            prod[poles] = 1.0
            inv = np.divide(det, prod, out=prod)
            inv[poles] = 0.0
            r_abs += np.multiply(modulus, np.abs(inv, out=row), out=row)
            poles = poles[inside[poles]] if block else poles
            a = denoms[:, poles]
            ph = None if phase is None else _spread(phase, np.multiply, piece, ph, work)
            if poles.size:
                n_poles = _append_poles(work, n_poles, poles, a, None if ph is None else ph[poles], det, b, c)
            _add_terms(r, inv, ph)
        if n_poles:
            # summed over all vertex cones of a polytope the rows n >= 1 are
            # rounding, at most 1.7e-16 of their majorant on exact fixtures and
            # 7e-14 * t where float vertices tilt an edge; a missing cone leaves 0.29
            bad = _add_pole_rows(r, r_abs, _pole_columns(work, n_poles, n_poles, d, dtype), work)
            if bad >= 0:
                m_bad = _lattice_point(ms, piece, bad)
                raise PoleHit(f"poles do not cancel across the cones at m={m_bad}", lattice_point=m_bad)
        value += _contract(r.reshape(grid), [t[:, _cut(v)] for t, v in zip(tables, piece)])
        mags_sum += _contract(r_abs.reshape(grid), [t[..., _cut(v)] for t, v in zip(mag_tables, piece)])
    return (value + (-1) ** d * value.conj(), 2.0 * mags_sum) if mirror else (value, mags_sum)


def _block_radii(cfg: DampedSumConfig | None, ms: np.ndarray, axes: np.ndarray):
    """Per box row (first-axis index) the half-width h of the block [-h, h]^(d-1)
    a p = 2 pass forms there (None, every row whole, at p != 2, which has no
    ball, and where the ball's volume fills 3/4 of the box).  It bounds the
    row's section of the ball pi eps_min |m + Re s|^2 <= 36 (-1 for none),
    and where |m_1| <= R_in, the largest level radius below R, the cube of
    radius R_in, so no inner level's shell is cut.  A row with h >= R - 1 is
    formed whole, its shell points included."""
    if cfg is None:
        return None
    d, rho2 = axes.shape[0], 36.0 / (math.pi * cfg.eps_schedule[-1])
    if 4.0 * (math.pi * rho2) ** (d / 2) >= 3.0 * math.gamma(d / 2 + 1) * ms.size ** d:
        return None
    radii = sorted({cfg.radius_for(e) for e in cfg.eps_schedule})
    re_s = axes[:, ms.size // 2].real  # column m = 0 of axes is s
    section = rho2 - (ms + re_s[0]) ** 2
    reach = np.sqrt(np.maximum(section, 0.0)) + np.max(np.abs(re_s[1:]), initial=0.0)
    h = np.where(section >= 0.0, np.ceil(reach), -1.0).astype(int)
    return np.maximum(h, np.where(np.abs(ms) <= radii[-2], radii[-2], -1)) if len(radii) > 1 else h


@lru_cache(maxsize=16)
def _volume_pieces(cfg: DampedSumConfig, d: int) -> tuple:
    """The ``_pieces`` of a mirrored p = 2 pass (s = 0): cached per config."""
    R = max(cfg.radius_for(e) for e in cfg.eps_schedule)
    ms = np.arange(-R, R + 1)
    return tuple(_pieces(ms.size, d, R, _block_radii(cfg, ms, np.zeros((d, 1)) + ms)))


def _pieces(n: int, d: int, start: int, h) -> list:
    """The dense pieces a pass over the box of n^d points forms from row start
    on, as tuples of per-axis ranges of box indices (n // 2 at m_k = 0).
    With the rows' block half-widths h (``_block_radii``; None: every row
    whole, in slabs of CHUNK_LIMIT points), rows are grouped while the
    group's block holds at most CHUNK_LIMIT points, at most PIECE_COST of
    them outside the rows' own blocks; a group with a whole row is whole,
    and the rows m_1 = +-R, all shell, stand alone.  On the other rows the
    outer shell is formed apart, split by the first axis k >= 1 with
    |m_k| = R.  Where that costs, at PIECE_COST points per piece, no less
    than forming every row whole, or where the rows' own blocks and shells
    hold 3/4 of their points, every row is formed whole."""
    R, every, full = n // 2, range(n), n ** (d - 1)
    step = max(1, CHUNK_LIMIT // full)
    whole = [(range(i, min(i + step, n)),) + (every,) * (d - 1) for i in range(start, n, step)]
    if h is None:
        return whole
    width = np.where(h >= R - 1, full, np.maximum(2 * h + 1, 0) ** (d - 1))
    width[[0, -1]] = full
    # no grouping forms less than the rows' own blocks and the shell of the rest;
    # blocks that would not cut a quarter of the rows' points are not worth their pieces
    least = int(width[start:].sum() + np.count_nonzero(width[start:] < full) * (full - (n - 2) ** (d - 1)))
    if 4 * least >= 3 * (n - start) * full:
        return whole
    width, alone = width.tolist(), {i for i in (0, n - 1) if h[i] < R - 1}  # shell rows m_1 = +-R
    pieces, runs, i = [], [], start
    while i < n:
        top, own, j = width[i], width[i], i + 1
        while (i not in alone and j < n and j not in alone
               and (j + 1 - i) * max(top, width[j]) <= min(CHUNK_LIMIT, own + width[j] + PIECE_COST)):
            top, own, j = max(top, width[j]), own + width[j], j + 1
        if top == full:
            pieces.append((range(i, j),) + (every,) * (d - 1))
        else:
            if top:
                pieces.append((range(i, j),) + (range(R - h[i:j].max(), R + h[i:j].max() + 1),) * (d - 1))
            runs[-1:] = [range(runs[-1].start, j)] if runs and runs[-1].stop == i else runs[-1:] + [range(i, j)]
        i = j
    faces = [(range(1, n - 1),) * (k - 1) + (range(0, n, n - 1),) + (every,) * (d - 1 - k) for k in range(1, d)]
    for face in faces:
        # at most 1024 points per last-axis entry: the contraction's first step writes as many per level
        step = max(1, min(CHUNK_LIMIT, 1024 * len(face[-1])) // math.prod(map(len, face)))
        pieces += [(run[a:a + step],) + face for run in runs for a in range(0, len(run), step)]
    cost = (n - start) * full + PIECE_COST * len(whole)
    return pieces if sum(math.prod(map(len, piece)) + PIECE_COST for piece in pieces) < cost else whole


@lru_cache(maxsize=64)
def _hyperplane_points(piece: tuple, on_pole: tuple) -> list:
    """A piece's points with box index m_k in on_pole[k] for some k, as
    disjoint sub-pieces (by the first such k), each with the flat indices of
    its points into the piece, read-only: cached, as the pieces recur."""
    grid = tuple(map(len, piece))
    found, rest = [], [piece]
    for k, indices in enumerate(on_pole):
        at = [piece[k].index(i) for i in indices if i in piece[k]]
        if not at:
            continue
        cuts = list(zip([-1] + at, at + [grid[k]]))
        found += [g[:k] + (piece[k][p:p + 1],) + g[k + 1:] for g in rest for p in at]
        rest = [g[:k] + (piece[k][p + 1:q],) + g[k + 1:] for g in rest for p, q in cuts if q > p + 1]
    strides = [math.prod(grid[k + 1:]) for k in range(len(grid))]
    found = [(sub, reduce(np.add.outer, [(np.arange(len(v)) * (v.step // p.step) + (v.start - p.start) // p.step) * st
                                         for v, p, st in zip(sub, piece, strides)]).reshape(-1)) for sub in found]
    for _, points in found:
        points.setflags(write=False)
    return found


def _add_terms(r, inv, phase) -> None:
    """r += inv * phase (inv where phase is None), in place in phase; a real
    inv enters the real and imaginary parts apart (a mixed product buffers)."""
    if inv.dtype.kind == "c":
        r += inv if phase is None else np.multiply(inv, phase, out=phase)
    elif phase is None:
        np.add(r.real, inv, out=r.real)
    else:
        np.multiply(phase.real, inv, out=phase.real)
        np.multiply(phase.imag, inv, out=phase.imag)
        r += phase


def _pole_columns(work: _WorkArea, n: int, used: int, d: int, dtype) -> np.ndarray:
    """A piece's pole columns in the "poles" buffer, grown to n with the first
    used kept: the pole point (a flat piece index), the denominators a_j and
    pairings b_j = <w_j, x> there, and C and c (see ``_pole_terms``)."""
    record = _pole_record(d, np.dtype(dtype))
    return work.arrays("poles", ((n,), record), keep=used * record.itemsize)[0]


_pole_record = lru_cache(maxsize=16)(lambda d, dtype: np.dtype(
    [("point", np.intp), ("a", dtype, (d,)), ("C", complex), ("b", float, (d,)), ("c", float)], align=True))


def _append_poles(work: _WorkArea, used: int, points, a, phase, det: float, b, c: float) -> int:
    """Appends a cone's ``_pole_columns`` at its pole points, given its
    denominators a (one row per generator) and its phase (None for 1) there;
    returns the new number of columns."""
    new = _pole_columns(work, used + points.size, used, a.shape[0], a.dtype)[used:]
    new["point"], new["a"], new["b"], new["c"] = points, a.T, b, c
    if phase is None:
        new["C"] = det
    else:
        np.multiply(phase, det, out=new["C"])
    return used + points.size


def _add_pole_rows(r, r_abs, columns, work: _WorkArea) -> int:
    """Adds to r and r_abs the Laurent rows r_0 of the ``_pole_columns``
    summed per pole point over the cones, POLE_CHUNK columns at a time, and
    returns the smallest point where the summed r_n, n >= 1, do not cancel,
    or -1."""
    a, C, b, c = columns["a"].T, columns["C"], columns["b"].T, columns["c"]
    d, n = a.shape
    chunk = min(n, POLE_CHUNK)
    specs = (((n,), np.intp), ((r.size,), np.intp), ((n,), np.intp), ((d + 1, n), complex), ((d + 1, n), float),
             ((d, chunk), float), ((d, chunk), bool), ((n,), complex), ((n,), float), ((n,), bool), ((n,), bool))
    points, slot, last, sums, sums_abs, mags, zero, at_points, at_points_abs, above, bad = work.arrays("stage", *specs)
    np.copyto(points, columns["point"])
    start = _layout(specs, 0)[1]  # of the series' arrays
    slot[points] = np.arange(n)
    np.take(slot, points, out=last, mode="clip")  # each point's last column
    sums.fill(0.0)
    sums_abs.fill(0.0)
    for j0 in range(0, n, POLE_CHUNK):
        cols = slice(j0, j0 + POLE_CHUNK)
        a_cols = a[:, cols]
        width = a_cols.shape[1]
        np.less_equal(np.abs(a_cols, out=mags[:, :width]), POLE_GUARD, out=zero[:, :width])
        series, majorant = _pole_terms(C[cols], a_cols, zero[:, :width], b[:, cols], c[cols], d, work, start)
        for total, total_abs, row, row_abs in zip(sums, sums_abs, series, majorant):
            np.add.at(total, last[cols], row)
            np.add.at(total_abs, last[cols], row_abs)
    for x, total, values in ((r, sums[0], at_points), (r_abs, sums_abs[0], at_points_abs)):
        np.take(x, points, out=values, mode="clip")
        values += total[last]
        np.put(x, points, values)
    bad.fill(False)
    for total, bound in zip(sums[1:], sums_abs[1:]):
        bound *= 1e-6
        bad |= np.greater(np.abs(total, out=at_points_abs), bound, out=above)
    return int(points[bad].min()) if bad.any() else -1


def _spread(tables, ufunc, piece: tuple, out: np.ndarray, work: _WorkArea) -> np.ndarray:
    """ufunc-combination of per-axis tables (tables[k][..., i] at box index i)
    over a piece, broadcast from their slices by ``_outer`` into out, flat
    over its points after any shared leading axes.  Every denominator the
    box pass forms is formed here."""
    grid = tuple(map(len, piece))
    lead = tables[0].shape[:-1]
    spare = work.arrays("spare", (lead + grid[1:], out.dtype))[0] if len(piece) > 2 else None
    _outer([t[..., _cut(v)] for t, v in zip(tables, piece)], ufunc, out.reshape(lead + grid), spare)
    return out


def _cut(v: range) -> slice:
    """The slice of a piece's range of box indices."""
    return slice(v.start, v.stop, v.step)


def _lattice_point(ms: np.ndarray, piece: tuple, flat: int) -> tuple:
    """The lattice point m at a flat index into a piece's points."""
    return tuple(int(ms[v[i]]) for v, i in zip(piece, np.unravel_index(flat, tuple(map(len, piece)))))


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
    step = max(1, CHUNK_LIMIT // ms.size ** (d - 1))  # slabs along the first axis
    for i0, i1 in ((i, min(i + step, ms.size)) for i in range(0, ms.size, step)):
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
