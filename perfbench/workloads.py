"""Seeded workloads for the solidsum benchmark.

Each workload is a fixed list of operations (a "pass") whose inputs are drawn
from ``numpy.random.default_rng([seed, pass_index])``, so the same seed gives
the same inputs.  Every operation carries a check against a reference the
benchmark computes itself, never with the code under test:

* square:     t^2 at integer t, (floor(t) + 1/2)^2 otherwise;
* triangle:   direct count of the sqrt(3) triangle's lattice points with
              vertex angles 1/4, 1/6, 1/12 and weight 1/2 on edges;
* 3-simplex:  A(t) = t^3/6 + (A(1) - 1/6) t at integer t, with
              A(1) = 1/8 + 3*omega and omega from the Van Oosterom-Strackee
              formula.

An operation fails when it raises, when a volume misses its reference by more
than its own reported error, when an identity residual reaches its
tolerance, when a planar oracle count misses by more than 1e-9 per point, or
when a 3-D Monte Carlo count misses by more than 4 standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import solidsum as ss

SQRT3 = math.sqrt(3.0)
FAST_3D = ss.DampedSumConfig(eps_schedule=tuple(0.5 * 0.5 ** k for k in range(6)),
                             truncation_radius=30)
GRAM_POINTS = 2000
# a triangle lattice point closer than this to the hypotenuse would make the
# reference count depend on the boundary tolerance; such t are redrawn
HYPOTENUSE_MARGIN = 1e-7


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a call into solidsum and a check of its result."""

    label: str
    kind: str                    # "volume" or "identity"
    group: str                   # "analytic", "oracle-2d", "oracle-3d" or "gram"
    call: Callable
    check: Callable              # result -> (ok, detail)


@dataclass(frozen=True)
class Workload:
    passes: Callable             # pass_index -> list[Op]
    expected: frozenset          # traced functions the workload must call
    # seconds a run allots to one pass: a run of S seconds makes S // budget
    # passes, so its operation count is fixed; set a little above the pass
    # times of a 2-core VM in a slow phase, so a run ends within about S
    pass_budget_s: float


# ----------------------------- references -----------------------------------

def square_ref(t: float) -> float:
    return t * t if float(t).is_integer() else (math.floor(t) + 0.5) ** 2


def triangle_ref(t: float) -> float:
    """Solid-angle count of t*conv{(0,0), (0,1), (sqrt3,0)}: rows b = 0..floor(t)
    hold the points (a, b) with 0 <= a <= sqrt3 (t - b)."""
    total = 0.0
    for b in range(int(math.floor(t)) + 1):
        n_a = int(math.floor(SQRT3 * (t - b))) + 1      # a = 0 .. floor(sqrt3 (t-b))
        if b == 0:
            total += 0.25 + 0.5 * (n_a - 1)              # origin, then the x-axis edge
        elif b == t:
            total += 1.0 / 6.0                           # apex (0, t)
        else:
            total += 0.5 + (n_a - 1)                     # y-axis edge, then interior
    return total


def _hypotenuse_clear(t: float) -> bool:
    for b in range(int(math.floor(t)) + 1):
        x = SQRT3 * (t - b)
        if b != t and abs(x - round(x)) < HYPOTENUSE_MARGIN:
            return False
    return True


def vos_solid_angle(a, b, c) -> float:
    """Solid angle of the cone spanned by a, b, c as a fraction of the full
    sphere (Van Oosterom and Strackee, IEEE Trans. Biomed. Eng. 30, 1983)."""
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    la, lb, lc = (float(np.linalg.norm(v)) for v in (a, b, c))
    num = abs(float(np.dot(a, np.cross(b, c))))
    den = la * lb * lc + np.dot(a, b) * lc + np.dot(a, c) * lb + np.dot(b, c) * la
    return 2.0 * math.atan2(num, den) / (4.0 * math.pi)


SIMPLEX_VERTICES = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def simplex_ref(t: int) -> float:
    """A(t) of the standard 3-simplex at integer t (odd polynomial, leading
    coefficient the volume 1/6)."""
    V = np.array(SIMPLEX_VERTICES, dtype=float)
    a1 = 0.0
    for i, v in enumerate(V):
        edges = [w - v for j, w in enumerate(V) if j != i]
        a1 += vos_solid_angle(*edges)
    return t ** 3 / 6.0 + (a1 - 1.0 / 6.0) * t


# ----------------------------- checks ---------------------------------------

def volume_check(ref: float):
    def check(est):
        miss = abs(est.value - ref)
        return miss <= est.error, f"value {est.value:.12g} ref {ref:.12g} miss {miss:.2e} error {est.error:.2e}"
    return check


def identity_check(rep):
    return rep.passed, f"residual {rep.residual:.2e} tolerance {rep.tolerance:.0e}"


def gram_check(res):
    return res.passed, f"{res.n_failures} of {res.n_points} points fail"


def oracle_2d_check(ref: float):
    def check(res):
        miss = abs(res.value - ref)
        return miss <= 1e-9 * res.n_lattice_points, f"value {res.value:.12g} ref {ref:.12g} miss {miss:.2e}"
    return check


def oracle_3d_check(ref: float):
    def check(res):
        miss = abs(res.value - ref)
        return (miss <= 4.0 * res.std_error,
                f"value {res.value:.6f} ref {ref:.6f} miss {miss:.2e} std_error {res.std_error:.2e}")
    return check


# ----------------------------- seeded inputs --------------------------------

def pole_free_s(rng, d, cones, imag=0.25):
    """Complex s kept safely away from the cones' denominator zeros."""
    while True:
        s = rng.uniform(0.1, 0.4, size=d) + 1j * rng.uniform(-imag, imag, size=d)
        if ss.pole_distance(cones, s) > 0.05:
            return s


def _fractional_t(rng, lo=0.3, hi=3.0):
    while True:
        t = float(rng.uniform(lo, hi))
        if not t.is_integer() and _hypotenuse_clear(t):
            return t


def _fmt_s(s) -> str:
    return "(" + ", ".join(f"{v.real:.3f}{v.imag:+.3f}j" for v in s) + ")"


def _all_cones(P):
    return [c for i in range(P.n_vertices) for c in ss.vertex_simple_cones(P, i)]


def _volume_op(name, P, t, ref, cfg=None):
    return Op(f"macdonald_volume({name}, t={t:.6g})", "volume", "analytic",
              lambda: ss.macdonald_volume(P, t, cfg=cfg), volume_check(ref))


def analytic_2d(seed: int) -> Workload:
    square = ss.load_polytope(2, [(0, 0), (1, 0), (1, 1), (0, 1)])
    triangle = ss.sqrt3_triangle()
    quadrant = ss.simple_cone([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    cones = {"square": _all_cones(square), "triangle": _all_cones(triangle)}

    def passes(k: int):
        rng = np.random.default_rng([seed, k])
        ops = []
        for name, P, ref in (("square", square, square_ref), ("triangle", triangle, triangle_ref)):
            t_int = float(rng.integers(1, 4))
            t_frac = _fractional_t(rng)
            ops.append(_volume_op(name, P, t_int, ref(t_int)))
            ops.append(_volume_op(name, P, t_frac, ref(t_frac)))
        for name, P in (("square", square), ("triangle", triangle)):
            s = pole_free_s(rng, 2, cones[name])
            ops.append(Op(f"verify_brion({name}, s={_fmt_s(s)})", "identity", "analytic",
                          lambda P=P, s=s: ss.verify_brion(P, s), identity_check))
        for name, P in (("square", square), ("triangle", triangle)):
            t = float(rng.uniform(0.3, 3.0))
            s = pole_free_s(rng, 2, cones[name])
            ops.append(Op(f"verify_macdonald({name}, t={t:.6g}, s={_fmt_s(s)})", "identity", "analytic",
                          lambda P=P, t=t, s=s: ss.verify_macdonald(P, t, s), identity_check))
        shift = rng.uniform(0.0, 1.5, size=2)
        s = pole_free_s(rng, 2, [quadrant])
        ops.append(Op(f"verify_cone_reciprocity(quadrant, shift={np.round(shift, 3).tolist()}, s={_fmt_s(s)})",
                      "identity", "analytic",
                      lambda: ss.verify_cone_reciprocity(quadrant, shift, s), identity_check))
        return ops

    return Workload(passes, frozenset({
        "geometry.vertex_simple_cones", "geometry.half_spaces", "geometry.lattice_points",
        "lattice.damped_transform_sum", "lattice.extrapolate_eps", "lattice.alpha_polytope_direct",
        "numerics.richardson_limit", "numerics.richardson_extrapolants",
        "numerics.polynomial_fit_intercept",
        "macdonald.macdonald_volume", "macdonald.macdonald_sum", "macdonald.certify_direction",
        "macdonald.verify_brion", "macdonald.verify_macdonald", "macdonald.verify_cone_reciprocity",
        "oracle.point_weight", "angles.solid_angle_exact_2d",
    }), pass_budget_s=2.8)


def analytic_3d(seed: int) -> Workload:
    simplex = ss.load_polytope(3, SIMPLEX_VERTICES)
    orthant = ss.simple_cone([0.0, 0.0, 0.0], np.eye(3))
    cones = _all_cones(simplex)

    def passes(k: int):
        rng = np.random.default_rng([seed, k])
        ops = []
        t_int = int(rng.integers(1, 4))
        ops.append(_volume_op("3-simplex", simplex, float(t_int), simplex_ref(t_int), FAST_3D))
        ops.append(Op("conjecture_check(3-simplex)", "volume", "analytic",
                      lambda: ss.conjecture_check(simplex, cfg=FAST_3D), volume_check(0.0)))
        t = float(rng.uniform(0.3, 3.0))
        s = pole_free_s(rng, 3, cones)
        ops.append(Op(f"verify_macdonald(3-simplex, t={t:.6g}, s={_fmt_s(s)})", "identity", "analytic",
                      lambda: ss.verify_macdonald(simplex, t, s, cfg=FAST_3D), identity_check))
        # three reciprocity checks keep the identity median inside one kind of
        # operation; verify_macdonald takes about half as long when it raises
        for _ in range(3):
            s_cone = pole_free_s(rng, 3, [orthant])
            ops.append(Op(f"verify_cone_reciprocity(orthant, shift=0, s={_fmt_s(s_cone)})",
                          "identity", "analytic",
                          lambda s_cone=s_cone: ss.verify_cone_reciprocity(orthant, np.zeros(3), s_cone, FAST_3D),
                          identity_check))
        return ops

    return Workload(passes, frozenset({
        "geometry.vertex_simple_cones",
        "lattice.damped_transform_sum", "lattice.extrapolate_eps",
        "numerics.richardson_limit", "numerics.richardson_extrapolants",
        "numerics.polynomial_fit_intercept",
        "macdonald.macdonald_volume", "macdonald.macdonald_sum", "macdonald.conjecture_check",
        "macdonald.certify_direction", "macdonald.verify_macdonald",
        "macdonald.verify_cone_reciprocity",
    }), pass_budget_s=26.0)


def oracle(seed: int) -> Workload:
    square = ss.load_polytope(2, [(0, 0), (1, 0), (1, 1), (0, 1)])
    triangle = ss.sqrt3_triangle()
    simplex = ss.load_polytope(3, SIMPLEX_VERTICES)

    def gram_op(rng):
        g_seed = int(rng.integers(0, 2**31))
        return Op(f"brianchon_gram_check(3-simplex, n={GRAM_POINTS}, seed={g_seed})", "identity", "gram",
                  lambda: ss.brianchon_gram_check(simplex, GRAM_POINTS, g_seed), gram_check)

    def passes(k: int):
        # each volume is followed by two Gram checks, so the short identity
        # calls are spread over the pass like the volumes
        rng = np.random.default_rng([seed, k])
        ops = []
        for name, P, ref in (("triangle", triangle, triangle_ref), ("square", square, square_ref)):
            while True:
                t = 150.0 + int(rng.integers(0, 4)) / 4.0
                if _hypotenuse_clear(t):
                    break
            ops.append(Op(f"discrete_volume({name}, t={t:g})", "volume", "oracle-2d",
                          lambda P=P, t=t: ss.discrete_volume(P, t), oracle_2d_check(ref(t))))
            ops += [gram_op(rng), gram_op(rng)]
        t3 = int(rng.integers(6, 11))
        mc_seed = int(rng.integers(0, 2**31))
        ops.append(Op(f"discrete_volume(3-simplex, t={t3}, seed={mc_seed})", "volume", "oracle-3d",
                      lambda: ss.discrete_volume(simplex, float(t3), seed=mc_seed),
                      oracle_3d_check(simplex_ref(t3))))
        ops += [gram_op(rng), gram_op(rng)]
        return ops

    return Workload(passes, frozenset({
        "geometry.half_spaces", "geometry.lattice_points", "geometry.vertex_simple_cones",
        "geometry.faces", "geometry.face_tangent_cone_active_facets",
        "oracle.discrete_volume", "oracle.point_weight",
        "angles.sample_lp_ball", "angles.solid_angle_exact_2d",
        "macdonald.brianchon_gram_check",
    }), pass_budget_s=7.0)


WORKLOADS = {"analytic-2d": analytic_2d, "analytic-3d": analytic_3d, "oracle": oracle}
