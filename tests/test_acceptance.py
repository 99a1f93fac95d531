"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import math
import time

import numpy as np
import pytest

import solidsum as ss
from conftest import random_pointed_cone_2d, random_pole_free_s

SQRT3 = math.sqrt(3.0)

# schedule containing the fixed level 0.05 required by the reciprocity check
RECIPROCITY_SCHEDULE = tuple(0.8 * 0.5 ** k for k in range(8))
FAST_3D = ss.DampedSumConfig(eps_schedule=tuple(0.5 * 0.5 ** k for k in range(6)),
                             truncation_radius=30)


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} - {detail}")
    assert ok, detail


def test_criterion_01_triangle_determinants(triangle):
    # canonical scaling: each tangent-cone generator is divided by its
    # smallest nonzero |coordinate|
    dets = []
    for i in range(3):
        G = ss.vertex_tangent_cone(triangle, i).generators
        mags = np.abs(G)
        nz = np.where(mags > 1e-12 * np.maximum(mags.max(axis=1, keepdims=True), 1.0), mags, np.inf)
        dets.append(abs(np.linalg.det(G / nz.min(axis=1, keepdims=True))))
    errs = [abs(a - b) for a, b in zip(dets, (1.0, SQRT3, 1.0))]
    _report(1, max(errs) < 1e-12,
            f"triangle determinants (1, sqrt3, 1), max err {max(errs):.2e}")


def test_criterion_02_exact_angle_fixtures(triangle):
    start = time.monotonic()
    vals = [ss.solid_angle_exact_2d(ss.vertex_simple_cones(triangle, i)[0]).value
            for i in range(3)]
    elapsed = time.monotonic() - start
    ok = (np.allclose(vals, [0.25, 1 / 6, 1 / 12], atol=1e-12)
          and abs(sum(vals) - 0.5) < 1e-12 and elapsed < 1.0)
    _report(2, ok, f"vertex angles {vals}, sum {sum(vals):.12f}, {elapsed:.3f}s")


def test_criterion_03_square_quasi_polynomial(square):
    start = time.monotonic()
    worst_oracle = 0.0
    worst_analytic = 0.0
    for t in (1.0, 2.0, 3.0):
        orc = ss.discrete_volume(square, t)
        worst_oracle = max(worst_oracle, abs(orc.value - t * t))
        est = ss.macdonald_volume(square, t)
        worst_analytic = max(worst_analytic, abs(est.value - t * t))
    elapsed = time.monotonic() - start
    ok = worst_oracle < 1e-12 and worst_analytic < 1e-2 and elapsed < 120.0
    _report(3, ok, f"square t^2: oracle err {worst_oracle:.1e}, "
                   f"analytic err {worst_analytic:.1e}, {elapsed:.1f}s")


def test_criterion_04_brion_identity(square, triangle):
    start = time.monotonic()
    rng = np.random.default_rng(404)
    worst = 0.0
    for P in (square, triangle):
        cones = [c for i in range(P.n_vertices) for c in ss.vertex_simple_cones(P, i)]
        for _ in range(5):
            s = random_pole_free_s(rng, 2, cones)
            rep = ss.verify_brion(P, s)
            worst = max(worst, rep.residual)
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 300.0
    _report(4, ok, f"Brion residual max {worst:.2e} over 10 runs, {elapsed:.1f}s")


def test_criterion_05_cone_reciprocity(quadrant):
    cfg2 = ss.DampedSumConfig(eps_schedule=RECIPROCITY_SCHEDULE)
    cfg3 = ss.DampedSumConfig(eps_schedule=RECIPROCITY_SCHEDULE, truncation_radius=30)
    cases = [
        (quadrant, [0.0, 0.0], np.array([0.31 + 0.17j, 0.23 - 0.11j]), cfg2),
        (quadrant, [0.5, math.sqrt(2.0)], np.array([0.31 + 0.17j, 0.23 - 0.11j]), cfg2),
        (ss.simple_cone([0, 0, 0], np.eye(3)),
         [0.0, 0.0, 0.0], np.array([0.3 + 0.1j, -0.2 + 0.2j, 0.42 - 0.15j]), cfg3),
    ]
    worst_fixed = 0.0
    worst_extrap = 0.0
    for cone, shift, s, cfg in cases:
        rep = ss.verify_cone_reciprocity(cone, shift, s, cfg)
        fixed = min(rep.details["per_eps_residuals"],
                    key=lambda item: abs(item[0] - 0.05))[1]
        worst_fixed = max(worst_fixed, fixed)
        worst_extrap = max(worst_extrap, rep.residual)
    ok = worst_fixed < 1e-6 and worst_extrap < 1e-5
    _report(5, ok, f"cone reciprocity: fixed-eps {worst_fixed:.2e}, "
                   f"extrapolated {worst_extrap:.2e}")


def test_criterion_06_macdonald_reciprocity(triangle):
    rng = np.random.default_rng(606)
    cones = [ss.vertex_simple_cones(triangle, i)[0] for i in range(3)]
    worst = 0.0
    for t in (0.5, 1.37):
        for _ in range(3):
            s = random_pole_free_s(rng, 2, cones)
            rep = ss.verify_macdonald(triangle, t, s)
            worst = max(worst, rep.residual)
    _report(6, worst < 1e-5, f"dilation reciprocity residual max {worst:.2e}")


def test_criterion_07_zero_dilation(triangle, tetrahedron):
    odd = ss.conjecture_check(tetrahedron, cfg=FAST_3D)
    even = ss.conjecture_check(triangle)
    ok = abs(odd.value) < 1e-3 and abs(even.value) < 1e-3
    _report(7, ok, f"A(0): 3-simplex {abs(odd.value):.2e} (theorem, odd d), "
                   f"triangle {abs(even.value):.2e} (conjecture, even d)")


def test_criterion_08_estimator_agreement():
    rng = np.random.default_rng(42)
    worst = {"gauss_p2": 0.0, "gauss_p1": 0.0, "mc_p1": 0.0}
    for i in range(20):
        cone = random_pointed_cone_2d(rng)
        exact2 = ss.solid_angle_exact_2d(cone).value
        exact1 = ss.solid_angle_exact_2d_l1(cone).value
        g2 = ss.solid_angle_gaussian(cone, cone.apex, p=2.0, n_samples=100_000, seed=100 + i)
        g1 = ss.solid_angle_gaussian(cone, cone.apex, p=1.0, n_samples=100_000, seed=200 + i)
        m1 = ss.solid_angle_mc(cone, cone.apex, p=1.0, n_samples=100_000, seed=300 + i)
        worst["gauss_p2"] = max(worst["gauss_p2"], abs(g2.value - exact2) / g2.std_error)
        worst["gauss_p1"] = max(worst["gauss_p1"], abs(g1.value - exact1) / g1.std_error)
        worst["mc_p1"] = max(worst["mc_p1"], abs(m1.value - exact1) / m1.std_error)
    ok = all(v <= 3.0 for v in worst.values())
    _report(8, ok, "estimator agreement z-scores: "
            + ", ".join(f"{k}={v:.2f}" for k, v in worst.items()))


def test_criterion_09_poisson_sanity(square):
    eps = 0.1
    cfg = ss.DampedSumConfig(p=2.0)
    direct = ss.damped_direct_sum(square, np.zeros(2, dtype=complex), cfg, eps).value

    def interval_hat(z):
        if abs(z) < 1e-12:
            return 1.0 + 0j
        return (np.exp(2j * math.pi * z) - 1.0) / (2j * math.pi * z)

    R = cfg.radius_for(eps)
    transform = 0j
    for m1 in range(-R, R + 1):
        for m2 in range(-R, R + 1):
            transform += (interval_hat(m1) * interval_hat(m2)
                          * ss.phi_hat(cfg, eps, np.array([m1, m2], dtype=complex)))
    gap = abs(direct - transform)
    _report(9, gap < 1e-8, f"unit-square Poisson gap {gap:.2e} at eps={eps}")


def test_criterion_10_brianchon_gram(square, triangle, tetrahedron):
    results = {}
    for name, P in (("square", square), ("triangle", triangle), ("tetrahedron", tetrahedron)):
        res = ss.brianchon_gram_check(P, n_points=100, seed=1010)
        results[name] = res.n_failures
    ok = all(v == 0 for v in results.values())
    _report(10, ok, f"indicator identity failures: {results}")
