import numpy as np
import pytest

import solidsum as ss
from solidsum.numerics import (
    gauss_legendre_panels,
    richardson_extrapolants,
    richardson_limit,
)


def test_richardson_affine_exact():
    eps = [0.4, 0.2, 0.1, 0.05]
    vals = [2.0 + 3.0 * e for e in eps]
    est = richardson_limit(eps, vals)
    assert abs(est.value - 2.0) < 1e-14
    assert est.error < 1e-14


def test_richardson_constant():
    est = richardson_limit([0.4, 0.2, 0.1], [5.0, 5.0, 5.0])
    assert est.value == 5.0
    assert est.error == 0.0


def test_richardson_requires_two_points():
    with pytest.raises(ss.ScheduleTooShort):
        richardson_limit([0.5], [1.0])


def test_richardson_noise_floor_suppresses_spurious_divergence():
    eps = [0.4, 0.2, 0.1, 0.05, 0.025]
    vals = [1.0, 1.0 + 1e-13, 1.0 - 2e-13, 1.0 + 4e-13, 1.0 - 8e-13]
    with pytest.raises(ss.NonConvergent):
        richardson_limit(eps, vals)
    est = richardson_limit(eps, vals, noise_floor=1e-11)
    assert abs(est.value - 1.0) < 1e-11


def test_extrapolants_linear_in_values():
    eps = [0.4, 0.2, 0.1]
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([5.0, 4.0, 2.0])
    lhs = richardson_extrapolants(eps, a + b)
    rhs = richardson_extrapolants(eps, a) + richardson_extrapolants(eps, b)
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_gauss_legendre_panels_polynomial_exact():
    x, w = gauss_legendre_panels(-1.0, 2.0, 4)
    assert w @ x ** 7 == pytest.approx((2.0 ** 8 - 1.0) / 8.0, abs=1e-12)
