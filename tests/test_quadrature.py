"""Momentum-plane and azimuthal quadrature against analytic integrals."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lateralvdw import (
    QuadratureConfig,
    QuadratureConvergenceError,
    hankel1,
    integrate_angle,
    integrate_evanescent,
    integrate_propagating,
    transverse_wavenumber,
)
from lateralvdw.constants import c

# Natural scale: k = omega/c = 1 per metre, so xi equals the distance in metres.
OMEGA = c


def test_transverse_wavenumber_branches():
    k = OMEGA / c
    assert transverse_wavenumber(0.0, OMEGA) == pytest.approx(k)
    assert transverse_wavenumber(k, OMEGA) == 0.0
    evan = transverse_wavenumber(2.0 * k, OMEGA)
    assert evan.real == 0.0
    assert evan.imag == pytest.approx(math.sqrt(3.0) * k)
    with pytest.raises(ValueError):
        transverse_wavenumber(-0.1, OMEGA)


@given(ratio=st.floats(min_value=1e-3, max_value=1e3))
def test_transverse_wavenumber_squares_back(ratio: float):
    k = OMEGA / c
    k_perp = transverse_wavenumber(ratio * k, OMEGA)
    assert k_perp.imag >= 0.0
    assert k_perp**2 == pytest.approx(k * k - (ratio * k) ** 2, rel=1e-12, abs=1e-12)


def test_propagating_elementary_integrals():
    k = OMEGA / c
    # int_0^k k_par/k_perp dk_par = k, and int_0^k k_par dk_par = k^2/2.
    ratio = integrate_propagating(lambda kp, kz: kp / kz, OMEGA)
    assert ratio == pytest.approx(k, rel=1e-10)
    plain = integrate_propagating(lambda kp, kz: kp, OMEGA)
    assert plain == pytest.approx(0.5 * k * k, rel=1e-10)


@pytest.mark.parametrize("xi", [0.3, 1.0, 3.0, 10.0])
def test_lateral_momentum_integrals_match_hankel_forms(xi: float):
    """The two oscillatory kernel integrals reduce to Hankel functions.

    int_0^inf k_par^2/k_perp e^{i k_perp r} dk_par = (pi xi / 2 r^2) H1(xi)
    int_0^inf k_par^4/k_perp e^{i k_perp r} dk_par = (3 pi xi^2 / 2 r^4) H2(xi)

    evaluated with r chosen so that (omega/c) r = xi.
    """
    r = xi  # since omega/c = 1

    def kernel(power):
        return lambda kp, kz: kp**power / kz * cmath.exp(1j * kz * r)

    for power, closed in (
        (2, math.pi * xi / (2.0 * r * r) * hankel1(1, xi)),
        (4, 3.0 * math.pi * xi * xi / (2.0 * r**4) * hankel1(2, xi)),
    ):
        total = integrate_propagating(kernel(power), OMEGA) + integrate_evanescent(
            kernel(power), OMEGA, r
        )
        assert abs(total - closed) <= 1e-8 * abs(closed)


@pytest.mark.parametrize("xi", [0.3, 1.0, 3.0, 10.0])
def test_scalar_kernel_integral(xi: float):
    # int_0^inf k_par/k_perp e^{i k_perp r} dk_par = -i e^{i xi} / r.
    r = xi
    f = lambda kp, kz: kp / kz * cmath.exp(1j * kz * r)
    total = integrate_propagating(f, OMEGA) + integrate_evanescent(f, OMEGA, r)
    closed = -1j * cmath.exp(1j * xi) / r
    assert abs(total - closed) <= 1e-8 * abs(closed)


def test_evanescent_tail_cutoff_converged():
    # Doubling the tail cutoff must not move the answer.
    r = 1.0
    f = lambda kp, kz: kp**2 / kz * cmath.exp(1j * kz * r)
    base = integrate_evanescent(f, OMEGA, r, QuadratureConfig(tail_cutoff_decades=40.0))
    deep = integrate_evanescent(f, OMEGA, r, QuadratureConfig(tail_cutoff_decades=80.0))
    assert abs(base - deep) <= 1e-12 * abs(base)


def test_tolerance_configuration_controls_accuracy():
    r = 3.0
    f = lambda kp, kz: kp**2 / kz * cmath.exp(1j * kz * r)
    closed = math.pi * 3.0 / (2.0 * r * r) * hankel1(1, 3.0)
    for rel_tol, bound in ((1e-5, 1e-4), (1e-11, 1e-9)):
        cfg = QuadratureConfig(rel_tol=rel_tol, abs_tol=0.0)
        total = integrate_propagating(f, OMEGA, cfg) + integrate_evanescent(
            f, OMEGA, r, cfg
        )
        assert abs(total - closed) <= bound * abs(closed)


def test_vector_integrands_share_error_control():
    k = OMEGA / c
    f = lambda kp, kz: np.array([kp, kp / kz, kp * kp])
    total = integrate_propagating(f, OMEGA)
    assert total[0] == pytest.approx(0.5 * k * k, rel=1e-9)
    assert total[1] == pytest.approx(k, rel=1e-9)
    assert total[2] == pytest.approx(k**3 / 3.0, rel=1e-9)


def test_angle_integral_of_harmonics():
    assert integrate_angle(lambda phi: np.ones_like(phi)) == pytest.approx(
        2.0 * math.pi, rel=1e-12
    )
    assert integrate_angle(lambda phi: np.cos(phi)) == pytest.approx(0.0, abs=1e-12)
    assert integrate_angle(lambda phi: np.cos(phi) ** 2) == pytest.approx(
        math.pi, rel=1e-12
    )


@given(
    m=st.integers(min_value=0, max_value=4),
    n=st.integers(min_value=0, max_value=4),
)
def test_angle_harmonic_orthogonality(m: int, n: int):
    value = integrate_angle(lambda phi: np.cos(m * phi) * np.cos(n * phi))
    if m != n:
        expected = 0.0
    elif m == 0:
        expected = 2.0 * math.pi
    else:
        expected = math.pi
    assert value == pytest.approx(expected, abs=1e-10)


def test_angle_integral_returns_complex_when_needed():
    value = integrate_angle(lambda phi: np.exp(1j * phi) + 2.0)
    assert isinstance(value, complex)
    assert value == pytest.approx(4.0 * math.pi, abs=1e-10)


def test_angle_integral_stalls_on_rough_integrand():
    with pytest.raises(QuadratureConvergenceError) as excinfo:
        integrate_angle(lambda phi: np.sin(1e8 * phi * phi))
    assert excinfo.value.error_estimate > 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1e-9)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)
    with pytest.raises(ValueError):
        QuadratureConfig(tail_cutoff_decades=0.0)


def test_domain_errors():
    f = lambda kp, kz: kp
    with pytest.raises(ValueError):
        integrate_propagating(f, 0.0)
    with pytest.raises(ValueError):
        integrate_evanescent(f, OMEGA, 0.0)
