"""Azimuthal recoil spectrum: closed form vs the mode-quadrature route."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lateralvdw import (
    CESIUM_WAVELENGTH,
    QuadratureConfig,
    TwoAtomSystem,
    assisted_rate_correction_quadrature,
    asymmetry,
    emission_spectrum,
    greens_free,
    integrate_evanescent,
    integrate_propagating,
    near_field_recoil_rate,
    recoil_rate,
    recoil_rate_prefactor,
    recoil_rate_profile,
    recoil_rate_quadrature,
    spectrum_coefficients,
)
from lateralvdw.constants import c, hbar
from lateralvdw.dynamics import assisted_decay_rate
from lateralvdw.emission import _mode_sandwich_profile
from lateralvdw.forces import _coupling

# xi -> (f1, f2, f3); mpmath at 40 digits through the Bessel closed forms.
COEFF_REFERENCE = {
    0.5: (1.3758959087186503, -0.9509545079963368, 0.10256466703838018),
    2.0: (154.72791446158578, -3.3251935870771663, 149.15491108331317),
    8.0: (6587.8181574823308, -10868.706325612036, -29675.863114388005),
    4.6607: (761.68274592828457, -1618.2691271935639, -4038.0570967390964),
}


def system_at_xi(xi: float, handedness: str = "right") -> TwoAtomSystem:
    return TwoAtomSystem.cs_rb(
        xi * CESIUM_WAVELENGTH / (2.0 * math.pi), handedness=handedness
    )


def test_coefficients_match_frozen_references():
    for xi, expected in COEFF_REFERENCE.items():
        got = spectrum_coefficients(xi)
        for value, reference in zip(got, expected):
            assert value == pytest.approx(reference, rel=1e-12)


def test_coefficient_special_value_at_half_pi():
    # cos(2 xi) = -1 and sin(2 xi) = 0 collapse f3 to a single product.
    f3 = spectrum_coefficients(math.pi / 2.0).f3
    assert f3 == pytest.approx(24.0 * math.pi * (3.0 - (math.pi / 2.0) ** 2), rel=1e-13)


def test_coefficients_reject_nonpositive_xi():
    with pytest.raises(ValueError):
        spectrum_coefficients(0.0)
    with pytest.raises(ValueError):
        spectrum_coefficients(np.array([0.5, 0.0]))


def test_coefficient_arrays_equal_per_point_calls_bit_for_bit():
    xis = np.geomspace(1e-3, 60.0, 401)
    stacked = spectrum_coefficients(xis)
    looped = [spectrum_coefficients(float(xi)) for xi in xis]
    assert all(type(f) is float for f in looped[0])
    for name, values in zip(stacked._fields, stacked):
        assert isinstance(values, np.ndarray) and values.shape == xis.shape
        assert values.tolist() == [getattr(point, name) for point in looped]


@pytest.mark.parametrize("xi", [0.5, 2.0, 8.0])
@pytest.mark.parametrize("phi", [0.0, math.pi / 4.0, math.pi / 2.0, math.pi])
def test_quadrature_route_matches_closed_form(xi: float, phi: float):
    system = system_at_xi(xi)
    closed = recoil_rate(system, phi)
    quadrature = recoil_rate_quadrature(system, phi)
    scale = recoil_rate_prefactor(system) * sum(
        abs(f) for f in spectrum_coefficients(xi)
    )
    assert abs(quadrature - closed) <= 1e-7 * scale


def test_profile_agrees_with_pointwise_quadrature():
    system = system_at_xi(2.0)
    phis, rates = recoil_rate_profile(system, n_phi=8)
    single = recoil_rate_quadrature(system, float(phis[3]))
    assert rates[3] == pytest.approx(single, rel=1e-9)


def test_pointwise_quadrature_reaches_requested_precision():
    # One adaptive pass over the real density; asked for 1e-11, it must land
    # within 1e-10 of the spectrum scale across the oracle range of xi.
    cfg = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-30)
    for xi in np.geomspace(0.3, 20.0, 25):
        system = system_at_xi(float(xi))
        scale = recoil_rate_prefactor(system) * sum(
            abs(f) for f in spectrum_coefficients(system.xi)
        )
        for phi in np.linspace(0.0, math.pi, 5):
            quadrature = recoil_rate_quadrature(system, float(phi), cfg)
            assert abs(quadrature - recoil_rate(system, phi)) <= 1e-10 * scale


def test_profile_mirror_symmetry():
    system = system_at_xi(2.0)
    phis, rates = recoil_rate_profile(system, n_phi=16)
    scale = np.max(np.abs(rates))
    for k in range(1, 8):
        assert abs(rates[k] - rates[16 - k]) <= 1e-9 * scale


def test_profile_harmonic_content_stops_at_second_order():
    # The mode integrand must generate only constant, cos(phi) and
    # cos(2 phi) azimuthal structure; higher bins are quadrature noise.
    system = system_at_xi(2.0)
    _, rates = recoil_rate_profile(system, n_phi=16)
    spectrum = np.abs(np.fft.rfft(rates))
    assert np.max(spectrum[3:]) <= 1e-7 * spectrum[0]


@given(
    xi=st.floats(min_value=0.05, max_value=1.9),
    phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_spectrum_nonnegative_below_crossover(xi: float, phi: float):
    system = system_at_xi(xi)
    floor = recoil_rate_prefactor(system) * sum(
        abs(f) for f in spectrum_coefficients(xi)
    )
    assert recoil_rate(system, phi) >= -1e-12 * floor


@pytest.mark.xfail(
    strict=True,
    reason="the cos(phi) interference term overwhelms the isotropic part "
    "at large retardation, so pointwise positivity genuinely fails there",
)
def test_spectrum_nonnegative_everywhere():
    system = system_at_xi(2.75)
    phis = np.linspace(0.0, 2.0 * math.pi, 181)
    assert min(recoil_rate(system, phi) for phi in phis) >= 0.0


@pytest.mark.parametrize("xi", [2.75, 4.6607])
def test_negative_lobes_confirmed_by_quadrature(xi: float):
    # The sign-indefinite region is physical within this model, not a
    # transcription artifact: the independent mode integral lands on the
    # same negative values.
    system = system_at_xi(xi)
    phis = np.linspace(0.0, 2.0 * math.pi, 73)
    closed = np.array([recoil_rate(system, phi) for phi in phis])
    worst = int(np.argmin(closed))
    assert closed[worst] < 0.0
    quadrature = recoil_rate_quadrature(system, float(phis[worst]))
    assert quadrature < 0.0
    assert quadrature == pytest.approx(closed[worst], rel=1e-6)


@given(phi=st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_mirror_symmetry_of_closed_form(phi: float):
    system = system_at_xi(1.3)
    assert recoil_rate(system, phi) == pytest.approx(
        recoil_rate(system, -phi), rel=1e-12
    )


def test_handedness_mirrors_spectrum():
    right = system_at_xi(1.3, "right")
    left = system_at_xi(1.3, "left")
    for phi in (0.0, 0.7, 2.0):
        assert recoil_rate(left, phi) == pytest.approx(
            recoil_rate(right, math.pi - phi), rel=1e-12
        )


def test_asymmetry_equals_half_plane_difference():
    from scipy.integrate import quad

    system = system_at_xi(1.0)
    forward, _ = quad(
        lambda phi: recoil_rate(system, phi), -math.pi / 2.0, math.pi / 2.0
    )
    backward, _ = quad(
        lambda phi: recoil_rate(system, phi), math.pi / 2.0, 3.0 * math.pi / 2.0
    )
    assert asymmetry(system) == pytest.approx(forward - backward, rel=1e-9)


def test_asymmetry_flips_with_handedness():
    right = asymmetry(system_at_xi(1.0, "right"))
    left = asymmetry(system_at_xi(1.0, "left"))
    assert left == pytest.approx(-right, rel=1e-12)
    assert right != 0.0


def test_density_integral_reproduces_assisted_correction():
    # One k_par quadrature per azimuth through the density at a float phi:
    # polar measure k_par dk_par dphi with a 32-point periodic trapezoid in phi.
    system = system_at_xi(1.0)
    closed = assisted_decay_rate(system).gamma_correction
    n_phi = 32
    cfg = QuadratureConfig(rel_tol=1e-10)
    total = 0.0
    for j in range(n_phi):
        density = _mode_sandwich_profile(system, 2.0 * math.pi * j / n_phi)
        f = lambda kp, kz: kp * density(kp, kz)
        radial = integrate_propagating(f, system.omega_a, cfg)
        radial += integrate_evanescent(f, system.omega_a, system.separation, cfg)
        total += radial.real
    total *= 2.0 * math.pi / n_phi
    assert total == pytest.approx(closed, rel=1e-7)


def test_assisted_correction_quadrature_matches_closed_form():
    system = TwoAtomSystem.cs_rb(632e-9)
    closed = assisted_decay_rate(system).gamma_correction
    quadrature = assisted_rate_correction_quadrature(system)
    assert quadrature == pytest.approx(closed, rel=1e-8)


def test_density_linear_in_polarizability(k_perp_of):
    base = system_at_xi(1.0)
    halved = TwoAtomSystem(
        omega_a=base.omega_a,
        dipole_a=base.dipole_a,
        alpha_b=0.5 * base.alpha_b,
        separation=base.separation,
    )
    for k_par, phi in ((0.3 * base.omega_a / 3e8, 0.0), (2e6, 1.1)):
        k_perp = k_perp_of(k_par, base.omega_a)
        full = _mode_sandwich_profile(base, phi)(k_par, k_perp)
        half = _mode_sandwich_profile(halved, phi)(k_par, k_perp)
        assert half == pytest.approx(0.5 * full, rel=1e-12)


@pytest.mark.parametrize("phis", [1.1, 2.0 * math.pi * np.arange(7) / 7], ids=["float", "array"])
@pytest.mark.parametrize(
    "k_ratio", [0.3, 2.5, np.array([0.0, 0.4, 0.99, 1.01, 2.5, 8.0])],
    ids=["propagating", "evanescent", "both"],
)
def test_mode_sandwich_matches_tensor_contraction(
    phis, k_ratio, mode_tensor_reference, k_perp_of
):
    # The table-built sandwich against d10 . T . back on the dyad reference.
    system = system_at_xi(1.3, "left")
    omega = system.omega_a
    k_par = k_ratio * omega / c
    if np.ndim(k_par):
        k_perp = np.array([k_perp_of(k, omega) for k in k_par])
    else:
        k_perp = k_perp_of(k_par, omega)
    delta = system.position_a - system.position_b
    back = system.alpha_b * (greens_free(system.position_b, system.position_a, omega)
                             @ np.conj(system.dipole_a))
    contracted = np.array([
        [system.dipole_a @ mode_tensor_reference(delta, omega, k, kz, phi) @ back
         for phi in np.ravel(phis)]
        for k, kz in zip(np.ravel(k_par), np.ravel(k_perp))
    ]).reshape(np.shape(k_par) + np.shape(phis))
    expected = _coupling(omega) / hbar * contracted.imag
    got = _mode_sandwich_profile(system, phis)(k_par, k_perp)
    assert np.shape(got) == np.shape(expected) == np.shape(k_par) + np.shape(phis)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_near_field_expansion_accuracy():
    system = system_at_xi(1e-3)
    for phi in (0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi):
        full = recoil_rate(system, phi)
        approx = near_field_recoil_rate(system, phi)
        assert approx == pytest.approx(full, rel=1e-4)


def test_near_field_error_shrinks_with_xi():
    def scaled_error(xi: float) -> float:
        system = system_at_xi(xi)
        pref = recoil_rate_prefactor(system)
        worst = 0.0
        for phi in np.linspace(0.0, math.pi, 9):
            err = abs(recoil_rate(system, phi) - near_field_recoil_rate(system, phi))
            worst = max(worst, err / pref)
        return worst

    errors = [scaled_error(xi) for xi in (8e-3, 4e-3, 2e-3)]
    assert errors[0] > errors[1] > errors[2]


def test_near_field_remainder_scales_as_sixth_power():
    xis = np.geomspace(2e-3, 1.6e-2, 7)

    def scaled_error(xi: float) -> float:
        system = system_at_xi(xi)
        pref = recoil_rate_prefactor(system)
        return max(
            abs(recoil_rate(system, phi) - near_field_recoil_rate(system, phi)) / pref
            for phi in np.linspace(0.0, math.pi, 9)
        )

    errors = np.array([scaled_error(xi) for xi in xis])
    slope = np.polyfit(np.log(xis), np.log(errors), 1)[0]
    assert 5.5 <= slope <= 6.5


def test_emission_spectrum_samples_reproduce_closed_form():
    system = system_at_xi(2.0)
    spectrum = emission_spectrum(system, 16)
    assert len(spectrum.phis) == len(spectrum.rates) == 16
    for phi, rate in zip(spectrum.phis, spectrum.rates):
        assert rate == pytest.approx(recoil_rate(system, phi), rel=1e-12)
    f1, f2, f3 = spectrum_coefficients(2.0)
    assert spectrum.f1 == pytest.approx(f1, rel=1e-14)
    assert spectrum.f3 == pytest.approx(f3, rel=1e-14)


def test_emission_spectrum_computes_coefficients_once(monkeypatch):
    import lateralvdw.emission as emission

    calls = []

    def counted(xi):
        calls.append(xi)
        return spectrum_coefficients(xi)

    monkeypatch.setattr(emission, "spectrum_coefficients", counted)
    system = system_at_xi(2.0)
    spectrum = emission.emission_spectrum(system, 512)
    assert calls == [system.xi]
    assert len(spectrum.rates) == 512


@pytest.mark.parametrize("n_phi", [12, 13])
def test_spectrum_and_profile_share_one_azimuth_grid(n_phi):
    system = system_at_xi(2.0)
    phis, _ = recoil_rate_profile(system, n_phi)
    assert np.array_equal(emission_spectrum(system, n_phi).phis, phis)


def test_emission_spectrum_rejects_sparse_sampling():
    with pytest.raises(ValueError):
        emission_spectrum(system_at_xi(1.0), 4)
    with pytest.raises(ValueError):
        recoil_rate_profile(system_at_xi(1.0), n_phi=7)
    # A fractional count would space 9 azimuths 2 pi / 8.5 apart.
    with pytest.raises(ValueError, match="integer"):
        emission_spectrum(system_at_xi(1.0), 8.5)
    with pytest.raises(ValueError, match="integer"):
        recoil_rate_profile(system_at_xi(1.0), n_phi=8.5)
