"""Free-space Green's tensor: closed form, gradient, and mode expansion."""

import math
import warnings

import numpy as np
import pytest

from lateralvdw import (
    QuadratureConfig,
    greens_cylindrical_mode,
    greens_free,
    greens_free_from_modes,
    greens_free_gradient,
    near_field_recoil_rate,
    rate_density,
    recoil_rate,
    recoil_rate_quadrature,
)
from lateralvdw.constants import c
from lateralvdw.greens import _SYMMETRIC, _mode_level_sum, _radial_coefficients
from lateralvdw.quadrature import transverse_wavenumber

OMEGA = 2.0 * math.pi * c / 852e-9
WAVELENGTH = 852e-9


def random_pair(rng, spread=2e-6, min_sep=5e-8):
    while True:
        r1 = rng.uniform(-spread, spread, 3)
        r2 = rng.uniform(-spread, spread, 3)
        if np.linalg.norm(r1 - r2) > min_sep:
            return r1, r2


def finite_difference_gradient(r1, r2, omega, h):
    grad = np.empty((3, 3, 3), dtype=complex)
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = h
        grad[axis] = (
            greens_free(r1 + step, r2, omega) - greens_free(r1 - step, r2, omega)
        ) / (2.0 * h)
    return grad


def test_gradient_matches_finite_differences(rng):
    for _ in range(10):
        r1, r2 = random_pair(rng)
        sep = np.linalg.norm(r1 - r2)
        analytic = greens_free_gradient(r1, r2, OMEGA)
        numeric = finite_difference_gradient(r1, r2, OMEGA, 6e-6 * sep)
        scale = np.max(np.abs(analytic))
        assert np.max(np.abs(analytic - numeric)) <= 1e-8 * scale


def test_gradient_flips_sign_when_arguments_swap(rng):
    # G depends on the separation only through even combinations, so the
    # first-argument gradient is odd under exchanging the endpoints.
    for _ in range(10):
        r1, r2 = random_pair(rng)
        forward = greens_free_gradient(r1, r2, OMEGA)
        backward = greens_free_gradient(r2, r1, OMEGA)
        scale = np.max(np.abs(forward))
        assert np.max(np.abs(forward + backward)) <= 1e-12 * scale


def test_swapped_points_give_the_same_tensor_and_the_negated_gradient_bitwise(rng):
    # forces._resonant_forces takes G(r_B, r_A) and grad G(r_B, r_A) from the
    # (r_A, r_B) evaluation: the unit vector flips sign exactly.
    r1 = rng.uniform(-2e-6, 2e-6, (500, 3))
    r2 = rng.uniform(-2e-6, 2e-6, (500, 3))
    assert np.array_equal(greens_free(r2, r1, OMEGA), greens_free(r1, r2, OMEGA))
    assert np.array_equal(greens_free_gradient(r2, r1, OMEGA), -greens_free_gradient(r1, r2, OMEGA))


def test_reciprocity(rng):
    for _ in range(100):
        r1, r2 = random_pair(rng)
        forward = greens_free(r1, r2, OMEGA)
        backward = greens_free(r2, r1, OMEGA)
        scale = np.max(np.abs(forward))
        assert np.max(np.abs(forward - backward.T)) <= 1e-12 * scale
        assert np.max(np.abs(forward - forward.T)) <= 1e-12 * scale


def test_coincidence_imaginary_part_limit():
    # Im G stays finite as the points merge: (omega / 6 pi c) * identity.
    r = 1e-4 * WAVELENGTH / (2.0 * math.pi)
    tensor = greens_free(np.zeros(3), np.array([0.0, 0.0, r]), OMEGA)
    expected = OMEGA / (6.0 * math.pi * c)
    assert np.allclose(tensor.imag, expected * np.eye(3), rtol=1e-6)


def test_transverse_isotropy_on_axis():
    tensor = greens_free(np.zeros(3), np.array([0.0, 0.0, 500e-9]), OMEGA)
    assert tensor[0, 0] == tensor[1, 1]
    off_diagonal = tensor - np.diag(np.diag(tensor))
    assert np.max(np.abs(off_diagonal)) == 0.0


def test_near_field_electrostatic_kernel():
    # xi -> 0: G -> (3 uu - I) / (4 pi k^2 r^3), with O(xi) corrections.
    k = OMEGA / c
    r = 1e-4 / k
    direction = np.array([1.0, 2.0, 2.0]) / 3.0
    tensor = greens_free(np.zeros(3), r * direction, OMEGA)
    static = (3.0 * np.outer(direction, direction) - np.eye(3)) / (
        4.0 * math.pi * k * k * r**3
    )
    scale = np.max(np.abs(static))
    assert np.max(np.abs(tensor.real - static)) <= 2e-4 * scale


def test_mode_expansion_reproduces_closed_form_on_axis():
    delta = np.array([0.0, 0.0, 0.55 * WAVELENGTH])
    closed = greens_free(delta, np.zeros(3), OMEGA)
    expanded = greens_free_from_modes(delta, OMEGA)
    scale = np.max(np.abs(closed))
    assert np.max(np.abs(expanded - closed)) <= 1e-8 * scale


def test_mode_expansion_reproduces_closed_form_off_axis():
    delta = np.array([0.3, -0.2, 0.8]) * WAVELENGTH
    closed = greens_free(delta, np.zeros(3), OMEGA)
    cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-30)
    expanded = greens_free_from_modes(delta, OMEGA, cfg)
    scale = np.max(np.abs(closed))
    assert np.max(np.abs(expanded - closed)) <= 1e-8 * scale


def test_axial_mode_ignores_lateral_displacement():
    # At k_par = 0 the plane wave runs along z only.
    base = greens_cylindrical_mode(np.array([0.0, 0.0, 400e-9]), OMEGA, 0.0, 0.3)
    moved = greens_cylindrical_mode(np.array([9e-7, -3e-7, 400e-9]), OMEGA, 0.0, 0.3)
    assert np.allclose(base, moved, rtol=0.0, atol=np.max(np.abs(base)) * 1e-15)


def test_cylindrical_mode_domain_errors():
    delta = np.array([0.0, 0.0, 400e-9])
    with pytest.raises(ValueError):
        greens_cylindrical_mode(delta, OMEGA, -1.0, 0.0)
    with pytest.raises(ValueError):
        greens_cylindrical_mode(np.array([1e-7, 0.0, 0.0]), OMEGA, 1.0, 0.0)
    # k_perp = 0 at k_par = omega/c, where the 1/k_perp density is singular.
    for phi in (0.3, np.linspace(0.0, math.pi, 5)):
        with pytest.raises(ValueError):
            greens_cylindrical_mode(delta, OMEGA, OMEGA / c, phi)


def test_coincident_points_rejected():
    r = np.array([1e-7, 0.0, 0.0])
    with pytest.raises(ValueError):
        greens_free(r, r, OMEGA)
    stacked = np.array([[0.0, 0.0, 1e-7], r])
    with pytest.raises(ValueError):
        greens_free_gradient(stacked, r, OMEGA)


def test_stacked_tensors_match_per_point_values(rng):
    pairs = [random_pair(rng) for _ in range(64)]
    r1 = np.array([p[0] for p in pairs])
    r2 = np.array([p[1] for p in pairs])
    tensors = greens_free(r1, r2, OMEGA)
    grads = greens_free_gradient(r1, r2, OMEGA)
    assert tensors.shape == (64, 3, 3)
    assert grads.shape == (64, 3, 3, 3)
    for i in range(64):
        point = greens_free(r1[i], r2[i], OMEGA)
        point_grad = greens_free_gradient(r1[i], r2[i], OMEGA)
        assert np.max(np.abs(tensors[i] - point)) <= 1e-14 * np.max(np.abs(point))
        assert np.max(np.abs(grads[i] - point_grad)) <= 1e-14 * np.max(np.abs(point_grad))
    # A single point broadcasts against a stack.
    fixed = greens_free(np.zeros(3), r2, OMEGA)
    assert np.max(np.abs(fixed[5] - greens_free(np.zeros(3), r2[5], OMEGA))) == 0.0


@pytest.mark.parametrize("eta", [1e-3, 0.05, 1.0, 7.0, 40.0])
def test_imaginary_frequency_forms_are_the_continued_kernel(eta: float):
    # nonresonant_force evaluates the radial coefficients at xi = i eta
    # (omega = i zeta); their real parts must be the explicit forms
    # a = 1 + 1/eta + 1/eta^2, b = -1 - 3/eta - 3/eta^2, radial derivatives
    # da = -eta - 2 - 3/eta - 3/eta^2 and db = eta + 4 + 9/eta + 9/eta^2,
    # and the decay e^{-eta}.
    inv = 1.0 / eta
    expected = (
        math.exp(-eta),
        1.0 + inv + inv * inv,
        -1.0 - 3.0 * inv - 3.0 * inv * inv,
        -eta - 2.0 - 3.0 * inv - 3.0 * inv * inv,
        eta + 4.0 + 9.0 * inv + 9.0 * inv * inv,
    )
    for part, want in zip(_radial_coefficients(1j * eta), expected):
        assert abs(part.real - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_input_is_rejected_at_the_boundary(bad: float, peak_system):
    delta = np.array([0.0, 0.0, 400e-9])
    calls = [
        lambda: greens_free(np.zeros(3), delta, bad),
        lambda: greens_free_gradient(np.zeros(3), delta, bad),
        lambda: greens_cylindrical_mode(delta, bad, 1e6, 0.3),
        lambda: greens_cylindrical_mode(delta, OMEGA, bad, 0.3),
        lambda: rate_density(peak_system, bad, 0.3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_points_and_azimuths_are_rejected(bad: float, peak_system):
    # Neither a numpy warning nor a nan result: one ValueError at the boundary.
    delta = np.array([0.0, 0.0, 400e-9])
    point = np.array([0.0, bad, 400e-9])
    calls = [
        lambda: greens_free(np.zeros(3), point, OMEGA),
        lambda: greens_free(point, point, OMEGA),
        lambda: greens_free_gradient(point, np.zeros(3), OMEGA),
        lambda: greens_free_from_modes(point, OMEGA),
        lambda: greens_cylindrical_mode(point, OMEGA, 1e6, 0.3),
        lambda: greens_cylindrical_mode(delta, OMEGA, 1e6, bad),
        lambda: greens_cylindrical_mode(delta, OMEGA, 1e6, np.array([0.3, bad])),
        lambda: rate_density(peak_system, 1e6, bad),
        lambda: recoil_rate(peak_system, bad),
        lambda: near_field_recoil_rate(peak_system, bad),
        lambda: recoil_rate_quadrature(peak_system, bad),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()


@pytest.mark.parametrize("k_ratio", [0.0, 0.4, 0.99, 2.5])
def test_mode_tensor_over_phi_array_matches_per_phi_calls(k_ratio: float, mode_tensor_reference):
    k_par = k_ratio * OMEGA / c
    k_perp = transverse_wavenumber(k_par, OMEGA)
    phis = np.linspace(0.0, 2.0 * math.pi, 13)
    for dz in (-0.8, 0.8):
        delta = np.array([0.3, -0.2, dz]) * WAVELENGTH
        stacked = greens_cylindrical_mode(delta, OMEGA, k_par, phis)
        assert stacked.shape == (13, 3, 3)
        for phi, tensor in zip(phis, stacked):
            single = greens_cylindrical_mode(delta, OMEGA, k_par, float(phi))
            assert single.shape == (3, 3)
            assert np.max(np.abs(tensor - single)) <= 1e-14 * np.max(np.abs(single))
            reference = mode_tensor_reference(delta, OMEGA, k_par, k_perp, phi)
            assert np.max(np.abs(single - reference)) <= 1e-14 * np.max(np.abs(reference))


@pytest.mark.parametrize("dz", [0.8, -0.8])
@pytest.mark.parametrize("offset", [0.0, 0.5], ids=["level", "midpoints"])
def test_mode_azimuth_sum_matches_summed_tensors(dz: float, offset: float, mode_tensor_reference):
    # The table-built level sum against the dyad reference summed per azimuth.
    delta = np.array([0.3, -0.2, dz]) * WAVELENGTH
    k_par = np.array([0.0, 0.4, 0.99, 1.01, 2.5, 8.0]) * OMEGA / c
    k_perp = np.array([transverse_wavenumber(k, OMEGA) for k in k_par])
    phis = 2.0 * math.pi * (np.arange(16) + offset) / 16
    expected = np.array([
        sum(mode_tensor_reference(delta, OMEGA, k, kz, phi) for phi in phis).ravel()
        for k, kz in zip(k_par, k_perp)
    ])
    got = _mode_level_sum(*delta, OMEGA, k_par, k_perp)(phis)[:, _SYMMETRIC]
    assert got.shape == expected.shape == (len(k_par), 9)
    scale = np.max(np.abs(expected), axis=1)
    assert np.all(np.max(np.abs(got - expected), axis=1) <= 1e-14 * scale)
