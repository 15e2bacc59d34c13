"""Free-space Green's tensor: closed form, gradient, and mode expansion."""

import math
import warnings

import numpy as np
import pytest

from lateralvdw import (
    DecayRates,
    DrivingParams,
    QuadratureConfig,
    TwoAtomSystem,
    angular_frequency,
    assisted_decay_rate,
    circular_dipole,
    greens_free,
    greens_free_from_modes,
    greens_free_gradient,
    impulse_velocity_single_shot,
    integrate_k_par,
    lateral_force_shape,
    lateral_velocity,
    near_field_recoil_rate,
    nonresonant_force,
    recoil_rate,
    recoil_rate_quadrature,
    resonant_forces,
    spectrum_coefficients,
    torque_about_com,
)
from lateralvdw.constants import c
from lateralvdw.greens import _SYMMETRIC, _mode_level_sum, _radial_coefficients

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
    # forces.resonant_forces takes G(r_B, r_A) and grad G(r_B, r_A) from the
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
    # At k_par = 0 the plane wave runs along z only; displacements in units of 1/k.
    k = OMEGA / c
    q, q_perp = np.array([0.0]), np.array([1.0 + 0j])
    phis = 2.0 * math.pi * np.arange(16) / 16
    base = _mode_level_sum(0.0, 0.0, k * 400e-9, q, q_perp)(phis)
    moved = _mode_level_sum(k * 9e-7, k * -3e-7, k * 400e-9, q, q_perp)(phis)
    assert np.allclose(base, moved, rtol=0.0, atol=np.max(np.abs(base)) * 1e-15)


def test_cylindrical_mode_domain_errors():
    # The plane-wave factorisation exp(i k_perp |dz|) needs a source off the
    # observation plane, and the k_par axis a positive frequency.
    with pytest.raises(ValueError, match="nonzero z displacement"):
        greens_free_from_modes(np.array([1e-7, 0.0, 0.0]), OMEGA)
    for omega in (0.0, -OMEGA):
        with pytest.raises(ValueError, match="omega"):
            greens_free_from_modes(np.array([0.0, 0.0, 400e-9]), omega)


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
    # Neither a numpy warning nor a QuadratureConvergenceError: one ValueError.
    delta = np.array([0.0, 0.0, 400e-9])
    far_ultraviolet = TwoAtomSystem.cs_rb(np.array([1e-7, 2e-7]), wavelength=1e-70)
    calls = [
        lambda: greens_free(np.zeros(3), delta, bad),
        lambda: greens_free_gradient(np.zeros(3), delta, bad),
        lambda: greens_free_from_modes(delta, bad),
        lambda: integrate_k_par(lambda q, q_perp: q, bad),
        lambda: TwoAtomSystem(bad, peak_system.dipole_a, peak_system.alpha_b, 632e-9),
        lambda: TwoAtomSystem.cs_rb(632e-9, mass_a=bad),
        # 2 pi c / 1e-320 overflows to an infinite frequency.
        lambda: TwoAtomSystem.cs_rb(632e-9, wavelength=1e-320),
        lambda: TwoAtomSystem.cs_rb(632e-9, alpha_b=bad),
        lambda: torque_about_com(peak_system, 1.0, mass_b=bad),
        lambda: lateral_velocity(peak_system, DrivingParams(0.2e9, 1e9, bad)),
        lambda: DrivingParams(bad, 1e9, 1e-3),
        lambda: DrivingParams(0.2e9, bad, 1e-3),
        lambda: lateral_force_shape(bad),
        lambda: spectrum_coefficients(bad),
        lambda: angular_frequency(bad),
        lambda: circular_dipole(bad),
        lambda: nonresonant_force(peak_system, resonance_wavelength_b=bad),
        lambda: impulse_velocity_single_shot(peak_system, DecayRates(bad, 0.0)),
        # Finite, but past the closed forms' float range: xi^4, Y_2 and f1
        # overflow there, and the xi^5 shapes of the resonant routes.
        lambda: lateral_force_shape(1e78),
        lambda: spectrum_coefficients(1e-160),
        lambda: spectrum_coefficients(1e200),
        lambda: resonant_forces(far_ultraviolet, 1.0),
        lambda: assisted_decay_rate(far_ultraviolet),
        # xi = 3e-316 lies below greens._XI_FLOOR, where 1/xi^2 overflows, and
        # so does k |delta_r| at omega = 1e-200.
        lambda: greens_free(np.zeros(3), delta, 1e-300),
        lambda: greens_free_gradient(np.zeros(3), delta, 1e-300),
        lambda: greens_free_from_modes(delta, 1e-200),
        # Finite shapes, but scale times shape overflows at r = 1e-20 m.
        lambda: resonant_forces(TwoAtomSystem.cs_rb(1e-20, wavelength=1e-75), 1.0),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_points_and_azimuths_are_rejected(bad: float, peak_system):
    # Neither a numpy warning nor a nan result: one ValueError at the boundary.
    point = np.array([0.0, bad, 400e-9])
    calls = [
        lambda: greens_free(np.zeros(3), point, OMEGA),
        lambda: greens_free(point, point, OMEGA),
        lambda: greens_free_gradient(point, np.zeros(3), OMEGA),
        lambda: greens_free_from_modes(point, OMEGA),
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
def test_mode_tensor_over_phi_array_matches_per_phi_calls(
    k_ratio: float, mode_tensor_reference, k_perp_of
):
    # One level of 13 azimuths and their shifts by pi against 13 two-azimuth
    # levels, and each of those against the dyad reference at phi and phi + pi.
    # The level sums are in units of 1/k: k times the SI reference.
    k = OMEGA / c
    q = np.array([k_ratio])
    q_perp = np.array([k_perp_of(k_ratio, c)])
    k_par, k_perp = k * q, k * q_perp
    phis = np.linspace(0.0, 2.0 * math.pi, 13)
    for dz in (-0.8, 0.8):
        delta = np.array([0.3, -0.2, dz]) * WAVELENGTH
        level_sum = _mode_level_sum(*(k * delta), q, q_perp)
        stacked = level_sum(np.concatenate([phis, phis + math.pi]))[0, _SYMMETRIC]
        singles = [level_sum(np.array([phi, phi + math.pi]))[0, _SYMMETRIC] for phi in phis]
        scale = max(np.max(np.abs(single)) for single in singles)
        assert np.max(np.abs(stacked - sum(singles))) <= 1e-14 * scale
        for phi, single in zip(phis, singles):
            reference = k * sum(
                mode_tensor_reference(delta, OMEGA, k_par[0], k_perp[0], angle).ravel()
                for angle in (phi, phi + math.pi)
            )
            assert np.max(np.abs(single - reference)) <= 1e-14 * np.max(np.abs(reference))


@pytest.mark.parametrize("dz", [0.8, -0.8])
@pytest.mark.parametrize("offset", [0.0, 0.5], ids=["level", "midpoints"])
def test_mode_azimuth_sum_matches_summed_tensors(
    dz: float, offset: float, mode_tensor_reference, k_perp_of
):
    # The table-built level sum, in units of 1/k, against k times the dyad
    # reference summed per azimuth.
    k = OMEGA / c
    delta = np.array([0.3, -0.2, dz]) * WAVELENGTH
    q = np.array([0.0, 0.4, 0.99, 1.01, 2.5, 8.0])
    q_perp = np.array([k_perp_of(ratio, c) for ratio in q])
    phis = 2.0 * math.pi * (np.arange(16) + offset) / 16
    expected = np.array([
        k * sum(mode_tensor_reference(delta, OMEGA, kp, kz, phi) for phi in phis).ravel()
        for kp, kz in zip(k * q, k * q_perp)
    ])
    got = _mode_level_sum(*(k * delta), q, q_perp)(phis)[:, _SYMMETRIC]
    assert got.shape == expected.shape == (len(q), 9)
    scale = np.max(np.abs(expected), axis=1)
    assert np.all(np.max(np.abs(got - expected), axis=1) <= 1e-14 * scale)
