"""Free-space Green's tensor: closed form, gradient, and mode expansion."""

import math

import numpy as np
import pytest

from lateralvdw import (
    QuadratureConfig,
    born_expanded_greens,
    greens_cylindrical_mode,
    greens_free,
    greens_free_from_modes,
    greens_free_gradient,
    greens_free_imag,
)
from lateralvdw.constants import c
from lateralvdw.greens import greens_free_gradient_imag

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


def test_born_term_properties(rng):
    r1, r2 = random_pair(rng)
    scatter = rng.uniform(-1e-6, 1e-6, 3)
    alpha = 3e-38
    term = born_expanded_greens(r1, r2, scatter, OMEGA, alpha)
    doubled = born_expanded_greens(r1, r2, scatter, OMEGA, 2.0 * alpha)
    scale = np.max(np.abs(term))
    assert np.max(np.abs(doubled - 2.0 * term)) <= 1e-12 * scale
    zero = born_expanded_greens(r1, r2, scatter, OMEGA, 0.0)
    assert np.max(np.abs(zero)) == 0.0
    swapped = born_expanded_greens(r2, r1, scatter, OMEGA, alpha)
    assert np.max(np.abs(term - swapped.T)) <= 1e-12 * scale


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


def test_imaginary_frequency_tensor_is_real_and_decaying():
    zeta = OMEGA
    r_near = np.array([0.0, 0.0, 100e-9])
    r_far = np.array([0.0, 0.0, 400e-9])
    near = greens_free_imag(np.zeros(3), r_near, zeta)
    far = greens_free_imag(np.zeros(3), r_far, zeta)
    assert near.dtype == np.float64
    assert np.max(np.abs(far)) < np.max(np.abs(near))
    # Electrostatic kernel at small eta: continuing omega -> i zeta turns
    # k^2 negative, so the (3uu - I) form flips sign relative to real omega.
    k = zeta / c
    r = 1e-4 / k
    tensor = greens_free_imag(np.zeros(3), np.array([0.0, 0.0, r]), zeta)
    static = np.diag([1.0, 1.0, -2.0]) / (4.0 * math.pi * k * k * r**3)
    assert np.allclose(tensor, static, rtol=3e-4)


def test_imaginary_frequency_gradient_matches_finite_differences(rng):
    zeta = 0.7 * OMEGA
    for _ in range(5):
        r1, r2 = random_pair(rng)
        sep = np.linalg.norm(r1 - r2)
        analytic = greens_free_gradient_imag(r1, r2, zeta)
        h = 6e-6 * sep
        numeric = np.empty((3, 3, 3))
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = h
            numeric[axis] = (
                greens_free_imag(r1 + step, r2, zeta)
                - greens_free_imag(r1 - step, r2, zeta)
            ) / (2.0 * h)
        scale = np.max(np.abs(analytic))
        assert np.max(np.abs(analytic - numeric)) <= 1e-8 * scale


@pytest.mark.parametrize("eta", [1e-3, 0.05, 1.0, 7.0, 40.0])
def test_imaginary_frequency_forms_are_the_continued_kernel(eta: float):
    # At omega = i zeta the kernel must reduce to the explicit real forms in
    # eta = zeta r / c: a = 1 + 1/eta + 1/eta^2, b = -1 - 3/eta - 3/eta^2,
    # radial derivatives da = -eta - 2 - 3/eta - 3/eta^2 and
    # db = eta + 4 + 9/eta + 9/eta^2, decay e^{-eta}.
    dist = 400e-9
    unit = np.array([0.36, -0.48, 0.8])
    zeta = eta * c / dist
    inv = 1.0 / eta
    a = 1.0 + inv + inv * inv
    b = -1.0 - 3.0 * inv - 3.0 * inv * inv
    da = -eta - 2.0 - 3.0 * inv - 3.0 * inv * inv
    db = eta + 4.0 + 9.0 * inv + 9.0 * inv * inv
    decay = math.exp(-eta)
    uu = np.outer(unit, unit)
    tensor = decay / (4.0 * math.pi * dist) * (a * np.eye(3) + b * uu)
    proj = np.einsum("ki,j->kij", np.eye(3) - uu, unit)
    grad = decay / (4.0 * math.pi * dist * dist) * (
        np.einsum("k,ij->kij", unit, da * np.eye(3) + db * uu)
        + b * (proj + proj.swapaxes(1, 2))
    )

    got = greens_free_imag(dist * unit, np.zeros(3), zeta)
    got_grad = greens_free_gradient_imag(dist * unit, np.zeros(3), zeta)
    assert got.dtype == got_grad.dtype == np.float64
    assert np.max(np.abs(got - tensor)) <= 1e-14 * np.max(np.abs(tensor))
    assert np.max(np.abs(got_grad - grad)) <= 1e-14 * np.max(np.abs(grad))


def test_imaginary_frequency_forms_reject_nonpositive_zeta():
    r = np.array([0.0, 0.0, 1e-7])
    for zeta in (0.0, -OMEGA):
        with pytest.raises(ValueError):
            greens_free_imag(np.zeros(3), r, zeta)
        with pytest.raises(ValueError):
            greens_free_gradient_imag(np.zeros(3), r, zeta)


@pytest.mark.parametrize("k_ratio", [0.0, 0.4, 0.99, 2.5])
def test_mode_tensor_over_phi_array_matches_per_phi_calls(k_ratio: float):
    delta = np.array([0.3, -0.2, -0.8]) * WAVELENGTH
    k_par = k_ratio * OMEGA / c
    phis = np.linspace(0.0, 2.0 * math.pi, 13)
    stacked = greens_cylindrical_mode(delta, OMEGA, k_par, phis)
    assert stacked.shape == (13, 3, 3)
    for phi, tensor in zip(phis, stacked):
        single = greens_cylindrical_mode(delta, OMEGA, k_par, float(phi))
        assert single.shape == (3, 3)
        assert np.max(np.abs(tensor - single)) <= 1e-14 * np.max(np.abs(single))
