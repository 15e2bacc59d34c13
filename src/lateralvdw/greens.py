"""Free-space dyadic Green's tensor of the electric field wave equation.

Closed form, analytic spatial gradient, the lateral-momentum (cylindrical
wave) resolution, and the single-scatterer Born term.  The closed form is
organised as dimensionless shape coefficients of xi = omega r / c times an
explicit 1/(4 pi r) scale, so nothing underflows even at deeply
sub-wavelength separations where SI intermediates get small.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import c
from .quadrature import (
    QuadratureConfig,
    integrate_angle,
    integrate_evanescent,
    integrate_propagating,
    transverse_wavenumber,
)

__all__ = [
    "greens_free",
    "greens_free_gradient",
    "greens_cylindrical_mode",
    "born_expanded_greens",
    "greens_free_from_modes",
    "greens_free_imag",
    "greens_free_gradient_imag",
]

_EYE = np.eye(3)


def _shape_coefficients(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transverse and radial scalar shapes a, b with
    G = e^{i xi}/(4 pi r) * (a I + b RR), one per entry of xi."""
    inv = 1.0 / xi
    a = 1.0 + 1j * inv - inv * inv
    b = -1.0 - 3j * inv + 3.0 * inv * inv
    return a, b


def _check_positive(name: str, value: float) -> None:
    if value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value}")


def _displacements(r_from, r_to, omega: complex) -> tuple:
    """Flattened rows of r_from - r_to: leading shape, distances, unit vectors, xi.

    Leading axes broadcast, so (3,) points give one row and (N, 3) stacks N.
    A complex omega gives a complex xi.
    """
    rr = np.asarray(r_from, dtype=float) - np.asarray(r_to, dtype=float)
    lead = rr.shape[:-1]
    rr = rr.reshape(-1, 3)
    dist = np.linalg.norm(rr, axis=-1)
    if (dist == 0.0).any():
        raise ValueError("Green's tensor requires two distinct points")
    return lead, dist, rr / dist[:, None], omega * dist / c


# The two kernels below take omega on the real axis or, for the
# imaginary-frequency forms, at omega = i zeta.  There xi = i eta and every
# coefficient continues term by term: a = 1 + 1/eta + 1/eta^2, the phase
# e^{i xi} becomes e^{-eta}, and the tensors come out real (the standard
# Lifshitz / Casimir-Polder rotation).


def _greens(r_from, r_to, omega: complex) -> np.ndarray:
    lead, dist, unit, xi = _displacements(r_from, r_to, omega)
    a, b = _shape_coefficients(xi)
    scale = np.exp(1j * xi) / (4.0 * math.pi * dist)
    uu = unit[:, :, None] * unit[:, None, :]
    tensor = scale[:, None, None] * (a[:, None, None] * _EYE + b[:, None, None] * uu)
    return tensor.reshape(lead + (3, 3))


def _greens_gradient(r_from, r_to, omega: complex) -> np.ndarray:
    lead, dist, unit, xi = _displacements(r_from, r_to, omega)
    inv = 1.0 / xi
    phase = np.exp(1j * xi)

    _, b = _shape_coefficients(xi)
    # Radial derivatives of the scalar coefficients A(r) = e^{i xi} a/(4 pi r)
    # and B(r) = e^{i xi} b/(4 pi r), expressed as shapes over 1/(4 pi r^2).
    da = 1j * xi - 2.0 - 3j * inv + 3.0 * inv * inv
    db = -1j * xi + 4.0 + 9j * inv - 9.0 * inv * inv

    s2 = phase / (4.0 * math.pi * dist * dist)
    b_over_r = phase * b / (4.0 * math.pi * dist * dist)

    uu = unit[:, :, None] * unit[:, None, :]
    radial = da[:, None, None] * _EYE + db[:, None, None] * uu
    term = (s2[:, None] * unit)[:, :, None, None] * radial[:, None, :, :]
    # proj[k, i, j] = (delta_ki - u_k u_i) u_j, the transverse part of e_k.
    proj = (_EYE - uu)[:, :, :, None] * unit[:, None, None, :]
    grad = term + b_over_r[:, None, None, None] * (proj + proj.swapaxes(-1, -2))
    return grad.reshape(lead + (3, 3, 3))


def greens_free(r_from, r_to, omega: float) -> np.ndarray:
    """Free-space dyadic Green's tensor G(r_from, r_to, omega), units 1/m.

    Points of shape (3,) give a (3, 3) tensor; stacked points of shape
    (N, 3) give the (N, 3, 3) stack of per-row tensors.
    """
    _check_positive("omega", omega)
    return _greens(r_from, r_to, omega)


def greens_free_gradient(r_from, r_to, omega: float) -> np.ndarray:
    """Gradient of greens_free with respect to r_from.

    Returns grad[..., k, i, j] = d G_ij / d r_from[k], units 1/m^2: shape
    (3, 3, 3) for single points and (N, 3, 3, 3) for (N, 3) stacks.
    """
    _check_positive("omega", omega)
    return _greens_gradient(r_from, r_to, omega)


def _mode_tensors(dx: float, dy: float, dz: float, omega: float, k_par: float,
                  k_perp: complex, phi: float | np.ndarray) -> np.ndarray:
    """Mode tensor density at azimuth phi: (3, 3) for a float, (P, 3, 3) for (P,).

    k_perp is taken as given, so an integrator can pass k cos(theta) on the
    propagating side instead of a square root that cancels near the light line.
    """
    cos_p, sin_p = np.cos(phi), np.sin(phi)
    kvec = np.empty(np.shape(phi) + (3,), dtype=complex)
    kvec[..., 0] = k_par * cos_p
    kvec[..., 1] = k_par * sin_p
    kvec[..., 2] = math.copysign(1.0, dz) * k_perp
    phase = np.exp(1j * (k_par * (dx * cos_p + dy * sin_p) + k_perp * abs(dz)))
    tensor = _EYE - (c / omega) ** 2 * kvec[..., :, None] * kvec[..., None, :]
    return (1j / (8.0 * math.pi**2 * k_perp) * phase)[..., None, None] * tensor


def greens_cylindrical_mode(delta_r, omega: float, k_par: float,
                            phi: float | np.ndarray) -> np.ndarray:
    """Tensor density of the lateral-momentum resolution of greens_free.

    Integrating the result against k_par dk_par dphi over [0, inf) x
    [0, 2 pi) reproduces the closed-form tensor for the same displacement.
    ``delta_r`` is r_from - r_to and must have a nonzero z component, since
    the plane-wave factorisation exp(i k_perp |dz|) assumes the observation
    plane does not contain the source.  A float phi gives a (3, 3) tensor;
    an array of P azimuths gives the (P, 3, 3) stack.
    """
    _check_positive("omega", omega)
    if k_par < 0.0:
        raise ValueError(f"k_par must be nonnegative, got {k_par}")
    dx, dy, dz = np.asarray(delta_r, dtype=float)
    if dz == 0.0:
        raise ValueError("cylindrical mode tensor requires a nonzero z displacement")
    k_perp = transverse_wavenumber(k_par, omega)
    return _mode_tensors(dx, dy, dz, omega, k_par, k_perp, phi)


def born_expanded_greens(r, r_prime, r_scatter, omega: float, alpha_b: float) -> np.ndarray:
    """Single-scatterer correction mu0 omega^2 G(r, r_s) alpha_B G(r_s, r')."""
    from .constants import mu_0

    g_out = greens_free(r, r_scatter, omega)
    g_back = greens_free(r_scatter, r_prime, omega)
    return mu_0 * omega**2 * alpha_b * (g_out @ g_back)


def greens_free_from_modes(delta_r, omega: float,
                           config: QuadratureConfig | None = None) -> np.ndarray:
    """Closed-form tensor rebuilt by quadrature over its cylindrical modes.

    Serves as the independent numerical route against greens_free; the
    azimuthal integral runs first at fixed k_par, then the k_par axis is
    integrated separately on the propagating and evanescent sides.
    """
    dr = np.asarray(delta_r, dtype=float)
    dist = abs(dr[2])
    if dist == 0.0:
        raise ValueError("mode resolution requires a nonzero z displacement")

    def ring(k_par: float) -> np.ndarray:
        return integrate_angle(
            lambda phis: greens_cylindrical_mode(dr, omega, k_par, phis).reshape(-1, 9),
            config,
        )

    def integrand(k_par: float, _k_perp: complex) -> np.ndarray:
        return k_par * ring(k_par)

    total = integrate_propagating(integrand, omega, config)
    total = total + integrate_evanescent(integrand, omega, dist, config)
    return total.reshape(3, 3)


def greens_free_imag(r_from, r_to, zeta: float) -> np.ndarray:
    """Green's tensor at imaginary frequency omega = i zeta; real, 1/m."""
    _check_positive("zeta", zeta)
    return _greens(r_from, r_to, 1j * zeta).real


def greens_free_gradient_imag(r_from, r_to, zeta: float) -> np.ndarray:
    """Gradient of greens_free_imag with respect to r_from; grad[k, i, j]."""
    _check_positive("zeta", zeta)
    return _greens_gradient(r_from, r_to, 1j * zeta).real
