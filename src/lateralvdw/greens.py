"""Free-space dyadic Green's tensor of the electric field wave equation.

Closed form, analytic spatial gradient and the lateral-momentum
(cylindrical wave) resolution.  The single-scatterer Born term
G(r, r_B) alpha_B G(r_B, r_A) is assembled in ``forces``.  The closed form is
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
    "greens_free_from_modes",
    "greens_free_imag",
    "greens_free_gradient_imag",
]

_EYE = np.eye(3)
_DIAGONAL = np.arange(3)


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


def _displacements(r_from, r_to, omega) -> tuple:
    """Flattened rows of r_from - r_to: leading shape, distances, unit vectors, xi.

    Leading axes broadcast, so (3,) points give one row and (N, 3) stacks N.
    A complex omega gives a complex xi; an (N,) array of frequencies with
    (3,) points gives N rows that share one displacement.
    """
    rr = np.asarray(r_from, dtype=float) - np.asarray(r_to, dtype=float)
    lead = np.broadcast_shapes(rr.shape[:-1], np.shape(omega))
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


def _greens(r_from, r_to, omega) -> np.ndarray:
    lead, dist, unit, xi = _displacements(r_from, r_to, omega)
    a, b = _shape_coefficients(xi)
    scale = np.exp(1j * xi) / (4.0 * math.pi * dist)
    uu = unit[:, :, None] * unit[:, None, :]
    tensor = scale[:, None, None] * (a[:, None, None] * _EYE + b[:, None, None] * uu)
    return tensor.reshape(lead + (3, 3))


def _greens_gradient(r_from, r_to, omega) -> np.ndarray:
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


def _mode_factors(dx: float, dy: float, dz: float, omega: float, k_par, k_perp,
                  phi: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scalar weight w and wave vector k of each mode; the tensor is w (I - (c/omega)^2 k k).

    w = i e^{i (k_par (dx cos phi + dy sin phi) + k_perp |dz|)} / (8 pi^2 k_perp)
    and k = (k_par cos phi, k_par sin phi, sign(dz) k_perp).  k_par (K,) and phi
    (P,) give w over the (K, P) grid and k as (K, P, 3); a float phi drops
    the P axis and float k_par, k_perp drop the K axis.  k_perp is taken as
    given, so an integrator can pass k cos(theta) on the propagating side
    instead of a square root that cancels near the light line.
    """
    grid = np.shape(k_par) + (1,) * np.ndim(phi)
    k_par, k_perp = np.reshape(k_par, grid), np.reshape(k_perp, grid)
    cos_p, sin_p = np.cos(phi), np.sin(phi)
    kvec = np.empty(np.broadcast_shapes(grid, np.shape(phi)) + (3,), dtype=complex)
    kvec[..., 0] = k_par * cos_p
    kvec[..., 1] = k_par * sin_p
    kvec[..., 2] = math.copysign(1.0, dz) * k_perp
    # e^{i k_perp |dz|} depends on the node only; the lateral phase on both.
    node = 1j / (8.0 * math.pi**2 * k_perp) * np.exp(1j * abs(dz) * k_perp)
    return node * np.exp(k_par * (1j * (dx * cos_p + dy * sin_p))), kvec


def _mode_tensors(weight: np.ndarray, kvec: np.ndarray, omega: float) -> np.ndarray:
    """Mode tensor densities w (I - (c/omega)^2 k k) from the _mode_factors.

    Any leading axes of w and k carry over: (K, P, 3, 3) on the (K, P) grid,
    one (3, 3) tensor for scalars.  Built as the dyad of -(c/omega)^2 w k
    with k plus w on the diagonal: one full-size product instead of four.
    """
    scaled = (-((c / omega) ** 2) * weight)[..., None] * kvec
    tensor = scaled[..., :, None] * kvec[..., None, :]
    tensor[..., _DIAGONAL, _DIAGONAL] += weight[..., None]
    return tensor


def _mode_ring(dx: float, dy: float, dz: float, omega: float, k_par: np.ndarray,
               k_perp: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """The mode tensors of (K,) nodes at (P,) azimuths, azimuth first: (P, K, 9).

    Built on transposed views of the (K, P) factors; the 3 x 3 axes stay
    contiguous, so the reshape copies nothing.
    """
    weight, kvec = _mode_factors(dx, dy, dz, omega, k_par, k_perp, phis)
    tensor = _mode_tensors(weight.T, kvec.transpose(1, 0, 2), omega)
    return tensor.reshape(len(phis), -1, 9)


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
    if k_perp == 0.0:
        raise ValueError("mode tensor is singular on the light line k_par = omega/c")
    return _mode_tensors(*_mode_factors(dx, dy, dz, omega, k_par, k_perp, phi), omega)


def greens_free_from_modes(delta_r, omega: float,
                           config: QuadratureConfig | None = None) -> np.ndarray:
    """Closed-form tensor rebuilt by quadrature over its cylindrical modes.

    Serves as the independent numerical route against greens_free; the
    azimuthal integral runs first, for each batch of k_par nodes at once,
    then the k_par axis is integrated separately on the propagating and
    evanescent sides.
    """
    dx, dy, dz = np.asarray(delta_r, dtype=float)
    if dz == 0.0:
        raise ValueError("mode resolution requires a nonzero z displacement")

    def integrand(k_par: np.ndarray, k_perp: np.ndarray) -> np.ndarray:
        # One azimuth ring for the whole batch of K nodes.
        ring = integrate_angle(
            lambda phis: _mode_ring(dx, dy, dz, omega, k_par, k_perp, phis), config
        )
        return k_par[:, None] * ring

    total = integrate_propagating(integrand, omega, config)
    total = total + integrate_evanescent(integrand, omega, abs(dz), config)
    return total.reshape(3, 3)


def greens_free_imag(r_from, r_to, zeta: float) -> np.ndarray:
    """Green's tensor at imaginary frequency omega = i zeta; real, 1/m."""
    _check_positive("zeta", zeta)
    return _greens(r_from, r_to, 1j * zeta).real


def greens_free_gradient_imag(r_from, r_to, zeta: float) -> np.ndarray:
    """Gradient of greens_free_imag with respect to r_from; grad[k, i, j]."""
    _check_positive("zeta", zeta)
    return _greens_gradient(r_from, r_to, 1j * zeta).real
