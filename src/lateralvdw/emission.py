"""Lateral-momentum-resolved emission and the photon-recoil spectrum.

The scatterer-induced part of the emission of the excited atom is resolved
in the lateral wave vector (k_par, phi).  Weighting each mode by its
lateral photon momentum hbar k_par and integrating over k_par gives the
recoil rate R(phi), whose azimuthal asymmetry is the momentum-space
picture of the lateral force: F_x = -p1 * int R cos(phi) dphi.

R has the closed form
    R = d^2 alpha_B / (64 pi^3 eps0^2 r^7) [f1 + f2 cos(2 phi) + f3 cos(phi)]
with dimensionless coefficients f1, f2, f3 of xi = omega r / c alone; the
quadrature route through the mode tensors, a dimensionless integral over
q = k_par/k times the same prefactor, must reproduce it, and does so to
1e-11 of the prefactor times |f1| + |f2| + |f3| from xi = 0.3 to 200.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import _require_count, _require_finite, _require_positive, hbar
from .forces import _unit_leg, lateral_force_shape
from .greens import (
    _MODE_TABLE,
    _SYMMETRIC,
    _azimuth_harmonics,
    _mode_monomials,
    _mode_node,
)
from .quadrature import (
    QuadratureConfig,
    _rows_times,
    integrate_k_par,
)
from .specfun import bessel_j, bessel_y
from .system import _ATOM_B_SIDE, TwoAtomSystem, _closed_form_scale, _require_float_separation

__all__ = [
    "SpectrumCoefficients",
    "EmissionSpectrum",
    "spectrum_coefficients",
    "recoil_rate_prefactor",
    "recoil_rate",
    "recoil_rate_quadrature",
    "recoil_rate_profile",
    "near_field_recoil_rate",
    "asymmetry",
    "assisted_rate_correction_quadrature",
    "emission_spectrum",
]


class SpectrumCoefficients(NamedTuple):
    f1: float | np.ndarray
    f2: float | np.ndarray
    f3: float | np.ndarray


@dataclass
class EmissionSpectrum:
    """Sampled recoil spectrum at one separation: rates[j] = R(phis[j]), N/rad."""

    separation: float
    xi: float
    phis: np.ndarray
    rates: np.ndarray
    f1: float
    f2: float
    f3: float


# The xi range of spectrum_coefficients, both ends open.  At the low end
# scipy.special.yv(2, xi) overflows to -inf, from this float down.  At the
# high end f1 oscillates under the envelope 2 sqrt(2 pi) xi^(9/2), which
# passes the largest float at about 2.2e68.
_SPECTRUM_XI_LOW = 1.2525537515082666e-152
_SPECTRUM_XI_HIGH = (float(np.finfo(float).max) / (2.0 * math.sqrt(2.0 * math.pi))) ** (2.0 / 9.0)


def spectrum_coefficients(xi: float | np.ndarray) -> SpectrumCoefficients:
    """Dimensionless azimuthal Fourier coefficients (f1, f2, f3) of R.

    f1 is the isotropic part, f2 the cos(2 phi) part fixed by the x-z
    dipole plane, and f3 the cos(phi) part that carries the lateral
    asymmetry; f1 and f2 involve Bessel functions of xi while f3 is -8
    times the lateral force shape.  A float xi gives floats; an array of
    xi gives arrays, bit for bit the scalar values.  xi must lie between
    _SPECTRUM_XI_LOW and _SPECTRUM_XI_HIGH (about 1.3e-152 and 2.2e68),
    where a Bessel function or f1 overflows.
    """
    xi = np.asarray(xi, dtype=float)
    _require_positive("xi", xi, _SPECTRUM_XI_LOW, _SPECTRUM_XI_HIGH)
    f3 = -8.0 * lateral_force_shape(xi)
    j1, j2 = bessel_j(1, xi), bessel_j(2, xi)
    y1, y2 = bessel_y(1, xi), bessel_y(2, xi)
    sin, cos = np.sin(xi), np.cos(xi)
    xi2 = xi * xi

    f1 = (
        math.pi
        * xi2
        * (
            2.0 * xi * j1 * ((xi2 - 1.0) * cos - xi * sin)
            + 3.0 * j2 * (5.0 * xi * sin - (xi2 - 5.0) * cos)
            - 2.0 * xi * y1 * ((xi2 - 1.0) * sin + xi * cos)
            + 3.0 * y2 * ((xi2 - 5.0) * sin + 5.0 * xi * cos)
        )
    )
    f2 = (
        3.0
        * math.pi
        * xi2
        * (
            j2 * ((1.0 - xi2) * cos + xi * sin)
            + y2 * (xi * (xi * sin + cos) - sin)
        )
    )
    if xi.ndim == 0:
        f1, f2 = float(f1), float(f2)
    return SpectrumCoefficients(f1, f2, f3)


def recoil_rate_prefactor(system: TwoAtomSystem) -> float:
    """Scale d^2 alpha_B / (64 pi^3 eps0^2 r^7) of the closed form, newtons.

    The force scale d^2 alpha_B / (8 pi^2 eps0^2 r^7) over 8 pi.
    """
    return _closed_form_scale(system) / (8.0 * math.pi)


def _recoil_bracket(coefficients: SpectrumCoefficients, hand: float, phi):
    """f1 + f2 cos(2 phi) + hand f3 cos(phi), for a float or an array of phi."""
    f1, f2, f3 = coefficients
    return f1 + f2 * np.cos(2.0 * phi) + hand * f3 * np.cos(phi)


def recoil_rate(system: TwoAtomSystem, phi: float) -> float:
    """Closed-form recoil rate R(phi) at unit excited population, N/rad.

    The handedness of the circular dipole mirrors the spectrum through the
    x-z plane, flipping the sign of the cos(phi) term only.
    """
    _require_float_separation(system, "recoil_rate")
    _require_finite("phi", phi)
    _, hand = system.circular_parameters()
    bracket = _recoil_bracket(spectrum_coefficients(system.xi), hand, phi)
    return recoil_rate_prefactor(system) * float(bracket)


def near_field_recoil_rate(system: TwoAtomSystem, phi: float) -> float:
    """Leading small-xi expansion of the recoil rate, N/rad.

    Keeps the xi^3, xi^4 and xi^5 orders of the closed form; the
    remainder is O(xi^6) relative to the leading isotropic-in-sin^2 term.
    """
    _require_finite("phi", phi)
    _, hand = system.circular_parameters()
    xi = system.xi
    sin_phi = math.sin(phi)
    cos_phi = math.cos(phi)
    cos_2phi = math.cos(2.0 * phi)
    bracket = (
        16.0 * xi**3 * sin_phi * sin_phi
        + math.pi * xi**4 / 8.0 * (7.0 + 3.0 * cos_2phi)
        + 2.0 * xi**5 / 15.0 * (35.0 + 24.0 * hand * cos_phi - 3.0 * cos_2phi)
    )
    return recoil_rate_prefactor(system) * bracket


def asymmetry(system: TwoAtomSystem) -> float:
    """Net forward-backward recoil asymmetry, newtons.

    Difference between the +x and -x half-plane integrals of R; only the
    cos(phi) coefficient survives, so this is d^2 alpha_B f3 /
    (16 pi^3 eps0^2 r^7) for the right-handed dipole.
    """
    _, hand = system.circular_parameters()
    _, _, f3 = spectrum_coefficients(system.xi)
    return 4.0 * hand * f3 * recoil_rate_prefactor(system)


def _mode_sandwich_profile(system: TwoAtomSystem, phis: float | np.ndarray | None):
    """Emission rate density g(q, phi) at a float azimuth, over P azimuths or per harmonic.

    g is the density per q dq dphi, q = k_par/k, of the scatterer-induced
    decay-rate correction (2 mu0^2 / hbar) omega^4 Im[d10 . G_mode(r_A - r_B)
    alpha_B G(r_B, r_A) . d01], the outbound leg resolved in the lateral
    momentum: in units of r (forces._unit_leg), 16 pi^2 xi^3
    Im[d10 . G_mode . leg] per r _closed_form_scale / hbar.  It is singular
    on the light line q_perp = 0, which the quadrature never samples.  The
    callable gives (K,) densities for a float phi, (K, P) for an array and,
    for None, the (K, 6) coefficients of the harmonic table H(phi).
    greens._MODE_TABLE contracts with the weights of d10 . T . leg to the
    sandwich's (4, 6) table of monomials by harmonics.
    """
    xi = system.xi
    d10, leg, _, _ = _unit_leg(system)
    weights = np.outer(d10, leg).ravel() @ np.eye(6)[_SYMMETRIC]
    table = _MODE_TABLE @ weights
    basis = np.eye(6) if phis is None else _azimuth_harmonics(phis)
    harmonics = 16.0 * math.pi**2 * xi**3 * basis
    side = -_ATOM_B_SIDE  # r_A - r_B is -_ATOM_B_SIDE xi z in units of 1/k

    def profile(q, q_perp) -> np.ndarray:
        # TwoAtomSystem puts both atoms on the z axis, so the lateral phase
        # e^{i q (dx cos phi + dy sin phi)} of the mode weight is exactly
        # 1 and the weight is the node factor alone.
        node = _mode_node(xi, q_perp)[..., None]
        return (node * (_mode_monomials(q, side * q_perp) @ table)).imag @ harmonics

    return profile


def _azimuths(n_phi: int) -> np.ndarray:
    """The equispaced grid 2 pi j / n_phi shared by every sampled spectrum."""
    _require_count("n_phi", n_phi, 8)
    return 2.0 * math.pi * np.arange(n_phi) / n_phi


def _k_par_moment(system: TwoAtomSystem, weight, phis: float | np.ndarray,
                  config: QuadratureConfig | None):
    """Integral of weight(q) g(q, phi) dq over both sides of the light line.

    The weight stays inside the integrand, so the tolerance applies to the
    weighted integral; an integrand past the float range raises ValueError.
    """
    density = _mode_sandwich_profile(system, phis)

    def integrand(q: np.ndarray, q_perp: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            values = _rows_times(density(q, q_perp), weight(q))
        if not np.isfinite(values).all():
            raise ValueError(f"emission integrand must be finite at xi = {system.xi!r}")
        return values

    return integrate_k_par(integrand, system.xi, config)


def _recoil_rate(system: TwoAtomSystem, phis, config: QuadratureConfig | None):
    """R(phi): the density weighted by hbar k_par k_par dk_par is 8 pi xi q^2 dq per prefactor."""
    momentum = 8.0 * math.pi * system.xi
    moment = _k_par_moment(system, lambda q: momentum * q * q, phis, config)
    return recoil_rate_prefactor(system) * moment


def recoil_rate_quadrature(
    system: TwoAtomSystem, phi: float, config: QuadratureConfig | None = None
) -> float:
    """Recoil rate by direct quadrature of hbar k_par times the density.

    The rule integrates the six harmonic coefficients, so its error control
    scales with the spectrum, not with an R(phi) that nearly cancels.
    """
    _require_float_separation(system, "recoil_rate_quadrature")
    _require_finite("phi", phi)
    return float(_azimuth_harmonics(phi) @ _recoil_rate(system, None, config))


def recoil_rate_profile(
    system: TwoAtomSystem, n_phi: int = 32, config: QuadratureConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature-route recoil rate on an equispaced azimuth grid.

    Returns (phis, R values).  One shared k_par quadrature serves every
    azimuth, which keeps moment extraction (force, asymmetry) cheap.
    """
    _require_float_separation(system, "recoil_rate_profile")
    phis = _azimuths(n_phi)
    return phis, _recoil_rate(system, phis, config)


def assisted_rate_correction_quadrature(
    system: TwoAtomSystem, config: QuadratureConfig | None = None
) -> float:
    """Decay-rate correction from the full (k_par, phi) mode integral, 1/s.

    The azimuthal content of the density stops at the second harmonic, so a
    32-point periodic trapezoid is exact and only the k_par axis needs
    adaptive quadrature.
    """
    _require_float_separation(system, "assisted_rate_correction_quadrature")
    phis = _azimuths(32)
    total = _k_par_moment(system, lambda q: q, phis, config)
    rate = np.sum(total) * (2.0 * math.pi / len(phis))
    return float(system.separation * _closed_form_scale(system) * rate / hbar)


def emission_spectrum(system: TwoAtomSystem, n_phi: int) -> EmissionSpectrum:
    """Closed-form recoil spectrum sampled on n_phi equispaced azimuths."""
    _require_float_separation(system, "emission_spectrum")
    phis = _azimuths(n_phi)
    _, hand = system.circular_parameters()
    coefficients = spectrum_coefficients(system.xi)
    rates = recoil_rate_prefactor(system) * _recoil_bracket(coefficients, hand, phis)
    return EmissionSpectrum(
        separation=system.separation,
        xi=system.xi,
        phis=phis,
        rates=rates,
        f1=coefficients.f1,
        f2=coefficients.f2,
        f3=coefficients.f3,
    )
