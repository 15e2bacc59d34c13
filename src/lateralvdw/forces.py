"""Resonant and non-resonant interatomic forces in the Born-expanded field.

The resonant force on the excited atom follows from the gradient of the
scattered-field sandwich d10 . G . alpha_B G . d01; for the circular x-z
dipole it acquires a lateral (x) component with a closed dimensionless
shape.  The ground-state partner sees the conjugated outbound propagator
instead, which kills the lateral component and the standing-wave
oscillation of its longitudinal force, so the pair forces do not balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    RUBIDIUM_MASS,
    RUBIDIUM_RESONANCE_WAVELENGTH,
    angular_frequency,
    c,
    hbar,
    mu_0,
)
from .greens import _greens, _greens_gradient, greens_free, greens_free_gradient
from .quadrature import QuadratureConfig, _qag
from .system import TwoAtomSystem, _closed_form_scale

__all__ = [
    "ForceResult",
    "lateral_force_shape",
    "lateral_force_closed_form",
    "resonant_force_on_a",
    "resonant_force_on_b",
    "nonresonant_force",
    "torque_about_com",
]


@dataclass
class ForceResult:
    """A force split as force = population * prefactor * shape_factor.

    ``prefactor`` is the closed-form scale d^2 alpha_B / (8 pi^2 eps0^2 r^7)
    in newtons and ``shape_factor`` the dimensionless per-component shapes,
    so the product identity is exact by construction.  For a system with N
    separations, ``force`` and ``shape_factor`` are (N, 3) and
    ``prefactor`` is (N,).
    """

    force: np.ndarray
    shape_factor: np.ndarray
    prefactor: float | np.ndarray
    population: float


# Maclaurin coefficients c_k of shape = xi^5 sum_k c_k xi^(2k), exact
# rationals, highest order first for np.polyval.  Ten terms leave a
# truncation error of 2e-18 relative at the switch.
_SHAPE_SERIES = (
    8 / 3515779592325, -4 / 22210424775, 16 / 1442235375, -8 / 15663375,
    8 / 482625, -4 / 11583, 8 / 2079, -4 / 315, -4 / 105, -2 / 5,
)
# Below the switch the closed form loses ~eps/xi^4 to cancellation.
_SHAPE_SERIES_SWITCH = 0.6


def lateral_force_shape(xi: float | np.ndarray) -> float | np.ndarray:
    """Dimensionless lateral force shape of the circular-dipole closed form.

    Multiplied by p1 d^2 alpha_B/(8 pi^2 eps0^2 r^7) it gives F_x for the
    right-handed dipole.  O(xi^5) at small xi, so the lateral force stays
    integrable against the 1/r^7 envelope; below xi = 0.6 the Maclaurin
    series replaces the cancelling closed form.  A float xi gives a float;
    an array of xi gives the array of shapes, bit for bit the scalar values.
    """
    xi = np.asarray(xi, dtype=float)
    positive = xi > 0.0
    if not positive.all():
        raise ValueError(f"xi must be positive, got {xi[~positive].flat[0]}")
    c2 = np.cos(2.0 * xi)
    s2 = np.sin(2.0 * xi)
    xi2 = xi * xi
    closed = 6.0 * xi * (3.0 - xi2) * c2 - (9.0 - 15.0 * xi2 + xi2 * xi2) * s2
    # Clipped so the unused series branch cannot overflow at large xi.
    small = np.minimum(xi, _SHAPE_SERIES_SWITCH)
    small2 = small * small
    series = small2 * small2 * small * np.polyval(_SHAPE_SERIES, small2)
    shape = np.where(xi < _SHAPE_SERIES_SWITCH, series, closed)
    return shape if shape.ndim else float(shape)


def _population_valid(p1: float) -> None:
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"excited-state population must lie in [0, 1], got {p1}")


def lateral_force_closed_form(system: TwoAtomSystem, p1: float) -> float | np.ndarray:
    """Closed-form lateral force F_x on atom A, newtons.

    Requires the circular x-z dipole convention; the sign follows the
    handedness (mirror dipoles give mirror forces).  A system with an
    array of separations gives the array of per-separation forces.
    """
    _population_valid(p1)
    _, hand = system.circular_parameters()
    return hand * p1 * _closed_form_scale(system) * lateral_force_shape(system.xi)


def _force_result(system: TwoAtomSystem, p1: float, force_unit: np.ndarray) -> ForceResult:
    # force_unit is the p1 = 1 force; report shapes against the closed-form
    # scale so the decomposition stays exact under reassembly.
    scale = _closed_form_scale(system)
    column = np.asarray(scale)[..., None]
    shape = force_unit / column
    return ForceResult(
        force=p1 * column * shape,
        shape_factor=shape,
        prefactor=scale,
        population=p1,
    )


# The scattered-field sandwich d10 . G(r, r_B) alpha_B G(r_B, r_A) . d01 is
# shared by both resonant forces, the mode-resolved emission density and the
# assisted decay rate; its coupling and its return leg live here only.


def _coupling(omega: float) -> float:
    """2 mu0^2 omega^4: the sandwich times this is a force (gradient) or hbar
    times a rate (imaginary part)."""
    return 2.0 * mu_0**2 * omega**4


def _return_leg(system: TwoAtomSystem) -> np.ndarray:
    """alpha_B G(r_B, r_A) . d01: (3,), or (N, 3) for N separations."""
    back = greens_free(system.position_b, system.position_a, system.omega_a)
    return system.alpha_b * (back @ np.conj(system.dipole_a))


def resonant_force_on_a(system: TwoAtomSystem, p1: float) -> ForceResult:
    """Resonant force on the excited atom from the field scattered by B.

    F = 2 mu0^2 p1 omega^4 Re grad [d10 . G(r, r_B) alpha_B G(r_B, r_A) . d01]
    evaluated at r = r_A, with the gradient acting on the outbound leg only.
    A system with N separations gives (N, 3) forces and shapes.
    """
    _population_valid(p1)
    grad = greens_free_gradient(system.position_a, system.position_b, system.omega_a)
    sandwich = np.einsum("a,...kab,...b->...k", system.dipole_a, grad, _return_leg(system))
    return _force_result(system, p1, _coupling(system.omega_a) * sandwich.real)


def resonant_force_on_b(system: TwoAtomSystem, p1: float) -> ForceResult:
    """Resonant force on the ground-state scatterer.

    Same structure as the force on A but with the fixed outbound propagator
    conjugated and the gradient acting on the leg that returns to A:
    F = 2 mu0^2 p1 omega^4 Re grad [d10 . G*(r_A, r_B) alpha_B G(r, r_A) . d01]
    at r = r_B.  The phase factors cancel pairwise, which removes both the
    lateral component and the standing-wave oscillation in z.  A system
    with N separations gives (N, 3) forces and shapes.
    """
    _population_valid(p1)
    omega = system.omega_a
    r_a, r_b = system.position_a, system.position_b
    d10 = system.dipole_a
    d01 = np.conj(d10)

    fixed = d10 @ np.conj(greens_free(r_a, r_b, omega))
    grad = greens_free_gradient(r_b, r_a, omega)
    sandwich = np.einsum("...a,...kab,b->...k", fixed, grad, d01) * system.alpha_b
    return _force_result(system, p1, _coupling(omega) * sandwich.real)


def nonresonant_force(
    system: TwoAtomSystem,
    resonance_wavelength_b: float = RUBIDIUM_RESONANCE_WAVELENGTH,
    config: QuadratureConfig | None = None,
) -> np.ndarray:
    """Ground-state-like force from the imaginary-frequency integral, newtons.

    F = (hbar mu0^2 / pi) * int_0^inf dzeta zeta^4
        Re grad Tr[alpha_A(i zeta) G(r, r_B, i zeta) alpha_B(i zeta) G(r_B, r_A, i zeta)]

    Atom A enters through the two-level tensor polarizability
    (2/hbar) d01 d10 omega_A / (omega_A^2 + zeta^2); atom B through a
    single-resonance scalar model anchored so that alpha_B(omega_A) matches
    the system value, with the resonance at ``resonance_wavelength_b``
    (Rb D2 by default).  Attractive, with the 1/r^7 near-field scaling and
    no lateral component.
    """
    cfg = config or QuadratureConfig()
    omega_a = system.omega_a
    omega_b = angular_frequency(resonance_wavelength_b)
    if omega_b <= omega_a:
        # The anchor alpha_B(omega_A) sits below the model resonance.
        raise ValueError("resonance of atom B must lie above the driving frequency")

    # Static value chosen so the model reproduces alpha_b at omega_a.
    alpha_b_static = system.alpha_b * (omega_b**2 - omega_a**2) / omega_b**2

    r_a, r_b = system.position_a, system.position_b
    dyad = np.outer(np.conj(system.dipole_a), system.dipole_a)
    # Only the real (symmetric) part survives Re Tr{...} with real tensors.
    dyad_sym = dyad.real

    # The integrand has a finite zeta -> 0 limit but the tensors are written
    # in terms of 1/zeta; the floor keeps an (unsampled) endpoint harmless.
    zeta_floor = 1e-9 * omega_a

    def integrand(zeta: np.ndarray) -> np.ndarray:
        # One row per node: the kernels take a per-row frequency i zeta.
        zeta = np.maximum(zeta, zeta_floor)
        kappa_a = 2.0 / hbar * omega_a / (omega_a**2 + zeta**2)
        alpha_b = alpha_b_static * omega_b**2 / (omega_b**2 + zeta**2)
        rows_a = np.broadcast_to(r_a, zeta.shape + (3,))
        rows_b = np.broadcast_to(r_b, zeta.shape + (3,))
        g_back = _greens(rows_b, rows_a, 1j * zeta).real
        grad = _greens_gradient(rows_a, rows_b, 1j * zeta).real
        # grad of Tr[dyad . G(r, r_B) . G(r_B, r_A)] at r = r_A.
        contract = np.einsum("ij,nkjb,nbi->nk", dyad_sym, grad, g_back)
        return (zeta**4 * kappa_a * alpha_b)[:, None] * contract

    zeta_max = cfg.tail_cutoff_decades * c / (2.0 * system.separation)
    fvec = _qag(
        integrand,
        0.0,
        zeta_max,
        QuadratureConfig(
            rel_tol=min(cfg.rel_tol, 1e-10),
            abs_tol=0.0,
            max_subdivisions=max(cfg.max_subdivisions, 200),
        ),
    )
    return hbar * mu_0**2 / math.pi * fvec


def torque_about_com(
    system: TwoAtomSystem, p1: float, mass_b: float = RUBIDIUM_MASS
) -> np.ndarray:
    """Torque of the pair forces about the two-atom center of mass, N m.

    Only the lateral force on A contributes: the force on B is purely
    longitudinal and its lever arm is parallel to it.
    """
    if mass_b <= 0.0:
        raise ValueError(f"mass_b must be positive, got {mass_b}")
    force_a = resonant_force_on_a(system, p1).force
    force_b = resonant_force_on_b(system, p1).force
    z_com = mass_b / (system.mass_a + mass_b) * system.position_b[2]
    com = np.array([0.0, 0.0, z_com])
    torque = np.cross(system.position_a - com, force_a)
    torque += np.cross(system.position_b - com, force_b)
    return torque
