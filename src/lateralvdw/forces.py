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
    _FOURTH_POWER_LIMIT,
    _require_positive,
    angular_frequency,
    c,
    hbar,
    mu_0,
)
from .greens import _XI_FLOOR, _contractions, _displacements, _radial_coefficients
from .quadrature import _TAIL_EFOLDS, QuadratureConfig, _qag
from .system import _ATOM_B_SIDE, TwoAtomSystem, _closed_form_scale, _require_float_separation

__all__ = [
    "ForceResult",
    "lateral_force_shape",
    "lateral_force_closed_form",
    "resonant_forces",
    "nonresonant_force",
    "torque_about_com",
]


@dataclass
class ForceResult:
    """A force split as force = population * prefactor * shape_factor.

    ``prefactor`` is the closed-form scale d^2 alpha_B / (8 pi^2 eps0^2 r^7)
    in newtons and ``shape_factor`` the dimensionless per-component shapes,
    computed directly, so the product identity is exact by construction.
    For a system with N separations, ``force`` and ``shape_factor`` are
    (N, 3) and ``prefactor`` is (N,).
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
    xi must lie below _FOURTH_POWER_LIMIT (about 1.2e77), where xi^4 overflows.
    """
    xi = np.asarray(xi, dtype=float)
    _require_positive("xi", xi, high=_FOURTH_POWER_LIMIT)
    # Each branch runs on its own entries only; a float is a 0-d array here.
    shape = np.empty_like(xi)
    small = xi < _SHAPE_SERIES_SWITCH
    if small.any():
        x = xi[small]
        x2 = x * x
        shape[small] = x2 * x2 * x * np.polyval(_SHAPE_SERIES, x2)
    large = ~small
    if large.any():
        x = xi[large]
        x2 = x * x
        c2, s2 = np.cos(2.0 * x), np.sin(2.0 * x)
        shape[large] = 6.0 * x * (3.0 - x2) * c2 - (9.0 - 15.0 * x2 + x2 * x2) * s2
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


# Below this xi the xi^5 shapes, of amplitude at most |d/d|^2 = 2, stay under max/2.
_SHAPE_XI_HIGH = (float(np.finfo(float).max) / 4.0) ** 0.2


def _unit_leg(system: TwoAtomSystem) -> tuple:
    """(d10, leg, apply, gradient): the one leg of every resonant route, in units of r.

    B sits at -z at distance 1, xi stands for omega r / c and d10 = d/d,
    d^2 = |d|^2 / 2, is the unit dipole.  The leg xi^2 G . d01, (3,) or
    (N, 3), is also the return leg, since G is even in r_A - r_B; apply and
    gradient are greens._contractions of G.  xi must lie in
    (greens._XI_FLOOR, _SHAPE_XI_HIGH), about (2.9e-154, 3.4e61), where the
    1/xi^2 terms and the xi^5 shapes stay finite.
    """
    xi = system.xi
    _require_positive("xi", xi, low=_XI_FLOOR, high=_SHAPE_XI_HIGH)
    # Part by part: complex division would multiply by an inexact 1/d.
    d = math.sqrt(np.vdot(system.dipole_a, system.dipole_a).real / 2.0)
    d10 = system.dipole_a.real / d + 1j * (system.dipole_a.imag / d)
    apply, gradient = _contractions(np.zeros(3), (0.0, 0.0, _ATOM_B_SIDE), xi)
    leg = np.asarray(xi * xi)[..., None] * apply(np.conj(d10))
    return d10, leg, apply, gradient


def resonant_forces(system: TwoAtomSystem, p1: float) -> tuple[ForceResult, ForceResult]:
    """Resonant forces on the excited atom A and on the ground-state scatterer B.

    On A, from the field scattered by B, with the gradient acting on the
    outbound leg only:
    F_A = 2 mu0^2 p1 omega^4 Re grad [d10 . G(r, r_B) alpha_B G(r_B, r_A) . d01]
    at r = r_A.  On B, the fixed outbound propagator is conjugated and the
    gradient acts on the leg that returns to A:
    F_B = 2 mu0^2 p1 omega^4 Re grad [d10 . G*(r_A, r_B) alpha_B G(r, r_A) . d01]
    at r = r_B.  The phase factors of F_B cancel pairwise, which removes
    both its lateral component and the standing-wave oscillation in z.

    The shapes are computed directly in units of r (_unit_leg): with
    mu0 eps0 c^2 = 1, each shape is 16 pi^2 xi^2 Re[l . grad G . xi^2 G . w]
    and each force p1 times the closed-form scale times it, with no SI
    product.  G is even in r_A - r_B and its gradient odd, so one leg
    xi^2 G . d01 and one gradient serve both: (l, w) is (d10, leg) for A
    and, negated, (leg*, d01) for B.  N separations give (N, 3) results;
    xi must lie in _unit_leg's range, and a force past max raises ValueError.
    """
    _population_valid(p1)
    xi = system.xi
    d10, leg, _, gradient = _unit_leg(system)
    sandwiches = np.stack([gradient(d10, leg), -gradient(np.conj(leg), np.conj(d10))])
    shapes = 16.0 * math.pi**2 * np.asarray(xi * xi)[..., None] * sandwiches.real
    scale = _closed_form_scale(system)
    with np.errstate(over="ignore"):
        forces = p1 * np.asarray(scale)[..., None] * shapes
    if not np.isfinite(forces).all():
        raise ValueError("resonant force must be finite, but scale times shape overflows")
    return tuple(ForceResult(force, shape, scale, p1) for force, shape in zip(forces, shapes))


def _trace_gradient_imag(dyad: np.ndarray, r_a: np.ndarray, r_b: np.ndarray):
    """grad_k Tr[D G(r, r_B, i zeta) G(r_B, r_A, i zeta)] at r = r_A, as a function of zeta.

    D is a real symmetric (3, 3) dyad.  The returned callable takes (N,)
    frequencies zeta and (N,) weights and gives the (N, 3) weighted rows.
    With both tensors A I + B uu and the gradient from
    greens._radial_coefficients, the trace contracts to
    u_k [A A' Tr D + (A B' + B A' + B B') u.D.u] + (B/r)(2A + B) P_k,
    P = D u - (u.D.u) u: three dyad invariants, fixed per call, and no
    (N, 3, 3) or (N, 3, 3, 3) tensor stack.
    """
    _, dist, unit = _displacements(r_a, r_b)
    dist, unit = dist[0], unit[:, 0]
    radial = unit @ dyad @ unit
    trace = np.trace(dyad)
    axes = np.stack([unit, dyad @ unit - radial * unit])
    # Every term carries phase^2 / (16 pi^2 r^3) times a product of shapes.
    scale = 1.0 / (16.0 * math.pi**2 * dist**3)

    def contraction(zeta: np.ndarray, weight: np.ndarray) -> np.ndarray:
        # At omega = i zeta every coefficient is real (xi = i eta).
        phase, a, b, da, db = (part.real for part in _radial_coefficients(1j * zeta * dist / c))
        weight = weight * (scale * phase * phase)
        rows = np.empty((len(zeta), 2))
        rows[:, 0] = weight * (a * da * trace + (a * db + b * (da + db)) * radial)
        rows[:, 1] = weight * b * (2.0 * a + b)
        return rows @ axes

    return contraction


# The zeta integral's tolerance is relative only: the force spans many
# decades with the separation.
_NONRESONANT_QUADRATURE = QuadratureConfig(rel_tol=1e-10, abs_tol=0.0)


def nonresonant_force(
    system: TwoAtomSystem,
    resonance_wavelength_b: float = RUBIDIUM_RESONANCE_WAVELENGTH,
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
    _require_float_separation(system, "nonresonant_force")
    omega_a = system.omega_a
    omega_b = angular_frequency(resonance_wavelength_b)
    if omega_b <= omega_a:
        # The anchor alpha_B(omega_A) sits below the model resonance.
        raise ValueError("resonance of atom B must lie above the driving frequency")

    # Static value chosen so the model reproduces alpha_b at omega_a.
    alpha_b_static = system.alpha_b * (omega_b**2 - omega_a**2) / omega_b**2

    dyad = np.outer(np.conj(system.dipole_a), system.dipole_a)
    # Only the real (symmetric) part survives Re Tr{...} with real tensors.
    contraction = _trace_gradient_imag(dyad.real, system.position_a, system.position_b)

    # The integrand has a finite zeta -> 0 limit but the tensors are written
    # in terms of 1/zeta; the floor keeps an (unsampled) endpoint harmless.
    zeta_floor = 1e-9 * omega_a

    def integrand(zeta: np.ndarray) -> np.ndarray:
        zeta = np.maximum(zeta, zeta_floor)
        kappa_a = 2.0 / hbar * omega_a / (omega_a**2 + zeta**2)
        alpha_b = alpha_b_static * omega_b**2 / (omega_b**2 + zeta**2)
        return contraction(zeta, zeta**4 * kappa_a * alpha_b)

    zeta_max = _TAIL_EFOLDS * c / (2.0 * system.separation)
    return hbar * mu_0**2 / math.pi * _qag(integrand, 0.0, zeta_max, _NONRESONANT_QUADRATURE)


def torque_about_com(
    system: TwoAtomSystem, p1: float, mass_b: float = RUBIDIUM_MASS
) -> np.ndarray:
    """Torque of the pair forces about the two-atom center of mass, N m.

    Only the lateral force on A contributes: the force on B is purely
    longitudinal and its lever arm is parallel to it.
    """
    _require_float_separation(system, "torque_about_com")
    _require_positive("mass_b", mass_b)
    on_a, on_b = resonant_forces(system, p1)
    z_com = mass_b / (system.mass_a + mass_b) * system.position_b[2]
    com = np.array([0.0, 0.0, z_com])
    torque = np.cross(system.position_a - com, on_a.force)
    torque += np.cross(system.position_b - com, on_b.force)
    return torque
