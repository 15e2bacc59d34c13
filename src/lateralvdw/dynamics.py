"""Decay rates, excited-state population and recoil velocity estimates."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import _require_finite, _require_positive, c, hbar, mu_0
from .forces import _coupling, _legs, lateral_force_closed_form
from .system import TwoAtomSystem, _require_float_separation

__all__ = [
    "DecayRates",
    "DrivingParams",
    "assisted_decay_rate",
    "steady_state_population",
    "accumulated_velocity",
    "lateral_velocity",
    "impulse_velocity_single_shot",
]


@dataclass
class DecayRates:
    """Free-space rate, scatterer-induced correction and their sum, 1/s.

    For a system with N separations the correction and the sum are (N,).
    """

    gamma_free: float
    gamma_correction: float | np.ndarray

    @property
    def gamma_total(self) -> float | np.ndarray:
        return self.gamma_free + self.gamma_correction


@dataclass
class DrivingParams:
    """Weak coherent drive: Rabi frequency, detuning and duration (SI)."""

    rabi: float
    detuning: float
    duration: float

    def __post_init__(self):
        _require_positive("rabi", self.rabi)
        _require_finite("detuning", self.detuning)
        _require_positive("duration", self.duration)


def _free_decay_rate(system: TwoAtomSystem) -> float:
    """Free-space spontaneous decay rate of atom A, 1/s.

    Gamma = (2 mu0 omega^2 / hbar) |d|^2 Im G(r, r, omega) per component,
    with the coincidence limit Im G = omega/(6 pi c) I; |d|^2 sums the
    squared moduli of the dipole components (2 d^2 for the circular one).
    """
    omega = system.omega_a
    dsq = float(np.vdot(system.dipole_a, system.dipole_a).real)
    return 2.0 * mu_0 * omega**2 / hbar * omega / (6.0 * math.pi * c) * dsq


def assisted_decay_rate(system: TwoAtomSystem) -> DecayRates:
    """Decay rate including the scatterer-assisted correction.

    The correction is (2 mu0^2/hbar) omega^4 Im[d10 . G(r_A, r_B) alpha_B
    G(r_B, r_A) . d01]; it oscillates in sign with separation and is the
    closed-form counterpart of the mode-resolved density integral.  A
    system with N separations gives (N,) corrections.
    """
    leg, apply, _ = _legs(system)
    outbound = apply(system.dipole_a)
    # Row by row as a (1, 3) @ (3, 1) product: the bits of the scalar dot.
    sandwich = (outbound[..., None, :] @ (system.alpha_b * leg)[..., :, None])[..., 0, 0]
    return DecayRates(
        gamma_free=_free_decay_rate(system),
        gamma_correction=_coupling(system.omega_a) / hbar * sandwich.imag,
    )


def steady_state_population(
    drive: DrivingParams, gamma_total: float | None = None
) -> float:
    """Weak-drive steady-state excited population Omega^2 / (4 Delta^2).

    Valid for Gamma << Omega << |Delta|.  The upper bound Omega <= |Delta|/5
    is checked on every call and the lower bound 5 Gamma <= Omega when
    ``gamma_total`` is supplied; a violation produces a warning, not an
    error.  A drive with Omega > 2 |Delta| would give p1 > 1; it is clamped
    to 1, with that warning alone.  The clamp comes before any square can
    overflow or underflow: from Omega > 4 |Delta| on no square is taken.
    Below that, Omega and |Delta| outside [2^-511, 2^509], where a square
    would leave the normal floats, are first scaled by the power of two
    that brings |Delta| into [0.5, 1).
    """
    if drive.detuning == 0.0:
        raise ValueError("steady-state population requires a nonzero detuning")
    rabi, detuning = drive.rabi, abs(drive.detuning)
    p1 = math.inf
    if rabi <= 4.0 * detuning:
        if not (2.0**-511 <= min(rabi, detuning) and detuning <= 2.0**509):
            scale = -math.frexp(detuning)[1]
            rabi, detuning = math.ldexp(rabi, scale), math.ldexp(detuning, scale)
        p1 = rabi**2 / (4.0 * detuning**2)
    if p1 > 1.0:
        warnings.warn(
            f"Omega^2 / (4 Delta^2) exceeds 1 at Omega = {drive.rabi!r}, Delta = "
            f"{drive.detuning!r}; the population is clamped to 1",
            stacklevel=2,
        )
        return 1.0
    if gamma_total is None:
        regime, floor = "Omega << |Delta|", 0.0
    else:
        regime, floor = "Gamma << Omega << |Delta|", 5.0 * gamma_total
    if not (floor <= drive.rabi <= abs(drive.detuning) / 5.0):
        warnings.warn(
            f"drive outside the weak-excitation regime {regime}; "
            "the steady-state formula is only a leading-order estimate",
            stacklevel=2,
        )
    return p1


def accumulated_velocity(force, duration: float, mass: float):
    """Velocity v = force * duration / mass gained from rest under a constant force, m/s.

    A float force gives a float; an array of forces (one per separation)
    gives the array of velocities.
    """
    return force * duration / mass


def lateral_velocity(system: TwoAtomSystem, drive: DrivingParams) -> float | np.ndarray:
    """Lateral velocity accumulated over the drive duration, m/s.

    The accumulated_velocity of the closed-form lateral force at the
    steady-state population p1 of the drive: v = F_x(p1) * duration / mass_A.
    A system with N separations gives N velocities.
    """
    force = lateral_force_closed_form(system, steady_state_population(drive))
    return accumulated_velocity(force, drive.duration, system.mass_a)


def impulse_velocity_single_shot(system: TwoAtomSystem, rates: DecayRates) -> float:
    """Velocity from one excitation decaying at Gamma_total, m/s.

    The lateral impulse of a single emission event is F_x(p1 = 1) times the
    excited-state lifetime.
    """
    _require_float_separation(system, "impulse_velocity_single_shot")
    _require_positive("gamma_total", rates.gamma_total)
    force = lateral_force_closed_form(system, 1.0)
    return force / (system.mass_a * rates.gamma_total)
