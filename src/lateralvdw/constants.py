"""Physical constants and default atom parameters for the Cs-Rb scenario.

All quantities are SI unless a name says otherwise.
"""

import math
import numbers

import numpy as np
from scipy.constants import atomic_mass, c, hbar, mu_0

__all__ = [
    "c",
    "epsilon_0",
    "mu_0",
    "hbar",
    "atomic_mass",
    "CESIUM_DIPOLE",
    "CESIUM_WAVELENGTH",
    "CESIUM_MASS",
    "RUBIDIUM_MASS",
    "RUBIDIUM_POLARIZABILITY_VOLUME",
    "RUBIDIUM_POLARIZABILITY",
    "RUBIDIUM_RESONANCE_WAVELENGTH",
    "angular_frequency",
]

# Derived, so mu_0 eps0 c^2 = 1 in the floats; CODATA's two values miss it by 1.19e-12.
epsilon_0 = 1.0 / (mu_0 * c * c)

# Transition dipole magnitude of the driven Cs line, C m.
CESIUM_DIPOLE = 1.9e-29

# Cs D2 transition wavelength, m.
CESIUM_WAVELENGTH = 852e-9

CESIUM_MASS = 132.90545196 * atomic_mass

# Rb-87; only the ground-state response of atom B enters, so the isotope
# choice only matters for the center-of-mass lever arm.
RUBIDIUM_MASS = 86.909180531 * atomic_mass

# Ground-state Rb polarizability volume at the Cs D2 frequency, m^3.
RUBIDIUM_POLARIZABILITY_VOLUME = 293e-30

# Same quantity in SI units (F m^2): alpha = 4 pi eps0 * volume.
RUBIDIUM_POLARIZABILITY = 4.0 * math.pi * epsilon_0 * RUBIDIUM_POLARIZABILITY_VOLUME

# Rb D2 line, anchor for the single-resonance model of alpha_B at
# imaginary frequency.
RUBIDIUM_RESONANCE_WAVELENGTH = 780.241e-9


# The input-domain rules every layer checks at its boundary.  The closed
# forms hold for a finite, positive d, alpha_B, omega, r and xi = omega r / c;
# a nan or inf let through would come back as nan results or numpy warnings.

# x^4 overflows from the fourth root of the largest float up: xi^4 in the
# shape.
_FOURTH_POWER_LIMIT = float(np.finfo(float).max) ** 0.25
# The lowest omega_A a TwoAtomSystem takes, c over the square root of the
# largest float (about 2.2e-146 rad/s), where (c/omega)^2 would overflow.
_OMEGA_FLOOR = c / math.sqrt(float(np.finfo(float).max))


def _require_positive(name: str, value, low: float = 0.0, high: float = math.inf) -> None:
    """Raise ValueError naming ``name`` unless value is finite and positive.

    ``low`` and ``high`` narrow the open range (0, inf) to the one a closed
    form covers before it overflows, and the message then names them.  A
    float costs one comparison; an ndarray is checked entry by entry and
    the message names its first bad entry.
    """
    if isinstance(value, np.ndarray):
        # nan fails both comparisons.
        bad = ~((value > low) & (value < high))
        if not bad.any():
            return
        value = value[bad].flat[0]
    elif low < value < high:
        return
    supported = "" if (low, high) == (0.0, math.inf) else f" in the supported range ({low!r}, {high!r})"
    raise ValueError(f"{name} must be finite and positive{supported}, got {value}")


def _require_finite(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless every entry of value is finite."""
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite, got {value}")


def _require_count(name: str, value, minimum: int) -> None:
    """Raise ValueError naming ``name`` unless value is an integer >= minimum.

    A bool is not a count, and neither is a float with an integral value.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def angular_frequency(wavelength: float) -> float:
    """Angular frequency (rad/s) of light with the given vacuum wavelength."""
    _require_positive("wavelength", wavelength)
    return 2.0 * math.pi * c / wavelength
