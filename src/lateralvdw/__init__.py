"""Lateral van der Waals forces on an excited circularly polarised atom.

A two-atom Born-series calculation: the resonant force on the excited
atom and on its ground-state partner, the closed-form lateral force, the
lateral-momentum-resolved emission spectrum whose asymmetry accounts for
that force as photon recoil, and the resulting velocity estimates, with
every closed form cross-checked against an independent quadrature route.

The package exports every layer module's ``__all__`` and the default atom
parameters of ``constants``; the physical constants stay in that module.
"""

from . import dynamics, emission, forces, greens, quadrature, specfun, system, validation
from .constants import (
    CESIUM_DIPOLE,
    CESIUM_MASS,
    CESIUM_WAVELENGTH,
    RUBIDIUM_MASS,
    RUBIDIUM_POLARIZABILITY,
    RUBIDIUM_POLARIZABILITY_VOLUME,
    angular_frequency,
)
from .dynamics import *  # noqa: F403
from .emission import *  # noqa: F403
from .forces import *  # noqa: F403
from .greens import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .specfun import *  # noqa: F403
from .system import *  # noqa: F403
from .validation import *  # noqa: F403

__version__ = "0.1.0"

_LAYERS = (system, specfun, quadrature, greens, forces, emission, dynamics, validation)

__all__ = [name for layer in _LAYERS for name in layer.__all__] + [
    "CESIUM_DIPOLE",
    "CESIUM_MASS",
    "CESIUM_WAVELENGTH",
    "RUBIDIUM_MASS",
    "RUBIDIUM_POLARIZABILITY",
    "RUBIDIUM_POLARIZABILITY_VOLUME",
    "angular_frequency",
]
