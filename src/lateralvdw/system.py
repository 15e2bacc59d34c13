"""Two-atom geometry and dipole conventions.

Atom A (the excited, circularly polarised one) sits at the origin; atom B
(the isotropic ground-state scatterer) sits below it on the z axis at the
given separation.  The circular dipole lives in the x-z plane, so lateral
effects single out the x direction and the azimuth phi is measured from
+x in the x-y plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    CESIUM_DIPOLE,
    CESIUM_MASS,
    CESIUM_WAVELENGTH,
    RUBIDIUM_POLARIZABILITY,
    _OMEGA_FLOOR,
    _require_positive,
    angular_frequency,
    c,
    epsilon_0,
)

__all__ = ["TwoAtomSystem", "circular_dipole"]

# Sign of atom B's z coordinate relative to atom A.  With a "right" dipole
# this choice makes the lateral force point along +x where the closed-form
# bracket is positive; flipping it is equivalent to swapping handedness.
_ATOM_B_SIDE = -1.0


def circular_dipole(magnitude: float, handedness: str = "right") -> np.ndarray:
    """Circular transition dipole d * (i, 0, 1) or its mirror image.

    ``magnitude`` is the scalar d in C m; ``handedness`` selects the sign of
    the imaginary x component ("right" -> +i, "left" -> -i).  The returned
    vector is a null vector under the unconjugated dot product.
    """
    _require_positive("dipole magnitude", magnitude)
    if handedness == "right":
        sx = 1.0j
    elif handedness == "left":
        sx = -1.0j
    else:
        raise ValueError(f"handedness must be 'right' or 'left', got {handedness!r}")
    return magnitude * np.array([sx, 0.0, 1.0])


def _circular_dipole_parameters(dipole: np.ndarray) -> tuple[float, float]:
    """Extract (magnitude, handedness sign) from a circular x-z dipole.

    Accepts vectors proportional to (+-i, 0, 1) up to a global complex
    phase and raises ValueError for anything else; the closed-form force
    and emission expressions are only valid for that polarisation.
    """
    d = np.asarray(dipole, dtype=complex)
    if d.shape != (3,):
        raise ValueError("dipole must be a 3-vector")
    scale = np.max(np.abs(d))
    if scale == 0.0:
        raise ValueError("dipole must be nonzero")
    if abs(d[1]) > 1e-10 * scale:
        raise ValueError("closed forms require a dipole in the x-z plane")
    if abs(d[2]) < 1e-10 * scale:
        raise ValueError("closed forms require a nonzero z dipole component")
    ratio = d[0] / (1.0j * d[2])
    if abs(ratio.imag) > 1e-10 or abs(abs(ratio.real) - 1.0) > 1e-10:
        raise ValueError(
            "dipole is not circularly polarised in the x-z plane; "
            "expected a multiple of (i, 0, 1) or (-i, 0, 1)"
        )
    return float(abs(d[2])), float(np.sign(ratio.real))


@dataclass
class TwoAtomSystem:
    """Excited atom A and ground-state scatterer B on the z axis.

    omega_a     transition angular frequency of A, rad/s
    dipole_a    complex transition dipole <1|d|0> of A, C m
    alpha_b     scalar polarizability of B at omega_a, F m^2
    separation  |r_A - r_B|, m; a float, or a 1-D array for a sweep
    mass_a      mass of atom A, kg (used for velocities)

    With an array of separations, ``xi`` and ``position_b`` follow it row
    by row, and the closed forms and resonant forces of ``forces`` return
    one result per separation.  The other routes take a float separation.
    """

    omega_a: float
    dipole_a: np.ndarray
    alpha_b: float
    separation: float | np.ndarray
    mass_a: float = CESIUM_MASS

    def __post_init__(self):
        self.dipole_a = np.asarray(self.dipole_a, dtype=complex)
        if self.dipole_a.shape != (3,):
            raise ValueError("dipole_a must be a 3-vector")
        _require_positive("omega_a", self.omega_a, low=_OMEGA_FLOOR)
        separation = np.asarray(self.separation, dtype=float)
        if separation.ndim > 1:
            raise ValueError("separation must be a float or a 1-D array")
        _require_positive("separation", separation)
        if separation.ndim:
            self.separation = separation
        _require_positive("alpha_b", self.alpha_b)
        _require_positive("mass_a", self.mass_a)
        # Every closed form carries this scale; past the float range it
        # would turn into inf/nan forces and rows instead of an error.
        with np.errstate(all="ignore"):
            scale = _closed_form_scale(self)
        _require_positive("closed-form scale d^2 alpha_B / (8 pi^2 eps0^2 r^7)", scale)

    @classmethod
    def cs_rb(
        cls,
        separation: float | np.ndarray,
        handedness: str = "right",
        dipole_moment: float = CESIUM_DIPOLE,
        wavelength: float = CESIUM_WAVELENGTH,
        alpha_b: float = RUBIDIUM_POLARIZABILITY,
        mass_a: float = CESIUM_MASS,
    ) -> "TwoAtomSystem":
        """Default Cs-Rb system at the given separation."""
        return cls(
            omega_a=angular_frequency(wavelength),
            dipole_a=circular_dipole(dipole_moment, handedness),
            alpha_b=alpha_b,
            separation=separation,
            mass_a=mass_a,
        )

    @property
    def xi(self) -> float | np.ndarray:
        """Dimensionless retardation parameter omega_a * separation / c."""
        return self.omega_a * self.separation / c

    @property
    def position_a(self) -> np.ndarray:
        return np.zeros(3)

    @property
    def position_b(self) -> np.ndarray:
        """(3,) position, or (N, 3) rows for an array of separations."""
        position = np.zeros(np.shape(self.separation) + (3,))
        position[..., 2] = _ATOM_B_SIDE * self.separation
        return position

    def circular_parameters(self) -> tuple[float, float]:
        """(d, handedness sign) of the circular dipole; raises if not circular."""
        return _circular_dipole_parameters(self.dipole_a)


def _require_float_separation(system: TwoAtomSystem, route: str) -> None:
    """Raise ValueError naming ``route`` unless the system holds one separation.

    The quadrature, torque, single-shot and validation routes take a float
    separation; an array would otherwise fail deep inside with an unrelated
    TypeError or IndexError.
    """
    if np.ndim(system.separation):
        raise ValueError(
            f"{route} takes a float separation, got an array of "
            f"{np.size(system.separation)} separations"
        )


def _closed_form_scale(system: TwoAtomSystem) -> float | np.ndarray:
    """d^2 alpha_B / (8 pi^2 eps0^2 r^7) in newtons, with d^2 = |d|^2 / 2.

    For the circular dipole d (i, 0, 1) this is d^2 exactly; one value per
    separation for an array of separations.
    """
    dsq = np.vdot(system.dipole_a, system.dipole_a).real / 2.0
    # numpy power, so an out-of-range float separation overflows to inf
    # (caught by the construction check) where float ** would raise.
    r7 = np.float64(system.separation) ** 7
    return dsq * system.alpha_b / (8.0 * math.pi**2 * epsilon_0**2 * r7)
