"""Lateral van der Waals forces on an excited circularly polarised atom.

A two-atom Born-series calculation: the resonant force on the excited
atom and on its ground-state partner, the closed-form lateral force, the
lateral-momentum-resolved emission spectrum whose asymmetry accounts for
that force as photon recoil, and the resulting velocity estimates, with
every closed form cross-checked against an independent quadrature route.
"""

from .constants import (
    CESIUM_DIPOLE,
    CESIUM_MASS,
    CESIUM_WAVELENGTH,
    RUBIDIUM_MASS,
    RUBIDIUM_POLARIZABILITY,
    RUBIDIUM_POLARIZABILITY_VOLUME,
    angular_frequency,
)
from .dynamics import (
    DecayRates,
    DrivingParams,
    accumulated_velocity,
    assisted_decay_rate,
    free_decay_rate,
    impulse_velocity_single_shot,
    lateral_velocity,
    population,
    steady_state_population,
)
from .emission import (
    EmissionSpectrum,
    SpectrumCoefficients,
    assisted_rate_correction_quadrature,
    asymmetry,
    emission_spectrum,
    near_field_recoil_rate,
    rate_density,
    recoil_rate,
    recoil_rate_prefactor,
    recoil_rate_profile,
    recoil_rate_quadrature,
    spectrum_coefficients,
)
from .forces import (
    ForceResult,
    lateral_force_closed_form,
    lateral_force_shape,
    nonresonant_force,
    resonant_force_on_a,
    resonant_force_on_b,
    torque_about_com,
)
from .greens import (
    greens_cylindrical_mode,
    greens_free,
    greens_free_from_modes,
    greens_free_gradient,
    greens_free_imag,
)
from .quadrature import (
    QuadratureConfig,
    QuadratureConvergenceError,
    integrate_angle,
    integrate_evanescent,
    integrate_propagating,
    transverse_wavenumber,
)
from .specfun import bessel_j, bessel_y
from .system import TwoAtomSystem, circular_dipole
from .validation import IdentityCheck, run_identity_checks

__version__ = "0.1.0"

__all__ = [
    "TwoAtomSystem",
    "circular_dipole",
    "bessel_j",
    "bessel_y",
    "QuadratureConfig",
    "QuadratureConvergenceError",
    "integrate_angle",
    "integrate_evanescent",
    "integrate_propagating",
    "transverse_wavenumber",
    "greens_free",
    "greens_free_gradient",
    "greens_free_imag",
    "greens_cylindrical_mode",
    "greens_free_from_modes",
    "ForceResult",
    "lateral_force_shape",
    "lateral_force_closed_form",
    "resonant_force_on_a",
    "resonant_force_on_b",
    "nonresonant_force",
    "torque_about_com",
    "SpectrumCoefficients",
    "EmissionSpectrum",
    "spectrum_coefficients",
    "recoil_rate_prefactor",
    "recoil_rate",
    "recoil_rate_quadrature",
    "recoil_rate_profile",
    "rate_density",
    "near_field_recoil_rate",
    "asymmetry",
    "assisted_rate_correction_quadrature",
    "emission_spectrum",
    "DecayRates",
    "DrivingParams",
    "free_decay_rate",
    "assisted_decay_rate",
    "population",
    "steady_state_population",
    "accumulated_velocity",
    "lateral_velocity",
    "impulse_velocity_single_shot",
    "IdentityCheck",
    "run_identity_checks",
    "CESIUM_DIPOLE",
    "CESIUM_MASS",
    "CESIUM_WAVELENGTH",
    "RUBIDIUM_MASS",
    "RUBIDIUM_POLARIZABILITY",
    "RUBIDIUM_POLARIZABILITY_VOLUME",
    "angular_frequency",
]
