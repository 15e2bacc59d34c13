"""Decay rates, driven populations, and the velocity estimates."""

import math
import warnings

import numpy as np
import pytest

from lateralvdw import (
    CESIUM_WAVELENGTH,
    DecayRates,
    DrivingParams,
    TwoAtomSystem,
    accumulated_velocity,
    assisted_decay_rate,
    impulse_velocity_single_shot,
    lateral_velocity,
    steady_state_population,
)
from lateralvdw.constants import c, hbar, mu_0
from lateralvdw.dynamics import _free_decay_rate


def test_free_decay_rate_against_solid_angle_oracle():
    """Dipole radiation computed from the far-field Poynting flux.

    Classical analogue amplitude p0 = 2 d; dP/dOmega = mu0 omega^4
    |rhat x p0|^2 / (32 pi^2 c); Gamma = P_total / (hbar omega).  The
    angular integral is done on a plain theta-phi grid, sharing nothing
    with the Green's-function route.
    """
    system = TwoAtomSystem.cs_rb(632e-9)
    omega = system.omega_a
    p0 = 2.0 * system.dipole_a

    n_theta, n_phi = 400, 200
    thetas = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    phis = (np.arange(n_phi) + 0.5) * 2.0 * math.pi / n_phi
    theta_grid, phi_grid = np.meshgrid(thetas, phis, indexing="ij")
    rhat = np.stack(
        [
            np.sin(theta_grid) * np.cos(phi_grid),
            np.sin(theta_grid) * np.sin(phi_grid),
            np.cos(theta_grid),
        ],
        axis=-1,
    )
    cross = np.cross(rhat, np.broadcast_to(p0, rhat.shape))
    magnitude_sq = np.sum(np.abs(cross) ** 2, axis=-1)
    d_omega = np.sin(theta_grid) * (math.pi / n_theta) * (2.0 * math.pi / n_phi)
    angular_integral = float(np.sum(magnitude_sq * d_omega))

    # The closed angular integral is (8 pi / 3) |p0|^2.
    p0_sq = float(np.vdot(p0, p0).real)
    assert angular_integral == pytest.approx(8.0 * math.pi / 3.0 * p0_sq, rel=1e-4)

    power = mu_0 * omega**4 / (32.0 * math.pi**2 * c) * angular_integral
    gamma_oracle = power / (hbar * omega)
    assert _free_decay_rate(system) == pytest.approx(gamma_oracle, rel=1e-4)


def test_free_decay_rate_frozen_value():
    assert _free_decay_rate(TwoAtomSystem.cs_rb(632e-9)) == pytest.approx(
        3.290501e7, rel=1e-6
    )


def test_free_decay_rate_scales_with_frequency_cubed():
    base = TwoAtomSystem.cs_rb(632e-9, wavelength=852e-9)
    halved = TwoAtomSystem.cs_rb(632e-9, wavelength=2.0 * 852e-9)
    assert _free_decay_rate(halved) == pytest.approx(_free_decay_rate(base) / 8.0, rel=1e-12)


def test_assisted_correction_frozen_value():
    rates = assisted_decay_rate(TwoAtomSystem.cs_rb(632e-9))
    assert rates.gamma_correction == pytest.approx(-3.439639e-2, rel=1e-5)
    assert rates.gamma_total == pytest.approx(
        rates.gamma_free + rates.gamma_correction, rel=1e-14
    )


def test_assisted_correction_is_finite_just_above_the_xi_floor():
    # xi is about 3.1e-154 here.  The SI leg G . d01 grows like
    # 3 / (4 pi r xi^2) and overflowed at r = 1e-9 m; in units of r it stays
    # finite, with no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rates = assisted_decay_rate(TwoAtomSystem.cs_rb(1e-9, wavelength=2e145))
    assert math.isfinite(rates.gamma_correction) and math.isfinite(rates.gamma_total)


def test_assisted_correction_oscillates_with_separation():
    wavelength = CESIUM_WAVELENGTH
    radii = np.linspace(0.3 * wavelength, 2.0 * wavelength, 200)
    signs = np.sign(
        [assisted_decay_rate(TwoAtomSystem.cs_rb(r)).gamma_correction for r in radii]
    )
    assert int(np.sum(np.diff(signs) != 0)) >= 2


def test_total_rate_stays_positive():
    for r in np.geomspace(50e-9, 10e-6, 30):
        assert assisted_decay_rate(TwoAtomSystem.cs_rb(r)).gamma_total > 0.0


def test_steady_state_population_quadratic_in_ratio():
    drive = DrivingParams(rabi=0.2 * 1e9, detuning=1e9, duration=1e-2)
    assert steady_state_population(drive) == pytest.approx(1e-2, rel=1e-14)
    weak = DrivingParams(rabi=1e3, detuning=1e9, duration=1e-2)
    assert steady_state_population(weak) == pytest.approx(2.5e-13, rel=1e-12)


def test_steady_state_population_detuning_sign_blind():
    up = steady_state_population(DrivingParams(rabi=1e8, detuning=1e9, duration=1.0))
    down = steady_state_population(DrivingParams(rabi=1e8, detuning=-1e9, duration=1.0))
    assert up == down


def test_steady_state_population_saturates_at_unity():
    strong = DrivingParams(rabi=3e9, detuning=1e9, duration=1.0)
    with pytest.warns(UserWarning, match="clamped to 1"):
        assert steady_state_population(strong) == 1.0


@pytest.mark.parametrize(
    "rabi, detuning, p1",
    [(1e200, 1.0, 1.0), (1e-28, 1e-300, 1.0), (1e-300, 1e-300, 0.25), (1e-300, -2e-300, 0.0625)],
)
def test_steady_state_population_outside_the_squares_range(rabi, detuning, p1):
    # Omega^2 overflows, 4 Delta^2 underflows to 0, or both square to 0; the
    # clamp rule decides first, and its warning names finite numbers only.
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert steady_state_population(DrivingParams(rabi, detuning, 1.0)) == p1
    clamped = [str(w.message) for w in caught if "clamped to 1" in str(w.message)]
    assert len(clamped) == (p1 == 1.0)
    assert all("inf" not in text and "nan" not in text for text in clamped)


def test_steady_state_population_keeps_the_bits_of_the_plain_quotient():
    # Where both squares are normal floats, p1 is Omega^2 / (4 Delta^2) as written.
    import warnings

    rng = np.random.default_rng(9)
    detunings = 10.0 ** rng.uniform(-150.0, 150.0, 2000) * rng.choice([-1.0, 1.0], 2000)
    rabis = np.abs(detunings) * 10.0 ** rng.uniform(-6.0, 0.3, 2000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the regime warning, for the stronger drives
        for rabi, detuning in zip(rabis.tolist(), detunings.tolist()):
            expected = rabi**2 / (4.0 * detuning**2)
            drive = DrivingParams(rabi=rabi, detuning=detuning, duration=1.0)
            assert steady_state_population(drive) == min(expected, 1.0)


def test_steady_state_population_rejects_resonant_drive():
    with pytest.raises(ValueError):
        steady_state_population(DrivingParams(rabi=1e8, detuning=0.0, duration=1.0))


def test_steady_state_population_warns_outside_weak_regime():
    import warnings

    gamma = 3.3e7
    # Rabi below 5 Gamma: spontaneous decay competes with the drive.
    sluggish = DrivingParams(rabi=gamma, detuning=1e10, duration=1.0)
    with pytest.warns(UserWarning):
        steady_state_population(sluggish, gamma_total=gamma)
    # Well inside the window: no warning.
    clean = DrivingParams(rabi=10.0 * gamma, detuning=1e10, duration=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        steady_state_population(clean, gamma_total=gamma)


def test_steady_state_population_checks_the_upper_bound_without_gamma():
    import warnings

    # Omega = |Delta|/2 is outside Omega << |Delta| whatever Gamma is.
    strong = DrivingParams(rabi=5e8, detuning=1e9, duration=1.0)
    with pytest.warns(UserWarning, match=r"regime Omega << \|Delta\|") as record:
        assert steady_state_population(strong) == 0.0625
    assert len(record) == 1
    # At the edge Omega = |Delta|/5: no warning.
    edge = DrivingParams(rabi=2e8, detuning=-1e9, duration=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        steady_state_population(edge)


def test_lateral_velocity_at_reference_point():
    system = TwoAtomSystem.cs_rb(1e-7)
    drive = DrivingParams(rabi=0.2 * 1e9, detuning=1e9, duration=1e-2)
    velocity = lateral_velocity(system, drive)
    assert velocity == pytest.approx(-7.96532e-7, rel=1e-4)


def test_accumulated_velocity_is_force_times_duration_over_mass():
    assert accumulated_velocity(3.0, 2.0, 4.0) == 1.5
    forces = np.array([1e-20, -2e-20, 4e-21])
    assert np.array_equal(accumulated_velocity(forces, 1e-2, 2.2e-25), forces * 1e-2 / 2.2e-25)


def test_lateral_velocity_takes_an_array_of_separations():
    separations = np.array([0.8e-7, 1e-7, 3e-7])
    drive = DrivingParams(rabi=2e8, detuning=1e9, duration=1e-2)
    velocities = lateral_velocity(TwoAtomSystem.cs_rb(separations), drive)
    assert velocities.shape == (3,)
    for r, v in zip(separations, velocities):
        assert v == lateral_velocity(TwoAtomSystem.cs_rb(r), drive)


def test_lateral_velocity_linear_in_duration_and_population():
    system = TwoAtomSystem.cs_rb(1e-7)
    base = lateral_velocity(system, DrivingParams(rabi=2e8, detuning=1e9, duration=1e-2))
    doubled_t = lateral_velocity(
        system, DrivingParams(rabi=2e8, detuning=1e9, duration=2e-2)
    )
    assert doubled_t == pytest.approx(2.0 * base, rel=1e-12)
    halved_rabi = lateral_velocity(
        system, DrivingParams(rabi=1e8, detuning=1e9, duration=1e-2)
    )
    assert halved_rabi == pytest.approx(0.25 * base, rel=1e-12)


def test_lateral_velocity_flips_with_handedness():
    drive = DrivingParams(rabi=2e8, detuning=1e9, duration=1e-2)
    right = lateral_velocity(TwoAtomSystem.cs_rb(1e-7, "right"), drive)
    left = lateral_velocity(TwoAtomSystem.cs_rb(1e-7, "left"), drive)
    assert left == pytest.approx(-right, rel=1e-12)


def test_impulse_velocity_consistency():
    system = TwoAtomSystem.cs_rb(632e-9)
    rates = assisted_decay_rate(system)
    impulse = impulse_velocity_single_shot(system, rates)
    from lateralvdw import lateral_force_closed_form

    force = lateral_force_closed_form(system, 1.0)
    assert impulse * system.mass_a * rates.gamma_total == pytest.approx(force, rel=1e-12)


def test_impulse_velocity_rejects_nonpositive_rate():
    system = TwoAtomSystem.cs_rb(632e-9)
    dead = DecayRates(gamma_free=1.0, gamma_correction=-1.0)
    with pytest.raises(ValueError):
        impulse_velocity_single_shot(system, dead)
