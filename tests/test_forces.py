"""Resonant and nonresonant force routes, closed forms, and scalings."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lateralvdw import (
    CESIUM_WAVELENGTH,
    TwoAtomSystem,
    lateral_force_closed_form,
    lateral_force_shape,
    nonresonant_force,
    resonant_force_on_a,
    resonant_force_on_b,
    torque_about_com,
)
from lateralvdw.constants import (
    RUBIDIUM_MASS,
    RUBIDIUM_POLARIZABILITY,
    angular_frequency,
    c,
    epsilon_0,
)
from lateralvdw.emission import spectrum_coefficients


def system_at_xi(xi: float, handedness: str = "right") -> TwoAtomSystem:
    separation = xi * CESIUM_WAVELENGTH / (2.0 * math.pi)
    return TwoAtomSystem.cs_rb(separation, handedness=handedness)


@pytest.mark.parametrize("xi", [0.5, 1.0, 4.6607, 8.0])
def test_gradient_route_reproduces_closed_form(xi: float):
    system = system_at_xi(xi)
    closed = lateral_force_closed_form(system, 1.0)
    gradient_route = resonant_force_on_a(system, 1.0).force[0]
    assert gradient_route == pytest.approx(closed, rel=1e-10)


def test_no_out_of_plane_force():
    # The x-z circular dipole never pushes along y.
    for xi in (0.4, 1.3, 5.0):
        system = system_at_xi(xi)
        force = resonant_force_on_a(system, 1.0).force
        assert abs(force[1]) <= 1e-15 * np.max(np.abs(force))


def test_linear_dipole_has_no_lateral_force():
    base = system_at_xi(1.0)
    linear = TwoAtomSystem(
        omega_a=base.omega_a,
        dipole_a=np.array([0.0, 0.0, 1.9e-29]),
        alpha_b=base.alpha_b,
        separation=base.separation,
    )
    force = resonant_force_on_a(linear, 1.0).force
    assert abs(force[0]) <= 1e-15 * abs(force[2])
    assert abs(force[1]) <= 1e-15 * abs(force[2])
    assert force[2] != 0.0


def test_handedness_flip_negates_lateral_force_only():
    right = resonant_force_on_a(system_at_xi(1.7, "right"), 1.0).force
    left = resonant_force_on_a(system_at_xi(1.7, "left"), 1.0).force
    assert left[0] == pytest.approx(-right[0], rel=1e-12)
    assert left[2] == pytest.approx(right[2], rel=1e-12)


def test_force_result_reassembles_exactly():
    result = resonant_force_on_a(system_at_xi(2.3), 0.37)
    rebuilt = result.population * result.prefactor * result.shape_factor
    assert np.allclose(rebuilt, result.force, rtol=1e-14, atol=0.0)


def test_ground_atom_force_is_purely_longitudinal():
    for r in np.geomspace(100e-9, 5e-6, 7):
        system = TwoAtomSystem.cs_rb(r)
        force_b = resonant_force_on_b(system, 1.0).force
        force_a = resonant_force_on_a(system, 1.0).force
        assert abs(force_b[0]) <= 1e-12 * abs(force_a[0])
        assert abs(force_b[1]) <= 1e-12 * abs(force_a[0])


def test_ground_atom_longitudinal_force_smooth_and_positive():
    # No standing-wave oscillation survives on the ground-state side: the
    # force toward A decays monotonically across the Drexhage window.
    wavelength = CESIUM_WAVELENGTH
    radii = np.linspace(0.3 * wavelength, 2.0 * wavelength, 120)
    values = [resonant_force_on_b(TwoAtomSystem.cs_rb(r), 1.0).force[2] for r in radii]
    values = np.array(values)
    assert np.all(values > 0.0)
    assert np.all(np.diff(values) < 0.0)


def test_pair_forces_do_not_balance():
    # Resonant photon exchange carries momentum away, so the excited-state
    # pair force is not action-reaction balanced: the lateral push on A has
    # no counterpart on B at all, and the longitudinal parts differ too.
    system = system_at_xi(1.0)
    force_a = resonant_force_on_a(system, 1.0).force
    force_b = resonant_force_on_b(system, 1.0).force
    scale = np.linalg.norm(force_a)
    assert abs(force_a[0] + force_b[0]) == pytest.approx(abs(force_a[0]))
    assert abs(force_a[0]) > 1e-3 * scale
    assert abs(force_a[2] + force_b[2]) > 1e-3 * scale


def test_excited_force_oscillates_across_drexhage_window():
    wavelength = CESIUM_WAVELENGTH
    radii = np.linspace(0.3 * wavelength, 2.0 * wavelength, 600)
    f_z = []
    f_x = []
    for r in radii:
        force = resonant_force_on_a(TwoAtomSystem.cs_rb(r), 1.0).force
        f_x.append(force[0])
        f_z.append(force[2])
    changes_z = int(np.sum(np.diff(np.sign(f_z)) != 0))
    changes_x = int(np.sum(np.diff(np.sign(f_x)) != 0))
    assert changes_z >= 3
    assert changes_x >= 3


@given(
    p1=st.floats(min_value=1e-4, max_value=1.0),
    alpha_scale=st.floats(min_value=0.1, max_value=10.0),
    dipole_scale=st.floats(min_value=0.1, max_value=10.0),
)
def test_closed_form_linearity(p1: float, alpha_scale: float, dipole_scale: float):
    base = TwoAtomSystem.cs_rb(632e-9)
    scaled = TwoAtomSystem.cs_rb(
        632e-9,
        dipole_moment=1.9e-29 * dipole_scale,
        alpha_b=RUBIDIUM_POLARIZABILITY * alpha_scale,
    )
    reference = lateral_force_closed_form(base, 1.0)
    value = lateral_force_closed_form(scaled, p1)
    expected = reference * p1 * alpha_scale * dipole_scale**2
    assert value == pytest.approx(expected, rel=1e-12)


def test_population_bounds_enforced():
    system = system_at_xi(1.0)
    with pytest.raises(ValueError):
        lateral_force_closed_form(system, -0.1)
    with pytest.raises(ValueError):
        resonant_force_on_a(system, 1.1)


def test_shape_small_argument_expansion():
    # Leading terms -(2/5) xi^5 - (4/105) xi^7 only; SHAPE_REFERENCE below
    # pins the full value.
    for xi, tol in ((0.01, 1e-5), (0.03, 1e-5)):
        expansion = -(2.0 / 5.0) * xi**5 - (4.0 / 105.0) * xi**7
        assert lateral_force_shape(xi) == pytest.approx(expansion, rel=tol)


def test_shape_rejects_nonpositive_argument():
    with pytest.raises(ValueError):
        lateral_force_shape(0.0)
    with pytest.raises(ValueError):
        lateral_force_shape(np.array([0.5, 0.0, 1.0]))


# xi -> shape; mpmath at 50 digits at the binary value of xi, rounded to 17.
# The points straddle the series/closed-form switch at xi = 0.6.
SHAPE_REFERENCE = {
    1e-6: -4.00000000000038e-31,
    1e-4: -4.0000000038095244e-21,
    1e-3: -4.0000003809525086e-16,
    1e-2: -4.0000380965078985e-11,
    0.1: -4.0038221837767015e-06,
    0.59: -0.029643788480479927,
    0.61: -0.0351133896018738,
    1.0: -0.44727490443730017,
}


def test_shape_matches_frozen_references():
    for xi, reference in SHAPE_REFERENCE.items():
        assert lateral_force_shape(xi) == pytest.approx(reference, rel=1e-13)
    xis = np.array(list(SHAPE_REFERENCE))
    expected = np.array(list(SHAPE_REFERENCE.values()))
    assert np.allclose(lateral_force_shape(xis), expected, rtol=1e-13, atol=0.0)


def test_shape_finite_at_large_argument():
    # The small-xi series must not overflow where the closed form applies.
    assert math.isfinite(lateral_force_shape(1e20))


XI_GRID = np.geomspace(1e-3, 60.0, 997)


def test_shape_array_equals_scalar_loop_bit_for_bit():
    looped = np.array([lateral_force_shape(float(xi)) for xi in XI_GRID])
    assert isinstance(lateral_force_shape(1.0), float)
    assert np.array_equal(lateral_force_shape(XI_GRID), looped)


def test_f3_is_minus_eight_shape_bit_for_bit_on_arrays():
    f3 = np.array([spectrum_coefficients(float(xi)).f3 for xi in XI_GRID])
    assert np.array_equal(f3, -8.0 * lateral_force_shape(XI_GRID))


def test_system_separation_array_checked_elementwise():
    good = TwoAtomSystem.cs_rb(np.array([1e-7, 2e-7]))
    assert good.position_b.shape == (2, 3)
    assert np.array_equal(good.position_b[:, 2], -good.separation)
    assert good.xi.shape == (2,)
    for bad in ([1e-7, 0.0], [1e-7, -1e-7], [1e-7, np.nan], [1e-7, np.inf],
                [[1e-7, 2e-7]]):
        with pytest.raises(ValueError):
            TwoAtomSystem.cs_rb(np.array(bad))
    with pytest.raises(ValueError):
        TwoAtomSystem.cs_rb(math.inf)


def test_array_system_forces_match_per_separation_calls():
    separations = np.geomspace(50e-9, 5e-6, 41)
    for handedness in ("right", "left"):
        stacked = TwoAtomSystem.cs_rb(separations, handedness=handedness)
        lateral = lateral_force_closed_form(stacked, 0.4)
        on_a = resonant_force_on_a(stacked, 0.4)
        on_b = resonant_force_on_b(stacked, 0.4)
        assert on_a.force.shape == on_b.shape_factor.shape == (41, 3)
        for i, r in enumerate(separations):
            single = TwoAtomSystem.cs_rb(float(r), handedness=handedness)
            assert lateral[i] == pytest.approx(
                lateral_force_closed_form(single, 0.4), rel=1e-15
            )
            for stack, route in ((on_a, resonant_force_on_a), (on_b, resonant_force_on_b)):
                point = route(single, 0.4)
                scale = np.max(np.abs(point.force))
                assert np.max(np.abs(stack.force[i] - point.force)) <= 1e-13 * scale
                assert stack.prefactor[i] == pytest.approx(point.prefactor, rel=1e-15)


def test_nonresonant_force_near_field_constant():
    """r^7-scaled nonresonant force approaches the static-limit constant.

    Two-level A and single-resonance B give
    F_z r^7 -> -15 d^2 alpha_B(0) omega_B / (16 pi^2 eps0^2 (omega_A + omega_B))
    as xi -> 0, with alpha_B(0) anchored so alpha_B(omega_A) matches.
    """
    omega_a = angular_frequency(CESIUM_WAVELENGTH)
    omega_b = angular_frequency(780.241e-9)
    d = 1.9e-29
    alpha_static = RUBIDIUM_POLARIZABILITY * (omega_b**2 - omega_a**2) / omega_b**2
    constant = (
        -15.0
        * d**2
        * alpha_static
        * omega_b
        / (16.0 * math.pi**2 * epsilon_0**2 * (omega_a + omega_b))
    )
    xi = 1e-3
    separation = xi * c / omega_a
    system = TwoAtomSystem.cs_rb(separation)
    force = nonresonant_force(system)
    assert force[2] * separation**7 == pytest.approx(constant, rel=1e-4)
    # Constancy across a decade of xi (retardation erodes it slowly).
    other = nonresonant_force(TwoAtomSystem.cs_rb(10.0 * separation))
    ratio = other[2] * (10.0 * separation) ** 7 / (force[2] * separation**7)
    assert ratio == pytest.approx(1.0, abs=2e-2)


def _dipole_kernel(displacement: np.ndarray) -> np.ndarray:
    """Static dipole kernel T = (3 uu - I) / r^3 of a displacement."""
    r = np.linalg.norm(displacement)
    u = displacement / r
    return (3.0 * np.outer(u, u) - np.eye(3)) / r**3


@pytest.mark.parametrize("xi", [7.4e-3, 2.2e-2, 7.4e-2])
def test_nonresonant_force_tends_to_london_limit(xi: float):
    """Nonretarded limit of the imaginary-frequency route.

    With zeta^4 mu0^2 G G -> T T / (4 pi eps0)^2 and the frequency integral
    of kappa_A alpha_B done exactly, F -> alpha_B(0) omega_B / (omega_A +
    omega_B) / (16 pi^2 eps0^2) grad Tr[Re(d* d) T(r - r_B) T(r_B - r_A)] at
    r = r_A.  The gradient here is a central difference; the gap closes
    like retardation, about 0.4 xi^2.
    """
    system = system_at_xi(xi)
    omega_a = system.omega_a
    omega_b = angular_frequency(780.241e-9)
    alpha_static = system.alpha_b * (omega_b**2 - omega_a**2) / omega_b**2
    r_a, r_b = system.position_a, system.position_b
    dyad = np.outer(np.conj(system.dipole_a), system.dipole_a).real
    back = _dipole_kernel(r_b - r_a)

    def trace(r: np.ndarray) -> float:
        return float(np.trace(dyad @ _dipole_kernel(r - r_b) @ back))

    h = 1e-4 * system.separation
    gradient = np.array(
        [(trace(r_a + h * e) - trace(r_a - h * e)) / (2.0 * h) for e in np.eye(3)]
    )
    london = (
        alpha_static * omega_b / (omega_a + omega_b)
        / (16.0 * math.pi**2 * epsilon_0**2) * gradient
    )
    gap = np.linalg.norm(nonresonant_force(system) - london) / np.linalg.norm(london)
    assert gap <= 0.5 * xi**2


def test_nonresonant_force_has_no_lateral_component():
    system = system_at_xi(0.3)
    force = nonresonant_force(system)
    assert force[0] == 0.0
    assert force[1] == 0.0
    assert force[2] < 0.0


def test_nonresonant_force_scales_with_dipole_squared():
    separation = 80e-9
    base = nonresonant_force(TwoAtomSystem.cs_rb(separation))
    doubled = nonresonant_force(
        TwoAtomSystem.cs_rb(separation, dipole_moment=2.0 * 1.9e-29)
    )
    assert doubled[2] == pytest.approx(4.0 * base[2], rel=1e-9)


def test_nonresonant_force_domain_errors():
    system = system_at_xi(0.5)
    with pytest.raises(ValueError):
        nonresonant_force(system, resonance_wavelength_b=900e-9)


def test_torque_direction_and_magnitude():
    system = TwoAtomSystem.cs_rb(632e-9)
    p1 = 0.01
    torque = torque_about_com(system, p1)
    force_a = resonant_force_on_a(system, p1).force
    lever = RUBIDIUM_MASS / (system.mass_a + RUBIDIUM_MASS) * system.separation
    assert torque[0] == pytest.approx(0.0, abs=1e-18 * abs(torque[1]) + 1e-60)
    assert torque[2] == pytest.approx(0.0, abs=1e-18 * abs(torque[1]) + 1e-60)
    assert torque[1] == pytest.approx(lever * force_a[0], rel=1e-12)
    assert torque[1] > 0.0


def test_torque_flips_with_handedness():
    right = torque_about_com(TwoAtomSystem.cs_rb(632e-9, "right"), 0.01)
    left = torque_about_com(TwoAtomSystem.cs_rb(632e-9, "left"), 0.01)
    assert left[1] == pytest.approx(-right[1], rel=1e-12)


def test_torque_vanishes_for_linear_dipole():
    base = TwoAtomSystem.cs_rb(632e-9)
    linear = TwoAtomSystem(
        omega_a=base.omega_a,
        dipole_a=np.array([0.0, 0.0, 1.9e-29]),
        alpha_b=base.alpha_b,
        separation=base.separation,
    )
    torque = torque_about_com(linear, 0.5)
    force_scale = np.max(np.abs(resonant_force_on_a(linear, 0.5).force))
    assert np.max(np.abs(torque)) <= 1e-15 * force_scale * base.separation
