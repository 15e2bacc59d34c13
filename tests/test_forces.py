"""Resonant and nonresonant force routes, closed forms, and scalings."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lateralvdw import (
    CESIUM_WAVELENGTH,
    TwoAtomSystem,
    assisted_decay_rate,
    assisted_rate_correction_quadrature,
    circular_dipole,
    emission_spectrum,
    greens,
    impulse_velocity_single_shot,
    lateral_force_closed_form,
    lateral_force_shape,
    nonresonant_force,
    recoil_rate,
    recoil_rate_profile,
    recoil_rate_quadrature,
    resonant_forces,
    run_identity_checks,
    torque_about_com,
)
from lateralvdw.constants import (
    RUBIDIUM_MASS,
    RUBIDIUM_POLARIZABILITY,
    angular_frequency,
    c,
    epsilon_0,
    hbar,
    mu_0,
)
from lateralvdw.emission import spectrum_coefficients
from lateralvdw.forces import _SHAPE_XI_HIGH, _trace_gradient_imag
from lateralvdw.greens import (
    _XI_FLOOR,
    _contractions,
    _displacements,
    _greens,
    _greens_gradient,
    greens_free,
    greens_free_gradient,
)
from lateralvdw.system import _closed_form_scale


def system_at_xi(xi: float, handedness: str = "right") -> TwoAtomSystem:
    separation = xi * CESIUM_WAVELENGTH / (2.0 * math.pi)
    return TwoAtomSystem.cs_rb(separation, handedness=handedness)


@pytest.mark.parametrize("xi", [0.5, 1.0, 4.6607, 8.0])
def test_gradient_route_reproduces_closed_form(xi: float):
    system = system_at_xi(xi)
    closed = lateral_force_closed_form(system, 1.0)
    gradient_route = resonant_forces(system, 1.0)[0].force[0]
    assert gradient_route == pytest.approx(closed, rel=1e-12)


def _lateral_norm(xi: float) -> float:
    """Magnitude scale of the lateral shape: its envelope, or (2/5) xi^5 below it."""
    envelope = math.hypot(6.0 * xi * (3.0 - xi * xi), 9.0 - 15.0 * xi * xi + xi**4)
    return min(envelope, 0.4 * xi**5)


@given(
    log_xi=st.floats(min_value=-3.0, max_value=3.0),
    handedness=st.sampled_from(["right", "left"]),
)
def test_closed_form_matches_gradient_route_over_xi(log_xi: float, handedness: str):
    # The gradient route cancels like eps/xi^4 at small xi; the tolerance
    # follows that law, relative to the lateral norm.
    xi = 10.0**log_xi
    system = system_at_xi(xi, handedness)
    closed = lateral_force_closed_form(system, 1.0)
    gradient_route = resonant_forces(system, 1.0)[0].force[0]
    error = abs(closed - gradient_route) / (_closed_form_scale(system) * _lateral_norm(xi))
    assert error <= 1e-13 + 500.0 * np.finfo(float).eps / xi**4


def test_no_out_of_plane_force():
    # The x-z circular dipole never pushes along y.
    for xi in (0.4, 1.3, 5.0):
        system = system_at_xi(xi)
        force = resonant_forces(system, 1.0)[0].force
        assert abs(force[1]) <= 1e-15 * np.max(np.abs(force))


def test_linear_dipole_has_no_lateral_force():
    base = system_at_xi(1.0)
    linear = TwoAtomSystem(
        omega_a=base.omega_a,
        dipole_a=np.array([0.0, 0.0, 1.9e-29]),
        alpha_b=base.alpha_b,
        separation=base.separation,
    )
    force = resonant_forces(linear, 1.0)[0].force
    assert abs(force[0]) <= 1e-15 * abs(force[2])
    assert abs(force[1]) <= 1e-15 * abs(force[2])
    assert force[2] != 0.0


def test_handedness_flip_negates_lateral_force_only():
    right = resonant_forces(system_at_xi(1.7, "right"), 1.0)[0].force
    left = resonant_forces(system_at_xi(1.7, "left"), 1.0)[0].force
    assert left[0] == pytest.approx(-right[0], rel=1e-12)
    assert left[2] == pytest.approx(right[2], rel=1e-12)


def test_force_result_reassembles_exactly():
    result = resonant_forces(system_at_xi(2.3), 0.37)[0]
    rebuilt = result.population * result.prefactor * result.shape_factor
    assert np.allclose(rebuilt, result.force, rtol=1e-14, atol=0.0)


def test_ground_atom_force_is_purely_longitudinal():
    for r in np.geomspace(100e-9, 5e-6, 7):
        system = TwoAtomSystem.cs_rb(r)
        force_a, force_b = (result.force for result in resonant_forces(system, 1.0))
        assert abs(force_b[0]) <= 1e-12 * abs(force_a[0])
        assert abs(force_b[1]) <= 1e-12 * abs(force_a[0])


def test_ground_atom_longitudinal_force_smooth_and_positive():
    # No standing-wave oscillation survives on the ground-state side: the
    # force toward A decays monotonically across the Drexhage window.
    wavelength = CESIUM_WAVELENGTH
    radii = np.linspace(0.3 * wavelength, 2.0 * wavelength, 120)
    values = [resonant_forces(TwoAtomSystem.cs_rb(r), 1.0)[1].force[2] for r in radii]
    values = np.array(values)
    assert np.all(values > 0.0)
    assert np.all(np.diff(values) < 0.0)


def test_pair_forces_do_not_balance():
    # Resonant photon exchange carries momentum away, so the excited-state
    # pair force is not action-reaction balanced: the lateral push on A has
    # no counterpart on B at all, and the longitudinal parts differ too.
    system = system_at_xi(1.0)
    force_a, force_b = (result.force for result in resonant_forces(system, 1.0))
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
        force = resonant_forces(TwoAtomSystem.cs_rb(r), 1.0)[0].force
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
        resonant_forces(system, 1.1)


def _steps(value: float, n: int) -> list:
    """value and the n floats on either side of it."""
    up, down = [value], [value]
    for _ in range(n):
        up.append(math.nextafter(up[-1], math.inf))
        down.append(math.nextafter(down[-1], 0.0))
    return up + down[1:]


def system_with_xi(xi: float, dipole: np.ndarray, separation: float,
                   alpha_b: float = RUBIDIUM_POLARIZABILITY) -> TwoAtomSystem:
    """A system whose xi is exactly the float xi, at a separation within 16 ulp of the one given.

    (omega r) / c skips some floats, which no system reaches.
    """
    for r in _steps(separation, 16):
        for omega in _steps(xi * c / r, 2):
            if omega * r / c == xi:
                return TwoAtomSystem(omega, dipole, alpha_b, r)
    raise AssertionError(f"no omega near {xi * c / separation} gives xi = {xi!r}")


_DIPOLES = {
    "right": np.array([1j, 0.0, 1.0]),
    "left": np.array([-1j, 0.0, 1.0]),
    "x": np.array([1.0, 0.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
}


@pytest.mark.parametrize("separation", [1e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("dipole", list(_DIPOLES), ids=list(_DIPOLES))
def test_resonant_forces_xi_floor_is_one_rule_of_xi(dipole: str, separation: float):
    # The low end of the range is greens._XI_FLOOR for every dipole and
    # separation: there it is refused, and the next float up gives finite
    # shapes and forces.  An array of separations is refused by its first bad entry.
    moment = 1.9e-29 * _DIPOLES[dipole]
    bad = system_with_xi(_XI_FLOOR, moment, separation)
    with pytest.raises(ValueError, match="xi must be finite and positive in the supported range"):
        resonant_forces(bad, 1.0)
    good = system_with_xi(math.nextafter(_XI_FLOOR, math.inf), moment, separation)
    for result in resonant_forces(good, 1.0):
        assert np.isfinite(result.shape_factor).all() and np.isfinite(result.force).all()
    mixed = TwoAtomSystem(bad.omega_a, moment, bad.alpha_b, np.array([2.0, 1.0]) * bad.separation)
    with pytest.raises(ValueError, match="xi must be finite"):
        resonant_forces(mixed, 1.0)


def test_resonant_forces_xi_ceiling_is_where_the_xi5_shape_could_overflow():
    # The linear x dipole has the largest xi^5 amplitude, 2; just below the
    # ceiling its shapes stay finite, and the ceiling itself is refused.
    for dipole in _DIPOLES.values():
        below = system_with_xi(math.nextafter(_SHAPE_XI_HIGH, 0.0), dipole, 1.0)
        for result in resonant_forces(below, 0.0):
            assert np.isfinite(result.shape_factor).all()
        with pytest.raises(ValueError, match="supported range"):
            resonant_forces(system_with_xi(_SHAPE_XI_HIGH, dipole, 1.0), 0.0)


@given(
    log_xi=st.floats(min_value=-150.0, max_value=55.0),
    dipole_scale=st.floats(min_value=1e-3, max_value=1e3),
    alpha_scale=st.floats(min_value=1e-3, max_value=1e3),
    separation=st.floats(min_value=1e-10, max_value=1e-3),
    p1=st.floats(min_value=0.0, max_value=1.0),
    handedness=st.sampled_from(["right", "left"]),
)
def test_shapes_depend_on_xi_bits_alone(log_xi, dipole_scale, alpha_scale, separation, p1,
                                        handedness):
    # The route runs in units of r: d, alpha_B, r and p1 leave the shapes' bits alone.
    base = TwoAtomSystem(10.0**log_xi * c / 1e-7, circular_dipole(1.9e-29, handedness),
                         RUBIDIUM_POLARIZABILITY, 1e-7)
    other = system_with_xi(base.xi, dipole_scale * base.dipole_a, separation,
                           alpha_scale * RUBIDIUM_POLARIZABILITY)
    for mine, theirs in zip(resonant_forces(base, 1.0), resonant_forces(other, p1)):
        assert np.array_equal(mine.shape_factor, theirs.shape_factor)


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
    with pytest.raises(ValueError, match="supported range"):
        lateral_force_shape(np.array([0.5, 1e78]))


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
        on_a, on_b = resonant_forces(stacked, 0.4)
        assert on_a.force.shape == on_b.shape_factor.shape == (41, 3)
        for i, r in enumerate(separations):
            single = TwoAtomSystem.cs_rb(float(r), handedness=handedness)
            assert lateral[i] == pytest.approx(
                lateral_force_closed_form(single, 0.4), rel=1e-15
            )
            for stack, point in zip((on_a, on_b), resonant_forces(single, 0.4)):
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


# The zeta integral of the nonresonant force at xi >> 1, where kappa_A and
# alpha_B take their static values.  With zeta = eta c / r the integrand is
# eta^4 e^{-2 eta} times the factored contraction, and sympy gives exactly
#   int eta^4 e^{-2 eta} a a' d eta = -91/8          (coefficient of Tr D),
#   int eta^4 e^{-2 eta} (a b' + b a' + b b') d eta = -49/8   (of u.D.u),
# a = 1 + 1/eta + 1/eta^2, b = -1 - 3/eta - 3/eta^2, a' = -eta - 2 - 3/eta
# - 3/eta^2, b' = eta + 4 + 9/eta + 9/eta^2.  For an isotropic D = alpha I
# the bracket is -161/4 = -7 * 23/4: the 1/r^8 force of the Casimir-Polder
# potential -23 hbar c alpha_A alpha_B / (4 pi (4 pi eps0)^2 r^7) (Casimir &
# Polder, Phys. Rev. 73, 360 (1948)).
_RETARDED_TRACE = -91.0 / 8.0
_RETARDED_RADIAL = -49.0 / 8.0


@pytest.mark.parametrize("xi", [50.0, 100.0, 200.0])
def test_nonresonant_force_tends_to_casimir_polder_limit(xi: float):
    """Retarded limit of the imaginary-frequency route.

    F -> (hbar mu0^2 / pi) kappa_A(0) alpha_B(0) c^5 / (16 pi^2 r^8)
    [-91/8 Tr D - 49/8 u.D.u] u, with kappa_A(0) = 2 / (hbar omega_A).  The
    gap closes like the frequency dependence of the two polarisabilities,
    measured 5.59, 5.61 and 5.62 / xi^2 at xi = 50, 100 and 200.
    """
    system = system_at_xi(xi)
    omega_a = system.omega_a
    omega_b = angular_frequency(780.241e-9)
    alpha_static = system.alpha_b * (omega_b**2 - omega_a**2) / omega_b**2
    dyad = np.outer(np.conj(system.dipole_a), system.dipole_a).real
    unit = (system.position_a - system.position_b) / system.separation
    bracket = _RETARDED_TRACE * np.trace(dyad) + _RETARDED_RADIAL * (unit @ dyad @ unit)
    limit = (
        hbar * mu_0**2 / math.pi * (2.0 / (hbar * omega_a)) * alpha_static
        * c**5 / (16.0 * math.pi**2 * system.separation**8) * bracket * unit
    )
    force = nonresonant_force(system)
    assert force[0] == force[1] == 0.0
    assert limit[2] < 0.0
    gap = abs(force[2] / limit[2] - 1.0)
    assert gap <= 6.0 / xi**2


def test_factored_zeta_contraction_matches_tensor_contraction():
    """The nonresonant integrand's contraction against the full tensors.

    grad_k Tr[D G(r, r_B) G(r_B, r_A)] at r = r_A, summed over the Green's
    tensor and gradient stacks at imaginary frequencies, for a general real
    symmetric D and an off-axis displacement, so that the lateral term
    P = D u - (u.D.u) u is not zero.
    """
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(3, 3))
    dyad = raw + raw.T
    r_a = np.array([0.1e-7, -0.3e-7, 0.2e-7])
    r_b = np.array([1.3e-7, 0.4e-7, -2.6e-7])
    zeta = np.geomspace(1e12, 1e17, 41)
    # One row of stacked points per frequency.
    rows_a, rows_b = np.tile(r_a, (len(zeta), 1)), np.tile(r_b, (len(zeta), 1))
    g_back = _greens(rows_b, rows_a, 1j * zeta).real
    grad = _greens_gradient(rows_a, rows_b, 1j * zeta).real
    expected = np.einsum("ij,nkjb,nbi->nk", dyad, grad, g_back)

    unit = (r_a - r_b) / np.linalg.norm(r_a - r_b)
    lateral = dyad @ unit - (unit @ dyad @ unit) * unit
    assert np.linalg.norm(lateral) > 0.1 * np.linalg.norm(dyad)
    got = _trace_gradient_imag(dyad, r_a, r_b)(zeta, np.ones_like(zeta))
    row_scale = np.max(np.abs(expected), axis=1)
    assert np.all(np.max(np.abs(got - expected), axis=1) <= 1e-14 * row_scale)


def test_factored_resonant_contraction_matches_tensor_contraction():
    """The sandwich's two contractions against the full tensors.

    G(r_A, r_B) . v against greens_free @ v, and l . grad_k G(r_A, r_B) . w
    summed over the greens_free_gradient stack, for general complex vectors
    and an off-axis displacement, so that every term of the factored forms
    is live, over xi in [1e-5, 1e3].  Each vector may be one (3,) vector or
    (N, 3) rows, as in the forces on A and on B.
    """
    rng = np.random.default_rng(11)
    omega = angular_frequency(CESIUM_WAVELENGTH)
    direction = np.array([0.35, -0.25, 0.8])
    direction /= np.linalg.norm(direction)
    xi = np.geomspace(1e-5, 1e3, 61)
    r_a = np.array([0.1e-7, -0.3e-7, 0.2e-7])
    r_b = r_a - (xi * c / omega)[:, None] * direction
    vector = rng.normal(size=3) + 1j * rng.normal(size=3)
    rows = rng.normal(size=(61, 3)) + 1j * rng.normal(size=(61, 3))
    green = greens_free(r_a, r_b, omega)
    grad = greens_free_gradient(r_a, r_b, omega)
    xi_rows = omega * _displacements(r_a, r_b)[1] / c
    apply, gradient = _contractions(r_a, r_b, xi_rows)
    for got, expected in (
        (apply(vector), green @ vector),
        (apply(rows), np.einsum("nab,nb->na", green, rows)),
        (gradient(vector, rows), np.einsum("a,nkab,nb->nk", vector, grad, rows)),
        (gradient(rows, vector), np.einsum("na,nkab,b->nk", rows, grad, vector)),
    ):
        assert got.shape == expected.shape == (61, 3)
        row_scale = np.max(np.abs(expected), axis=1)
        assert np.all(np.max(np.abs(got - expected), axis=1) <= 1e-14 * row_scale)
    for i in (0, 30, 60):
        apply, gradient = _contractions(r_a, r_b[i], xi_rows[i])
        for got, expected in (
            (apply(vector), greens_free(r_a, r_b[i], omega) @ vector),
            (gradient(vector, rows[i]),
             np.einsum("a,kab,b->k", vector, greens_free_gradient(r_a, r_b[i], omega), rows[i])),
        ):
            assert got.shape == (3,)
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_sandwich_routes_build_no_tensor_stack(monkeypatch):
    """Every route through the Born sandwich contracts its legs row by row."""

    def no_stack(*args):
        raise AssertionError("a sandwich route built a Green's tensor stack")

    monkeypatch.setattr(greens, "_greens", no_stack)
    monkeypatch.setattr(greens, "_greens_gradient", no_stack)
    sweep = TwoAtomSystem.cs_rb(np.geomspace(1e-8, 1e-6, 5))
    system = system_at_xi(1.3)
    resonant_forces(sweep, 1.0)
    assisted_decay_rate(system)
    assisted_decay_rate(sweep)
    recoil_rate_profile(system, 16)
    recoil_rate_quadrature(system, 0.3)
    assisted_rate_correction_quadrature(system)


# xi -> shape factors (x, y, z) on A and on B of the right-handed
# system_at_xi(xi), as printed by tools/resonant_reference.py: mpmath at 50
# digits on the binary xi of the system, with each gradient a numerical
# derivative of the sandwich in units of r (not the analytic gradient),
# rounded to the nearest float.  F_B,x is zero exactly, and F_B,z is
# xi^4 + 6 xi^2 + 15.
RESONANT_REFERENCE = {
    0.001: ((-4.0000003809525086e-16, 0.0, -15.000006000001),
             (0.0, 0.0, 15.000006000001)),
    0.7: ((-0.07080491419684853, 0.0, -18.15309716804423),
           (0.0, 0.0, 18.1801)),
    5.0: ((694.6886769108054, 0.0, 2184.0450220595976),
           (0.0, 0.0, 790.0)),
    60.0: ((-8547672.391299041, 0.0, -481815204.89666235),
            (0.0, 0.0, 12981615.0)),
    1000.0: ((-927820803151.608, 0.0, -928927834220715.2),
              (0.0, 0.0, 1000006000015.0)),
}


def test_resonant_forces_match_frozen_references():
    for xi, references in RESONANT_REFERENCE.items():
        for result, reference in zip(resonant_forces(system_at_xi(xi), 1.0), references):
            reference = np.array(reference)
            error = np.max(np.abs(result.shape_factor - reference))
            assert error <= 1e-13 * np.max(np.abs(reference)), (xi, error)


def test_resonant_references_are_the_generator_output():
    path = Path(__file__).resolve().parents[1] / "tools" / "resonant_reference.py"
    spec = importlib.util.spec_from_file_location("resonant_reference", path)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    assert generator.reference() == RESONANT_REFERENCE


_ARRAY_SYSTEM = TwoAtomSystem.cs_rb(np.array([2e-7, 3e-7]))


@pytest.mark.parametrize(
    "route, call",
    [
        ("nonresonant_force", lambda s: nonresonant_force(s)),
        ("recoil_rate", lambda s: recoil_rate(s, 0.3)),
        ("recoil_rate_profile", lambda s: recoil_rate_profile(s, 16)),
        ("assisted_rate_correction_quadrature", assisted_rate_correction_quadrature),
        ("recoil_rate_quadrature", lambda s: recoil_rate_quadrature(s, 0.3)),
        ("torque_about_com", lambda s: torque_about_com(s, 1.0)),
        ("run_identity_checks", run_identity_checks),
        ("emission_spectrum", lambda s: emission_spectrum(s, 8)),
        ("impulse_velocity_single_shot",
         lambda s: impulse_velocity_single_shot(s, assisted_decay_rate(s))),
    ],
)
def test_scalar_routes_reject_an_array_of_separations(route, call):
    with pytest.raises(ValueError, match=f"{route} takes a float separation"):
        call(_ARRAY_SYSTEM)


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
    force_a = resonant_forces(system, p1)[0].force
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
    force_scale = np.max(np.abs(resonant_forces(linear, 0.5)[0].force))
    assert np.max(np.abs(torque)) <= 1e-15 * force_scale * base.separation
