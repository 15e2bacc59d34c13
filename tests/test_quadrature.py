"""Momentum-plane and azimuthal quadrature against analytic integrals and
against scipy.integrate.quad_vec, the reference for the adaptive rule."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad_vec
from scipy.special import hankel1

import lateralvdw.forces
import lateralvdw.quadrature
from lateralvdw import (
    CESIUM_WAVELENGTH,
    QuadratureConfig,
    QuadratureConvergenceError,
    TwoAtomSystem,
    assisted_rate_correction_quadrature,
    greens_free_from_modes,
    integrate_angle,
    integrate_k_par,
    nonresonant_force,
    recoil_rate_profile,
    recoil_rate_quadrature,
)
from lateralvdw.quadrature import (
    _GAUSS,
    _KRONROD,
    _NODES,
    _PROPAGATING,
    _evanescent_side,
    _k_par_rule,
)

# The rules integrate q = k_par/k: the analytic integrals below are written
# at k = 1, where k_par is q, k_perp is q_perp and xi equals the distance r.


def propagating_rule(f, config=QuadratureConfig()):
    """The k_par rule on its propagating side alone: q in [0, 1]."""
    return _k_par_rule(f, (_PROPAGATING,), config)


def evanescent_rule(f, xi, config=QuadratureConfig()):
    """The k_par rule on its evanescent side alone, with integrate_k_par's tail cutoff."""
    return _k_par_rule(f, (_evanescent_side(xi),), config)


def _k_par_nodes(integrate, *args):
    """The (k_par, k_perp) nodes an integrator hands a zero integrand, concatenated."""
    seen = []

    def record(k_par, k_perp):
        seen.append((k_par, k_perp))
        return np.zeros(len(k_par))

    integrate(record, *args)
    return tuple(np.concatenate(part) for part in zip(*seen))


def test_transverse_wavenumber_branches():
    # Below the light line k_perp is real and positive; above it, positive
    # imaginary: the branch Im k_perp >= 0 the integrands are promised.
    k = 1.0
    k_par, k_perp = _k_par_nodes(propagating_rule)
    assert np.all(k_par < k) and np.all(k_perp.real > 0.0) and np.all(k_perp.imag == 0.0)
    k_par, k_perp = _k_par_nodes(evanescent_rule, 1.0)
    assert np.all(k_par > k) and np.all(k_perp.real == 0.0) and np.all(k_perp.imag > 0.0)


@given(xi=st.floats(min_value=1e-3, max_value=1e3))
def test_transverse_wavenumber_squares_back(xi: float):
    # q_perp^2 = 1 - q^2 on both sides, whatever the tail cutoff xi.
    k = 1.0
    for k_par, k_perp in (
        _k_par_nodes(propagating_rule),
        _k_par_nodes(evanescent_rule, xi),
    ):
        assert np.all(k_perp.imag >= 0.0)
        error = np.abs(k_perp**2 - (k * k - k_par * k_par))
        assert np.all(error <= 1e-12 * np.maximum(k * k, k_par * k_par))


def test_propagating_elementary_integrals():
    k = 1.0
    # int_0^k k_par/k_perp dk_par = k, and int_0^k k_par dk_par = k^2/2.
    ratio = propagating_rule(lambda kp, kz: kp / kz)
    assert ratio == pytest.approx(k, rel=1e-10)
    plain = propagating_rule(lambda kp, kz: kp)
    assert plain == pytest.approx(0.5 * k * k, rel=1e-10)


@pytest.mark.parametrize("xi", [0.3, 1.0, 3.0, 10.0])
def test_lateral_momentum_integrals_match_hankel_forms(xi: float):
    """The two oscillatory kernel integrals reduce to Hankel functions.

    int_0^inf k_par^2/k_perp e^{i k_perp r} dk_par = (pi xi / 2 r^2) H1(xi)
    int_0^inf k_par^4/k_perp e^{i k_perp r} dk_par = (3 pi xi^2 / 2 r^4) H2(xi)

    evaluated at k = 1, so that r = xi.
    """
    r = xi

    def kernel(power):
        return lambda kp, kz: kp**power / kz * np.exp(1j * kz * r)

    for power, closed in (
        (2, math.pi * xi / (2.0 * r * r) * hankel1(1, xi)),
        (4, 3.0 * math.pi * xi * xi / (2.0 * r**4) * hankel1(2, xi)),
    ):
        total = integrate_k_par(kernel(power), r)
        assert abs(total - closed) <= 1e-8 * abs(closed)


@pytest.mark.parametrize("xi", [0.3, 1.0, 3.0, 10.0])
def test_scalar_kernel_integral(xi: float):
    # int_0^inf k_par/k_perp e^{i k_perp r} dk_par = -i e^{i xi} / r.
    r = xi
    f = lambda kp, kz: kp / kz * np.exp(1j * kz * r)
    total = integrate_k_par(f, r)
    closed = -1j * cmath.exp(1j * xi) / r
    assert abs(total - closed) <= 1e-8 * abs(closed)


def test_evanescent_tail_cutoff_converged(monkeypatch):
    # Doubling the tail cutoff must not move the answer.
    r = 1.0
    f = lambda kp, kz: kp**2 / kz * np.exp(1j * kz * r)
    assert lateralvdw.quadrature._TAIL_EFOLDS == 40.0
    base = evanescent_rule(f, r)
    monkeypatch.setattr(lateralvdw.quadrature, "_TAIL_EFOLDS", 80.0)
    deep = evanescent_rule(f, r)
    assert abs(base - deep) <= 1e-12 * abs(base)


def test_tolerance_configuration_controls_accuracy():
    r = 3.0
    f = lambda kp, kz: kp**2 / kz * np.exp(1j * kz * r)
    closed = math.pi * 3.0 / (2.0 * r * r) * hankel1(1, 3.0)
    for rel_tol, bound in ((1e-5, 1e-4), (1e-11, 1e-9)):
        cfg = QuadratureConfig(rel_tol=rel_tol, abs_tol=0.0)
        total = integrate_k_par(f, r, cfg)
        assert abs(total - closed) <= bound * abs(closed)


def test_vector_integrands_share_error_control():
    k = 1.0
    f = lambda kp, kz: np.stack([kp, kp / kz, kp * kp], axis=-1)
    total = propagating_rule(f)
    assert total[0] == pytest.approx(0.5 * k * k, rel=1e-9)
    assert total[1] == pytest.approx(k, rel=1e-9)
    assert total[2] == pytest.approx(k**3 / 3.0, rel=1e-9)


def test_angle_integral_of_harmonics():
    # The integrand returns the sum of its values over the level's azimuths.
    assert integrate_angle(lambda phi: np.sum(np.ones_like(phi))) == pytest.approx(
        2.0 * math.pi, rel=1e-12
    )
    assert integrate_angle(lambda phi: np.sum(np.cos(phi))) == pytest.approx(0.0, abs=1e-12)
    assert integrate_angle(lambda phi: np.sum(np.cos(phi) ** 2)) == pytest.approx(
        math.pi, rel=1e-12
    )


@given(
    m=st.integers(min_value=0, max_value=4),
    n=st.integers(min_value=0, max_value=4),
)
def test_angle_harmonic_orthogonality(m: int, n: int):
    value = integrate_angle(lambda phi: np.sum(np.cos(m * phi) * np.cos(n * phi)))
    if m != n:
        expected = 0.0
    elif m == 0:
        expected = 2.0 * math.pi
    else:
        expected = math.pi
    assert value == pytest.approx(expected, abs=1e-10)


def test_angle_integral_returns_complex_when_needed():
    value = integrate_angle(lambda phi: np.sum(np.exp(1j * phi) + 2.0))
    assert np.iscomplexobj(value)
    assert value == pytest.approx(4.0 * math.pi, abs=1e-10)


def test_angle_integral_stalls_on_rough_integrand():
    with pytest.raises(QuadratureConvergenceError) as excinfo:
        integrate_angle(lambda phi: np.sum(np.sin(1e8 * phi * phi)))
    assert excinfo.value.error_estimate > 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1e-9)


@pytest.mark.parametrize(
    "field, value",
    [
        ("abs_tol", math.nan),
        ("rel_tol", math.nan),
        ("rel_tol", math.inf),
        ("abs_tol", math.inf),
    ],
)
def test_config_rejects_non_finite_and_non_integer_settings(field, value):
    # Each of these was accepted once: a nan abs_tol ran a route about 3x
    # longer without an error.
    with pytest.raises(ValueError, match=field):
        QuadratureConfig(**{field: value})


def test_config_rel_tol_has_a_floor_of_eps():
    # No float64 sum meets a relative tolerance below one ulp.
    eps = np.finfo(float).eps
    assert QuadratureConfig(rel_tol=eps).rel_tol == eps
    for rel_tol in (math.nextafter(eps, 0.0), 3e-17, 1e-140):
        with pytest.raises(ValueError, match="rel_tol must be finite and at least"):
            QuadratureConfig(rel_tol=rel_tol)


def test_config_is_frozen():
    # Assigning a field would skip the checks above: a nan rel_tol set after
    # construction once ran a route to a number with no error.
    cfg = QuadratureConfig()
    for field in ("rel_tol", "abs_tol"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, math.nan)
    assert (cfg.rel_tol, cfg.abs_tol) == (1e-9, 1e-14)
    assert [f.name for f in dataclasses.fields(QuadratureConfig)] == ["rel_tol", "abs_tol"]


def test_domain_errors():
    f = lambda kp, kz: kp
    with pytest.raises(ValueError):
        integrate_k_par(f, 0.0)
    with pytest.raises(ValueError):
        integrate_k_par(f, -1.0)


# -- the batched G10/K21 rule against scipy.integrate.quad_vec --------------


def _quad_vec_reference(g, a, b, cfg):
    """scipy's quad_vec on the same batched integrand, one node per call.

    A call over several sides runs quad_vec on each side and sums them.
    """
    total = 0.0
    for lo, hi in zip(np.atleast_1d(a), np.atleast_1d(b)):
        res, _ = quad_vec(
            lambda x: np.asarray(g(np.array([x])))[0],
            lo,
            hi,
            epsabs=cfg.abs_tol,
            epsrel=cfg.rel_tol,
            limit=lateralvdw.quadrature._MAX_PANELS,
            norm="max",
        )
        total = total + res
    return total


@pytest.fixture
def reference_rule(monkeypatch):
    """Calls fn with every adaptive integral routed through quad_vec."""

    def run(fn):
        with monkeypatch.context() as patch:
            for module in (lateralvdw.quadrature, lateralvdw.forces):
                patch.setattr(module, "_qag", _quad_vec_reference)
            return fn()

    return run


def _relative_gap(value, reference) -> float:
    return float(np.max(np.abs(np.asarray(value) - reference)) / np.max(np.abs(reference)))


def test_kronrod_and_gauss_rules_integrate_monomials_exactly():
    # K21 has degree 31 and the embedded G10 degree 19.
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.dot(_KRONROD, _NODES**k) - exact) <= 1e-15
        if k <= 19:
            assert abs(np.dot(_GAUSS, _NODES**k) - exact) <= 1e-15
    # Both degrees are sharp.
    assert abs(np.dot(_GAUSS, _NODES**20) - 2.0 / 21.0) > 1e-8
    assert abs(np.dot(_KRONROD, _NODES**32) - 2.0 / 33.0) > 1e-13


@pytest.mark.parametrize("xi", [0.3, 1.0, 3.0, 10.0])
def test_rule_matches_quad_vec_on_analytic_integrals(xi: float, reference_rule):
    r = xi
    for f in _analytic_kernels(r):
        for integral in (
            lambda: propagating_rule(f),
            lambda: evanescent_rule(f, r),
        ):
            assert _relative_gap(integral(), reference_rule(integral)) <= 1e-13


def _analytic_kernels(r: float) -> list:
    return [
        lambda kp, kz: kp / kz * np.exp(1j * kz * r),
        lambda kp, kz: kp**2 / kz * np.exp(1j * kz * r),
        lambda kp, kz: kp**4 / kz * np.exp(1j * kz * r),
        lambda kp, kz: np.stack([kp, kp / kz, kp * kp], axis=-1),
    ]


@pytest.mark.parametrize("xi", [0.3, 1.0, 3.0, 10.0])
def test_k_par_rule_is_the_sum_of_its_sides(xi: float):
    r = xi
    for f in _analytic_kernels(r):
        both = integrate_k_par(f, r)
        sides = propagating_rule(f) + evanescent_rule(f, r)
        assert _relative_gap(both, sides) <= 1e-13


def test_k_par_rule_keeps_every_node_on_its_side():
    # The first call holds both sides whole and halved, 63 nodes each; in
    # every call a real k_perp comes with k_par below k = 1 and an
    # imaginary one with k_par above it.
    k = 1.0
    calls = []

    def record(k_par, k_perp):
        calls.append((k_par, k_perp))
        return k_par**4 / k_perp * np.exp(1j * k_perp * 10.0)

    integrate_k_par(record, 10.0, QuadratureConfig(rel_tol=1e-12, abs_tol=0.0))
    assert len(calls) > 1
    for number, (k_par, k_perp) in enumerate(calls):
        propagating = k_perp.imag == 0.0
        if number == 0:
            assert len(k_par) == 126 and np.count_nonzero(propagating) == 63
        assert np.all(k_par[propagating] < k) and np.all(k_perp.real[propagating] > 0.0)
        assert np.all(k_par[~propagating] > k) and np.all(k_perp.real[~propagating] == 0.0)
        assert np.all(k_perp.imag[~propagating] > 0.0)


def test_each_k_par_route_runs_one_adaptive_rule(monkeypatch):
    system = TwoAtomSystem.cs_rb(4.66 * CESIUM_WAVELENGTH / (2.0 * math.pi))
    delta = np.array([0.35, -0.2, 0.8]) * system.separation
    runs = []
    rule = lateralvdw.quadrature._qag

    def counted(*args):
        runs.append(args)
        return rule(*args)

    monkeypatch.setattr(lateralvdw.quadrature, "_qag", counted)
    for route in (
        lambda: recoil_rate_profile(system, 32),
        lambda: assisted_rate_correction_quadrature(system),
        lambda: recoil_rate_quadrature(system, 0.3),
        lambda: greens_free_from_modes(delta, system.omega_a),
    ):
        runs.clear()
        route()
        assert len(runs) == 1


@pytest.mark.parametrize("xi", [0.3, 4.66, 20.0])
def test_oracle_routes_match_quad_vec(xi: float, reference_rule):
    system = TwoAtomSystem.cs_rb(xi * CESIUM_WAVELENGTH / (2.0 * math.pi))
    r = system.separation
    tight = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-30)
    modes_cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-30)
    delta = np.array([0.35 * r, -0.2 * r, 0.8 * r])
    routes = [
        (lambda: recoil_rate_profile(system, 32, tight)[1], 1e-13),
        (lambda: assisted_rate_correction_quadrature(system, tight), 1e-13),
        (lambda: nonresonant_force(system), 1e-13),
        (lambda: greens_free_from_modes(delta, system.omega_a, modes_cfg), 1e-11),
    ]
    for route, bound in routes:
        assert _relative_gap(route(), reference_rule(route)) <= bound


@pytest.mark.parametrize(
    "f, b",
    [
        (lambda x: np.exp(30j * x) / (1.0 + x * x), 5.0),
        (lambda x: np.log(x), 1.0),
        (lambda x: np.stack([x * np.sin(x), np.sqrt(x), np.exp(-50.0 * x)], axis=-1), 3.0),
    ],
)
def test_rule_picks_the_panels_of_quad_vec(f, b: float):
    # Same panels: the node count equals quad_vec's.  The first call holds
    # [0, b] and both of its halves; each later call holds both halves of
    # every panel split in that round.
    cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=0.0)
    sizes = []

    def batched(x):
        sizes.append(len(x))
        return f(x)

    value = lateralvdw.quadrature._qag(batched, 0.0, b, cfg)
    reference, _, info = quad_vec(
        f, 0.0, b, epsabs=0.0, epsrel=1e-10, limit=200, norm="max", full_output=True
    )
    assert sum(sizes) == info.neval
    assert sizes[0] == 63 and all(n % 42 == 0 for n in sizes[1:])
    assert _relative_gap(value, reference) <= 1e-13


def test_rule_splits_several_panels_per_call():
    # The oscillatory integrand needs several splits in a round: 31 panels
    # come from far fewer integrand calls.
    sizes = []

    def batched(x):
        sizes.append(len(x))
        return np.exp(30j * x) / (1.0 + x * x)

    lateralvdw.quadrature._qag(batched, 0.0, 5.0, QuadratureConfig(rel_tol=1e-10, abs_tol=0.0))
    assert len(sizes) < sum(sizes) // 21 // 2


def test_adaptive_rule_stalls_on_rough_integrand():
    with pytest.raises(QuadratureConvergenceError) as excinfo:
        propagating_rule(lambda kp, kz: np.sin(1e8 * kp * kp))
    assert excinfo.value.error_estimate > 0.0


@pytest.mark.parametrize(
    "f",
    [
        lambda kp, kz: np.where(kp > 0.5, np.inf, 1.0),
        lambda kp, kz: np.full(kp.shape, np.nan),
        lambda kp, kz: np.where(kp > 0.5, np.inf, -np.inf),
    ],
    ids=["inf", "nan", "inf-minus-inf"],
)
def test_adaptive_rule_raises_on_non_finite_integrals(f):
    # RuntimeWarning is an error in this suite: the rule must raise its own
    # error instead of returning inf or nan, and warn about nothing.
    with pytest.raises(QuadratureConvergenceError):
        propagating_rule(f)
    with pytest.raises(QuadratureConvergenceError):
        evanescent_rule(f, 1.0)
    with pytest.raises(QuadratureConvergenceError):
        integrate_k_par(f, 1.0)


def test_adaptive_rule_raises_on_a_non_finite_first_panel():
    # Only the centre node of [0, 2] is infinite; the halves, fused into the
    # first call, are finite but must not be used.
    sizes = []

    def batched(x):
        sizes.append(len(x))
        return np.where(x == 1.0, np.inf, x)

    with pytest.raises(QuadratureConvergenceError):
        lateralvdw.quadrature._qag(batched, 0.0, 2.0, QuadratureConfig())
    assert sizes == [63]
