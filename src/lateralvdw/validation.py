"""Cross-validation identities tying the closed forms to their quadrature oracles.

Each check pits two independent computational routes against each other:
the recoil-force identity (emission quadrature vs closed-form force), the
bracket/coefficient identity, the cylindrical decomposition of the Green's
tensor, the near-field expansion of the recoil rate, and the vanishing
lateral force on the ground-state atom.  A report of IdentityCheck rows is
what the CLI ``validate`` verb serialises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import c
from .emission import (
    near_field_recoil_rate,
    recoil_rate,
    recoil_rate_prefactor,
    recoil_rate_profile,
    spectrum_coefficients,
)
from .forces import lateral_force_shape, resonant_forces
from .greens import greens_free, greens_free_from_modes
from .quadrature import QuadratureConfig
from .system import TwoAtomSystem, _require_float_separation

__all__ = ["IdentityCheck", "run_identity_checks"]

# Quadrature settings of the identity checks; the CLI overrides single fields.
_IDENTITY_QUADRATURE = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-30)


@dataclass
class IdentityCheck:
    """One pass/fail row of the self-validation report."""

    name: str
    achieved_error: float
    tolerance: float
    passed: bool
    detail: str = ""


def _check(name, err, tol, detail=""):
    return IdentityCheck(
        name=name,
        achieved_error=float(err),
        tolerance=float(tol),
        passed=bool(err <= tol),
        detail=detail,
    )


def _bracket_identity_error(f3_scale: float) -> float:
    xis = np.linspace(0.05, 30.0, 240)
    lhs = lateral_force_shape(xis)
    rhs = -spectrum_coefficients(xis).f3 * f3_scale / 8.0
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-30)
    return float(np.max(np.abs(lhs - rhs) / scale))


def _recoil_identity_error(system: TwoAtomSystem, cfg: QuadratureConfig, f3_scale: float) -> float:
    # Emission route: cos-phi moment of the quadrature-built spectrum.  The
    # profile holds harmonics up to cos 2phi only, so the 32-point trapezoid
    # moment is exact up to quadrature noise.
    phis, rates = recoil_rate_profile(system, n_phi=32, config=cfg)
    moment = float(np.sum(rates * np.cos(phis)) * (2.0 * math.pi / len(phis)))
    force_from_emission = -moment
    # Force route, written through the shared coefficient so a perturbation
    # of f3 breaks the comparison.
    _, hand = system.circular_parameters()
    _, _, f3 = spectrum_coefficients(system.xi)
    pref = recoil_rate_prefactor(system)
    force_closed = -math.pi * pref * hand * f3 * f3_scale
    return abs(force_from_emission - force_closed) / abs(force_closed)


def _decomposition_error(system: TwoAtomSystem, cfg: QuadratureConfig) -> float:
    omega = system.omega_a
    r = 2.0 * c / omega  # xi = 2
    worst = 0.0
    for delta in (np.array([0.0, 0.0, r]), np.array([0.35 * r, -0.2 * r, 0.8 * r])):
        closed = greens_free(delta, np.zeros(3), omega)
        modes = greens_free_from_modes(delta, omega, cfg)
        worst = max(
            worst,
            float(np.max(np.abs(modes - closed)) / np.max(np.abs(closed))),
        )
    return worst


def _near_field_error(system: TwoAtomSystem) -> float:
    near_sys = replace(system, separation=1e-3 * c / system.omega_a)
    worst = 0.0
    for phi in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi):
        full = recoil_rate(near_sys, phi)
        approx = near_field_recoil_rate(near_sys, phi)
        worst = max(worst, abs(full - approx) / abs(full))
    return worst


def _ground_atom_lateral_error(system: TwoAtomSystem) -> float:
    probe = replace(system, separation=np.geomspace(100e-9, 5e-6, 25))
    on_a, on_b = resonant_forces(probe, 1.0)
    lateral = np.max(np.abs(on_b.force[:, :2]), axis=1)
    return float(np.max(lateral / np.abs(on_a.force[:, 0])))


def run_identity_checks(
    system: TwoAtomSystem | None = None,
    config: QuadratureConfig | None = None,
    f3_scale: float = 1.0,
) -> list[IdentityCheck]:
    """Run the five cross-route identities and report achieved errors.

    ``f3_scale`` is a perturbation hook for sensitivity tests: scaling the
    lateral coefficient by 1 + 1e-6 must push the recoil-force identity
    (and the bracket identity) out of tolerance.
    """
    system = system or TwoAtomSystem.cs_rb(632e-9)
    _require_float_separation(system, "run_identity_checks")
    cfg = config or _IDENTITY_QUADRATURE

    checks = [
        _check(
            "bracket-identity",
            _bracket_identity_error(f3_scale),
            1e-12,
            "closed-form force shape vs -f3/8 on a xi grid",
        ),
        _check(
            "recoil-force-identity",
            _recoil_identity_error(system, cfg, f3_scale),
            1e-9,
            "cos-phi moment of the quadrature spectrum vs closed-form force",
        ),
        _check(
            "cylindrical-decomposition",
            _decomposition_error(system, cfg),
            1e-6,
            "mode-integrated Green's tensor vs closed form at xi = 2",
        ),
        _check(
            "near-field-expansion",
            _near_field_error(system),
            1e-2,
            "small-xi expansion vs full recoil rate at xi = 1e-3",
        ),
        _check(
            "ground-atom-lateral-zero",
            _ground_atom_lateral_error(system),
            1e-12,
            "|F_B,lateral| / |F_A,x| over r in [100 nm, 5 um]",
        ),
    ]
    return checks
