"""Quadrature over the lateral-momentum plane and over the azimuth.

The k-parallel axis splits at the light line k = omega/c.  On the
propagating side the substitution k_par = (omega/c) sin(theta) removes the
1/k_perp endpoint singularity exactly; on the evanescent side
k_par = (omega/c) cosh(u) does the same and the integral is truncated once
exp(-kappa r) has fallen by a configurable number of e-folds.  Azimuthal
integrals of smooth periodic integrands use the trapezoid rule with
interval doubling, which converges spectrally; successive refinements act
as the error estimate.

Everything here is generic plumbing; the physics lives in the integrands
the callers pass in.  Integrands receive (k_par, k_perp) with the branch
Im k_perp >= 0 already resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad_vec

from .constants import c

__all__ = [
    "QuadratureConfig",
    "QuadratureConvergenceError",
    "transverse_wavenumber",
    "integrate_propagating",
    "integrate_evanescent",
    "integrate_angle",
]


@dataclass
class QuadratureConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_subdivisions: int = 200
    tail_cutoff_decades: float = 40.0

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.abs_tol < 0.0:
            raise ValueError(f"abs_tol must be nonnegative, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be at least 1, got {self.max_subdivisions}"
            )
        if not self.tail_cutoff_decades > 0.0:
            raise ValueError(
                f"tail_cutoff_decades must be positive, got {self.tail_cutoff_decades}"
            )


_DEFAULT = QuadratureConfig()


class QuadratureConvergenceError(RuntimeError):
    """Raised when an adaptive rule stalls; carries the achieved estimate."""

    def __init__(self, message: str, error_estimate: float):
        super().__init__(f"{message} (achieved error estimate {error_estimate:.3e})")
        self.error_estimate = error_estimate


def transverse_wavenumber(k_par: float, omega: float) -> complex:
    """k_perp = sqrt(omega^2/c^2 - k_par^2) on the branch Im k_perp >= 0."""
    if k_par < 0.0:
        raise ValueError(f"k_par must be nonnegative, got {k_par}")
    k = omega / c
    if k_par <= k:
        return complex(math.sqrt(k * k - k_par * k_par), 0.0)
    out = complex(0.0, math.sqrt(k_par * k_par - k * k))
    assert out.imag >= 0.0
    return out


def _quad_vec(g: Callable[[float], complex | np.ndarray], a: float, b: float,
              cfg: QuadratureConfig) -> complex | np.ndarray:
    """Adaptive integral of a scalar or array integrand, shared error control."""
    res, err = quad_vec(
        g,
        a,
        b,
        epsabs=cfg.abs_tol,
        epsrel=cfg.rel_tol,
        limit=max(cfg.max_subdivisions, 10),
        norm="max",
    )
    scale = np.max(np.abs(res))
    if err > 10.0 * max(cfg.abs_tol, cfg.rel_tol * scale) and err > 1e-13 * scale:
        raise QuadratureConvergenceError("adaptive integral did not converge", err)
    return res


def integrate_propagating(f, omega: float, config: QuadratureConfig | None = None):
    """Integral of f(k_par, k_perp) over k_par in [0, omega/c].

    The sin(theta) substitution supplies a factor k_perp = (omega/c)
    cos(theta) that cancels the usual 1/k_perp endpoint singularity.  The
    integrand may return a complex scalar or an ndarray (all components are
    integrated together with a shared error control).
    """
    cfg = config or _DEFAULT
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    k = omega / c

    def g(theta):
        k_par = k * math.sin(theta)
        k_perp = k * math.cos(theta)
        return f(k_par, complex(k_perp, 0.0)) * (k * math.cos(theta))

    return _quad_vec(g, 0.0, 0.5 * math.pi, cfg)


def integrate_evanescent(f, omega: float, distance: float,
                         config: QuadratureConfig | None = None):
    """Integral of f(k_par, k_perp) over k_par in (omega/c, infinity).

    ``distance`` sets the exponential scale exp(-kappa * distance) of the
    integrand tail; integration stops once kappa * distance reaches
    ``tail_cutoff_decades`` e-folds.  Substituting k_par = (omega/c) cosh(u)
    cancels the 1/kappa branch-point singularity.
    """
    cfg = config or _DEFAULT
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    if distance <= 0.0:
        raise ValueError(f"distance must be positive, got {distance}")
    k = omega / c
    u_max = math.asinh(cfg.tail_cutoff_decades / (k * distance))

    def g(u):
        k_par = k * math.cosh(u)
        kappa = k * math.sinh(u)
        return f(k_par, complex(0.0, kappa)) * (k * math.sinh(u))

    return _quad_vec(g, 0.0, u_max, cfg)


def integrate_angle(f, config: QuadratureConfig | None = None):
    """Full-period integral of a smooth 2*pi-periodic integrand.

    Uses the trapezoid rule on an equispaced grid with doubling refinement;
    for periodic integrands the rule is spectrally accurate, so successive
    levels give a sharp error estimate (the Richardson comparison).  The
    integrand is called once per level with the array of that level's
    azimuths and returns values with a leading axis over them: shape (P,)
    for a scalar integrand, (P, ...) for an array one.  A scalar integrand
    gives a float, or a complex when the imaginary part is nonzero.
    """
    cfg = config or _DEFAULT
    two_pi = 2.0 * math.pi
    n = 16
    total = np.sum(f(two_pi * np.arange(n) / n), axis=0) * (two_pi / n)
    while n <= (1 << 16):
        mid = np.sum(f(two_pi * (np.arange(n) + 0.5) / n), axis=0)
        refined = 0.5 * total + mid * (two_pi / (2 * n))
        delta = float(np.max(np.abs(refined - total)))
        scale = float(np.max(np.abs(refined)))
        total, n = refined, 2 * n
        if delta <= max(cfg.abs_tol, cfg.rel_tol * scale):
            if total.ndim == 0:
                val = complex(total)
                return val.real if abs(val.imag) == 0.0 else val
            return total
    raise QuadratureConvergenceError("periodic angle integral did not converge", delta)
