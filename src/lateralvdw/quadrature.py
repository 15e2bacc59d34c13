"""Quadrature over the lateral-momentum plane and over the azimuth.

The k-parallel axis splits at the light line k = omega/c.  On the
propagating side the substitution k_par = (omega/c) sin(theta) removes the
1/k_perp endpoint singularity exactly; on the evanescent side
k_par = (omega/c) cosh(u) does the same and the integral is truncated once
exp(-kappa r) has fallen by a configurable number of e-folds.  Azimuthal
integrals of smooth periodic integrands use the trapezoid rule with
interval doubling, which converges spectrally; successive refinements act
as the error estimate.

The k_par integrals run QUADPACK's globally adaptive QAG scheme with the
G10/K21 pair (Piessens et al., QUADPACK, Springer 1983): each round bisects
the panels with the largest error estimates and evaluates all of their
nodes in one integrand call.  One panel never stops the rule, so the
first call already holds [a, b] and both of its halves (63 nodes), and the
second round takes the halves from it.  A non-finite integral or error
estimate raises QuadratureConvergenceError.

Everything here is generic plumbing; the physics lives in the integrands
the callers pass in.  The k_par integrands take (k_par, k_perp) as (N,)
arrays with the branch Im k_perp >= 0 already resolved, and return values
with a leading axis over the N nodes, (N,) or (N, ...).  The azimuth
integrand takes the (P,) azimuths of one refinement level and returns the
sum of its values over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Unused here: perfbench's import_seconds reads the cumulative import time of
# scipy.integrate (and scipy.constants) from ``python -X importtime -c
# "import lateralvdw"`` and raises KeyError if the package stops loading it.
import scipy.integrate  # noqa: F401

from .constants import _require_count, _require_positive, c

__all__ = [
    "QuadratureConfig",
    "QuadratureConvergenceError",
    "integrate_propagating",
    "integrate_evanescent",
    "integrate_angle",
]

_EPS = float(np.finfo(float).eps)


@dataclass
class QuadratureConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_subdivisions: int = 200
    tail_cutoff_decades: float = 40.0

    def __post_init__(self):
        # Each bound also rejects nan and inf: a nan tolerance never stops a
        # rule and an infinite cutoff turns the evanescent range into nan.
        # No float64 sum meets a relative tolerance below one ulp, eps.
        if not _EPS <= self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and at least {_EPS!r}, got {self.rel_tol}")
        if not 0.0 <= self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be finite and nonnegative, got {self.abs_tol}")
        _require_count("max_subdivisions", self.max_subdivisions, 1)
        _require_positive("tail_cutoff_decades", self.tail_cutoff_decades)


_DEFAULT = QuadratureConfig()


class QuadratureConvergenceError(RuntimeError):
    """Raised when an adaptive rule stalls; carries the achieved estimate."""

    def __init__(self, message: str, error_estimate: float):
        super().__init__(f"{message} (achieved error estimate {error_estimate:.3e})")
        self.error_estimate = error_estimate


# QUADPACK qk21: Kronrod abscissae on [0, 1] (the last is the centre) with
# their weights, and the weights of the embedded 10-point Gauss rule, whose
# abscissae are _XGK[1], _XGK[3], ..., _XGK[9].
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# The full 21-node rule on [-1, 1], abscissae descending; the Gauss weights
# sit on the odd nodes and are zero on the Kronrod-only ones.
_NODES = np.array(_XGK + tuple(-x for x in reversed(_XGK[:-1])))
_KRONROD = np.array(_WGK + tuple(reversed(_WGK[:-1])))
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _WG
_GAUSS[11:20:2] = _WG[::-1]

# Most panels bisected in one round, as in scipy.integrate.quad_vec.
_MAX_SPLIT = 128

_TINY = np.finfo(float).tiny


def _max_abs(values) -> np.floating:
    """max |values| over every entry, nan if any is nan; np.max without its dispatch."""
    return np.maximum.reduce(np.abs(values), axis=None)


def _gk21(g, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """K21 integrals, error estimates and rounding floors of the panels [lo, hi].

    All 21 * M nodes go to g in one call.  The error estimate is QUADPACK's
    dabs * min(1, (200 |K21 - G10| / dabs)^1.5), floored by the rounding
    error 50 eps h int|f|, with the max-norm over the components.
    """
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    values = np.asarray(g((centre[:, None] + half[:, None] * _NODES).ravel()))
    tail = values.shape[1:]
    # (M, 21, C): the rule sums run as matmuls over the node axis.
    v = values.reshape(len(lo), 21, -1)
    h = np.abs(half)
    # A non-finite node value turns the sums into inf or nan without a
    # warning; _qag raises on the result.
    with np.errstate(invalid="ignore", over="ignore"):
        # Summed node by node in order, as quad_vec does, so that the integral
        # does not move with the batch layout; a cumulative sum (add.accumulate)
        # is sequential on any axis.  The ufunc methods below skip the
        # dispatch of their ndarray-method spellings.
        kronrod = np.add.accumulate(_KRONROD[:, None] * v, axis=1)[:, -1]
        gauss = _GAUSS @ v
        spread = _KRONROD @ np.abs(v - 0.5 * kronrod[:, None])
        magnitude = _KRONROD @ np.abs(v)
        err = h * np.maximum.reduce(np.abs(kronrod - gauss), axis=1)
        dabs = h * np.maximum.reduce(spread, axis=1)
        # The QUADPACK scaling applies where both dabs and err are nonzero:
        # on every panel but a flat or exactly integrated one.
        scaled = (dabs != 0.0) & (err != 0.0)
        ratio = np.divide(200.0 * err, dabs, out=np.zeros_like(err), where=scaled)
        np.multiply(dabs, np.minimum(1.0, ratio) ** 1.5, out=err, where=scaled)
        rounding = 50.0 * _EPS * h * np.maximum.reduce(magnitude, axis=1)
        np.maximum(err, rounding, out=err, where=rounding > _TINY)
    return (half[:, None] * kronrod).reshape((len(lo),) + tail), err, rounding


def _qag(g, a: float, b: float, cfg: QuadratureConfig):
    """Globally adaptive G10/K21 integral of a batched integrand over [a, b].

    g takes an (N,) array of abscissae and returns (N,) or (N, ...) values;
    every component shares one error control.  Each round bisects the
    panels with the largest errors, worst first, until the error left in
    the unsplit ones is below tol/8, and evaluates the new nodes in one call.
    The rule stops with at least two panels and a total error below tol/8,
    tol = max(abs_tol, rel_tol max|I|), or at the panel limit.  Panel
    choice and stopping follow scipy.integrate.quad_vec with norm="max".
    A non-finite integral or error estimate raises.
    """
    limit = max(cfg.max_subdivisions, 10)
    a, b = float(a), float(b)
    m = 0.5 * (a + b)
    # One panel never stops the rule (that needs two) nor reaches the limit
    # (at least 10), so [a, b] is always bisected at m: the first call
    # evaluates [a, b] and both halves, 63 nodes.
    parts, errs, rounding = _gk21(g, np.array([a, a, m]), np.array([b, m, b]))
    first = errs[0] + rounding[0]
    if not math.isfinite(first):
        raise QuadratureConvergenceError("adaptive integral is not finite", first)
    lo, hi = np.array([a, m]), np.array([m, b])
    parts, errs = parts[1:], errs[1:]
    # Like quad_vec, the rounding floor sums over every panel ever built.
    floor = rounding[0] + np.add.reduce(rounding[1:])
    while True:
        total, error = np.add.reduce(parts), np.add.reduce(errs)
        tol = max(cfg.abs_tol, cfg.rel_tol * _max_abs(total))
        if error < tol / 8.0 or error < floor:
            break
        if len(lo) >= limit or not (math.isfinite(error) and math.isfinite(floor)):
            break
        order = np.lexsort((lo, -errs))
        # Split the worst panel, then the next ones while the error already
        # taken stays within error - tol/8.
        taken = np.cumsum(errs[order])[:-1]
        n = min(_MAX_SPLIT, 1 + int(np.count_nonzero(taken <= error - tol / 8.0)))
        split, keep = order[:n], order[n:]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_parts, new_errs, new_rounding = _gk21(g, new_lo, new_hi)
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        parts = np.concatenate([parts[keep], new_parts])
        errs = np.concatenate([errs[keep], new_errs])
        floor += np.add.reduce(new_rounding)
    err = error + floor
    scale = _max_abs(total)
    if not (math.isfinite(scale) and math.isfinite(err)):
        raise QuadratureConvergenceError("adaptive integral is not finite", err)
    if err > 10.0 * max(cfg.abs_tol, cfg.rel_tol * scale) and err > 1e-13 * scale:
        raise QuadratureConvergenceError("adaptive integral did not converge", err)
    return total[()]


def _rows_times(values, weights: np.ndarray) -> np.ndarray:
    """(N, ...) integrand values scaled row by row by (N,) weights."""
    values = np.asarray(values)
    return values * weights.reshape(weights.shape + (1,) * (values.ndim - 1))


def integrate_propagating(f, omega: float, config: QuadratureConfig | None = None):
    """Integral of f(k_par, k_perp) over k_par in [0, omega/c].

    The sin(theta) substitution supplies a factor k_perp = (omega/c)
    cos(theta) that cancels the usual 1/k_perp endpoint singularity.  f
    takes (N,) arrays of k_par and complex k_perp and returns (N,) values,
    or (N, ...) for an array integrand (all components are integrated
    together with a shared error control).
    """
    cfg = config or _DEFAULT
    _require_positive("omega", omega)
    k = omega / c

    def g(theta):
        k_perp = k * np.cos(theta)
        return _rows_times(f(k * np.sin(theta), k_perp + 0j), k_perp)

    return _qag(g, 0.0, 0.5 * math.pi, cfg)


def integrate_evanescent(f, omega: float, distance: float,
                         config: QuadratureConfig | None = None):
    """Integral of f(k_par, k_perp) over k_par in (omega/c, infinity).

    ``distance`` sets the exponential scale exp(-kappa * distance) of the
    integrand tail; integration stops once kappa * distance reaches
    ``tail_cutoff_decades`` e-folds.  Substituting k_par = (omega/c) cosh(u)
    cancels the 1/kappa branch-point singularity.  f takes the same (N,)
    arrays and returns the same shapes as in integrate_propagating.
    """
    cfg = config or _DEFAULT
    _require_positive("omega", omega)
    _require_positive("distance", distance)
    k = omega / c
    u_max = math.asinh(cfg.tail_cutoff_decades / (k * distance))

    def g(u):
        kappa = k * np.sinh(u)
        return _rows_times(f(k * np.cosh(u), 1j * kappa), kappa)

    return _qag(g, 0.0, u_max, cfg)


def integrate_angle(f, config: QuadratureConfig | None = None):
    """Full-period integral of a smooth 2*pi-periodic integrand.

    Uses the trapezoid rule on an equispaced grid with doubling refinement;
    for periodic integrands the rule is spectrally accurate, so successive
    levels give a sharp error estimate (the Richardson comparison).  The
    integrand is called once per level with the array of that level's
    azimuths: 2 pi j / 16, then the midpoints 2 pi (j + 1/2) / n of the
    n-point grid for n = 16, 32, ...  Each level is closed under
    phi -> phi + pi, with the shifted half last.  The integrand returns the
    sum of its values over them: a scalar for a scalar integrand, an array
    for an array one.  A scalar integrand gives a float, or a complex when
    the imaginary part is nonzero.
    """
    cfg = config or _DEFAULT
    two_pi = 2.0 * math.pi
    n = 16
    total = np.asarray(f(two_pi * np.arange(n) / n)) * (two_pi / n)
    while n <= (1 << 16):
        mid = np.asarray(f(two_pi * (np.arange(n) + 0.5) / n))
        refined = 0.5 * total + mid * (two_pi / (2 * n))
        delta = float(_max_abs(refined - total))
        scale = float(_max_abs(refined))
        total, n = refined, 2 * n
        if delta <= max(cfg.abs_tol, cfg.rel_tol * scale):
            if total.ndim == 0:
                val = complex(total)
                return val.real if abs(val.imag) == 0.0 else val
            return total
    raise QuadratureConvergenceError("periodic angle integral did not converge", delta)
