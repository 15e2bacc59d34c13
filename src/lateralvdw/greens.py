"""Free-space dyadic Green's tensor of the electric field wave equation.

Closed form, analytic spatial gradient and the lateral-momentum
(cylindrical wave) resolution.  The single-scatterer Born term
G(r, r_B) alpha_B G(r_B, r_A) is assembled in ``forces``.  The closed form is
organised as dimensionless shape coefficients of xi = omega r / c times an
explicit 1/(4 pi r) scale, so nothing underflows even at deeply
sub-wavelength separations where SI intermediates get small.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import _require_finite, _require_positive, c
from .quadrature import (
    QuadratureConfig,
    integrate_angle,
    integrate_k_par,
)

__all__ = [
    "greens_free",
    "greens_free_gradient",
    "greens_free_from_modes",
]

_EYE = np.eye(3)
# Rows 1, cos^2, cos sin, sin^2 of the harmonic table: even under phi -> phi + pi.
_EVEN = np.array([0, 3, 4, 5])
# The nine row-major entries of a symmetric tensor from xx, xy, xz, yy, yz, zz.
_SYMMETRIC = [0, 1, 2, 1, 3, 4, 2, 4, 5]


def _displacements(r_from, r_to) -> tuple:
    """Flattened rows of r_from - r_to: leading shape, distances and unit vectors.

    Leading axes broadcast, so (3,) points give one row and (N, 3) stacks N.
    The unit vectors come as (3, N) columns, one contiguous row per axis.
    """
    with np.errstate(invalid="ignore"):  # inf - inf gives nan, rejected below
        rr = np.subtract(r_from, r_to, dtype=float)
    lead = rr.shape[:-1]
    rr = np.ascontiguousarray(rr.reshape(-1, 3).T)
    # sqrt of (x^2 + y^2) + z^2 over three contiguous rows: the bits of
    # np.linalg.norm, without its dispatch or a reduction over an axis of 3.
    squares = rr * rr
    dist = np.sqrt(squares[0] + squares[1] + squares[2])
    # A nan or infinite coordinate leaves a nan or infinite distance.
    if not np.isfinite(dist).all():
        raise ValueError("Green's tensor requires finite points")
    if not dist.all():
        raise ValueError("Green's tensor requires two distinct points")
    return lead, dist, rr / dist


# Just below this xi, 15/xi^2 (in B' - 2 B/r), the largest coefficient term, overflows.
_XI_FLOOR = math.sqrt(15.0 / float(np.finfo(float).max))


# The coefficient kernels below take xi on the real axis or, for
# nonresonant_force, at xi = i eta (omega = i zeta).  There every
# coefficient continues term by term: a = 1 + 1/eta + 1/eta^2, the phase
# e^{i xi} becomes e^{-eta}, and all of them come out real (the standard
# Lifshitz / Casimir-Polder rotation).


def _shape_coefficients(xi: np.ndarray) -> tuple:
    """Phase e^{i xi} and the shapes a, b of G = e^{i xi}/(4 pi r) (a I + b uu)."""
    inv = 1.0 / xi
    a = 1.0 + 1j * inv - inv * inv
    b = -1.0 - 3j * inv + 3.0 * inv * inv
    return np.exp(1j * xi), a, b


def _radial_coefficients(xi: np.ndarray) -> tuple:
    """Phase and shapes of the radial coefficients of G = A I + B uu.

    Returns (phase, a, b, da, db) with A = phase a/(4 pi r), B = phase b/(4 pi r)
    and their radial derivatives A' = phase da/(4 pi r^2), B' = phase db/(4 pi r^2).
    The gradient of G with respect to r_from is
    A' u_k I + B' u_k uu + (B/r) [(e_k - u_k u) u + u (e_k - u_k u)].
    """
    return _shape_coefficients(xi) + _derivative_shapes(xi)


def _derivative_shapes(xi: np.ndarray) -> tuple:
    """The shapes da, db of the radial derivatives in _radial_coefficients."""
    inv = 1.0 / xi
    da = 1j * xi - 2.0 - 3j * inv + 3.0 * inv * inv
    db = -1j * xi + 4.0 + 9j * inv - 9.0 * inv * inv
    return da, db


def _contractions(r_from, r_to, xi) -> tuple:
    """G(r_from, r_to) . v and l . grad_k G . w at the given xi = omega r / c, per row.

    With G = A I + B uu and its gradient from _radial_coefficients,
    G . v = A (v - u (u.v)) + (A + B) u (u.v) and
    l . grad_k G . w = A' u_k (l.w) + B' u_k (l.u)(u.w)
                       + (B/r) [(l_k - u_k l.u)(u.w) + (l.u)(w_k - u_k u.w)]:
    dot products per row, and no (N, 3, 3) or (N, 3, 3, 3) tensor stack.
    The displacement, the phase and the shapes are formed once; the
    derivative shapes only when a gradient is first contracted.  Both
    functions take vectors of shape (3,) or (N, 3) and give a (3,) row for
    single points and (N, 3) rows for (N, 3) stacks or for N values of xi.
    """
    lead, dist, unit = _displacements(r_from, r_to)
    lead = np.broadcast_shapes(lead, np.shape(xi))
    phase, a, b = _shape_coefficients(xi)
    scale = phase / (4.0 * math.pi * dist)
    # a + b summed before the scale, as in _greens, so on-axis rows are its bits.
    transverse, radial = scale * a, scale * (a + b)
    # Columns are rows here: (3, N) vectors, so each dot product sums three
    # contiguous rows instead of reducing a last axis of length 3.
    derivative = None

    def apply(vector) -> np.ndarray:
        vector = np.atleast_2d(vector).T
        along = unit * np.add.reduce(unit * vector)
        return (transverse * (vector - along) + radial * along).T.reshape(lead + (3,))

    def gradient(left, right) -> np.ndarray:
        nonlocal derivative
        if derivative is None:
            # A', B' and B/r share the denominator 4 pi r^2; the two transverse
            # u_k terms of the bracket join the B' one as B' - 2 B/r.
            da, db = _derivative_shapes(xi)
            area = 4.0 * math.pi * dist * dist
            derivative = phase * da / area, phase * (db - 2.0 * b) / area, phase * b / area
        a_prime, radial_prime, b_over_r = derivative
        left, right = np.atleast_2d(left).T, np.atleast_2d(right).T
        lu = np.add.reduce(left * unit)
        uw = np.add.reduce(unit * right)
        lw = np.add.reduce(left * right)
        rows = (a_prime * lw + radial_prime * lu * uw) * unit + b_over_r * (uw * left + lu * right)
        return rows.T.reshape(lead + (3,))

    return apply, gradient


def _rows(r_from, r_to, omega) -> tuple:
    """_displacements with (N, 3) unit rows, and xi = omega r / c; |xi| above _XI_FLOOR."""
    lead, dist, unit = _displacements(r_from, r_to)
    xi = omega * dist / c
    _require_positive("|xi|", np.abs(xi), low=_XI_FLOOR)
    return lead, dist, unit.T, xi


def _greens(r_from, r_to, omega) -> np.ndarray:
    """G(r_from, r_to, omega) per row; omega is a float or one frequency per row."""
    lead, dist, unit, xi = _rows(r_from, r_to, omega)
    phase, a, b = _shape_coefficients(xi)
    scale = phase / (4.0 * math.pi * dist)
    uu = unit[:, :, None] * unit[:, None, :]
    tensor = scale[:, None, None] * (a[:, None, None] * _EYE + b[:, None, None] * uu)
    return tensor.reshape(lead + (3, 3))


def _greens_gradient(r_from, r_to, omega) -> np.ndarray:
    """grad[..., k, i, j] = d G_ij / d r_from[k], assembled from _radial_coefficients."""
    lead, dist, unit, xi = _rows(r_from, r_to, omega)
    phase, _, b, da, db = _radial_coefficients(xi)
    s2 = phase / (4.0 * math.pi * dist * dist)
    b_over_r = phase * b / (4.0 * math.pi * dist * dist)

    uu = unit[:, :, None] * unit[:, None, :]
    radial = da[:, None, None] * _EYE + db[:, None, None] * uu
    term = (s2[:, None] * unit)[:, :, None, None] * radial[:, None, :, :]
    # proj[k, i, j] = (delta_ki - u_k u_i) u_j, the transverse part of e_k.
    proj = (_EYE - uu)[:, :, :, None] * unit[:, None, None, :]
    grad = term + b_over_r[:, None, None, None] * (proj + proj.swapaxes(-1, -2))
    return grad.reshape(lead + (3, 3, 3))


def greens_free(r_from, r_to, omega: float) -> np.ndarray:
    """Free-space dyadic Green's tensor G(r_from, r_to, omega), units 1/m.

    Points of shape (3,) give a (3, 3) tensor; stacked points of shape (N, 3)
    give the (N, 3, 3) stack; xi = omega r / c must exceed _XI_FLOOR, 2.9e-154.
    """
    _require_positive("omega", omega)
    return _greens(r_from, r_to, omega)


def greens_free_gradient(r_from, r_to, omega: float) -> np.ndarray:
    """Gradient of greens_free with respect to r_from.

    Returns grad[..., k, i, j] = d G_ij / d r_from[k], units 1/m^2: shape
    (3, 3, 3) for single points and (N, 3, 3, 3) for (N, 3) stacks.
    """
    _require_positive("omega", omega)
    return _greens_gradient(r_from, r_to, omega)


def _mode_node(dz: float, q_perp):
    """The node factor i e^{i q_perp |dz|} / (8 pi^2 q_perp) of a mode weight, in units of k."""
    return 1j / (8.0 * math.pi**2 * q_perp) * np.exp(1j * abs(dz) * q_perp)


def _azimuth_harmonics(phi: float | np.ndarray) -> np.ndarray:
    """The table H = (1, cos, sin, cos^2, cos sin, sin^2) of phi.

    A float phi gives shape (6,), (P,) azimuths give (6, P).  Apart from
    the lateral phase, a mode tensor depends on phi only through these.
    """
    cos_p, sin_p = np.cos(phi), np.sin(phi)
    return np.array([np.ones_like(cos_p), cos_p, sin_p, cos_p * cos_p, cos_p * sin_p,
                     sin_p * sin_p])


# The one home of the mode tensor I - q q, q the wave vector over k: its entries
# xx, xy, xz, yy, yz, zz are the _mode_monomials (m) and the _azimuth_harmonics (h)
# contracted with the 0/1 table _MODE_TABLE[m, h, entry].  Two consumers
# contract it: _mode_level_sum below and emission._mode_sandwich_profile.
_MODE_TABLE = np.zeros((4, 6, 6))
_MODE_TABLE[tuple(np.transpose([
    (0, 0, 0), (0, 0, 3), (0, 0, 5),  # 1: the identity
    (1, 0, 5),  # q_z^2: zz
    (2, 1, 2), (2, 2, 4),  # q q_z: cos for xz, sin for yz
    (3, 3, 0), (3, 4, 1), (3, 5, 3),  # q^2: cos^2 for xx, cos sin for xy, sin^2 for yy
]))] = 1.0


def _mode_monomials(q, q_z) -> np.ndarray:
    """The monomials (1, -q_z^2, -q q_z, -q^2) of _MODE_TABLE, on a new last axis.

    q = k_par/k and q_z = sign(dz) q_perp share one shape.
    """
    minus_z = -q_z
    return np.stack([np.ones_like(minus_z), minus_z * q_z, minus_z * q, -q * q], axis=-1)


def _mode_level_sum(dx: float, dy: float, dz: float, q: np.ndarray, q_perp: np.ndarray):
    """Level sums of the mode tensors of (K,) nodes q, as a function of the level.

    The displacement is in units of 1/k.  The returned callable takes the
    (P,) azimuths of one level and gives the sum of w (I - q q) over them as
    (K, 6) rows of the entries xx, xy, xz, yy, yz, zz, which ``_SYMMETRIC``
    spreads to nine.  w is the node factor times the lateral phase e^{i q t},
    t = dx cos phi + dy sin phi, so a level contracts the node factor times
    the _mode_monomials, set up once, and the (K, 6) moments of the phase
    against the harmonics through _MODE_TABLE.  The level must be closed
    under phi -> phi + pi with the shifted half last, as every level of
    integrate_angle is.  There t and the odd harmonics (cos, sin) flip sign,
    so the even moments are 2 cos(q t) and the odd ones 2i sin(q t)
    over the first half: real cos and sin, no complex exp.
    """
    q_z = math.copysign(1.0, dz) * q_perp
    monomials = (2.0 * _mode_node(dz, q_perp))[:, None] * _mode_monomials(q, q_z)
    q_col = q[:, None]
    table = _MODE_TABLE.reshape(24, 6).astype(complex)

    def level_sum(phis: np.ndarray) -> np.ndarray:
        harmonics = _azimuth_harmonics(phis[: len(phis) // 2])
        arg = q_col * (dx * harmonics[1] + dy * harmonics[2])
        moments = np.zeros((len(q), 6), dtype=complex)
        moments.real[:, _EVEN] = np.cos(arg) @ harmonics[_EVEN].T
        moments.imag[:, 1:3] = np.sin(arg) @ harmonics[1:3].T
        return (monomials[:, :, None] * moments[:, None, :]).reshape(-1, 24) @ table

    return level_sum


def greens_free_from_modes(delta_r, omega: float,
                           config: QuadratureConfig | None = None) -> np.ndarray:
    """Closed-form tensor rebuilt by quadrature over its cylindrical modes.

    Serves as the independent numerical route against greens_free; the
    azimuthal integral runs first, for each batch of q = k_par/k nodes at
    once, then one adaptive rule integrates the q axis over both sides of
    the light line, so each round runs one azimuth integral for the new
    nodes of both.  The modes integrate to |delta_r| G, of order 1/xi^2 as
    the closed form, xi = k |delta_r| above _XI_FLOOR.
    """
    _require_positive("omega", omega)
    _require_finite("delta_r", delta_r)
    distance = math.hypot(*delta_r)
    dx, dy, dz = omega / c * np.asarray(delta_r, dtype=float)  # in units of 1/k
    if delta_r[2] == 0.0:
        raise ValueError("mode resolution requires a nonzero z displacement")
    xi = math.hypot(dx, dy, dz)
    _require_positive("k |delta_r|", xi, low=_XI_FLOOR)

    def integrand(q: np.ndarray, q_perp: np.ndarray) -> np.ndarray:
        # One azimuth integral per batch of K nodes; xi q dq turns G / k into |delta_r| G.
        return (xi * q)[:, None] * integrate_angle(
            _mode_level_sum(dx, dy, dz, q, q_perp), config
        )

    # The rule runs over the six distinct entries: the repeated ones would
    # change neither the sums nor the max-norm error control.
    total = integrate_k_par(integrand, abs(dz), config)
    return total[_SYMMETRIC].reshape(3, 3) / distance

