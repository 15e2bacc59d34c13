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
    integrate_evanescent,
    integrate_propagating,
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
    """
    with np.errstate(invalid="ignore"):  # inf - inf gives nan, rejected below
        rr = np.subtract(r_from, r_to, dtype=float)
    lead = rr.shape[:-1]
    rr = rr.reshape(-1, 3)
    # sqrt of the row sums of squares: the bits of np.linalg.norm, without its dispatch.
    dist = np.sqrt(np.add.reduce(rr * rr, axis=-1))
    # A nan or infinite coordinate leaves a nan or infinite distance.
    if not np.isfinite(dist).all():
        raise ValueError("Green's tensor requires finite points")
    if not dist.all():
        raise ValueError("Green's tensor requires two distinct points")
    return lead, dist, rr / dist[:, None]


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


def _contractions(r_from, r_to, omega: float) -> tuple:
    """G(r_from, r_to, omega) . v and l . grad_k G . w per row, as two functions.

    With G = A I + B uu and its gradient from _radial_coefficients,
    G . v = A (v - u (u.v)) + (A + B) u (u.v) and
    l . grad_k G . w = A' u_k (l.w) + B' u_k (l.u)(u.w)
                       + (B/r) [(l_k - u_k l.u)(u.w) + (l.u)(w_k - u_k u.w)]:
    dot products per row, and no (N, 3, 3) or (N, 3, 3, 3) tensor stack.
    The displacement, the phase and the shapes are formed once; the
    derivative shapes only when a gradient is first contracted.  Both
    functions take vectors of shape (3,) or (N, 3) and give a (3,) row for
    single points and (N, 3) rows for (N, 3) stacks.
    """
    lead, dist, unit = _displacements(r_from, r_to)
    xi = omega * dist / c
    phase, a, b = _shape_coefficients(xi)
    scale = phase / (4.0 * math.pi * dist)
    # a + b summed before the scale, as in _greens, so on-axis rows are its bits.
    transverse, radial = scale * a, scale * (a + b)
    # Columns are rows here: (3, N) vectors, so each dot product sums three
    # contiguous rows instead of reducing a last axis of length 3.
    unit = np.ascontiguousarray(unit.T)
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


def _greens(r_from, r_to, omega) -> np.ndarray:
    """G(r_from, r_to, omega) per row; (N,) frequencies share one (3,) displacement."""
    lead, dist, unit = _displacements(r_from, r_to)
    phase, a, b = _shape_coefficients(omega * dist / c)
    scale = phase / (4.0 * math.pi * dist)
    uu = unit[:, :, None] * unit[:, None, :]
    tensor = scale[:, None, None] * (a[:, None, None] * _EYE + b[:, None, None] * uu)
    return tensor.reshape((lead or np.shape(omega)) + (3, 3))


def _greens_gradient(r_from, r_to, omega) -> np.ndarray:
    """grad[..., k, i, j] = d G_ij / d r_from[k], assembled from _radial_coefficients."""
    lead, dist, unit = _displacements(r_from, r_to)
    phase, _, b, da, db = _radial_coefficients(omega * dist / c)
    s2 = phase / (4.0 * math.pi * dist * dist)
    b_over_r = phase * b / (4.0 * math.pi * dist * dist)

    uu = unit[:, :, None] * unit[:, None, :]
    radial = da[:, None, None] * _EYE + db[:, None, None] * uu
    term = (s2[:, None] * unit)[:, :, None, None] * radial[:, None, :, :]
    # proj[k, i, j] = (delta_ki - u_k u_i) u_j, the transverse part of e_k.
    proj = (_EYE - uu)[:, :, :, None] * unit[:, None, None, :]
    grad = term + b_over_r[:, None, None, None] * (proj + proj.swapaxes(-1, -2))
    return grad.reshape((lead or np.shape(omega)) + (3, 3, 3))


def greens_free(r_from, r_to, omega: float) -> np.ndarray:
    """Free-space dyadic Green's tensor G(r_from, r_to, omega), units 1/m.

    Points of shape (3,) give a (3, 3) tensor; stacked points of shape
    (N, 3) give the (N, 3, 3) stack of per-row tensors.
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


def _mode_node(dz: float, k_perp):
    """The node factor i e^{i k_perp |dz|} / (8 pi^2 k_perp) of every mode weight."""
    return 1j / (8.0 * math.pi**2 * k_perp) * np.exp(1j * abs(dz) * k_perp)


def _azimuth_harmonics(phi: float | np.ndarray) -> np.ndarray:
    """The table H = (1, cos, sin, cos^2, cos sin, sin^2) of phi.

    A float phi gives shape (6,), (P,) azimuths give (6, P).  Apart from
    the lateral phase, a mode tensor depends on phi only through these.
    """
    cos_p, sin_p = np.cos(phi), np.sin(phi)
    return np.array([np.ones_like(cos_p), cos_p, sin_p, cos_p * cos_p, cos_p * sin_p,
                     sin_p * sin_p])


# The one home of the mode tensor I - (c/omega)^2 k k: its entries xx, xy,
# xz, yy, yz, zz are the _mode_monomials (m) and the _azimuth_harmonics (h)
# contracted with the 0/1 table _MODE_TABLE[m, h, entry].  Two consumers
# contract it: _mode_level_sum below and emission._mode_sandwich_profile.
_MODE_TABLE = np.zeros((4, 6, 6))
_MODE_TABLE[tuple(np.transpose([
    (0, 0, 0), (0, 0, 3), (0, 0, 5),  # 1: the identity
    (1, 0, 5),  # k_z^2: zz
    (2, 1, 2), (2, 2, 4),  # k_par k_z: cos for xz, sin for yz
    (3, 3, 0), (3, 4, 1), (3, 5, 3),  # k_par^2: cos^2 for xx, cos sin for xy, sin^2 for yy
]))] = 1.0


def _mode_monomials(k_par, k_z, omega: float) -> np.ndarray:
    """The monomials (1, k_z^2, k_par k_z, k_par^2) of _MODE_TABLE; all but 1 times -(c/omega)^2.

    k_par and k_z = sign(dz) k_perp share one shape; the result adds an axis of 4.
    """
    scale = -((c / omega) ** 2)
    scaled_z, scaled_par = scale * k_z, scale * k_par
    monomials = np.empty(np.shape(k_z) + (4,), dtype=complex)
    monomials[..., 0] = 1.0
    monomials[..., 1] = scaled_z * k_z
    monomials[..., 2] = scaled_par * k_z
    monomials[..., 3] = scaled_par * k_par
    return monomials


def _mode_level_sum(dx: float, dy: float, dz: float, omega: float, k_par: np.ndarray,
                    k_perp: np.ndarray):
    """Level sums of the mode tensors of (K,) nodes, as a function of the level.

    The returned callable takes the (P,) azimuths of one level and gives the
    sum of w (I - (c/omega)^2 k k) over them as (K, 6) rows of the entries
    xx, xy, xz, yy, yz, zz, which ``_SYMMETRIC`` spreads to nine.  w is the
    node factor times the lateral phase e^{i k_par t}, t = dx cos phi + dy sin phi,
    so a level contracts the node factor times the _mode_monomials, set up
    once, and the (K, 6) moments of the phase against the harmonics through
    _MODE_TABLE.  The level must be closed
    under phi -> phi + pi with the shifted half last, as every level of
    integrate_angle is.  There t and the odd harmonics (cos, sin) flip sign,
    so the even moments are 2 cos(k_par t) and the odd ones 2i sin(k_par t)
    over the first half: real cos and sin, no complex exp.
    """
    k_z = math.copysign(1.0, dz) * k_perp
    monomials = (2.0 * _mode_node(dz, k_perp))[:, None] * _mode_monomials(k_par, k_z, omega)
    k_col = k_par[:, None]
    table = _MODE_TABLE.reshape(24, 6).astype(complex)

    def level_sum(phis: np.ndarray) -> np.ndarray:
        harmonics = _azimuth_harmonics(phis[: len(phis) // 2])
        arg = k_col * (dx * harmonics[1] + dy * harmonics[2])
        moments = np.zeros((len(k_par), 6), dtype=complex)
        moments.real[:, _EVEN] = np.cos(arg) @ harmonics[_EVEN].T
        moments.imag[:, 1:3] = np.sin(arg) @ harmonics[1:3].T
        return (monomials[:, :, None] * moments[:, None, :]).reshape(-1, 24) @ table

    return level_sum


def greens_free_from_modes(delta_r, omega: float,
                           config: QuadratureConfig | None = None) -> np.ndarray:
    """Closed-form tensor rebuilt by quadrature over its cylindrical modes.

    Serves as the independent numerical route against greens_free; the
    azimuthal integral runs first, for each batch of k_par nodes at once,
    then the k_par axis is integrated separately on the propagating and
    evanescent sides.
    """
    _require_finite("delta_r", delta_r)
    dx, dy, dz = np.asarray(delta_r, dtype=float)
    if dz == 0.0:
        raise ValueError("mode resolution requires a nonzero z displacement")

    def integrand(k_par: np.ndarray, k_perp: np.ndarray) -> np.ndarray:
        # One azimuth integral for the whole batch of K nodes.
        return k_par[:, None] * integrate_angle(
            _mode_level_sum(dx, dy, dz, omega, k_par, k_perp), config
        )

    # Both passes run over the six distinct entries: the repeated ones would
    # change neither the sums nor the max-norm error control.
    total = integrate_propagating(integrand, omega, config)
    total = total + integrate_evanescent(integrand, omega, abs(dz), config)
    return total[_SYMMETRIC].reshape(3, 3)

