"""Bessel functions J_n, Y_n and the outgoing Hankel function H_n^(1).

A checked wrapper over ``scipy.special.jv``/``yv`` (DLMF chapter 10) for
the low integer orders on the positive real axis that the emission closed
forms need.  A float argument gives a float; an array gives an array.
"""

import numpy as np
from scipy import special

__all__ = ["bessel_j", "bessel_y", "hankel1"]

_ORDERS = (0, 1, 2, 3)


def _checked_argument(order: int, x) -> np.ndarray:
    if order not in _ORDERS:
        raise ValueError(f"order must be one of {_ORDERS}, got {order}")
    try:
        values = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"argument must be a finite real number, got {x!r}") from None
    bad = ~(np.isfinite(values) & (values > 0.0))
    if bad.any():
        raise ValueError(f"argument must be finite and positive, got {values[bad].flat[0]}")
    return values


def _float_or_array(values) -> float | np.ndarray:
    return float(values) if np.ndim(values) == 0 else values


def bessel_j(order: int, x: float | np.ndarray) -> float | np.ndarray:
    """Bessel function of the first kind, integer order 0..3, x > 0."""
    return _float_or_array(special.jv(order, _checked_argument(order, x)))


def bessel_y(order: int, x: float | np.ndarray) -> float | np.ndarray:
    """Bessel function of the second kind, integer order 0..3, x > 0."""
    return _float_or_array(special.yv(order, _checked_argument(order, x)))


def hankel1(order: int, x: float | np.ndarray) -> complex | np.ndarray:
    """Outgoing Hankel function H_n^(1)(x) = J_n(x) + i Y_n(x)."""
    j, y = bessel_j(order, x), bessel_y(order, x)
    return complex(j, y) if np.ndim(j) == 0 else j + 1j * y
