"""Bessel functions J_n and Y_n.

A checked wrapper over ``scipy.special.jv``/``yv`` (DLMF chapter 10) for
the orders 1 and 2 on the positive real axis that the emission closed
forms need.  A float argument gives a float; an array gives an array.
"""

import numpy as np
from scipy import special

__all__ = ["bessel_j", "bessel_y"]

_ORDERS = (1, 2)


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
    """Bessel function of the first kind, integer order 1 or 2, x > 0."""
    return _float_or_array(special.jv(order, _checked_argument(order, x)))


def bessel_y(order: int, x: float | np.ndarray) -> float | np.ndarray:
    """Bessel function of the second kind, integer order 1 or 2, x > 0."""
    return _float_or_array(special.yv(order, _checked_argument(order, x)))
