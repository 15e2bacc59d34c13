"""Frozen shape factors of ``resonant_forces`` for tests/test_forces.py.

Prints the ``RESONANT_REFERENCE`` literal: xi -> the shape factors (x, y, z)
on A and on B of the right-handed system ``system_at_xi(xi)`` of the tests,
at the binary value of that system's xi.  Each shape comes from the Born
sandwich in units of the separation, evaluated with mpmath at ``DIGITS``
digits: A at the origin, B at -z at distance 1, the unit dipole (i, 0, 1),
and G(R) = e^{i xi R} / (4 pi R) (a I + b RR / R^2) with
a = 1 + i/x - 1/x^2 and b = -1 - 3i/x + 3/x^2 at x = xi R.  With
S_A(p) = d . G(p - B) G(B - A) . d* and S_B(p) = d . G*(A - B) G(p - A) . d*,
the shapes are 16 pi^2 xi^4 Re grad S_A at p = A and Re grad S_B at p = B,
each gradient a numerical derivative (mpmath.diff), not the analytic
gradient that the library contracts.  Needs mpmath and lateralvdw on the
path.  Run from the repository root:

    PYTHONPATH=src python tools/resonant_reference.py
"""

from __future__ import annotations

import math

import mpmath as mp

from lateralvdw import CESIUM_WAVELENGTH, TwoAtomSystem

DIGITS = 50
XIS = (1e-3, 0.7, 5.0, 60.0, 1e3)


def _greens(xi, vector):
    dist = mp.sqrt(sum(v * v for v in vector))
    x = xi * dist
    a = 1 + 1j / x - 1 / x**2
    b = -1 - 3j / x + 3 / x**2
    unit = [v / dist for v in vector]
    scale = mp.expj(x) / (4 * mp.pi * dist)
    return mp.matrix([[scale * (a * (i == j) + b * unit[i] * unit[j]) for j in range(3)]
                      for i in range(3)])


def shapes(xi: float) -> tuple:
    """(shape on A, shape on B) at the binary xi, each an mpf 3-tuple."""
    xi = mp.mpf(xi)
    dipole = mp.matrix([1j, 0, 1])
    conj = mp.matrix([-1j, 0, 1])
    a, b = [0, 0, 0], [0, 0, -1]

    def sandwich_a(p):
        return (dipole.T * _greens(xi, [p[i] - b[i] for i in range(3)])
                * _greens(xi, [b[i] - a[i] for i in range(3)]) * conj)[0]

    def sandwich_b(p):
        back = _greens(xi, [a[i] - b[i] for i in range(3)]).apply(mp.conj)
        return (dipole.T * back * _greens(xi, [p[i] - a[i] for i in range(3)]) * conj)[0]

    def gradient(sandwich, at):
        def along(k):
            return lambda t: mp.re(sandwich([at[i] + t * (i == k) for i in range(3)]))
        return tuple(16 * mp.pi**2 * xi**4 * mp.diff(along(k), 0) for k in range(3))

    return gradient(sandwich_a, a), gradient(sandwich_b, b)


def binary_xi(xi: float) -> float:
    """The xi of the tests' system_at_xi(xi): the separation in, its xi out."""
    return float(TwoAtomSystem.cs_rb(xi * CESIUM_WAVELENGTH / (2.0 * math.pi)).xi)


def _rounded(side: tuple) -> tuple:
    """Each entry to the nearest float; below 10^(-DIGITS/2) of the largest, 0.0.

    Those entries are the numerical derivative's noise about an exact zero
    (F_B,x, and y everywhere).
    """
    noise = max(abs(v) for v in side) * mp.mpf(10) ** (-DIGITS // 2)
    return tuple(float(v) if abs(v) > noise else 0.0 for v in side)


def reference() -> dict:
    """xi -> ((x, y, z) on A, (x, y, z) on B), rounded by _rounded."""
    with mp.workdps(DIGITS):
        return {xi: tuple(_rounded(side) for side in shapes(binary_xi(xi))) for xi in XIS}


if __name__ == "__main__":
    print("RESONANT_REFERENCE = {")
    for xi, (on_a, on_b) in reference().items():
        print(f"    {xi!r}: ({on_a!r},\n{' ' * (8 + len(repr(xi)))}{on_b!r}),")
    print("}")
