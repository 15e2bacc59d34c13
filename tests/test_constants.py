"""The SI constants the closed forms and the rate routes share."""

import numpy as np
import scipy.constants

from lateralvdw.constants import c, epsilon_0, mu_0


def test_one_electric_constant():
    # eps0 is derived from mu0, so the closed forms (eps0) and the rate
    # routes (mu0) share one constant: mu0 eps0 c^2 = 1 to 2 ulp.
    assert abs(mu_0 * epsilon_0 * c * c - 1.0) <= 2.0 * np.finfo(float).eps
    # CODATA's relative standard uncertainty of eps0 is 1.6e-10.
    assert abs(epsilon_0 / scipy.constants.epsilon_0 - 1.0) <= 2e-12
