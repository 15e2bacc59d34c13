import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from lateralvdw import TwoAtomSystem
from lateralvdw.constants import c

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def peak_system() -> TwoAtomSystem:
    """Cs-Rb pair at the first positive lateral-force peak."""
    return TwoAtomSystem.cs_rb(632e-9)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260822)


@pytest.fixture
def mode_tensor_reference():
    """One mode's w (I - (c/omega)^2 k k), written as a dyad apart from the library's table."""

    def tensor(delta, omega, k_par, k_perp, phi) -> np.ndarray:
        dx, dy, dz = delta
        cos_p, sin_p = math.cos(phi), math.sin(phi)
        k = np.array([k_par * cos_p, k_par * sin_p, math.copysign(1.0, dz) * k_perp])
        phase = k_par * (dx * cos_p + dy * sin_p) + k_perp * abs(dz)
        weight = 1j * np.exp(1j * phase) / (8.0 * math.pi**2 * k_perp)
        return weight * (np.eye(3) - (c / omega) ** 2 * np.outer(k, k))

    return tensor


@pytest.fixture
def k_perp_of():
    """k_perp = sqrt((omega/c)^2 - k_par^2) on the branch Im k_perp >= 0."""
    return lambda k_par, omega: np.sqrt(complex((omega / c) ** 2 - k_par**2))
