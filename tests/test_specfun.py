"""Bessel J/Y wrappers against frozen multiprecision references."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scipy.special import hankel1

from lateralvdw import bessel_j, bessel_y

# (x, order) -> (J_n(x), Y_n(x)); mpmath at 70 digits, rounded to 17.
BESSEL_REFERENCE = {
    (0.001, 0): (0.99999975000001562, -4.4714166113759233),
    (0.001, 1): (0.0004999999375000026, -636.62216723113943),
    (0.001, 2): (1.2499998958333366e-7, -1273239.8630456675),
    (0.001, 3): (2.0833332031250033e-11, -5092958815.5605027),
    (0.01, 0): (0.99997500015624957, -3.005455637083646),
    (0.01, 1): (0.0049999375002604161, -63.678596282060656),
    (0.01, 2): (1.2499895833658854e-5, -12732.713800775048),
    (0.01, 3): (2.083320312532552e-8, -5093021.841713737),
    (0.1, 0): (0.99750156206604003, -1.5342386513503668),
    (0.1, 1): (0.049937526036241998, -6.458951094702027),
    (0.1, 2): (0.0012489586587999188, -127.64478324269017),
    (0.1, 3): (2.0820315754756261e-5, -5099.3323786129049),
    (0.5, 0): (0.9384698072408129, -0.44451873350670656),
    (0.5, 1): (0.24226845767487389, -1.4714723926702431),
    (0.5, 2): (0.030604023458682641, -5.4413708371742657),
    (0.5, 3): (0.0025637299945872441, -42.059494304723883),
    (1.0, 0): (0.76519768655796655, 0.088256964215676958),
    (1.0, 1): (0.44005058574493352, -0.78121282130028872),
    (1.0, 2): (0.11490348493190048, -1.6506826068162544),
    (1.0, 3): (0.019563353982668406, -5.8215176059647288),
    (2.0, 0): (0.22389077914123567, 0.51037567264974512),
    (2.0, 1): (0.57672480775687339, -0.10703243154093755),
    (2.0, 2): (0.35283402861563772, -0.61740810419068267),
    (2.0, 3): (0.12894324947440205, -1.1277837768404278),
    (5.0, 0): (-0.1775967713143383, -0.30851762524903378),
    (5.0, 1): (-0.32757913759146522, 0.14786314339122684),
    (5.0, 2): (0.046565116277752216, 0.36766288260552452),
    (5.0, 3): (0.36483123061366699, 0.14626716269319277),
    (8.0, 0): (0.17165080713755391, 0.22352148938756622),
    (8.0, 1): (0.23463634685391462, -0.15806046173124749),
    (8.0, 2): (-0.11299172042407525, -0.26303660482037809),
    (8.0, 3): (-0.29113220706595225, 0.026542159321058447),
    (11.0, 0): (-0.17119030040719609, -0.16884732389207954),
    (11.0, 1): (-0.1767852989567215, 0.16370553741494285),
    (11.0, 2): (0.13904751877870127, 0.19861196705843279),
    (11.0, 3): (0.22734803305806742, -0.091483003939149113),
    (11.5, 0): (-0.067653948111665228, -0.22523211169118787),
    (11.5, 1): (-0.22837862066532347, 0.057942547143000822),
    (11.5, 2): (0.027935927126391581, 0.23530907641170975),
    (11.5, 3): (0.23809546488319881, 0.023904088130637351),
    (12.0, 0): (0.047689310796833537, -0.22523731263436143),
    (12.0, 1): (-0.22344710449062761, -0.057099218260896521),
    (12.0, 2): (-0.084930494878604805, 0.21572077625754535),
    (12.0, 3): (0.19513693953109268, 0.1290061436800783),
    (12.5, 0): (0.1468840547004211, -0.17121430684466929),
    (12.5, 1): (-0.16548380461475972, -0.15383825653750118),
    (12.5, 2): (-0.17336146343878266, 0.1466001857986691),
    (12.5, 3): (0.11000813631434927, 0.20075031599307529),
    (13.0, 0): (0.20692610237706781, -0.078207864527875911),
    (13.0, 1): (-0.070318052121778371, -0.21008140842069351),
    (13.0, 2): (-0.21774426424195679, 0.045887647847769218),
    (13.0, 3): (0.0033198169704070508, 0.22420068468154557),
    (20.0, 0): (0.16702466434058315, 0.062640596809383831),
    (20.0, 1): (0.066833124175850046, -0.1655116143625213),
    (20.0, 2): (-0.16034135192299815, -0.079191758245635961),
    (20.0, 3): (-0.098901394560449676, 0.1496732627133941),
    (50.0, 0): (0.055812327669251815, -0.098064995470077079),
    (50.0, 1): (-0.097511828125175138, -0.056795668562014768),
    (50.0, 2): (-0.059712800794258821, 0.095793168727596488),
    (50.0, 3): (0.092734804061634432, 0.064459122060222487),
    (100.0, 0): (0.019985850304223122, -0.077244313365083152),
    (100.0, 1): (-0.077145352014112158, -0.020372312002759793),
    (100.0, 2): (-0.021528757344505366, 0.076836867125027956),
    (100.0, 3): (0.076284201720331943, 0.023445786687760912),
}


def test_matches_frozen_references():
    for (x, order), (j_ref, y_ref) in BESSEL_REFERENCE.items():
        assert bessel_j(order, x) == pytest.approx(j_ref, rel=1e-12)
        assert bessel_y(order, x) == pytest.approx(y_ref, rel=1e-12)


def test_small_argument_limits():
    x = 1e-8
    assert bessel_j(0, x) == pytest.approx(1.0, rel=1e-12)
    assert bessel_j(1, x) == pytest.approx(x / 2.0, rel=1e-12)
    assert bessel_y(1, x) == pytest.approx(-2.0 / (math.pi * x), rel=1e-12)
    euler_gamma = 0.5772156649015329
    assert bessel_y(0, x) == pytest.approx(
        (2.0 / math.pi) * (math.log(x / 2.0) + euler_gamma), rel=1e-12
    )


@given(
    exponent=st.floats(min_value=-3.0, max_value=math.log10(80.0)),
    order=st.integers(min_value=0, max_value=2),
)
def test_wronskian_property(exponent: float, order: int):
    # J_{n+1} Y_n - J_n Y_{n+1} = 2 / (pi x) for every x > 0.
    x = 10.0**exponent
    wronskian = bessel_j(order + 1, x) * bessel_y(order, x) - bessel_j(
        order, x
    ) * bessel_y(order + 1, x)
    assert wronskian == pytest.approx(2.0 / (math.pi * x), rel=1e-10)


@pytest.mark.parametrize("order", [1, 2])
def test_three_term_recurrence(order: int):
    for x in np.geomspace(0.01, 80.0, 41):
        for fn in (bessel_j, bessel_y):
            low = fn(order - 1, x)
            mid = fn(order, x)
            high = fn(order + 1, x)
            scale = max(abs(low), abs(mid), abs(high), abs(2.0 * order / x * mid))
            assert abs(low + high - 2.0 * order / x * mid) <= 1e-9 * scale


def test_asymptotic_envelope():
    x = 50.0
    envelope = math.sqrt(2.0 / (math.pi * x))
    for order in range(4):
        assert abs(hankel1(order, x)) == pytest.approx(envelope, rel=1e-2)


def test_hankel_combines_j_and_y():
    # J_n + i Y_n from the wrappers against scipy's H_n^(1), which evaluates
    # the Hankel function directly (AMOS zbesh) rather than from J and Y.
    for x in (0.3, 4.0, 25.0):
        for order in range(4):
            combined = complex(bessel_j(order, x), bessel_y(order, x))
            assert combined == pytest.approx(hankel1(order, x), rel=1e-14)


@pytest.mark.parametrize("bad_x", [0.0, -1.0, math.nan, math.inf])
def test_rejects_bad_argument(bad_x: float):
    with pytest.raises(ValueError):
        bessel_j(0, bad_x)
    for fn in (bessel_j, bessel_y):
        with pytest.raises(ValueError):
            fn(1, np.array([0.5, bad_x, 2.0]))


@pytest.mark.parametrize("bad_order", [-1, 4, 10])
def test_rejects_unsupported_order(bad_order: int):
    with pytest.raises(ValueError):
        bessel_y(bad_order, 1.0)


@pytest.mark.parametrize("fn", [bessel_j, bessel_y])
def test_array_argument_matches_scalar_calls(fn):
    xs = np.geomspace(1e-3, 100.0, 57)
    for order in range(4):
        values = fn(order, xs)
        scalars = [fn(order, float(x)) for x in xs]
        assert type(scalars[0]) is float
        assert isinstance(values, np.ndarray) and values.shape == xs.shape
        assert values.tolist() == scalars
