import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from cdwork import QuadratureNotConverged, adaptive_simpson, adaptive_simpson_multi

coeffs = st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=5)


@given(c=coeffs, b=st.floats(min_value=0.5, max_value=4.0))
def test_polynomials_integrate_exactly(c, b):
    poly = np.polynomial.Polynomial(c)
    expected = poly.integ()(b) - poly.integ()(0.0)
    got = adaptive_simpson(poly, 0.0, b, rel_tol=1e-10, abs_tol=1e-12)
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_zero_function():
    calls = []

    def zero(x):
        calls.append(x)
        return 0.0

    assert adaptive_simpson(zero, 0.0, 2.0) == 0.0
    # a zero tolerance would subdivide until the interval limit
    assert len(calls) <= 100


def test_reversed_interval_flips_sign():
    f = lambda x: np.exp(-x) * np.sin(3 * x)
    assert adaptive_simpson(f, 2.0, 0.0) == pytest.approx(
        -adaptive_simpson(f, 0.0, 2.0), rel=1e-10)


def test_sharp_peak_matches_scipy():
    # width-1e-3 Lorentzian peak in the middle of the interval
    f = lambda x: 1.0 / ((x - 1.0) ** 2 + 1e-6)
    ref, _ = quad(f, 0.0, 2.0, points=[1.0], limit=200, epsrel=1e-12)
    got = adaptive_simpson(f, 0.0, 2.0, rel_tol=1e-9)
    assert got == pytest.approx(ref, rel=1e-8)


def test_node_budget_raises():
    f = lambda x: 1.0 / ((x - 1.0) ** 2 + 1e-12)
    with pytest.raises(QuadratureNotConverged):
        adaptive_simpson(f, 0.0, 2.0, rel_tol=1e-12, max_nodes=200)


def test_noise_integrand_raises():
    rng = np.random.default_rng(0)
    with pytest.raises(QuadratureNotConverged, match="status 1"):
        adaptive_simpson(lambda x: float(rng.standard_normal()), 0.0, 1.0,
                         rel_tol=1e-12)


def test_non_finite_integrand_raises():
    with pytest.raises(QuadratureNotConverged, match="status 3"):
        adaptive_simpson(lambda x: np.nan if x > 0.5 else 1.0, 0.0, 1.0)


def test_breakpoint_splits_the_interval():
    calls = []

    def kink(x):
        calls.append(x)
        return abs(x - 1.0)

    # each side of the kink is linear, which one rule per side integrates
    # exactly
    assert adaptive_simpson(kink, 0.0, 2.0, points=[1.0]) \
        == pytest.approx(1.0, rel=1e-14)
    assert all(x != 1.0 for x in calls)
    assert len(calls) <= 4 * 21


def test_multi_component_shares_nodes():
    calls = []

    def f(x):
        calls.append(x)
        return [np.sin(x), np.cos(3 * x)]

    out = adaptive_simpson_multi(f, 0.0, 1.5, rel_tol=1e-10)
    assert out[0] == pytest.approx(1.0 - np.cos(1.5), rel=1e-9)
    assert out[1] == pytest.approx(np.sin(4.5) / 3.0, rel=1e-9)
    single = len(calls)
    # the two components together cost no more than separate passes
    assert single < 2 * 4096
