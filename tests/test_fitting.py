import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdwork import fit_power_law


@given(coeff=st.floats(0.1, 10.0), exponent=st.floats(-2.0, 2.0))
def test_exact_power_law_recovered(coeff, exponent):
    x = np.array([1.0, 2.0, 5.0, 13.0, 40.0])
    fit = fit_power_law(x, coeff * x**exponent)
    assert fit.coefficient == pytest.approx(coeff, rel=1e-9)
    assert fit.exponent == pytest.approx(exponent, abs=1e-9)
    assert fit.residual_rms < 1e-10
    assert fit.window == (1.0, 40.0)


def test_noise_produces_residual_and_stderr(rng):
    x = np.geomspace(1, 100, 12)
    y = 2.0 * x**0.5 * np.exp(rng.normal(0.0, 0.01, size=12))
    fit = fit_power_law(x, y)
    assert fit.exponent == pytest.approx(0.5, abs=0.05)
    assert 0.0 < fit.residual_rms < 0.05
    assert fit.exponent_stderr > 0.0


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, -2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, 0.0, 3.0])
