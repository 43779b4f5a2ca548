import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdwork import Protocol, ProtocolError, cubic_ramp, log_ramp, quintic_ramp

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
duration = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


def validate(proto):
    """Check endpoint-derivative and value/derivative consistency.

    Raises ProtocolError on violation.  Consistency is checked with
    centered differences at step h = tau * 1e-6 on 33 nodes; the
    tolerance leaves room for the O(h^2) truncation and the ~eps/h
    rounding floor.
    """
    tau = proto.duration
    if not tau > 0:
        raise ProtocolError("duration must be positive")
    scale = max(np.abs(proto.value(0.0)).max(),
                np.abs(proto.value(tau)).max(), 1.0)
    for t_end in (0.0, tau):
        if np.abs(proto.derivative(t_end)).max() > 1e-12 * scale / tau * max(tau, 1.0):
            raise ProtocolError(
                f"derivative must vanish at t={t_end:g}, got "
                f"{proto.derivative(t_end)}")
    h = tau * 1e-6
    worst = 0.0
    for t in np.linspace(h, tau - h, 33):
        fd = (proto.value(t + h) - proto.value(t - h)) / (2.0 * h)
        worst = max(worst, np.abs(fd - proto.derivative(t)).max())
    if worst > 1e-7 * scale / min(tau, 1.0):
        raise ProtocolError(
            f"value/derivative inconsistency: centered differences "
            f"deviate by {worst:.3g}")


def test_quintic_matches_polynomial_values():
    proto = quintic_ramp([1.0], [3.0], 0.8)
    assert proto.value(0.0)[0] == 1.0
    assert proto.value(0.8)[0] == 3.0
    assert proto.value(0.4)[0] == pytest.approx(2.0, abs=1e-14)
    assert proto.derivative(0.4)[0] == pytest.approx(4.6875, abs=1e-12)
    assert proto.derivative(0.0)[0] == 0.0
    assert proto.derivative(0.8)[0] == 0.0


def test_cubic_matches_critical_sweep_shape():
    # lam(t) = 1 + d - 6 d s^2 + 4 d s^3 for the symmetric sweep
    delta, tau = 1.0, 2.0
    proto = cubic_ramp([1.0 + delta], [1.0 - delta], tau)
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        expected = 1.0 + delta - 6 * delta * s**2 + 4 * delta * s**3
        assert proto.value(s * tau)[0] == pytest.approx(expected, abs=1e-14)
    assert proto.derivative(0.0)[0] == 0.0
    assert proto.derivative(tau)[0] == 0.0


def test_zero_span_ramp_is_constant():
    proto = quintic_ramp([2.0], [2.0], 1.0)
    for t in np.linspace(0, 1, 7):
        assert proto.value(t)[0] == 2.0
        assert proto.derivative(t)[0] == 0.0


@given(lam_i=finite, span=st.floats(min_value=-3, max_value=3), tau=duration,
       kind=st.sampled_from(["quintic", "cubic"]))
def test_ramp_contract(lam_i, span, tau, kind):
    make = quintic_ramp if kind == "quintic" else cubic_ramp
    proto = make([lam_i], [lam_i + span], tau)
    validate(proto)
    assert proto.value(0.0)[0] == pytest.approx(lam_i, abs=1e-12)
    assert proto.value(tau)[0] == pytest.approx(lam_i + span, abs=1e-12)


@given(ratio=st.floats(min_value=0.2, max_value=5.0), tau=duration)
def test_log_ramp_contract(ratio, tau):
    proto = log_ramp(1.0, ratio, tau)
    validate(proto)
    assert proto.value(tau)[0] == pytest.approx(ratio, rel=1e-12)


def test_validate_rejects_nonzero_edge_velocity():
    bad = Protocol(lambda t: np.array([1.0]), lambda t: np.array([1.0]), 1.0)
    with pytest.raises(ProtocolError):
        validate(bad)


def test_validate_rejects_inconsistent_derivative():
    proto = quintic_ramp([0.0], [1.0], 1.0)
    broken = type(proto)(proto.value, lambda t: 2.0 * proto.derivative(t),
                         proto.duration)
    with pytest.raises(ProtocolError):
        validate(broken)


def test_multiparameter_ramp():
    proto = quintic_ramp([0.0, 1.0], [1.0, -1.0], 2.0)
    validate(proto)
    assert proto.value(0.0).shape[0] == 2
    assert np.allclose(proto.value(1.0), [0.5, 0.0])


def test_bad_duration_rejected():
    with pytest.raises(ProtocolError):
        quintic_ramp([0.0], [1.0], 0.0)
