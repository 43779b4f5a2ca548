import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdwork import (HOConfig, HarmonicOscillator, Protocol, ProtocolError,
                    cubic_ramp, ensemble_rates, ion_waveforms, log_ramp,
                    model_ensemble, quintic_ramp)
from cdwork.ising import IsingConfig, cd_excess_trajectory

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


# the array contract: np.shape(t) + (P,), with the bits of a lone time
RAMPS = {
    "quintic": quintic_ramp([1.0], [3.0], 0.8),
    "cubic": cubic_ramp([2.0], [0.0], 0.7),
    "log": log_ramp(1.0, 2.2, 0.7),
    "quintic-2": quintic_ramp([0.0, 1.0], [1.0, -1.0], 2.0),
}


@pytest.mark.parametrize("name", sorted(RAMPS))
@pytest.mark.parametrize("t", [0.3, np.float64(0.3), np.linspace(0, 0.7, 5),
                               np.full((2, 3), 0.3), np.zeros(0)])
def test_value_and_derivative_shapes(name, t):
    proto = RAMPS[name]
    size = 2 if name == "quintic-2" else 1
    for f in (proto.value, proto.derivative):
        assert np.shape(f(t)) == np.shape(t) + (size,)


@pytest.mark.parametrize("name", sorted(RAMPS))
@pytest.mark.parametrize("points", [7, 81, 201, 401, 2001])
def test_grid_gives_the_bits_of_each_time(name, points):
    # lone Python floats, lone numpy scalars and 16-point chunks all see
    # the bits of the whole grid, so no lane cut moves an output
    proto = RAMPS[name]
    grid = np.linspace(0.0, proto.duration, points)

    def bits(a):
        return a.shape, a.tobytes()

    for f in (proto.value, proto.derivative):
        whole = bits(f(grid))
        assert bits(np.array([f(float(t)) for t in grid])) == whole
        assert bits(np.array([f(t) for t in grid])) == whole
        assert bits(np.concatenate([f(grid[i:i + 16])
                                    for i in range(0, points, 16)])) == whole


def counting(proto, calls):
    """The protocol with each call of value or derivative appended to
    ``calls``."""
    def value(t):
        calls.append("value")
        return proto.value(t)

    def derivative(t):
        calls.append("derivative")
        return proto.derivative(t)

    return Protocol(value, derivative, proto.duration)


def test_oscillator_blocks_evaluate_the_protocol_once_per_block():
    model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=80))
    ensemble = model_ensemble(model, 1.0)
    times = np.linspace(0.0, model.tau, 16)
    spectra = model.spectra0_at(times)  # solved before counting
    calls = []
    model.protocol = counting(model.protocol, calls)
    ensemble_rates(model, ensemble, times)
    assert sorted(calls) == ["derivative", "value"]
    calls.clear()
    vectors = np.ones((16, model.dim, 2), dtype=complex)
    model.apply_h1(times, vectors, np.empty_like(vectors))
    assert sorted(calls) == ["derivative", "value"]
    calls.clear()
    model.coupling_rows(times, spectra, 4)
    assert calls == ["value"]


def test_whole_grids_evaluate_the_protocol_once(monkeypatch):
    calls = []
    for config in (HOConfig, IsingConfig):
        own = config.protocol
        monkeypatch.setattr(config, "protocol",
                            lambda self, own=own: counting(own(self), calls))
    ion_waveforms(HOConfig(1.0, 3.0, 0.8), 3.0)
    assert sorted(calls) == ["derivative", "value"]
    calls.clear()
    cd_excess_trajectory(IsingConfig(64, 1.0, 1.0), np.linspace(0, 1, 401))
    assert sorted(calls) == ["derivative", "value"]
