"""Seeded faults that ``verify`` must catch: each row patches one module
attribute where its callers look it up, changes one physical quantity
by a fixed size, and runs only the checks that must FAIL, with the
suite's own arguments."""

import numpy as np
import pytest

from cdwork import HOConfig, HarmonicOscillator, Protocol, protocols, verify


def scale_smoothstep_derivative(monkeypatch, factor):
    """Every smoothstep ramp (quintic, cubic, and log through the
    quintic) with its derivative times ``factor``, its value kept."""
    smoothstep = protocols._smoothstep_protocol

    def faulty(*args):
        proto = smoothstep(*args)
        return Protocol(proto.value,
                        lambda t: factor * proto.derivative(t),
                        proto.duration)

    monkeypatch.setattr(protocols, "_smoothstep_protocol", faulty)


def test_smoothstep_derivative_fault_fails_protocol_independence(
        monkeypatch):
    scale_smoothstep_derivative(monkeypatch, 1.0 + 1e-5)
    assert not verify._check_ising_protocol_independence().passed


def test_smoothstep_derivative_fault_fails_the_certificate(monkeypatch):
    scale_smoothstep_derivative(monkeypatch, 1.0 + 1e-3)
    model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=120))
    assert not verify._check_certificate(model, np.arange(9)).passed
