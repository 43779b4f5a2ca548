"""Smooth parameter paths with analytic derivatives.

A protocol is a map t -> lambda(t) on [0, tau] together with its time
derivative.  All driving paths used by the models switch the drive off
at both ends (zero derivative there), which is what makes the
counterdiabatic auxiliary term vanish at t = 0 and t = tau.  A
``Protocol`` holds the two callables and the duration, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ProtocolError


def _vec(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Protocol:
    """Parameter path lambda(t) in R^P over a fixed duration.

    ``value`` and ``derivative`` accept a scalar time and return an
    array of shape (P,).
    """

    value: Callable[[float], np.ndarray]
    derivative: Callable[[float], np.ndarray]
    duration: float


def _smoothstep_protocol(lam_i, lam_f, tau, sigma, dsigma) -> Protocol:
    lam_i, lam_f = _vec(lam_i), _vec(lam_f)
    if lam_i.shape != lam_f.shape:
        raise ProtocolError("endpoint shapes differ")
    if not tau > 0:
        raise ProtocolError("duration must be positive")
    span = lam_f - lam_i

    def value(t):
        s = t / tau
        return lam_i + span * sigma(s)

    def derivative(t):
        s = t / tau
        return span * dsigma(s) / tau

    return Protocol(value, derivative, float(tau))


def quintic_ramp(lam_i, lam_f, tau) -> Protocol:
    """Fifth-order smoothstep: lam_i + span*(10 s^3 - 15 s^4 + 6 s^5).

    Both the first and second derivatives vanish at the endpoints.
    """
    return _smoothstep_protocol(
        lam_i, lam_f, tau,
        lambda s: s**3 * (10.0 - 15.0 * s + 6.0 * s * s),
        lambda s: 30.0 * s * s * (1.0 - s) ** 2)


def cubic_ramp(lam_i, lam_f, tau) -> Protocol:
    """Third-order smoothstep: lam_i + span*(3 s^2 - 2 s^3)."""
    return _smoothstep_protocol(
        lam_i, lam_f, tau,
        lambda s: s * s * (3.0 - 2.0 * s),
        lambda s: 6.0 * s * (1.0 - s))


def log_ramp(omega_i: float, omega_f: float, tau: float) -> Protocol:
    """Quintic-smoothed ramp that is uniform in log-frequency.

    For a frequency-ramped oscillator the per-level metric scales as
    1/omega^2, so constant speed in log(omega) traverses the parameter
    path at constant metric speed away from the smoothed endpoints.
    """
    if omega_i <= 0 or omega_f <= 0:
        raise ProtocolError("frequencies must be positive")
    r = np.log(omega_f / omega_i)

    def value(t):
        s = t / tau
        return _vec(omega_i * np.exp(r * s**3 * (10.0 - 15.0 * s + 6.0 * s * s)))

    def derivative(t):
        s = t / tau
        return value(t) * r * 30.0 * s * s * (1.0 - s) ** 2 / tau

    if not tau > 0:
        raise ProtocolError("duration must be positive")
    return Protocol(value, derivative, float(tau))

