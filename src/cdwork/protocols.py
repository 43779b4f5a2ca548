"""Smooth parameter paths with analytic derivatives.

A protocol is a map t -> lambda(t) on [0, tau] together with its time
derivative.  All driving paths used by the models switch the drive off
at both ends (zero derivative there), which is what makes the
counterdiabatic auxiliary term vanish at t = 0 and t = tau.  A
``Protocol`` holds the two callables and the duration, nothing else.

Every ramp here is one smoothstep sigma(t / tau) (the log ramp is the
quintic in log omega), evaluated on one time or an array of them, with
products only (s * s * s, not s**3): NumPy's array power rounds unlike
the scalar ``pow`` in some points, and a time must get the same bits
alone as inside a grid, so that cutting a grid into blocks moves no output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ProtocolError


@dataclass(frozen=True)
class Protocol:
    """Parameter path lambda(t) in R^P over a fixed duration.

    ``value`` and ``derivative`` take a time or an array of times and
    return shape ``np.shape(t) + (P,)``, so (P,) for a scalar time; this
    module's ramps give a time the same bits alone as inside any array.
    """

    value: Callable[[float | np.ndarray], np.ndarray]
    derivative: Callable[[float | np.ndarray], np.ndarray]
    duration: float


def _smoothstep_protocol(lam_i, lam_f, tau, sigma, dsigma) -> Protocol:
    lam_i, lam_f = (np.atleast_1d(np.asarray(x, dtype=float))
                    for x in (lam_i, lam_f))
    if lam_i.shape != lam_f.shape:
        raise ProtocolError("endpoint shapes differ")
    if not tau > 0:
        raise ProtocolError("duration must be positive")
    span = lam_f - lam_i

    # outer keeps a scalar t scalar; as an array, a one-time call is 4x slower
    def value(t):
        return lam_i + np.multiply.outer(sigma(t / tau), span)

    def derivative(t):
        return np.multiply.outer(dsigma(t / tau), span) / tau

    return Protocol(value, derivative, float(tau))


def quintic_ramp(lam_i, lam_f, tau) -> Protocol:
    """Fifth-order smoothstep: lam_i + span*(10 s^3 - 15 s^4 + 6 s^5).

    Both the first and second derivatives vanish at the endpoints.
    """
    return _smoothstep_protocol(
        lam_i, lam_f, tau,
        lambda s: s * s * s * (10.0 - 15.0 * s + 6.0 * s * s),
        lambda s: 30.0 * s * s * ((1.0 - s) * (1.0 - s)))


def cubic_ramp(lam_i, lam_f, tau) -> Protocol:
    """Third-order smoothstep: lam_i + span*(3 s^2 - 2 s^3)."""
    return _smoothstep_protocol(
        lam_i, lam_f, tau,
        lambda s: s * s * (3.0 - 2.0 * s),
        lambda s: 6.0 * s * (1.0 - s))


def log_ramp(omega_i: float, omega_f: float, tau: float) -> Protocol:
    """omega_i exp(q(t)), q the quintic ramp of 0 to log(omega_f / omega_i).

    For a frequency-ramped oscillator the per-level metric scales as
    1/omega^2, so constant speed in log(omega) traverses the parameter
    path at constant metric speed away from the smoothed endpoints.
    """
    if omega_i <= 0 or omega_f <= 0:
        raise ProtocolError("frequencies must be positive")
    q = quintic_ramp([0.0], [np.log(omega_f / omega_i)], tau)

    def value(t):
        return omega_i * np.exp(q.value(t))

    def derivative(t):
        return value(t) * q.derivative(t)

    return Protocol(value, derivative, q.duration)
