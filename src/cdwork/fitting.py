"""Ordinary least-squares power-law fits on log-log data."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FitResult:
    """y = coefficient * x ** exponent fitted in log space.

    residual_rms is the root-mean-square of the log residuals; standard
    errors come from the fit covariance (unbiased variance estimate).
    """

    coefficient: float
    exponent: float
    coefficient_stderr: float
    exponent_stderr: float
    residual_rms: float
    window: tuple[float, float]

    def as_dict(self) -> dict:
        return {
            "coefficient": self.coefficient,
            "exponent": self.exponent,
            "coefficient_stderr": self.coefficient_stderr,
            "exponent_stderr": self.exponent_stderr,
            "residual_rms": self.residual_rms,
            "window": list(self.window),
        }


def fit_power_law(x, y) -> FitResult:
    """Fit y = c x^b by OLS on (log x, log y).

    Requires positive data and at least three points.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive data")
    lx, ly = np.log(x), np.log(y)
    n = len(x)
    if n < 3:
        raise ValueError("need at least three points for a two-parameter fit")
    design = np.column_stack([np.ones(n), lx])
    coef, _, _, _ = np.linalg.lstsq(design, ly, rcond=None)
    residuals = ly - design @ coef
    dof = n - 2
    var = float(residuals @ residuals) / dof
    cov = var * np.linalg.inv(design.T @ design)
    intercept, slope = coef
    return FitResult(float(np.exp(intercept)), float(slope),
                     float(np.exp(intercept) * np.sqrt(cov[0, 0])),
                     float(np.sqrt(cov[1, 1])),
                     float(np.sqrt(np.mean(residuals**2))),
                     (float(x.min()), float(x.max())))
