import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cdwork import HOConfig, HarmonicOscillator, geometry, model_ensemble

settings.register_profile(
    "default", max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("default")


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """Child interpreters (the ``python -m cdwork.cli`` test) import
    cdwork from src, as pytest's ``pythonpath`` setting lets this one."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


def band_to_dense(band):
    """The Hermitian matrix an oscillator band (2, d) stands for: row 0
    on the diagonal, row 1 (less its two padding entries) on the +2
    diagonal and its conjugate on the -2 diagonal."""
    upper = band[1, :-2]
    return np.diag(band[0]) + np.diag(upper, 2) + np.diag(upper.conj(), -2)


@pytest.fixture(scope="session")
def fig1_model():
    """The oscillator study's operating point: omega 1 -> 3, tau = 0.8."""
    return HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=120))


@pytest.fixture(scope="session")
def fig1_ensemble(fig1_model):
    return model_ensemble(fig1_model, 1.0)


@pytest.fixture(scope="session")
def fig1_ground(fig1_model):
    return model_ensemble(fig1_model, math.inf)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def solve_counter(monkeypatch):
    """Records the operator (shape, complex or not, bytes) of every
    oscillator eigensolve and the time of every path-length quadrature
    node."""
    solves, nodes = [], []
    diagonalize = HarmonicOscillator._diagonalize
    quadrature = geometry.clenshaw_curtis

    def counting_diagonalize(self, h):
        solves.append((np.shape(h), np.iscomplexobj(h),
                       np.asarray(h).tobytes()))
        return diagonalize(self, h)

    def counting_quadrature(f, *args, **kwargs):
        def node(t):
            nodes.append(t)
            return f(t)
        return quadrature(node, *args, **kwargs)

    monkeypatch.setattr(HarmonicOscillator, "_diagonalize",
                        counting_diagonalize)
    monkeypatch.setattr(geometry, "clenshaw_curtis",
                        counting_quadrature)
    return solves, nodes
