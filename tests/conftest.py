import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cdwork import (HOConfig, HarmonicOscillator, ParametrizedModel, geometry,
                    ising, model_ensemble)

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


def two_level_model(protocol):
    """Avoided-crossing two-level family H0 = lam * sigma_z + sigma_x.

    A closed-form testbed: eigenvalues -+sqrt(1 + lam^2) and auxiliary
    term H1 = -(lamdot / (2 (1 + lam^2))) sigma_y.
    """
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    def h0_of(lam):
        return lam[0] * sz + sx

    return ParametrizedModel(protocol, h0_of, dh0_of=lambda lam: [sz])


def work_mean(dist):
    """Mean of a work distribution over its atoms."""
    return float(dist.probabilities @ dist.support)


def work_variance(dist):
    """Variance of a work distribution over its atoms."""
    mean = work_mean(dist)
    return float(dist.probabilities @ (dist.support - mean) ** 2)


def evolved_density(model, ensemble, t):
    """The dense d x d density A A^H of ``geometry.density_factor``: the
    initial populations carried onto the instantaneous eigenstates at t
    (oracle for the factor form of the Bures length)."""
    states = model.spectrum0_at(t).columns(ensemble.n_levels)
    return (states * ensemble.weights) @ states.conj().T


def lanczos_ground_state(lam, n_sites):
    """Ground eigenpair of the chain of ``ising.dense_hamiltonian`` by
    Lanczos (``eigsh`` to machine tolerance) on a scipy.sparse matrix,
    for chains too long for the dense oracle."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import eigsh

    dim, states, z_total, pairs = ising._dense_terms(n_sites)
    rows = np.concatenate([states] * (len(pairs) + 1))
    cols = np.concatenate([states, *pairs])
    vals = np.concatenate([-lam * z_total, *(-np.ones(dim) for _ in pairs)])
    h = csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    vals, vecs = eigsh(h, k=1, which="SA", tol=0)
    return float(vals[0]), vecs[:, 0]


def dense_metric(lam, n_sites):
    """Perturbative-sum metric over the full spin spectrum (oracle)."""
    energies, vectors = np.linalg.eigh(ising.dense_hamiltonian(lam, n_sites))
    m = vectors[:, :1].conj().T @ ising.dense_field_term(n_sites) @ vectors
    return float(np.sum(np.abs(m[0, 1:]) ** 2
                        / (energies[1:] - energies[0]) ** 2))


def richardson_metric(lam, n_sites):
    """Fidelity-susceptibility oracle via symmetric overlaps of the
    Lanczos ground state (two Richardson stages)."""
    def estimate(h):
        _, va = lanczos_ground_state(lam - h, n_sites)
        _, vb = lanczos_ground_state(lam + h, n_sites)
        return 2.0 * (1.0 - abs(va @ vb)) / (2.0 * h) ** 2

    g1, g2, g3 = estimate(0.04), estimate(0.02), estimate(0.01)
    r1, r2 = (4 * g2 - g1) / 3.0, (4 * g3 - g2) / 3.0
    return (16 * r2 - r1) / 15.0


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
    oscillator eigensolve, one per band of each solved block, and the
    time of every path-length quadrature node, one per node of each
    level."""
    solves, nodes = [], []
    diagonalize = HarmonicOscillator._diagonalize
    quadrature = geometry.clenshaw_curtis

    def counting_diagonalize(self, hs):
        solves.extend((np.shape(h), np.iscomplexobj(h),
                       np.asarray(h).tobytes()) for h in hs)
        return diagonalize(self, hs)

    def counting_quadrature(f, *args, **kwargs):
        def level(times):
            nodes.extend(times)
            return f(times)
        return quadrature(level, *args, **kwargs)

    monkeypatch.setattr(HarmonicOscillator, "_diagonalize",
                        counting_diagonalize)
    monkeypatch.setattr(geometry, "clenshaw_curtis",
                        counting_quadrature)
    return solves, nodes
