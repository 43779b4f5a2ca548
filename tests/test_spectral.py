import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from cdwork import (DegenerateGaugeWarning, DegeneracyError, HOConfig,
                    HarmonicOscillator, NonHermitianInput, ParametrizedModel,
                    Spectrum, StepNotConverged,
                    assert_hermitian, cd_coupling, propagate, quintic_ramp,
                    spectrum, transitionless_certificate)
from cdwork import ising, spectral
from cdwork.spectral import _run_grid, gauge_fix
from conftest import band_to_dense, two_level_model

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


class DenseAlgebra(ParametrizedModel):
    """The generic model's dense ``evolve`` and ``commutator`` without a
    family behind them, for propagating a bare dense ``h_at``."""

    def __init__(self):
        pass


DENSE = DenseAlgebra()


def norm_drift(states):
    """Largest deviation of a propagated state's norm from 1."""
    return float(np.abs(np.linalg.norm(states, axis=1) - 1.0).max())


class TestSpectrum:
    def test_diagonal_matrix(self):
        spec = spectrum(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(spec.energies, [1.0, 2.0, 3.0])
        perm = np.zeros((3, 3))
        perm[1, 0] = perm[2, 1] = perm[0, 2] = 1.0
        assert np.allclose(spec.states, perm)

    def test_spin_flip(self):
        spec = spectrum(SX)
        assert np.allclose(spec.energies, [-1.0, 1.0])

    def test_oscillator_ladder(self):
        # omega = 2 oscillator resolved in the default reference basis
        model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=120))
        assert model.omega(0.4) == pytest.approx(2.0, abs=1e-14)
        energies = spectrum(band_to_dense(model.h0_at(0.4))).energies
        ladder = 2.0 * (np.arange(41) + 0.5)
        assert np.abs(energies[:41] - ladder).max() < 1e-8

    @given(seed=st.integers(0, 2**32 - 1))
    def test_gauge_and_invariants(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, 9)
        spec = spectrum(h)
        assert np.all(np.diff(spec.energies) >= 0)
        assert np.abs(spec.states.conj().T @ spec.states - np.eye(9)).max() < 1e-12
        scale = np.abs(spec.energies).max()
        assert np.linalg.norm(h @ spec.states - spec.states * spec.energies) \
            <= 1e-10 * max(scale, 1.0)
        pivots = spec.states[np.argmax(np.abs(spec.states), axis=0),
                             np.arange(9)]
        assert np.abs(pivots.imag).max() < 1e-12
        assert np.all(pivots.real > 0)

    def test_determinism(self, rng):
        h = random_hermitian(rng, 12)
        a = spectrum(h)
        b = spectrum(h.copy())
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.states, b.states)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianInput):
            spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NonHermitianInput):
            assert_hermitian(np.ones((2, 3)))

    def test_near_degenerate_warns(self):
        h = np.diag([1.0, 1.0 + 1e-12, 5.0]).astype(complex)
        with pytest.warns(DegenerateGaugeWarning):
            spectrum(h)


class TestOneSector:
    """A dense spectrum is one sector of all d levels: its reads give,
    bit for bit, those of eigh's eigenvector matrix divided by its pivot
    phases (``gauge_fix``)."""

    @staticmethod
    def assert_dense_reads(spec, h, rng):
        energies, vectors = np.linalg.eigh(h)
        states = vectors / gauge_fix(vectors)
        dim = len(energies)
        assert len(spec.sectors) == 1
        assert np.array_equal(spec.sectors[0][0], np.arange(dim))
        assert spec.energies.tobytes() == energies.tobytes()
        for k in (1, 3, dim):
            assert spec.columns(k).tobytes() == \
                np.ascontiguousarray(states[:, :k]).tobytes()
        assert spec.states.tobytes() == states.tobytes()
        c = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
        assert spec.transition_probs(c).tobytes() == \
            (np.abs(states.conj().T @ c) ** 2).tobytes()

    def test_spectrum_of_a_random_matrix(self, rng):
        h = random_hermitian(rng, 11)
        self.assert_dense_reads(spectrum(h), h, rng)

    @pytest.mark.parametrize("t", [0.0, 0.35, 1.0])
    def test_dense_ising_model(self, rng, t):
        model = ising.dense_model(ising.IsingConfig(4))
        self.assert_dense_reads(model.spectrum0_at(t), model.h0_at(t), rng)
        self.assert_dense_reads(model.spectrum_cd_at(t),
                                model.h_drive_at(t, 1.0), rng)


class TestCdAuxiliary:
    def test_static_family_gives_zero(self, rng):
        h0 = random_hermitian(rng, 6)
        h1 = cd_coupling(spectrum(h0), np.zeros((6, 6)))
        assert np.abs(h1).max() == 0.0

    @given(lam=st.floats(-2.5, 2.5), lamdot=st.floats(-4.0, 4.0))
    def test_two_level_closed_form(self, lam, lamdot):
        h1 = cd_coupling(spectrum(lam * SZ + SX), lamdot * SZ)
        ref = -(lamdot / (2.0 * (1.0 + lam * lam))) * SY
        assert np.abs(h1 - ref).max() < 1e-12

    def test_oscillator_matches_closed_form_on_trusted_block(self):
        # the figure operating point, mid-ramp; the trusted block keeps
        # clear of the truncation edge
        model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=280))
        t = 0.4
        dh0_dt = model.omega_dot(t) * band_to_dense(
            model.dh0_dlambda_at(t)[0])
        h1 = cd_coupling(spectrum(band_to_dense(model.h0_at(t))), dh0_dt)
        ref = band_to_dense(model.h1_at(t))
        block = slice(0, 2 * 280 // 3)
        assert np.abs((h1 - ref)[block, block]).max() < 1e-8

    def test_gauge_invariance(self, rng):
        h0 = random_hermitian(rng, 8)
        dh = random_hermitian(rng, 8)
        spec = spectrum(h0)
        ref = cd_coupling(spec, dh)
        phases = np.exp(2j * np.pi * rng.random(8))
        (levels, vectors), = spec.sectors
        rephased = Spectrum(spec.energies, ((levels, vectors * phases),))
        assert np.abs(cd_coupling(rephased, dh) - ref).max() < 1e-12
        assert np.abs(ref - ref.conj().T).max() < 1e-13

    def test_coupled_degeneracy_raises(self):
        h0 = np.diag([1.0, 1.0, 3.0]).astype(complex)
        drive = np.zeros((3, 3), dtype=complex)
        drive[0, 1] = drive[1, 0] = 1.0
        with pytest.raises(DegeneracyError):
            with pytest.warns(DegenerateGaugeWarning):
                spec = spectrum(h0)
            cd_coupling(spec, drive)

    def test_uncoupled_degeneracy_tolerated(self):
        h0 = np.diag([1.0, 1.0, 3.0]).astype(complex)
        drive = np.diag([0.5, 0.7, 0.9]).astype(complex)
        with pytest.warns(DegenerateGaugeWarning):
            spec = spectrum(h0)
        h1 = cd_coupling(spec, drive)
        assert np.abs(h1).max() < 1e-12

    def test_endpoints_switched_off(self, fig1_model):
        for t in (0.0, fig1_model.tau):
            assert np.abs(fig1_model.h1_at(t)).max() == 0.0


class TestPropagate:
    def test_constant_hamiltonian_single_step(self, rng):
        h = random_hermitian(rng, 5)
        e, v = np.linalg.eigh(h)
        psi0 = np.zeros(5, dtype=complex)
        psi0[0] = 1.0
        dt = 0.7
        states, _ = propagate(lambda t: h, psi0, [0.0, dt], model=DENSE,
                              tol=1e-8)
        expected = (v * np.exp(-1j * e * dt)) @ (v.conj().T @ psi0)
        assert np.abs(states[-1] - expected).max() < 1e-12
        assert norm_drift(states) < 1e-10

    def test_adiabatic_phase_tracking(self):
        # two-level family with a geometric phase: the propagated state
        # must match the instantaneous eigenstate dressed with both the
        # dynamical and the connection phase (composite Simpson oracle)
        tau = 4.0
        proto = quintic_ramp([-1.0], [1.0], tau)

        def h0_of(lam):
            angle = 0.6 * lam[0]
            field = np.cos(angle) * SZ + np.sin(angle) * SX \
                + 0.4 * np.sin(angle) * SY
            return 2.0 * field

        def dh0_of(lam):
            angle = 0.6 * lam[0]
            return [1.2 * (-np.sin(angle) * SZ + np.cos(angle) * SX
                           + 0.4 * np.cos(angle) * SY)]

        # user-supplied family: H1 assembled from the spectrum
        from cdwork import ParametrizedModel
        model = ParametrizedModel(proto, h0_of, dh0_of)

        grid = np.linspace(0.0, tau, 81)
        spec0 = model.spectrum0_at(0.0)
        states, _ = propagate(lambda t: model.h_drive_at(t, 1.0),
                              spec0.states[:, 0], grid, model=model, tol=1e-8)

        fine = np.linspace(0.0, tau, 4001)
        energies = np.array([model.spectrum0_at(t).energies[0] for t in fine])
        # Berry connection of the gauge-fixed eigenvector via FD
        def connection(t):
            h = 1e-6
            va = model.spectrum0_at(t - h).states[:, 0]
            vb = model.spectrum0_at(t + h).states[:, 0]
            v = model.spectrum0_at(t).states[:, 0]
            return np.vdot(v, (vb - va) / (2.0 * h))

        conn = np.array([connection(t) for t in fine[1:-1]])
        t_mid = fine[len(fine) // 2]
        i_mid = len(fine) // 2
        dyn = simpson(energies[: i_mid + 1], x=fine[: i_mid + 1])
        geo = simpson(conn[: i_mid].imag, x=fine[1: i_mid + 1])
        predicted = np.exp(-1j * dyn - 1j * geo)
        v_mid = model.spectrum0_at(t_mid).states[:, 0]
        state = states[np.searchsorted(grid, t_mid)]
        overlap = np.vdot(v_mid, state)
        assert abs(abs(overlap) - 1.0) < 1e-6
        assert abs(overlap - predicted) < 1e-4

    def test_step_halving_contract(self, rng):
        h_slow = 0.4 * random_hermitian(rng, 6)
        h_fast = 0.3 * random_hermitian(rng, 6)
        psi0 = np.zeros(6, dtype=complex)
        psi0[0] = 1.0
        h_at = lambda t: h_slow + np.sin(3.0 * t) * h_fast
        grid = np.linspace(0.0, 1.0, 11)
        states, _ = propagate(h_at, psi0, grid, model=DENSE, tol=1e-7)
        finer, _ = propagate(h_at, psi0, grid, model=DENSE, tol=1e-9)
        assert np.abs(states[-1] - finer[-1]).max() < 2e-7
        assert norm_drift(states) < 1e-10

    def test_fixed_step_error_is_fourth_order(self, rng):
        # same family as the halving contract; each doubling of the step
        # count must cut the error by close to 2^4 = 16
        h_slow = 0.4 * random_hermitian(rng, 6)
        h_fast = 0.3 * random_hermitian(rng, 6)
        psi0 = np.zeros(6, dtype=complex)
        psi0[0] = 1.0
        h_at = lambda t: h_slow + np.sin(3.0 * t) * h_fast
        grid = np.linspace(0.0, 1.0, 11)
        reference = _run_grid(h_at, DENSE, psi0, grid, 256)[-1]
        errors = [np.linalg.norm(
            _run_grid(h_at, DENSE, psi0, grid, r)[-1] - reference)
            for r in (1, 2, 4, 8)]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 12.0

    @pytest.mark.parametrize("h1_scale", [0.0, 1.0])
    def test_band_route_error_is_fourth_order(self, fig1_model, h1_scale):
        # the oscillator's band commutator and sector exponentials; with
        # the commutator's sign flipped the error falls only by about 4
        # per doubling (second order)
        grid = np.linspace(0.0, fig1_model.tau, 11)
        psi0 = fig1_model.spectrum0_at(0.0).states[:, :9]

        def final(r):
            return _run_grid(lambda t: fig1_model.h_drive_at(t, h1_scale),
                             fig1_model, psi0, grid, r)[-1]

        reference = final(32)
        errors = [np.linalg.norm(final(r) - reference) for r in (1, 2, 4)]
        # 4.6e-4 down to 1.0e-6 here: far above rounding
        assert errors[-1] > 1e-8
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 12.0

    def test_not_converged_raises(self, rng, monkeypatch):
        # a small step budget stands in for an unreachable tolerance
        monkeypatch.setattr(spectral, "MAX_STEPS", 400)
        h_at = lambda t: np.sin(400.0 * t) * 50.0 * SX + 30.0 * t * SZ
        psi0 = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(StepNotConverged, match="MAX_STEPS = 400"):
            propagate(h_at, psi0, np.linspace(0, 1.0, 5), model=DENSE,
                      tol=1e-14)

    def test_step_budget_counts_every_run(self, rng, monkeypatch):
        # the probe pair takes (1 + 2) x 4 steps on a 5-point grid: a
        # budget of 11 stops the second probe, 12 lets the pair run
        h = random_hermitian(rng, 3)
        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        grid = np.linspace(0.0, 0.01, 5)
        monkeypatch.setattr(spectral, "MAX_STEPS", 11)
        with pytest.raises(StepNotConverged, match="2 substeps"):
            propagate(lambda t: h, psi0, grid, model=DENSE, tol=1e-8)
        monkeypatch.setattr(spectral, "MAX_STEPS", 12)
        _, substeps = propagate(lambda t: h, psi0, grid, model=DENSE,
                                tol=1e-8)
        assert substeps == 2

    def test_grid_validation(self):
        psi0 = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            propagate(lambda t: SZ, psi0, [0.5, 1.0], model=DENSE, tol=1e-8)
        with pytest.raises(ValueError):
            propagate(lambda t: SZ, 2.0 * psi0, [0.0, 1.0], model=DENSE,
                      tol=1e-8)


class TestCertificate:
    def test_slow_two_level_ramp_without_cd_passes(self):
        # narrow span keeps the diabatic amplitude below the certificate
        # threshold at a duration the stepper can afford
        proto = quintic_ramp([-0.1], [0.1], 100.0)
        model = two_level_model(proto)
        grid = np.linspace(0.0, proto.duration, 51)
        cert = transitionless_certificate(model, [0], grid, h1_scale=0.0,
                                          tol=1e-7)
        assert cert.passed

    def test_fast_oscillator_ramp_with_and_without_cd(self, fig1_model):
        grid = np.linspace(0.0, fig1_model.tau, 81)
        with_cd = transitionless_certificate(fig1_model, [0, 3, 8], grid,
                                             tol=3e-7)
        assert with_cd.passed
        without = transitionless_certificate(fig1_model, [0], grid,
                                             h1_scale=0.0, tol=3e-7)
        assert not without.passed
        assert without.final_fidelity[0] < 0.999

    def test_verify_point_cost_and_accuracy(self, fig1_model, monkeypatch):
        # the verify suite's certificate: nine levels, 81-point grid
        grid = np.linspace(0.0, fig1_model.tau, 81)
        psi0 = fig1_model.spectrum0_at(0.0).states[:, :9]
        exponentials = []
        evolve_block = HarmonicOscillator.evolve_block

        def counting_evolve_block(self, hs, dts, psi):
            exponentials.extend(dts)
            return evolve_block(self, hs, dts, psi)

        monkeypatch.setattr(HarmonicOscillator, "evolve_block",
                            counting_evolve_block)
        h_at = lambda t: fig1_model.h_drive_at(t, 1.0)
        states, _ = propagate(h_at, psi0, grid, model=fig1_model, tol=3e-7)
        # one exponential per step: (1 + 2) x 80 steps
        assert len(exponentials) <= 240
        # 16 fixed steps land within 1e-12 of a 200-step run, with 1,280
        # exponentials instead of 16,000
        reference = _run_grid(h_at, fig1_model, psi0, grid, 16)[-1]
        assert np.linalg.norm(states[-1] - reference, axis=0).max() < 3e-7

    @pytest.mark.parametrize("h1_scale", [0.99, 1.01])
    def test_verify_point_catches_wrong_prefactor(self, fig1_model, h1_scale):
        grid = np.linspace(0.0, fig1_model.tau, 81)
        cert = transitionless_certificate(fig1_model, np.arange(9), grid,
                                          h1_scale=h1_scale, tol=3e-7)
        assert not cert.passed

    def test_unreachable_tolerance_stops_within_budget(self, fig1_model):
        # a huge auxiliary term leaves the step-halving contract out of
        # reach: the step budget ends the call instead of an endless
        # refinement
        grid = np.linspace(0.0, fig1_model.tau, 81)
        with _deadline(30.0), pytest.raises(StepNotConverged,
                                            match="MAX_STEPS"):
            transitionless_certificate(fig1_model, np.arange(9), grid,
                                       h1_scale=1e300, tol=3e-7)
