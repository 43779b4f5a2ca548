import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from cdwork import (BandStructureError, ConfigError, HOConfig, HarmonicOscillator, InvalidDetuning,
                    NonHermitianInput, ParametrizedModel, SupercriticalDrive,
                    ValidityWarning, cd_exact_eigensystem, ho_metric,
                    ion_waveforms, model_ensemble, path_lengths, qgt, ramp,
                    variance_work, work_distribution)
from cdwork import oscillator
from cdwork.oscillator import IonConfig
from cdwork.spectral import dense_evolve


class TestRamp:
    def test_boundary_conditions(self):
        proto = ramp(1.0, 3.0, 0.8)
        assert proto.value(0.0)[0] == 1.0
        assert proto.value(0.8)[0] == 3.0
        assert proto.derivative(0.0)[0] == 0.0
        assert proto.derivative(0.8)[0] == 0.0

    def test_midpoint_values(self):
        proto = ramp(1.0, 3.0, 0.8)
        assert proto.value(0.4)[0] == pytest.approx(2.0, abs=1e-14)
        assert proto.derivative(0.4)[0] == pytest.approx(4.6875, abs=1e-12)

    def test_flat_ramp(self):
        proto = ramp(2.0, 2.0, 1.0)
        assert all(proto.value(t)[0] == 2.0 for t in np.linspace(0, 1, 5))


class TestConfig:
    def test_rejects_small_basis(self):
        with pytest.raises(ConfigError):
            HOConfig(1.0, 3.0, 0.8, dim=20).validate()

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ConfigError):
            HOConfig(-1.0, 3.0, 0.8).validate()
        with pytest.raises(ConfigError):
            HOConfig(1.0, 3.0, 0.8, mass=0.0).validate()

    def test_supercritical_ramp_flagged(self):
        cfg = HOConfig(1.0, 3.0, 0.4)
        with pytest.raises(SupercriticalDrive):
            cfg.validate()
        assert cfg.max_drive_ratio() > 1.0
        # the model itself is still constructible; only the closed-form
        # eigensystem requires the subcritical drive
        HarmonicOscillator(cfg)

    def test_default_reference_frequency(self):
        assert HOConfig(1.0, 3.0, 0.8).omega_ref == pytest.approx(math.sqrt(3))
        assert HOConfig(1.0, 3.0, 0.8,
                        reference_frequency=2.0).omega_ref == 2.0


class TestMatrices:
    def test_ground_state_energy_at_reference(self, fig1_model):
        w_ref = fig1_model.config.omega_ref
        h0 = fig1_model.h0_matrix(w_ref)
        assert h0[0, 0] == pytest.approx(w_ref / 2.0, rel=1e-12)

    def test_h1_vanishes_without_drive(self, fig1_model):
        assert np.abs(fig1_model.h1_matrix(2.0, 0.0)).max() == 0.0

    def test_h1_couples_only_two_apart(self, fig1_model):
        h1 = fig1_model.h1_matrix(2.0, 1.3)
        mask = np.ones_like(h1, dtype=bool)
        d = fig1_model.dim
        idx = np.arange(d - 2)
        mask[idx, idx + 2] = mask[idx + 2, idx] = False
        assert np.abs(h1[mask]).max() == 0.0

    def test_h1_element_magnitude(self, fig1_model):
        # |<2|H1|0>| = omegadot sqrt(2) / (4 omega) at the reference
        # frequency (ladder algebra: qp+pq = i(raise^2 - lower^2))
        w_ref = fig1_model.config.omega_ref
        wd = 1.7
        h1 = fig1_model.h1_matrix(w_ref, wd)
        assert abs(h1[2, 0]) == pytest.approx(wd * math.sqrt(2) / (4 * w_ref),
                                              rel=1e-12)
        assert h1[2, 0].real == 0.0  # purely imaginary coupling

    def test_hermitian(self, fig1_model):
        for t in (0.1, 0.37, 0.62):
            h = fig1_model.h_cd_at(t)
            assert np.abs(h - h.conj().T).max() < 1e-14


class TestFastEigh:
    def test_matches_dense_solver_in_band(self, fig1_model):
        h = fig1_model.h_cd_at(0.37)
        energies, vectors = fig1_model.fast_eigh(h)
        assert np.abs(np.sort(energies) - np.linalg.eigvalsh(h)).max() < 1e-10
        assert np.abs(h @ vectors - vectors * energies).max() < 1e-9

    def test_accepts_negative_zero_entries(self, fig1_model):
        # a negative scale turns the zeros of qp+pq into -0.0
        h1 = fig1_model.h1_matrix(2.0, 1.3)
        assert np.any(np.signbit(h1.real[0, 1:2]))
        fig1_model.fast_eigh(h1)

    @pytest.mark.parametrize("distance", [1, 3, 4])
    def test_rejects_coupling_outside_band(self, fig1_model, distance):
        h = fig1_model.h0_matrix(2.0).astype(complex)
        h[5, 5 + distance] = h[5 + distance, 5] = 1e-3
        with pytest.raises(BandStructureError, match="two apart"):
            fig1_model.fast_eigh(h)

    def test_rejects_wrong_shape(self, fig1_model):
        with pytest.raises(BandStructureError, match="shape"):
            fig1_model.fast_eigh(np.eye(fig1_model.dim - 1))

    @pytest.mark.parametrize("entry", [(4, 4), (4, 6), (7, 5)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_band(self, fig1_model, entry, bad):
        h = fig1_model.h_cd_at(0.37).copy()
        h[entry] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fig1_model.fast_eigh(h)

    @pytest.mark.parametrize("h1_scale", [0.0, 1.0])
    @pytest.mark.parametrize("entry", [(0, 4), (1, 5)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_band_input(self, fig1_model, h1_scale, entry,
                                           bad):
        # (2, d) bands skip the dense checks, not the finiteness one
        band = fig1_model.h_drive_at(0.37, h1_scale)
        band[entry] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fig1_model.fast_eigh(band)

    def test_rejects_asymmetric_band(self, fig1_model):
        # the solver reads only the +2 diagonal; the -2 one must mirror it
        h = fig1_model.h_cd_at(0.37).copy()
        h[7, 5] *= 1.0 + 1e-6
        with pytest.raises(NonHermitianInput, match="Hermiticity"):
            fig1_model.fast_eigh(h)

    def test_rejects_imaginary_diagonal(self, fig1_model):
        h = fig1_model.h_cd_at(0.37).copy()
        h[4, 4] += 1e-6j
        with pytest.raises(NonHermitianInput, match="Hermiticity"):
            fig1_model.fast_eigh(h)

    def test_same_bits_as_scipy_tridiagonal_solver(self, fig1_model):
        # reference: scipy's validated front end to the same LAPACK routine
        h = fig1_model.h_cd_at(0.37)
        energies, vectors = fig1_model.fast_eigh(h)
        col = 0
        for parity in (0, 1):
            off = np.diagonal(h, 2)[parity::2]
            phases = np.exp(-1j * np.concatenate(([0.0], np.cumsum(np.angle(off)))))
            vals, vecs = eigh_tridiagonal(np.diagonal(h)[parity::2].real,
                                          np.abs(off))
            size = len(vals)
            assert np.array_equal(energies[col:col + size], vals)
            assert np.array_equal(vectors[parity::2, col:col + size],
                                  vecs * phases[:, None])
            col += size


    @pytest.mark.parametrize("omega", [1.0, 1.5, 3.0])
    def test_band_input_same_bits_as_dense(self, fig1_model, omega):
        # H0 spectra are solved from the band with no dense build
        dense = fig1_model.fast_eigh(fig1_model.h0_matrix(omega))
        band = fig1_model.fast_eigh(fig1_model._h0_operator([omega]))
        for a, b in zip(dense, band):
            assert np.array_equal(a, b)
        # a real band needs only signs: its eigenvectors stay real
        assert band[1].dtype == np.float64


def _random_state(rng, dim, columns=None, odd=True):
    shape = (dim,) if columns is None else (dim, columns)
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if not odd:
        psi[1::2] = 0.0
    return psi / np.linalg.norm(psi, axis=0)


class TestSectorEvolve:
    """``evolve`` exponentiates one parity sector at a time; the dense
    default of the generic model is the reference."""

    @staticmethod
    def _operators(model, h1_scale):
        return (model.h_drive_at(0.37, h1_scale),
                ParametrizedModel.h_drive_at(model, 0.37, h1_scale))

    @pytest.mark.parametrize("dt", [0.005, 0.3])
    @pytest.mark.parametrize("columns", [None, 9])
    @pytest.mark.parametrize("h1_scale", [0.0, 1.0])
    def test_matches_dense_default(self, fig1_model, rng, h1_scale, columns,
                                   dt):
        band, dense = self._operators(fig1_model, h1_scale)
        assert np.iscomplexobj(band) == bool(h1_scale)
        psi = _random_state(rng, fig1_model.dim, columns)
        out = fig1_model.evolve(band, dt, psi)
        assert out.shape == psi.shape
        assert np.abs(out - dense_evolve(dense, dt, psi)).max() < 1e-13
        # a column slice of a spectrum is Fortran-ordered
        assert np.array_equal(
            fig1_model.evolve(band, dt, np.asfortranarray(psi)), out)

    @pytest.mark.parametrize("columns", [None, 3])
    def test_empty_sector_stays_zero_and_is_not_solved(self, fig1_model, rng,
                                                       monkeypatch, columns):
        solves = []
        stevd = oscillator._STEVD

        def counting_stevd(*args):
            solves.append(1)
            return stevd(*args)

        monkeypatch.setattr(oscillator, "_STEVD", counting_stevd)
        band, dense = self._operators(fig1_model, 1.0)
        psi = _random_state(rng, fig1_model.dim, columns, odd=False)
        out = fig1_model.evolve(band, 0.3, psi)
        assert len(solves) == 1
        assert not out[1::2].any()
        assert np.abs(out - dense_evolve(dense, 0.3, psi)).max() < 1e-13

    @pytest.mark.parametrize("h1_scale", [0.0, 1.0])
    @pytest.mark.parametrize("entry", [(0, 5), (1, 6)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_band(self, fig1_model, rng, h1_scale, entry,
                                     bad):
        # (0, 5) sits in the odd sector, which an even state leaves unsolved
        band, _ = self._operators(fig1_model, h1_scale)
        band[entry] = bad
        psi = _random_state(rng, fig1_model.dim, odd=False)
        with pytest.raises(ValueError, match="non-finite"):
            fig1_model.evolve(band, 0.3, psi)

    @pytest.mark.parametrize("h1_scale", [0.0, 1.0])
    def test_dense_input_same_bits_as_band(self, fig1_model, rng, h1_scale):
        band, dense = self._operators(fig1_model, h1_scale)
        psi = _random_state(rng, fig1_model.dim, 9)
        assert np.array_equal(fig1_model.evolve(dense, 0.3, psi),
                              fig1_model.evolve(band, 0.3, psi))


def _assert_band_products(model, times, vectors):
    out = model.apply_h1(times, vectors, np.empty_like(vectors))
    for b, t in enumerate(times):
        # H1 vanishes exactly where omegadot does
        want = model.h1_at(t) @ vectors[b]
        assert np.abs(out[b] - want).max() <= 1e-13 * np.abs(want).max()


class TestBandProduct:
    @pytest.mark.parametrize("times", [[0.0, 0.8], [0.13, 0.4, 0.71],
                                       [0.0, 0.37, 0.8]])
    def test_matches_dense_h_cd(self, fig1_model, rng, times):
        # both endpoints have omegadot = 0, where H1 vanishes
        vectors = (rng.standard_normal((len(times), fig1_model.dim, 7))
                   + 1j * rng.standard_normal((len(times), fig1_model.dim, 7)))
        _assert_band_products(fig1_model, times, vectors)

    def test_eigenvector_block(self, fig1_model, fig1_ensemble):
        times = np.linspace(0.0, 0.8, 5)
        k = fig1_ensemble.n_levels
        vectors = np.stack([fig1_model.spectrum0_at(t).states[:, :k]
                            for t in times]).astype(complex)
        _assert_band_products(fig1_model, times, vectors)


class TestClosedFormEigensystem:
    def test_static_limit(self):
        energy, _ = cd_exact_eigensystem(2.0, 0.0, 3)
        assert energy == pytest.approx(7.0, rel=1e-14)

    def test_reference_value(self):
        energy, _ = cd_exact_eigensystem(2.0, 4.0, 0)
        assert energy == pytest.approx(math.sqrt(0.75), rel=1e-12)
        assert energy == pytest.approx(0.8660, abs=5e-5)

    def test_supercritical_raises(self):
        with pytest.raises(SupercriticalDrive):
            cd_exact_eigensystem(1.0, 2.0, 0)

    def test_fock_engine_matches_across_ramp(self):
        model = HarmonicOscillator(HOConfig(1.0, 3.0, 1.6, dim=120))
        cap = model.dim // 3
        for t in np.linspace(0.0, 1.6, 9):
            w, wd = model.omega(t), model.omega_dot(t)
            energies = model.spectrum_cd_at(t).energies
            exact = np.array([cd_exact_eigensystem(w, wd, n)[0]
                              for n in range(cap + 1)])
            assert np.abs(energies[: cap + 1] - exact).max() < 1e-7

    def test_wavefunction_normalized_and_chirped(self):
        energy, psi = cd_exact_eigensystem(2.0, 4.0, 2)
        norm, _ = quad(lambda x: abs(psi(x)) ** 2, -8.0, 8.0, limit=200)
        assert norm == pytest.approx(1.0, rel=1e-8)
        value = psi(0.7)
        assert abs(value.imag) > 1e-3  # chirp phase present

    def test_wavefunction_matches_fock_engine(self):
        # reconstruct the position wavefunction from the Fock-space
        # eigenvector via reference-basis Hermite functions
        from numpy.polynomial.hermite import hermval
        model = HarmonicOscillator(HOConfig(1.0, 3.0, 1.6, dim=120))
        t = 0.8
        w, wd = model.omega(t), model.omega_dot(t)
        level = 1
        _, psi = cd_exact_eigensystem(w, wd, level)
        vec = model.spectrum_cd_at(t).states[:, level]
        w_ref = model.config.omega_ref

        def basis_fn(n, x):
            coeff = np.zeros(n + 1)
            coeff[n] = 1.0
            norm = (w_ref / math.pi) ** 0.25 / math.sqrt(
                2.0**n * math.factorial(n))
            return norm * hermval(math.sqrt(w_ref) * x, coeff) \
                * math.exp(-0.5 * w_ref * x * x)

        xs = np.array([-1.1, -0.4, 0.3, 0.9])
        rebuilt = sum(vec[n] * np.array([basis_fn(n, x) for x in xs])
                      for n in range(60))
        target = np.array([psi(x) for x in xs])
        phase = target[2] / rebuilt[2]
        assert np.abs(rebuilt * phase - target).max() < 1e-6


class TestHoMetric:
    def test_reference_values(self):
        assert ho_metric(1.0, 0) == pytest.approx(0.125, rel=1e-14)
        assert ho_metric(2.0, 1) == pytest.approx(3.0 / 32.0, rel=1e-14)

    def test_frequency_scaling(self):
        assert ho_metric(2.0, 4) == pytest.approx(ho_metric(1.0, 4) / 4.0,
                                                  rel=1e-14)

    def test_matches_perturbative_route(self, fig1_model):
        for t, n in ((0.2, 0), (0.4, 3), (0.7, 7)):
            g = qgt(fig1_model, n, t).g[0, 0]
            assert g == pytest.approx(ho_metric(fig1_model.omega(t), n),
                                      abs=1e-8)


class TestTruncationConvergence:
    def test_figure_point_stable_under_doubling(self):
        values = {}
        for dim in (120, 240):
            model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=dim))
            ensemble = model_ensemble(model, 1.0)
            dist = work_distribution(model, ensemble, 0.8, "cd")
            values[dim] = (
                float(dist.probabilities @ dist.support),
                variance_work(dist),
                path_lengths(model, ensemble)[1],
            )
        for a, b in zip(values[120], values[240]):
            assert abs(a - b) < 1e-7


class TestIonWaveforms:
    def test_flat_ramp_needs_no_drive(self):
        table = ion_waveforms(HOConfig(3.0, 3.0, 1.0), nu=3.0)
        assert np.abs(table.potential).max() == 0.0
        assert np.abs(table.omega_eff1).max() == 0.0

    def test_initial_amplitude(self):
        table = ion_waveforms(HOConfig(1.0, 3.0, 0.8), nu=3.0)
        assert table.potential[0] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert table.potential[-1] == pytest.approx(0.0, abs=1e-12)

    def test_phase_at_midramp(self):
        table = ion_waveforms(HOConfig(1.0, 3.0, 0.8), nu=3.0,
                              grid_points=401)
        i = 200
        w, wd = table.omega[i], table.omega_dot[i]
        expected = math.atan2(wd / (2.0 * w), -table.potential[i])
        assert table.phi3[i] == pytest.approx(expected, rel=1e-12)
        assert table.omega_eff1[i] == pytest.approx(
            -table.potential[i] + 0.5j * wd / w, rel=1e-12)

    def test_round_trip(self):
        table = ion_waveforms(HOConfig(1.0, 3.0, 0.8), nu=3.0)
        back = np.sqrt(3.0 * (3.0 - 2.0 * table.potential))
        assert np.abs(back - table.omega).max() < 1e-12

    def test_effective_mass(self):
        table = ion_waveforms(HOConfig(1.0, 3.0, 0.8), nu=3.0,
                              ion=IonConfig(nu=3.0, trap_frequency=6.0))
        assert table.ion.effective_mass == pytest.approx(2.0, rel=1e-14)

    def test_unreachable_ramp_rejected(self):
        with pytest.raises(InvalidDetuning):
            ion_waveforms(HOConfig(1.0, 3.0, 0.8), nu=2.0)

    def test_failed_round_trip_is_a_package_error(self):
        # at nu >> omega the potential ~ nu/2 cannot encode omega to
        # precision: the round trip fails by rounding alone
        with pytest.warns(ValidityWarning), \
                pytest.raises(InvalidDetuning, match="round trip"):
            ion_waveforms(HOConfig(1.0, 3.0, 0.8), nu=1e8, grid_points=21)

    def test_marginal_validity_warns(self):
        weak = IonConfig(nu=3.0, delta_spin=20.0)
        with pytest.warns(ValidityWarning):
            ion_waveforms(HOConfig(1.0, 3.0, 0.8), nu=3.0, ion=weak)
