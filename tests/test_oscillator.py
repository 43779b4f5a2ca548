import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.linalg import lapack
from scipy.linalg.lapack import get_lapack_funcs

from cdwork import (BandStructureError, ConfigError, HOConfig, HarmonicOscillator, InvalidDetuning,
                    NonHermitianInput, ParametrizedModel, SupercriticalDrive,
                    ValidityWarning, cd_exact_energy, ho_metric,
                    ion_waveforms, model_ensemble, path_lengths, qgt,
                    quintic_ramp, work_distribution)
from cdwork import oscillator
from cdwork.spectral import gauge_fix
from conftest import band_to_dense, work_variance


def cd_exact_wavefunction(omega, omega_dot, n):
    """Closed-form position-space eigenfunction psi_n(q) of the driven
    oscillator H0 + H1: a Hermite polynomial times a Gaussian of
    effective frequency omega sqrt(1 - omegadot^2/4 omega^4), carrying
    the chirp phase exp(i omegadot q^2 / 4 omega)."""
    ratio = omega_dot * omega_dot / (4.0 * omega**4)
    if ratio >= 1.0:
        raise SupercriticalDrive(f"drive ratio {ratio:.3g} >= 1")
    w_eff = omega * math.sqrt(1.0 - ratio)  # hbar = m = 1
    norm = (w_eff / math.pi) ** 0.25 / math.sqrt(2.0**n * math.factorial(n))
    coeff = np.zeros(n + 1)
    coeff[n] = 1.0

    def wavefunction(q):
        q = np.asarray(q, dtype=float)
        gauss = np.exp(-0.5 * w_eff * q * q)
        chirp = np.exp(1j * omega_dot * q * q / (4.0 * omega))
        return norm * hermval(np.sqrt(w_eff) * q, coeff) * gauss * chirp

    return wavefunction


class TestRamp:
    def test_boundary_conditions(self):
        proto = quintic_ramp([1.0], [3.0], 0.8)
        assert proto.value(0.0)[0] == 1.0
        assert proto.value(0.8)[0] == 3.0
        assert proto.derivative(0.0)[0] == 0.0
        assert proto.derivative(0.8)[0] == 0.0

    def test_midpoint_values(self):
        proto = quintic_ramp([1.0], [3.0], 0.8)
        assert proto.value(0.4)[0] == pytest.approx(2.0, abs=1e-14)
        assert proto.derivative(0.4)[0] == pytest.approx(4.6875, abs=1e-12)

    def test_flat_ramp(self):
        proto = quintic_ramp([2.0], [2.0], 1.0)
        assert all(proto.value(t)[0] == 2.0 for t in np.linspace(0, 1, 5))


class TestConfig:
    def test_rejects_small_basis(self):
        with pytest.raises(ConfigError):
            HOConfig(1.0, 3.0, 0.8, dim=20).validate()

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ConfigError):
            HOConfig(-1.0, 3.0, 0.8).validate()

    def test_supercritical_ramp_flagged(self):
        # the model itself is still constructible; only the closed-form
        # spectrum requires the subcritical drive, which this ramp
        # exceeds at its midpoint (drive ratio 1.37)
        model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.4))
        with pytest.raises(SupercriticalDrive):
            cd_exact_energy(model.omega(0.2), model.omega_dot(0.2), 0)

    def test_default_reference_frequency(self):
        assert HOConfig(1.0, 3.0, 0.8).omega_ref == pytest.approx(math.sqrt(3))

    @pytest.mark.parametrize("omega_f", [1e200, 1e300])
    def test_rejects_frequency_that_overflows_the_band(self, omega_f):
        # omega^2 is not a finite float: H0 would hold inf
        with pytest.raises(ConfigError, match="omega_f"):
            HOConfig(1.0, omega_f, 0.8).validate()


class TestMatrices:
    def test_ground_state_energy_at_reference(self):
        # a flat ramp sits at its reference frequency, where H0 is diagonal
        model = HarmonicOscillator(HOConfig(2.0, 2.0, 0.8))
        h0 = model.h0_at(0.3)
        assert h0[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert np.abs(h0[1]).max() < 1e-12

    def test_h1_vanishes_without_drive(self, fig1_model):
        # omegadot = 0 at both ends of the quintic ramp
        assert np.abs(fig1_model.h1_at(0.0)).max() == 0.0

    def test_h1_couples_only_two_apart(self, fig1_model):
        # the band holds no diagonal and no entry past the +2 diagonal
        h1 = fig1_model.h1_at(0.37)
        assert h1.shape == (2, fig1_model.dim)
        assert np.abs(h1[0]).max() == 0.0
        assert np.abs(h1[1, -2:]).max() == 0.0
        assert np.abs(h1[1, :-2]).min() > 0.0

    def test_h1_element_magnitude(self, fig1_model):
        # |<0|H1|2>| = omegadot sqrt(2) / (4 omega) in any reference basis
        # (ladder algebra: qp+pq = i(raise^2 - lower^2))
        t = 0.37
        w, wd = fig1_model.omega(t), fig1_model.omega_dot(t)
        h1 = fig1_model.h1_at(t)
        assert abs(h1[1, 0]) == pytest.approx(wd * math.sqrt(2) / (4 * w),
                                              rel=1e-12)
        assert h1[1, 0].real == 0.0  # purely imaginary coupling

    def test_hermitian(self, fig1_model):
        # a band is Hermitian when its diagonal is real
        for t in (0.1, 0.37, 0.62):
            assert not fig1_model.h_drive_at(t, 1.0)[0].imag.any()


def solve(model, h):
    """(energies, states) of the band h, a one-band block of the
    oscillator's solver."""
    spec = model._diagonalize([h])[0]
    return spec.energies, spec.states


class TestFastEigh:
    """The oscillator's band solver, ``_diagonalize``, one parity sector
    at a time."""

    def test_matches_dense_solver_in_band(self, fig1_model):
        h = fig1_model.h_drive_at(0.37, 1.0)
        dense = band_to_dense(h)
        energies, vectors = solve(fig1_model, h)
        assert np.abs(energies - np.linalg.eigvalsh(dense)).max() < 1e-10
        assert np.abs(dense @ vectors - vectors * energies).max() < 1e-9

    def test_real_band_keeps_vectors_real(self, fig1_model):
        # a real band needs only signs for its phase rotation
        h0 = fig1_model.h0_at(0.37)
        energies, vectors = solve(fig1_model, h0)
        assert vectors.dtype == np.float64
        assert np.abs(band_to_dense(h0) @ vectors
                      - vectors * energies).max() < 1e-9

    def test_accepts_negative_zero_entries(self, fig1_model):
        # a negative scale turns the zero diagonal of qp+pq into -0.0
        h1 = fig1_model.h1_at(0.37)
        assert np.all(np.signbit(h1.real[0]))
        energies, vectors = solve(fig1_model, h1)
        assert np.abs(band_to_dense(h1) @ vectors
                      - vectors * energies).max() < 1e-12

    @pytest.mark.parametrize("distance", [1, 3, 4])
    def test_rejects_coupling_outside_band(self, fig1_model, distance):
        # the solver takes bands only: a dense matrix, here with a coupling
        # the band cannot hold, is refused
        h = band_to_dense(fig1_model.h0_at(0.4)).astype(complex)
        h[5, 5 + distance] = h[5 + distance, 5] = 1e-3
        with pytest.raises(BandStructureError, match="two apart"):
            solve(fig1_model, h)

    def test_rejects_wrong_shape(self, fig1_model):
        with pytest.raises(BandStructureError, match="shape"):
            solve(fig1_model, np.eye(fig1_model.dim - 1))

    # the diagonal, the +2 diagonal and a padding entry
    @pytest.mark.parametrize("entry", [(0, 4), (1, 4), (1, -1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_band(self, fig1_model, entry, bad):
        h = fig1_model.h_drive_at(0.37, 1.0)
        h[entry] = bad
        with pytest.raises(ValueError, match="non-finite"):
            solve(fig1_model, h)

    @pytest.mark.parametrize("h1_scale", [0.0, 1.0])
    @pytest.mark.parametrize("entry", [(0, 4), (1, 5)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_band_input(self, fig1_model, h1_scale, entry,
                                           bad):
        band = fig1_model.h_drive_at(0.37, h1_scale)
        band[entry] = bad
        with pytest.raises(ValueError, match="non-finite"):
            solve(fig1_model, band)

    def test_rejects_imaginary_diagonal(self, fig1_model, rng):
        h = fig1_model.h_drive_at(0.37, 1.0)
        h[0, 4] += 1e-6j
        with pytest.raises(NonHermitianInput, match="Hermiticity"):
            solve(fig1_model, h)
        with pytest.raises(NonHermitianInput, match="Hermiticity"):
            fig1_model.evolve_block([h], [0.3],
                                    _random_state(rng, fig1_model.dim))
        # below HERMITIAN_TOL of the band's scale, as in assert_hermitian,
        # the imaginary part is dropped
        h[0, 4] = h[0, 4].real + 1e-20j
        assert np.array_equal(solve(fig1_model, h)[0], solve(
            fig1_model, fig1_model.h_drive_at(0.37, 1.0))[0])

    def test_same_bits_as_scipy_tridiagonal_solver(self, fig1_model):
        # reference: scipy's validated front end to the same LAPACK routine
        h = fig1_model.h_drive_at(0.37, 1.0)
        sectors = fig1_model._sector_spectra(
            fig1_model._checked_bands([h]), (0, 1))
        for parity, (vals, vecs, phases) in enumerate(sectors):
            off = h[1, :-2][parity::2]
            ref = np.exp(-1j * np.concatenate(([0.0],
                                               np.cumsum(np.angle(off)))))
            ref_vals, ref_vecs = eigh_tridiagonal(h[0, parity::2].real,
                                                  np.abs(off))
            assert np.array_equal(vals[0], ref_vals)
            assert np.array_equal(vecs[0] * phases[0][:, None],
                                  ref_vecs * ref[:, None])


class TestGauge:
    """Oscillator spectra are in the gauge that ``spectral.spectrum``
    documents: each column divided by the unit phase of its pivot, its
    largest-magnitude entry (``spectral.gauge_fix``)."""

    TIMES = (0.0, 0.13, 0.4, 0.71, 0.8)

    @classmethod
    def spectra(cls, model):
        """(band, spectrum) pairs: H0 (a real band) and the driving
        Hamiltonian (a complex one) at each of TIMES."""
        return [pair for t in cls.TIMES for pair in (
            (model.h0_at(t), model.spectrum0_at(t)),
            (model.h_drive_at(t, 1.0), model.spectrum_cd_at(t)))]

    def test_pivots_are_real_and_positive(self, fig1_model):
        eps = np.finfo(float).eps
        for _, spec in self.spectra(fig1_model):
            v = spec.states
            pivots = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
            assert np.all(pivots.real > 0.0)
            # exact on a real band; a complex pivot keeps the rounding of
            # the one complex division that fixed it
            assert np.all(np.abs(pivots.imag) <= eps * pivots.real)

    def test_rule_leaves_states_unchanged(self, fig1_model):
        # on the real H0 spectra; a complex column keeps a phase within
        # an ulp of one, from the rounding of its one complex division
        for t in self.TIMES:
            v = fig1_model.spectrum0_at(t).states
            assert (v / gauge_fix(v)).tobytes() == v.tobytes()

    def test_states_are_the_rule_on_the_sector_eigenvectors(self,
                                                            fig1_model):
        # the dense rule of ``spectrum`` on the unfixed eigenvectors of
        # both sectors gives every entry of states; the off-sector zeros
        # it divides may come out signed, so equality, not bits, here
        model = fig1_model
        for band, spec in self.spectra(model):
            raw = np.zeros_like(spec.states)
            sectors = model._sector_spectra(model._checked_bands([band]),
                                            (0, 1))
            for parity, (_, vecs, phases) in enumerate(sectors):
                raw[parity::2, spec.sectors[parity][0]] = \
                    vecs[0] * phases[0][:, None]
            assert np.array_equal(raw / gauge_fix(raw), spec.states)

    def test_off_sector_entries_are_positive_zeros(self, fig1_model):
        for _, spec in self.spectra(fig1_model):
            v = spec.states
            for parity, (levels, _) in enumerate(spec.sectors):
                # real and imaginary parts alike
                off = np.ascontiguousarray(v[1 - parity::2][:, levels])
                parts = off.view(float)
                assert not parts.any() and not np.signbit(parts).any()

    @pytest.mark.parametrize("width", ["one", "retained", "all"])
    def test_columns_are_the_leading_states(self, fig1_model, fig1_ensemble,
                                            width):
        # real H0 and complex driven spectra, bit for bit
        k = {"one": 1, "retained": fig1_ensemble.n_levels,
             "all": fig1_model.dim}[width]
        for _, spec in self.spectra(fig1_model):
            lead = spec.columns(k)
            want = spec.states[:, :k]
            assert lead.shape == want.shape and lead.dtype == want.dtype
            assert lead.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_helper_on_a_stack_is_per_matrix(self, fig1_model, rng, dtype):
        stack = rng.standard_normal((5, 12, 7)).astype(dtype)
        if dtype is complex:
            stack += 1j * rng.standard_normal(stack.shape)
        # and the unfixed sector eigenvectors of one band block
        bands = fig1_model._checked_bands(
            [fig1_model.h_drive_at(t, 1.0 if dtype is complex else 0.0)
             for t in (0.13, 0.4)])
        _, vecs, phases = fig1_model._sector_spectra(bands, (1,))[0]
        for block in (stack, vecs * phases[:, :, None]):
            phase = gauge_fix(block)
            assert phase.shape == (len(block), 1, block.shape[-1])
            assert phase.tobytes() == np.stack(
                [gauge_fix(matrix) for matrix in block]).tobytes()
            assert np.allclose(np.abs(phase), 1.0, rtol=0.0, atol=1e-15)


class TestStevdRoute:
    """``oscillator._STEVD`` calls dstevd in numpy's OpenBLAS through
    ctypes, over a block of matrices; scipy's wrapper of the same
    routine is the bitwise reference, and the fallback where numpy ships
    no such library."""

    # dstevd runs QL up to SMLSIZ = 25 levels and divide and conquer above
    @pytest.mark.parametrize("n", [2, 3, 26, 60, 61])
    def test_same_bits_as_scipy_stevd(self, n):
        scipy_stevd = get_lapack_funcs("stevd", dtype=np.float64)
        rng = np.random.default_rng(n)
        d, e = rng.standard_normal((20, n)), rng.standard_normal((20, n - 1))
        kept = d.copy(), e.copy()
        vectors = np.empty((20, n, n))
        vals, info = oscillator._STEVD(d, e, vectors)
        assert info == 0
        for b in range(20):
            ref_vals, ref_vecs, ref_info = scipy_stevd(d[b], e[b])
            assert ref_info == 0
            assert np.array_equal(vals[b], ref_vals)
            assert np.array_equal(vectors[b].T, ref_vecs)
            assert vectors[b].T.flags.f_contiguous
        # LAPACK overwrites d and destroys e; the caller's arrays stay
        assert np.array_equal(d, kept[0]) and np.array_equal(e, kept[1])

    @pytest.mark.parametrize("vectors", [
        np.empty((2, 3, 3)), np.empty((1, 3, 3), dtype=np.float32),
        np.empty((1, 3, 3), order="F"), np.empty((1, 3, 4))[..., :3]])
    def test_refuses_an_output_it_cannot_write(self, vectors):
        # the routine writes through the buffer's address
        with pytest.raises(ValueError, match="C-contiguous float64"):
            oscillator._STEVD(np.ones((1, 3)), np.ones((1, 2)), vectors)

    def test_single_level_closed_form(self):
        # scipy's wrapper rejects the empty off-diagonal of one level
        vectors = np.empty((1, 1, 1))
        vals, info = oscillator._STEVD(np.array([[-2.5]]), np.zeros((1, 0)),
                                       vectors)
        assert info == 0
        assert vals.tolist() == [[-2.5]] and vectors.tolist() == [[[1.0]]]

    @pytest.mark.parametrize("library", [None, "/nonexistent/libopenblas.so"])
    def test_scipy_fallback_same_bits(self, monkeypatch, fig1_model, library):
        h = fig1_model.h_drive_at(0.37, 1.0)
        energies, vectors = solve(fig1_model, h)
        # the library numpy's wheel ships is missing, or cannot be opened
        monkeypatch.setattr(oscillator.glob, "glob",
                            lambda pattern: [library] if library else [])
        requested = []
        get_funcs = lapack.get_lapack_funcs
        monkeypatch.setattr(lapack, "get_lapack_funcs", lambda *args, **kw:
                            requested.append(args) or get_funcs(*args, **kw))
        fallback = oscillator._resolve_stevd(oscillator._numpy_openblas())
        assert requested == [("stevd",)]
        monkeypatch.setattr(oscillator, "_STEVD", fallback)
        again = solve(fig1_model, h)
        assert np.array_equal(again[0], energies)
        assert np.array_equal(again[1], vectors)


def _random_state(rng, dim, columns=None, odd=True):
    shape = (dim,) if columns is None else (dim, columns)
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if not odd:
        psi[1::2] = 0.0
    return psi / np.linalg.norm(psi, axis=0)


def _dense_step(model, dense, dt, psi):
    """One exact step of the generic model's dense ``evolve_block``."""
    return ParametrizedModel.evolve_block(model, [dense], [dt], psi)[0]


class TestSectorEvolve:
    """``evolve_block`` exponentiates one parity sector at a time; the
    dense ``evolve_block`` of the generic model is the reference, and a
    block gives the bits of its steps taken one at a time."""

    @staticmethod
    def _operators(model, h1_scale):
        band = model.h_drive_at(0.37, h1_scale)
        return band, band_to_dense(band)

    @pytest.mark.parametrize("dt", [0.005, 0.3])
    @pytest.mark.parametrize("columns", [None, 9])
    @pytest.mark.parametrize("h1_scale", [0.0, 1.0])
    def test_matches_dense_default(self, fig1_model, rng, h1_scale, columns,
                                   dt):
        band, dense = self._operators(fig1_model, h1_scale)
        assert np.iscomplexobj(band) == bool(h1_scale)
        psi = _random_state(rng, fig1_model.dim, columns)
        out = fig1_model.evolve_block([band], [dt], psi)
        assert out.shape == (1,) + psi.shape
        want = _dense_step(fig1_model, dense, dt, psi)
        assert np.abs(out[0] - want).max() < 1e-13
        # a column slice of a spectrum is Fortran-ordered
        assert np.array_equal(fig1_model.evolve_block(
            [band], [dt], np.asfortranarray(psi)), out)

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
        out = fig1_model.evolve_block([band], [0.3], psi)[0]
        assert len(solves) == 1
        assert not out[1::2].any()
        want = _dense_step(fig1_model, dense, 0.3, psi)
        assert np.abs(out - want).max() < 1e-13

    @pytest.mark.parametrize("odd", [True, False])
    @pytest.mark.parametrize("length", [1, 5, 16])
    def test_block_is_its_single_steps(self, fig1_model, rng, monkeypatch,
                                       length, odd):
        # one solver call per live sector for the whole block, and the
        # bits of the steps taken one block of one at a time; an empty
        # odd sector stays zero and unsolved in both
        matrices = []
        stevd = oscillator._STEVD

        def counting_stevd(diags, offs, vectors):
            matrices.append(len(diags))
            return stevd(diags, offs, vectors)

        monkeypatch.setattr(oscillator, "_STEVD", counting_stevd)
        hs = [fig1_model.h_drive_at(t, 1.0)
              for t in np.linspace(0.1, 0.7, length)]
        dts = list(np.linspace(0.004, 0.03, length))
        psi = _random_state(rng, fig1_model.dim, 9, odd=odd)
        out = fig1_model.evolve_block(hs, dts, psi)
        live = 2 if odd else 1
        assert matrices == [length] * live
        state = psi
        for j, (h, dt) in enumerate(zip(hs, dts)):
            state = fig1_model.evolve_block([h], [dt], state)[0]
            assert np.array_equal(out[j], state)
        assert matrices == [length] * live + [1] * (length * live)
        assert odd or not out[:, 1::2].any()

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
            fig1_model.evolve_block([band], [0.3], psi)


class TestCommutator:
    """The band commutator against the dense commutator of the matrices
    the bands stand for."""

    @pytest.mark.parametrize("scales", [(1.0, 1.0), (0.0, 0.0), (1.0, 0.0)])
    def test_matches_dense_commutator(self, fig1_model, scales):
        a = fig1_model.h_drive_at(0.3, scales[0])
        b = fig1_model.h_drive_at(0.55, scales[1])
        dense_a, dense_b = band_to_dense(a), band_to_dense(b)
        want = 1j * (dense_a @ dense_b - dense_b @ dense_a)
        scale = np.abs(want).max()
        assert scale > 1.0
        band = fig1_model.commutator(a, b)
        assert band.shape == (2, fig1_model.dim)
        assert np.abs(band_to_dense(band) - want).max() <= 1e-14 * scale
        # the +-4 diagonals, which no band holds, are rounding only
        for offset in (4, -4):
            assert np.abs(np.diagonal(want, offset)).max() <= 1e-14 * scale

    def test_huge_auxiliary_term_stays_finite(self, fig1_model):
        # the real part of a2 b2^* would overflow; i[a, b] does not
        a = fig1_model.h_drive_at(0.3, 1e300)
        b = fig1_model.h_drive_at(0.55, 1e300)
        with np.errstate(all="raise"):
            band = fig1_model.commutator(a, b)
        assert np.isfinite(band).all()


def _assert_band_products(model, times, vectors):
    out = model.apply_h1(times, vectors, np.empty_like(vectors))
    for b, t in enumerate(times):
        # H1 vanishes exactly where omegadot does
        want = band_to_dense(model.h1_at(t)) @ vectors[b]
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
        energy = cd_exact_energy(2.0, 0.0, 3)
        assert energy == pytest.approx(7.0, rel=1e-14)

    def test_reference_value(self):
        energy = cd_exact_energy(2.0, 4.0, 0)
        assert energy == pytest.approx(math.sqrt(0.75), rel=1e-12)
        assert energy == pytest.approx(0.8660, abs=5e-5)

    def test_supercritical_raises(self):
        with pytest.raises(SupercriticalDrive):
            cd_exact_energy(1.0, 2.0, 0)

    def test_fock_engine_matches_across_ramp(self):
        model = HarmonicOscillator(HOConfig(1.0, 3.0, 1.6, dim=120))
        cap = model.dim // 3
        for t in np.linspace(0.0, 1.6, 9):
            w, wd = model.omega(t), model.omega_dot(t)
            energies = model.spectrum_cd_at(t).energies
            exact = np.array([cd_exact_energy(w, wd, n)
                              for n in range(cap + 1)])
            assert np.abs(energies[: cap + 1] - exact).max() < 1e-7

    def test_wavefunction_normalized_and_chirped(self):
        psi = cd_exact_wavefunction(2.0, 4.0, 2)
        norm, _ = quad(lambda x: abs(psi(x)) ** 2, -8.0, 8.0, limit=200)
        assert norm == pytest.approx(1.0, rel=1e-8)
        value = psi(0.7)
        assert abs(value.imag) > 1e-3  # chirp phase present

    def test_wavefunction_matches_fock_engine(self):
        # reconstruct the position wavefunction from the Fock-space
        # eigenvector via reference-basis Hermite functions
        model = HarmonicOscillator(HOConfig(1.0, 3.0, 1.6, dim=120))
        t = 0.8
        w, wd = model.omega(t), model.omega_dot(t)
        level = 1
        psi = cd_exact_wavefunction(w, wd, level)
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
                work_variance(dist),
                path_lengths(model, ensemble)[1],
            )
        for a, b in zip(values[120], values[240]):
            assert abs(a - b) < 1e-7


def realization_error(model, columns, nu):
    """Largest deviation, relative to the band's largest entry at each
    table time, of the Hamiltonian the emitted waveform columns realize
    (``WaveformTable``: c_q q^2 + c_p p^2 + c_x (qp + pq)) from the
    model's H0 + H1 there."""
    eff2, re1, im1 = (columns[k] for k in ("Omega_eff2", "re_Omega_eff1",
                                           "im_Omega_eff1"))
    c_q = nu * (nu - eff2 + re1) / 2.0
    c_p = (nu - eff2 - re1) / (2.0 * nu)
    c_x = -im1 / 2.0
    worst = 0.0
    for t, q, p, x in zip(columns["t"], c_q, c_p, c_x):
        target = model.h_drive_at(t, 1.0)
        band = q * model._q2 + p * model._p2 + x * model._qp_sym
        worst = max(worst, np.abs(band - target).max()
                    / np.abs(target).max())
    return worst


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
        assert np.angle(table.omega_eff1[i]) == pytest.approx(expected,
                                                              rel=1e-12)
        assert table.omega_eff1[i] == pytest.approx(
            -table.potential[i] + 0.5j * wd / w, rel=1e-12)

    def test_round_trip(self):
        table = ion_waveforms(HOConfig(1.0, 3.0, 0.8), nu=3.0)
        back = np.sqrt(3.0 * (3.0 - 2.0 * table.potential))
        assert np.abs(back - table.omega).max() < 1e-12

    def test_unreachable_ramp_rejected(self):
        with pytest.raises(InvalidDetuning):
            ion_waveforms(HOConfig(1.0, 3.0, 0.8), nu=2.0)

    def test_failed_round_trip_is_a_package_error(self):
        # at nu >> omega the potential ~ nu/2 cannot encode omega to
        # precision: the round trip fails by rounding alone
        with pytest.warns(ValidityWarning), \
                pytest.raises(InvalidDetuning, match="round trip"):
            ion_waveforms(HOConfig(1.0, 3.0, 0.8), nu=1e8, grid_points=21)

    @pytest.mark.parametrize("nu", [3.0, 5.0])
    def test_realizes_h0_plus_h1(self, fig1_model, nu):
        # 4.1e-16 at nu = 3 and 1.0e-15 at nu = 5; a conjugated
        # Omega_eff1 (the CD term's sign flipped) misses by 0.90, and
        # Omega_eff2 times 1 + 1e-9 by 1.3e-9 and 3.4e-9
        columns = ion_waveforms(fig1_model.config, nu).columns()
        assert realization_error(fig1_model, columns, nu) <= 1e-12
        faults = [{"im_Omega_eff1": -columns["im_Omega_eff1"]},
                  {"Omega_eff2": columns["Omega_eff2"] * (1.0 + 1e-9)}]
        for fault in faults:
            assert realization_error(fig1_model, {**columns, **fault},
                                     nu) > 1e-12

    def test_marginal_validity_warns(self):
        # at nu = 10 the initial potential (nu^2 - omega_i^2) / 2 nu is
        # 4.95, and the ratio DELTA_SPIN / 2 sqrt((nu + DELTA_SPIN) Omega)
        # falls to 7.07, below VALIDITY_MIN
        with pytest.warns(ValidityWarning):
            ion_waveforms(HOConfig(1.0, 3.0, 0.8), nu=10.0)
