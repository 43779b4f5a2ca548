import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdwork import (DegeneracyError, HOConfig, HarmonicOscillator, NotAState,
                    ParametrizedModel, bures_fidelity, bures_length,
                    chain_lengths, density_factor, ensemble_rates,
                    fidelity_decay_check, ho_metric, model_ensemble,
                    path_lengths, qgt, quintic_ramp, speed_limit_report)
from cdwork.geometry import DEGENERACY_TOL
from cdwork.verify import _random_factor as random_factor
from cdwork.workstats import BLOCK_POINTS, fluctuation_kernel
from cdwork.ising import IsingConfig, dense_model, ground_metric
from conftest import band_to_dense, two_level_model


def random_unitary(rng, dim):
    return np.linalg.qr(random_factor(rng, dim, dim))[0]


def dense_dh0(model, t):
    """dH0/dlam_mu at t as dense matrices; the oscillator keeps its
    operator as a band."""
    parts = model.dh0_dlambda_at(t)
    if isinstance(model, HarmonicOscillator):
        return [band_to_dense(part) for part in parts]
    return parts


def full_matrix_speeds(model, ensemble, t):
    """Reference: the path-length integrand built from the full d x d
    coupling matrix V^dagger dH0 V, summing eta over every pair."""
    lamdot = model.protocol.derivative(t)
    spec = model.spectrum0_at(t)
    v = spec.states
    ms = [v.conj().T @ part @ v for part in dense_dh0(model, t)]
    e = spec.energies
    dim = e.shape[0]
    m_dot = np.zeros((dim, dim), dtype=complex)
    for mu, m in enumerate(ms):
        if lamdot[mu] != 0.0:
            m_dot += lamdot[mu] * m
    gaps = e[None, :] - e[:, None]
    np.fill_diagonal(gaps, 1.0)
    scale = max(abs(e[0]), abs(e[-1]), 1e-300)
    num = np.abs(m_dot) ** 2
    safe = np.abs(gaps) > 1e-12 * scale
    a = np.divide(num, gaps**2, out=np.zeros_like(num), where=safe)
    np.fill_diagonal(a, 0.0)
    p = np.zeros(dim)
    p[: ensemble.weights.shape[0]] = ensemble.weights
    g_speed = float(p @ a.sum(axis=1))
    pn, pk = p[:, None], p[None, :]
    den = pn + pk
    wmat = np.divide((pn - pk) ** 2, den, out=np.zeros_like(den),
                     where=den > 0)
    eta_speed = 0.5 * float((wmat * a).sum())
    return np.array([np.sqrt(max(eta_speed, 0.0)),
                     np.sqrt(max(g_speed, 0.0))])


def loop_qgt_levels(model, levels, t):
    """Reference: per-level, per-parameter loops over the full coupling
    matrices, reading column n of M_nu directly."""
    spec = model.spectrum0_at(t)
    v = spec.states
    ms = [v.conj().T @ part @ v for part in dense_dh0(model, t)]
    e = spec.energies
    scale = max(abs(e[0]), abs(e[-1]), 1e-300)
    n_par = len(ms)
    out = np.empty((len(levels), n_par, n_par), dtype=complex)
    for i, n in enumerate(levels):
        gaps = e - e[n]
        gaps[n] = 1.0
        if np.any((np.abs(gaps) < DEGENERACY_TOL * scale)
                  & (np.arange(len(e)) != n)):
            raise DegeneracyError(f"level {n} is near-degenerate")
        inv2 = 1.0 / gaps**2
        inv2[n] = 0.0
        for mu in range(n_par):
            for nu in range(mu, n_par):
                val = np.sum(ms[mu][n, :] * ms[nu][:, n] * inv2)
                out[i, mu, nu] = val
                out[i, nu, mu] = np.conj(val)
    return out


def two_parameter_model():
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    proto = quintic_ramp([0.4, 0.2], [1.0, 1.3], 1.0)
    return ParametrizedModel(
        proto, lambda lam: lam[0] * sz + lam[1] * sx + 0.5 * sy,
        dh0_of=lambda lam: [sz, sx])


def degenerate_pair_model(*pairs):
    """Levels 0 and 1 stay degenerate; the drive couples the level
    ``pairs``."""
    drive = np.zeros((3, 3), dtype=complex)
    for n, k in pairs:
        drive[n, k] = drive[k, n] = 1.0
    return ParametrizedModel(
        quintic_ramp([0.0], [1.0], 1.0),
        lambda lam: np.diag([-1.0, -1.0, 1.0 + lam[0]]).astype(complex),
        dh0_of=lambda lam: [drive])


def stacked_qgt(model, levels, t):
    return np.stack([qgt(model, n, t).q for n in levels])


class TestPopulatedRows:
    """The populated-row kernel against the full-matrix references."""

    @pytest.fixture(scope="class", params=["beta1", "ground", "beta3",
                                           "two-level"])
    def case(self, request, fig1_model):
        if request.param == "two-level":
            model = two_level_model(quintic_ramp([-1.5], [2.0], 1.0))
            return model, model_ensemble(model, 0.7)
        beta = {"beta1": 1.0, "ground": math.inf, "beta3": 3.0}[request.param]
        return fig1_model, model_ensemble(fig1_model, beta)

    def test_cases_cover_one_some_and_all_rows(self, case, request):
        model, ensemble = case
        rows = ensemble.n_levels
        kind = request.node.callspec.params["case"]
        if kind == "ground":
            assert rows == 1
        elif kind == "two-level":
            assert rows == model.dim
        else:
            assert 1 < rows < model.dim

    def test_integrand_matches_full_matrix(self, case):
        model, ensemble = case
        for t in np.linspace(0.05, 0.95, 9) * model.tau:
            ref = full_matrix_speeds(model, ensemble, t)
            assert ref.min() > 0.0
            np.testing.assert_allclose(
                np.sqrt(ensemble_rates(model, ensemble, t)), ref,
                rtol=1e-12, atol=0.0)

    def test_qgt_levels_matches_loops(self, case):
        model, ensemble = case
        levels = np.arange(ensemble.n_levels)
        for t in np.linspace(0.05, 0.95, 9) * model.tau:
            ref = loop_qgt_levels(model, levels, t)
            got = stacked_qgt(model, levels, t)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_qgt_levels_matches_loops_over_parameters(self):
        model = two_parameter_model()
        for t in np.linspace(0.05, 0.95, 9):
            ref = loop_qgt_levels(model, [1, 0], t)
            got = stacked_qgt(model, [1, 0], t)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_degenerate_populated_pair_raises(self):
        model = degenerate_pair_model((0, 1))
        with pytest.raises(DegeneracyError, match="level 0 is near"):
            ensemble_rates(model, model_ensemble(model, 1.0), 0.4)
        assert np.isfinite(qgt(model, 2, 0.4).g).all()
        with pytest.raises(DegeneracyError, match="level 1 is near"):
            qgt(model, 1, 0.4)

    def test_uncoupled_degenerate_pair_raises(self):
        # one rule for every geometric quantity: a populated level with a
        # degenerate partner is refused even where the drive does not
        # couple the pair, as qgt refuses it
        model = degenerate_pair_model((0, 2), (1, 2))
        with pytest.raises(DegeneracyError, match="level 0 is near"):
            ensemble_rates(model, model_ensemble(model, 1.0), 0.4)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestBlocks:
    """A block of times against the same times one by one, and the block
    rates against closed forms."""

    TIMES = np.linspace(0.0, 0.8, 16)

    def test_block_equals_its_points_bit_for_bit(self):
        # separate models, so that no point reads a spectrum the block
        # solved
        block_model, point_model = (
            HarmonicOscillator(HOConfig(1.0, 3.0, 0.8)) for _ in range(2))
        ensemble = model_ensemble(block_model, 1.0)
        block = block_model.spectra0_at(self.TIMES)
        points = [point_model.spectra0_at([t])[0] for t in self.TIMES]
        for a, b in zip(block, points):
            assert same_bits(a.energies, b.energies)
            assert same_bits(a.states, b.states)
        rates = ensemble_rates(block_model, ensemble, self.TIMES)
        singles = [ensemble_rates(point_model, ensemble, [t])
                   for t in self.TIMES]
        for which in (0, 1):
            assert same_bits(rates[which],
                             np.concatenate([r[which] for r in singles]))
        kernel = fluctuation_kernel(
            block_model, ensemble, self.TIMES,
            lambda times: ensemble_rates(block_model, ensemble, times)[1])
        assert len(self.TIMES) == BLOCK_POINTS
        for i, t in enumerate(self.TIMES):
            point = fluctuation_kernel(
                point_model, ensemble, [t],
                lambda times: ensemble_rates(point_model, ensemble, times)[1])
            for key, column in kernel.items():
                assert same_bits(column[i], point[key][0]), (t, key)

    @pytest.mark.parametrize("beta", [1.0, math.inf])
    def test_block_metric_rate_matches_closed_form(self, fig1_model, beta):
        ensemble = model_ensemble(fig1_model, beta)
        n = np.arange(ensemble.n_levels)
        _, rates = ensemble_rates(fig1_model, ensemble, self.TIMES)
        for t, rate in zip(self.TIMES, rates):
            omega, omega_dot = fig1_model.omega(t), fig1_model.omega_dot(t)
            exact = omega_dot**2 * float(ensemble.weights
                                         @ ho_metric(omega, n))
            assert abs(rate - exact) <= 1e-10 * max(exact, 1e-300), t

    def test_two_level_rates_match_closed_form(self):
        # H0 = lam sz + sx, one sector of both levels: g = 1 / (4 (1 +
        # lam^2)^2) for either level, and eta's weight (p0 - p1)^2 / (p0 +
        # p1) on the one pair
        model = two_level_model(quintic_ramp([-1.5], [2.0], 1.0))
        ensemble = model_ensemble(model, 0.7)
        p0, p1 = ensemble.weights
        times = np.linspace(0.05, 0.95, 7)
        eta, metric = ensemble_rates(model, ensemble, times)
        for t, eta_rate, metric_rate in zip(times, eta, metric):
            lam = model.protocol.value(t)[0]
            lamdot = model.protocol.derivative(t)[0]
            g = 1.0 / (4.0 * (1.0 + lam * lam) ** 2)
            assert metric_rate == pytest.approx(g * lamdot**2, rel=1e-13)
            assert eta_rate == pytest.approx(
                (p0 - p1) ** 2 * g * lamdot**2, rel=1e-12)

    def test_partner_in_the_other_sector_is_refused(self):
        # a flat ramp at the reference frequency has a diagonal H0 with
        # levels 2n + 1; giving level 2 the energy of level 1 makes a
        # degenerate pair across the parity sectors, which the coupling
        # rows of either sector never pair
        class CrossedLevels(HarmonicOscillator):
            def h0_at(self, t):
                band = super().h0_at(t)
                band[0, 2] = band[0, 1]
                return band

        model = CrossedLevels(HOConfig(2.0, 2.0, 1.0, dim=60))
        energies = model.spectrum0_at(0.5).energies
        assert energies[1] == energies[2]
        ensemble = model_ensemble(model, 0.5)
        assert ensemble.n_levels > 2
        with pytest.raises(DegeneracyError, match="level 1 is near"):
            ensemble_rates(model, ensemble, self.TIMES)
        with pytest.raises(DegeneracyError, match="level 2 is near"):
            qgt(model, 2, 0.5)
        assert np.isfinite(qgt(model, 0, 0.5).g).all()


class TestQgt:
    def test_oscillator_closed_form(self, fig1_model):
        tensor = qgt(fig1_model, 0, 0.0)
        assert tensor.g[0, 0] == pytest.approx(0.125, abs=1e-10)
        for t, n in ((0.3, 2), (0.4, 5), (0.6, 1)):
            tensor = qgt(fig1_model, n, t)
            assert tensor.g[0, 0] == pytest.approx(
                ho_metric(fig1_model.omega(t), n), abs=1e-8)

    def test_overlap_decay_oracle(self, fig1_model):
        # independent route: symmetric overlaps kill the odd term, so
        # 1 - |<n(w-h)|n(w+h)>| = g (2h)^2 / 2 + O(h^4); one Richardson
        # stage removes the quartic term.  A ramp from w - h to w + h holds
        # both Hamiltonians in one basis, at its two ends.
        from cdwork import spectrum
        omega = 2.0

        def estimate(h):
            model = HarmonicOscillator(HOConfig(omega - h, omega + h, 0.8))
            va, vb = (spectrum(band_to_dense(model.h0_at(t))).states[:, 0]
                      for t in (0.0, model.tau))
            return 2.0 * (1.0 - abs(np.vdot(va, vb))) / (2.0 * h) ** 2

        g1, g2 = estimate(2e-3), estimate(1e-3)
        oracle = (4.0 * g2 - g1) / 3.0
        assert oracle == pytest.approx(ho_metric(omega, 0), abs=1e-9)

    def test_ising_ground_state_value(self):
        model = dense_model(IsingConfig(4, delta=1.0, tau=1.0))
        tensor = qgt(model, 0, 0.0)  # lam(0) = 2
        assert tensor.g[0, 0] == pytest.approx(0.0285467, abs=1e-6)
        assert tensor.g[0, 0] == pytest.approx(ground_metric(2.0, 4),
                                               rel=1e-10)

    def test_two_parameter_family_psd_and_hermitian(self):
        model = two_parameter_model()
        for t in (0.0, 0.33, 0.8):
            tensor = qgt(model, 0, t)
            assert np.abs(tensor.q - tensor.q.conj().T).max() < 1e-14
            assert np.linalg.eigvalsh(tensor.g).min() >= -1e-12


class TestFidelityDecay:
    def test_static_protocol_zero_residual(self):
        model = HarmonicOscillator(HOConfig(2.0, 2.0, 1.0, dim=60))
        decay = fidelity_decay_check(model, 0, 0.5, 1e-3)
        assert decay.residual < 1e-14

    def test_oscillator_third_order(self, fig1_model):
        decay = fidelity_decay_check(fig1_model, 0, 0.36, 1e-3)
        assert decay.order == pytest.approx(3.0, abs=0.2)

    def test_ising_third_order(self):
        model = dense_model(IsingConfig(8, delta=0.5, tau=1.0))
        decay = fidelity_decay_check(model, 0, 0.3, 1e-3)
        assert decay.order == pytest.approx(3.0, abs=0.2)


class TestMetricLength:
    def test_constant_protocol_zero(self):
        model = HarmonicOscillator(HOConfig(2.0, 2.0, 1.0, dim=60))
        assert path_lengths(model, model_ensemble(model, 1.0))[1] == 0.0

    def test_closed_form_oracle(self, fig1_model, fig1_ensemble):
        n = np.arange(fig1_ensemble.n_levels)
        oracle = math.sqrt(
            float(fig1_ensemble.weights @ (n * n + n + 1.0)) / 8.0) \
            * math.log(3.0)
        _, ell = path_lengths(fig1_model, fig1_ensemble)
        assert ell == pytest.approx(oracle, rel=1e-7)
        assert ell == pytest.approx(0.6548, abs=2e-4)

    def test_reparametrization_invariance(self):
        values = []
        for kind, tau in (("quintic", 0.8), ("log", 1.3)):
            model = HarmonicOscillator(
                HOConfig(1.0, 3.0, tau, dim=120, ramp_kind=kind))
            values.append(path_lengths(model, model_ensemble(model, 1.0))[1])
        assert values[0] == pytest.approx(values[1], abs=1e-7)


class TestClosedFormLengths:
    # couplings join n and n+2 only, and g_n = (n^2+n+1)/(8 omega^2), so
    # both lengths are ln(omega_f/omega_i) times a population sum,
    # whatever the ramp shape and duration
    @staticmethod
    def assert_closed_form(omega_f, tau, beta, kind, **kwargs):
        model = HarmonicOscillator(
            HOConfig(1.0, omega_f, tau, dim=100, ramp_kind=kind))
        ensemble = model_ensemble(model, beta)
        eta, ell = path_lengths(model, ensemble, **kwargs)
        n_levels = ensemble.n_levels
        n = np.arange(n_levels, dtype=float)
        p = np.zeros(n_levels + 2)
        p[:n_levels] = ensemble.weights
        pn, pk = p[:n_levels], p[2:]
        ell_exact = math.log(omega_f) * math.sqrt(
            float(ensemble.weights @ (n * n + n + 1.0)) / 8.0)
        eta_exact = math.log(omega_f) * math.sqrt(float(np.sum(
            (pn - pk) ** 2 / (pn + pk) * (n + 1.0) * (n + 2.0) / 16.0)))
        assert ell == pytest.approx(ell_exact, rel=1e-12)
        assert eta == pytest.approx(eta_exact, rel=1e-12)

    @settings(max_examples=8)
    @given(omega_f=st.floats(1.3, 3.0),
           beta=st.one_of(st.floats(1.0, 4.0), st.just(math.inf)),
           kind=st.sampled_from(["quintic", "log"]))
    def test_ell_and_eta_match_closed_form(self, omega_f, beta, kind):
        self.assert_closed_form(omega_f, 0.8, beta, kind)

    def test_criterion_8_draw_67(self):
        # a draw on which bisection with a Richardson test once stopped
        # 4.4e-8 off, 44 times its rel_tol
        self.assert_closed_form(2.415032692268552, 0.8740019248457154,
                                math.inf, "quintic", rel_tol=1e-9)


class TestBures:
    def test_identical_states(self, rng):
        factor = random_factor(rng, 6, 3)
        assert bures_fidelity(factor, factor) == pytest.approx(1.0, abs=1e-12)
        assert bures_length(factor, factor) < 1e-5

    def test_orthogonal_pure_states(self):
        # a pure state is its own factor
        a, b = np.eye(3, dtype=complex)[:, :1], np.eye(3, dtype=complex)[:, 1:2]
        assert bures_fidelity(a, b) == pytest.approx(0.0, abs=1e-14)
        assert bures_length(a, b) == pytest.approx(math.pi / 2, abs=1e-7)

    @given(seed=st.integers(0, 10_000), rank=st.integers(1, 7))
    @settings(max_examples=15)
    def test_properties(self, seed, rank):
        gen = np.random.default_rng(seed)
        a, b = random_factor(gen, 7, rank), random_factor(gen, 7, 7)
        f = bures_fidelity(a, b)
        assert 0.0 <= f <= 1.0
        assert f == pytest.approx(bures_fidelity(b, a), abs=1e-10)
        q = random_unitary(gen, 7)
        assert bures_fidelity(q @ a, q @ b) == pytest.approx(f, abs=1e-10)
        # a factor is fixed up to a unitary on its columns, and zero
        # columns add nothing to its density
        w = random_unitary(gen, rank)
        assert bures_fidelity(a @ w, b) == pytest.approx(f, abs=1e-10)
        padded = np.hstack([a, np.zeros((7, 2))])
        assert bures_fidelity(padded, b) == pytest.approx(f, abs=1e-10)

    def test_pure_state_reduction(self, rng):
        psi, phi = random_factor(rng, 5, 1), random_factor(rng, 5, 1)
        overlap = abs(np.vdot(psi, phi))
        assert bures_fidelity(psi, phi) == pytest.approx(overlap ** 2,
                                                         abs=1e-12)
        assert bures_length(psi, phi) == pytest.approx(math.acos(overlap),
                                                       abs=1e-12)

    @pytest.mark.parametrize("dim, rank", [(7, 7), (100, 100), (100, 3)])
    def test_real_input_matches_complex(self, rng, dim, rank):
        # real factors are multiplied in real arithmetic
        a, b = (x / np.linalg.norm(x)
                for x in rng.standard_normal((2, dim, rank)))
        f = bures_fidelity(a, b)
        assert abs(f - bures_fidelity(a.astype(complex),
                                      b.astype(complex))) < 1e-14

    def test_rejects_non_states(self):
        state = np.eye(3)[:, :1]
        with pytest.raises(NotAState, match="trace"):
            bures_fidelity(np.sqrt(2.0) * state, state)   # trace 2
        with pytest.raises(NotAState, match="trace"):
            bures_fidelity(state, np.eye(3) / 3.0)         # trace 1/3
        with pytest.raises(NotAState, match="2-D"):
            bures_fidelity(state[:, 0], state)             # a 1-D factor
        with pytest.raises(NotAState, match="row counts"):
            bures_fidelity(state, np.eye(4)[:, :1])

    def test_figure_endpoints(self, fig1_model, fig1_ensemble):
        value = bures_length(density_factor(fig1_model, fig1_ensemble, 0.0),
                             density_factor(fig1_model, fig1_ensemble, 0.8))
        assert value == pytest.approx(0.476, abs=0.005)

    def test_figure_endpoints_match_low_rank_form(self, fig1_model):
        # rho = V0 P V0^H and sigma = V1 P V1^H have the ensemble's rank K,
        # so F = (tr |sqrt(P) V0^H V1 sqrt(P)|)^2 from the K retained
        # eigenvectors at each end
        ensemble = model_ensemble(fig1_model, 0.5)
        k, root = ensemble.n_levels, np.sqrt(ensemble.weights)
        v0, v1 = (fig1_model.spectrum0_at(t).states[:, :k] for t in (0.0, 0.8))
        reference = np.linalg.svd(root[:, None] * (v0.conj().T @ v1) * root,
                                  compute_uv=False).sum() ** 2
        fidelity = bures_fidelity(density_factor(fig1_model, ensemble, 0.0),
                                  density_factor(fig1_model, ensemble, 0.8))
        assert abs(fidelity - reference) <= 1e-13

    @pytest.mark.parametrize("beta", [4.0, 1.0])
    def test_factor_form_against_mpmath(self, fig1_model, beta):
        # the figure endpoints' Bures length from their K retained columns
        # (K = 6 at beta = 4, 24 at beta = 1) against a 32-digit SVD of the
        # same columns: 3e-16 and 7e-16 off it; the bound allows 2e-15 (36
        # ulps of the lengths 0.38 and 0.47, about 3x the larger error seen)
        ensemble = model_ensemble(fig1_model, beta)
        a, b = (density_factor(fig1_model, ensemble, t) for t in (0.0, 0.8))
        with mpmath.workdps(32):
            # the oscillator's H0 eigenvectors are real
            product = mpmath.matrix(a.T.tolist()) * mpmath.matrix(b.tolist())
            singulars = mpmath.svd_r(product, compute_uv=False)
            reference = mpmath.acos(mpmath.fsum(singulars))
        error = abs(float(bures_length(a, b) - reference))
        assert error <= 2e-15


class TestEtaLength:
    def test_constant_path_zero(self):
        model = HarmonicOscillator(HOConfig(2.0, 2.0, 1.0, dim=60))
        assert path_lengths(model, model_ensemble(model, 1.0))[0] == 0.0

    def test_bracketed_by_bures_and_metric(self, fig1_model, fig1_ensemble):
        bures, eta, ell = chain_lengths(fig1_model, fig1_ensemble)
        assert bures == bures_length(
            density_factor(fig1_model, fig1_ensemble, 0.0),
            density_factor(fig1_model, fig1_ensemble, 0.8))
        assert (eta, ell) == path_lengths(fig1_model, fig1_ensemble)
        assert bures <= eta + 1e-8
        assert eta <= ell + 1e-8

    def test_pure_state_reduces_to_metric_length(self, fig1_model,
                                                 fig1_ground):
        eta, ell = path_lengths(fig1_model, fig1_ground)
        assert eta == pytest.approx(ell, rel=1e-9)


class TestSpeedLimit:
    def test_figure_point_report(self, fig1_model, fig1_ensemble):
        report = speed_limit_report(fig1_model, fig1_ensemble,
                                    grid_points=201)
        assert report.passed
        assert report.ell == pytest.approx(0.6548, abs=2e-4)
        assert report.bures_len == pytest.approx(0.476, abs=0.005)
        assert report.tau >= report.bound_from_excess
        assert report.bound_from_excess >= report.bound_from_energy

    def test_report_solves_each_point_once(self, solve_counter):
        # the endpoint densities reuse the grid's spectra
        solves, nodes = solve_counter
        model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=120))
        speed_limit_report(model, model_ensemble(model, 1.0),
                           grid_points=201)
        assert len(set(solves)) == len(solves) <= 201 + len(nodes)

    def test_constant_protocol_passes_with_zero_bounds(self):
        # ell = 0 exactly, while the endpoint Bures length is arccos
        # rounding near F = 1 (~1e-8), above the chain tolerance
        model = HarmonicOscillator(HOConfig(2.0, 2.0, 1.0, dim=60))
        report = speed_limit_report(model, model_ensemble(model, 1.0),
                                    grid_points=51)
        assert report.ell == 0.0
        assert report.passed
        assert report.bound_from_excess == 0.0
        assert report.bound_from_energy == 0.0
        assert report.equality_residual == 0.0

    def test_doubling_tau_halves_average_excess(self):
        reports = []
        for tau in (0.8, 1.6):
            model = HarmonicOscillator(HOConfig(1.0, 3.0, tau, dim=120))
            reports.append(speed_limit_report(model, model_ensemble(model, 1.0),
                                              grid_points=201))
        ratio = reports[0].avg_excess_dev / reports[1].avg_excess_dev
        assert ratio == pytest.approx(2.0, rel=1e-6)
        assert reports[0].ell == pytest.approx(reports[1].ell, rel=1e-8)

    def test_zero_temperature_geodesic_equality(self):
        # small-amplitude log ramp: the ground-state path is a geodesic
        # to quadratic accuracy in its arc length
        model = HarmonicOscillator(
            HOConfig(1.0, 1.05, 1.0, dim=60, ramp_kind="log"))
        ensemble = model_ensemble(model, math.inf)
        report = speed_limit_report(model, ensemble, grid_points=201)
        ratio = report.tau * report.avg_excess_dev / report.bures_len
        assert ratio == pytest.approx(1.0, abs=1e-4)
