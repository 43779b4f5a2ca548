import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdwork import (DegeneracyError, HOConfig, HarmonicOscillator,
                    ParametrizedModel, TruncationError, bound_chain, chain_lengths,
                    ensemble_rates, fluctuation_series, model_ensemble,
                    quintic_ramp, thermal_ensemble, transition_matrix,
                    work_distribution, work_moments)
from cdwork.workstats import (BLOCK_POINTS, DEFICIT_TOL, basis_leakage,
                              fluctuation_assembly, fluctuation_kernel)
from conftest import two_level_model, work_mean, work_variance

E_CONST = math.e


def kernel_sweep(model, ensemble, grid, durations, metric_rate=None):
    """Per duration of the model's ramp shape, the columns of one kernel
    pass over the model's own time ``grid`` assembled at that speed, as
    ``figures.ho_figure1_data`` takes them."""
    e_init = model.spectrum0_at(0.0).energies[:ensemble.n_levels]
    kernel = fluctuation_kernel(model, ensemble, grid, metric_rate)
    return fluctuation_assembly(ensemble, e_init, kernel,
                                [model.tau / tau for tau in durations])


class FixedH1Model(ParametrizedModel):
    """A dense model driven by ``h1(t)`` in place of the counterdiabatic
    term that ``ParametrizedModel`` assembles from its spectrum."""

    def __init__(self, model, h1):
        super().__init__(model.protocol, model._h0_of, model._dh0_of)
        self._h1 = h1

    def h1_at(self, t):
        return self._h1(t)


def geometric_moments(beta_omega):
    """Occupation moments of the thermal oscillator ladder: the level
    populations form a geometric distribution with ratio q."""
    q = math.exp(-beta_omega)
    mean = q / (1.0 - q)
    var = q / (1.0 - q) ** 2
    return mean, var


class TestThermalEnsemble:
    def test_weights_sum_and_ordering(self, fig1_model, fig1_ensemble):
        assert fig1_ensemble.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(fig1_ensemble.weights) <= 0)
        assert fig1_ensemble.tail_bound < 1e-10
        # beta * omega_i = 1: ratio between neighbours is e^-1
        ratios = fig1_ensemble.weights[1:] / fig1_ensemble.weights[:-1]
        assert np.abs(ratios - math.exp(-1.0)).max() < 1e-10

    def test_ground_state_limit(self, fig1_model):
        ens = model_ensemble(fig1_model, math.inf)
        assert ens.n_levels == 1
        assert ens.weights[0] == 1.0

    def test_uncertifiable_tail_raises(self):
        energies = np.arange(30) * 0.01  # beta * spacing tiny
        with pytest.raises(TruncationError):
            thermal_ensemble(energies, 1.0)

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            thermal_ensemble(np.arange(5.0), -1.0)


class TestTransitionMatrix:
    def test_identity_at_endpoints(self, fig1_model, fig1_ensemble):
        for t in (0.0, fig1_model.tau):
            tm = transition_matrix(fig1_model, fig1_ensemble, t)
            eye = np.eye(fig1_model.dim)[: fig1_ensemble.n_levels]
            assert np.abs(tm - eye).max() < 1e-8

    def test_rows_sum_to_one(self, fig1_model, fig1_ensemble):
        tm = transition_matrix(fig1_model, fig1_ensemble, 0.37)
        sums = tm.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-10
        assert tm.min() >= 0.0

    def test_parity_selection_rule(self, fig1_model, fig1_ensemble):
        # the drive couples levels two apart: odd-distance transitions
        # are forbidden
        tm = transition_matrix(fig1_model, fig1_ensemble, 0.4)
        n = np.arange(tm.shape[0])[:, None]
        m = np.arange(tm.shape[1])[None, :]
        assert tm[(n + m) % 2 == 1].max() == 0.0

    def test_small_basis_raises(self):
        model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=40))
        ensemble = model_ensemble(model, 1.0)
        with pytest.raises(TruncationError):
            transition_matrix(model, ensemble, 0.8)

    @staticmethod
    def dense_route(model, ensemble, t):
        """The matrix from the dense driven eigenvector matrix against the
        retained H0 columns, in one product."""
        retained = model.spectrum0_at(t).columns(ensemble.n_levels)
        states = model.spectrum_cd_at(t).states
        return (np.abs(states.conj().T @ retained) ** 2).T

    def test_sectors_give_the_dense_bits_on_the_verify_grid(
            self, fig1_model, fig1_ensemble):
        for t in np.linspace(0.0, 0.8, 81):
            assert np.array_equal(
                transition_matrix(fig1_model, fig1_ensemble, t),
                self.dense_route(fig1_model, fig1_ensemble, t))

    @pytest.mark.parametrize("dim, beta", [(120, math.inf), (200, 1.0),
                                           (200, math.inf)])
    def test_sectors_stay_within_ulps_of_the_dense_route(self, dim, beta):
        # one retained level (a matrix-vector product) and the larger
        # basis sum the sector products in another order than the dense
        # product with its interleaved zeros; every entry is at most 1,
        # the change seen is at most 2 ulps of 1 (4.4e-16), and the bound
        # allows 8
        model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=dim))
        ensemble = model_ensemble(model, beta)
        worst = max(float(np.abs(transition_matrix(model, ensemble, t)
                                 - self.dense_route(model, ensemble, t)).max())
                    for t in np.linspace(0.0, 0.8, 81))
        assert worst <= 8 * np.finfo(float).eps

    def test_dense_model_keeps_the_dense_product(self, rng):
        a, b = (0.5 * (x + x.conj().T) for x in
                rng.standard_normal((2, 12, 12))
                + 1j * rng.standard_normal((2, 12, 12)))
        model = ParametrizedModel(quintic_ramp([0.0], [1.0], 1.0),
                                  lambda lam: a + lam[0] * b,
                                  lambda lam: [b])
        ensemble = model_ensemble(model, 0.5)
        for t in np.linspace(0.0, 1.0, 5):
            assert np.array_equal(transition_matrix(model, ensemble, t),
                                  self.dense_route(model, ensemble, t))


class TestWorkDistribution:
    def test_adiabatic_ladder_at_final_time(self, fig1_model, fig1_ensemble):
        dist = work_distribution(fig1_model, fig1_ensemble, 0.8, "adiabatic")
        n = np.arange(fig1_ensemble.n_levels)
        assert np.abs(dist.support - 2.0 * (n + 0.5)).max() < 1e-8
        assert np.abs(dist.probabilities - fig1_ensemble.weights).max() < 1e-12

    def test_cd_equals_adiabatic_at_endpoints(self, fig1_model, fig1_ensemble):
        for t in (0.0, 0.8):
            cd = work_distribution(fig1_model, fig1_ensemble, t, "cd")
            ad = work_distribution(fig1_model, fig1_ensemble, t, "adiabatic")
            assert cd.support.shape == ad.support.shape
            assert np.abs(cd.support - ad.support).max() < 1e-8
            assert np.abs(cd.probabilities - ad.probabilities).max() < 1e-8

    def test_ground_state_mean_at_midpoint(self, fig1_model, fig1_ground):
        dist = work_distribution(fig1_model, fig1_ground, 0.4, "cd")
        # omega(tau/2) = 2: mean work is (omega - omega_i)/2 for the
        # ground level
        assert work_mean(dist) == pytest.approx(0.5, abs=1e-8)

    def test_unknown_kind_rejected(self, fig1_model, fig1_ensemble):
        with pytest.raises(ValueError):
            work_distribution(fig1_model, fig1_ensemble, 0.1, "diabatic")

    def test_probabilities_sum_to_one(self, fig1_model, fig1_ensemble):
        dist = work_distribution(fig1_model, fig1_ensemble, 0.53, "cd")
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.isfinite(dist.support))


class TestMoments:
    def test_mean_matches_thermal_ladder(self, fig1_model, fig1_ensemble):
        dist = work_distribution(fig1_model, fig1_ensemble, 0.8, "adiabatic")
        nbar, _ = geometric_moments(1.0)
        assert work_mean(dist) == pytest.approx(2.0 * (nbar + 0.5), abs=1e-8)
        # frozen reference: 2 (1/(e-1) + 1/2) = 2.16395...
        assert work_mean(dist) == pytest.approx(2.0 / (E_CONST - 1.0) + 1.0,
                                                abs=1e-8)

    def test_variance_matches_thermal_ladder(self, fig1_model, fig1_ensemble):
        dist = work_distribution(fig1_model, fig1_ensemble, 0.8, "adiabatic")
        _, nvar = geometric_moments(1.0)
        # the 1e-10 thermal tail times n_max^2 bounds the deviation from
        # the untruncated ladder value
        assert work_variance(dist) == pytest.approx(4.0 * nvar, abs=2e-7)
        assert work_variance(dist) == pytest.approx(
            4.0 * E_CONST / (E_CONST - 1.0) ** 2, abs=2e-7)

    def test_cd_mean_equals_adiabatic_along_grid(self, fig1_model,
                                                 fig1_ensemble):
        for t in np.linspace(0.0, 0.8, 17):
            cd = work_mean(work_distribution(fig1_model, fig1_ensemble, t, "cd"))
            ad = work_mean(work_distribution(fig1_model, fig1_ensemble, t,
                                             "adiabatic"))
            assert abs(cd - ad) < 1e-8

    def test_zero_ramp_work_vanishes(self):
        model = HarmonicOscillator(HOConfig(2.0, 2.0, 1.0, dim=80))
        ensemble = model_ensemble(model, 1.0)
        dist = work_distribution(model, ensemble, 0.5, "cd")
        assert abs(work_mean(dist)) < 1e-12
        assert work_variance(dist) < 1e-12

    def test_deterministic_work_at_zero_temperature(self, fig1_model,
                                                    fig1_ground):
        dist = work_distribution(fig1_model, fig1_ground, 0.8, "adiabatic")
        assert work_variance(dist) == 0.0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_mean_identity_random_configs(self, seed):
        gen = np.random.default_rng(seed)
        omega_f = float(gen.uniform(1.3, 2.2))
        tau = float(gen.uniform(0.6, 1.6))
        beta = float(gen.uniform(1.5, 4.0)) if gen.random() < 0.8 else math.inf
        model = HarmonicOscillator(HOConfig(1.0, omega_f, tau, dim=60))
        ensemble = model_ensemble(model, beta)
        scale = float(np.abs(model.spectrum0_at(0.0).energies).max())
        for t in np.linspace(0.0, tau, 5):
            cd = work_mean(work_distribution(model, ensemble, t, "cd"))
            ad = work_mean(work_distribution(model, ensemble, t, "adiabatic"))
            assert abs(cd - ad) <= 1e-8 * scale


class TestWorkMoments:
    """work_moments against the moments of the merged distributions."""

    @staticmethod
    def assert_matches_distributions(model, ensemble, t):
        moments = work_moments(model, ensemble, t)
        cd = work_distribution(model, ensemble, t, "cd")
        ad = work_distribution(model, ensemble, t, "adiabatic")
        assert abs(moments.mean_cd - work_mean(cd)) <= 1e-12
        assert abs(moments.var_cd - work_variance(cd)) <= 1e-12
        assert abs(moments.mean_ad - work_mean(ad)) <= 1e-12
        assert abs(moments.var_ad - work_variance(ad)) <= 1e-12
        assert moments.excess == moments.var_cd - moments.var_ad

    def test_oscillator_interior_and_ends(self, fig1_model, fig1_ensemble):
        for t in (0.0, 0.13, 0.4, 0.71, 0.8):
            self.assert_matches_distributions(fig1_model, fig1_ensemble, t)

    def test_oscillator_ground_state(self, fig1_model, fig1_ground):
        for t in (0.0, 0.4, 0.8):
            self.assert_matches_distributions(fig1_model, fig1_ground, t)

    def test_two_level_interior_and_ends(self):
        model = two_level_model(quintic_ramp([-1.5], [2.0], 1.0))
        ensemble = model_ensemble(model, 0.7)
        for t in (0.0, 0.25, 0.5, 0.9, 1.0):
            self.assert_matches_distributions(model, ensemble, t)

    def test_basis_leakage_raises(self):
        model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=40))
        ensemble = model_ensemble(model, 1.0)
        with pytest.raises(TruncationError):
            work_moments(model, ensemble, 0.8)


class TestOperatorRoute:
    """fluctuation_series takes the driven moments from <n(t)|H_cd^k|n(t)>;
    work_moments, from the transition matrix, is the oracle."""

    def test_matches_transition_matrix_route(self, fig1_model, fig1_ensemble):
        model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=120))

        def no_driving_spectrum(t):
            raise AssertionError("the operator route needs no H_cd spectrum")

        model.spectrum_cd_at = no_driving_spectrum
        grid = np.linspace(0.0, 0.8, 81)
        series = fluctuation_series(model, model_ensemble(model, 1.0), grid)
        oracle = [work_moments(fig1_model, fig1_ensemble, t) for t in grid]
        for key, attr in (("mean_cd", "mean_cd"), ("var_cd", "var_cd"),
                          ("mean_ad", "mean_ad"), ("var_ad", "var_ad"),
                          ("excess_direct", "excess")):
            expected = np.array([getattr(m, attr) for m in oracle])
            # the golden gate's rule: 1e-10 of the series' largest magnitude
            assert np.abs(series[key] - expected).max() \
                <= 1e-10 * np.abs(expected).max(), key

    def test_basis_leakage_raises(self):
        model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=40))
        ensemble = model_ensemble(model, 1.0)
        with pytest.raises(TruncationError):
            fluctuation_series(model, ensemble, [0.0, 0.8])

    def test_leakage_error_names_first_bad_time(self):
        # at dim 60 the basis holds the middle of the ramp only
        model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=60))
        ensemble = model_ensemble(model, 1.0)
        grid = np.linspace(0.32, 0.8, 97)
        leaks = np.array([basis_leakage(model, ensemble, t) for t in grid])
        bad = np.flatnonzero(leaks > DEFICIT_TOL)
        # the first bad time lies past the first block
        assert 16 < bad[0] and np.all(leaks[:bad[0]] <= DEFICIT_TOL)
        first_bad = grid[bad[0]]
        with pytest.raises(TruncationError, match=f"t={first_bad:g};"):
            fluctuation_series(model, ensemble, grid)

    def test_independent_of_blocking(self, fig1_model, fig1_ensemble):
        grid = np.linspace(0.0, 0.8, 401)
        series = fluctuation_series(fig1_model, fig1_ensemble, grid)
        for i in range(len(grid)):
            one = fluctuation_series(fig1_model, fig1_ensemble, [grid[i]])
            for key, column in series.items():
                assert column[i] == one[key][0], (key, i)
        empty = fluctuation_series(fig1_model, fig1_ensemble, [])
        assert all(column.shape == (0,) for column in empty.values())

    @pytest.mark.parametrize("beta", [1.0, math.inf])
    def test_auxiliary_control_does_no_mean_work(self, fig1_model, beta):
        # H1 has a zero diagonal, and on the oscillator's real eigenvectors
        # Re<n|H1|n> is exactly zero: the driven mean work is the
        # adiabatic one bit for bit, at every duration of the sweep
        ensemble = model_ensemble(fig1_model, beta)
        grid = np.linspace(0.0, 0.8, 401)
        series = fluctuation_series(fig1_model, ensemble, grid)
        assert np.array_equal(series["mean_cd"], series["mean_ad"])
        durations = [round(0.2 * k, 10) for k in range(1, 16)]
        for columns in kernel_sweep(fig1_model, ensemble, grid, durations):
            assert np.array_equal(columns["mean_cd"], columns["mean_ad"])

    @pytest.mark.parametrize("h1", [None, lambda t: np.array(
        [[0.3, 0.2j], [-0.2j, -0.1]])])
    def test_dense_default_on_two_level_model(self, h1):
        # the second term is no counterdiabatic one: it has a diagonal in
        # the instantaneous basis, so Re<n|r_n> != 0; the driven moments'
        # completeness algebra still matches the transition matrix, while
        # the excess identity needs the zero diagonal of a true H1
        model = two_level_model(quintic_ramp([0.3], [1.7], 1.0))
        if h1 is not None:
            model = FixedH1Model(model, h1)
        ensemble = model_ensemble(model, 2.0)
        grid = np.linspace(0.0, 1.0, 23)
        series = fluctuation_series(model, ensemble, grid)
        for i, t in enumerate(grid):
            oracle = work_moments(model, ensemble, t)
            checks = [("mean_cd", oracle.mean_cd), ("var_cd", oracle.var_cd)]
            if h1 is None:
                checks.append(("excess_direct", oracle.excess))
            for key, value in checks:
                assert series[key][i] == pytest.approx(value, abs=1e-13)

    def test_pure_state_energy_variance_is_the_excess(self, fig1_model,
                                                     fig1_ground):
        # Var(H0) = 0 in a pure state, so Var(H_cd) equals the excess; as
        # norms the two agree to rounding, and the bound chain's ordering
        # check (bound from the excess >= bound from the energy) holds
        grid = np.linspace(0.0, 0.8, 401)
        series = fluctuation_series(fig1_model, fig1_ground, grid)
        excess, energy = series["excess_direct"], series["energy_variance_cd"]
        assert energy.min() >= 0.0
        assert np.abs(excess - energy).max() <= 1e-15 * excess.max()
        assert bound_chain(series,
                           *chain_lengths(fig1_model, fig1_ground)).passed

    def test_excess_norm_near_ramp_ends(self, fig1_model, fig1_ensemble):
        # a norm, not a cancelling difference of second moments: it stays
        # non-negative and resolves excesses of 1e-8 and below
        grid = np.linspace(0.0, 0.8, 401)
        series = fluctuation_series(fig1_model, fig1_ensemble, grid)
        for i in np.r_[0:12, 389:401]:
            direct = series["excess_direct"][i]
            geometric = ensemble_rates(fig1_model, fig1_ensemble, grid[i])[1]
            assert direct >= 0.0
            assert abs(direct - geometric) <= 1e-16


class TestDurationSweep:
    """One kernel pass over the model's grid, assembled per speed, gives
    every duration of one ramp shape; each duration's own model is the
    oracle."""

    @pytest.mark.parametrize("kind", ["quintic", "log"])
    @pytest.mark.parametrize("beta", [1.0, math.inf])
    def test_matches_own_duration_models(self, kind, beta):
        model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, ramp_kind=kind))
        ensemble = model_ensemble(model, beta)
        durations = [0.4, 0.8, 1.2, 2.0, 3.0]
        points = 81
        sweep = kernel_sweep(model, ensemble, np.linspace(0.0, 0.8, points),
                             durations)
        assert len(sweep) == len(durations)
        for tau, columns in zip(durations, sweep):
            own = HarmonicOscillator(HOConfig(1.0, 3.0, tau, ramp_kind=kind))
            oracle = fluctuation_series(own, model_ensemble(own, beta),
                                        np.linspace(0.0, tau, points))
            assert set(columns) == set(oracle) - {"t"}
            for key, column in columns.items():
                if tau == 0.8:
                    assert np.array_equal(column, oracle[key]), key
                scale = np.abs(oracle[key]).max()
                assert np.abs(column - oracle[key]).max() <= 1e-12 * scale, \
                    (tau, key)

    @pytest.mark.parametrize("h1", [None, np.array([[0.3, 0.2j],
                                                    [-0.2j, -0.1]])])
    def test_generic_model_follows_the_speed(self, h1):
        # the spectrum-built H1 of the dense default is linear in lamdot;
        # a term with a diagonal (Re<n|H1|n> != 0) is scaled by hand
        def model_at(tau):
            model = two_level_model(quintic_ramp([0.3], [1.7], tau))
            if h1 is None:
                return model
            return FixedH1Model(model, lambda t: h1 / tau)

        model = model_at(1.0)
        ensemble = model_ensemble(model, 2.0)
        sweep = kernel_sweep(model, ensemble, np.linspace(0.0, 1.0, 23),
                             [0.5, 2.0])
        for tau, columns in zip((0.5, 2.0), sweep):
            own = model_at(tau)
            oracle = fluctuation_series(own, model_ensemble(own, 2.0),
                                        np.linspace(0.0, tau, 23))
            for key, column in columns.items():
                assert column == pytest.approx(oracle[key], abs=1e-13), key


class TestGeometricColumn:
    """The kernel's optional metric-rate column: ensemble_rates' metric
    rate, taken per block inside the block pass."""

    KEYS = {"mean_cd", "mean_ad", "var_cd", "var_ad", "excess_direct",
            "excess_dev", "energy_variance_cd", "energy_dev"}

    @pytest.mark.parametrize("points", [0, 1, 16, 17, 41])
    def test_column_is_the_metric_rate(self, fig1_model, fig1_ensemble,
                                       points):
        # 16 and 17 points end on and just past a block edge
        grid = np.linspace(0.0, 0.8, points)
        rates = np.array([ensemble_rates(fig1_model, fig1_ensemble, t)[1]
                          for t in grid])
        plain = kernel_sweep(fig1_model, fig1_ensemble, grid, [0.4, 0.8])
        sweep = kernel_sweep(
            fig1_model, fig1_ensemble, grid, [0.4, 0.8],
            lambda t: ensemble_rates(fig1_model, fig1_ensemble, t)[1])
        short, own = sweep
        assert own["excess_geometric"].shape == (points,)
        assert np.array_equal(own["excess_geometric"], rates)
        # half the duration, twice the speed: v^2 = 4 exactly
        assert np.array_equal(short["excess_geometric"], 4.0 * rates)
        for with_rate, without in zip(sweep, plain):
            assert set(without) == self.KEYS
            assert set(with_rate) == self.KEYS | {"excess_geometric"}
            for key in self.KEYS:
                assert np.array_equal(with_rate[key], without[key]), key

    def test_kernel_cut_on_block_edges_gives_the_whole_pass(
            self, fig1_model, fig1_ensemble):
        # ho-figure1 runs the kernel over the blocks of a grid in two lanes
        grid = np.linspace(0.0, 0.8, 41)

        def kernel(times):
            return fluctuation_kernel(
                fig1_model, fig1_ensemble, times,
                lambda t: ensemble_rates(fig1_model, fig1_ensemble, t)[1])

        whole = kernel(grid)
        edges = [0, BLOCK_POINTS, 2 * BLOCK_POINTS, len(grid)]
        parts = [kernel(grid[a:b]) for a, b in zip(edges, edges[1:])]
        assert set(whole) == {"e_now", "dots", "norms", "rates"}
        for key, column in whole.items():
            assert np.array_equal(
                np.concatenate([part[key] for part in parts]), column), key

    def test_leakage_is_checked_before_the_rate(self):
        # a too-small basis fails on its leakage, never in the rate
        model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=40))
        ensemble = model_ensemble(model, 1.0)

        def rate(t):
            raise DegeneracyError(f"rate taken at t={t:g}")

        with pytest.raises(TruncationError):
            fluctuation_kernel(model, ensemble, [0.0, 0.8], rate)


class TestExcessVariance:
    def test_vanishes_at_endpoints(self, fig1_model, fig1_ensemble):
        for t in (0.0, 0.8):
            assert abs(work_moments(fig1_model, fig1_ensemble, t).excess) \
                < 1e-10
            assert ensemble_rates(fig1_model, fig1_ensemble, t)[1] \
                == 0.0

    def test_midpoint_value_from_ladder_oracle(self, fig1_model,
                                               fig1_ensemble):
        # independent oracle: omegadot^2 sum_n p_n (n^2+n+1) / (8 omega^2)
        # with the geometric level populations
        omega, omega_dot = 2.0, 4.6875
        n = np.arange(fig1_ensemble.n_levels)
        oracle = float(
            fig1_ensemble.weights @ (n * n + n + 1.0)
            * omega_dot**2 / (8.0 * omega * omega))
        direct = work_moments(fig1_model, fig1_ensemble, 0.4).excess
        assert direct == pytest.approx(oracle, rel=1e-10)
        assert direct == pytest.approx(1.951, abs=5e-4)

    def test_direct_equals_geometric(self, fig1_model, fig1_ensemble):
        for t in np.linspace(0.0, 0.8, 9):
            direct = work_moments(fig1_model, fig1_ensemble, t).excess
            geo = ensemble_rates(fig1_model, fig1_ensemble, t)[1]
            if max(abs(direct), abs(geo)) > 1e-10:
                assert direct == pytest.approx(geo, rel=1e-6)

    def test_nonnegative(self, fig1_model, fig1_ensemble):
        for t in np.linspace(0.0, 0.8, 9):
            assert work_moments(fig1_model, fig1_ensemble, t).excess \
                > -1e-10


class TestRowsumIdentity:
    def test_zero_at_start(self, fig1_model, fig1_ensemble):
        moments = work_moments(fig1_model, fig1_ensemble, 0.0)
        assert moments.rowsum_residual < 1e-12

    def test_along_grid(self, fig1_model, fig1_ensemble):
        scale = float(np.abs(fig1_model.spectrum0_at(0.0).energies).max())
        for t in np.linspace(0.0, 0.8, 9):
            moments = work_moments(fig1_model, fig1_ensemble, t)
            assert moments.rowsum_residual <= 1e-8 * scale

    def test_two_level_machine_precision(self):
        proto = quintic_ramp([0.3], [1.7], 1.0)
        model = two_level_model(proto)
        ensemble = model_ensemble(model, 2.0)
        for t in np.linspace(0.0, 1.0, 7):
            assert work_moments(model, ensemble, t).rowsum_residual < 1e-12


class TestEnergyFluctuations:
    """The energy-variance columns of one-point ``fluctuation_series``
    calls."""

    def test_initial_value_is_thermal_variance(self, fig1_model,
                                               fig1_ensemble):
        row = fluctuation_series(fig1_model, fig1_ensemble, [0.0])
        energies = fig1_model.spectrum0_at(0.0).energies
        e = energies[: fig1_ensemble.n_levels]
        p = fig1_ensemble.weights
        thermal_var = float(p @ e**2 - (p @ e) ** 2)
        assert row["energy_variance_cd"][0] == pytest.approx(thermal_var,
                                                             rel=1e-10)
        assert abs(row["excess_direct"][0]) < 1e-10

    def test_bounds_excess_along_grid(self, fig1_model, fig1_ensemble):
        for tau_factor in (0.5, 1.0, 2.0):
            model = HarmonicOscillator(
                HOConfig(1.0, 3.0, 0.8 * tau_factor, dim=120))
            ensemble = model_ensemble(model, 1.0)
            for t in np.linspace(0.0, model.tau, 9):
                row = fluctuation_series(model, ensemble, [t])
                direct = work_moments(model, ensemble, t).excess
                assert direct == pytest.approx(row["excess_direct"][0],
                                               abs=1e-8)
                assert direct <= row["energy_variance_cd"][0] + 1e-8
                assert -1e-10 <= direct

    @pytest.mark.parametrize("beta", [1.0, math.inf])
    def test_energy_deviation_is_the_root_of_the_variance(self, fig1_model,
                                                          beta):
        ensemble = model_ensemble(fig1_model, beta)
        grid = np.linspace(0.0, 0.8, 41)
        for columns in kernel_sweep(fig1_model, ensemble, grid,
                                    [0.08, 0.8, 8.0]):
            root = np.sqrt(np.clip(columns["energy_variance_cd"], 0.0, None))
            np.testing.assert_allclose(columns["energy_dev"], root,
                                       rtol=1e-14, atol=0.0)

    def test_ground_state_decomposition(self, fig1_model, fig1_ground):
        # energy_variance_cd - excess = Var(H0) in the evolved state, >= 0
        p = fig1_ground.weights
        for t in (0.2, 0.4, 0.6):
            row = fluctuation_series(fig1_model, fig1_ground, [t])
            e = fig1_model.spectrum0_at(t).energies[:fig1_ground.n_levels]
            variance_h0 = float(p @ e**2 - (p @ e) ** 2)
            assert variance_h0 >= -1e-12
            assert row["energy_variance_cd"][0] - row["excess_direct"][0] \
                == pytest.approx(variance_h0, rel=1e-8)
