import math

import numpy as np
import pytest
from scipy.integrate import simpson

from cdwork import ConfigError, cubic_ramp, ising, quintic_ramp
from cdwork.ising import (CriticalScaling, IsingConfig, cd_excess_trajectory,
                          exact_ground_state, ground_energy, ground_metric,
                          ground_state_overlap, mode_energy, momenta,
                          scaling_fit, sweep_cost_integral)
from cdwork.ising import _gap_form
from conftest import dense_metric, lanczos_ground_state, richardson_metric


class TestModeEnergy:
    def test_gap_closes_at_critical_point(self):
        ks = np.array([1e-3, 1e-5])
        assert np.all(mode_energy(1.0, ks) < 3e-3)
        assert mode_energy(1.0, 1e-5) == pytest.approx(2e-5, rel=1e-6)

    def test_pure_coupling_limit(self):
        for k in momenta(16):
            assert mode_energy(0.0, k) == pytest.approx(2.0, rel=1e-14)

    def test_positive_away_from_criticality(self):
        for lam in (0.3, 0.9, 1.5):
            assert np.all(mode_energy(lam, momenta(64)) > 0)

    def test_soft_mode_exact_at_second_critical_point(self):
        # at lam = -1 the gap form is 4 cos^2(k/2); the softest mode sits
        # at k -> pi, where lam^2 - 2 lam cos k + 1 cancels (measured:
        # 0 here, 3.9e-10 relative with the cancelling form)
        k = momenta(4096)
        energies = mode_energy(-1.0, k)
        soft = np.argmin(energies)
        exact = 4.0 * abs(np.cos(0.5 * k[soft]))
        assert abs(energies[soft] - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_negative_field_is_the_mirrored_mode(self, lam):
        k = momenta(64)
        assert mode_energy(-lam, k) == pytest.approx(
            mode_energy(lam, np.pi - k), rel=1e-13)

    def test_chain_length_validation(self):
        with pytest.raises(ConfigError):
            momenta(5)
        with pytest.raises(ConfigError):
            momenta(2)


class TestExactDiagonalizationOracle:
    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("lam", [0.6, 1.0, 1.4, 2.0])
    def test_ground_energy_dense(self, n, lam):
        e0, _ = exact_ground_state(lam, n)
        assert abs(e0 - ground_energy(lam, n)) < 1e-10

    @pytest.mark.parametrize("lam", [1.3, 2.0])
    def test_ground_energy_lanczos_n12(self, lam):
        e0, _ = lanczos_ground_state(lam, 12)
        assert abs(e0 - ground_energy(lam, 12)) < 1e-10

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("lam", [1.3, 2.0])
    def test_metric_dense(self, n, lam):
        assert abs(dense_metric(lam, n) - ground_metric(lam, n)) < 1e-10

    @pytest.mark.parametrize("lam", [1.3, 2.0])
    def test_metric_richardson_n12(self, lam):
        assert abs(richardson_metric(lam, 12) - ground_metric(lam, 12)) < 1e-8

    def test_reference_value(self):
        assert ground_metric(2.0, 4) == pytest.approx(0.0285467, abs=1e-6)

    @pytest.mark.parametrize("n", [4, 8])
    def test_overlap_product_formula(self, n):
        _, va = exact_ground_state(1.4, n)
        _, vb = exact_ground_state(2.2, n)
        assert abs(abs(va @ vb) - ground_state_overlap(1.4, 2.2, n)) < 1e-10


class TestMetricSweep:
    @pytest.mark.parametrize("n", [64, 1024, 4096])
    def test_equals_scalar_calls(self, n):
        proto = quintic_ramp([2.0], [0.0], 1.3)
        lam = np.concatenate((np.linspace(0.0, 2.0, 2001), [
            proto.value(t)[0] for t in np.linspace(0.0, 1.3, 2001)]))
        g = ground_metric(lam, n)
        assert np.array_equal(g, [ground_metric(x, n) for x in lam])
        assert isinstance(ground_metric(lam[7], n), float)
        # the per-point formula with lam a Python float, whose square
        # (lam - 1)^2 goes through pow and may round one ulp apart
        k = momenta(n)
        loop = []
        for x in lam:
            d = _gap_form(float(x), float(x) - 1.0, k)
            loop.append(float((np.sin(k) ** 2 / (4.0 * d * d)).sum()))
        np.testing.assert_allclose(g, loop, rtol=1e-15, atol=0.0)


class TestCriticalIdentity:
    @pytest.mark.parametrize("n", [4, 16, 64, 512, 4096])
    def test_metric_at_critical_point(self, n):
        ref = n * (n - 1) / 32.0
        assert ground_metric(1.0, n) == pytest.approx(ref, rel=1e-10)

    def test_small_case_value(self):
        assert ground_metric(1.0, 4) == pytest.approx(0.375, rel=1e-12)

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_metric_at_negative_critical_point(self, n):
        # g is even in lam; the gap form at lam = -1 itself cancels as
        # k -> pi and misses by 6.9e-11 (N = 1024) and 1.3e-9 (N = 4096)
        ref = n * (n - 1) / 32.0
        assert ground_metric(-1.0, n) == pytest.approx(ref, rel=1e-13)


class TestMetricSymmetries:
    """The identities behind the sweep-cost fold."""

    @pytest.mark.parametrize("n", [4, 6, 64, 1024])
    def test_even_in_lam(self, n):
        # k -> pi - k maps the momenta onto themselves
        lam = 10.0 ** np.random.default_rng(n).uniform(-3, 3, 200)
        np.testing.assert_allclose(ground_metric(-lam, n),
                                   ground_metric(lam, n), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [4, 6, 64, 1024])
    def test_kramers_wannier_duality(self, n):
        # the gap form of 1/lam is that of lam over lam^2
        lam = 10.0 ** np.random.default_rng(n).uniform(-3, 3, 200)
        np.testing.assert_allclose(ground_metric(1.0 / lam, n) / lam**4,
                                   ground_metric(lam, n), rtol=1e-13, atol=0)


class TestOffCriticalScaling:
    def test_metric_density_slope(self):
        # g/N ~ 1/(lam - 1) deep in the scaling window (xi << N)
        n = 16384
        lams = 1.0 + np.geomspace(1e-3, 1e-2, 9)
        dens = np.array([ground_metric(lam, n) for lam in lams]) / n
        slope = np.polyfit(np.log(lams - 1.0), np.log(dens), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)


class TestExcessTrajectory:
    def test_endpoints_vanish(self):
        config = IsingConfig(64, 1.0, 1.0)
        traj = cd_excess_trajectory(config, np.linspace(0, 1, 101))
        assert traj.excess_variance[0] == 0.0
        assert traj.excess_variance[-1] == 0.0
        assert np.all(traj.excess_variance >= 0.0)

    def test_doubling_tau_quarters_pointwise(self):
        grids = {}
        for tau in (1.0, 2.0):
            config = IsingConfig(64, 1.0, tau)
            grids[tau] = cd_excess_trajectory(
                config, np.linspace(0, tau, 101))
        ratio = grids[1.0].excess_variance[1:-1] / grids[2.0].excess_variance[1:-1]
        assert np.abs(ratio - 4.0).max() < 1e-10

    def test_single_peak_near_critical_point(self):
        config = IsingConfig(64, 1.0, 1.0)
        traj = cd_excess_trajectory(config, np.linspace(0, 1, 401))
        inner = traj.excess_variance[1:-1]
        peaks = np.flatnonzero((inner[1:-1] > inner[:-2])
                               & (inner[1:-1] > inner[2:]))
        assert len(peaks) == 1
        assert abs(traj.lam[peaks[0] + 2] - 1.0) < 0.05


class TestScalingFit:
    def test_alpha_in_band(self):
        scaling = scaling_fit([32, 64, 128, 256, 512, 1024], 1.0)
        assert 0.50 <= scaling.alpha <= 0.53
        assert scaling.residual_rms < CriticalScaling.MAX_RESIDUAL

    def test_protocol_independence(self):
        # the time-integrated cost depends only on the swept interval
        n, delta = 64, 1.0
        ref = sweep_cost_integral(n, delta)
        for proto in (cubic_ramp([2.0], [0.0], 0.7),
                      quintic_ramp([2.0], [0.0], 1.3)):
            grid = np.linspace(0.0, proto.duration, 2001)
            lam = np.array([proto.value(t)[0] for t in grid])
            lamdot = np.array([proto.derivative(t)[0] for t in grid])
            g = np.array([ground_metric(x, n) for x in lam])
            value = float(simpson(np.sqrt(g) * np.abs(lamdot), x=grid))
            assert value == pytest.approx(ref, rel=1e-6)

    # 30 digits from mpmath 1.3.0 on the raw lam-integral, with
    # breakpoints at lam = +-1
    @pytest.mark.parametrize("n, delta, ref", [
        (34, 0.737, 2.9868984232447547771),
        (64, 1.0, 4.9253098612400598948),
        (64, 1.5, 6.1966712714982793486),
        (64, 3.0, 10.392456763392560229),
        (1408, 0.779, 21.469652899619748421),
    ])
    def test_sweep_cost_reference_values(self, n, delta, ref):
        assert sweep_cost_integral(n, delta) == pytest.approx(ref, rel=1e-13)

    def test_sweep_cost_nodes_do_not_grow_with_delta(self, monkeypatch):
        quadrature = ising.clenshaw_curtis
        calls = []

        def counting(f, *args, **kwargs):
            def level(nodes):
                calls.extend(nodes)
                return f(nodes)
            return quadrature(level, *args, **kwargs)

        monkeypatch.setattr(ising, "clenshaw_curtis", counting)
        counts = []
        for delta in (3.0, 1e10, 1e70):
            calls.clear()
            sweep_cost_integral(256, delta)
            counts.append(len(calls))
        assert counts[0] == counts[1] == counts[2] <= 3 * 257

    def test_window_validation(self):
        with pytest.raises(ConfigError):
            scaling_fit([32, 64, 128], 1.0)
        with pytest.raises(ConfigError):
            scaling_fit([32, 40, 48, 56, 64], 1.0)

    def test_matches_trajectory_integral(self):
        # tau <dDW>_tau from the trajectory equals the lam-space integral
        config = IsingConfig(32, 1.0, 1.0)
        grid = np.linspace(0.0, 1.0, 4001)
        traj = cd_excess_trajectory(config, grid)
        value = float(simpson(traj.excess_dev, x=grid))
        assert value == pytest.approx(sweep_cost_integral(32, 1.0), rel=1e-6)
