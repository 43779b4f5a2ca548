"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line with the measured values.

Run with ``pytest -v -s tests/test_acceptance.py`` to see every line.
"""

import math
import time

import numpy as np
import pytest

from cdwork import (HOConfig, HarmonicOscillator, bures_length,
                    density_factor, ensemble_rates,
                    model_ensemble, path_lengths, speed_limit_report,
                    transitionless_certificate, work_distribution,
                    work_moments)
from cdwork.figures import ho_figure1_data
from cdwork.ising import ground_energy, ground_metric, scaling_fit
from cdwork.oscillator import cd_exact_energy
from conftest import (dense_metric, lanczos_ground_state, richardson_metric,
                      work_mean)


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def panel_run():
    """Single-duration run at the figure operating point (grid 401)."""
    start = time.perf_counter()
    model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=120))
    ensemble = model_ensemble(model, 1.0)
    grid = np.linspace(0.0, 0.8, 401)
    means = np.empty((len(grid), 2))
    direct = np.empty(len(grid))
    geometric = np.empty(len(grid))
    for i, t in enumerate(grid):
        cd = work_distribution(model, ensemble, t, "cd")
        ad = work_distribution(model, ensemble, t, "adiabatic")
        means[i] = work_mean(cd), work_mean(ad)
        direct[i] = work_moments(model, ensemble, t).excess
        geometric[i] = ensemble_rates(model, ensemble, t)[1]
    elapsed = time.perf_counter() - start
    return {"grid": grid, "means": means, "direct": direct,
            "geometric": geometric, "elapsed": elapsed,
            "model": model, "ensemble": ensemble}


@pytest.fixture(scope="module")
def figure1():
    """Full duration sweep (the figure reproduction pipeline)."""
    start = time.perf_counter()
    data = ho_figure1_data()
    return data, time.perf_counter() - start


def test_criterion_1_mean_work_identity(panel_run):
    gap = float(np.abs(panel_run["means"][:, 0]
                       - panel_run["means"][:, 1]).max())
    ok = gap <= 1e-8 and panel_run["elapsed"] < 10.0
    report(1, "mean-work identity", ok,
           f"max |<W>_cd - <W>_ad| = {gap:.2e} "
           f"({panel_run['elapsed']:.1f} s)")


def test_criterion_2_variance_identity(panel_run):
    direct, geometric = panel_run["direct"], panel_run["geometric"]
    live = np.abs(geometric) > 1e-10
    # 1e-6 relative with the criterion's own 1e-10 endpoint floor as the
    # additive term: a difference of O(1) second moments cannot resolve
    # excesses below ~1e-12 any better
    gap = np.abs(direct[live] - geometric[live])
    margin = float(np.max(gap - (1e-6 * np.abs(geometric[live]) + 1e-10)))
    rel_bulk = float(np.max(gap[np.abs(geometric[live]) > 1e-4]
                            / np.abs(geometric[live])[
                                np.abs(geometric[live]) > 1e-4]))
    endpoint = max(abs(direct[0]), abs(direct[-1]),
                   abs(geometric[0]), abs(geometric[-1]))
    ok = margin <= 0.0 and rel_bulk <= 1e-6 and endpoint < 1e-10
    report(2, "variance identity", ok,
           f"bulk relative gap {rel_bulk:.2e}, floor margin {margin:.2e}, "
           f"endpoint excess {endpoint:.2e}")


def test_figure1_equality_residuals_agree(figure1):
    # the residual is the Simpson time-average error, the same at every
    # duration; rounding in the excess would scatter it
    residuals = [row.equality_residual for row in figure1[0].tau_table]
    assert np.ptp(residuals) <= 1e-14


def test_criterion_3_figure1_reproduction(figure1):
    data, elapsed = figure1
    fit_ok = 0.64 <= data.fit.coefficient <= 0.67
    residual = max(row.equality_residual for row in data.tau_table)
    ell_ok = abs(data.ell - 0.6548) <= 2e-4
    bures_ok = abs(data.bures_len - 0.476) <= 0.005
    ordering_ok = all(row.ordering_ok for row in data.tau_table)
    ok = (fit_ok and residual <= 1e-6 and ell_ok and bures_ok
          and ordering_ok and elapsed < 120.0)
    report(3, "figure-1 reproduction", ok,
           f"fit coefficient {data.fit.coefficient:.4f}, "
           f"ell {data.ell:.4f}, bures {data.bures_len:.4f}, "
           f"max equality residual {residual:.2e}, "
           f"ordering {ordering_ok} ({elapsed:.0f} s)")


def test_figure1_row_is_the_speed_limit_report(figure1, fig1_model,
                                               fig1_ensemble):
    data, _ = figure1
    row = next(r for r in data.tau_table if r.tau == 0.8)
    assert row == speed_limit_report(fig1_model, fig1_ensemble,
                                     grid_points=401)


def test_criterion_4_transitionless_certificate(panel_run):
    model = panel_run["model"]
    grid = np.linspace(0.0, 0.8, 161)
    cert = transitionless_certificate(model, np.arange(31), grid, tol=1e-7)
    bare = transitionless_certificate(model, [0], grid, h1_scale=0.0,
                                      tol=1e-7)
    bare_fid = float(bare.final_fidelity[0])
    ok = cert.passed and bare_fid < 0.999
    report(4, "transitionless certificate", ok,
           f"driven worst overlap {cert.worst():.9f} (n <= 30), "
           f"bare fidelity {bare_fid:.4f}")


def test_criterion_5_closed_form_crosscheck():
    model = HarmonicOscillator(HOConfig(1.0, 3.0, 1.6, dim=120))
    cap = model.dim // 3
    worst = 0.0
    for t in np.linspace(0.0, model.tau, 17):
        w, wd = model.omega(t), model.omega_dot(t)
        energies = model.spectrum_cd_at(t).energies
        exact = np.array([cd_exact_energy(w, wd, n)
                          for n in range(cap + 1)])
        worst = max(worst, float(np.abs(energies[: cap + 1] - exact).max()))
    ok = worst <= 1e-7
    report(5, "driven-spectrum closed form", ok,
           f"max |E_n(Fock) - E_n(exact)| = {worst:.2e} for n <= {cap}")


def test_criterion_6_ising_small_chain_oracle():
    start = time.perf_counter()
    from cdwork.ising import exact_ground_state
    worst_energy = 0.0
    worst_metric = 0.0
    for n in (4, 8, 12):
        lams = (0.6, 1.0, 1.4, 2.0) if n <= 8 else (1.3, 2.0)
        ground_state = exact_ground_state if n <= 8 else lanczos_ground_state
        metric = dense_metric if n <= 8 else richardson_metric
        for lam in lams:
            e0, _ = ground_state(lam, n)
            worst_energy = max(worst_energy,
                               abs(e0 - ground_energy(lam, n)))
        for lam in (1.3, 2.0):
            oracle = metric(lam, n)
            worst_metric = max(worst_metric,
                               abs(oracle - ground_metric(lam, n)))
    worst_identity = max(
        abs(ground_metric(1.0, n) - n * (n - 1) / 32.0) / (n * (n - 1) / 32.0)
        for n in (4, 16, 128, 1024, 4096))
    elapsed = time.perf_counter() - start
    ok = (worst_energy <= 1e-8 and worst_metric <= 1e-8
          and worst_identity <= 1e-10 and elapsed < 30.0)
    report(6, "Ising exact-diagonalization oracle", ok,
           f"energy gap {worst_energy:.2e}, metric gap {worst_metric:.2e}, "
           f"critical identity {worst_identity:.2e} ({elapsed:.1f} s)")


def test_criterion_7_critical_scaling():
    start = time.perf_counter()
    scaling = scaling_fit([32, 64, 128, 256, 512, 1024], 1.0)
    n = 16384
    lams = 1.0 + np.geomspace(1e-3, 1e-2, 9)
    density = np.array([ground_metric(lam, n) for lam in lams]) / n
    slope = float(np.polyfit(np.log(lams - 1.0), np.log(density), 1)[0])
    elapsed = time.perf_counter() - start
    ok = (0.50 <= scaling.alpha <= 0.53 and abs(slope + 1.0) <= 0.05
          and elapsed < 60.0)
    report(7, "critical finite-size scaling", ok,
           f"alpha = {scaling.alpha:.4f}, off-critical slope {slope:.4f} "
           f"({elapsed:.1f} s)")


def test_criterion_8_length_chain_randomized():
    start = time.perf_counter()
    rng = np.random.default_rng(987654321)
    worst = -math.inf
    for _ in range(100):
        omega_f = float(rng.uniform(1.3, 2.5))
        tau = float(rng.uniform(0.4, 1.5))
        beta = float(rng.uniform(1.0, 4.0)) if rng.random() < 0.8 else math.inf
        kind = str(rng.choice(["quintic", "log"]))
        model = HarmonicOscillator(
            HOConfig(1.0, omega_f, tau, dim=100, ramp_kind=kind))
        ensemble = model_ensemble(model, beta)
        eta, ell = path_lengths(model, ensemble, rel_tol=1e-9)
        bures = bures_length(density_factor(model, ensemble, 0.0),
                             density_factor(model, ensemble, tau))
        worst = max(worst, bures - eta, eta - ell)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 300.0
    report(8, "length inequality chain (100 random configs)", ok,
           f"max violation {worst:.2e} ({elapsed:.0f} s)")


def test_criterion_9_zero_temperature_equality():
    model = HarmonicOscillator(
        HOConfig(1.0, 1.1, 1.0, dim=60, ramp_kind="log"))
    ensemble = model_ensemble(model, math.inf)
    result = speed_limit_report(model, ensemble, grid_points=401)
    ratio = result.tau * result.avg_excess_dev / result.bures_len
    ok = abs(ratio - 1.0) <= 1e-3
    report(9, "zero-temperature duration equality", ok,
           f"tau <dDW> / bures = {ratio:.6f}")
