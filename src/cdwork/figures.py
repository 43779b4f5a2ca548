"""Reproduction pipelines for the two study figures.

These functions compute plain arrays; the CLI handles serialization.
The oscillator study sweeps protocol durations; per duration it takes
the fluctuation series from ``workstats.fluctuation_series`` and hands
them, with the path lengths computed once for the sweep, to
``geometry.bound_chain``.  Every duration walks the same frequency
path, so the sweep's oscillators share one store of H0 spectra keyed by
frequency.  The Ising study produces the excess-fluctuation
trajectories across the critical point and the finite-size scaling fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ising
from .fitting import FitResult, fit_power_law
from .geometry import (SpeedLimitReport, bound_chain, bures_length,
                       evolved_density, path_lengths)
from .models import SpectrumCache
from .oscillator import HOConfig, HarmonicOscillator
from .workstats import (excess_variance_geometric, fluctuation_series,
                        model_ensemble)


@dataclass(frozen=True)
class HoFigure1Data:
    mean_series: dict[str, np.ndarray]
    variance_series: dict[str, np.ndarray]
    excess_series: dict[str, np.ndarray]
    tau_table: list[SpeedLimitReport]
    fit: FitResult | None
    ell: float
    eta_len: float
    bures_len: float
    # retained thermal levels K (the populated coupling rows of the
    # geometry) and the bound on the weight beyond them
    ensemble_levels: int
    tail_bound: float
    passed: bool

    def summary(self) -> dict:
        return {
            "ell": self.ell,
            "eta_length": self.eta_len,
            "bures_length": self.bures_len,
            "ensemble_levels": self.ensemble_levels,
            "tail_bound": self.tail_bound,
            "fit": self.fit.as_dict() if self.fit is not None else None,
            "max_equality_residual": max(
                (row.equality_residual for row in self.tau_table), default=0.0),
            "ordering_ok": all(row.ordering_ok for row in self.tau_table),
            "per_tau": [
                {
                    "tau": row.tau,
                    "avg_excess_dev": row.avg_excess_dev,
                    "avg_energy_dev": row.avg_energy_dev,
                    "bound_from_excess": row.bound_from_excess,
                    "bound_from_energy": row.bound_from_energy,
                    "equality_residual": row.equality_residual,
                    "ordering_ok": row.ordering_ok,
                }
                for row in self.tau_table
            ],
            "passed": self.passed,
        }


def ho_figure1_data(*, omega_i: float = 1.0, omega_f: float = 3.0,
                    beta: float = 1.0, tau: float = 0.8,
                    tau_list=None, dim: int = 120,
                    grid_points: int = 401) -> HoFigure1Data:
    """Oscillator study: work moments, excess fluctuations and the
    duration bound chain across a list of protocol durations.

    The durations' oscillators share one H0 store of two grids' worth
    of spectra: grids of different durations meet the same frequencies
    only up to rounding, so the distinct points outnumber one grid, and
    a store of one grid evicts spectra the next duration needs.  The
    path lengths do not depend on the duration and are computed once.
    """
    if tau_list is None:
        tau_list = [round(0.2 * k, 10) for k in range(1, 16)]
    tau_list = sorted(set(float(x) for x in tau_list) | {float(tau)})
    h0_store = SpectrumCache(2 * grid_points)

    mean_series = excess_series = None
    var_blocks = {"tau": [], "t": [], "var_cd": [], "var_ad": []}
    tau_table = []
    ell = eta = bures = first_ensemble = None

    for tau_k in tau_list:
        config = HOConfig(omega_i, omega_f, tau_k, dim=dim)
        model = HarmonicOscillator(config, h0_store=h0_store)
        ensemble = model_ensemble(model, beta)
        grid = np.linspace(0.0, tau_k, grid_points)
        rows = fluctuation_series(model, ensemble, grid)
        var_blocks["tau"].append(np.full_like(grid, tau_k))
        for key in ("t", "var_cd", "var_ad"):
            var_blocks[key].append(rows[key])
        if math.isclose(tau_k, tau):
            rows["excess_geometric"] = np.array(
                [excess_variance_geometric(model, ensemble, t) for t in grid])
            mean_series = {k: rows[k] for k in ("t", "mean_cd", "mean_ad")}
            excess_series = {k: rows[k] for k in
                             ("t", "var_cd", "var_ad", "excess_direct",
                              "excess_geometric")}
        if ell is None:
            first_ensemble = ensemble
            eta, ell = path_lengths(model, ensemble)
            bures = bures_length(evolved_density(model, ensemble, 0.0),
                                 evolved_density(model, ensemble, tau_k))
        tau_table.append(bound_chain(rows, ell, eta, bures))

    variance_rows = {k: np.concatenate(v) for k, v in var_blocks.items()}
    fit = None
    if ell > 0 and len(tau_table) >= 3:
        fit = fit_power_law(np.array([r.tau for r in tau_table]),
                            np.array([r.avg_excess_dev for r in tau_table]))
    return HoFigure1Data(mean_series, variance_rows, excess_series,
                         tau_table, fit, ell, eta, bures,
                         first_ensemble.n_levels, first_ensemble.tail_bound,
                         all(row.passed for row in tau_table))


@dataclass(frozen=True)
class IsingFigure2Data:
    trajectories: dict[str, np.ndarray]
    scaling: ising.CriticalScaling | None
    trajectory_sites: int

    def summary(self) -> dict:
        out = {"trajectory_sites": self.trajectory_sites}
        if self.scaling is None:
            out["scaling"] = None
        else:
            out["scaling"] = {
                "alpha": self.scaling.alpha,
                "alpha_stderr": self.scaling.alpha_stderr,
                "residual_rms": self.scaling.residual_rms,
                "n_values": [int(n) for n in self.scaling.n_values],
                "integrals": list(self.scaling.integrals),
                "passed": self.scaling.passed,
            }
        return out


def ising_figure2_data(*, n_list=None, delta: float = 1.0, tau_list=None,
                       grid_points: int = 401,
                       trajectory_sites: int = 64) -> IsingFigure2Data:
    """Ising study: excess-fluctuation trajectories across the critical
    point and the finite-size scaling of the time-integrated cost."""
    if n_list is None:
        n_list = [32, 64, 128, 256, 512, 1024]
    if tau_list is None:
        tau_list = [0.5, 1.0, 2.0]
    blocks = {"tau": [], "t": [], "lam": [], "excess_variance": [],
              "excess_dev": []}
    for tau_k in sorted(set(float(x) for x in tau_list)):
        config = ising.IsingConfig(trajectory_sites, delta, tau_k)
        grid = np.linspace(0.0, tau_k, grid_points)
        traj = ising.cd_excess_trajectory(config, grid)
        blocks["tau"].append(np.full_like(grid, tau_k))
        blocks["t"].append(grid)
        blocks["lam"].append(traj.lam)
        blocks["excess_variance"].append(traj.excess_variance)
        blocks["excess_dev"].append(traj.excess_dev)
    trajectories = {k: np.concatenate(v) for k, v in blocks.items()}
    scaling = None
    if len(set(int(n) for n in n_list)) >= 5:
        scaling = ising.scaling_fit(n_list, delta)
    return IsingFigure2Data(trajectories, scaling, trajectory_sites)
