"""Reproduction pipelines for the two study figures.

These functions compute plain arrays; the CLI handles serialization.
The oscillator study sweeps durations of one ramp shape: at a fixed
ramp progress every duration has the same H0 and a CD term that scales
as 1/tau, so one oscillator and one kernel pass
(``workstats.fluctuation_kernel``) give every duration's series, which
go with the duration-free path lengths to ``geometry.bound_chain``.
The kernel pass is cut on a block boundary into two lanes
(``lanes.run_lanes``): lane B, in a forked child where two CPUs are
available, takes the first blocks, and lane A the rest, the endpoint
Bures length and the path lengths, whose quadrature nodes count as
kernel points in the cut.
The Ising study produces the excess-fluctuation trajectories across
the critical point and the finite-size scaling fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import ising
from .errors import ConfigError, TruncationError, named
from .fitting import FitResult, fit_power_law
from .geometry import (SpeedLimitReport, bound_chain, bures_length,
                       density_factor, ensemble_rates, path_lengths)
from .lanes import run_lanes
from .oscillator import HOConfig, HarmonicOscillator
from .quadrature import CC_FIRST_NODES
from .spectral import BLOCK_POINTS
from .workstats import (fluctuation_assembly, fluctuation_kernel,
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

    One oscillator at the figure duration ``tau`` serves the sweep: its
    ``grid_points``-point grid fixes the ramp progress s_j = t_j / tau,
    and one kernel pass (``fluctuation_kernel``) evaluates every
    duration's row j there from one spectrum per point, solved and rated
    a block at a time, which ``fluctuation_assembly`` scales per
    duration.  Each duration's t
    column is np.linspace(0, tau_k, grid_points), whose row j lies
    within one ulp of s_j tau_k.  The path lengths do not depend on the
    duration and are computed once.

    The work runs in two lanes (``lanes.run_lanes``), in this order:
    lane B, the kernel over the grid's first BLOCK_POINTS blocks, in a
    forked child where two CPUs are available; lane A, the kernel over
    the rest, then the endpoint Bures length, from the K retained
    columns at each end (``geometry.density_factor``; the t = tau
    spectrum is the one the last block left in the store), then the
    path lengths.  Lane B takes the blocks of half the grid points and
    the path lengths' first 2 CC_FIRST_NODES - 1 quadrature nodes,
    rounded up, and lane A at least one block.
    The cut falls on a block boundary, so every block sees the times of
    a serial pass and the outputs are the same bytes; a grid of one
    block runs serially.  The model's store holds one block
    (BLOCK_POINTS spectra, whatever ``grid_points``): the geometric
    column is taken in the kernel pass, and the initial density's K
    columns (t = 0) before it, whose spectrum the first block reads.  A
    block's spectra share the eigenvector arrays of its solve, so a
    store of exactly one block lets each block's arrays go as a whole.
    """
    if tau_list is None:
        tau_list = [round(0.2 * k, 10) for k in range(1, 16)]
    tau = float(tau)
    tau_list = sorted(set(float(x) for x in tau_list) | {tau})
    if tau_list[0] <= 0:
        raise ConfigError("durations must be positive")
    model = HarmonicOscillator(HOConfig(omega_i, omega_f, tau, dim=dim),
                               cache_size=BLOCK_POINTS)
    grid = np.linspace(0.0, tau, grid_points)

    def rate(times):
        return ensemble_rates(model, ensemble, times)[1]

    def kernel(times):
        # the CD term, and with it each stage's rates, scales as 1/tau and
        # 1/tau_k: the keys a float-range error names
        return named("tau, tau_list", fluctuation_kernel, model, ensemble,
                     times, rate)

    def endpoint_bures():
        return bures_length(start, density_factor(model, ensemble, tau))

    # lane A also spends a kernel point's work on each path-length node
    # (at least the first two levels' 2 CC_FIRST_NODES - 1), so lane B
    # takes the whole blocks of half the grid points and those nodes,
    # rounded up; lane A keeps at least one block
    blocks = -(-grid_points // BLOCK_POINTS)
    work = grid_points + 2 * CC_FIRST_NODES - 1
    split = BLOCK_POINTS * min(-(-work // (2 * BLOCK_POINTS)), blocks - 1)
    try:
        ensemble = model_ensemble(model, beta)
        start = density_factor(model, ensemble, 0.0)
        e_init = model.spectrum0_at(0.0).energies[:ensemble.n_levels]
        steps = [("B", partial(kernel, grid[:split]))] if split else []
        *parts, bures, (eta, ell) = run_lanes([
            *steps, ("A", partial(kernel, grid[split:])),
            ("A", endpoint_bures),
            ("A", partial(named, "tau", path_lengths, model, ensemble))])
    except TruncationError as exc:
        # a thermal tail or a leak past the basis: fock_dim enlarges it
        raise TruncationError(f"fock_dim = {dim}: {exc}") from None
    sweep = named("tau, tau_list", fluctuation_assembly, ensemble, e_init,
                  {k: np.concatenate([part[k] for part in parts])
                   for k in parts[0]},
                  [model.tau / tau_k for tau_k in tau_list])
    rows = {"t": grid, **sweep[tau_list.index(tau)]}
    mean_series = {k: rows[k] for k in ("t", "mean_cd", "mean_ad")}
    excess_series = {k: rows[k] for k in ("t", "var_cd", "var_ad",
                                          "excess_direct", "excess_geometric")}

    for tau_k, columns in zip(tau_list, sweep):
        columns["t"] = np.linspace(0.0, tau_k, grid_points)
        columns["tau"] = np.full(grid_points, tau_k)
    tau_table = [named("tau_list", bound_chain, columns, bures, eta, ell)
                 for columns in sweep]
    variance_rows = {k: np.concatenate([columns[k] for columns in sweep])
                     for k in ("tau", "t", "var_cd", "var_ad")}
    averages = np.array([r.avg_excess_dev for r in tau_table])
    fit = None
    # an average that underflowed to 0 fails equality_ok; no fit through it
    if ell > 0 and len(tau_table) >= 3 and averages.min() > 0:
        fit = fit_power_law(np.array([r.tau for r in tau_table]), averages)
    return HoFigure1Data(mean_series, variance_rows, excess_series,
                         tau_table, fit, ell, eta, bures,
                         ensemble.n_levels, ensemble.tail_bound,
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
    point and the finite-size scaling of the time-integrated cost.

    A configuration error names the argument it comes from: the
    trajectory chain and every one of the fit's chain lengths go through
    the same length check in ``ising``, which cannot tell them apart,
    whether or not a fit runs.  A value past float range names the
    stage and the keys it reads.
    """
    if n_list is None:
        n_list = [32, 64, 128, 256, 512, 1024]
    if tau_list is None:
        tau_list = [0.5, 1.0, 2.0]
    # a sweep whose endpoints round to the critical point has no length
    if not 1.0 - delta < 1.0 < 1.0 + delta:
        raise ConfigError(f"delta must move lam off the critical point "
                          f"1 in floating point, got {delta!r}")
    named("trajectory_sites", ising.momenta, trajectory_sites)
    for n in n_list:
        named("n_list", ising.momenta, n)
    blocks = {"tau": [], "t": [], "lam": [], "excess_variance": [],
              "excess_dev": []}
    for tau_k in sorted(set(float(x) for x in tau_list)):
        config = ising.IsingConfig(trajectory_sites, delta, tau_k)
        grid = np.linspace(0.0, tau_k, grid_points)
        traj = named("tau_list, delta", ising.cd_excess_trajectory,
                     config, grid)
        blocks["tau"].append(np.full_like(grid, tau_k))
        blocks["t"].append(grid)
        blocks["lam"].append(traj.lam)
        blocks["excess_variance"].append(traj.excess_variance)
        blocks["excess_dev"].append(traj.excess_dev)
    trajectories = {k: np.concatenate(v) for k, v in blocks.items()}
    scaling = None
    if len(set(int(n) for n in n_list)) >= 5:
        scaling = named("n_list", ising.scaling_fit, n_list, delta,
                        reads="n_list, delta")
    return IsingFigure2Data(trajectories, scaling, trajectory_sites)

