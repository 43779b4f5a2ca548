"""Two-point-measurement work statistics along counterdiabatic and
adiabatic evolution.

Work is defined by projective energy measurements at t' = 0 (in the
H0 eigenbasis) and at t (in the eigenbasis of the full driving
Hamiltonian H_cd = H0 + H1).  Because counterdiabatic driving carries
the initial eigenstate |n(0)> exactly onto |n(t)> up to a phase, every
transition probability reduces to an overlap of instantaneous
eigenvectors,

    p_{n->m}(t) = |<Psi_m(t)|n(t)>|^2,

so the whole work distribution is computable from spectra alone, with
no time propagation.  Its moments need no spectrum of H_cd at all: by
completeness sum_m p_{n->m} E_m(t)^k = <n(t)|H_cd^k|n(t)>, which
``ensemble_energy_variance`` takes from H_cd |n(t)> (the operator
route).  The transition matrix is the independent oracle:
``work_moments`` sums p_n p_{n->m} (E_m(t) - eps_n(0))^k over it, and
``work_distribution`` builds the merged atoms.

For drives fast enough that omegadot^2/(4 omega^4) reaches one, the
driving Hamiltonian of the oscillator loses its discrete spectrum in
the continuum limit; the truncated basis then acts as a discretized
regularization.  All identities tested here (mean equality, variance
excess, row sums, moment bounds) are completeness algebra and hold
exactly in the regularized model as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError
from .geometry import qgt_levels

# largest mass a retained eigenstate may put on the polluted top of a
# truncated basis before spectra-derived quantities are refused
DEFICIT_TOL = 1e-8
# work weights at or below this are rounding ghosts of exactly forbidden
# transitions and are dropped
PROB_FLOOR = 1e-16
# basis coordinates above this share of the basis are polluted by truncation
TRUSTED_FRACTION = 2.0 / 3.0
# thermal weight a truncated spectrum may leave beyond its retained levels
TAIL_TOL = 1e-10


@dataclass(frozen=True)
class ThermalEnsemble:
    """Boltzmann occupations of the initial eigenlevels.

    ``weights`` covers the retained prefix of levels (renormalized so it
    sums to one); ``tail_bound`` bounds the discarded mass.  beta may be
    math.inf for a pure ground state.
    """

    beta: float
    weights: np.ndarray
    log_partition: float
    tail_bound: float

    @property
    def n_levels(self) -> int:
        return self.weights.shape[0]


def thermal_ensemble(energies: np.ndarray, beta: float, *,
                     complete_spectrum: bool = False) -> ThermalEnsemble:
    """Canonical weights exp(-beta eps_n)/Z over an ascending spectrum.

    For a truncated spectrum (the default reading), levels are kept
    until the cumulative weight reaches 1 - TAIL_TOL, and a
    TruncationError signals that the top of the available spectrum still
    carries weight above TAIL_TOL (the continuing tail cannot then be
    certified).  With ``complete_spectrum`` the energies are the whole
    Hilbert space and every level is kept.
    """
    energies = np.asarray(energies, dtype=float)
    if beta == math.inf:
        return ThermalEnsemble(beta, np.array([1.0]), -math.inf, 0.0)
    if not beta > 0:
        raise ValueError("beta must be positive or math.inf")
    shifted = np.exp(-beta * (energies - energies[0]))
    z = shifted.sum()
    p = shifted / z
    log_z = float(np.log(z) - beta * energies[0])
    if complete_spectrum:
        return ThermalEnsemble(beta, p, log_z, 0.0)
    if p[-1] > TAIL_TOL:
        raise TruncationError(
            f"top retained level still carries weight {p[-1]:.3g} "
            f"(> {TAIL_TOL:g}); enlarge the basis")
    cum = np.cumsum(p)
    keep = int(np.searchsorted(cum, 1.0 - TAIL_TOL) + 1)
    return ThermalEnsemble(beta, p[:keep] / cum[keep - 1], log_z,
                           float(1.0 - cum[keep - 1]))


def model_ensemble(model, beta: float) -> ThermalEnsemble:
    """Thermal ensemble over the model's initial spectrum; models that
    carry their complete Hilbert space skip the truncation bookkeeping."""
    complete = not getattr(model, "truncated", False)
    return thermal_ensemble(model.spectrum0_at(0.0).energies, beta,
                            complete_spectrum=complete)


@dataclass(frozen=True)
class TransitionMatrix:
    """p_{n->m}(t) for the retained initial levels n (rows) against all
    final eigenlevels m (columns)."""

    probabilities: np.ndarray
    time: float
    basis_leakage: float


def basis_leakage(model, ensemble, t: float) -> float:
    """Worst mass any retained instantaneous eigenstate puts on the
    truncation-polluted top of the basis coordinates.

    This is the error indicator for every spectra-derived quantity: the
    rows of the transition matrix sum to one by completeness whatever
    the truncation, but an eigenstate that reaches the top of the basis
    is not the physical one.  Zero for models that carry their complete
    Hilbert space.
    """
    if not getattr(model, "truncated", False):
        return 0.0
    states = model.spectrum0_at(t).states[:, : ensemble.n_levels]
    cap = int(TRUSTED_FRACTION * model.dim)
    if cap >= model.dim:
        return 0.0
    return float((np.abs(states[cap:, :]) ** 2).sum(axis=0).max())


def _check_leakage(model, ensemble, t: float) -> float:
    """basis_leakage, raising TruncationError above DEFICIT_TOL."""
    leak = basis_leakage(model, ensemble, t)
    if leak > DEFICIT_TOL:
        raise TruncationError(
            f"a retained eigenstate leaks {leak:.3g} of its mass into the "
            f"top of the basis at t={t:g}; enlarge the Fock basis")
    return leak


def transition_matrix(model, ensemble, t: float) -> TransitionMatrix:
    """Overlap-squared matrix |<Psi_m(t)|n(t)>|^2.

    Rows cover the ensemble's retained levels.  Raises TruncationError
    when a retained eigenstate leaks more than DEFICIT_TOL of its mass
    into the top of the basis coordinates (the basis is then too small
    for the requested state).
    """
    leak = _check_leakage(model, ensemble, t)
    spec0 = model.spectrum0_at(t)
    spec_cd = model.spectrum_cd_at(t)
    n_keep = ensemble.n_levels
    probs = np.abs(spec_cd.states.conj().T @ spec0.states[:, :n_keep]) ** 2
    return TransitionMatrix(probs.T, float(t), leak)


@dataclass(frozen=True)
class WorkDistribution:
    """Discrete two-point-measurement work distribution."""

    support: np.ndarray
    probabilities: np.ndarray
    kind: str
    time: float


def _merge_atoms(values, probs, merge_tol):
    order = np.argsort(values, kind="stable")
    values, probs = values[order], probs[order]
    out_v, out_p = [values[0]], [probs[0]]
    for v, p in zip(values[1:], probs[1:]):
        if v - out_v[-1] <= merge_tol:
            out_p[-1] += p
        else:
            out_v.append(v)
            out_p.append(p)
    return np.array(out_v), np.array(out_p)


def work_distribution(model, ensemble, t: float, kind: str = "cd", *,
                      merge_tol: float = 1e-12) -> WorkDistribution:
    """P[W(t)] for the driven ("cd") or the adiabatic reference process.

    cd atoms sit at E_m(t) - eps_n(0) with weight p_n p_{n->m};
    adiabatic atoms sit at eps_n(t) - eps_n(0) with weight p_n.  Atoms
    closer than merge_tol in energy are merged; atoms below PROB_FLOOR
    (rounding ghosts of exactly forbidden transitions) are dropped.
    For the mean and variance alone, ``work_moments`` skips the atoms.
    """
    e_init = model.spectrum0_at(0.0).energies
    n_keep = ensemble.n_levels
    if kind == "adiabatic":
        e_now = model.spectrum0_at(t).energies
        values = e_now[:n_keep] - e_init[:n_keep]
        probs = ensemble.weights.copy()
    elif kind == "cd":
        tm = transition_matrix(model, ensemble, t)
        e_cd = model.spectrum_cd_at(t).energies
        values = (e_cd[None, :] - e_init[:n_keep, None]).ravel()
        probs = (ensemble.weights[:, None] * tm.probabilities).ravel()
    else:
        raise ValueError(f"unknown kind {kind!r}")
    live = probs > PROB_FLOOR
    values, probs = _merge_atoms(values[live], probs[live], merge_tol)
    return WorkDistribution(values, probs, kind, float(t))


def mean_work(dist: WorkDistribution) -> float:
    return float(dist.probabilities @ dist.support)


def variance_work(dist: WorkDistribution) -> float:
    mean = mean_work(dist)
    return float(dist.probabilities @ (dist.support - mean) ** 2)


@dataclass(frozen=True)
class WorkMoments:
    """Mean and variance of the driven ("cd") and adiabatic work."""

    mean_cd: float
    var_cd: float
    mean_ad: float
    var_ad: float

    @property
    def excess(self) -> float:
        return self.var_cd - self.var_ad


def _weighted_moments(values, probs):
    probs = np.where(probs > PROB_FLOOR, probs, 0.0)
    mean = float(np.sum(probs * values))
    return mean, float(np.sum(probs * (values - mean) ** 2))


def work_moments(model, ensemble, t: float) -> WorkMoments:
    """Both processes' work mean and variance in one pass over the
    transition matrix: sum_nm p_n p_{n->m} (E_m(t) - eps_n(0))^k for cd,
    sum_n p_n (eps_n(t) - eps_n(0))^k for the adiabatic reference.

    Weights at or below PROB_FLOOR are dropped, and basis leakage raises
    TruncationError, exactly as in work_distribution.
    """
    tm = transition_matrix(model, ensemble, t)
    n_keep = ensemble.n_levels
    e_init = model.spectrum0_at(0.0).energies[:n_keep]
    e_cd = model.spectrum_cd_at(t).energies
    mean_cd, var_cd = _weighted_moments(
        e_cd[None, :] - e_init[:, None],
        ensemble.weights[:, None] * tm.probabilities)
    mean_ad, var_ad = _weighted_moments(
        model.spectrum0_at(t).energies[:n_keep] - e_init,
        ensemble.weights)
    return WorkMoments(mean_cd, var_cd, mean_ad, var_ad)


def excess_variance_direct(model, ensemble, t: float) -> float:
    """Var[W(t)] - Var[W(t)]_adiabatic from the transition matrix."""
    return work_moments(model, ensemble, t).excess


def excess_variance_geometric(model, ensemble, t: float) -> float:
    """The same excess from the geometric route:
    sum_n p_n g^(n)_mu_nu lamdot^mu lamdot^nu (hbar = 1)."""
    lamdot = model.protocol.derivative(t)
    if not np.any(lamdot):
        return 0.0
    levels = np.arange(ensemble.n_levels)
    tensors = qgt_levels(model, levels, t)
    rates = np.einsum("m,lmn,n->l", lamdot, tensors.real, lamdot)
    return float(ensemble.weights @ rates)


def identity_check_rowsum(model, ensemble, t: float) -> float:
    """max_n |sum_m p_{n->m} (E_m(t) - eps_n(t))|.

    Vanishes identically because the auxiliary term has zero diagonal in
    the instantaneous basis; the return value is the numerical residual.
    """
    tm = transition_matrix(model, ensemble, t)
    e_cd = model.spectrum_cd_at(t).energies
    e_now = model.spectrum0_at(t).energies[: ensemble.n_levels]
    sums = tm.probabilities @ e_cd - e_now
    return float(np.abs(sums).max())


@dataclass(frozen=True)
class EnergyFluctuations:
    """Second moments of the driving Hamiltonian in the evolved state,
    and the driven work moments they fix.

    excess = sum_n p_n (<H_cd^2>_n - eps_n(t)^2) equals the direct excess
    of work fluctuations; variance_cd - excess = Var(H0) >= 0 in the
    same state.  work_mean_cd and work_var_cd are the mean and variance
    of the driven work E_m(t) - eps_n(0).
    """

    variance_cd: float
    excess: float
    variance_h0: float
    work_mean_cd: float
    work_var_cd: float


def _norms2(vectors):
    return np.einsum("dn,dn->n", vectors.conj(), vectors).real


def ensemble_energy_variance(model, ensemble, t: float) -> EnergyFluctuations:
    """Energy fluctuations of H_cd (and H0) in the evolved ensemble
    rho(t) = sum_n p_n |n(t)><n(t)|, and the driven work moments, all
    from H_cd |n(t)>: the work has mean sum_n p_n (<H_cd>_n - eps_n(0))
    and variance sum_n p_n ||(H_cd - eps_n(0) - mean)|n(t)>||^2.
    Basis leakage raises TruncationError, as in transition_matrix."""
    _check_leakage(model, ensemble, t)
    n_keep = ensemble.n_levels
    spec0 = model.spectrum0_at(t)
    states = spec0.states[:, :n_keep]
    p = ensemble.weights
    e_now = spec0.energies[:n_keep]
    e_init = model.spectrum0_at(0.0).energies[:n_keep]

    h_cd_states = model.h_cd_at(t) @ states
    first_n = np.einsum("dn,dn->n", states.conj(), h_cd_states).real
    first = float(p @ first_n)
    second_cd = float(p @ _norms2(h_cd_states))
    second_h0 = float(p @ e_now**2)
    mean_h0 = float(p @ e_now)
    work_mean = float(p @ (first_n - e_init))
    work_var = float(p @ _norms2(h_cd_states
                                 - states * (e_init + work_mean)))
    return EnergyFluctuations(second_cd - first**2,
                              second_cd - second_h0,
                              second_h0 - mean_h0**2,
                              work_mean, work_var)


def fluctuation_series(model, ensemble, grid) -> dict[str, np.ndarray]:
    """Work moments and the driving Hamiltonian's energy variance at
    every time of a grid, in one pass.  Columns: t, mean_cd, mean_ad,
    var_cd, var_ad, excess_direct, energy_variance_cd.  All but the
    adiabatic moments come from ``ensemble_energy_variance``."""
    grid = np.asarray(grid, dtype=float)
    n_keep = ensemble.n_levels
    e_init = model.spectrum0_at(0.0).energies[:n_keep]
    values = []
    for t in grid:
        fl = ensemble_energy_variance(model, ensemble, t)
        mean_ad, var_ad = _weighted_moments(
            model.spectrum0_at(t).energies[:n_keep] - e_init,
            ensemble.weights)
        values.append((fl.work_mean_cd, mean_ad, fl.work_var_cd, var_ad,
                       fl.excess, fl.variance_cd))
    names = ("mean_cd", "mean_ad", "var_cd", "var_ad", "excess_direct",
             "energy_variance_cd")
    return {"t": grid, **dict(zip(names, np.array(values).T))}
