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
completeness sum_m p_{n->m} E_m(t)^k = <n(t)|H_cd^k|n(t)>, and as
H0|n(t)> = eps_n(t)|n(t)>, every moment follows from U = H1|n(t)>: H1
does no mean work (Re<n|U> = 0, its zero diagonal) and adds
sum_n p_n ||U||^2 to the work variance.  ``fluctuation_series`` reduces
both over blocks of grid points, and ``fluctuation_sweep`` covers a
sweep over ramp durations in the same pass, since H1 scales as 1/tau at
fixed ramp progress.  The transition matrix is the independent oracle:
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


def _leakage(model, states: np.ndarray, times=None) -> np.ndarray:
    """Worst mass the columns of each (d, K) block of ``states`` put on
    the truncation-polluted top of the basis; given the blocks' times,
    TruncationError names the first time above DEFICIT_TOL."""
    cap = int(TRUSTED_FRACTION * model.dim)
    if not getattr(model, "truncated", False) or cap >= model.dim:
        return np.zeros(len(states))
    top = states[:, cap:, :]
    leaks = (top.real**2 + top.imag**2).sum(axis=1).max(axis=1)
    bad = np.flatnonzero(leaks > DEFICIT_TOL) if times is not None else []
    if len(bad):
        raise TruncationError(
            f"a retained eigenstate leaks {leaks[bad[0]]:.3g} of its mass "
            f"into the top of the basis at t={times[bad[0]]:g}; enlarge the "
            f"Fock basis")
    return leaks


def basis_leakage(model, ensemble, t: float) -> float:
    """Worst mass any retained instantaneous eigenstate puts on the
    truncation-polluted top of the basis coordinates (zero for models
    that carry their complete Hilbert space): the error indicator of
    every spectra-derived quantity, since transition-matrix rows sum to
    one whatever the truncation."""
    states = model.spectrum0_at(t).states[None, :, : ensemble.n_levels]
    return float(_leakage(model, states)[0])


def transition_matrix(model, ensemble, t: float) -> TransitionMatrix:
    """Overlap-squared matrix |<Psi_m(t)|n(t)>|^2.

    Rows cover the ensemble's retained levels.  Raises TruncationError
    when a retained eigenstate leaks more than DEFICIT_TOL of its mass
    into the top of the basis coordinates (the basis is then too small
    for the requested state).
    """
    spec0 = model.spectrum0_at(t)
    n_keep = ensemble.n_levels
    leak = float(_leakage(model, spec0.states[None, :, :n_keep], [t])[0])
    spec_cd = model.spectrum_cd_at(t)
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
    """Mean and variance along the last axis; weights at or below
    PROB_FLOOR are dropped."""
    probs = np.where(probs > PROB_FLOOR, probs, 0.0)
    mean = np.sum(probs * values, axis=-1)
    return mean, np.sum(probs * (values - mean[..., None]) ** 2, axis=-1)


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
        (e_cd[None, :] - e_init[:, None]).ravel(),
        (ensemble.weights[:, None] * tm.probabilities).ravel())
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


# grid points per fluctuation-kernel block; whole-grid arrays ran slower
BLOCK_POINTS = 16


def _real_dots(a, b):
    """Re <a_k|b_k> for the columns of two (B, d, K) blocks, shape (B, K)."""
    flat = np.einsum("bdk,bdk->bk", a.view(float), b.view(float))
    return flat.reshape(a.shape[0], -1, 2).sum(axis=-1)


def fluctuation_sweep(model, ensemble, grid, durations) -> list[dict]:
    """Per duration, the columns of ``fluctuation_series`` but t, from
    one kernel pass over ``grid``, the model's own time grid.

    Contract: the durations share one ramp shape, lambda_tau(t) =
    Lambda(t / tau), as every ramp in ``protocols`` does.  Row j of
    duration tau is then at the progress s_j = grid[j] / model.tau, with
    the model's H0 and v = model.tau / tau times its H1 = lamdot A(lambda).
    Per BLOCK_POINTS points the kernel gathers the K retained |n>, checks
    their basis leakage and reduces Re<n|U> and ||U||^2 of U = H1|n>
    (``model.apply_h1``).  As H0|n> = eps_n|n>, (H_cd - eps_n)|n> = v U,
    and every fluctuation is a norm sum_n p_n ||(H_cd - c_n)|n>||^2 =
    sum_n p_n (v^2 ||U||^2 + 2 g_n v Re<n|U> + g_n^2), g_n = eps_n - c_n:
    c_n = eps_n for the excess, eps_n(0) + mean_cd for var_cd and <H_cd>
    for energy_variance_cd.
    """
    grid = np.asarray(grid, dtype=float)
    n_keep, p = ensemble.n_levels, ensemble.weights
    e_init = model.spectrum0_at(0.0).energies[:n_keep]
    size = max(min(BLOCK_POINTS, len(grid)), 1)
    states = np.empty((size, model.dim, n_keep), dtype=complex)
    h1_states = np.empty_like(states)
    e_now = np.empty((len(grid), n_keep))
    # Re<n|U> and ||U||^2 per point and level
    dots1, norms1 = np.empty((2, len(grid), n_keep))
    for start in range(0, len(grid), size):
        times = grid[start:start + size]
        rows, b = slice(start, start + len(times)), len(times)
        for i, t in enumerate(times):
            spec = model.spectrum0_at(t)
            states[i] = spec.states[:, :n_keep]
            e_now[start + i] = spec.energies[:n_keep]
        psi = states[:b]
        _leakage(model, psi, times)
        u = model.apply_h1(times, psi, h1_states[:b])
        dots1[rows], norms1[rows] = _real_dots(psi, u), _real_dots(u, u)

    mean_ad, var_ad = _weighted_moments(e_now - e_init, p)
    variance_h0 = _weighted_moments(e_now, p)[1]
    out = []
    for tau in durations:
        v = model.tau / tau
        dots, norms = v * dots1, v * v * norms1

        def spread(centre):
            gap = e_now - centre
            return np.sum(p * (norms + 2.0 * gap * dots + gap**2), axis=-1)

        mean_cd = np.sum(p * (e_now + dots - e_init), axis=-1)
        out.append({"mean_cd": mean_cd, "mean_ad": mean_ad,
                    "var_cd": spread(e_init + mean_cd[:, None]),
                    "var_ad": var_ad, "excess_direct": spread(e_now),
                    "energy_variance_cd": spread(
                        np.sum(p * (e_now + dots), axis=-1)[:, None]),
                    "variance_h0": variance_h0})
    return out


def fluctuation_series(model, ensemble, grid) -> dict[str, np.ndarray]:
    """Work moments and energy fluctuations at every time of a grid, the
    one-duration call (v = 1) of ``fluctuation_sweep``.  Columns: t;
    mean_cd, mean_ad, var_cd and var_ad of the driven work E_m(t) -
    eps_n(0) and its adiabatic reference; excess_direct = sum_n p_n
    ||H1|n(t)>||^2; energy_variance_cd and variance_h0, the variances of
    H_cd and H0 in rho(t) = sum_n p_n |n(t)><n(t)|, where
    energy_variance_cd - excess_direct = variance_h0 >= 0."""
    grid = np.asarray(grid, dtype=float)
    return {"t": grid,
            **fluctuation_sweep(model, ensemble, grid, [model.tau])[0]}
