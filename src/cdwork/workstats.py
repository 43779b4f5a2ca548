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
no time propagation.  Two independent routes give its moments:

  * the transition matrix: ``work_moments`` sums
    p_n p_{n->m} (E_m(t) - eps_n(0))^k over it, with the row sums
    sum_m p_{n->m} E_m(t) = eps_n(t), and ``work_distribution`` builds
    the merged atoms;
  * the operator route, which needs no spectrum of H_cd at all: by
    completeness sum_m p_{n->m} E_m(t)^k = <n(t)|H_cd^k|n(t)>, and as
    H0|n(t)> = eps_n(t)|n(t)>, every moment follows from U = H1|n(t)>.
    H1 does no mean work (Re<n|U> = 0, its zero diagonal) and adds
    sum_n p_n ||U||^2 to the work variance.  ``fluctuation_kernel``
    reduces U over blocks of grid points, and ``fluctuation_assembly``
    scales its columns to every duration of one ramp shape, since H1
    scales as 1/tau at fixed ramp progress; ``fluctuation_series`` is
    the pair at the model's own duration.  Kept apart, the kernel pass
    can be cut on a block boundary and run in two lanes.

The geometric form of the same excess, sum_n p_n g^(n) lamdot lamdot, is
``geometry.ensemble_rates``' metric rate, an independent third route
through the coupling rows of dH0 over squared gaps, which
``fluctuation_kernel`` takes per block when passed in.

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
from .spectral import BLOCK_POINTS

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
# work atoms closer than this in energy are merged into one
MERGE_TOL = 1e-9


@dataclass(frozen=True)
class ThermalEnsemble:
    """Boltzmann occupations of the initial eigenlevels.

    ``weights`` covers the retained prefix of levels (renormalized so it
    sums to one); ``tail_bound`` bounds the discarded mass.
    """

    weights: np.ndarray
    tail_bound: float

    @property
    def n_levels(self) -> int:
        return self.weights.shape[0]


def thermal_ensemble(energies: np.ndarray, beta: float, *,
                     complete_spectrum: bool = False) -> ThermalEnsemble:
    """Canonical weights exp(-beta eps_n)/Z over an ascending spectrum;
    beta may be math.inf for a pure ground state.

    For a truncated spectrum (the default reading), levels are kept
    until the cumulative weight reaches 1 - TAIL_TOL, and a
    TruncationError signals that the top of the available spectrum still
    carries weight above TAIL_TOL (the continuing tail cannot then be
    certified).  With ``complete_spectrum`` the energies are the whole
    Hilbert space and every level is kept.
    """
    energies = np.asarray(energies, dtype=float)
    if beta == math.inf:
        return ThermalEnsemble(np.array([1.0]), 0.0)
    if not beta > 0:
        raise ValueError("beta must be positive or math.inf")
    with np.errstate(over="ignore"):  # beta * gap past range: weight 0
        shifted = np.exp(-beta * (energies - energies[0]))
    p = shifted / shifted.sum()
    if complete_spectrum:
        return ThermalEnsemble(p, 0.0)
    if p[-1] > TAIL_TOL:
        raise TruncationError(
            f"top retained level still carries weight {p[-1]:.3g} "
            f"(> {TAIL_TOL:g}); enlarge the basis")
    cum = np.cumsum(p)
    keep = int(np.searchsorted(cum, 1.0 - TAIL_TOL) + 1)
    return ThermalEnsemble(p[:keep] / cum[keep - 1],
                           float(1.0 - cum[keep - 1]))


def model_ensemble(model, beta: float) -> ThermalEnsemble:
    """Thermal ensemble over the model's initial spectrum; models that
    carry their complete Hilbert space skip the truncation bookkeeping."""
    complete = not model.truncated
    return thermal_ensemble(model.spectrum0_at(0.0).energies, beta,
                            complete_spectrum=complete)


def _leakage(model, states: np.ndarray, times=None) -> np.ndarray:
    """Worst mass the columns of each (d, K) block of ``states`` put on
    the truncation-polluted top of the basis; given the blocks' times,
    TruncationError names the first time above DEFICIT_TOL."""
    cap = int(TRUSTED_FRACTION * model.dim)
    if not model.truncated or cap >= model.dim:
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
    states = model.spectrum0_at(t).columns(ensemble.n_levels)[None]
    return float(_leakage(model, states)[0])


def transition_matrix(model, ensemble, t: float) -> np.ndarray:
    """p_{n->m}(t) = |<Psi_m(t)|n(t)>|^2, shape (K, d): the ensemble's
    K retained initial levels n (rows) against every final eigenlevel m
    (columns) of H_cd.  Raises TruncationError
    when a retained eigenstate leaks more than DEFICIT_TOL of its mass
    into the top of the basis coordinates (the basis is then too small
    for the requested state).  The overlaps are the driven spectrum's
    ``transition_probs`` of the retained columns (on the oscillator, one
    parity sector at a time).
    """
    retained = model.spectrum0_at(t).columns(ensemble.n_levels)
    _leakage(model, retained[None], [t])
    return model.spectrum_cd_at(t).transition_probs(retained).T


@dataclass(frozen=True)
class WorkDistribution:
    """Discrete two-point-measurement work distribution."""

    support: np.ndarray
    probabilities: np.ndarray


def _merge_atoms(values, probs):
    order = np.argsort(values, kind="stable")
    values, probs = values[order], probs[order]
    out_v, out_p = [values[0]], [probs[0]]
    for v, p in zip(values[1:], probs[1:]):
        if v - out_v[-1] <= MERGE_TOL:
            out_p[-1] += p
        else:
            out_v.append(v)
            out_p.append(p)
    return np.array(out_v), np.array(out_p)


def work_distribution(model, ensemble, t: float,
                      kind: str = "cd") -> WorkDistribution:
    """P[W(t)] for the driven ("cd") or the adiabatic reference process.

    cd atoms sit at E_m(t) - eps_n(0) with weight p_n p_{n->m};
    adiabatic atoms sit at eps_n(t) - eps_n(0) with weight p_n.  Atoms
    closer than MERGE_TOL in energy are merged; atoms below PROB_FLOOR
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
        probs = (ensemble.weights[:, None] * tm).ravel()
    else:
        raise ValueError(f"unknown kind {kind!r}")
    live = probs > PROB_FLOOR
    values, probs = _merge_atoms(values[live], probs[live])
    return WorkDistribution(values, probs)


@dataclass(frozen=True)
class WorkMoments:
    """Mean and variance of the driven ("cd") and adiabatic work, and
    the row-sum residual max_n |sum_m p_{n->m} (E_m(t) - eps_n(t))|,
    which vanishes identically because the auxiliary term has zero
    diagonal in the instantaneous basis."""

    mean_cd: float
    var_cd: float
    mean_ad: float
    var_ad: float
    rowsum_residual: float

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
    """Both processes' work mean and variance and the row-sum residual
    in one pass over the transition matrix: sum_nm p_n p_{n->m}
    (E_m(t) - eps_n(0))^k for cd, sum_n p_n (eps_n(t) - eps_n(0))^k for
    the adiabatic reference, and the rows' sum_m p_{n->m} E_m(t) against
    eps_n(t).

    Weights at or below PROB_FLOOR are dropped, and basis leakage raises
    TruncationError, exactly as in work_distribution.
    """
    tm = transition_matrix(model, ensemble, t)
    n_keep = ensemble.n_levels
    e_init = model.spectrum0_at(0.0).energies[:n_keep]
    e_now = model.spectrum0_at(t).energies[:n_keep]
    e_cd = model.spectrum_cd_at(t).energies
    mean_cd, var_cd = _weighted_moments(
        (e_cd[None, :] - e_init[:, None]).ravel(),
        (ensemble.weights[:, None] * tm).ravel())
    mean_ad, var_ad = _weighted_moments(e_now - e_init, ensemble.weights)
    return WorkMoments(mean_cd, var_cd, mean_ad, var_ad,
                       float(np.abs(tm @ e_cd - e_now).max()))


def _real_dots(a, b):
    """Re <a_k|b_k> for the columns of two (B, d, K) blocks, shape (B, K)."""
    flat = np.einsum("bdk,bdk->bk", a.view(float), b.view(float))
    return flat.reshape(a.shape[0], -1, 2).sum(axis=-1)


def fluctuation_kernel(model, ensemble, grid,
                       metric_rate=None) -> dict[str, np.ndarray]:
    """The kernel pass over the times ``grid``, in blocks of
    BLOCK_POINTS from its first row, each block's spectra one
    ``model.spectra0_at`` call.  Columns, per point and retained level:
    e_now, the energies eps_n(t); dots and norms, Re<n|U> and ||U||^2
    of U = H1|n> (``model.apply_h1``); and, where ``metric_rate`` is
    given, rates, its values at a block's times, taken in one call per
    block after the block's leakage check.

    A grid cut on a BLOCK_POINTS boundary gives each part's rows of the
    whole grid bit for bit, since every block sees the same times.  The
    pass needs one block's spectra at a time: a store of BLOCK_POINTS + 1
    holds them and t = 0.
    """
    grid = np.asarray(grid, dtype=float)
    n_keep = ensemble.n_levels
    size = max(min(BLOCK_POINTS, len(grid)), 1)
    states = np.empty((size, model.dim, n_keep), dtype=complex)
    h1_states = np.empty_like(states)
    e_now = np.empty((len(grid), n_keep))
    dots, norms = np.empty((2, len(grid), n_keep))
    rates = np.empty(len(grid))
    for start in range(0, len(grid), size):
        times = grid[start:start + size]
        rows, b = slice(start, start + len(times)), len(times)
        for i, spec in enumerate(model.spectra0_at(times)):
            states[i] = spec.columns(n_keep)
            e_now[start + i] = spec.energies[:n_keep]
        psi = states[:b]
        _leakage(model, psi, times)
        if metric_rate is not None:
            rates[rows] = metric_rate(times)
        u = model.apply_h1(times, psi, h1_states[:b])
        dots[rows], norms[rows] = _real_dots(psi, u), _real_dots(u, u)
    out = {"e_now": e_now, "dots": dots, "norms": norms}
    if metric_rate is not None:
        out["rates"] = rates
    return out


def _scaled_root(a, b, c):
    """sqrt(a^2 + 2 b + c^2) for a, c >= 0 and |b| <= a c, taken over the
    scale s = max(a, c) and never squaring it, so that it stays in range
    where a^2 and c^2 underflow; 0 where s is."""
    scale = np.maximum(a, c)
    safe = np.where(scale > 0, scale, 1.0)
    return scale * np.sqrt(np.clip(
        (a / safe) ** 2 + 2.0 * (b / safe) / safe + (c / safe) ** 2,
        0.0, None))


def fluctuation_assembly(ensemble, e_init, kernel, speeds) -> list[dict]:
    """Per speed v, the columns of ``fluctuation_series`` but t from the
    columns of ``fluctuation_kernel`` at v = 1 and the retained initial
    energies ``e_init``, and excess_geometric, v^2 times the kernel's
    rates, where it took them.

    Contract: each speed v = model.tau / tau stands for a duration tau
    of the ramp shape of the kernel's model, lambda_tau(t) =
    Lambda(t / tau), as every ramp in ``protocols`` is; row j is then at
    the progress grid[j] / model.tau, with the model's H0 and v times
    its H1 = lamdot A(lambda).  As H0|n> = eps_n|n>, (H_cd - eps_n)|n> =
    v U, and every fluctuation is a norm sum_n p_n ||(H_cd - c_n)|n>||^2
    = sum_n p_n (v^2 ||U||^2 + 2 g_n v Re<n|U> + g_n^2), g_n = eps_n -
    c_n: c_n = eps_n for the excess, eps_n(0) + mean_cd for var_cd and
    <H_cd> for energy_variance_cd.  excess_dev = v sqrt(sum_n p_n
    ||U||^2) stays in range where v^2 ||U||^2 underflows, and so does
    energy_dev, the root of energy_variance_cd taken as sqrt(A + 2 v B +
    v^2 C) over the scale max(sqrt(A), v sqrt(C)), A, B and C free of
    v."""
    p, e_now = ensemble.weights, kernel["e_now"]
    mean_ad, var_ad = _weighted_moments(e_now - e_init, p)
    mean_h0, var_h0 = _weighted_moments(e_now, p)
    norm_sum = np.sum(p * kernel["norms"], axis=-1)
    # sqrt(sum_n p_n ||U||^2), the excess deviation at v = 1
    deviation = np.sqrt(norm_sum)
    # about c_n = <H_cd>, the energy variance is A + 2 v B + v^2 C: A =
    # Var(H0), B = sum_n p_n (eps_n - <H0>) Re<n|U> and C = sum_n p_n
    # ||U||^2 - (sum_n p_n Re<n|U>)^2
    cross = np.sum(p * (e_now - mean_h0[:, None]) * kernel["dots"], axis=-1)
    spread_u = np.sqrt(np.clip(
        norm_sum - np.sum(p * kernel["dots"], axis=-1) ** 2, 0.0, None))
    spread_h0 = np.sqrt(var_h0)
    out = []
    for v in speeds:
        dots, norms = v * kernel["dots"], v * v * kernel["norms"]

        def spread(centre):
            gap = e_now - centre
            return np.sum(p * (norms + 2.0 * gap * dots + gap**2), axis=-1)

        mean_cd = np.sum(p * (e_now + dots - e_init), axis=-1)
        out.append({"mean_cd": mean_cd, "mean_ad": mean_ad,
                    "var_cd": spread(e_init + mean_cd[:, None]),
                    "var_ad": var_ad, "excess_direct": spread(e_now),
                    "excess_dev": v * deviation,
                    "energy_variance_cd": spread(
                        np.sum(p * (e_now + dots), axis=-1)[:, None]),
                    "energy_dev": _scaled_root(spread_h0, v * cross,
                                               v * spread_u)})
        if "rates" in kernel:
            out[-1]["excess_geometric"] = v * v * kernel["rates"]
    return out


def fluctuation_series(model, ensemble, grid) -> dict[str, np.ndarray]:
    """Work moments and energy fluctuations at every time of a grid:
    one kernel pass (``fluctuation_kernel``) assembled at v = 1
    (``fluctuation_assembly``).  Columns: t; mean_cd, mean_ad, var_cd
    and var_ad of the driven work E_m(t) - eps_n(0) and its adiabatic
    reference; excess_direct = sum_n p_n ||H1|n(t)>||^2 and excess_dev,
    its square root; energy_variance_cd, the variance of H_cd in
    rho(t) = sum_n p_n |n(t)><n(t)|, which exceeds excess_direct by the
    variance of H0 there; and energy_dev, the square root of
    energy_variance_cd."""
    grid = np.asarray(grid, dtype=float)
    e_init = model.spectrum0_at(0.0).energies[:ensemble.n_levels]
    return {"t": grid, **fluctuation_assembly(
        ensemble, e_init, fluctuation_kernel(model, ensemble, grid), [1.0])[0]}
