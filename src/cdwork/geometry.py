"""Quantum geometric tensor, the ensemble's geometric rates, path
lengths, Uhlmann fidelity and the speed-limit inequality chain.

Every geometric quantity is built from one helper, ``_coupling_rows``:
over a block of times, the coupling rows <n|dH0/dlam_mu|k> and the gaps
eps_k - eps_n, one sector at a time (``model.coupling_rows``), where a
sector is a set of levels that dH0 does not couple to the rest: the
oscillator's two parity sectors, or all levels of a dense model.  It
refuses (DegeneracyError) any requested level with a partner, in any
sector, within DEGENERACY_TOL of the spectral scale, so every gap it
hands out is safe to divide by.  From the rows:

  * ``qgt``: the per-level tensor
        Q_mu_nu(n) = sum_{k != n} <n|dH0/dlam_mu|k><k|dH0/dlam_nu|n>
                                  / (eps_k - eps_n)^2,
    whose real part g is the metric that controls the quadratic decay of
    eigenstate fidelity;
  * ``ensemble_rates``: with lamdot contracted, the rates of the two
    path lengths at each time of a block: sum_n p_n g^(n) lamdot
    lamdot, the counterdiabatic excess of the work variance, and eta's
    rate, whose mixed-state metric carries the (p_n - p_k)^2/(p_n + p_k)
    weights (populations are constant under counterdiabatic driving, so
    the classical term drops).

Both rates are weighted by the populations, so a pair (n, k) counts only
if one of its levels is populated: the rows are those of each sector's
lowest min(K, m) of its m levels, which hold its share of the
ensemble's K retained ones, instead of V^dagger dH0 V.
``path_lengths`` integrates the square roots of the rates to eta and
ell by nested Clenshaw-Curtis rules, whose finer levels reuse every
node of the coarser ones and take each level's new nodes as one block,
and ``chain_lengths`` adds the endpoint Bures length arccos sqrt(F),
taken from the K retained eigenvectors at each end.
They obey bures <= eta <= ell, and tau times the time-averaged excess
work-fluctuation amplitude equals ell exactly (hbar = 1 units);
``bound_chain`` assembles that chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, NotAState
from .quadrature import clenshaw_curtis, simpson
from .spectral import DEGENERACY_TOL
from .workstats import fluctuation_series


@dataclass(frozen=True)
class GeometricTensor:
    """Per-level tensor Q (complex Hermitian in the parameter indices)
    and its real part g (symmetric PSD)."""

    q: np.ndarray
    g: np.ndarray


def _coupling_rows(model, times, levels):
    """Over a block of times, per sector of ``model.coupling_rows``: the
    level index of each of the sector's m eigenvectors, shape (B, m);
    the coupling rows <n|dH0/dlam_mu|l> of its lowest eigenvectors n up
    to the highest of the ``levels`` (at most m of them) against all its
    l, shape (B, P, k, m); and the gaps eps_l - eps_n, shape (B, k, m),
    infinite at l = n.

    Raises DegeneracyError naming, at the first time that has one, the
    first requested level with another level (of any sector) within
    DEGENERACY_TOL of the spectral scale: its nearest partner is a
    neighbour in the ascending spectrum.
    """
    levels = np.asarray(levels, dtype=int)
    spectra = model.spectra0_at(times)
    energies = np.array([spec.energies for spec in spectra])
    edges = np.pad(energies, ((0, 0), (1, 1)),
                   constant_values=(-np.inf, np.inf))
    nearest = np.minimum(energies - edges[:, :-2], edges[:, 2:] - energies)
    scale = np.maximum(np.maximum(np.abs(energies[:, 0]),
                                  np.abs(energies[:, -1])), 1e-300)
    bad = np.argwhere(nearest[:, levels] < DEGENERACY_TOL * scale[:, None])
    if bad.size:
        at, which = bad[0]
        raise DegeneracyError(f"level {levels[which]} is near-degenerate at "
                              f"t={times[at]:g}")
    out = []
    for index, rows in model.coupling_rows(times, spectra, levels.max() + 1):
        e = np.take_along_axis(energies, index, axis=1)
        diagonal = np.arange(rows.shape[2])
        gaps = e[:, None, :] - e[:, diagonal, None]
        gaps[:, diagonal, diagonal] = np.inf
        out.append((index, rows, gaps))
    return out


def qgt(model, level: int, t: float) -> GeometricTensor:
    """Geometric tensor of one level, a one-point call of the coupling
    rows.  By Hermiticity the column <k|dH0/dlam_nu|n> is the conjugate
    of row n, so
    Q_mu_nu(n) = sum_k M_mu[n, k] conj(M_nu[n, k]) / (eps_k - eps_n)^2,
    summed over the level's sector, outside which M vanishes."""
    for index, rows, gaps in _coupling_rows(model, [t], [level]):
        column = np.flatnonzero(index[0, :rows.shape[2]] == level)
        if column.size:
            m, inverse = rows[0, :, column[0]], 1.0 / gaps[0, column[0]] ** 2
            break
    q = np.einsum("ak,bk,k->ab", m, m.conj(), inverse)
    g = 0.5 * (q.real + q.real.T)
    return GeometricTensor(q, g)


@dataclass(frozen=True)
class FidelityDecay:
    """Richardson check of the quadratic eigenstate-fidelity decay."""

    residual: float
    order: float


def fidelity_decay_check(model, level: int, t: float, dt: float) -> FidelityDecay:
    """Verify 1 - |<n(t)|n(t+dt)>| = g lamdot lamdot dt^2 / 2 + O(dt^3).

    Returns the residual at dt and the observed convergence order
    log2(residual(dt) / residual(dt/2)), which should approach 3.
    """
    g = qgt(model, level, t).g
    lamdot = model.protocol.derivative(t)
    rate = float(lamdot @ g @ lamdot)
    v0 = model.spectrum0_at(t).columns(level + 1)[:, level]

    def residual(h):
        v1 = model.spectrum0_at(t + h).columns(level + 1)[:, level]
        decay = 1.0 - abs(np.vdot(v0, v1))
        return abs(decay - 0.5 * rate * h * h)

    r1, r2 = residual(dt), residual(dt / 2.0)
    order = np.log2(r1 / r2) if r2 > 0 else np.inf
    return FidelityDecay(r1, float(order))


def ensemble_rates(model, ensemble, times):
    """(eta_rate, metric_rate) at each of ``times``, arrays of its
    shape: the squared speeds of eta and ell.

    metric_rate = sum_n p_n g^(n) lamdot lamdot is the counterdiabatic
    excess of the work variance.  Both come from the coupling rows of
    each sector's lowest min(K, m) eigenvectors, which hold the sector's
    populated levels among the K retained ones: pairs in different
    sectors do not couple, and the row count does not depend on the
    block, so a block gives the bits of its points called one by one.
    With a_nk = |<n|dH0/dt|k>|^2 / (eps_k - eps_n)^2 and the symmetric
    weights w_nk = (p_n - p_k)^2/(p_n + p_k), which vanish when neither
    level is populated, eta's sum over all pairs is (1/2) sum_nk w a =
    sum_{n populated, all k} w a - (1/2) sum_{n, k populated} w a: the
    populated rows count each pair with both levels populated twice.  A
    populated level with a near-degenerate partner raises
    DegeneracyError (see ``_coupling_rows``).
    """
    times = np.asarray(times, dtype=float)
    flat = times.reshape(-1)
    n_rows = ensemble.n_levels
    weights = np.zeros(model.dim)
    weights[:n_rows] = ensemble.weights
    lamdot = np.array([model.protocol.derivative(t) for t in flat])
    eta = metric = 0.0
    for index, rows, gaps in _coupling_rows(model, flat, np.arange(n_rows)):
        p, populated = weights[index], index < n_rows
        # the populated levels lead each point's sector columns; only the
        # block's most populated rows are formed, and the row sums padded
        # to the k rows, so the sums over rows do not depend on the block
        k = rows.shape[2]
        c = populated[:, :k].sum(axis=1).max()
        m_dot = np.einsum("bp,bpkl->bkl", lamdot, rows[:, :, :c])
        a = np.abs(m_dot) ** 2 / gaps[:, :c] ** 2
        pn, pk = p[:, :c, None], p[:, None, :]
        den = pn + pk
        wa = np.divide((pn - pk) ** 2, den, out=np.zeros_like(den),
                       where=den > 0) * a
        sums = np.zeros((3, len(flat), k))
        sums[0, :, :c] = a.sum(axis=2)
        sums[1, :, :c] = wa.sum(axis=2)
        sums[2, :, :c] = np.where(populated[:, None, :k], wa[:, :, :k],
                                  0.0).sum(axis=2)
        metric = metric + np.sum(p[:, :k] * sums[0], axis=1)
        eta = eta + np.sum(np.where(populated[:, :k],
                                    sums[1] - 0.5 * sums[2], 0.0), axis=1)
    return eta.reshape(times.shape), metric.reshape(times.shape)


def path_lengths(model, ensemble, *,
                 rel_tol: float = 1e-8) -> tuple[float, float]:
    """(eta, ell) of the model's protocol: the square roots of
    ``ensemble_rates``, analytic in t on a smooth ramp, integrated
    together by nested Clenshaw-Curtis rules
    (``quadrature.clenshaw_curtis``), which reuse every node of the
    coarser levels; each level's new nodes are one block of spectra and
    coupling rows."""
    def speeds(times):
        rates = np.stack(ensemble_rates(model, ensemble, times), axis=-1)
        return np.sqrt(np.maximum(rates, 0.0))

    out = clenshaw_curtis(speeds, 0.0, model.tau, rel_tol=rel_tol)
    return float(out[0]), float(out[1])


# -- mixed-state fidelity ------------------------------------------------

def _state_sqrt(rho: np.ndarray) -> np.ndarray:
    """sqrt(rho), checked to be a state; a real rho stays real."""
    atol = 1e-10  # absolute tolerance of the state checks
    rho = np.asarray(rho)
    rho = rho.astype(np.result_type(rho, 1.0), copy=False)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise NotAState("density matrix must be square")
    if np.linalg.norm(rho - rho.conj().T) > atol * max(1.0, np.linalg.norm(rho)):
        raise NotAState("density matrix must be Hermitian")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > atol:
        raise NotAState(f"trace {tr!r} deviates from one")
    e, v = np.linalg.eigh(rho)
    if e.min() < -atol:
        raise NotAState(f"negative eigenvalue {e.min():.3g}")
    # below eigh's rounding floor: zeros of a low-rank state
    floor = rho.shape[0] * np.finfo(float).eps * e.max()
    return (v * np.sqrt(np.where(e < floor, 0.0, e))) @ v.conj().T


def _trace_norm_fidelity(m: np.ndarray) -> float:
    """(tr |m|)^2, the squared sum of m's singular values, capped at 1:
    the Uhlmann fidelity of two states whose factors' product is m."""
    return min(float(np.linalg.svd(m, compute_uv=False).sum() ** 2), 1.0)


def bures_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Evaluated as the squared trace norm of sqrt(rho) sqrt(sigma), which
    is the same quantity but symmetric in the arguments by construction
    and well conditioned when either state is near singular.
    """
    return _trace_norm_fidelity(_state_sqrt(rho) @ _state_sqrt(sigma))


def density_factor(model, ensemble, t: float) -> np.ndarray:
    """A = V sqrt(p), shape (d, K): the first K instantaneous
    eigenvectors at t, each scaled by the root of its initial
    population, so that A A^dagger is the density that counterdiabatic
    driving carries there (the populations stay on their levels)."""
    return (model.spectrum0_at(t).columns(ensemble.n_levels)
            * np.sqrt(ensemble.weights))


def bures_length(a: np.ndarray, b: np.ndarray) -> float:
    """arccos sqrt(F), the Riemannian distance induced by fidelity,
    between the densities a a^dagger and b b^dagger of two factors
    (``density_factor``).  By Uhlmann's theorem (Rep. Math. Phys. 9, 273
    (1976)) F is the squared trace norm of a^dagger b, a K x K product
    for rank-K factors, so no d x d density is formed or decomposed.
    The arguments are factors A with rho = A A^dagger, not densities:
    given two densities it takes F = ||rho^dagger sigma||_tr^2, which is
    not their fidelity (``bures_fidelity`` takes densities)."""
    return float(np.arccos(np.sqrt(_trace_norm_fidelity(a.conj().T @ b))))


# -- speed-limit report ----------------------------------------------------

EQUALITY_TOL = 1e-6
CHAIN_TOL = 1e-8


@dataclass(frozen=True)
class SpeedLimitReport:
    """All pieces of the duration bound chain for one run.

    equality_residual is |tau <dDW> - ell| / ell, and equality_ok holds
    when it is at most EQUALITY_TOL; the ordering flags check
    tau >= bures/<dDW> >= bures/<dE_cd>, and chain_ok checks
    bures <= eta <= ell up to CHAIN_TOL * max(length, 1).  At the
    figure-1 point the residual (1.896e-10 at every duration, spread
    below 1e-15) is all error of the composite-Simpson time average
    (``quadrature.simpson``) on the 401-point grid, which falls 16x per
    doubling of the grid.  ell matches its closed form to about 1e-16,
    and the excess is the norm sum_n p_n ||(H_cd - eps_n)|n>||^2, which
    resolves it to about 1e-17 at the ramp ends, so no rounding shows in
    the residual.
    """

    tau: float
    ell: float
    eta_len: float
    bures_len: float
    avg_excess_dev: float
    avg_energy_dev: float
    bound_from_excess: float
    bound_from_energy: float
    equality_residual: float
    chain_ok: bool
    ordering_ok: bool
    equality_ok: bool

    @property
    def passed(self) -> bool:
        return self.chain_ok and self.ordering_ok and self.equality_ok


def bound_chain(series: dict, bures: float, eta: float,
                ell: float) -> SpeedLimitReport:
    """The bound chain from the three path lengths of ``chain_lengths``
    and the excess- and energy-deviation columns of
    ``workstats.fluctuation_series`` on a uniform grid from 0 to tau,
    time-averaged by ``quadrature.simpson``.

    A constant path (ell = 0) has coinciding endpoints and nothing to
    bound: its report carries zero bounds and residual and sets every
    flag, whatever arccos rounding near F = 1 left in bures.
    """
    grid = series["t"]
    tau = float(grid[-1])
    avg_excess = simpson(series["excess_dev"], grid) / tau
    avg_energy = simpson(series["energy_dev"], grid) / tau
    if ell == 0.0:
        return SpeedLimitReport(tau, ell, eta, bures, avg_excess, avg_energy,
                                0.0, 0.0, 0.0, True, True, True)
    bound_excess = bures / avg_excess if avg_excess > 0 else 0.0
    bound_energy = bures / avg_energy if avg_energy > 0 else 0.0
    residual = abs(tau * avg_excess - ell) / ell
    chain_ok = (bures <= eta + CHAIN_TOL * max(eta, 1.0)
                and eta <= ell + CHAIN_TOL * max(ell, 1.0))
    ordering_ok = (tau >= bound_excess * (1.0 - 1e-12)
                   and bound_excess >= bound_energy * (1.0 - 1e-12))
    equality_ok = residual <= EQUALITY_TOL
    return SpeedLimitReport(tau, ell, eta, bures, avg_excess, avg_energy,
                            bound_excess, bound_energy, residual,
                            chain_ok, ordering_ok, equality_ok)


def chain_lengths(model, ensemble, *,
                  rel_tol: float = 1e-8) -> tuple[float, float, float]:
    """(bures, eta, ell): the endpoint Bures length of the evolved
    densities, from the K retained columns at each end
    (``density_factor``, ``bures_length``), and ``path_lengths``.  The
    endpoint spectra are solved first, so a model whose store holds a
    grid from 0 to tau reuses them before the quadrature nodes can evict
    them."""
    bures = bures_length(density_factor(model, ensemble, 0.0),
                         density_factor(model, ensemble, model.tau))
    return (bures, *path_lengths(model, ensemble, rel_tol=rel_tol))


def speed_limit_report(model, ensemble, *,
                       grid_points: int) -> SpeedLimitReport:
    """Assemble the full bound chain for the model's protocol.

    The time averages come from the work fluctuations (the operator
    route of ``workstats.fluctuation_series``) on a uniform grid
    (``quadrature.simpson``), so the equality check against the
    geometric length is a genuine cross-validation of two independent
    computations.
    """
    series = fluctuation_series(
        model, ensemble, np.linspace(0.0, model.tau, grid_points))
    return bound_chain(series, *chain_lengths(model, ensemble))
