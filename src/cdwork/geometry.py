"""Quantum geometric tensor, the ensemble's geometric rates, path
lengths, Uhlmann fidelity and the speed-limit inequality chain.

Every geometric quantity is built from one helper, ``_coupling_rows``: the
coupling rows <n|dH0/dlam_mu|k> of the requested levels n against every
level k, with the gaps eps_k - eps_n.  It refuses (DegeneracyError) any
requested level with a partner within DEGENERACY_TOL of the spectral
scale, so every gap it hands out is safe to divide by.  From the rows:

  * ``qgt``: the per-level tensor
        Q_mu_nu(n) = sum_{k != n} <n|dH0/dlam_mu|k><k|dH0/dlam_nu|n>
                                  / (eps_k - eps_n)^2,
    whose real part g is the metric that controls the quadratic decay of
    eigenstate fidelity;
  * ``ensemble_rates``: with lamdot contracted, the rates of the two
    path lengths at one time: sum_n p_n g^(n) lamdot lamdot, the
    counterdiabatic excess of the work variance, and eta's rate, whose
    mixed-state metric carries the (p_n - p_k)^2/(p_n + p_k) weights
    (populations are constant under counterdiabatic driving, so the
    classical term drops).

Both rates are weighted by the populations, so a pair (n, k) counts only
if one of its levels is populated: the rows are those of the ensemble's
retained prefix of K levels, a K x d array instead of V^dagger dH0 V.
``path_lengths`` integrates the square roots of the rates to eta and
ell by nested Clenshaw-Curtis rules, whose finer levels reuse every
node of the coarser ones, and ``chain_lengths`` adds the endpoint
Bures length arccos sqrt(F).  They obey bures <= eta <= ell, and tau
times the time-averaged excess work-fluctuation amplitude equals ell
exactly (hbar = 1 units); ``bound_chain`` assembles that chain.
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


def _coupling_rows(model, t, levels):
    """Per parameter mu, the coupling rows <n|dH0/dlam_mu|k> of the
    ``levels`` n against every level k, shape (L, d) each, and the gaps
    eps_k - eps_n, shape (L, d), infinite at k = n.

    Raises DegeneracyError naming the first requested level that has
    another level within DEGENERACY_TOL of the spectral scale.
    """
    levels = np.asarray(levels, dtype=int)
    spec = model.spectrum0_at(t)
    e = spec.energies
    gaps = e[None, :] - e[levels, None]
    gaps[np.arange(len(levels)), levels] = np.inf
    scale = max(abs(e[0]), abs(e[-1]), 1e-300)
    bad = np.flatnonzero((np.abs(gaps) < DEGENERACY_TOL * scale).any(axis=1))
    if bad.size:
        raise DegeneracyError(
            f"level {levels[bad[0]]} is near-degenerate at t={t:g}")
    bras = spec.states[:, levels].conj().T
    return [(bras @ p) @ spec.states for p in model.dh0_dlambda_at(t)], gaps


def qgt(model, level: int, t: float) -> GeometricTensor:
    """Geometric tensor of one level.  By Hermiticity the column
    <k|dH0/dlam_nu|n> is the conjugate of row n, so
    Q_mu_nu(n) = sum_k M_mu[n, k] conj(M_nu[n, k]) / (eps_k - eps_n)^2."""
    rows, gaps = _coupling_rows(model, t, [level])
    m = np.stack(rows)[:, 0]
    q = np.einsum("ak,bk,k->ab", m, m.conj(), 1.0 / gaps[0] ** 2)
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
    v0 = model.spectrum0_at(t).states[:, level]

    def residual(h):
        v1 = model.spectrum0_at(t + h).states[:, level]
        decay = 1.0 - abs(np.vdot(v0, v1))
        return abs(decay - 0.5 * rate * h * h)

    r1, r2 = residual(dt), residual(dt / 2.0)
    order = np.log2(r1 / r2) if r2 > 0 else np.inf
    return FidelityDecay(r1, float(order))


def ensemble_rates(model, ensemble, t: float) -> tuple[float, float]:
    """(eta_rate, metric_rate) at t: the squared speeds of eta and ell.

    metric_rate = sum_n p_n g^(n) lamdot lamdot is the counterdiabatic
    excess of the work variance.  Both come from the coupling rows of the
    K populated levels.  With a_nk = |<n|dH0/dt|k>|^2 / (eps_k - eps_n)^2
    and the symmetric weights w_nk = (p_n - p_k)^2/(p_n + p_k), which
    vanish when neither level is populated, eta's sum over all pairs is
    (1/2) sum_nk w a = sum_{n<K, all k} w a - (1/2) sum_{n<K, k<K} w a:
    the rows count each pair with both levels populated twice.  A
    populated level with a near-degenerate partner raises
    DegeneracyError (see ``_coupling_rows``).
    """
    weights = ensemble.weights
    n_rows = ensemble.n_levels
    rows, gaps = _coupling_rows(model, t, np.arange(n_rows))
    m_dot = np.tensordot(model.protocol.derivative(t), np.array(rows), 1)
    a = np.abs(m_dot) ** 2 / gaps**2
    metric_rate = float(weights @ a.sum(axis=1))
    p = np.zeros(gaps.shape[1])
    p[:n_rows] = weights
    pn, pk = weights[:, None], p[None, :]
    den = pn + pk
    wmat = np.divide((pn - pk) ** 2, den, out=np.zeros_like(den),
                     where=den > 0)
    wa = wmat * a
    eta_rate = float(wa.sum()) - 0.5 * float(wa[:, :n_rows].sum())
    return eta_rate, metric_rate


def path_lengths(model, ensemble, *,
                 rel_tol: float = 1e-8) -> tuple[float, float]:
    """(eta, ell) of the model's protocol: the square roots of
    ``ensemble_rates``, analytic in t on a smooth ramp, integrated
    together by nested Clenshaw-Curtis rules
    (``quadrature.clenshaw_curtis``), which reuse every node of the
    coarser levels; a node costs one spectrum and its coupling rows."""
    out = clenshaw_curtis(
        lambda t: np.sqrt(np.maximum(ensemble_rates(model, ensemble, t), 0.0)),
        0.0, model.tau, rel_tol=rel_tol)
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


def bures_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Evaluated as the squared trace norm of sqrt(rho) sqrt(sigma), which
    is the same quantity but symmetric in the arguments by construction
    and well conditioned when either state is near singular.
    """
    singulars = np.linalg.svd(_state_sqrt(rho) @ _state_sqrt(sigma),
                              compute_uv=False)
    return min(float(singulars.sum() ** 2), 1.0)


def bures_length(rho: np.ndarray, sigma: np.ndarray) -> float:
    """arccos sqrt(F): the Riemannian distance induced by fidelity."""
    return float(np.arccos(np.sqrt(bures_fidelity(rho, sigma))))


def evolved_density(model, ensemble, t: float) -> np.ndarray:
    """Density matrix with the initial populations carried onto the
    instantaneous eigenstates at time t (what counterdiabatic driving
    produces)."""
    states = model.spectrum0_at(t).states[:, : ensemble.weights.shape[0]]
    return (states * ensemble.weights) @ states.conj().T


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
    densities and ``path_lengths``.  The endpoint spectra are solved
    first, so a model whose store holds a grid from 0 to tau reuses them
    before the quadrature nodes can evict them."""
    bures = bures_length(evolved_density(model, ensemble, 0.0),
                         evolved_density(model, ensemble, model.tau))
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
