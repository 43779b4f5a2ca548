"""Quantum geometric tensor, path lengths, Uhlmann fidelity and the
speed-limit inequality chain.

The per-level geometric tensor is computed from the gauge-invariant
second-order perturbative sum

    Q_mu_nu(n) = sum_{k != n} <n|dH0/dlam_mu|k><k|dH0/dlam_nu|n>
                               / (eps_k - eps_n)^2,

whose real part g is the metric that controls both the quadratic decay
of eigenstate fidelity and the excess of work fluctuations under
counterdiabatic driving.  Three path functionals enter the chain:

  * ell = integral sqrt(sum_n p_n g^(n) lamdot lamdot) dt and
  * eta, the mixed-state Riemannian length whose metric carries the
    (p_n - p_k)^2/(p_n + p_k) weights (populations are constant under
    counterdiabatic driving, so the classical term drops), both from
    one quadrature pass in ``path_lengths``,
  * bures_length: arccos sqrt(F) between the endpoint density matrices.

They obey bures <= eta <= ell, and tau times the time-averaged excess
work-fluctuation amplitude equals ell exactly (hbar = 1 units);
``bound_chain`` assembles that chain.

Both lengths are weighted by the level populations: a pair of levels
(n, k) enters ell only through p_n and eta only through
(p_n - p_k)^2/(p_n + p_k), so a pair counts only if one of its levels
is populated.  The geometry is therefore built from coupling rows
<n|dH0/dlam_mu|k> for the populated levels n (the ensemble's retained
prefix of K levels) against every k, a K x d array instead of the
d x d matrix V^dagger dH0 V; the unpopulated rows would only ever be
multiplied by zero weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .errors import DegeneracyError, NotAState
from .quadrature import adaptive_simpson_multi

# relative gap (against the spectral scale) below which a level counts as
# degenerate, where its geometric tensor diverges
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class GeometricTensor:
    """Per-level tensor Q (complex Hermitian in the parameter indices)
    and its real part g (symmetric PSD)."""

    q: np.ndarray
    g: np.ndarray
    level: int


def _coupling_rows(model, t, rows):
    """Spectrum at t and, per parameter mu, the coupling rows
    <n|dH0/dlam_mu|k> for the levels n selected by ``rows`` (an index
    array or a slice) against every level k: shape (K, d) each."""
    spec = model.spectrum0_at(t)
    bras = spec.states[:, rows].conj().T
    return spec, [(bras @ p) @ spec.states
                  for p in model.dh0_dlambda_at(t)]


def qgt_levels(model, levels, t: float) -> np.ndarray:
    """Geometric tensors for several levels at once, shape (L, P, P).

    Needs only the coupling rows of the requested levels: by
    Hermiticity the column <k|dH0/dlam_nu|n> is the conjugate of row n,
    so Q_mu_nu(n) = sum_k M_mu[n, k] conj(M_nu[n, k]) / (eps_k - eps_n)^2.
    Raises DegeneracyError for the first requested level that has
    another level within DEGENERACY_TOL of the spectral scale.
    """
    levels = np.atleast_1d(np.asarray(levels, dtype=int))
    spec, ms = _coupling_rows(model, t, levels)
    e = spec.energies
    scale = max(abs(e[0]), abs(e[-1]), 1e-300)
    own = (np.arange(len(levels)), levels)
    gaps = e[None, :] - e[levels, None]
    gaps[own] = 1.0
    near = np.abs(gaps) < DEGENERACY_TOL * scale
    near[own] = False
    bad = np.flatnonzero(near.any(axis=1))
    if bad.size:
        raise DegeneracyError(
            f"level {levels[bad[0]]} is near-degenerate at t={t:g}")
    inv2 = 1.0 / gaps**2
    inv2[own] = 0.0
    m = np.stack(ms)
    return np.einsum("alk,blk,lk->lab", m, m.conj(), inv2)


def qgt(model, level: int, t: float) -> GeometricTensor:
    q = qgt_levels(model, [level], t)[0]
    g = 0.5 * (q.real + q.real.T)
    return GeometricTensor(q, g, int(level))


@dataclass(frozen=True)
class FidelityDecay:
    """Richardson check of the quadratic eigenstate-fidelity decay."""

    residual: float
    residual_half: float
    order: float


def fidelity_decay_check(model, level: int, t: float, dt: float) -> FidelityDecay:
    """Verify 1 - |<n(t)|n(t+dt)>| = g lamdot lamdot dt^2 / 2 + O(dt^3).

    Returns the residual at dt and dt/2 and the observed convergence
    order log2(residual / residual_half), which should approach 3.
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
    return FidelityDecay(r1, r2, float(order))


def _ensemble_speed_integrands(model, ensemble):
    """Integrands sqrt(eta lamdot lamdot) and sqrt(sum p g lamdot lamdot).

    Both come from the coupling rows of the K populated levels.  With
    a_nk = |<n|dH0/dt|k>|^2 / (eps_k - eps_n)^2 and the symmetric weights
    w_nk = (p_n - p_k)^2/(p_n + p_k), which vanish when neither level is
    populated, eta's sum over all pairs is
    (1/2) sum_nk w a = sum_{n<K, all k} w a - (1/2) sum_{n<K, k<K} w a:
    the rows count each pair with both levels populated twice.  A drive
    that couples a degenerate pair with a populated level raises
    DegeneracyError; the squared couplings and the gaps are symmetric in
    (n, k), so the rows see every such pair, and a coupling counts as
    nonzero above 1e-20 of the largest computed (populated-row) one.
    """
    weights = ensemble.weights
    n_rows = ensemble.n_levels
    rows = slice(0, n_rows)

    def both(t):
        lamdot = model.protocol.derivative(t)
        spec, ms = _coupling_rows(model, t, rows)
        e = spec.energies
        m_dot = np.tensordot(lamdot, np.array(ms), 1)
        gaps = e[None, :] - e[:n_rows, None]
        np.fill_diagonal(gaps, 1.0)
        scale = max(abs(e[0]), abs(e[-1]), 1e-300)
        num = np.abs(m_dot) ** 2
        # degenerate pairs contribute nothing unless the drive couples a
        # populated one, which the models here exclude
        safe = np.abs(gaps) > 1e-12 * scale
        a = np.divide(num, gaps**2, out=np.zeros_like(num), where=safe)
        np.fill_diagonal(a, 0.0)
        p = np.zeros(e.shape[0])
        p[:n_rows] = weights
        populated = p > 0
        if np.any(~safe & (num > 1e-20 * max(num.max(), 1e-300))
                  & (populated[:n_rows, None] | populated[None, :])):
            raise DegeneracyError(
                f"drive couples a degenerate populated pair at t={t:g}")
        g_speed = float(weights @ a.sum(axis=1))
        pn, pk = weights[:, None], p[None, :]
        den = pn + pk
        wmat = np.divide((pn - pk) ** 2, den, out=np.zeros_like(den),
                         where=den > 0)
        wa = wmat * a
        eta_speed = float(wa.sum()) - 0.5 * float(wa[:, rows].sum())
        return np.array([np.sqrt(max(eta_speed, 0.0)),
                         np.sqrt(max(g_speed, 0.0))])

    return both


def path_lengths(model, ensemble, *,
                 rel_tol: float = 1e-8) -> tuple[float, float]:
    """(eta, ell) of the model's protocol from one shared quadrature
    pass.

    Each node builds only the K populated coupling rows (K =
    ``ensemble.n_levels``), since unpopulated pairs carry zero weight in
    both lengths; see ``_ensemble_speed_integrands``.
    """
    both = _ensemble_speed_integrands(model, ensemble)
    out = adaptive_simpson_multi(both, 0.0, model.tau, rel_tol=rel_tol)
    return float(out[0]), float(out[1])


# -- mixed-state fidelity ------------------------------------------------

def _state_sqrt(rho: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    """sqrt(rho), checked to be a state; a real rho stays real."""
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
    below 1e-15) is all composite-Simpson error of the time average on
    the 401-point grid, which falls 16x per doubling of the grid.  ell
    matches its closed form to about 1e-16, and the excess is the norm
    sum_n p_n ||(H_cd - eps_n)|n>||^2, which resolves it to about 1e-17
    at the ramp ends, so no rounding shows in the residual.
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


def bound_chain(series: dict, ell: float, eta: float,
                bures: float) -> SpeedLimitReport:
    """The bound chain from the three path lengths and the excess and
    energy-variance columns of ``workstats.fluctuation_series`` on a
    uniform grid from 0 to tau.

    A constant path (ell = 0) has coinciding endpoints and nothing to
    bound: its report carries zero bounds and residual and sets every
    flag, whatever arccos rounding near F = 1 left in bures.
    """
    grid = series["t"]
    tau = float(grid[-1])
    avg_excess, avg_energy = (
        float(simpson(np.sqrt(np.clip(series[k], 0.0, None)), x=grid)) / tau
        for k in ("excess_direct", "energy_variance_cd"))
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


def speed_limit_report(model, ensemble, *,
                       grid_points: int) -> SpeedLimitReport:
    """Assemble the full bound chain for the model's protocol.

    The time averages come from the work fluctuations (the operator
    route of ``workstats.fluctuation_series``) on a uniform grid
    (composite Simpson), so the equality check against the geometric
    length is a genuine cross-validation of two independent
    computations.
    """
    from .workstats import fluctuation_series

    series = fluctuation_series(
        model, ensemble, np.linspace(0.0, model.tau, grid_points))
    # the endpoint spectra are the grid's, held until the quadrature runs
    bures = bures_length(evolved_density(model, ensemble, 0.0),
                         evolved_density(model, ensemble, model.tau))
    eta, ell = path_lengths(model, ensemble)
    return bound_chain(series, ell, eta, bures)
