"""Transverse-field Ising chain via its free-fermion reduction.

H = -sum_n (sigma^x_n sigma^x_{n+1} + lam sigma^z_n), periodic chain of
even length N.  In the even-parity sector (which contains the ground
state) the momenta are k_m = (2m - 1) pi / N and each mode contributes

    eps_k(lam) = 2 sqrt(lam^2 - 2 lam cos k + 1)

to the spectrum.  The quadratic form under the square root is evaluated
as (lam - 1)^2 + 4 lam sin^2(k/2), which is exact near the critical
point lam = 1 where the naive expression cancels catastrophically.

The ground-state metric, Bogoliubov angles and overlaps are closed
forms; dense 2^N matrices (N <= 14) back them up as an independent
oracle.  At the critical point the metric obeys the algebraic identity
g(1, N) = N (N - 1) / 32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fitting import fit_power_law
from .models import ParametrizedModel
from .protocols import Protocol, cubic_ramp
from .quadrature import clenshaw_curtis

DENSE_SITE_CAP = 14


def momenta(n_sites: int) -> np.ndarray:
    """Even-parity-sector momenta (2m - 1) pi / N for m = 1 .. N/2."""
    if n_sites % 2 or n_sites < 4:
        raise ConfigError(f"the chain length must be even and at least 4, "
                          f"got {n_sites!r}")
    return (2.0 * np.arange(1, n_sites // 2 + 1) - 1.0) * math.pi / n_sites


def _gap_form(lam, offset, k):
    # lam^2 - 2 lam cos k + 1 from the offset +-(lam - 1), without
    # cancellation at lam = 1, k -> 0
    return offset ** 2 + 4.0 * lam * np.sin(0.5 * k) ** 2


def _metric_sum(lam, offset, k):
    # sum over the last axis of sin^2 k / (4 gap form^2), squared after
    # the division: the gap form squared overflows for |lam| past ~8e76,
    # where the metric itself only underflows
    d = _gap_form(lam, offset, k)
    return ((np.sin(k) / (2.0 * d)) ** 2).sum(axis=-1)


def mode_energy(lam: float, k) -> np.ndarray | float:
    """Single-mode excitation energy 2 sqrt(lam^2 - 2 lam cos k + 1).

    For lam < 0 the mode is taken at |lam| and pi - k, the same energy,
    with sin^2((pi - k)/2) written as cos^2(k/2) so that pi - k is never
    rounded: the gap form then has no cancellation near lam = -1 as
    k -> pi, as ``ground_metric`` has none."""
    k = np.asarray(k, dtype=float)
    if lam < 0:
        gap = (lam + 1.0) ** 2 - 4.0 * lam * np.cos(0.5 * k) ** 2
    else:
        gap = _gap_form(lam, lam - 1.0, k)
    out = 2.0 * np.sqrt(gap)
    return out if out.ndim else float(out)


def ground_energy(lam: float, n_sites: int) -> float:
    """Even-sector ground energy -sum_{k>0} eps_k."""
    return float(-mode_energy(lam, momenta(n_sites)).sum())


def ground_metric(lam, n_sites: int) -> np.ndarray | float:
    """Fidelity-susceptibility metric of the ground state,
    sum_{k>0} sin^2 k / (4 (lam^2 - 2 lam cos k + 1)^2), at each point
    of ``lam`` (a float for a scalar).  It is taken at |lam|: exact,
    since k -> pi - k maps the momenta onto themselves, and free of the
    cancellation the gap form suffers near lam = -1 as k -> pi."""
    lam = np.abs(np.asarray(lam, dtype=float))[..., None]
    out = _metric_sum(lam, lam - 1.0, momenta(n_sites))
    return out if out.ndim else float(out)


def bogoliubov_angle(lam: float, k) -> np.ndarray:
    """Mode-mixing angle theta_k with tan theta_k = sin k / (lam - cos k)."""
    k = np.asarray(k, dtype=float)
    return np.arctan2(np.sin(k), lam - np.cos(k))


def ground_state_overlap(lam_a: float, lam_b: float, n_sites: int) -> float:
    """|<GS(lam_a)|GS(lam_b)>| = prod_{k>0} |cos((theta_k^a - theta_k^b)/2)|."""
    k = momenta(n_sites)
    half = 0.5 * (bogoliubov_angle(lam_a, k) - bogoliubov_angle(lam_b, k))
    return float(np.abs(np.prod(np.cos(half))))


@dataclass(frozen=True)
class IsingConfig:
    """Symmetric sweep across the critical point: lam runs from 1 + delta
    to 1 - delta along a cubic ramp with zero endpoint velocity."""

    n_sites: int
    delta: float = 1.0
    tau: float = 1.0

    def __post_init__(self):
        momenta(self.n_sites)  # validates length
        if self.tau <= 0:
            raise ConfigError("duration must be positive")

    def protocol(self) -> Protocol:
        return cubic_ramp([1.0 + self.delta], [1.0 - self.delta], self.tau)


@dataclass(frozen=True)
class ExcessTrajectory:
    """delta(DW)^2(t) = g(lam(t)) lamdot(t)^2 along a sweep (the
    adiabatic work variance is identically zero for a single level)."""

    lam: np.ndarray
    excess_variance: np.ndarray
    excess_dev: np.ndarray


def cd_excess_trajectory(config: IsingConfig, grid) -> ExcessTrajectory:
    """Instantaneous excess work fluctuations for the ground-state sweep."""
    proto = config.protocol()
    grid = np.asarray(grid, dtype=float)
    lam, lam_dot = proto.value(grid)[..., 0], proto.derivative(grid)[..., 0]
    g = ground_metric(lam, config.n_sites)
    excess = g * lam_dot**2
    return ExcessTrajectory(lam, excess, np.sqrt(excess))


def sweep_cost_integral(n_sites: int, delta: float) -> float:
    """tau <dDW>_tau = integral of sqrt(g) |dlam| over [1-delta, 1+delta].

    Protocol independent: any sweep shape with the same endpoints and
    zero endpoint velocity gives this value.  The integrand peaks
    sharply at the critical point (height ~ N, width ~ 1/N).

    Two exact identities of the metric make sqrt(g) |dlam| invariant
    under lam -> -lam and lam -> 1/lam: g(-lam) = g(lam), since
    k -> pi - k maps the momenta onto themselves, and g(1/lam) =
    lam^4 g(lam), since the gap form of 1/lam is that of lam over lam^2
    (Kramers-Wannier duality).  They fold the interval onto integrals
    I(x0) of sqrt(g(1 - x)) over the offset x in [0, x0], x0 <= 1: the
    right side is I(delta / (1 + delta)); the left side is I(delta) for
    delta <= 1, 2 I(1) - I(2 - delta) up to delta = 2 and
    2 I(1) + I((delta - 2) / (delta - 1)) beyond.  Each I runs on
    Clenshaw-Curtis after x = s^4, which widens the critical peak to
    about N^(-1/4) in s, so the cost does not depend on delta.
    """
    k = momenta(n_sites)

    def integrand(nodes):
        # the metric at the offset x = s^4 itself, so that offsets far
        # below the rounding of 1 - x keep every digit; node by node, as
        # numpy's power and a sum over a 2-D array's rows round otherwise
        return [4.0 * s**3 * math.sqrt(_metric_sum(1.0 - s**4, s**4, k))
                for s in nodes.tolist()]

    def folded(x0):
        return float(clenshaw_curtis(integrand, 0.0, x0**0.25,
                                     rel_tol=1e-9)[0])

    right = folded(delta / (1.0 + delta))
    if delta <= 1.0:
        return right + folded(delta)
    if delta <= 2.0:
        return right + 2.0 * folded(1.0) - folded(2.0 - delta)
    return right + 2.0 * folded(1.0) + folded((delta - 2.0) / (delta - 1.0))


@dataclass(frozen=True)
class CriticalScaling:
    """Power-law fit of the time-integrated cost against system size."""

    alpha: float
    alpha_stderr: float
    residual_rms: float
    n_values: np.ndarray
    integrals: np.ndarray

    MAX_RESIDUAL = 0.02

    @property
    def passed(self) -> bool:
        """Whether the log residuals pass the power-law gate."""
        return self.residual_rms < self.MAX_RESIDUAL


def scaling_fit(n_list, delta: float) -> CriticalScaling:
    """Fit tau <dDW>_tau ~ N^alpha over a list of chain lengths.

    Requires at least five sizes spanning 1.5 decades.  A fit whose log
    residuals miss the gate is still returned, with ``passed`` false.
    """
    n_values = np.asarray(sorted(set(int(n) for n in n_list)), dtype=int)
    if len(n_values) < 5:
        raise ConfigError("need at least five chain lengths for the fit")
    if math.log10(n_values[-1] / n_values[0]) < 1.5:
        raise ConfigError("chain lengths must span at least 1.5 decades")
    integrals = np.array([sweep_cost_integral(n, delta) for n in n_values])
    fit = fit_power_law(n_values.astype(float), integrals)
    return CriticalScaling(fit.exponent, fit.exponent_stderr,
                           fit.residual_rms, n_values, integrals)


# -- dense oracle (small chains) -------------------------------------------

def _dense_terms(n_sites: int):
    if n_sites > DENSE_SITE_CAP:
        raise ConfigError(f"dense representation capped at {DENSE_SITE_CAP} sites")
    dim = 1 << n_sites
    states = np.arange(dim)
    z_total = np.zeros(dim)
    for j in range(n_sites):
        z_total += np.where(states >> j & 1, -1.0, 1.0)
    pairs = []
    for j in range(n_sites):
        flipped = states ^ ((1 << j) | (1 << (j + 1) % n_sites))
        pairs.append(flipped)
    return dim, states, z_total, pairs


def dense_hamiltonian(lam: float, n_sites: int) -> np.ndarray:
    """Full 2^N matrix of the chain (oracle; N <= 14)."""
    dim, states, z_total, pairs = _dense_terms(n_sites)
    h = np.zeros((dim, dim))
    h[states, states] = -lam * z_total
    for flipped in pairs:
        h[states, flipped] -= 1.0
    return h


def dense_field_term(n_sites: int) -> np.ndarray:
    """dH/dlam = -sum_n sigma^z_n as a dense matrix."""
    dim, states, z_total, _ = _dense_terms(n_sites)
    out = np.zeros((dim, dim))
    out[states, states] = -z_total
    return out


def exact_ground_state(lam: float, n_sites: int) -> tuple[float, np.ndarray]:
    """Ground eigenpair of the full spin Hamiltonian by dense
    diagonalization (oracle; N <= 14, verify's chains stop at 8)."""
    energies, vectors = np.linalg.eigh(dense_hamiltonian(lam, n_sites))
    return float(energies[0]), vectors[:, 0]


def dense_model(config: IsingConfig) -> ParametrizedModel:
    """Full-space model for running the generic machinery on small
    chains (oracle tests)."""
    n = config.n_sites
    field = dense_field_term(n)
    return ParametrizedModel(
        config.protocol(),
        h0_of=lambda lam: dense_hamiltonian(lam[0], n),
        dh0_of=lambda lam: [field],
    )
