"""Frequency-ramped harmonic oscillator backend.

The oscillator is represented on a truncated Fock basis built at a fixed
reference frequency, so the basis is time independent and all time
dependence lives in the matrix entries:

    H0(t) = p^2 / 2m + m omega(t)^2 q^2 / 2,
    H1(t) = -(omegadot / 4 omega) (q p + p q).

The reference frequency defaults to sqrt(omega_i * omega_f).  That
choice splits the squeezing between the two ends of the ramp (factor
sqrt(omega_f/omega_i) each way instead of omega_f/omega_i at one end),
which roughly doubles the number of trustworthy levels for a given
truncation.

Also provided: the closed-form eigensystem of the driven oscillator,
the closed-form per-level metric, and the map from a frequency ramp to
effective two-photon Raman drive waveforms for a trapped ion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial.hermite import hermval
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import get_lapack_funcs

from .errors import (BandStructureError, ConfigError, InvalidDetuning,
                     NonHermitianInput, SupercriticalDrive, ValidityWarning)
from .models import STORE_SIZE, ParametrizedModel
from .protocols import Protocol, log_ramp, quintic_ramp
from .spectral import HERMITIAN_TOL, Spectrum, gauge_fix

# LAPACK's real symmetric tridiagonal divide-and-conquer solver, resolved
# once: scipy's eigh_tridiagonal picks the same routine but validates its
# arguments on every call
_STEVD = get_lapack_funcs("stevd", dtype=np.float64)


def ramp(omega_i: float, omega_f: float, tau: float) -> Protocol:
    """Quintic frequency ramp omega_i + delta (10 s^3 - 15 s^4 + 6 s^5)."""
    return quintic_ramp([omega_i], [omega_f], tau)


@dataclass(frozen=True)
class HOConfig:
    """Frequency-ramp parameters and the Fock-space truncation."""

    omega_i: float
    omega_f: float
    tau: float
    dim: int = 120
    mass: float = 1.0
    ramp_kind: str = "quintic"
    reference_frequency: float | None = None

    @property
    def omega_ref(self) -> float:
        if self.reference_frequency is not None:
            return self.reference_frequency
        return math.sqrt(self.omega_i * self.omega_f)

    def protocol(self) -> Protocol:
        if self.ramp_kind == "quintic":
            return ramp(self.omega_i, self.omega_f, self.tau)
        if self.ramp_kind == "log":
            return log_ramp(self.omega_i, self.omega_f, self.tau)
        raise ConfigError(f"unknown ramp kind {self.ramp_kind!r}")

    def max_drive_ratio(self, n_nodes: int = 201) -> float:
        """Largest omegadot^2 / (4 omega^4) along the ramp.  Below one
        the driven oscillator has the closed-form discrete spectrum; at
        or above one the closed-form eigensystem does not exist and the
        truncated basis acts as a regularization of the work statistics.
        """
        proto = self.protocol()
        worst = 0.0
        for t in np.linspace(0.0, self.tau, n_nodes):
            w = proto.value(t)[0]
            wd = proto.derivative(t)[0]
            if w <= 0:
                raise ConfigError(f"omega(t) must stay positive, got {w:g}")
            worst = max(worst, wd * wd / (4.0 * w**4))
        return worst

    def validate(self, n_nodes: int = 201, *, check_drive: bool = True) -> None:
        if self.dim < 40:
            raise ConfigError("Fock dimension must be at least 40")
        if self.omega_i <= 0 or self.omega_f <= 0 or self.tau <= 0:
            raise ConfigError("frequencies and duration must be positive")
        if self.mass <= 0:
            raise ConfigError("mass must be positive")
        ratio = self.max_drive_ratio(n_nodes)
        if check_drive and ratio >= 1.0:
            raise SupercriticalDrive(
                f"drive ratio reaches {ratio:.3g}; the adiabatic "
                "eigensystem does not exist along this ramp")


class HarmonicOscillator(ParametrizedModel):
    """Truncated-Fock engine for the ramped oscillator; ``cache_size``
    bounds its store of spectra (see ``ParametrizedModel``)."""

    truncated = True

    def __init__(self, config: HOConfig, cache_size: int = STORE_SIZE):
        # fast ramps are legitimate models (only the closed-form
        # eigensystem needs the subcritical drive), so no drive check here
        config.validate(check_drive=False)
        self.config = config
        d, m, w_ref = config.dim, config.mass, config.omega_ref
        # exact projections of q^2, p^2 and qp+pq onto the truncated
        # space (not products of truncated ladders, whose corner entries
        # are corrupted): diagonal 2n+1, skew coupling sqrt((n+1)(n+2))
        n = np.arange(d, dtype=float)
        skew = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
        diag = np.diag(2.0 * n + 1.0)
        cross = np.diag(skew, 2) + np.diag(skew, -2)
        self._q2 = (diag + cross) / (2.0 * m * w_ref)
        self._p2 = (diag - cross) * (m * w_ref / 2.0)
        # q p + p q = i (raise^2 - ladder^2): purely imaginary entries
        self._qp_sym = 1j * (np.diag(skew, -2) - np.diag(skew, 2))
        # as bands (2, d): diagonal, +2 diagonal padded with two zeros
        self._bands = [np.stack((np.diagonal(a), np.pad(np.diagonal(a, 2),
                                                        (0, 2))))
                       for a in (self._q2, self._p2, self._qp_sym)]
        super().__init__(config.protocol(), cache_size=cache_size)

    def _h0_of(self, lam):
        w = lam[0]
        return self._p2 / (2.0 * self.config.mass) \
            + 0.5 * self.config.mass * w * w * self._q2

    def _h0_operator(self, lam):
        """H0 at the parameter point ``lam`` as a band (2, d), entry for
        entry the bits of ``_h0_of``."""
        w, (q2, p2, _) = lam[0], self._bands
        return p2 / (2.0 * self.config.mass) \
            + 0.5 * self.config.mass * w * w * q2

    def h_drive_at(self, t, h1_scale=1.0):
        """H0 + h1_scale * H1 at t as a band (2, d) for ``fast_eigh``, entry
        for entry the bits of the dense sum; real for h1_scale = 0."""
        band = self._h0_operator(self.protocol.value(t))
        if h1_scale == 0.0:
            return band
        scale = -self.omega_dot(t) / (4.0 * self.omega(t))
        return band + h1_scale * (scale * self._bands[2])

    def apply_h1(self, times, vectors, out):
        """out[b] = H1(t) @ vectors[b] for each t = times[b], one band
        product built from omega(t) and omegadot(t) with no dense matrix:
        H1 couples only levels two apart and has a zero diagonal."""
        scale = np.array([-self.omega_dot(t) / (4.0 * self.omega(t))
                          for t in times])
        upper = scale[:, None, None] * self._bands[2][1, :-2, None]
        np.multiply(upper, vectors[:, 2:], out=out[:, :-2])
        out[:, -2:] = 0.0
        out[:, 2:] += upper.conj() * vectors[:, :-2]
        return out

    def _dh0_of(self, lam):
        return [self.config.mass * lam[0] * self._q2]

    def _h1_of(self, t):
        return self.h1_matrix(self.omega(t), self.omega_dot(t))

    def omega(self, t: float) -> float:
        return float(self.protocol.value(t)[0])

    def omega_dot(self, t: float) -> float:
        return float(self.protocol.derivative(t)[0])

    def h0_matrix(self, omega: float) -> np.ndarray:
        """H0 at an arbitrary frequency, in the fixed reference basis."""
        return self._h0_of(np.array([omega]))

    def h1_matrix(self, omega: float, omega_dot: float) -> np.ndarray:
        """Auxiliary term -(omegadot/4 omega)(q p + p q); couples only
        levels two apart in the reference basis."""
        if omega_dot == 0.0:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return (-omega_dot / (4.0 * omega)) * self._qp_sym

    def fast_eigh(self, h: np.ndarray):
        """Eigendecomposition exploiting the quadratic-Hamiltonian
        structure: h couples only levels two apart, so each parity
        sector is Hermitian tridiagonal, and a diagonal phase rotation
        makes it real.  Eigenvalues are unsorted across sectors.  Raises
        BandStructureError for any other coupling, ValueError for NaN or
        inf on the band (diagonals 0 and +-2), NonHermitianInput when
        the band deviates from Hermiticity by more than HERMITIAN_TOL
        (relative Frobenius norm, as ``assert_hermitian``; the band is
        all of h, so this is the same test at O(d) cost) and LinAlgError
        when LAPACK's stevd fails.  A (2, d) band from ``h_drive_at``
        (every solve of the package, H0 and driven, with no dense build)
        is taken as is after the non-finite check; a real input gives
        real eigenvectors.
        """
        (vals0, vecs0, ph0), (vals1, vecs1, ph1) = \
            self._sector_spectra(h, (0, 1))
        vectors = np.zeros((self.dim, self.dim), dtype=ph0.dtype)
        vectors[0::2, :len(vals0)] = vecs0 * ph0[:, None]
        vectors[1::2, len(vals0):] = vecs1 * ph1[:, None]
        return np.concatenate((vals0, vals1)), vectors

    def evolve(self, h, dt, psi):
        """exp(-i dt h) psi (psi of shape (d,) or (d, K)) for h as
        ``fast_eigh`` takes it, by real GEMMs on each parity sector's
        rows; a sector where psi is exactly zero stays zero, unsolved."""
        psi = np.ascontiguousarray(psi, dtype=complex)
        out = np.zeros_like(psi)
        live = [parity for parity in (0, 1) if psi[parity::2].any()]
        for parity, (vals, vecs, phases) in zip(
                live, self._sector_spectra(h, live)):
            # the sector of h is P V diag(vals) V^T P^*, P = diag(phases);
            # a complex block viewed as floats interleaves re and im
            rows = psi[parity::2].reshape(len(vals), -1) \
                * phases.conj()[:, None]
            rows = (vecs.T @ rows.view(float)).view(complex)
            rows *= np.exp(-1j * dt * vals)[:, None]
            rows = (vecs @ rows.view(float)).view(complex) * phases[:, None]
            out[parity::2] = rows.reshape(out[parity::2].shape)
        return out

    def _sector_spectra(self, h, parities):
        """(vals, vecs, phases) per requested parity sector of h (checked
        as ``fast_eigh`` documents): its block is P vecs diag(vals)
        vecs^T P^*, P = diag(phases), with vecs real from stevd."""
        if np.shape(h) == (2, self.dim):
            if not np.isfinite(h).all():
                raise ValueError("band input has non-finite entries")
            diagonal, upper = h[0], h[1, :-2]
        else:
            diagonal, upper = self._checked_band(h)
        sectors = []
        for parity in parities:
            # the sector's levels are parity, parity + 2, ...
            diag = diagonal[parity::2].real
            off = upper[parity::2]
            mags = np.abs(off)
            if np.iscomplexobj(off):
                args = np.where(mags > 0, np.angle(off), 0.0)
                phases = np.exp(-1j * np.concatenate(([0.0], np.cumsum(args))))
            else:  # a real band takes signs and keeps its vectors real
                phases = np.cumprod(np.concatenate(
                    ([1.0], np.where(off < 0, -1.0, 1.0))))
            vals, vecs, info = _STEVD(diag, mags)
            if info:
                raise LinAlgError(f"LAPACK stevd failed with info={info}")
            sectors.append((vals, vecs, phases))
        return sectors

    def _checked_band(self, h):
        d = self.dim
        if np.shape(h) != (d, d):
            raise BandStructureError(
                f"expected a {d}x{d} matrix, got shape {np.shape(h)}")
        stray = np.count_nonzero(h) - sum(
            np.count_nonzero(np.diagonal(h, k)) for k in (-2, 0, 2))
        if stray:
            raise BandStructureError(
                f"the solver handles matrices that couple only levels two "
                f"apart; the input has {stray} nonzero entries outside that "
                f"band")
        diagonal, upper, lower = (np.diagonal(h, k) for k in (0, 2, -2))
        band = np.concatenate((diagonal, upper, lower))
        if not np.isfinite(band).all():
            raise ValueError("input has non-finite entries on its band")
        dev = math.hypot(2.0 * np.linalg.norm(diagonal.imag),
                         math.sqrt(2.0) * np.linalg.norm(upper - lower.conj()))
        scale = np.linalg.norm(band)
        if dev > HERMITIAN_TOL * max(scale, 1e-300):
            raise NonHermitianInput(
                f"input deviates from Hermiticity by {dev:.3g} "
                f"(scale {scale:.3g})")
        return diagonal, upper

    def _diagonalize(self, h: np.ndarray) -> Spectrum:
        energies, vectors = self.fast_eigh(h)
        order = np.argsort(energies, kind="stable")
        return Spectrum(energies[order], gauge_fix(vectors[:, order]))


def ho_metric(omega: float, n) -> np.ndarray | float:
    """Closed-form per-level metric (n^2 + n + 1) / (8 omega^2) for the
    frequency parameter."""
    n = np.asarray(n, dtype=float)
    out = (n * n + n + 1.0) / (8.0 * omega * omega)
    return out if out.ndim else float(out)


def cd_exact_eigensystem(omega: float, omega_dot: float, n: int,
                         mass: float = 1.0):
    """Closed-form eigenpair of the driven oscillator H0 + H1.

    Returns (E_n, psi_n) where psi_n(q) evaluates the position-space
    eigenfunction: a Hermite polynomial times a Gaussian of effective
    frequency omega sqrt(1 - omegadot^2/4 omega^4), carrying the chirp
    phase exp(i m omegadot q^2 / 4 omega).
    """
    ratio = omega_dot * omega_dot / (4.0 * omega**4)
    if ratio >= 1.0:
        raise SupercriticalDrive(f"drive ratio {ratio:.3g} >= 1")
    root = math.sqrt(1.0 - ratio)
    energy = omega * root * (n + 0.5)
    w_eff = mass * omega * root  # hbar = 1
    norm = (w_eff / math.pi) ** 0.25 / math.sqrt(2.0**n * math.factorial(n))
    coeff = np.zeros(n + 1)
    coeff[n] = 1.0

    def wavefunction(q):
        q = np.asarray(q, dtype=float)
        gauss = np.exp(-0.5 * w_eff * q * q)
        chirp = np.exp(1j * mass * omega_dot * q * q / (4.0 * omega))
        return norm * hermval(np.sqrt(w_eff) * q, coeff) * gauss * chirp

    return energy, wavefunction


@dataclass(frozen=True)
class IonConfig:
    """Trapped-ion parameters for the Raman realization of the ramp.

    The two-photon processes are characterized by the sideband detuning
    nu; delta_raman and delta_spin are the detunings to the excited and
    spin states whose adiabatic elimination produces the effective
    quadratic Hamiltonian, valid while
    delta_spin >> lamb_dicke * Omega1 * Omega2 / delta_raman.
    """

    nu: float
    trap_frequency: float | None = None
    mass: float = 1.0
    lamb_dicke: float = 0.1
    delta_raman: float = 1e5
    delta_spin: float = 1e3
    validity_min: float = 10.0

    @property
    def omega_0(self) -> float:
        return self.nu if self.trap_frequency is None else self.trap_frequency

    @property
    def effective_mass(self) -> float:
        return self.mass * self.omega_0 / self.nu


@dataclass(frozen=True)
class WaveformTable:
    """Time series of the laser drive realizing a frequency ramp."""

    times: np.ndarray
    omega: np.ndarray
    omega_dot: np.ndarray
    potential: np.ndarray       # Omega(t) >= 0, the squeezing drive
    omega_eff1: np.ndarray      # complex: -Omega + i omegadot / 2 omega
    omega_eff2: np.ndarray
    phi3: np.ndarray            # phase of the third Raman beam
    rabi_1: np.ndarray
    rabi_2: np.ndarray
    rabi_3: np.ndarray
    validity_ratio: np.ndarray
    ion: IonConfig = field(compare=False)

    def min_validity(self) -> float:
        return float(self.validity_ratio.min())

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "t": self.times,
            "omega": self.omega,
            "omega_dot": self.omega_dot,
            "Omega": self.potential,
            "re_Omega_eff1": self.omega_eff1.real,
            "im_Omega_eff1": self.omega_eff1.imag,
            "Omega_eff2": self.omega_eff2,
            "validity_ratio": self.validity_ratio,
        }


def ion_waveforms(config: HOConfig, nu: float, *, ion: IonConfig | None = None,
                  grid_points: int = 401) -> WaveformTable:
    """Map a frequency ramp to effective Raman drive waveforms.

    Uses omega = sqrt(nu (nu - 2 Omega)), i.e. Omega = (nu^2 - omega^2)
    / (2 nu), and emits Omega_eff1 = -Omega + i omegadot/(2 omega),
    Omega_eff2 = Omega.  Raises InvalidDetuning when omega(t) exceeds nu
    anywhere (the laser-induced potential would have to flip sign) and
    warns when the adiabatic-elimination validity ratio drops below the
    configured minimum.
    """
    if nu <= 0:
        raise InvalidDetuning("nu must be positive")
    ion = replace(ion, nu=nu) if ion is not None else IonConfig(nu=nu)
    proto = config.protocol()
    times = np.linspace(0.0, config.tau, grid_points)
    omega = np.array([proto.value(t)[0] for t in times])
    omega_dot = np.array([proto.derivative(t)[0] for t in times])
    if np.any(omega * omega > nu * nu):
        raise InvalidDetuning(
            f"omega(t) reaches {omega.max():g} > nu = {nu:g}; the ramp is "
            "not reachable at this sideband detuning")
    potential = (nu * nu - omega * omega) / (2.0 * nu)
    eff1 = -potential + 0.5j * omega_dot / omega
    phi3 = np.arctan2(0.5 * omega_dot / omega, -potential)

    # Raw beam amplitudes: symmetric choice Omega1 = Omega3 fixes the
    # remaining gauge freedom of the two Raman processes.
    eta, delta_r, delta_s = ion.lamb_dicke, ion.delta_raman, ion.delta_spin
    rabi_1 = np.sqrt(np.abs(eff1) * delta_r) / eta
    rabi_3 = rabi_1.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        rabi_2 = np.where(
            rabi_1 > 0,
            2.0 * delta_r * np.sqrt((nu + delta_s) * np.abs(potential))
            / (eta * np.where(rabi_1 > 0, rabi_1, 1.0)),
            0.0)
    coupling = eta * rabi_1 * rabi_2 / delta_r
    ratio = np.where(coupling > 0, delta_s / np.where(coupling > 0, coupling, 1.0),
                     np.inf)
    if ratio.min() < ion.validity_min:
        warnings.warn(
            f"adiabatic-elimination ratio {ratio.min():.3g} below "
            f"{ion.validity_min:g}", ValidityWarning, stacklevel=2)

    # Round trip: the emitted potential must reproduce omega exactly.
    back = np.sqrt(nu * (nu - 2.0 * potential))
    error = np.abs(back - omega).max()
    if not error <= 1e-12 * max(1.0, omega.max()):
        raise InvalidDetuning(
            f"waveform round trip misses omega by {error:.3g}: at nu = "
            f"{nu:g} the potential cannot encode omega to precision")
    return WaveformTable(times, omega, omega_dot, potential, eff1,
                         potential.copy(), phi3, rabi_1, rabi_2, rabi_3,
                         ratio, ion)
