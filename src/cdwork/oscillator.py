"""Frequency-ramped harmonic oscillator backend (hbar = m = 1).

The oscillator is represented on a truncated Fock basis built at a fixed
reference frequency, so the basis is time independent and all time
dependence lives in the matrix entries:

    H0(t) = p^2 / 2 + omega(t)^2 q^2 / 2,
    H1(t) = -(omegadot / 4 omega) (q p + p q).

Both couple only levels two apart, so the model keeps every operator as
a band of its diagonal and +2 diagonal, and solves and exponentiates it
one parity sector at a time with LAPACK's tridiagonal solver ``dstevd``.
That routine is called through ``ctypes`` in the OpenBLAS that numpy's
wheel already loads, so importing the package loads no scipy; where
numpy ships no such library (another wheel, MKL, Accelerate), the same
routine comes from ``scipy.linalg.lapack``.  One solver serves a block
of bands (a kernel block, a quadrature level, or a single band): it
keeps each spectrum as a ``spectral.Spectrum`` of two sectors, the
even rows and the odd ones, whose first k columns (``columns``) the
kernel, the transition matrix's H0 side, the leakage check, the
fidelity decay and the certificate read; the transition matrix's
H0 + H1 side (``transition_probs``) and the geometric tensor's coupling
rows (``coupling_rows``, on the q^2 band) are formed per sector.  The
driving Hamiltonians lie in the span of q^2, p^2 and qp + pq, which is
closed under commutators, so the commutator i[A, B] that each
propagation step needs is again a band, formed in O(d), and a block of
propagation steps is solved by the same solver (``evolve_block``).
``omega`` and ``omega_dot`` take one time or an array of them, so a
block method reads the ramp once per block.

The reference frequency is sqrt(omega_i * omega_f).  That choice splits
the squeezing between the two ends of the ramp (factor
sqrt(omega_f/omega_i) each way instead of omega_f/omega_i at one end),
which roughly doubles the number of trustworthy levels for a given
truncation.

Also provided: the closed-form spectrum of the driven oscillator, the
closed-form per-level metric, and the map from a frequency ramp to
effective two-photon Raman drive waveforms for a trapped ion, whose
spin detuning DELTA_SPIN sets the validity ratio of the adiabatic
elimination behind them; below VALIDITY_MIN it warns.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .errors import (BandStructureError, ConfigError, InvalidDetuning,
                     NonHermitianInput, SupercriticalDrive, ValidityWarning)
from .models import STORE_SIZE, ParametrizedModel
from .protocols import Protocol, log_ramp, quintic_ramp
from .spectral import HERMITIAN_TOL, Spectrum, gauge_fix


def _numpy_openblas():
    """The ILP64 OpenBLAS that numpy's wheel ships and its extension
    modules already map, opened through ctypes, or None where there is
    none or it cannot be opened."""
    root = os.path.dirname(os.path.dirname(np.__file__))
    found = sorted(glob.glob(
        os.path.join(root, "numpy.libs", "libscipy_openblas64_*")))
    try:
        return ctypes.CDLL(found[0]) if found else None
    except OSError:
        return None


def _resolve_stevd(lib):
    """stevd(diags, offs, vectors) -> (values, info) over a block of B
    symmetric tridiagonal matrices, diagonals diags (B, n) and
    off-diagonals offs (B, n - 1): the eigenvalues (B, n), ascending per
    matrix, with point b's eigenvectors written column-major into the C
    buffer of vectors[b] (so vectors[b].T holds them as columns), and
    the first nonzero LAPACK info, or 0.  It calls ``scipy_dstevd_64_``
    of the OpenBLAS ``lib`` through ctypes, or, when that library or
    symbol is missing, scipy.linalg.lapack's ``stevd``, imported only
    then."""
    try:
        func = lib.scipy_dstevd_64_
    except AttributeError:  # no library (None), or no such symbol in it
        from scipy.linalg.lapack import get_lapack_funcs
        func, lapack = None, get_lapack_funcs("stevd", dtype=np.float64)
    else:
        int64 = ctypes.POINTER(ctypes.c_int64)
        # JOBZ, N, D, E, Z, LDZ, WORK, LWORK, IWORK, LIWORK, INFO and the
        # hidden length of the JOBZ string; ILP64, so every integer is
        # 64-bit; the arrays go by address
        address = ctypes.c_void_p
        func.argtypes = [ctypes.c_char_p, int64, address, address, address,
                         int64, address, int64, address, int64, int64,
                         ctypes.c_size_t]
        func.restype = None
        # an array's address through a ctypes view of its buffer: about
        # three times cheaper than ndarray.ctypes
        view, at = ctypes.c_char.from_buffer, ctypes.addressof

    def stevd(diags, offs, vectors):
        count, n = np.shape(diags)
        if (vectors.shape != (count, n, n) or vectors.dtype != np.float64
                or not vectors.flags.c_contiguous):
            raise ValueError(f"stevd writes into a C-contiguous float64 "
                             f"array of shape {(count, n, n)}")
        # LAPACK overwrites each row of values with its eigenvalues
        values = np.array(diags, dtype=np.float64, order="C")
        if func is None:  # scipy's wrapper, one matrix at a time
            for b in range(count):
                values[b], z, info = lapack(diags[b], offs[b])
                if info:
                    return values, info
                vectors[b] = z.T
            return values, 0
        # the work arrays are this call's own: spectra are kept in the
        # model's store, and the call releases the GIL, so shared work
        # arrays could race.  LAPACK destroys the off-diagonal it is given
        lwork, liwork = (1 + 4 * n + n * n, 3 + 5 * n) if n > 1 else (1, 1)
        off = np.zeros(max(n, 1))
        work, iwork = np.empty(lwork), np.empty(liwork, np.int64)
        size, lead = ctypes.c_int64(n), ctypes.c_int64(max(n, 1))
        lwork, liwork = ctypes.c_int64(lwork), ctypes.c_int64(liwork)
        info = ctypes.c_int64()
        row, matrix = 8 * n, 8 * n * n
        first_value, first_vector = at(view(values)), at(view(vectors))
        off_at, work_at, iwork_at = at(view(off)), at(view(work)), \
            at(view(iwork))
        for b in range(count):
            off[:n - 1] = offs[b]
            func(b"V", size, first_value + b * row, off_at,
                 first_vector + b * matrix, lead, work_at, lwork, iwork_at,
                 liwork, info, 1)
            if info.value:
                return values, info.value
        return values, 0

    return stevd


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, and restore
    its previous thread count after.  Threaded BLAS kernels split their
    sums by the thread count, so a dense ``eigh`` (verify's 256-level
    Ising oracle) rounds differently at each count; on one thread the
    outputs are the same bytes whatever OPENBLAS_NUM_THREADS says.
    Where numpy ships no such library, the block runs as it is."""
    if _SET_THREADS is None:
        yield
        return
    before = _GET_THREADS()
    _SET_THREADS(1)
    try:
        yield
    finally:
        _SET_THREADS(before)


# numpy's OpenBLAS, opened once.  LAPACK's real symmetric tridiagonal
# divide-and-conquer solver dstevd is called in it, because importing
# scipy.linalg for this one routine took longer than a whole ho-figure1
# run; scipy.linalg.lapack serves only where numpy's wheel ships no such
# library (another build, MKL, Accelerate).  Its thread-count pair, or
# None, serves ``one_blas_thread``
_OPENBLAS = _numpy_openblas()
_STEVD = _resolve_stevd(_OPENBLAS)
try:
    _GET_THREADS = _OPENBLAS.scipy_openblas_get_num_threads64_
    _SET_THREADS = _OPENBLAS.scipy_openblas_set_num_threads64_
except AttributeError:
    _GET_THREADS = _SET_THREADS = None
else:
    _GET_THREADS.argtypes, _GET_THREADS.restype = [], ctypes.c_int
    _SET_THREADS.argtypes, _SET_THREADS.restype = [ctypes.c_int], None


@dataclass(frozen=True)
class HOConfig:
    """Frequency-ramp parameters and the Fock-space truncation."""

    omega_i: float
    omega_f: float
    tau: float
    dim: int = 120
    ramp_kind: str = "quintic"

    @property
    def omega_ref(self) -> float:
        return math.sqrt(self.omega_i * self.omega_f)

    def protocol(self) -> Protocol:
        if self.ramp_kind == "quintic":
            return quintic_ramp([self.omega_i], [self.omega_f], self.tau)
        if self.ramp_kind == "log":
            return log_ramp(self.omega_i, self.omega_f, self.tau)
        raise ConfigError(f"unknown ramp kind {self.ramp_kind!r}")

    def validate(self) -> None:
        """Check the config's own ranges: the Fock dimension, positive
        finite frequencies and duration, and a Hamiltonian in float
        range.  Fast ramps are legitimate models (only the closed-form
        energy needs a subcritical drive; see ``cd_exact_energy``)."""
        if self.dim < 40:
            raise ConfigError("Fock dimension must be at least 40")
        for key in ("omega_i", "omega_f", "tau"):
            value = getattr(self, key)
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{key} must be positive and finite, got "
                                  f"{value!r}")
        # entries of q^2 and H0 grow as max(omega^2, 1) dim / omega_ref
        w_ref = self.omega_ref
        for key, w in (("omega_i", self.omega_i), ("omega_f", self.omega_f)):
            top = max(w * w, 1.0) * self.dim / w_ref if w_ref > 0 else math.inf
            if not math.isfinite(top):
                raise ConfigError(
                    f"{key} = {w:g} puts the Fock-space Hamiltonian of "
                    f"dimension {self.dim} out of float range")


class HarmonicOscillator(ParametrizedModel):
    """Truncated-Fock engine for the ramped oscillator; ``cache_size``
    bounds its store of spectra (see ``ParametrizedModel``).  Its
    operators are bands (2, d): row 0 the diagonal, row 1 the +2 diagonal
    padded with two zeros; the -2 diagonal is the conjugate of the +2 one.
    """

    truncated = True

    def __init__(self, config: HOConfig, cache_size: int = STORE_SIZE):
        config.validate()
        self.config = config
        w_ref = config.omega_ref
        # exact projections of q^2, p^2 and qp+pq onto the truncated
        # space (not products of truncated ladders, whose corner entries
        # are corrupted): diagonal 2n+1, +2 diagonal sqrt((n+1)(n+2))
        n = np.arange(config.dim, dtype=float)
        diag = 2.0 * n + 1.0
        skew = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
        self._q2 = np.stack((diag, np.pad(skew, (0, 2)))) / (2.0 * w_ref)
        self._p2 = np.stack((diag, np.pad(-skew, (0, 2)))) * (w_ref / 2.0)
        # q p + p q = i (raise^2 - ladder^2): a zero diagonal and a purely
        # imaginary +2 diagonal
        self._qp_sym = 1j * np.stack((np.zeros_like(n), np.pad(-skew, (0, 2))))
        # the bands below stand in for h0_of and dh0_of
        super().__init__(config.protocol(), None, None, cache_size=cache_size)

    def omega(self, t):
        """omega(t): a NumPy scalar for a scalar t, shape (N,) for N times."""
        return self.protocol.value(t).T[0]

    def omega_dot(self, t):
        """d omega / dt, shaped as ``omega``."""
        return self.protocol.derivative(t).T[0]

    def _cd_scale(self, t):
        """The coefficient -omegadot / (4 omega) of qp + pq in H1 at t."""
        return -self.omega_dot(t) / (4.0 * self.omega(t))

    def h0_at(self, t):
        """H0 = p^2 / 2 + omega^2 q^2 / 2 at t as a real band."""
        w = self.omega(t)
        return self._p2 / 2.0 + 0.5 * w * w * self._q2

    def h1_at(self, t):
        """H1 = -(omegadot / 4 omega)(qp + pq) at t as a band; it couples
        only levels two apart and vanishes where omegadot does."""
        return self._cd_scale(t) * self._qp_sym

    def dh0_dlambda_at(self, t):
        """[dH0/domega] = [omega q^2] at t as a band, or as bands of shape
        (N, 2, d) for N times: the operator of the coupling rows
        (``coupling_rows``)."""
        return [np.multiply.outer(self.omega(t), self._q2)]

    def coupling_rows(self, times, spectra, k):
        """The coupling rows of a block of H0 spectra, one parity sector
        at a time (see ``ParametrizedModel.coupling_rows``): omega q^2
        couples only levels two apart, so <n|dH0/domega|l> vanishes
        across sectors.  In sector s the rows of its k lowest
        eigenvectors (at most its size) are formed on the q^2 band, as
        the band product of those k vectors times the sector's
        eigenvector matrix: no dense dH0 and no d x d product."""
        bands = self.dh0_dlambda_at(np.asarray(times, dtype=float))[0]
        out = []
        for parity in (0, 1):
            levels = np.stack([spec.sectors[parity][0] for spec in spectra])
            # row j of w[b] is point b's sector eigenvector j
            w = np.stack([spec.sectors[parity][1].T for spec in spectra])
            diag = bands[:, None, 0, parity::2]
            off = bands[:, None, 1, parity::2][..., :-1]
            low = w[:, :k]
            bras = low * diag
            bras[..., :-1] += low[..., 1:] * off
            bras[..., 1:] += low[..., :-1] * off
            out.append((levels, (bras @ w.transpose(0, 2, 1))[:, None]))
        return out

    def apply_h1(self, times, vectors, out):
        """out[b] = H1(t) @ vectors[b] for each t = times[b], one band
        product with no dense matrix: H1 couples only levels two apart
        and has a zero diagonal."""
        scale = self._cd_scale(np.asarray(times, dtype=float))
        upper = scale[:, None, None] * self._qp_sym[1, :-2, None]
        np.multiply(upper, vectors[:, 2:], out=out[:, :-2])
        out[:, -2:] = 0.0
        out[:, 2:] += upper.conj() * vectors[:, :-2]
        return out

    def commutator(self, a, b):
        """i[a, b] for two bands a and b in the span of q^2, p^2 and
        qp + pq (every ``h_drive_at`` band), as a band.

        The exact commutator of two bands also has a +-4 diagonal,
        a2_i b2_{i+2} - b2_i a2_{i+2}; it vanishes when both +2
        diagonals are complex multiples of sqrt((n+1)(n+2)), as they are
        in that span.  The band is therefore the commutator of the
        truncated matrices themselves, corner included.  Im(a2 b2^*) is
        formed from real products: the real part of the complex product,
        which is not needed, overflows first for a huge auxiliary term."""
        a0, a2, b0, b2 = a[0], a[1, :-2], b[0], b[1, :-2]
        x = a2.imag * b2.real - a2.real * b2.imag   # Im(a2 b2^*)
        out = np.zeros((2, self.dim), dtype=complex)
        out[0, :-2] = -2.0 * x
        out[0, 2:] += 2.0 * x
        out[1, :-2] = 1j * (b2 * (a0[:-2] - a0[2:]) - a2 * (b0[:-2] - b0[2:]))
        return out

    def evolve_block(self, hs, dts, psi):
        """The state after each step of a block, shape (B,) + psi.shape
        (psi of shape (d,) or (d, K)): step j applies
        exp(-i dts[j] hs[j]) for a band hs[j] to the state after step
        j - 1.  The block's live sectors are solved in one
        ``_sector_spectra`` call, and each step is two real GEMMs on the
        sector's rows; a sector where psi is exactly zero stays zero,
        unsolved, since no band couples the two sectors."""
        psi = np.ascontiguousarray(psi, dtype=complex)
        out = np.zeros((len(hs),) + psi.shape, dtype=complex)
        live = [parity for parity in (0, 1) if psi[parity::2].any()]
        for parity, (vals, vecs, phases) in zip(
                live, self._sector_spectra(self._checked_bands(hs), live)):
            rows = psi[parity::2].reshape(vals.shape[1], -1)
            for j, dt in enumerate(dts):
                # the sector of hs[j] is P V diag(vals) V^T P^*, P =
                # diag(phases); a complex block viewed as floats
                # interleaves re and im
                rows = rows * phases[j].conj()[:, None]
                rows = (vecs[j].T @ rows.view(float)).view(complex)
                rows *= np.exp(-1j * dt * vals[j])[:, None]
                rows = (vecs[j] @ rows.view(float)).view(complex) \
                    * phases[j][:, None]
                out[j, parity::2] = rows.reshape(out[j, parity::2].shape)
        return out

    def _checked_bands(self, hs):
        """The bands hs stacked (B, 2, d).  Raises BandStructureError for
        any input that is not a (2, d) band, ValueError for NaN or inf in
        one, and NonHermitianInput for an imaginary diagonal above
        HERMITIAN_TOL (as ``assert_hermitian`` on the matrix the band
        stands for)."""
        for h in hs:
            if np.shape(h) != (2, self.dim):
                raise BandStructureError(
                    f"the solver takes the band (2, {self.dim}) of a matrix "
                    f"that couples only levels two apart, got shape "
                    f"{np.shape(h)}")
        bands = np.array(hs)
        if not np.isfinite(bands).all():
            raise ValueError("band input has non-finite entries")
        diagonal, upper = bands[:, 0], bands[:, 1, :-2]
        if np.iscomplexobj(bands) and diagonal.imag.any():
            dev = 2.0 * np.linalg.norm(diagonal.imag, axis=1)
            scale = np.hypot(np.linalg.norm(diagonal, axis=1),
                             math.sqrt(2.0) * np.linalg.norm(upper, axis=1))
            bad = np.flatnonzero(dev > HERMITIAN_TOL
                                 * np.maximum(scale, 1e-300))
            if bad.size:
                raise NonHermitianInput(
                    f"band deviates from Hermiticity by {dev[bad[0]]:.3g} "
                    f"(scale {scale[bad[0]]:.3g})")
        return bands

    def _sector_spectra(self, bands, parities):
        """(vals, vecs, phases) per requested parity sector of a block of
        checked bands (B, 2, d): point b's block of its band is
        P vecs[b] diag(vals[b]) vecs[b]^T P^*, P = diag(phases[b]), with
        vecs real from one stevd call per point, written into one fresh
        (B, m, m) array per sector."""
        count = len(bands)
        sectors = []
        for parity in parities:
            # the sector's levels are parity, parity + 2, ...
            diag = bands[:, 0, parity::2].real
            off = bands[:, 1, :-2][:, parity::2]
            mags = np.abs(off)
            start = np.zeros((count, 1))
            if np.iscomplexobj(off):
                args = np.where(mags > 0, np.angle(off), 0.0)
                phases = np.exp(-1j * np.concatenate(
                    (start, np.cumsum(args, axis=1)), axis=1))
            else:  # a real band takes signs and keeps its vectors real
                phases = np.cumprod(np.concatenate(
                    (start + 1.0, np.where(off < 0, -1.0, 1.0)), axis=1),
                    axis=1)
            size = diag.shape[1]
            vectors = np.empty((count, size, size))
            vals, info = _STEVD(diag, mags, vectors)
            if info:
                raise LinAlgError(f"LAPACK stevd failed with info={info}")
            sectors.append((vals, vectors.transpose(0, 2, 1), phases))
        return sectors

    def _diagonalize(self, hs):
        """Spectra of a block of bands, each a two-sector
        ``spectral.Spectrum``: both parity sectors solved, each sector's
        eigenvectors divided in place by their pivot phases
        (``spectral.gauge_fix``; a real band's stay real) and the two
        ascending energy lists merged, ties to the even sector."""
        sectors = self._sector_spectra(self._checked_bands(hs), (0, 1))
        count, dim = len(hs), self.dim
        merged = np.concatenate([vals for vals, _, _ in sectors], axis=1)
        order = np.argsort(merged, axis=1, kind="stable")
        energies = np.take_along_axis(merged, order, axis=1)
        # the level of each sector column in the merged, ascending order
        levels = np.empty_like(order)
        np.put_along_axis(levels, order, np.arange(dim)[None, :], axis=1)
        fixed, start = [], 0
        for vals, vecs, phases in sectors:
            if np.iscomplexobj(phases):
                vecs = vecs * phases[:, :, None]
            else:
                vecs *= phases[:, :, None]
            vecs /= gauge_fix(vecs)
            fixed.append((levels[:, start:start + vals.shape[1]], vecs))
            start += vals.shape[1]
        return [Spectrum(energies[b], tuple(
            (own[b], vecs[b]) for own, vecs in fixed)) for b in range(count)]


def ho_metric(omega: float, n) -> np.ndarray | float:
    """Closed-form per-level metric (n^2 + n + 1) / (8 omega^2) for the
    frequency parameter."""
    n = np.asarray(n, dtype=float)
    out = (n * n + n + 1.0) / (8.0 * omega * omega)
    return out if out.ndim else float(out)


def cd_exact_energy(omega: float, omega_dot: float, n: int) -> float:
    """Closed-form level n of the driven oscillator H0 + H1,
    omega sqrt(1 - omegadot^2/4 omega^4) (n + 1/2): the level of an
    oscillator of that effective frequency.  Raises SupercriticalDrive
    when the drive ratio omegadot^2/4 omega^4 reaches one, where the
    discrete spectrum is lost.
    """
    ratio = omega_dot * omega_dot / (4.0 * omega**4)
    if ratio >= 1.0:
        raise SupercriticalDrive(f"drive ratio {ratio:.3g} >= 1")
    return omega * math.sqrt(1.0 - ratio) * (n + 0.5)


# Raman realization on an ion trapped at the sideband detuning nu (so
# the effective mass is 1): the adiabatic elimination of the spin state
# gives the quadratic Hamiltonian while its detuning DELTA_SPIN is much
# larger than the two-photon coupling, which is 2 sqrt((nu + DELTA_SPIN)
# Omega) whatever the Lamb-Dicke parameter, beam amplitudes and
# excited-state detuning; a ratio of the two below VALIDITY_MIN warns.
DELTA_SPIN = 1e3
VALIDITY_MIN = 10.0


@dataclass(frozen=True)
class WaveformTable:
    """Time series of the laser drive realizing a frequency ramp.

    In the frame of the sideband detuning nu (effective mass 1, the
    oscillator's q and p) the drive realizes H0 + H1 of the ramp as
    c_q q^2 + c_p p^2 + c_x (qp + pq), with
    c_q = nu (nu - Omega_eff2 + Re Omega_eff1) / 2 = omega^2 / 2,
    c_p = (nu - Omega_eff2 - Re Omega_eff1) / (2 nu) = 1/2 and
    c_x = -Im Omega_eff1 / 2 = -omegadot / (4 omega).
    """

    times: np.ndarray
    omega: np.ndarray
    omega_dot: np.ndarray
    potential: np.ndarray       # Omega(t) >= 0, the squeezing drive
    omega_eff1: np.ndarray      # complex: -Omega + i omegadot / 2 omega
    validity_ratio: np.ndarray

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
            "Omega_eff2": self.potential,   # Omega_eff2 = Omega
            "validity_ratio": self.validity_ratio,
        }


def ion_waveforms(config: HOConfig, nu: float,
                  grid_points: int = 401) -> WaveformTable:
    """Map a frequency ramp to effective Raman drive waveforms.

    Uses omega = sqrt(nu (nu - 2 Omega)), i.e. Omega = (nu^2 - omega^2)
    / (2 nu), and emits Omega_eff1 = -Omega + i omegadot/(2 omega),
    Omega_eff2 = Omega; the phase of the third beam is the argument of
    Omega_eff1.  Raises InvalidDetuning when omega(t) exceeds nu
    anywhere (the laser-induced potential would have to flip sign) and
    warns when the adiabatic-elimination validity ratio drops below
    VALIDITY_MIN.
    """
    if nu <= 0:
        raise InvalidDetuning("nu must be positive")
    # a numpy scalar's nu^2 past float range raises under np.errstate,
    # where a Python float's gives inf
    nu = np.float64(nu)
    proto = config.protocol()
    times = np.linspace(0.0, config.tau, grid_points)
    omega, omega_dot = proto.value(times)[:, 0], proto.derivative(times)[:, 0]
    if np.any(omega * omega > nu * nu):
        raise InvalidDetuning(
            f"omega(t) reaches {omega.max():g} > nu = {nu:g}; the ramp is "
            "not reachable at this sideband detuning")
    potential = (nu * nu - omega * omega) / (2.0 * nu)
    eff1 = -potential + 0.5j * omega_dot / omega

    coupling = 2.0 * np.sqrt((nu + DELTA_SPIN) * potential)
    ratio = np.divide(DELTA_SPIN, coupling, out=np.full_like(coupling, np.inf),
                      where=coupling > 0)
    if ratio.min() < VALIDITY_MIN:
        warnings.warn(
            f"adiabatic-elimination ratio {ratio.min():.3g} below "
            f"{VALIDITY_MIN:g}", ValidityWarning, stacklevel=2)

    # Round trip: the emitted potential must reproduce omega exactly.
    back = np.sqrt(nu * (nu - 2.0 * potential))
    error = np.abs(back - omega).max()
    if not error <= 1e-12 * max(1.0, omega.max()):
        raise InvalidDetuning(
            f"waveform round trip misses omega by {error:.3g}: at nu = "
            f"{nu:g} the potential cannot encode omega to precision")
    return WaveformTable(times, omega, omega_dot, potential, eff1, ratio)
