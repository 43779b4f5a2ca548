"""Parametrized Hermitian families: the model interface consumed by the
work-statistics and geometry machinery.

A model bundles a protocol with its operators at time t: h0_at(t),
h1_at(t) (the auxiliary term), h_drive_at(t, s) = H0 + s H1 and
dh0_dlambda_at(t) in the model's own format, which its eigensolver,
``evolve_block``, ``commutator`` and ``coupling_rows`` take.  The generic
``ParametrizedModel`` builds dense matrices from two callables,
h0_of(lam) and dh0_of(lam), its analytic derivatives (both required:
there is no finite-difference fallback), assembles H1 from the
spectrum by ``spectral.cd_coupling``, and exponentiates and commutes
dense matrices.  A structured backend (the oscillator's bands, for
one) overrides the operators with its own format and passes None for
both callables.

Spectra (``spectral.Spectrum``: one sector of all levels for the
dense family, one per parity for the oscillator's bands) are memoized
in one private least-recently-used store per model, since every
downstream quantity (transition probabilities, metric tensors, work
moments) reuses them.  The key (h1_scale, float(t)) names the spectrum
of h_drive_at(t, h1_scale), h1_scale = 0 for H0: a model's protocol is
fixed, so the time names the parameter point without the bytes of
lam(t) and lamdot(t), or the two protocol evaluations that formed them.
``spectra0_at`` and ``spectra_cd_at`` take a block of times, of H0 and
of H0 + H1, and solve its misses BLOCK_POINTS at a time, one eigensolver
call per chunk, so that no call allocates more than one chunk's
eigenvectors; a single spectrum (``spectrum0_at``, ``spectrum_cd_at``)
is a block of one.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .protocols import Protocol
from .spectral import BLOCK_POINTS, Spectrum, cd_coupling, dense_spectrum


# default spectra per model: the 201-point grid of verify's bound chain
STORE_SIZE = 201


class SpectrumCache:
    """Least-recently-used map from a key to a Spectrum, holding at most
    ``maxsize`` entries."""

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError("a spectrum cache holds at least one entry")
        self.maxsize = int(maxsize)
        self._entries: OrderedDict = OrderedDict()

    def get(self, key) -> Spectrum | None:
        hit = self._entries.get(key)
        if hit is not None:
            self._entries.move_to_end(key)
        return hit

    def put(self, key, spec: Spectrum) -> None:
        self._entries[key] = spec
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)


class ParametrizedModel:
    """Hermitian family H0(lambda(t)) driven along a protocol, as dense
    matrices from the callables ``h0_of`` and ``dh0_of`` (see the module
    docstring).

    ``truncated`` marks backends whose matrices are finite sections of
    an infinite operator; work statistics then track how much weight
    strays into the polluted top of the basis.  H0 and
    driving-Hamiltonian spectra share one store of at most ``cache_size``
    entries (their keys differ in h1_scale, so the two kinds never
    collide).
    """

    truncated = False

    def __init__(self, protocol: Protocol, h0_of, dh0_of,
                 cache_size: int = STORE_SIZE):
        self.protocol = protocol
        self._h0_of, self._dh0_of = h0_of, dh0_of
        self._store = SpectrumCache(cache_size)
        self.dim = int(np.shape(self.h0_at(0.0))[-1])

    @property
    def tau(self) -> float:
        return self.protocol.duration

    # -- operators -------------------------------------------------------
    def h0_at(self, t: float) -> np.ndarray:
        return self._h0_of(self.protocol.value(t))

    def dh0_dlambda_at(self, t: float) -> list[np.ndarray]:
        return self._dh0_of(self.protocol.value(t))

    def h1_at(self, t: float) -> np.ndarray:
        dh0_dt = np.tensordot(self.protocol.derivative(t),
                              np.array(self.dh0_dlambda_at(t), dtype=complex),
                              1)
        return cd_coupling(self.spectrum0_at(t), dh0_dt)

    def h_drive_at(self, t: float, h1_scale: float):
        """H0 + h1_scale * H1 at t in the model's operator format;
        h1_scale = 0 gives the bare H0."""
        if h1_scale == 0.0:
            return self.h0_at(t)
        return self.h0_at(t) + h1_scale * self.h1_at(t)

    def evolve_block(self, hs, dts, psi):
        """The state after each step of a block, shape (B,) + psi.shape:
        step j applies exp(-i dts[j] hs[j]) to the state after step
        j - 1 (psi before step 0), for ``h_drive_at`` forms hs and psi
        of shape (d,) or (d, K).  Dense Hermitian matrices here, each
        through its spectrum (one ``numpy.linalg.eigh`` per step)."""
        out = np.empty((len(hs),) + np.shape(psi), dtype=complex)
        for j, (h, dt) in enumerate(zip(hs, dts)):
            e, v = np.linalg.eigh(h)
            psi = out[j] = (v * np.exp(-1j * e * dt)) @ (v.conj().T @ psi)
        return out

    def commutator(self, a, b):
        """i[a, b] for two ``h_drive_at`` forms a and b: dense matrices
        here, Hermitian when both are."""
        return 1j * (a @ b - b @ a)

    def apply_h1(self, times, vectors, out):
        """out[b] = H1(t) @ vectors[b] for t = times[b], vectors of shape
        (B, d, K): the dense H1 matrices stacked into one batched product."""
        return np.matmul(np.stack([self.h1_at(t) for t in times]), vectors,
                         out=out)

    def coupling_rows(self, times, spectra, k):
        """The coupling rows of a block of H0 ``spectra`` at ``times``,
        per sector of levels that dH0 does not couple to the rest: the
        level index in the ascending spectrum of each of the sector's m
        eigenvectors, shape (B, m), ascending, and the rows
        <n|dH0/dlam_mu|l> of its min(k, m) lowest eigenvectors n against
        all of its l, shape (B, P, min(k, m), m) for P parameters.  A
        dense model's spectra are one sector of all d levels, whose
        vectors are read as they are kept."""
        vectors = [spec.sectors[0][1] for spec in spectra]
        rows = np.array([[(v[:, :k].conj().T @ part) @ v
                          for part in self.dh0_dlambda_at(t)]
                         for t, v in zip(times, vectors)])
        levels = np.broadcast_to(np.arange(self.dim), (len(times), self.dim))
        return [(levels, rows)]

    # -- cached spectra --------------------------------------------------
    def _diagonalize(self, hs) -> list[Spectrum]:
        """Diagonalizations of a block of ``h_drive_at`` forms for cached
        spectra: one-sector spectra from ``spectral.dense_spectrum``, as
        ``spectral.spectrum`` gives without its checks; structured
        backends override it with their solver and their sectors."""
        return [dense_spectrum(e, v) for e, v in map(np.linalg.eigh, hs)]

    def _spectra(self, times, h1_scale):
        """Spectra of ``h_drive_at(t, h1_scale)`` at each of ``times``
        through the store: hits are read, and the misses (each distinct
        key once) solved BLOCK_POINTS at a time, one ``_diagonalize``
        call each, and stored in the order of ``times``."""
        keys = [(h1_scale, float(t)) for t in times]
        specs = [self._store.get(key) for key in keys]
        if None not in specs:
            return specs
        missing = list({key: t for key, t, spec in zip(keys, times, specs)
                        if spec is None}.items())
        solved = {}
        for start in range(0, len(missing), BLOCK_POINTS):
            chunk = missing[start:start + BLOCK_POINTS]
            for (key, _), spec in zip(chunk, self._diagonalize(
                    [self.h_drive_at(t, h1_scale) for _, t in chunk])):
                solved[key] = spec
                self._store.put(key, spec)
        return [solved[key] if spec is None else spec
                for key, spec in zip(keys, specs)]

    def spectra0_at(self, times) -> list:
        """The H0 spectra at each of ``times``, one block through the
        store."""
        return self._spectra(times, 0.0)

    def spectrum0_at(self, t: float):
        return self._spectra([t], 0.0)[0]

    def spectra_cd_at(self, times) -> list:
        """The spectra of H0 + H1 at each of ``times``, one block
        through the store."""
        return self._spectra(times, 1.0)

    def spectrum_cd_at(self, t: float):
        return self._spectra([t], 1.0)[0]

