"""Parametrized Hermitian families: the model interface consumed by the
work-statistics and geometry machinery.

A model bundles a protocol with matrix builders:

    h0_of(lam)  -> H0 at parameter point lam            (required)
    dh0_of(lam) -> [dH0/dlam_mu for each parameter]     (analytic, or a
                   centered-difference fallback is used)
    h1_of(t)    -> closed-form auxiliary term, if the backend has one;
                   otherwise H1 is assembled from the spectrum.

Spectra are memoized by parameter point, since every downstream
quantity (transition probabilities, metric tensors, work moments)
reuses them: H0 spectra are keyed by the exact float bytes of lam, and
driving-Hamiltonian spectra by those of (lam, lamdot), in one private
least-recently-used store per model.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .protocols import Protocol
from .spectral import Spectrum, cd_coupling, dense_evolve, spectrum


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

    def __len__(self) -> int:
        return len(self._entries)

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
    """Hermitian family H0(lambda(t)) driven along a protocol.

    ``truncated`` marks backends whose matrices are finite sections of
    an infinite operator; work statistics then track how much weight
    strays into the polluted top of the basis.

    The matrix builders are passed as callables or, in subclasses,
    defined as the methods ``_h0_of``, ``_dh0_of`` and ``_h1_of`` (a
    stored bound method would tie the model into a reference cycle and
    keep its spectra alive until the cyclic collector runs).  H0 and
    driving-Hamiltonian spectra share one store of at most ``cache_size``
    entries (H0 keys are bytes and driving keys pairs of bytes, so the
    two kinds never collide).
    """

    truncated = False
    _dh0_of = None
    _h1_of = None

    def __init__(self, protocol: Protocol, h0_of=None, dh0_of=None, h1_of=None,
                 fd_step_scale: float = 1e-5, cache_size: int = STORE_SIZE):
        self.protocol = protocol
        for name, fn in (("_h0_of", h0_of), ("_dh0_of", dh0_of),
                         ("_h1_of", h1_of)):
            if fn is not None:
                setattr(self, name, fn)
        self._fd_step = fd_step_scale * protocol.duration
        self._store = SpectrumCache(cache_size)
        self._dim = int(self._h0_of(protocol.initial).shape[0])

    def _h0_of(self, lam) -> np.ndarray:
        raise NotImplementedError("pass h0_of or override _h0_of")

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def tau(self) -> float:
        return self.protocol.duration

    # -- matrix builders ------------------------------------------------
    def h0_at(self, t: float) -> np.ndarray:
        return self._h0_of(self.protocol.value(t))

    def dh0_dlambda_at(self, t: float) -> list[np.ndarray]:
        lam = self.protocol.value(t)
        if self._dh0_of is not None:
            return self._dh0_of(lam)
        out = []
        for mu in range(lam.shape[0]):
            h = max(self._fd_step, 1e-8 * max(abs(lam[mu]), 1.0))
            dlam = np.zeros_like(lam)
            dlam[mu] = h
            out.append((self._h0_of(lam + dlam) - self._h0_of(lam - dlam))
                       / (2.0 * h))
        return out

    def dh0_dt_at(self, t: float) -> np.ndarray:
        return np.tensordot(self.protocol.derivative(t),
                            np.array(self.dh0_dlambda_at(t), dtype=complex), 1)

    def h1_at(self, t: float) -> np.ndarray:
        if self._h1_of is not None:
            return self._h1_of(t)
        return cd_coupling(self.spectrum0_at(t), self.dh0_dt_at(t))

    def h_cd_at(self, t: float) -> np.ndarray:
        return self.h0_at(t) + self.h1_at(t)

    def h_drive_at(self, t: float, h1_scale: float = 1.0):
        """H0 + h1_scale * H1 at t as the model's eigensolvers take it
        (dense here); h1_scale = 0 gives the bare H0."""
        if h1_scale == 0.0:
            return self.h0_at(t)
        return self.h0_at(t) + h1_scale * self.h1_at(t)

    def evolve(self, h, dt: float, psi):
        """exp(-i dt h) psi for an ``h_drive_at`` form h (dense here)."""
        return dense_evolve(h, dt, psi)

    def apply_h1(self, times, vectors, out):
        """out[b] = H1(t) @ vectors[b] for t = times[b], vectors of shape
        (B, d, K): the dense H1 matrices stacked into one batched product."""
        return np.matmul(np.stack([self.h1_at(t) for t in times]), vectors,
                         out=out)

    # -- cached spectra --------------------------------------------------
    def _diagonalize(self, h: np.ndarray) -> Spectrum:
        """Diagonalization used for cached spectra; backends with known
        structure (banded, sector-split) override this."""
        return spectrum(h, check=False, degeneracy_tol=0.0)

    def _cached(self, key, operator) -> Spectrum:
        spec = self._store.get(key)
        if spec is None:
            spec = self._diagonalize(operator())
            self._store.put(key, spec)
        return spec

    def spectrum0_at(self, t: float) -> Spectrum:
        return self._cached(self.protocol.value(t).tobytes(),
                            lambda: self.h_drive_at(t, 0.0))

    def spectrum_cd_at(self, t: float) -> Spectrum:
        key = (self.protocol.value(t).tobytes(),
               self.protocol.derivative(t).tobytes())
        return self._cached(key, lambda: self.h_drive_at(t))


def two_level_model(protocol: Protocol, field=None) -> ParametrizedModel:
    """Avoided-crossing two-level family H0 = lam * sigma_z + sigma_x.

    A closed-form testbed: eigenvalues -+sqrt(1 + lam^2) and auxiliary
    term H1 = -(lamdot / (2 (1 + lam^2))) sigma_y.
    """
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    if field is None:
        field = sx

    def h0_of(lam):
        return lam[0] * sz + field

    return ParametrizedModel(protocol, h0_of, dh0_of=lambda lam: [sz])
