"""Gauge-fixed spectra, the counterdiabatic auxiliary term, and exact
unitary propagation for Hermitian families.

Internal units: hbar = 1.

Every eigen-decomposition is a ``Spectrum``, its eigenvectors kept per
sector of levels that the operator does not couple to the rest: one
sector for a dense matrix, the two parity sectors for the oscillator.

Propagation uses the fourth-order Magnus integrator at the two Gauss
points (Iserles & Norsett, Phil. Trans. R. Soc. A 357, 983 (1999);
Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).  A step of
length h takes the Hamiltonians Ha and Hb at the Gauss points and
applies one exponential of

    Heff = (Ha + Hb) / 2 + (sqrt(3) / 12) h i[Ha, Hb].

The Hamiltonians come from a callable (a model's ``h_drive_at`` at one
scale) and i[Ha, Hb] is the model's ``commutator``, each in the model's
own format: dense matrices, or the oscillator's bands.  Heff depends on
the time, not on the state, so a pass forms its exponents BLOCK_POINTS
steps at a time and hands each block to the model's ``evolve_block``,
which solves the block's spectra (one block call on the oscillator's
sectors) and applies the steps in order, so every step is exactly
unitary.

The auxiliary term is assembled from the gauge-invariant matrix-element
form

    <m|H1|n> = i <m| dH0/dt |n> / (eps_n - eps_m)      (m != n),

with zero diagonal.  This corresponds to the parallel-transport gauge
<n|d/dt n> = 0 and avoids differentiating eigenvectors numerically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateGaugeWarning, DegeneracyError,
                     NonHermitianInput, StepNotConverged)


# relative Frobenius deviation from Hermiticity that an input may carry
HERMITIAN_TOL = 1e-12
# relative gap (against the spectral scale) below which two levels count
# as degenerate, where the auxiliary term and the geometric tensor diverge
DEGENERACY_TOL = 1e-9
# coupling (against the largest one) below which cd_coupling treats a
# degenerate pair as uncoupled
COUPLING_TOL = 1e-12
# times (grid points or Magnus steps) whose spectra one solver call
# takes: a model's store solves its misses, the fluctuation kernel its
# grid and propagation its exponents in blocks of at most this many,
# so that no call holds more than one block's eigenvectors (whole-grid
# kernel arrays ran slower)
BLOCK_POINTS = 16


def assert_hermitian(h: np.ndarray) -> None:
    """Raise NonHermitianInput unless h equals its conjugate transpose
    within HERMITIAN_TOL in relative Frobenius norm."""
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise NonHermitianInput("operator is not a square matrix")
    scale = np.linalg.norm(h)
    dev = np.linalg.norm(h - h.conj().T)
    if dev > HERMITIAN_TOL * max(scale, 1e-300):
        raise NonHermitianInput(
            f"operator deviates from Hermiticity by {dev:.3g} "
            f"(scale {scale:.3g})")


def gauge_fix(vectors: np.ndarray) -> np.ndarray:
    """The unit phase of each column's pivot, shape (..., 1, n) for
    columns over the last two axes (..., d, n): its largest-magnitude
    entry, the lowest row of a tie.  Dividing the columns by it makes
    every pivot positive, the gauge of ``spectrum``: a real column's
    pivot exactly, a complex column's to rounding (its imaginary part
    at most about 1.25e-16 of its real part)."""
    rows = np.argmax(np.abs(vectors), axis=-2)[..., None, :]
    pivots = np.take_along_axis(vectors, rows, axis=-2)
    return pivots / np.abs(pivots)


class Spectrum:
    """An eigen-decomposition kept one sector at a time: the ascending
    ``energies`` of all d levels and, in ``sectors``, a pair (levels,
    vectors) per sector of levels that the operator does not couple to
    the rest.  Sector s of S sits on rows s, s + S, ...: ``levels`` is
    the index in ``energies`` of each of its eigenvectors, ascending,
    and ``vectors`` holds them as columns on those rows, in the gauge of
    ``gauge_fix`` (each pivot positive, exactly in a real column and to
    rounding in a complex one).  A dense spectrum is one sector of all d
    levels (``dense_spectrum``); the oscillator's has its two parity
    sectors.  Eigenvectors become d-vectors only when read (``columns``,
    and ``states``, which is ``columns(d)``), so a stored spectrum holds
    one form of them."""

    __slots__ = ("energies", "sectors")

    def __init__(self, energies, sectors):
        self.energies, self.sectors = energies, sectors

    def columns(self, k: int) -> np.ndarray:
        """The first k eigenvectors, (d, k), from the sector vectors of
        levels below k alone: a sector's levels ascend, so those are a
        prefix of its vectors."""
        dim, stride = len(self.energies), len(self.sectors)
        out = np.zeros((dim, k), dtype=self.sectors[0][1].dtype)
        for s, (levels, vectors) in enumerate(self.sectors):
            count = levels.searchsorted(k)
            out[s::stride, levels[:count]] = vectors[:, :count]
        return out

    @property
    def states(self) -> np.ndarray:
        """All d eigenvectors as the columns of a d x d matrix."""
        return self.columns(len(self.energies))

    def transition_probs(self, columns: np.ndarray) -> np.ndarray:
        """|states^dagger columns|^2, (d, k), rows in level order, one
        sector at a time: each sector's vectors against the columns' rows
        there, with no dense ``states``.  A column of another sector is
        zero on these rows, so its overlaps come out exactly zero."""
        stride = len(self.sectors)
        out = np.empty((len(self.energies), columns.shape[1]))
        for s, (levels, vectors) in enumerate(self.sectors):
            out[levels] = np.abs(vectors.conj().T @ columns[s::stride]) ** 2
        return out


def dense_spectrum(energies: np.ndarray, vectors: np.ndarray) -> Spectrum:
    """The one-sector Spectrum of an ``eigh`` result, its eigenvector
    columns divided by their pivot phases (``gauge_fix``)."""
    return Spectrum(energies, ((np.arange(len(energies)),
                                vectors / gauge_fix(vectors)),))


def spectrum(h: np.ndarray) -> Spectrum:
    """Diagonalize a Hermitian matrix with the fixed phase gauge.

    Always checks Hermiticity (``assert_hermitian``) and always emits
    DegenerateGaugeWarning when two eigenvalues are closer than
    DEGENERACY_TOL times the spectral scale; the gauge is still applied
    deterministically.
    """
    assert_hermitian(h)
    energies, vectors = np.linalg.eigh(h)
    scale = max(abs(energies[0]), abs(energies[-1]), 1e-300)
    if energies.shape[0] > 1 and np.diff(energies).min() < DEGENERACY_TOL * scale:
        warnings.warn("near-degenerate eigenvalues: phase gauge fixed but "
                      "unstable under perturbation", DegenerateGaugeWarning,
                      stacklevel=2)
    return dense_spectrum(energies, vectors)


def cd_coupling(spec: Spectrum, dh0_dt: np.ndarray) -> np.ndarray:
    """Counterdiabatic term from a spectrum and the Hamiltonian velocity.

    Returns H1 in the original basis.  Raises DegeneracyError when a
    near-degenerate pair (gap below DEGENERACY_TOL * spectral scale) is
    coupled by dh0_dt above COUPLING_TOL * ||dh0_dt||; uncoupled
    degenerate pairs contribute zero.
    """
    e, v = spec.energies, spec.states
    m = v.conj().T @ dh0_dt @ v
    gaps = e[None, :] - e[:, None]
    scale = max(abs(e[0]), abs(e[-1]), 1e-300)
    drive_scale = max(np.abs(m).max(), 1e-300)
    tiny = np.abs(gaps) < DEGENERACY_TOL * scale
    np.fill_diagonal(tiny, False)
    coupled = tiny & (np.abs(m) > COUPLING_TOL * drive_scale)
    if np.any(coupled):
        i, j = np.argwhere(coupled)[0]
        raise DegeneracyError(
            f"drive couples near-degenerate levels {i} and {j} "
            f"(gap {gaps[i, j]:.3g})")
    safe = np.where(np.abs(gaps) < DEGENERACY_TOL * scale, 1.0, gaps)
    h1_eig = 1j * m / safe
    h1_eig[tiny] = 0.0
    np.fill_diagonal(h1_eig, 0.0)
    return v @ h1_eig @ v.conj().T


# Gauss nodes c1,2 = 1/2 -+ sqrt(3)/6 of a step, and the weight of the
# commutator in the fourth-order Magnus exponent
_GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_MAGNUS_WEIGHT = math.sqrt(3.0) / 12.0
# diff(r, 2r) / err(r) for an error c / r^4
_HALVING_FACTOR = 15.0 / 16.0
# Magnus steps (substeps x grid intervals, over all runs) of one
# propagate call: 10x the costliest test propagation (960) and 40x
# verify's certificate (240), whose steps take about 0.46 ms each in
# blocks (0.50 ms one at a time) on one core of a 2-vCPU Xeon machine
MAX_STEPS = 10_000


def _run_grid(h_at, model, psi0, grid, substeps):
    """The states on the grid at ``substeps`` Magnus steps per interval:
    the exponents of BLOCK_POINTS steps at a time, each block applied
    by one ``model.evolve_block`` call."""
    steps = []
    for t0, t1 in zip(grid[:-1], grid[1:]):
        h = (t1 - t0) / substeps
        steps += [(t0 + j * h, h) for j in range(substeps)]
    states = np.empty((len(grid),) + psi0.shape, dtype=complex)
    states[0] = psi = psi0
    for start in range(0, len(steps), BLOCK_POINTS):
        block = steps[start:start + BLOCK_POINTS]
        heffs = []
        for t, h in block:
            ha = h_at(t + _GAUSS_NODES[0] * h)
            hb = h_at(t + _GAUSS_NODES[1] * h)
            heffs.append(0.5 * (ha + hb)
                         + (_MAGNUS_WEIGHT * h) * model.commutator(ha, hb))
        after = model.evolve_block(heffs, [h for _, h in block], psi)
        psi = after[-1]
        # the steps of the block that end a grid interval
        ends = np.arange(start + 1, start + len(block) + 1)
        done = ends % substeps == 0
        states[ends[done] // substeps] = after[done]
    return states


class Propagation(NamedTuple):
    """What ``propagate`` returns: the states on the grid, shape
    (len(grid),) + psi0.shape, and the Magnus steps per grid interval
    that the refinement settled on."""

    states: np.ndarray
    substeps: int


def propagate(h_at, psi0, grid, *, model, tol: float) -> Propagation:
    """Propagate a state (or a block of column states) through the grid
    under the Hamiltonian ``h_at(t)``, given in ``model``'s operator
    format (``h_at`` is typically ``model.h_drive_at`` at one scale).

    One substep is one fourth-order Magnus step (see the module
    docstring): it evaluates ``h_at`` at the two Gauss points of the
    step and forms one ``model.commutator``; ``model.evolve_block``
    applies the exact exponentials of BLOCK_POINTS steps at a time, so
    every step is exactly unitary.  The substep count per grid interval
    is refined until halving it changes the final state by less than
    ``tol``.  A probe pair (1 and 2 substeps) fixes the constant of the
    fourth-order error model ``c / r^4``, from which the required count
    is predicted directly instead of doubling all the way up.  Raises
    StepNotConverged before a pair of runs would take the call past
    MAX_STEPS steps in all.
    """
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing and start at 0")
    psi0 = np.asarray(psi0, dtype=complex)
    norms = np.linalg.norm(psi0, axis=0)
    if np.abs(norms - 1.0).max() > 1e-10:
        raise ValueError("initial state must be normalized")
    spent, diff = 0, math.inf

    def run_pair(coarse):
        # the final state at ``coarse`` substeps per interval and every
        # state at twice that, charged to the budget before either runs
        nonlocal spent
        spent += 3 * coarse * (len(grid) - 1)
        if spent > MAX_STEPS:
            raise StepNotConverged(
                f"{2 * coarse} substeps per interval would take the call "
                f"past MAX_STEPS = {MAX_STEPS} Magnus steps (final "
                f"state still moves by {diff:.3g}, tol {tol:g})")
        final = _run_grid(h_at, model, psi0, grid, coarse)[-1]
        states = _run_grid(h_at, model, psi0, grid, 2 * coarse)
        # halving contract applies to each propagated state separately
        return states, float(np.linalg.norm(states[-1] - final, axis=0).max())

    states, diff = run_pair(1)
    substeps = 2
    # err(r) ~ c / r^4, so diff(r, 2r) = (15/16) c / r^4; sizing r from
    # the probe keeps the halving contract while skipping the doubling ladder
    error_const = diff / _HALVING_FACTOR
    while not diff < tol:  # a NaN difference is no convergence
        predicted = int(np.ceil((_HALVING_FACTOR * error_const / tol) ** 0.25))
        # cap the jump: the error model may not hold yet at coarse steps
        target = int(np.clip(predicted, substeps + 1, 64 * substeps))
        states, diff = run_pair(target)
        substeps = 2 * target
        error_const = diff * target**4 / _HALVING_FACTOR
    return Propagation(states, substeps)


@dataclass(frozen=True)
class CertificateReport:
    """Adiabaticity certificate for a set of eigenlevels."""

    min_overlap: np.ndarray
    final_fidelity: np.ndarray
    passed: bool
    substeps: int   # Magnus steps per grid interval that propagation settled on

    def worst(self) -> float:
        return float(min(self.min_overlap.min(), self.final_fidelity.min()))


# infidelity a certified level may reach along the grid and at its end
CERTIFICATE_THRESHOLD = 1e-6


def level_propagation(model, levels, grid, *, h1_scale: float = 1.0,
                      tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """(states, final fidelity, substeps): eigenlevels of H0(0)
    propagated over the grid and their overlaps with the same levels of
    H0 at the grid's end.  Only the end points' H0 spectra are read.

    ``h1_scale`` rescales the auxiliary term: at 0 the bare H0 generates
    the dynamics (verify's discriminating control reads this fidelity
    alone); the tests run other values to show that a wrong prefactor is
    caught.  The Hamiltonians come from ``model.h_drive_at``; each Magnus
    step takes their commutator by ``model.commutator``, and
    ``model.evolve_block`` exponentiates a block of steps (for the
    oscillator: both on bands, a block's exponentials in one solver call
    per parity sector).  ``levels`` is an integer array.
    """
    width = int(levels.max()) + 1
    psi0 = model.spectrum0_at(0.0).columns(width)[:, levels]
    states, substeps = propagate(lambda t: model.h_drive_at(t, h1_scale),
                                 psi0, grid, model=model, tol=tol)
    final = model.spectrum0_at(grid[-1]).columns(width)[:, levels]
    fidelity = np.abs(np.einsum("dn,dn->n", final.conj(), states[-1]))
    return states, fidelity, substeps


def transitionless_certificate(model, levels, grid, *, h1_scale: float = 1.0,
                               tol: float) -> CertificateReport:
    """Propagate eigenlevels of H0(0) and track overlap with the
    instantaneous eigenstates of H0(t).

    PASS requires both the minimum overlap along the grid and the final
    fidelity to reach 1 - CERTIFICATE_THRESHOLD for every requested
    level.  ``level_propagation`` gives the states and the final
    fidelity (``h1_scale`` as there); the grid's H0 spectra are then one
    ``model.spectra0_at`` call, each read for its first max(levels) + 1
    columns.
    """
    levels = np.atleast_1d(np.asarray(levels, dtype=int))
    grid = np.asarray(grid, dtype=float)
    states, fidelity, substeps = level_propagation(
        model, levels, grid, h1_scale=h1_scale, tol=tol)
    width = int(levels.max()) + 1
    min_overlap = np.ones(len(levels))
    for spec, state in zip(model.spectra0_at(grid), states):
        basis = spec.columns(width)[:, levels]
        overlap = np.abs(np.einsum("dn,dn->n", basis.conj(), state))
        min_overlap = np.minimum(min_overlap, overlap)
    passed = bool(min_overlap.min() >= 1.0 - CERTIFICATE_THRESHOLD
                  and fidelity.min() >= 1.0 - CERTIFICATE_THRESHOLD)
    return CertificateReport(min_overlap, fidelity, passed, substeps)
