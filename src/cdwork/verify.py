"""Named runtime checks over every module's invariants.

Each check returns a CheckResult; the CLI `verify` subcommand prints one
PASS/FAIL line per check and exits nonzero if any fails.  All random
inputs derive from one seeded generator, so a run is reproducible from
its seed.

The checks fall into two lanes that share no state.  Lane A holds the
checks that share the main model's spectrum store.  Lane B holds the
six checks that draw from the seeded generator, kept in their suite
order (each draws where the one before it stopped), the checks that
build their own models, and the bare-drive control, which propagates
the main model's ground state under the bare H0 and reads only its
overlap at t = tau, so that it solves no H0 spectrum between the ends.
``lanes.run_lanes``, the helper ``ho-figure1`` shares, runs them: lane
B in a forked child beside lane A where the process may run on two or
more CPUs, serially otherwise, with the results and the first
exception of a serial run.  Each lane alone, from the state at the
fork, takes about 0.28 s (A) and 0.26 to 0.27 s (B) on one core of a
2-vCPU Xeon machine, lane A the longer by 1% to 8%: lane A's
certificate and duration-length equality, 0.13 s and 0.08 s, against
lane B's length chain and bare control, 0.12 s and 0.04 s.  Checks
move between the lanes only when one lane runs more than 10% longer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import ising
from .errors import TruncationError
from .geometry import (bures_fidelity, chain_lengths, ensemble_rates,
                       fidelity_decay_check, path_lengths, qgt,
                       speed_limit_report)
from .lanes import run_lanes
from .oscillator import (HOConfig, HarmonicOscillator, cd_exact_energy,
                         ho_metric, ion_waveforms)
from .protocols import cubic_ramp, quintic_ramp
from .quadrature import simpson
from .spectral import (Spectrum, cd_coupling, level_propagation, spectrum,
                       transitionless_certificate)
from .workstats import (DEFICIT_TOL, basis_leakage, fluctuation_series,
                        model_ensemble, transition_matrix, work_distribution,
                        work_moments)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def _check_spectrum_contract(rng):
    worst = 0.0
    for _ in range(6):
        h = _random_hermitian(rng, 14)
        spec = spectrum(h)
        v = spec.states
        worst = max(
            worst,
            float(np.abs(v.conj().T @ v - np.eye(14)).max()),
            float(np.linalg.norm(h @ v - v * spec.energies)
                  / max(np.abs(spec.energies).max(), 1.0)),
            0.0 if np.all(np.diff(spec.energies) >= 0) else 1.0,
        )
        pivots = v[np.argmax(np.abs(v), axis=0), np.arange(14)]
        worst = max(worst, float(np.abs(pivots.imag).max()),
                    0.0 if np.all(pivots.real > 0) else 1.0)
    return CheckResult("spectrum-contract", worst <= 1e-10,
                       f"worst residual {worst:.2e}")


def _check_cd_gauge_invariance(rng):
    worst = 0.0
    for _ in range(4):
        h0 = _random_hermitian(rng, 10)
        dh = _random_hermitian(rng, 10)
        spec = spectrum(h0)
        h1_ref = cd_coupling(spec, dh)
        phases = np.exp(2j * np.pi * rng.random(10))
        (levels, vectors), = spec.sectors
        rephased = Spectrum(spec.energies, ((levels, vectors * phases),))
        worst = max(worst, float(np.abs(cd_coupling(rephased, dh) - h1_ref).max()))
        worst = max(worst, float(np.abs(h1_ref - h1_ref.conj().T).max()))
    return CheckResult("cd-gauge-invariance", worst <= 1e-12,
                       f"max deviation {worst:.2e}")


def _check_lz_closed_form(rng):
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    worst = 0.0
    for _ in range(6):
        lam = float(rng.uniform(-2.0, 2.0))
        lamdot = float(rng.uniform(-3.0, 3.0))
        spec = spectrum(lam * sz + sx)
        h1 = cd_coupling(spec, lamdot * sz)
        ref = -(lamdot / (2.0 * (1.0 + lam * lam))) * sy
        worst = max(worst, float(np.abs(h1 - ref).max()))
    return CheckResult("two-level-closed-form", worst <= 1e-12,
                       f"max deviation {worst:.2e}")


def _check_h1_endpoints(model):
    scale = float(np.abs(model.h0_at(0.0)).max())
    dev = max(float(np.abs(model.h1_at(0.0)).max()),
              float(np.abs(model.h1_at(model.tau)).max()))
    return CheckResult("auxiliary-switched-off-at-ends", dev <= 1e-12 * scale,
                       f"max endpoint entry {dev:.2e}")


def _check_certificate(model, levels):
    grid = np.linspace(0.0, model.tau, 81)
    cert = transitionless_certificate(model, levels, grid, tol=3e-7)
    return CheckResult("transitionless-certificate", cert.passed,
                       f"worst overlap {cert.worst():.9f} "
                       f"({cert.substeps} steps per interval)")


def _check_bare_control(model):
    # the certificate's propagation under the bare H0, read only at tau
    _, fidelity, substeps = level_propagation(
        model, np.array([0]), np.linspace(0.0, model.tau, 81),
        h1_scale=0.0, tol=3e-7)
    fid = float(fidelity[0])
    return CheckResult("bare-drive-control-fails", fid < 0.999,
                       f"bare final fidelity {fid:.6f} "
                       f"({substeps} steps per interval)")


def _sized_oscillator(omega_f, tau, beta, times):
    """Oscillator and ensemble on the smallest basis, from 100 levels up
    in steps of 20, whose retained levels keep out of the polluted top
    of the basis at ``times``; hot draws retain more levels and need
    more.  Past 400 levels the last try is returned, and the check that
    uses it raises TruncationError."""
    for dim in range(100, 401, 20):
        model = HarmonicOscillator(HOConfig(1.0, omega_f, tau, dim=dim))
        ensemble = model_ensemble(model, beta)
        if all(basis_leakage(model, ensemble, t) <= DEFICIT_TOL for t in times):
            break
    return model, ensemble


def _check_mean_identity(rng):
    worst = 0.0
    for _ in range(4):
        omega_f = float(rng.uniform(1.5, 3.0))
        tau = float(rng.uniform(0.5, 2.0))
        beta = float(rng.uniform(0.7, 3.0)) if rng.random() < 0.75 else math.inf
        times = np.linspace(0.0, tau, 5)
        model, ensemble = _sized_oscillator(omega_f, tau, beta, times)
        scale = float(np.abs(model.spectrum0_at(0.0).energies).max())
        for t in times:
            moments = work_moments(model, ensemble, t)
            worst = max(worst, abs(moments.mean_cd - moments.mean_ad) / scale)
    return CheckResult("mean-work-identity", worst <= 1e-8,
                       f"max |<W>_cd - <W>_ad| / ||H0|| = {worst:.2e}")


def _check_endpoint_equivalence(model, ensemble):
    worst = 0.0
    for t in (0.0, model.tau):
        cd = work_distribution(model, ensemble, t, "cd")
        ad = work_distribution(model, ensemble, t, "adiabatic")
        if cd.support.shape != ad.support.shape:
            return CheckResult("endpoint-equivalence", False,
                               "atom counts differ at the endpoints")
        worst = max(worst,
                    float(np.abs(cd.support - ad.support).max()),
                    float(np.abs(cd.probabilities - ad.probabilities).max()))
    return CheckResult("endpoint-equivalence", worst <= 1e-8,
                       f"max atom deviation {worst:.2e}")


def _grid_moments(model, ensemble, grid):
    """``work_moments`` at each point of the grid, one transition matrix
    per point, with the driven spectra solved as one block first; both
    moment identities read this one list."""
    model.spectra_cd_at(grid)
    return [work_moments(model, ensemble, t) for t in grid]


def _check_variance_identity(model, ensemble, grid, moments):
    # 1e-6 relative with a 1e-10 absolute floor: differenced second
    # moments cannot resolve excesses near the rounding floor
    rates = ensemble_rates(model, ensemble, grid)[1]
    worst = -math.inf
    # the moments' driven spectra are solved once the rates' arrays are
    # freed
    for point, geometric in zip(moments(), rates):
        if abs(geometric) > 1e-10:
            worst = max(worst, abs(point.excess - geometric)
                        - (1e-6 * abs(geometric) + 1e-10))
    return CheckResult("variance-identity", worst <= 0.0,
                       f"max margin above tolerance {worst:.2e}")


def _check_rowsum(model, moments):
    scale = float(np.abs(model.spectrum0_at(0.0).energies).max())
    worst = max(point.rowsum_residual for point in moments())
    return CheckResult("rowsum-identity", worst <= 1e-8 * scale,
                       f"max residual {worst:.2e} (scale {scale:.2g})")


def _check_bound_chain(model, ensemble, grid):
    series = fluctuation_series(model, ensemble, grid)
    excess, cap = series["excess_direct"], series["energy_variance_cd"]
    ok = bool(np.all((excess >= -1e-10)
                     & (excess <= cap + 1e-8 * np.maximum(cap, 1.0))))
    worst = float(np.max(excess - cap))
    return CheckResult("fluctuation-bound-chain", ok,
                       f"max excess minus cap {worst:.2e}")


def _check_length_chain(rng, samples):
    worst = -math.inf
    levels = []
    for _ in range(samples):
        omega_f = float(rng.uniform(1.3, 2.5))
        tau = float(rng.uniform(0.4, 1.5))
        beta = float(rng.uniform(1.0, 4.0)) if rng.random() < 0.8 else math.inf
        kind = rng.choice(["quintic", "log"])
        model = HarmonicOscillator(
            HOConfig(1.0, omega_f, tau, dim=100, ramp_kind=kind))
        ensemble = model_ensemble(model, beta)
        levels.append(ensemble.n_levels)
        bures, eta, ell = chain_lengths(model, ensemble, rel_tol=1e-9)
        worst = max(worst, bures - eta, eta - ell)
    return CheckResult("length-chain", worst <= 1e-8,
                       f"max chain violation {worst:.2e} "
                       f"(populated levels {min(levels)}-{max(levels)})")


def _check_equality_identity(model, ensemble):
    report = speed_limit_report(model, ensemble, grid_points=201)
    return CheckResult("duration-length-equality", report.equality_ok,
                       f"relative residual {report.equality_residual:.2e}")


def _check_qgt(model):
    worst = 0.0
    for t in np.linspace(0.1 * model.tau, 0.9 * model.tau, 3):
        for n in (0, 2, 5):
            tensor = qgt(model, n, t)
            evals = np.linalg.eigvalsh(tensor.g)
            worst = max(worst, -float(evals.min()))
            expected = ho_metric(model.omega(t), n)
            worst = max(worst, abs(tensor.g[0, 0] - expected))
    return CheckResult("qgt-psd-and-closed-form", worst <= 1e-8,
                       f"max deviation {worst:.2e}")


def _check_fidelity_properties(rng):
    worst = 0.0
    dim = 8
    for _ in range(4):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        sig = b @ b.conj().T
        sig /= np.trace(sig).real
        f = bures_fidelity(rho, sig)
        worst = max(worst, abs(f - bures_fidelity(sig, rho)))
        worst = max(worst, abs(bures_fidelity(rho, rho) - 1.0))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)))
        worst = max(worst, abs(bures_fidelity(q @ rho @ q.conj().T,
                                              q @ sig @ q.conj().T) - f))
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        phi /= np.linalg.norm(phi)
        pure = bures_fidelity(np.outer(psi, psi.conj()), np.outer(phi, phi.conj()))
        worst = max(worst, abs(pure - abs(np.vdot(psi, phi)) ** 2))
    return CheckResult("fidelity-properties", worst <= 1e-10,
                       f"max deviation {worst:.2e}")


def _check_reparametrization():
    values = []
    for kind in ("quintic", "log"):
        model = HarmonicOscillator(HOConfig(1.0, 2.2, 0.7, dim=100,
                                            ramp_kind=kind))
        values.append(path_lengths(model, model_ensemble(model, 1.0))[1])
    gap = abs(values[0] - values[1])
    return CheckResult("metric-length-reparametrization", gap <= 1e-7,
                       f"|ell_quintic - ell_log| = {gap:.2e}")


def _check_ho_closed_spectrum(dim):
    model = HarmonicOscillator(HOConfig(1.0, 3.0, 1.6, dim=dim))
    cap = dim // 3
    worst = 0.0
    for t in np.linspace(0.0, model.tau, 9):
        w, wd = model.omega(t), model.omega_dot(t)
        energies = model.spectrum_cd_at(t).energies
        exact = np.array([cd_exact_energy(w, wd, n)
                          for n in range(cap + 1)])
        worst = max(worst, float(np.abs(energies[: cap + 1] - exact).max()))
    return CheckResult("driven-spectrum-closed-form", worst <= 1e-7,
                       f"max eigenvalue deviation {worst:.2e}")


def _check_parity(model, ensemble):
    worst = 0.0
    for t in np.linspace(0.0, model.tau, 5):
        tm = transition_matrix(model, ensemble, t)
        n_idx = np.arange(tm.shape[0])[:, None]
        m_idx = np.arange(tm.shape[1])[None, :]
        odd = (n_idx + m_idx) % 2 == 1
        worst = max(worst, float(tm[odd].max()))
    return CheckResult("parity-superselection", worst <= 1e-10,
                       f"max parity-violating probability {worst:.2e}")


def _check_ion_roundtrip():
    nu = 3.0
    table = ion_waveforms(HOConfig(1.0, 3.0, 0.8), nu)
    back = np.sqrt(nu * (nu - 2.0 * table.potential))
    dev = float(np.abs(back - table.omega).max())
    return CheckResult(
        "ion-waveform-roundtrip", dev <= 1e-12,
        f"max reconstruction error {dev:.2e}, "
        f"min validity ratio {table.min_validity():.3g}")


def _check_ising_oracle():
    worst = 0.0
    for n in (4, 8):
        # one dense solve per field: the ground pair where only it is
        # read, the whole spectrum where the metric sums over it
        ground = {lam: ising.exact_ground_state(lam, n)
                  for lam in (0.6, 1.0, 1.4, 2.2)}
        field = ising.dense_field_term(n)
        for lam in (1.3, 2.0):
            energies, vectors = np.linalg.eigh(ising.dense_hamiltonian(lam, n))
            ground[lam] = float(energies[0]), vectors[:, 0]
            m = vectors[:, :1].conj().T @ field @ vectors
            g_dense = float(np.sum(np.abs(m[0, 1:]) ** 2
                                   / (energies[1:] - energies[0]) ** 2))
            worst = max(worst, abs(g_dense - ising.ground_metric(lam, n)))
        for lam in (0.6, 1.0, 1.4, 2.0):
            worst = max(worst,
                        abs(ground[lam][0] - ising.ground_energy(lam, n)))
        worst = max(worst, abs(abs(ground[1.4][1] @ ground[2.2][1])
                               - ising.ground_state_overlap(1.4, 2.2, n)))
    return CheckResult("ising-free-fermion-vs-exact", worst <= 1e-8,
                       f"max deviation {worst:.2e}")


def _check_ising_critical_identity():
    worst = 0.0
    for n in (4, 64, 1024, 4096):
        ref = n * (n - 1) / 32.0
        # g is even in lam, so both critical points carry the identity
        for lam in (1.0, -1.0):
            worst = max(worst, abs(ising.ground_metric(lam, n) - ref) / ref)
    return CheckResult("ising-critical-metric-identity", worst <= 1e-10,
                       f"max relative deviation {worst:.2e}")


def _check_ising_protocol_independence():
    n, delta = 64, 1.0
    ref = ising.sweep_cost_integral(n, delta)
    worst = 0.0
    for tau, proto in ((0.7, cubic_ramp([2.0], [0.0], 0.7)),
                       (1.3, quintic_ramp([2.0], [0.0], 1.3))):
        grid = np.linspace(0.0, tau, 2001)
        lam = np.array([proto.value(t)[0] for t in grid])
        lamdot = np.array([proto.derivative(t)[0] for t in grid])
        g = ising.ground_metric(lam, n)
        val = simpson(np.sqrt(g) * np.abs(lamdot), grid)
        worst = max(worst, abs(val - ref) / ref)
    return CheckResult("ising-protocol-independence", worst <= 1e-6,
                       f"max relative deviation {worst:.2e}")


def _check_ising_trajectory():
    config = ising.IsingConfig(64, 1.0, 1.0)
    grid = np.linspace(0.0, 1.0, 401)
    traj = ising.cd_excess_trajectory(config, grid)
    ends = max(traj.excess_variance[0], traj.excess_variance[-1])
    interior = traj.excess_variance[1:-1]
    peaks = np.flatnonzero((interior[1:-1] > interior[:-2])
                           & (interior[1:-1] > interior[2:]))
    peak_lam = traj.lam[1 + peaks + 1]
    ok = (ends == 0.0 and np.all(traj.excess_variance >= 0.0)
          and len(peaks) == 1 and abs(peak_lam[0] - 1.0) < 0.1)
    return CheckResult(
        "ising-trajectory-shape", bool(ok),
        f"endpoints {ends:g}, peaks at lam={np.round(peak_lam, 3)}")


def _check_fidelity_decay(model):
    decay = fidelity_decay_check(model, 0, 0.45 * model.tau, 1e-3)
    ok = abs(decay.order - 3.0) <= 0.2
    return CheckResult("fidelity-quadratic-decay", ok,
                       f"observed order {decay.order:.3f}")


def run_verification(seed: int = 20260809, *, fock_dim: int = 120,
                     chain_samples: int = 12) -> list[CheckResult]:
    """Run every invariant suite; returns one result per named check, in
    suite order.

    Lane A (the checks that share the main model's spectrum store) and
    lane B (the generator's checks, kept in suite order, the checks that
    build their own models and the bare-drive control) run side by
    side through ``lanes.run_lanes``, lane B in a forked child where two
    CPUs are available; otherwise the suite runs serially.  Both routes
    return equal results.  If checks raise, the earliest raising check
    in suite order decides the exception.  The checks run on one BLAS
    thread, so that the results are the same at any BLAS thread count.

    TruncationError and friends propagate to the caller: an undersized
    basis is a hard failure, not a FAIL line, and its message names
    fock_dim.
    """
    rng = np.random.default_rng(seed)
    model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=fock_dim))
    grid = np.linspace(0.0, model.tau, 81)
    try:
        ensemble = model_ensemble(model, 1.0)
        moments = cache(partial(_grid_moments, model, ensemble, grid))
        # (lane, check) in suite order
        suite = [
            ("B", partial(_check_spectrum_contract, rng)),
            ("B", partial(_check_cd_gauge_invariance, rng)),
            ("B", partial(_check_lz_closed_form, rng)),
            ("A", partial(_check_h1_endpoints, model)),
            ("A", partial(_check_certificate, model, np.arange(0, 9))),
            ("B", partial(_check_bare_control, model)),
            ("B", partial(_check_mean_identity, rng)),
            ("A", partial(_check_endpoint_equivalence, model, ensemble)),
            ("A", partial(_check_variance_identity, model, ensemble, grid,
                          moments)),
            ("A", partial(_check_rowsum, model, moments)),
            ("A", partial(_check_bound_chain, model, ensemble, grid)),
            ("B", partial(_check_length_chain, rng, chain_samples)),
            ("A", partial(_check_equality_identity, model, ensemble)),
            ("A", partial(_check_qgt, model)),
            ("B", partial(_check_fidelity_properties, rng)),
            ("A", partial(_check_fidelity_decay, model)),
            ("B", _check_reparametrization),
            ("B", partial(_check_ho_closed_spectrum,
                          max(120, min(fock_dim, 160)))),
            ("A", partial(_check_parity, model, ensemble)),
            ("B", _check_ion_roundtrip),
            ("B", _check_ising_oracle),
            ("B", _check_ising_critical_identity),
            ("B", _check_ising_protocol_independence),
            ("B", _check_ising_trajectory),
        ]
        return run_lanes(suite)
    except TruncationError as exc:
        # a thermal tail or a leak past the basis: fock_dim enlarges the
        # main model's
        raise TruncationError(f"fock_dim = {fock_dim}: {exc}") from None
