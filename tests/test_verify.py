import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cdwork import (HOConfig, HarmonicOscillator, StepNotConverged,
                    TruncationError, lanes, model_ensemble, spectral,
                    transition_matrix, transitionless_certificate,
                    work_moments, verify)
from cdwork.verify import (_check_cd_gauge_invariance, _check_length_chain,
                           _check_lz_closed_form, _check_mean_identity,
                           _check_spectrum_contract, _sized_oscillator,
                           run_verification)

# the second mean-identity draw of `verify --seed 8`: a hot ensemble on
# a wide ramp, whose retained levels leak 2e-6 of their mass into the
# top of a 100-level basis at t = 0
SEED_8_DRAW = (2.970447282674969, 1.4846766662902031, 0.8117658530804871)


def mean_identity_rng(seed):
    """The verify generator as the mean-identity check receives it: the
    checks that run before it draw from the same generator."""
    rng = np.random.default_rng(seed)
    for check in (_check_spectrum_contract, _check_cd_gauge_invariance,
                  _check_lz_closed_form):
        check(rng)
    return rng


def mean_identity_draws(rng):
    draws = []
    for _ in range(4):
        omega_f = float(rng.uniform(1.5, 3.0))
        tau = float(rng.uniform(0.5, 2.0))
        beta = float(rng.uniform(0.7, 3.0)) if rng.random() < 0.75 else math.inf
        draws.append((omega_f, tau, beta))
    return draws


def test_seed_8_draw_overflows_100_levels():
    omega_f, tau, beta = SEED_8_DRAW
    assert SEED_8_DRAW in mean_identity_draws(mean_identity_rng(8))
    model = HarmonicOscillator(HOConfig(1.0, omega_f, tau, dim=100))
    with pytest.raises(TruncationError):
        transition_matrix(model, model_ensemble(model, beta), 0.0)


def test_seed_8_draw_gets_a_basis_that_holds_it():
    omega_f, tau, beta = SEED_8_DRAW
    times = np.linspace(0.0, tau, 5)
    model, ensemble = _sized_oscillator(omega_f, tau, beta, times)
    assert model.dim == 120
    scale = float(np.abs(model.spectrum0_at(0.0).energies).max())
    for t in times:
        moments = work_moments(model, ensemble, t)
        assert abs(moments.mean_cd - moments.mean_ad) <= 1e-8 * scale


def test_seed_8_mean_identity_check_passes():
    assert _check_mean_identity(mean_identity_rng(8)).passed


def test_default_seed_draws_keep_100_levels():
    for omega_f, tau, beta in mean_identity_draws(mean_identity_rng(20260809)):
        model, _ = _sized_oscillator(omega_f, tau, beta,
                                     np.linspace(0.0, tau, 5))
        assert model.dim == 100


def test_length_chain_reports_populated_levels():
    result = _check_length_chain(np.random.default_rng(3), 2)
    assert result.passed
    low, high = map(int, re.search(r"populated levels (\d+)-(\d+)",
                                   result.detail).groups())
    assert 1 <= low <= high <= 100


def test_default_run_path_length_nodes(solve_counter, monkeypatch):
    """The 15 path lengths of the default run (12 length-chain draws at
    rel_tol 1e-9, the duration-length equality and the two
    reparametrizations at 1e-8) converge on nested Clenshaw-Curtis
    levels of 17 to 65 points: 399 nodes, against 945 for the
    Gauss-Kronrod rule.  The suite runs serially: the counter lives in
    this process, and a forked lane would hide the length chain's
    nodes from it."""
    monkeypatch.setattr(lanes, "_two_cpus", lambda: False)
    _, nodes = solve_counter
    results = run_verification(seed=20260809)
    assert all(r.passed for r in results) and len(results) == 24
    assert len(nodes) <= 399


def test_bare_control_reads_only_the_final_overlap(solve_counter,
                                                   monkeypatch):
    """The bare-drive control propagates as the certificate at h1_scale 0
    does: the same fidelity and substeps, bit for bit.  On a fresh model
    it solves the H0 spectra at t = 0 and tau alone, where the
    certificate solves all 81 grid points."""
    solves, _ = solve_counter
    runs = []

    def recorded(*args, **kwargs):
        runs.append(spectral.level_propagation(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(verify, "level_propagation", recorded)
    model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=120))
    result = verify._check_bare_control(model)
    assert solves == [((2, 120), False, model.h0_at(t).tobytes())
                      for t in (0.0, 0.8)]
    (_, fidelity, substeps), = runs
    fresh = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=120))
    cert = transitionless_certificate(fresh, [0], np.linspace(0.0, 0.8, 81),
                                      h1_scale=0.0, tol=3e-7)
    assert len(solves) == 2 + 81
    assert fidelity[0] == cert.final_fidelity[0]
    assert substeps == cert.substeps
    assert result.detail == (f"bare final fidelity {fidelity[0]:.6f} "
                             f"({substeps} steps per interval)")


def test_ising_oracle_solves_each_field_once(monkeypatch):
    """Six distinct fields per chain length, one dense solve each."""
    sizes, eigh = [], np.linalg.eigh

    def counting_eigh(h):
        sizes.append(len(h))
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    assert verify._check_ising_oracle().passed
    assert sorted(sizes) == [16] * 6 + [256] * 6


def two_lanes(monkeypatch, forked):
    """Force the serial suite (forked False) or the two lanes."""
    monkeypatch.setattr(lanes, "_two_cpus", lambda: forked)


@pytest.mark.parametrize("seed", [20260809, 5])
def test_two_lanes_return_the_serial_results(monkeypatch, seed):
    results = {}
    for forked in (False, True):
        two_lanes(monkeypatch, forked)
        results[forked] = run_verification(seed, chain_samples=2)
    assert len(results[True]) == 24
    assert results[True] == results[False]


def raise_in(monkeypatch, check, exc):
    def raising(*args):
        raise exc
    monkeypatch.setattr(verify, check, raising)


@pytest.mark.parametrize("forked", [False, True])
def test_lane_b_truncation_error_names_fock_dim(monkeypatch, forked):
    two_lanes(monkeypatch, forked)
    raise_in(monkeypatch, "_check_length_chain",
             TruncationError("a leak past the basis"))
    with pytest.raises(TruncationError,
                       match="^fock_dim = 120: a leak past the basis$"):
        run_verification(chain_samples=1)
    # the forked lane was reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("forked", [False, True])
@pytest.mark.parametrize("first, later", [
    ("_check_certificate", "_check_length_chain"),       # 4 in A, 11 in B
    ("_check_mean_identity", "_check_variance_identity"),  # 6 in B, 8 in A
])
def test_earliest_raising_check_decides(monkeypatch, forked, first, later):
    two_lanes(monkeypatch, forked)
    raise_in(monkeypatch, first, StepNotConverged("first"))
    raise_in(monkeypatch, later, StepNotConverged("later"))
    with pytest.raises(StepNotConverged, match="^first$"):
        run_verification(chain_samples=1)


# one untraced and one traced `verify --chain-samples 1` in a fresh
# interpreter, so that the tracer's patching stays out of this process;
# lane B is forked, as on the benchmark's two CPUs, so the propagation
# counts are lane A's (the certificate), whatever this machine offers
TRACED_VERIFY = """
import contextlib, io, json, sys
from pathlib import Path
src, bench, out = sys.argv[1:]
sys.path[:0] = [src, bench]
from cdwork import cli, lanes
from tracer import Tracer
lanes._two_cpus = lambda: True
runs = []
for label in ("plain", "traced"):
    if label == "traced":
        tracer = Tracer()
        tracer.install()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["verify", "--chain-samples", "1",
                         "--out", str(Path(out) / label)])
    runs.append((code, stdout.getvalue()))
metrics = tracer.metrics()
print(json.dumps({"runs": runs, "counts": {
    name: metrics["spectral.propagate." + name][0]
    for name in ("h_evals", "substeps")}}))
"""


def test_traced_verify_reports_what_an_untraced_run_does(tmp_path):
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_VERIFY, str(root / "src"),
         str(root / "bench"), str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    plain, traced = report["runs"]
    assert plain[0] == 0 and traced == plain
    assert ((tmp_path / "traced" / "verify_report.json").read_bytes()
            == (tmp_path / "plain" / "verify_report.json").read_bytes())
    # the certificate's (1 + 2) x 80 Magnus steps, two Gauss points each
    assert report["counts"] == {"h_evals": 480, "substeps": 2}
