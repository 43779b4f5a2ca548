import functools
import io
import os
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from cdwork import (ConfigError, HOConfig, HarmonicOscillator,
                    TruncationError, ensemble_rates, figures, lanes,
                    model_ensemble)
from cdwork.cli import main
from cdwork.figures import ho_figure1_data
from cdwork.models import SpectrumCache
from cdwork.workstats import BLOCK_POINTS


def test_default_figure_solves_each_point_once(solve_counter, monkeypatch):
    """One kernel pass serves every duration: the H0 eigensolves number
    at most the grid points plus the path-length quadrature nodes, and
    no driving Hamiltonian is diagonalized.  The figure runs serially:
    the counter lives in this process, and a forked lane would hide
    half the kernel's solves from it."""
    monkeypatch.setattr(lanes, "_two_cpus", lambda: False)
    solves, nodes = solve_counter
    data = ho_figure1_data()
    assert data.passed and len(data.tau_table) == 15
    # H0 spectra are solved from real (2, d) bands, driving ones from
    # complex bands
    assert all(shape == (2, 120) and not driven for shape, driven, _ in solves)
    assert len(solves) <= 401 + len(nodes) <= 434
    # the store holds one block, so a grid point is solved once by the
    # kernel pass and again only if the quadrature lands on it after its
    # block was evicted
    model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=120))
    grid_keys = {model.h0_at(t).tobytes() for t in np.linspace(0.0, 0.8, 401)}
    node_keys = {model.h0_at(t).tobytes() for t in nodes}
    counts = Counter(key for *_, key in solves)
    assert len(grid_keys) == 401 and grid_keys <= set(counts)
    assert all(n == 1 or (n == 2 and key in grid_keys & node_keys)
               for key, n in counts.items())
    # every duration keeps its own uniform time grid, bit for bit
    times = data.variance_series["t"].reshape(15, 401)
    for row, tau in zip(times, (r.tau for r in data.tau_table)):
        assert np.array_equal(row, np.linspace(0.0, tau, 401))


def test_geometric_column_is_the_metric_rate():
    """The excess_geometric column is ensemble_rates' metric rate, the
    one function behind ell, bit for bit at every grid point."""
    data = ho_figure1_data(tau_list=[0.4], grid_points=41)
    model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=120))
    ensemble = model_ensemble(model, 1.0)
    grid = data.excess_series["t"]
    rates = [ensemble_rates(model, ensemble, t)[1] for t in grid]
    assert np.array_equal(data.excess_series["excess_geometric"], rates)


@pytest.mark.parametrize("grid_points", [401, 1601])
def test_figure_memory_does_not_grow_with_the_grid(monkeypatch, grid_points):
    """The figure's store holds one block of spectra (BLOCK_POINTS),
    so its peak allocation stays far below the 401 d x d spectra of a
    whole grid (about 46 MB) and does not grow with the grid.  The
    figure runs serially, so that every store is this process's."""
    monkeypatch.setattr(lanes, "_two_cpus", lambda: False)
    largest = []
    put = SpectrumCache.put

    def recording_put(self, key, spec):
        put(self, key, spec)
        largest.append(len(self._entries))

    monkeypatch.setattr(SpectrumCache, "put", recording_put)
    tracemalloc.start()
    try:
        data = ho_figure1_data(tau_list=[0.8], grid_points=grid_points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.passed
    assert max(largest) <= BLOCK_POINTS
    assert peak < 12e6


def run_figure(monkeypatch, outdir, forked, argv=()):
    """ho-figure1 through cli.main with the two lanes allowed or not:
    (exit code, stdout, stderr, written files, forks made)."""
    monkeypatch.setattr(lanes, "_two_cpus", lambda: forked)
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["ho-figure1", *argv, "--out", str(outdir)])
    files = ({p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
             if outdir.exists() else {})
    # the forked lane was reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code, out.getvalue(), err.getvalue(), files, len(forks)


@pytest.mark.parametrize("argv, forks", [
    ((), 1), (("--grid", "41"), 1), (("--grid", "17"), 1),
    # a grid of one block runs serially
    (("--grid", "3"), 0)])
def test_two_lanes_write_the_serial_bytes(monkeypatch, tmp_path, argv, forks):
    serial = run_figure(monkeypatch, tmp_path / "serial", False, argv)
    forked = run_figure(monkeypatch, tmp_path / "forked", True, argv)
    # a grid this coarse fails its equality gate: exit 1, no error
    assert serial[0] == (0 if argv == () else 1) and serial[2] == ""
    assert (serial[4], forked[4]) == (0, forks)
    assert forked[:4] == serial[:4]


@pytest.mark.parametrize("exc, code, message", [
    (TruncationError("a leak past the basis"), 1,
     "TruncationError: fock_dim = 120: a leak past the basis\n"),
    (ConfigError("bad key"), 2,
     "configuration error: tau, tau_list: bad key\n"),
    (FloatingPointError("overflow encountered in multiply"), 1,
     "FloatingPointError: fluctuation_kernel, reading tau, tau_list: "
     "overflow encountered in multiply\n")])
@pytest.mark.parametrize("lane", ["A", "B", "both"])
def test_either_lane_raises_as_a_serial_run(monkeypatch, tmp_path, exc,
                                            code, message, lane):
    """An error in either lane's kernel gives the serial run's message
    and exit code; in both, lane B's, the earlier in suite order."""
    kernel = figures.fluctuation_kernel

    @functools.wraps(kernel)
    def raising(model, ensemble, times, *args):
        in_lane_b = times[0] == 0.0  # lane B's part starts at t = 0
        if in_lane_b and lane in ("B", "both"):
            raise exc
        if not in_lane_b and lane in ("A", "both"):
            raise exc if lane == "A" else ConfigError("later")
        return kernel(model, ensemble, times, *args)

    monkeypatch.setattr(figures, "fluctuation_kernel", raising)
    runs = [run_figure(monkeypatch, tmp_path / str(forked), forked,
                       ("--grid", "41"))
            for forked in (False, True)]
    assert [run[4] for run in runs] == [0, 1]
    for run in runs:
        assert run[0] == code and run[1] == "" and run[2] == message
