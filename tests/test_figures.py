import tracemalloc
from collections import Counter

import numpy as np
import pytest

from cdwork import HOConfig, HarmonicOscillator, ensemble_rates, model_ensemble
from cdwork.figures import ho_figure1_data
from cdwork.models import SpectrumCache
from cdwork.workstats import BLOCK_POINTS


def test_default_figure_solves_each_point_once(solve_counter):
    """One kernel pass serves every duration: the H0 eigensolves number
    at most the grid points plus the path-length quadrature nodes, and
    no driving Hamiltonian is diagonalized."""
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
    """The figure's store holds one block of spectra (BLOCK_POINTS + 1),
    so its peak allocation stays far below the 401 d x d spectra of a
    whole grid (about 46 MB) and does not grow with the grid."""
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
    assert max(largest) <= BLOCK_POINTS + 1
    assert peak < 12e6
