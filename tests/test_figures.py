import numpy as np

from cdwork import HOConfig, HarmonicOscillator, ensemble_rates, model_ensemble
from cdwork.figures import ho_figure1_data


def test_default_figure_solves_each_point_once(solve_counter):
    """One kernel pass serves every duration: the H0 eigensolves number
    at most the grid points plus the path-length quadrature nodes, and
    no driving Hamiltonian is diagonalized."""
    solves, nodes = solve_counter
    data = ho_figure1_data()
    assert data.passed and len(data.tau_table) == 15
    # H0 spectra are solved from real (2, d) bands, driving ones from
    # complex bands; each point once
    assert all(shape == (2, 120) and not driven for shape, driven, _ in solves)
    assert len(set(solves)) == len(solves) <= 401 + len(nodes) <= 464
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
