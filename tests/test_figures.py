import numpy as np

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
