import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import simpson as scipy_simpson

from cdwork import (HOConfig, HarmonicOscillator, QuadratureNotConverged,
                    clenshaw_curtis, ensemble_rates, ho_metric, model_ensemble)
from cdwork.quadrature import (ABS_FLOOR, CC_FIRST_NODES, CC_MAX_NODES,
                               _cc_weights, simpson)


# -- nested Clenshaw-Curtis ------------------------------------------------

CC_LEVELS = [2**k + 1 for k in range(3, 9)]


def counting(f, calls):
    """The level-wise integrand of a scalar-node ``f``, recording every
    node in ``calls``."""
    def level(nodes):
        calls.extend(nodes)
        return [f(t) for t in nodes]
    return level


def test_cc_levels_run_from_first_to_last():
    assert (CC_LEVELS[0], CC_LEVELS[-1]) == (CC_FIRST_NODES, CC_MAX_NODES)


@pytest.mark.parametrize("points", CC_LEVELS)
def test_cc_weights_exact_to_the_level_degree(points):
    # T_j(cos theta) = cos(j theta): at the nodes theta_k = k pi / n the
    # Chebyshev polynomials of every degree j <= n + 1 integrate exactly
    n = points - 1
    theta = np.arange(points) * np.pi / n
    w = _cc_weights(n)
    for j in range(n + 2):
        exact = 2.0 / (1.0 - j * j) if j % 2 == 0 else 0.0
        assert w @ np.cos(j * theta) == pytest.approx(exact, abs=1e-14)


@given(c=st.lists(st.floats(min_value=-3, max_value=3), min_size=1,
                  max_size=CC_FIRST_NODES + 1),
       a=st.floats(min_value=-2.0, max_value=2.0),
       width=st.floats(min_value=0.1, max_value=4.0))
def test_cc_polynomials_converge_at_the_second_level(c, a, width):
    # degree <= 9: exact on 9 points and on 17, which then agree
    poly = np.polynomial.Polynomial(c)
    b = a + width
    calls = []
    got = clenshaw_curtis(counting(poly, calls), a, b, rel_tol=1e-12)
    expected = poly.integ()(b) - poly.integ()(a)
    assert got[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert len(calls) == 2 * CC_FIRST_NODES - 1


@pytest.mark.parametrize("f, a, b, rel_tol", [
    (np.exp, 0.0, 1.0, 1e-8),
    (np.exp, 0.0, 1.0, 1e-14),
    (lambda t: [np.sin(t), np.cos(3 * t)], 0.0, 1.5, 1e-10),
    (lambda t: 1.0 / (1.0 + 25.0 * t * t), -1.0, 1.0, 1e-12),
    (lambda t: np.exp(-t) * np.sin(8 * t), 2.0, 0.0, 1e-12),
])
def test_cc_evaluates_each_node_once(f, a, b, rel_tol):
    calls = []
    clenshaw_curtis(counting(f, calls), a, b, rel_tol=rel_tol)
    assert len(set(calls)) == len(calls)
    assert len(calls) in CC_LEVELS[1:]


def test_cc_reversed_interval_flips_sign():
    f = lambda nodes: np.exp(-nodes) * np.sin(3 * nodes)
    assert clenshaw_curtis(f, 2.0, 0.0)[0] == pytest.approx(
        -clenshaw_curtis(f, 0.0, 2.0)[0], rel=1e-14)


def test_cc_zero_integrand_converges_at_the_first_comparison():
    calls = []
    out = clenshaw_curtis(counting(lambda t: [0.0, 0.0], calls), 0.0, 2.0,
                          rel_tol=1e-9)
    assert out.tolist() == [0.0, 0.0]
    assert len(calls) == 2 * CC_FIRST_NODES - 1


def test_cc_cancelling_integral_converges_at_the_second_level():
    # 1 - 2t integrates to 0 on [0, 1]: the levels differ by rounding
    # only, which the scale of |f| accepts and that of the sum does not
    calls = []
    out = clenshaw_curtis(counting(lambda t: 1.0 - 2.0 * t, calls), 0.0, 1.0,
                          rel_tol=1e-12)
    assert abs(out[0]) <= 1e-15
    assert len(calls) == 2 * CC_FIRST_NODES - 1


def test_cc_kink_raises_past_the_last_level():
    calls = []
    with pytest.raises(QuadratureNotConverged,
                       match=rf"levels still differ by [0-9.e+-]+ after "
                             rf"{CC_MAX_NODES} nodes"):
        clenshaw_curtis(counting(lambda t: np.sqrt(abs(t - 1 / 3)), calls),
                        0.0, 1.0, rel_tol=1e-12)
    assert len(calls) == CC_MAX_NODES


def test_cc_nan_raises_at_once():
    # the first level is one call: its nodes are spent, and the first
    # non-finite one is named
    calls = []
    with pytest.raises(QuadratureNotConverged,
                       match="non-finite integrand at t=1, node 1"):
        clenshaw_curtis(counting(lambda t: [1.0, np.nan], calls), 0.0, 1.0)
    assert len(calls) == CC_FIRST_NODES


def node_by_node(f, a, b, rel_tol):
    """Oracle: the nested rule with one call of a scalar-node ``f`` per
    node, the nodes of each level in the order the rule visits them;
    returns (integrals, nodes) or raises as the rule does."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    n, values, total, nodes = CC_FIRST_NODES - 1, [], None, []
    while n < CC_MAX_NODES:
        step, new = (2 if values else 1), []
        for k in range(step - 1, n + 1, step):
            t = c + h * math.cos(k * math.pi / n)
            nodes.append(t)
            y = np.atleast_1d(np.asarray(f(t), dtype=float))
            if not np.all(np.isfinite(y)):
                raise QuadratureNotConverged(
                    f"non-finite integrand at t={t:g}, node "
                    f"{len(values) + len(new) + 1}")
            new.append(y)
        if values:
            new = [y for pair in zip(values, new) for y in pair] + values[-1:]
        values = new
        previous, total = total, h * (_cc_weights(n) @ np.array(values))
        scale = np.amax(abs(h * (_cc_weights(n) @ abs(np.array(values)))))
        if previous is not None and np.amax(abs(total - previous)) <= max(
                rel_tol * scale, ABS_FLOOR):
            return total, nodes
        n *= 2
    raise QuadratureNotConverged("past the last level")


@pytest.mark.parametrize("f, a, b, rel_tol", [
    (np.exp, 0.0, 1.0, 1e-14),
    (lambda t: [np.sin(t), np.cos(3 * t)], 0.0, 1.5, 1e-10),
    (lambda t: 1.0 / (1.0 + 25.0 * t * t), -1.0, 1.0, 1e-12),
    (lambda t: [np.exp(-t) * np.sin(8 * t), t**3], 2.0, 0.0, 1e-12),
])
def test_cc_levels_match_node_by_node_bits(f, a, b, rel_tol):
    calls = []
    got = clenshaw_curtis(counting(f, calls), a, b, rel_tol=rel_tol)
    want, nodes = node_by_node(f, a, b, rel_tol)
    assert calls == nodes
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad_node", [1, 6, 9, 10, 17, 30, 40])
def test_cc_names_the_first_non_finite_node(bad_node):
    # a non-finite value at the bad node and every later one: a level
    # names its first, as node-by-node evaluation does
    def f(t):
        return np.nan if visited.setdefault(t, len(visited) + 1) >= \
            bad_node else 1.0 / (1.0 + 25.0 * t * t)

    messages = []
    for rule in (lambda g: clenshaw_curtis(counting(g, []), -1.0, 1.0,
                                           rel_tol=1e-14),
                 lambda g: node_by_node(g, -1.0, 1.0, 1e-14)):
        visited = {}
        with pytest.raises(QuadratureNotConverged) as caught:
            rule(f)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert messages[0].endswith(f"node {bad_node}")


def test_cc_non_finite_bounds_refused():
    with pytest.raises(ValueError, match="finite"):
        clenshaw_curtis(np.exp, 0.0, np.inf)


def length_chain_draws(seed, samples):
    """Models and ensembles drawn as verify's length-chain check draws
    them."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        omega_f = float(rng.uniform(1.3, 2.5))
        tau = float(rng.uniform(0.4, 1.5))
        beta = float(rng.uniform(1.0, 4.0)) if rng.random() < 0.8 else np.inf
        kind = rng.choice(["quintic", "log"])
        model = HarmonicOscillator(
            HOConfig(1.0, omega_f, tau, dim=100, ramp_kind=kind))
        yield model, model_ensemble(model, beta)


@pytest.mark.parametrize("seed", [1, 2])
def test_cc_path_lengths_agree_with_closed_form(seed):
    # ell = ln(omega_f / omega_i) sqrt(sum_n p_n (n^2 + n + 1) / 8) over
    # the retained weights, for any monotone ramp from omega_i = 1
    for model, ensemble in length_chain_draws(seed, 2):
        def rates(nodes):
            return np.sqrt(np.maximum(np.stack(
                ensemble_rates(model, ensemble, nodes), axis=-1), 0))
        got = clenshaw_curtis(rates, 0.0, model.tau, rel_tol=1e-9)[1]
        levels = np.arange(ensemble.n_levels)
        ref = (np.log(model.config.omega_f)
               * np.sqrt(ensemble.weights @ ho_metric(1.0, levels)))
        assert abs(got - ref) <= 1e-12 * ref


# -- the numpy port of scipy.integrate.simpson -------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 11, 100, 401])
@pytest.mark.parametrize("spacing", ["uniform", "non-uniform"])
def test_simpson_equals_scipy_bit_for_bit(n, spacing):
    rng = np.random.default_rng(n)
    x = (np.linspace(0.0, 0.8, n) if spacing == "uniform"
         else np.cumsum(rng.uniform(0.01, 1.0, n)) - 0.3)
    y = np.sin(3.0 * x) + rng.standard_normal(n)
    assert simpson(y, x) == float(scipy_simpson(y, x=x))


def test_simpson_equals_scipy_on_random_grids():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 12))
        x = np.cumsum(rng.uniform(1e-3, 1.0, n)) * 10.0 ** rng.uniform(-3, 3)
        y = rng.standard_normal(n)
        assert simpson(y, x) == float(scipy_simpson(y, x=x))


def test_simpson_is_exact_for_cubics_at_huge_spacing():
    # h0 h1 overflows at these spacings; the middle weight must not vanish
    x = np.linspace(0.0, 1.0, 101)
    y = 1.0 + x - 2.0 * x**3
    assert simpson(y, 1e300 * x) == pytest.approx(
        1e300 * simpson(y, x), rel=1e-14)
    assert simpson(y, x) == pytest.approx(1.0, rel=1e-14)
