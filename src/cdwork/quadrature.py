"""Quadrature rules: nested Clenshaw–Curtis for smooth integrands and
composite Simpson on samples.

  * ``clenshaw_curtis`` integrates a vector-valued integrand on nested
    levels of 9, 17, 33, ... points, reusing every earlier node, until
    two levels agree.  It converges geometrically on analytic integrands
    (Clenshaw & Curtis, Numer. Math. 2, 197 (1960); Trefethen, SIAM
    Review 50, 67 (2008)).  The integrand takes each level's new nodes
    in one call: ``geometry.path_lengths`` solves them as one block of
    spectra, and ``ising.sweep_cost_integral`` once it has folded the
    critical peak onto an endpoint and widened it by a substitution.
  * ``simpson`` ports scipy's ``simpson`` (``x`` given) bit for bit,
    without loading scipy.integrate.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import QuadratureNotConverged

# floor of the level-agreement tolerance max(rel_tol * max|A|, ABS_FLOOR),
# A the rule's integral of |f|: a spread at or below it, as of an
# identically zero or underflowing integrand, stops at the first comparison
ABS_FLOOR = 1e-300

# Clenshaw-Curtis levels: 2^k + 1 points from the first to the last
CC_FIRST_NODES = 9
CC_MAX_NODES = 257


def _norm(x) -> float:
    return float(np.amax(abs(x)))


@cache
def _cc_weights(n: int) -> np.ndarray:
    """Clenshaw-Curtis weights on [-1, 1] at the n + 1 nodes cos(k pi / n),
    n even, by the closed form w_k = (c_k / n) (1 - sum_{j=1}^{n/2}
    b_j cos(2 j k pi / n) / (4 j^2 - 1)), with c_k and b_j halved at the
    ends of their ranges."""
    j = np.arange(1, n // 2 + 1)
    b = np.where(j == n // 2, 1.0, 2.0)
    k = np.arange(n + 1)
    w = 1.0 - np.cos(2.0 * np.pi * np.outer(k, j) / n) @ (b / (4 * j**2 - 1))
    w[1:-1] *= 2.0
    return w / n


def clenshaw_curtis(f, a, b, *, rel_tol=1e-8):
    """Integrate a vector-valued ``f`` over the finite [a, b] by nested
    Clenshaw-Curtis rules of CC_FIRST_NODES, 2 CC_FIRST_NODES - 1, ...
    points, each reusing every node of the levels before it; returns the
    array of component integrals of the first level n that agrees with
    level n/2 to max|I_n - I_n/2| <= max(rel_tol * max|A_n|, ABS_FLOOR),
    A_n the level's integral of |f|: a component whose integral cancels
    to near zero is held to the rounding of its parts, not of its sum,
    and a nonnegative integrand has A_n = I_n.
    ``f`` takes each level's new nodes in one call, as an array, and
    returns one value, or one row of components, per node.  A converged
    call spends 2^k + 1 evaluations.  Raises QuadratureNotConverged,
    naming the nodes spent, at the first non-finite value of a level or
    past CC_MAX_NODES."""
    a, b = float(a), float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError(f"integration bounds must be finite, got {a}, {b}")
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    n, values, total = CC_FIRST_NODES - 1, None, None
    while n < CC_MAX_NODES:
        # every node of the first level, then the odd ones of each finer
        spent = 0 if values is None else len(values)
        nodes = np.array([c + h * math.cos(k * math.pi / n)
                          for k in range(1 if spent else 0, n + 1,
                                         2 if spent else 1)])
        new = np.ascontiguousarray(
            np.asarray(f(nodes), dtype=float).reshape(len(nodes), -1))
        bad = np.flatnonzero(~np.isfinite(new).all(axis=1))
        if bad.size:
            raise QuadratureNotConverged(
                f"non-finite integrand at t={nodes[bad[0]]:g}, node "
                f"{spent + bad[0] + 1}")
        if spent:
            merged = np.empty((n + 1, new.shape[1]))
            merged[0::2], merged[1::2] = values, new
            new = merged
        values = new
        previous, total = total, h * (_cc_weights(n) @ values)
        if previous is not None:
            spread = _norm(total - previous)
            scale = _norm(h * (_cc_weights(n) @ abs(values)))
            if spread <= max(rel_tol * scale, ABS_FLOOR):
                return total
        n *= 2
    raise QuadratureNotConverged(
        f"levels still differ by {spread:.3g} after {len(values)} nodes")


def simpson(y, x) -> float:
    """Composite Simpson integral of samples ``y`` at distinct 1-D nodes
    ``x``: a parabola through each pair of intervals, Cartwright's
    correction for the last interval of an even count, the trapezoid for
    2 points.  Where h0 h1 overflows (spacings from 1e154), scipy drops a
    pair's middle point; here its weight (h0 + h1)^2 / (h0 h1) is then
    formed as two ratios."""
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    n, h = len(y), np.diff(x)
    if n == 2:
        return float(0.0 + 0.5 * h[0] * (y[1] + y[0]))
    stop = n - 2 if n % 2 else n - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, ratio = h0 + h1, h0 / h1
    with np.errstate(over="ignore"):
        hprod = h0 * h1
    middle = hsum * (hsum / hprod)
    big = np.isinf(hprod)
    middle[big] = hsum[big] / h0[big] * (hsum[big] / h1[big])
    result = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / ratio)
                                  + y[1:stop + 1:2] * middle
                                  + y[2:stop + 2:2] * (2.0 - ratio)))
    if n % 2 == 0:
        g0, g1 = h[-2:-1], h[-1:]
        alpha = (2 * g1 ** 2 + 3 * g0 * g1) / (6 * (g1 + g0))
        beta = (g1 ** 2 + 3.0 * g0 * g1) / (6 * g0)
        eta = 1 * g1 ** 3 / (6 * g0 * (g0 + g1))
        result += (alpha * y[-1] + beta * y[-2] - eta * y[-3])[0] + 0.0
    return float(result)
