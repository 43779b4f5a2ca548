"""Quadrature rules: nested Clenshaw–Curtis for smooth integrands, an
adaptive Gauss–Kronrod rule for peaked ones, and composite Simpson on
samples.

  * ``clenshaw_curtis`` integrates a vector-valued integrand on nested
    levels of 9, 17, 33, ... points, reusing every earlier node, until
    two levels agree.  It converges geometrically on analytic
    integrands (Clenshaw & Curtis, Numer. Math. 2, 197 (1960);
    Trefethen, SIAM Review 50, 67 (2008)); ``geometry.path_lengths``
    uses it.
  * ``adaptive_simpson_multi`` and ``adaptive_simpson`` are numpy ports
    of scipy.integrate's ``quad_vec`` (finite bounds, ``norm="max"``),
    BSD-3-Clause, kept operation for operation so results match scipy's
    bit for bit without loading scipy.integrate (and with it
    scipy.special and scipy.optimize).  Despite their names they run the
    Gauss–Kronrod 21 rule (Piessens et al., *QUADPACK*, Springer 1983),
    whose bisection resolves the Ising critical peak of
    ``ising.sweep_cost_integral``, given as one of the ``points``.
  * ``simpson`` ports scipy's ``simpson`` (``x`` given).
"""

from __future__ import annotations

import heapq
import math
import sys
from functools import cache

import numpy as np

from .errors import QuadratureNotConverged

MAX_NODES_DEFAULT = 2**15
# evaluations per Gauss-Kronrod interval
RULE_NODES = 21
# the rule accepts only an error strictly below its tolerance, so a zero
# tolerance (abs_tol = 0 on an identically zero integrand) never converges
ABS_FLOOR = 1e-300
# most intervals bisected in one pass
_BATCH = 128

# GK21 abscissae in descending order, the Kronrod weights and the weights
# of the embedded 10-point Gauss rule on the odd nodes (QUADPACK's dqk21)
_NODES = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
          0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
          0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
          0.14887433898163122, 0.0)
_KRONROD = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
            0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
            0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
            0.14773910490133849, 0.1494455540029169)
_GAUSS = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
          0.26926671930999635, 0.29552422471475287)
_NODES += tuple(-x for x in reversed(_NODES[:-1]))
_KRONROD += _KRONROD[-2::-1]
_GAUSS += _GAUSS[::-1]

# Clenshaw-Curtis levels: 2^k + 1 points from the first to the last
CC_FIRST_NODES = 9
CC_MAX_NODES = 257

_CAUSES = ("converged past the node budget", "precision not reached",
           "rounding-limited", "non-finite integrand")


def _norm(x) -> float:
    return float(np.amax(abs(x)))


def _wsum(weights, values):
    # accumulated in node order from 0.0, as scipy does
    return sum((w * y for w, y in zip(weights, values)), 0.0)


def _gk21(f, a, b):
    """GK21 on [a, b]: the integral and QUADPACK's error and rounding
    error estimates."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    values = [f(c + h * x) for x in _NODES]
    s_k = _wsum(_KRONROD, values)
    s_g = _wsum(_GAUSS, values[1::2])
    err = _norm((s_k - s_g) * h)
    dabs = _norm(_wsum(_KRONROD, [abs(y - s_k / 2.0) for y in values]) * h)
    if dabs != 0 and err != 0:
        err = dabs * min(1.0, (200 * err / dabs) ** 1.5)
    round_err = _norm(50 * sys.float_info.epsilon * h
                      * _wsum(_KRONROD, [abs(y) for y in values]))
    if round_err > sys.float_info.min:
        err = max(err, round_err)
    return h * s_k, err, round_err


def adaptive_simpson_multi(f, a, b, *, rel_tol=1e-8, abs_tol=0.0,
                           max_nodes=MAX_NODES_DEFAULT, points=None):
    """Integrate a vector-valued ``f`` over the finite [a, b] adaptively;
    returns the array of component integrals.  Starting from [a, b] split
    at ``points``, each pass bisects the intervals of largest error until
    their total (max norm over components) is below 1/8 of max(abs_tol,
    rel_tol * max_k |I_k|).  Raises QuadratureNotConverged, naming the
    cause, if it stops first (interval limit, rounding, a non-finite
    value) or spends more than ``max_nodes`` evaluations."""
    def vector(x):
        return np.atleast_1d(np.asarray(f(x), dtype=float))

    a, b = float(a), float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError(f"integration bounds must be finite, got {a}, {b}")
    abs_tol = max(abs_tol, ABS_FLOOR)
    limit = (max_nodes + RULE_NODES) // (2 * RULE_NODES)
    edges = [a]
    for p in sorted(() if points is None else points):
        if a < float(p) < b and float(p) != edges[-1]:
            edges.append(float(p))
    pieces = [(x1, x2, *_gk21(vector, x1, x2))
              for x1, x2 in zip(edges, edges[1:] + [b])]
    total = sum((piece[2] for piece in pieces[1:]), pieces[0][2].copy())
    error, rounding = (sum(piece[k] for piece in pieces) for k in (3, 4))
    # integrals by interval; where a bisection at float resolution repeats
    # an interval, scipy evaluates it again and this reuses the entry
    cache = {(x1, x2): ig for x1, x2, ig, _, _ in pieces}
    heap = [(-err, x1, x2) for x1, x2, _, err, _ in pieces]
    heapq.heapify(heap)
    neval, status = RULE_NODES * len(heap), 1

    while status == 1 and len(heap) < limit:
        tol = max(abs_tol, rel_tol * _norm(total))
        batch, err_sum = [], 0.0
        while heap and len(batch) < _BATCH and not (
                batch and err_sum > error - tol / 8):
            neg_err, x1, x2 = heapq.heappop(heap)
            batch.append((-neg_err, x1, x2))
            err_sum += -neg_err
        for old_err, x1, x2 in batch:
            xm = 0.5 * (x1 + x2)
            (s1, err1, rnd1), (s2, err2, rnd2) = (_gk21(vector, x1, xm),
                                                  _gk21(vector, xm, x2))
            neval += 2 * RULE_NODES
            total += s1 + s2 - cache[(x1, x2)]
            error += err1 + err2 - old_err
            rounding += rnd1 + rnd2
            for lo, hi, ig, err in ((x1, xm, s1, err1), (xm, x2, s2, err2)):
                cache[(lo, hi)] = ig
                heapq.heappush(heap, (-err, lo, hi))
        if error < max(abs_tol, rel_tol * _norm(total)) / 8:
            status = 0
        elif error < rounding:
            status = 2
        elif not (np.isfinite(error) and np.isfinite(rounding)):
            status = 3

    if status != 0 or neval > max_nodes:
        raise QuadratureNotConverged(
            f"status {status}: {_CAUSES[status]} after {neval} of "
            f"{max_nodes} nodes (error estimate {error + rounding:.3g})")
    return total


def adaptive_simpson(f, a, b, *, rel_tol=1e-8, abs_tol=0.0,
                     max_nodes=MAX_NODES_DEFAULT, points=None):
    """Scalar front end of :func:`adaptive_simpson_multi`."""
    out = adaptive_simpson_multi(lambda x: [f(x)], a, b, rel_tol=rel_tol,
                                 abs_tol=abs_tol, max_nodes=max_nodes,
                                 points=points)
    return float(out[0])


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
    level n/2 to max|I_n - I_n/2| <= max(rel_tol * max|I_n|, ABS_FLOOR).
    A converged call spends 2^k + 1 evaluations.  Raises
    QuadratureNotConverged, naming the nodes spent, at a non-finite value
    or past CC_MAX_NODES."""
    a, b = float(a), float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError(f"integration bounds must be finite, got {a}, {b}")
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    n, values, total = CC_FIRST_NODES - 1, [], None
    while n < CC_MAX_NODES:
        # every node of the first level, then the odd ones of each finer
        step, new = (2 if values else 1), []
        for k in range(step - 1, n + 1, step):
            t = c + h * math.cos(k * math.pi / n)
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
        if previous is not None:
            spread = _norm(total - previous)
            if spread <= max(rel_tol * _norm(total), ABS_FLOOR):
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
