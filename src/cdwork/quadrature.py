"""Adaptive quadrature with a hard node budget.

Despite their names, both entry points run adaptive Gauss–Kronrod 21
rules (Piessens et al., *QUADPACK*, Springer 1983) through
``scipy.integrate.quad_vec``.  ``adaptive_simpson_multi`` integrates
integrands that share expensive evaluations in one pass; sharp peaks
(the Ising critical point) go in ``points``.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad_vec

from .errors import QuadratureNotConverged

MAX_NODES_DEFAULT = 2**15
# evaluations per Gauss-Kronrod interval
RULE_NODES = 21
# quad_vec accepts only an error strictly below its tolerance, so a zero
# tolerance (abs_tol = 0 on an identically zero integrand) never converges
ABS_FLOOR = 1e-300


def adaptive_simpson_multi(f, a, b, *, rel_tol=1e-8, abs_tol=0.0,
                           max_nodes=MAX_NODES_DEFAULT, points=None):
    """Integrate a vector-valued ``f`` over [a, b] adaptively; returns
    the array of component integrals.

    The error is measured in the max norm over components, against
    max(abs_tol, rel_tol * max_k |I_k|).  Raises QuadratureNotConverged
    if quad_vec reports anything but convergence or spends more than
    ``max_nodes`` evaluations (which also caps its interval count).
    """
    def vector(x):
        return np.atleast_1d(np.asarray(f(x), dtype=float))

    out, err, info = quad_vec(
        vector, a, b, epsabs=max(abs_tol, ABS_FLOOR), epsrel=rel_tol,
        norm="max", limit=(max_nodes + RULE_NODES) // (2 * RULE_NODES),
        points=points, full_output=True)
    if info.status != 0 or info.neval > max_nodes:
        raise QuadratureNotConverged(
            f"quad_vec status {info.status} ({info.message}) after "
            f"{info.neval} of {max_nodes} nodes "
            f"(error estimate {err:.3g})")
    return out


def adaptive_simpson(f, a, b, *, rel_tol=1e-8, abs_tol=0.0,
                     max_nodes=MAX_NODES_DEFAULT, points=None):
    """Scalar front end of :func:`adaptive_simpson_multi`."""
    out = adaptive_simpson_multi(lambda x: [f(x)], a, b, rel_tol=rel_tol,
                                 abs_tol=abs_tol, max_nodes=max_nodes,
                                 points=points)
    return float(out[0])
