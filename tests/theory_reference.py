"""An independent cross-check of the diffusive covariance, kept for the tests.

:func:`sigma1_quadrature` integrates the matrix exponential numerically,
where :func:`erwlab.theory.solve_sigma1` solves the Lyapunov equation.
"""

from typing import Optional

import numpy as np
import scipy.linalg


def sigma1_quadrature(J, Sigma0, horizon: Optional[float] = None, panels: int = 10000):
    """Independent check of the diffusive covariance by composite Simpson
    quadrature of the matrix-exponential integral.

    The default horizon grows like 16/(1-2 tau) so the truncated tail stays
    below the 1e-6 relative target for all tau <= 0.45.
    """
    J = np.atleast_2d(np.asarray(J, dtype=float))
    Sigma0 = np.atleast_2d(np.asarray(Sigma0, dtype=float))
    s = J.shape[0]
    M = J - 0.5 * np.eye(s)
    tau = float(np.max(np.linalg.eigvals(J).real))
    if horizon is None:
        horizon = max(40.0, 16.0 / max(1e-6, 1.0 - 2.0 * tau))
    nodes = 2 * panels + 1
    h = horizon / (nodes - 1)
    E_h = scipy.linalg.expm(M * h)
    E = np.eye(s)
    total = np.zeros((s, s))
    for i in range(nodes):
        weight = 1.0 if i in (0, nodes - 1) else (4.0 if i % 2 == 1 else 2.0)
        total += weight * (E @ Sigma0 @ E.T)
        if i < nodes - 1:
            E = E @ E_h
    return total * h / 3.0
