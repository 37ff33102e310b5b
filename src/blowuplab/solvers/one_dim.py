"""Strip solver: u_t = eps^2 u_xx + f(u) (Dirichlet) or
u_t = -eps^4 u_xxxx + f(u) (clamped) on x in [-1, 1].

Grids are symmetric about 0 with optional tanh grading toward the
endpoints. The clamped conditions u = u_x = 0 enter through even ghost
reflection across each boundary node; stencil weights come from the
interpolatory generator so graded grids need no special casing. The
operators are assembled as the bands BandedCN steps on.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..stencils import fd_weights
from .common import BandedCN, SolverConfig, banded


def strip_grid(n, grading=0.0, half_width=1.0):
    """n nodes on [-L, L]; grading > 0 clusters them near the endpoints.

    The grid is made reflection-symmetric to the bit so that symmetric
    operators really are persymmetric in floating point."""
    xi = np.linspace(-1.0, 1.0, n)
    if grading > 0.0:
        xi = np.tanh(grading * xi) / np.tanh(grading)
    xi = 0.5 * (xi - xi[::-1])
    return half_width * xi


def fourth_derivative_clamped(x):
    """eps-free u_xxxx on interior nodes; u=0 at boundary nodes and even
    ghost reflection (u(ghost) = u(first interior)) for u_x = 0.

    Row r takes its 5-point stencil from the grid extended by both
    ghosts, in one fd_weights call per row (perfbench/selfcheck.py counts
    nx - 2 of them on a traced strip solve)."""
    m = len(x) - 2
    xg = np.concatenate(([2 * x[0] - x[1]], x, [2 * x[-1] - x[-2]]))
    w = np.array([fd_weights(xg[r:r + 5], xg[r + 2], 4)[:, 4] for r in range(m)])
    w[0, 2] += w[0, 0]    # each ghost folds onto its mirror node
    w[-1, 2] += w[-1, 4]
    j = np.arange(m)[:, None] + np.arange(-2, 3)
    keep = (0 <= j) & (j < m)  # ghosts and boundary values drop out
    return banded(2, j, w, keep)


def second_derivative_dirichlet(x):
    m = len(x) - 2
    j = np.arange(1, m + 1)[:, None] + np.arange(-1, 2)
    w = fd_weights(x[j], x[1:-1], 2)[:, :, 2]
    keep = (1 <= j) & (j <= m)  # boundary values are zero and drop out
    return banded(1, j - 1, w, keep)


@lru_cache(maxsize=4)
def _strip_operator(nx, grading, half_width, order):
    """The eps-free operator, assembled once per grid and scaled by each
    eps of a sweep. Every caller shares it, so its entries are read-only."""
    x = strip_grid(nx, grading, half_width)
    D = (fourth_derivative_clamped if order == 4 else second_derivative_dirichlet)(x)
    D.flags.writeable = False
    return D


def build_strip(cfg: SolverConfig):
    """Crank-Nicolson step adapter and interior grid of the strip problem."""
    x = strip_grid(cfg.nx, cfg.grading, cfg.half_width_x)
    D = _strip_operator(cfg.nx, cfg.grading, cfg.half_width_x, cfg.order)
    if cfg.order == 4:
        ab = D * cfg.eps ** 4
    else:
        ab = -D * cfg.eps ** 2
    # exact persymmetry: mirrored stencil weights agree only algebraically,
    # and the bias would be amplified by blow-up growth
    ab = 0.5 * (ab + ab[::-1, ::-1])
    return BandedCN(ab, symmetrize=True), (x[1:-1],)
