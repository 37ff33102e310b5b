"""Radially symmetric unit-disc solver for the fourth-order problem:

u_t = -eps^4 [u_rrrr + (2/r) u_rrr - (1/r^2) u_rr + (1/r^3) u_r] + f(u)

on the staggered grid r_j = (j + 1/2) h, h = 1/nr, which keeps every
1/r^k evaluation away from the axis. Symmetry at r = 0 enters by even
mirror ghosts (u_r = u_rrr = 0); the clamped wall conditions
u(1) = u_r(1) = 0 eliminate two outer ghosts through the cubic
interpolant pinned at the wall. A standard radial Laplacian variant
(Dirichlet wall) covers the second-order problem.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..stencils import fd_weights
from .common import BandedCN, BlowupReport, SolverConfig, _parabola_vertices


def radial_grid(nr):
    h = 1.0 / nr
    return (np.arange(nr) + 0.5) * h


def _fold(add, nr, i, j, w):
    """Fold ghost indices onto interior unknowns.

    Axis (j < 0): even mirror, -1 -> 0, -2 -> 1. Wall (j >= nr): cubic
    through the last two nodes pinned by u(1) = u'(1) = 0 gives
    u[nr] = 2 u[nr-1] - u[nr-2]/9 and u[nr+1] = 27 u[nr-1] - 2 u[nr-2]."""
    if j == -1:
        add(i, 0, w)
    elif j == -2:
        add(i, 1, w)
    elif j == nr:
        add(i, nr - 1, 2.0 * w)
        add(i, nr - 2, -w / 9.0)
    elif j == nr + 1:
        add(i, nr - 1, 27.0 * w)
        add(i, nr - 2, -2.0 * w)
    else:
        add(i, j, w)


def radial_biharmonic(nr):
    h = 1.0 / nr
    r = radial_grid(nr)
    offs = np.arange(-2, 3)
    w = fd_weights(offs * h, 0.0, 4)  # columns: derivative orders 0..4
    rows, cols, vals = [], [], []

    def add(i, j, v):
        rows.append(i)
        cols.append(j)
        vals.append(v)

    for i in range(nr):
        ri = r[i]
        coef = (w[:, 4] + (2.0 / ri) * w[:, 3]
                - (1.0 / ri ** 2) * w[:, 2] + (1.0 / ri ** 3) * w[:, 1])
        for off, c in zip(offs, coef):
            _fold(add, nr, i, i + off, c)
    return sp.csr_matrix((vals, (rows, cols)), shape=(nr, nr))


def radial_laplacian_dirichlet(nr):
    """u_rr + (1/r) u_r with even axis mirror and Dirichlet wall (odd ghost)."""
    h = 1.0 / nr
    r = radial_grid(nr)
    offs = np.arange(-1, 2)
    w = fd_weights(offs * h, 0.0, 2)
    rows, cols, vals = [], [], []

    def add(i, j, v):
        rows.append(i)
        cols.append(j)
        vals.append(v)

    for i in range(nr):
        coef = w[:, 2] + (1.0 / r[i]) * w[:, 1]
        for off, c in zip(offs, coef):
            j = i + off
            if j == -1:
                add(i, 0, c)
            elif j == nr:
                add(i, nr - 1, -c)  # u(1) = 0 via odd reflection
            else:
                add(i, j, c)
    return sp.csr_matrix((vals, (rows, cols)), shape=(nr, nr))


def build_disc(cfg: SolverConfig):
    """Theta-step adapter and staggered radial grid (nr = nx) of the disc."""
    nr = cfg.nx
    if cfg.order == 4:
        B = radial_biharmonic(nr) * cfg.eps ** 4
    else:
        B = -radial_laplacian_dirichlet(nr) * cfg.eps ** 2
    return BandedCN(B, cfg.order // 2, cfg.theta), (radial_grid(nr),)


def mark_ring(report: BlowupReport) -> BlowupReport:
    """Set the ring radius, the refined argmax radius of the final field.

    A ring closer to the axis than 1.5 cells is the origin: the report
    then holds the single singularity r = 0."""
    (r,), u = report.grid, report.final_field
    i_max = int(np.argmax(u))
    if 0 < i_max < len(r) - 1:
        nodes = slice(i_max - 1, i_max + 2)
        ring = float(_parabola_vertices(r[nodes, None], u[nodes, None])[0])
    else:
        ring = float(r[i_max])
    if ring < 1.5 / len(r):
        ring = 0.0
        report.singularities = [((0.0,), float(u.max()))]
        report.multiplicity = 1
    report.ring_radius = ring
    return report
