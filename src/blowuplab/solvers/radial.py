"""Radially symmetric unit-disc solver for the fourth-order problem:

u_t = -eps^4 [u_rrrr + (2/r) u_rrr - (1/r^2) u_rr + (1/r^3) u_r] + f(u)

on the staggered grid r_j = (j + 1/2) h, h = 1/nr, which keeps every
1/r^k evaluation away from the axis. Ghost indices j of a stencil fold
onto interior unknowns:

- axis (j < 0): symmetry at r = 0 (u_r = u_rrr = 0) by the even mirror
  u[-1] = u[0], u[-2] = u[1];
- wall (j >= nr): the clamped conditions u(1) = u_r(1) = 0 pin the cubic
  through the last two nodes, which gives
  u[nr] = 2 u[nr-1] - u[nr-2]/9 and u[nr+1] = 27 u[nr-1] - 2 u[nr-2].

A standard radial Laplacian variant covers the second-order problem; its
Dirichlet wall u(1) = 0 is the odd reflection u[nr] = -u[nr-1].
Both are assembled as the bands BandedCN steps on.
"""

from __future__ import annotations

import numpy as np

from ..stencils import fd_weights
from .common import BandedCN, BlowupReport, SolverConfig, _parabola_vertices, banded


def radial_grid(nr):
    h = 1.0 / nr
    return (np.arange(nr) + 0.5) * h


def radial_biharmonic(nr):
    h = 1.0 / nr
    r = radial_grid(nr)
    offs = np.arange(-2, 3)
    w = fd_weights(offs * h, 0.0, 4)  # columns: derivative orders 0..4
    # the scalar power (libm pow) rounds some nodes unlike the array r ** 3
    r3 = np.array([ri ** 3 for ri in r])
    coef = (w[:, 4] + (2.0 / r)[:, None] * w[:, 3]
            - (1.0 / r ** 2)[:, None] * w[:, 2] + (1.0 / r3)[:, None] * w[:, 1])
    # entry slots (row, offset, ghost part): a wall ghost adds a second
    # entry at nr - 2; the order of the triplets fixes duplicate sums
    j = np.arange(nr)[:, None] + offs
    wall = j >= nr
    cols = np.stack([np.where(j < 0, -1 - j, np.minimum(j, nr - 1)),
                     np.full_like(j, nr - 2)], axis=2)
    vals = np.stack([np.where(j == nr, 2.0 * coef, np.where(wall, 27.0 * coef, coef)),
                     np.where(j == nr, -coef / 9.0, -2.0 * coef)], axis=2)
    keep = np.stack([np.ones_like(wall), wall], axis=2)
    return banded(2, cols, vals, keep)


def radial_laplacian_dirichlet(nr):
    """u_rr + (1/r) u_r with even axis mirror and Dirichlet wall (odd ghost)."""
    h = 1.0 / nr
    r = radial_grid(nr)
    offs = np.arange(-1, 2)
    w = fd_weights(offs * h, 0.0, 2)
    coef = w[:, 2] + (1.0 / r)[:, None] * w[:, 1]
    j = np.arange(nr)[:, None] + offs
    cols = np.where(j < 0, 0, np.minimum(j, nr - 1))
    vals = np.where(j == nr, -coef, coef)  # u(1) = 0 via odd reflection
    return banded(1, cols, vals)


def build_disc(cfg: SolverConfig):
    """Crank-Nicolson step adapter and staggered radial grid (nr = nx) of the disc."""
    nr = cfg.nx
    if cfg.order == 4:
        ab = radial_biharmonic(nr) * cfg.eps ** 4
    else:
        ab = -radial_laplacian_dirichlet(nr) * cfg.eps ** 2
    return BandedCN(ab), (radial_grid(nr),)


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
    report.ring_radius = ring
    return report
