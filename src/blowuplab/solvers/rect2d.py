"""Rectangle solver (second or fourth order) on [-a, a] x [-b, b].

The clamped biharmonic is assembled as the Kronecker combination
D4x (+) D4y + 2 D2x (x) D2y of one-dimensional operators: the pure
fourth-derivative terms carry the even ghost reflection that encodes
u_n = 0, while the mixed term only ever touches boundary values (all
zero), reproducing the 13-point stencil. The Dirichlet Laplacian is the
usual 5-point kron sum. Uniform grids only; memory is guarded, and at
the max_unknowns limit an order-4 setup and step peak at 355 MB.

Steps are taken by fast diagonalization, right side included, in the
sine basis of each axis, two transforms per step: FastDiagCN at order 2;
FastDiagRectCN at order 4, where the biharmonic is L^2 plus a diagonal R
on the lines next to the walls. R is rank 2 per axis in the sine basis,
so the right side needs only thin products of the sine coefficients
with the sine vectors at the walls, and a sine-basis solve plus a
Woodbury correction on those lines, taken in sine-line coordinates and
eliminated block by block, is exact. build_rect does not assemble the
operator; rect_operator is the tests' reference, and the sparse
operators import scipy.sparse only when called.
"""

from __future__ import annotations

import numpy as np

from .common import FastDiagCN, FastDiagRectCN, SolverConfig


def d4_clamped_uniform(n, h):
    import scipy.sparse as sp
    m = n - 2
    main = np.full(m, 6.0)
    main[0] = main[-1] = 7.0  # ghost = first interior folds onto the diagonal
    off1 = np.full(m - 1, -4.0)
    off2 = np.full(m - 2, 1.0)
    return sp.diags([off2, off1, main, off1, off2], [-2, -1, 0, 1, 2],
                    format="csr") / h ** 4


def d2_dirichlet_uniform(n, h):
    import scipy.sparse as sp
    m = n - 2
    return sp.diags([np.ones(m - 1), -2.0 * np.ones(m), np.ones(m - 1)],
                    [-1, 0, 1], format="csr") / h ** 2


def rect_operator(nx, ny, hx, hy, order):
    import scipy.sparse as sp
    Ix = sp.identity(nx - 2, format="csr")
    Iy = sp.identity(ny - 2, format="csr")
    if order == 4:
        return (sp.kron(d4_clamped_uniform(nx, hx), Iy)
                + sp.kron(Ix, d4_clamped_uniform(ny, hy))
                + 2.0 * sp.kron(d2_dirichlet_uniform(nx, hx),
                                d2_dirichlet_uniform(ny, hy)))
    return -(sp.kron(d2_dirichlet_uniform(nx, hx), Iy)
             + sp.kron(Ix, d2_dirichlet_uniform(ny, hy)))


def build_rect(cfg: SolverConfig):
    """Crank-Nicolson step adapter and interior grid of [-a, a] x [-b, b]."""
    nx, ny = cfg.nx, cfg.ny or cfg.nx
    ax, ay = cfg.half_width_x, cfg.half_width_y
    h = (2 * ax / (nx - 1), 2 * ay / (ny - 1))
    step = FastDiagRectCN if cfg.order == 4 else FastDiagCN
    adapter = step((nx - 2, ny - 2), h, cfg.eps ** cfg.order)
    return adapter, (np.linspace(-ax, ax, nx)[1:-1],
                     np.linspace(-ay, ay, ny)[1:-1])
