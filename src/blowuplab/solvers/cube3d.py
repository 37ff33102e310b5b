"""Coarse cube solver for the fourth-order problem on [-L, L]^3.

Multiplicity observation only: the 3D clamped biharmonic is the sum of
the three one-dimensional fourth-derivative operators plus the doubled
mixed second-derivative pairs. The Crank-Nicolson matrix is symmetric
positive definite, and 3D fill-in rules out a direct factorization, so
FastDiagCubeCN solves steps by conjugate gradients preconditioned with
the exact sine-basis solve of its L^2 part. The right side and the
iterations stay in the sine basis, where the wall term is three thin
contractions, so a step makes two transforms. build_cube does not
assemble the operator; cube_operator is the tests' reference, and
imports scipy.sparse only when called.
"""

from __future__ import annotations

import numpy as np

from .common import FastDiagCubeCN, SolverConfig
from .rect2d import d2_dirichlet_uniform, d4_clamped_uniform


def cube_operator(n, h):
    import scipy.sparse as sp
    m = n - 2
    I = sp.identity(m, format="csr")
    D4 = d4_clamped_uniform(n, h)
    D2 = d2_dirichlet_uniform(n, h)

    def k3(A, B, C):
        return sp.kron(sp.kron(A, B), C)

    return (k3(D4, I, I) + k3(I, D4, I) + k3(I, I, D4)
            + 2.0 * (k3(D2, D2, I) + k3(D2, I, D2) + k3(I, D2, D2)))


def build_cube(cfg: SolverConfig):
    """Crank-Nicolson step adapter and interior grid of [-L, L]^3 (order 4 only)."""
    n, L = cfg.nx, cfg.half_width_x
    h = 2 * L / (n - 1)
    x = np.linspace(-L, L, n)[1:-1]
    return FastDiagCubeCN((n - 2,) * 3, (h,) * 3, cfg.eps ** 4), (x, x, x)
