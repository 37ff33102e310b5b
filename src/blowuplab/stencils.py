"""Finite-difference weight generation on arbitrary node sets.

Implements Fornberg's recursion (Fornberg 1988, Math. Comp. 51; 1998,
SIAM Review 40), which is exact for polynomials up to the stencil size
and works on non-uniform grids. The operators on the graded strip grid
and on the radial staggered grid are assembled from these weights.

`fd_weights` takes one stencil or a stack of S stencils. The recursion
loops over the (at most 9) nodes of a stencil, and its entries are Python
floats for one stencil and (S,) arrays for many, so every stencil of a
stack gets the same IEEE operations in the same order as a call of its
own: batched weights are bit-identical to per-stencil ones.
"""

import numpy as np


def fd_weights(nodes, x0, max_deriv):
    """Weights for derivatives 0..max_deriv at x0 from the given nodes.

    nodes of shape (n,) with a scalar x0 give an array of shape
    (n, max_deriv + 1); nodes of shape (S, n) with x0 of shape (S,) give
    (S, n, max_deriv + 1). Column m holds the weights of the m-th
    derivative. Fornberg's algorithm, stable for the small stencils
    (<= 9 points) used here.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.shape[-1]
    if n <= max_deriv:
        raise ValueError(f"need more than {max_deriv} nodes, got {n}")
    if nodes.ndim == 1:
        x, x0, zero = nodes.tolist(), float(x0), 0.0
    else:
        x = list(np.ascontiguousarray(nodes.T))
        x0, zero = np.asarray(x0, dtype=float), np.zeros(len(nodes))
    c = [[zero] * (max_deriv + 1) for _ in range(n)]
    c1 = 1.0
    c4 = x[0] - x0
    c[0][0] = zero + 1.0
    for i in range(1, n):
        mn = min(i, max_deriv)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i][k] = c1 * (k * c[i - 1][k - 1] - c5 * c[i - 1][k]) / c2
                c[i][0] = -c1 * c5 * c[i - 1][0] / c2
            for k in range(mn, 0, -1):
                c[j][k] = (c4 * c[j][k] - k * c[j][k - 1]) / c3
            c[j][0] = c4 * c[j][0] / c3
        c1 = c2
    if nodes.ndim == 1:
        return np.array(c)
    return np.ascontiguousarray(np.moveaxis(np.array(c), -1, 0))

