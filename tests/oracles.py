"""Independent oracles for the test suite.

Everything here deliberately avoids the package's own numerical paths:
textbook uniform-grid stencils are hard-coded, one profile oracle shoots
from far-field data with an off-the-shelf initial-value integrator and
another collocates at Chebyshev points in mpmath, and distance oracles
use brute-force boundary sampling. The two PDE oracles
(second-order strip, linearised fourth-order layer) are method-of-lines
systems on uniform grids integrated by scipy's BDF. RebuiltBandedCN is
the banded theta-step as it was first written, assembled anew for every
dt from sparse sums and solved by solve_banded; band_to_dense unpacks
the band storage the strip and disc operators come in. dense_omega_loops is
omega_set as it was first written, with the signed distance evaluated
at every grid node. scalar_uniform_2d is predictor.uniform_2d as it was
first written, with one profile call per foot. scalar_extract_singularities
is the singularity extraction as it was first written, with a Python
suppression loop and a scalar parabola vertex per peak and axis.
equidistant_classes is the skeleton's grouping of a point's foot
distances as it was first written, one Python loop per point.
box_operator assembles the sparse operator that a box adapter steps
with, as the box builders once did on every eps. scalar_dedup_samples and
scalar_label_branches are the skeleton's sample deduplication (one kept
array rebuilt per candidate) and branch labelling (hash grid and
union-find) as they were first written. scalar_radial_biharmonic,
scalar_radial_laplacian_dirichlet, scalar_second_derivative_dirichlet and
scalar_fourth_derivative_clamped are the disc and strip operators as they
were first written, one row and one triplet at a time. scalar_curvature_candidates is the predictor's
curvature-maximum search on omega loops with one Python comparison per
loop point. expression_flow is the closed-form reaction flow as it was
first written, one array expression per form, and full_path_flow the
in-place flow with its singular mask, clamp and +inf fill on every call. scalar_track_peaks is the
peak linking as it was first written, one distance array per peak.
reaction_residual measures a reaction state against its ODE by central
differences, and read_profile_csv reads a layer profile back from the CSV
that LayerProfile.to_csv writes. coo_mixed_operator and
coo_correction2_operator are the layer-profile systems as they were first
assembled, from COO triplets into a CSC matrix for SuperLU, and
csc_to_band places such a matrix in the band storage the package solves.
"""

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import solve_banded
from scipy.optimize import brentq

SQRT3 = np.sqrt(3.0)
OMEGA = 3.0 * 2.0 ** (-11.0 / 3.0)


# -- textbook stencils (uniform grid), 4th-order accurate ------------------------

def d1_5pt(v, h):
    out = np.full_like(v, np.nan)
    out[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
    return out


def d2_5pt(v, h):
    out = np.full_like(v, np.nan)
    out[2:-2] = (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:]) \
        / (12 * h * h)
    return out


def d3_7pt(v, h):
    out = np.full_like(v, np.nan)
    out[3:-3] = (v[:-6] - 8 * v[1:-5] + 13 * v[2:-4]
                 - 13 * v[4:-2] + 8 * v[5:-1] - v[6:]) / (8 * h ** 3)
    return out


def d4_7pt(v, h):
    out = np.full_like(v, np.nan)
    out[3:-3] = (-v[:-6] + 12 * v[1:-5] - 39 * v[2:-4] + 56 * v[3:-3]
                 - 39 * v[4:-2] + 12 * v[5:-1] - v[6:]) / (6 * h ** 4)
    return out


# -- shooting oracle for the fourth-order layer profile --------------------------

def _wkb_tail_state(eta, theta):
    """Value/derivatives of Im exp(lambda * omega * eta^(4/3) + i theta),
    lambda = -1 + i sqrt(3): one decaying far-field mode."""
    lam = -1.0 + 1j * SQRT3
    xi = OMEGA * eta ** (4.0 / 3.0)
    dxi = OMEGA * (4.0 / 3.0) * eta ** (1.0 / 3.0)
    d2xi = OMEGA * (4.0 / 9.0) * eta ** (-2.0 / 3.0)
    d3xi = -OMEGA * (8.0 / 27.0) * eta ** (-5.0 / 3.0)
    E = np.exp(lam * xi + 1j * theta)
    g = np.imag(E)
    g1 = np.imag(lam * E) * dxi
    g2 = np.imag(lam ** 2 * E) * dxi ** 2 + np.imag(lam * E) * d2xi
    g3 = (np.imag(lam ** 3 * E) * dxi ** 3
          + 3 * np.imag(lam ** 2 * E) * dxi * d2xi + np.imag(lam * E) * d3xi)
    return np.array([g, g1, g2, g3])


def shooting_v4(eta_start=30.0, rtol=1e-12):
    """Fourth-order profile by backward shooting.

    Integrates the two decaying WKB tail modes from eta_start down to 0
    (backward integration is stable for them), then superposes with the
    particular solution v = 1 to satisfy v(0) = v'(0) = 0. Returns the
    functions v and v' on (0, eta_start]."""

    def rhs_hom(eta, y):
        return [y[1], y[2], y[3], 0.25 * eta * y[1] - y[0]]

    sols = []
    for th in (0.0, np.pi / 2):
        s = solve_ivp(rhs_hom, [eta_start, 1e-9], _wkb_tail_state(eta_start, th),
                      rtol=rtol, atol=1e-16, dense_output=True, method="DOP853")
        assert s.success
        sols.append(s)
    M = np.array([[sols[0].y[0, -1], sols[1].y[0, -1]],
                  [sols[0].y[1, -1], sols[1].y[1, -1]]])
    c = np.linalg.solve(M, [-1.0, 0.0])

    def v(e):
        return 1.0 + c[0] * sols[0].sol(e)[0] + c[1] * sols[1].sol(e)[0]

    def vp(e):
        return c[0] * sols[0].sol(e)[1] + c[1] * sols[1].sol(e)[1]

    return v, vp


def shooting_profile4(eta_start=30.0, rtol=1e-12):
    """Fourth-order profile peak (eta0, v(eta0)) of shooting_v4."""
    v, vp = shooting_v4(eta_start, rtol)
    ee = np.linspace(0.5, 10.0, 4001)
    i = int(np.argmax(v(ee)))
    eta0 = brentq(vp, ee[i] - 0.1, ee[i] + 0.1, xtol=1e-13)
    return float(eta0), float(v(eta0))


def chebyshev_profile4(n=80, dps=40):
    """Fourth-order profile peak (eta0, v(eta0)) as mpmath numbers, by
    Chebyshev collocation of the capped problem the package solves:
    -v'''' + (eta/4) v' - v = -1 on [0, 36], v(0) = v'(0) = 0, v(36) = 1,
    v'(36) = 0.

    Trefethen's differentiation matrix (Spectral Methods in MATLAB, SIAM
    2000, `cheb`) on n + 1 points at dps digits; the rows of the two end
    nodes and of their neighbours hold the boundary conditions, and
    findroot locates eta0 on the barycentric interpolant of v'."""
    from mpmath import mp

    eta_max = 36
    with mp.workdps(dps):
        x = [mp.cos(mp.pi * j / n) for j in range(n + 1)]
        c = [(2 if j in (0, n) else 1) * (-1) ** j for j in range(n + 1)]
        # d/d eta for eta = (eta_max / 2)(1 - x): node 0 is eta = 0
        scale = -2 / mp.mpf(eta_max)
        D = mp.matrix(n + 1, n + 1)
        for i in range(n + 1):
            for j in range(n + 1):
                if i != j:
                    D[i, j] = scale * mp.mpf(c[i]) / c[j] / (x[i] - x[j])
            D[i, i] = -mp.fsum(D[i, j] for j in range(n + 1) if j != i)
        D2 = D * D
        D4 = D2 * D2
        eta = [mp.mpf(eta_max) / 2 * (1 - xi) for xi in x]
        A = mp.matrix(n + 1, n + 1)
        rhs = mp.matrix(n + 1, 1)
        for i in range(n + 1):
            for j in range(n + 1):
                A[i, j] = -D4[i, j] + eta[i] / 4 * D[i, j] - (1 if i == j else 0)
            rhs[i] = -1
        for row, node, order, value in ((0, 0, 0, 0), (1, 0, 1, 0),
                                        (n, n, 0, 1), (n - 1, n, 1, 0)):
            for j in range(n + 1):
                A[row, j] = D[node, j] if order else (1 if j == node else 0)
            rhs[row] = value
        v = mp.lu_solve(A, rhs)
        vp = D * v
        w = [1 / mp.mpf(cj) for cj in c]  # barycentric weights

        def interp(f, e):
            xe = 1 - 2 * e / eta_max
            t = [w[j] / (xe - x[j]) for j in range(n + 1)]
            return mp.fsum(t[j] * f[j] for j in range(n + 1)) / mp.fsum(t)

        eta0 = mp.findroot(lambda e: interp(vp, e), mp.mpf("3.738"))
        return +eta0, +interp(v, eta0)


# -- PDE oracles (uniform-grid method of lines, scipy BDF) -----------------------

def strip_second_order_bdf(p, eps, t_end):
    """u_t = eps^2 u_xx + (1+u)^p on [-1, 1], u(+-1) = 0, u(x, 0) = 0.

    Textbook 3-point Laplacian on 801 uniform nodes, integrated by BDF
    (rtol 1e-9) with the exact tridiagonal Jacobian. Returns u(t_end) on
    the interior nodes."""
    x = np.linspace(-1.0, 1.0, 801)
    m = len(x) - 2
    lap = sp.diags([np.ones(m - 1), -2.0 * np.ones(m), np.ones(m - 1)],
                   [-1, 0, 1], format="csr") * (eps / (x[1] - x[0])) ** 2

    def rhs(t, u):
        return lap @ u + (1.0 + u) ** p

    def jac(t, u):
        return lap + sp.diags(p * (1.0 + u) ** (p - 1.0))

    s = solve_ivp(rhs, [0.0, t_end], np.zeros(m), method="BDF", rtol=1e-9,
                  atol=1e-12, jac=jac)
    assert s.success, s.message
    return s.y[:, -1]


def linearised_layer_peak(gprime, eps, T):
    """Wall distance of the fourth-order boundary-layer peak at time T,
    from the layer equation linearised about the uniform reaction state.

    Writing u = u0(t) + f(u0) W, W obeys the biharmonic heat equation with
    wall data W = -g(t), W_x = 0, where g = u0 / f(u0). Z = W + g solves

        Z_t = -eps^4 Z_xxxx + g'(t),  Z = Z_x = 0 at the wall,  Z(x, 0) = 0,

    and argmax u = argmax Z. In s = x / eps the equation loses eps; it is
    integrated by BDF (rtol 1e-8) on the half-line s in [0, 40] (even
    mirror at s = 40) with the 5-point stencil, spacing h = 0.05 and a
    ghost Z(-h) = Z(h) at the wall. The peak is refined by a parabola
    through the largest node and its neighbours. With g' = 1,
    Z = t V(x / (eps t^(1/4))) and the peak sits at eta0 eps T^(1/4)."""
    h = 0.05
    m = 800  # unknowns Z(j h), j = 1..m
    main = np.full(m, 6.0)
    main[0] = 7.0  # wall ghost Z(-h) = Z(h); Z(0) = 0 drops out
    A = sp.diags([np.ones(m - 2), -4.0 * np.ones(m - 1), main,
                  -4.0 * np.ones(m - 1), np.ones(m - 2)],
                 [-2, -1, 0, 1, 2], format="lil")
    # even mirror about the last node: Z(40 + k h) = Z(40 - k h)
    A[m - 2, m - 2] = 7.0
    A[m - 1, m - 3] = 2.0
    A[m - 1, m - 2] = -8.0
    A = -A.tocsr() / h ** 4
    s = solve_ivp(lambda t, z: A @ z + gprime(t), [0.0, T], np.zeros(m),
                  method="BDF", rtol=1e-8, atol=1e-12, jac=A)
    assert s.success, s.message
    z = s.y[:, -1]
    i = int(np.argmax(z))
    assert 0 < i < m - 1, "layer peak on the edge of the oracle grid"
    a, b, c = z[i - 1:i + 2]
    return float(eps * h * (i + 1 + 0.5 * (a - c) / (a - 2.0 * b + c)))


# -- reference operators, one triplet at a time -------------------------------------

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


def scalar_radial_biharmonic(nr):
    from blowuplab.solvers.radial import radial_grid
    from blowuplab.stencils import fd_weights
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


def scalar_radial_laplacian_dirichlet(nr):
    """u_rr + (1/r) u_r with even axis mirror and Dirichlet wall (odd ghost)."""
    from blowuplab.solvers.radial import radial_grid
    from blowuplab.stencils import fd_weights
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


def scalar_second_derivative_dirichlet(x):
    from blowuplab.stencils import fd_weights
    n = len(x)
    rows, cols, vals = [], [], []
    for i in range(1, n - 1):
        w = fd_weights(x[i - 1:i + 2], x[i], 2)[:, 2]
        for k, j in enumerate(range(i - 1, i + 2)):
            if 1 <= j <= n - 2:
                rows.append(i - 1)
                cols.append(j - 1)
                vals.append(w[k])
    m = n - 2
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, m))


def scalar_fourth_derivative_clamped(x):
    """eps-free u_xxxx on interior nodes; u=0 at boundary nodes and even
    ghost reflection (u(ghost) = u(first interior)) for u_x = 0."""
    from blowuplab.stencils import fd_weights
    n = len(x)
    rows, cols, vals = [], [], []

    def add(r, c, v):
        if 1 <= c <= n - 2:  # boundary values are zero and drop out
            rows.append(r - 1)
            cols.append(c - 1)
            vals.append(v)

    for i in range(1, n - 1):
        if i == 1:
            xs = np.array([2 * x[0] - x[1], x[0], x[1], x[2], x[3]])
            w = fd_weights(xs, x[i], 4)[:, 4]
            add(i, 1, w[0] + w[2])  # ghost folds onto the mirror node
            add(i, 2, w[3])
            add(i, 3, w[4])
        elif i == n - 2:
            xs = np.array([x[n - 4], x[n - 3], x[n - 2], x[n - 1],
                           2 * x[n - 1] - x[n - 2]])
            w = fd_weights(xs, x[i], 4)[:, 4]
            add(i, n - 4, w[0])
            add(i, n - 3, w[1])
            add(i, n - 2, w[2] + w[4])
        else:
            xs = x[i - 2:i + 3]
            w = fd_weights(xs, x[i], 4)[:, 4]
            for k, j in enumerate(range(i - 2, i + 3)):
                add(i, j, w[k])
    m = n - 2
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, m))


# -- reference banded theta-step ---------------------------------------------------

def band_to_dense(ab):
    """The square matrix of a band in LAPACK storage, A[i, j] = ab[bw + i - j, j]."""
    bw, n = len(ab) // 2, ab.shape[1]
    i, j = np.indices((n, n))
    inside = np.abs(i - j) <= bw
    A = np.zeros((n, n))
    A[inside] = ab[(bw + i - j)[inside], j[inside]]
    return A


class RebuiltBandedCN:
    """theta-step (I + theta dt B) x = (I - (1 - theta) dt B) u with both
    matrices rebuilt as sparse sums for every new dt, the implicit one
    converted to band storage and solved by solve_banded (once more on
    the mirrored right side when symmetrize is set). B is given as its
    band ab; with symmetrize set, the CSR B is the persymmetrized sum
    0.5 (B + B[::-1, ::-1]) that the strip's operator was once assembled
    as, which leaves the entries of a persymmetric band as they are and
    gives each row the unsorted order of that sum."""

    def __init__(self, ab, theta, symmetrize=False):
        B = sp.csr_matrix(band_to_dense(ab))
        if symmetrize:
            B = 0.5 * (B + B[::-1, ::-1].tocsr())
        self.B = B
        self.bw = len(ab) // 2
        self.theta = theta
        self.symmetrize = symmetrize
        self.n = B.shape[0]
        self._key = None

    def apply(self, dt, u):
        if self._key != dt:
            A1 = sp.identity(self.n, format="csr") + self.theta * dt * self.B
            A1 = A1.tocoo()
            self._ab = np.zeros((2 * self.bw + 1, self.n))
            self._ab[self.bw + A1.row - A1.col, A1.col] = A1.data
            self._A2 = (sp.identity(self.n, format="csr")
                        - (1.0 - self.theta) * dt * self.B).tocsr()
            self._key = dt
        b = self._A2 @ u
        x = solve_banded((self.bw, self.bw), self._ab, b)
        if not self.symmetrize:
            return x
        y = solve_banded((self.bw, self.bw), self._ab, b[::-1])
        return 0.5 * (x + y[::-1])


# -- geometry oracles -------------------------------------------------------------

def omega_grid(dom, resolution=None):
    """The node coordinates xs, ys of omega_set's grid."""
    if resolution is None:
        resolution = dom.diameter / 400.0
    (bx0, bx1), (by0, by1) = dom.bounding_box
    pad = 2 * resolution
    return (np.arange(bx0 - pad, bx1 + pad + resolution, resolution),
            np.arange(by0 - pad, by1 + pad + resolution, resolution))


def dense_omega_loops(dom, level, resolution=None):
    """omega_set's loops from one signed_distance call on its full grid.
    Raises RangeError past the inradius."""
    from blowuplab.errors import RangeError
    from blowuplab.geometry import _chain_segments, _marching_squares
    xs, ys = omega_grid(dom, resolution)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    F = dom.signed_distance(np.column_stack([X.ravel(), Y.ravel()]))
    F = F.reshape(X.shape) - level
    if F.max() <= 0:
        raise RangeError(f"no points at distance {level}")
    return _chain_segments(_marching_squares(xs, ys, F))


def brute_force_distance(dom, points, n_samples=100_000):
    """min |x - y| over a dense boundary sampling."""
    from blowuplab.geometry import RectangleDomain, SmoothPolarDomain
    points = np.atleast_2d(points)
    if isinstance(dom, SmoothPolarDomain):
        th = np.linspace(0.0, 2 * np.pi, n_samples, endpoint=False)
        bd = dom.point_at(th)
    elif isinstance(dom, RectangleDomain):
        per_edge = n_samples // 4
        xs = np.linspace(dom.x0, dom.x1, per_edge)
        ys = np.linspace(dom.y0, dom.y1, per_edge)
        bd = np.concatenate([
            np.column_stack([xs, np.full(per_edge, dom.y0)]),
            np.column_stack([xs, np.full(per_edge, dom.y1)]),
            np.column_stack([np.full(per_edge, dom.x0), ys]),
            np.column_stack([np.full(per_edge, dom.x1), ys])])
    else:
        raise TypeError(type(dom))
    out = np.empty(len(points))
    for lo in range(0, len(points), 256):
        chunk = points[lo:lo + 256]
        d2 = ((chunk[:, None, :] - bd[None, :, :]) ** 2).sum(axis=2)
        out[lo:lo + 256] = np.sqrt(d2.min(axis=1))
    return out


def brute_force_nearest_sample(samples, points):
    """Index of the nearest sample to each point by the full matrix of
    squared distances (x - sx)**2 + (y - sy)**2, the first among equal
    minima."""
    points = np.atleast_2d(points)
    out = np.empty(len(points), dtype=np.intp)
    for lo in range(0, len(points), 256):
        chunk = points[lo:lo + 256]
        d2 = ((chunk[:, None, :] - samples[None, :, :]) ** 2).sum(axis=2)
        out[lo:lo + 256] = np.argmin(d2, axis=1)
    return out


def brute_force_near_pairs(points, radius):
    """Every pair i < j of points with np.hypot(dx, dy) <= radius, in
    (i, j) order, with its distance, by the full pair list."""
    i, j = np.triu_indices(len(points), 1)
    d = np.hypot(*(points[i] - points[j]).T)
    near = d <= radius
    return i[near], j[near], d[near]


def polar_radius_derivatives(c0, cos_coeffs, sin_coeffs, th):
    """r, r' and r'' of r = c0 + sum_k a_k cos(k th) + b_k sin(k th), one
    harmonic at a time; the output shapes follow th."""
    th = np.asarray(th, dtype=float)
    r = np.full_like(th, float(c0))
    r1 = np.zeros_like(th)
    r2 = np.zeros_like(th)
    for k, (a, b) in enumerate(zip(cos_coeffs, sin_coeffs), start=1):
        c, s = np.cos(k * th), np.sin(k * th)
        r += a * c + b * s
        r1 += k * (b * c - a * s)
        r2 -= k * k * (a * c + b * s)
    return r, r1, r2


def hausdorff(A, B):
    """Symmetric Hausdorff distance between two point sets."""
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    D = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
    return max(D.min(axis=1).max(), D.min(axis=0).max())


def square_skeleton_points(L=1.0, n=2000):
    """Analytic square skeleton (axes plus diagonals), densely sampled."""
    t = np.linspace(-L, L, n)[1:-1]
    pts = [np.column_stack([t, np.zeros_like(t)]),
           np.column_stack([np.zeros_like(t), t]),
           np.column_stack([t, t]),
           np.column_stack([t, -t])]
    return np.vstack(pts)


def rectangle_skeleton_points(a=1.0, b=0.5, n=2000):
    """Analytic centered-rectangle skeleton: mid-lines plus corner bisectors."""
    tx = np.linspace(-a, a, n)[1:-1]
    ty = np.linspace(-b, b, n)[1:-1]
    c = min(a, b)
    td = np.linspace(0.0, c, n // 2)[1:]
    pts = [np.column_stack([tx, np.zeros_like(tx)]),
           np.column_stack([np.zeros_like(ty), ty])]
    for sx in (-1, 1):
        for sy in (-1, 1):
            pts.append(np.column_stack([sx * (a - td), sy * (b - td)]))
    return np.vstack(pts)


def scalar_uniform_2d(dom, rs, order, eps, points, t, correction=None):
    """predictor.uniform_2d as a loop over points and the feet in their
    table rows, with scalar profile calls."""
    from blowuplab.profiles import get_correction, get_profile4, v2
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    u0 = rs.state(t)
    phi = rs.gauge(t, eps, order)
    v = v2 if order == 2 else get_profile4().evaluate
    vb = correction if correction is not None else get_correction(order)
    feet = dom.feet_batch(pts)
    out = np.empty(len(pts))
    for i in range(len(pts)):
        s = 1.0
        for k in range(feet.count[i]):
            d = feet.distance[i, k]
            s += v(d / phi) - 1.0
            s += phi * feet.curvature[i, k] * vb(d / phi)
        out[i] = s
    return u0 * out


def scalar_outer_2d_second(dom, rs, eps, points, t):
    """predictor.outer_2d_second as a loop over points, each summing the
    terms of its own feet."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    u0 = rs.state(t)
    phi = rs.gauge(t, eps, 2)
    c = 8.0 * phi ** 3 / np.sqrt(np.pi)
    feet = dom.feet_batch(pts)
    out = np.empty(len(pts))
    for i in range(len(pts)):
        d = feet.distance[i, :feet.count[i]]
        out[i] = 1.0 - c * np.sum(d ** -3 * np.exp(-d * d / (4.0 * phi * phi)))
    return u0 * out


def scalar_dedup_samples(samples, radius):
    kept = []
    pts = []

    def key(s):
        x, y = np.round(np.asarray(s.point) / (1e-6 * radius))
        return x, y

    for s in sorted(samples, key=key):
        if pts and np.min(np.hypot(*(np.array(pts) - s.point).T)) < radius:
            continue
        kept.append(s)
        pts.append(s.point)
    return kept


def scalar_label_branches(samples, link_radius):
    """Connected-component labels over samples, deterministic ordering."""
    if not samples:
        return
    pts = np.array([s.point for s in samples])
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    parent = list(range(len(samples)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # neighbor search on a hash grid to stay near-linear; two cells each
    # way, because a pair whose rounded distance is link_radius can lie two
    # cells apart, as (0, 0.125) and (0, -4.8e-277) at radius 0.125 do
    cell = {}
    inv = link_radius
    keys = np.floor(pts / inv).astype(int)
    for i, k in enumerate(map(tuple, keys)):
        cell.setdefault(k, []).append(i)
    for i, k in enumerate(map(tuple, keys)):
        for dx in (-2, -1, 0, 1, 2):
            for dy in (-2, -1, 0, 1, 2):
                for j in cell.get((k[0] + dx, k[1] + dy), ()):
                    if j > i and np.hypot(*(pts[i] - pts[j])) <= link_radius:
                        ri, rj = find(i), find(j)
                        if ri != rj:
                            parent[max(ri, rj)] = min(ri, rj)
    label_of = {}
    next_label = 0
    for i in order:
        r = find(i)
        if r not in label_of:
            label_of[r] = next_label
            next_label += 1
    for i, s in enumerate(samples):
        s.branch = label_of[find(i)]


def scalar_curvature_candidates(dom, loops):
    """predictor._curvature_candidates as it was first written, one
    comparison of each loop point with its two cyclic neighbours."""
    from blowuplab.geometry import RectangleDomain
    if isinstance(dom, RectangleDomain):
        return []
    cands = []
    for loop in loops:
        th, _, _ = dom.nearest_feet_grid(loop)
        kap = dom.curvature(th)
        if np.max(kap) - np.min(kap) < 1e-9:
            continue
        n = len(loop)
        for i in range(n):
            if kap[i] >= kap[(i - 1) % n] and kap[i] >= kap[(i + 1) % n] \
                    and (kap[i] > kap[(i - 1) % n] or kap[i] > kap[(i + 1) % n]):
                cands.append(dict(point=loop[i], curvature=float(kap[i])))
    cands.sort(key=lambda c: -c["curvature"])
    return cands


def equidistant_classes(distances, tol):
    """Group sorted distances into classes with internal gaps <= tol."""
    if len(distances) == 0:
        return []
    d = np.sort(np.asarray(distances, dtype=float))
    groups = [[d[0]]]
    for x in d[1:]:
        if x - groups[-1][-1] <= tol:
            groups[-1].append(x)
        else:
            groups.append([x])
    return groups


def box_operator(fast):
    """The sparse operator B of a box adapter (FastDiagCN or a subclass),
    assembled from the adapter's grid by rect_operator or cube_operator."""
    from blowuplab.solvers.common import FastDiagCN
    from blowuplab.solvers.cube3d import cube_operator
    from blowuplab.solvers.rect2d import rect_operator
    (m, *rest), h = fast.shape, fast.spacing
    if len(rest) == 2:
        return cube_operator(m + 2, h[0]) * fast.scale
    order = 2 if type(fast) is FastDiagCN else 4
    return rect_operator(m + 2, rest[0] + 2, *h, order) * fast.scale


def scalar_extract_singularities(field, coords, threshold_fraction=0.5, separation=4):
    """solvers.extract_singularities as it was first written: greedy
    suppression over every candidate in value order, and one scalar
    parabola vertex per kept peak and axis."""
    from blowuplab.solvers.common import _strict_local_maxima
    field = np.asarray(field)
    if field.ndim == 1:
        coords = (coords,) if isinstance(coords, np.ndarray) else tuple(coords)
    vmax = float(np.max(field))
    mask = _strict_local_maxima(field) & (field >= threshold_fraction * vmax)
    idxs = np.argwhere(mask)
    if len(idxs) == 0:
        return []
    vals = field[tuple(idxs.T)]
    kept = []
    for k in np.argsort(-vals):
        ij = idxs[k]
        if any(((q - ij) ** 2).sum() < separation ** 2 for q, _ in kept):
            continue
        kept.append((ij, vals[k]))
    out = []
    for ij, val in kept:
        loc = []
        for ax, i in enumerate(ij):
            x = coords[ax]
            if 0 < i < len(x) - 1:
                sl = tuple([*ij[:ax], slice(i - 1, i + 2), *ij[ax + 1:]])
                loc.append(scalar_parabola_vertex(x[i - 1:i + 2], field[sl]))
            else:
                loc.append(float(x[i]))
        out.append((tuple(loc), float(val)))
    out.sort(key=lambda p: p[0])
    return out


def scalar_parabola_vertex(x3, f3):
    """Vertex abscissa of the parabola through three points; node if flat."""
    x0, x1, x2 = (float(v) for v in x3)
    f0, f1, f2 = (float(v) for v in f3)
    denom = ((x0 - x1) * (x0 - x2) * (x1 - x2))
    if denom == 0.0:
        return x1
    a = (x2 * (f1 - f0) + x1 * (f0 - f2) + x0 * (f2 - f1)) / denom
    b = (x2 * x2 * (f0 - f1) + x1 * x1 * (f2 - f0) + x0 * x0 * (f1 - f2)) / denom
    if a == 0.0:
        return x1
    xv = -b / (2.0 * a)
    return float(np.clip(xv, min(x0, x2), max(x0, x2)))


def expression_flow(rs, u, dt):
    """ReactionSolution.flow of the exp and pow forms as it was first
    written: one array expression each, +inf where the flow blows up."""
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if rs.nl.kind == "exp":
            arg = np.exp(-u) - dt
            return np.where(arg > 0.0, -np.log(np.maximum(arg, 1e-320)), np.inf)
        q = rs.nl.p - 1.0
        arg = (1.0 + u) ** (-q) - q * dt
        return np.where(arg > 0.0, np.maximum(arg, 1e-320) ** (-1.0 / q) - 1.0, np.inf)


def full_path_flow(rs, u, dt):
    """ReactionSolution.flow of the exp and pow forms with every pass on
    every call: the singular mask (NaN included), the clamp at 1e-320, the
    +inf fill, and numpy's power for each power."""
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if rs.nl.kind == "exp":
            arg = np.negative(u)
            np.exp(arg, out=arg)
            arg -= dt
        else:
            q = rs.nl.p - 1.0
            arg = u + 1.0
            arg **= -q
            arg -= q * dt
        singular = ~(arg > 0.0)
        np.maximum(arg, 1e-320, out=arg)
        if rs.nl.kind == "exp":
            np.log(arg, out=arg)
            np.negative(arg, out=arg)
        else:
            arg **= -1.0 / q
            arg -= 1.0
    arg[singular] = np.inf
    return arg


def scalar_track_peaks(snapshots, coords, threshold_fraction=0.6):
    """solvers.track_peaks as it was first written: each peak, in sorted
    order, computes its distances to the free tracks and takes the nearest."""
    from blowuplab.solvers.common import extract_singularities
    tracks = []
    max_jump = 0.25 * max(float(c[-1] - c[0]) for c in coords)
    last = np.empty((0, len(coords)))
    for snap in snapshots:
        peaks = extract_singularities(snap.field, coords,
                                      threshold_fraction=threshold_fraction)
        free = np.ones(len(last), dtype=bool)
        born = []
        for loc, val in peaks:
            d = np.where(free, np.sqrt(((last - loc) ** 2).sum(axis=1)), np.inf)
            best = int(np.argmin(d)) if len(d) else -1
            if best >= 0 and d[best] < max_jump:
                tracks[best]["times"].append(snap.t)
                tracks[best]["points"].append(loc)
                last[best] = loc
                free[best] = False
            else:
                tracks.append(dict(times=[snap.t], points=[loc]))
                born.append(loc)
        if born:
            last = np.vstack([last, born])
    return tracks


def reaction_residual(rs, t):
    """|du0/dt - f(u0)| at t, derivative by central difference.

    The step adapts to the local reaction timescale 1/f'(u0) so the
    FD truncation stays ~1e-9 relative to f; what remains is the
    dense-output error divided by h (~2e-8 relative near the table
    end, the measurement floor for any difference quotient)."""
    from blowuplab.reaction import TABLE_DELTA
    t = np.asarray(t, dtype=float)
    u = rs.state(t)
    h = 1e-4 / (1.0 + np.abs(rs.nl.df(u)))
    h = np.minimum(h, 0.5 * (rs.T0 * (1 - TABLE_DELTA) - t))
    du = (rs.state(t + h) - rs.state(t - h)) / (2.0 * h)
    return np.abs(du - rs.nl.f(u))


def read_profile_csv(path):
    """The LayerProfile that LayerProfile.to_csv wrote to path; the tail's
    decay rate in the header is the module's OMEGA."""
    from blowuplab.fileio import read_csv
    from blowuplab.profiles import LayerProfile
    comments, _, rows = read_csv(path)
    meta = {k: float(v) for k, v in (t.split("=") for t in comments[0].split())}
    return LayerProfile(order=int(meta["order"]),
                        eta=np.array([float(r["eta"]) for r in rows]),
                        values=np.array([float(r["v"]) for r in rows]),
                        eta_max=meta["eta_max"], amplitude=meta["A"],
                        phase=meta["theta"], eta0=meta["eta0"],
                        v_peak=meta["v_peak"])


def _triplets(*blocks):
    """COO (rows, cols, vals) from blocks of broadcastable arrays.

    Entries enter block by block and, within a block, in row-major order,
    so duplicate (row, col) pairs are always summed in the same order."""
    parts = [np.broadcast_arrays(*b) for b in blocks]
    return tuple(np.concatenate([np.ravel(p[k]) for p in parts]) for k in range(3))


def coo_mixed_operator(eta, c0, rhs_values):
    """profiles._mixed_operator as it was first written: the CSC matrix and
    right side of -w'' + (eta/4) v' + c0 v = rhs, v'' = w, with rows scaled
    by h^2, the unknowns v_0..v_n then w_0..w_n, and the rows the same."""
    from blowuplab.profiles import WIDTH
    from blowuplab.stencils import fd_weights, stencil_window
    n = len(eta) - 1
    N = n + 1
    h = eta[1] - eta[0]
    h2 = h * h
    i = np.arange(N)
    J = stencil_window(i, N, WIDTH)
    C = fd_weights(eta[J], eta, 2)
    D1, D2 = C[:, :, 1] * h2, C[:, :, 2] * h2
    i = i[:, None]
    mid = slice(2, n - 1)
    rows, cols, vals = _triplets(
        (0, 0, 1.0),
        (1, J[0], C[0, :, 1] * h),
        (n - 1, J[n], C[n, :, 1] * h),
        (n, n, 1.0),
        (i[mid], np.hstack([J[mid], N + i[mid]]),
         np.hstack([D2[mid], np.full((n - 3, 1), -h2)])),
        (N + i, np.hstack([N + J, J, i]),
         np.hstack([-D2, 0.25 * eta[i] * D1, np.full((N, 1), c0 * h2)])),
    )
    A = sp.csr_matrix((vals, (rows, cols)), shape=(2 * N, 2 * N)).tocsc()
    rhs = np.zeros(2 * N)
    rhs[N:] = rhs_values * h2
    return A, rhs


def coo_correction2_operator():
    """The order-2 curvature-correction system of
    profiles.solve_curvature_correction as it was first written: the CSC
    matrix and right side on [0, 20] at spacing profiles.H."""
    from blowuplab.profiles import H, WIDTH, v2_prime
    from blowuplab.stencils import fd_weights, stencil_window
    n = int(round(20.0 / H))
    eta = np.linspace(0.0, 20.0, n + 1)
    h2 = H * H
    i = np.arange(1, n)
    J = stencil_window(i, n + 1, WIDTH)
    C = fd_weights(eta[J], eta[i], 2)
    i = i[:, None]
    rows, cols, vals = _triplets(
        (0, 0, 1.0), (n, n, 1.0),
        (i, np.hstack([J, i]),
         np.hstack([(C[:, :, 2] + 0.5 * eta[i] * C[:, :, 1]) * h2,
                    np.full((n - 1, 1), -1.5 * h2)])))
    rhs = np.zeros(n + 1)
    rhs[1:n] = v2_prime(eta[1:n]) * h2
    return sp.csr_matrix((vals, (rows, cols)), shape=(n + 1, n + 1)).tocsc(), rhs


def csc_to_band(A, k, perm):
    """LAPACK band storage, entry (i, j) at ab[k + i - j, j], of the matrix
    A with its rows and columns renumbered, old index m to perm[m].
    AssertionError when an entry lies outside the half-width k."""
    A = A.tocoo()
    r, c = perm[A.row], perm[A.col]
    assert np.all(np.abs(r - c) <= k), "an entry lies outside the band"
    ab = np.zeros((2 * k + 1, A.shape[1]))
    ab[k + r - c, c] = A.data
    return ab
