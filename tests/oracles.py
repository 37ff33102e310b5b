"""Independent oracles for the test suite.

Everything here deliberately avoids the package's own numerical paths:
textbook uniform-grid stencils are hard-coded, one profile oracle shoots
from far-field data with an off-the-shelf initial-value integrator and
another collocates at Chebyshev points in mpmath (profile_literals rounds
its series to the constants of blowuplab.profiles), and distance oracles
use brute-force boundary sampling; box_feet and box_signed_distance give
a box's wall feet and distance one wall and one point at a time, in
Python floats. The two PDE oracles
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
differences, and read_profile_csv reads a layer profile's table back from
the CSV that LayerProfile.to_csv writes.
"""

import math

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


def _cheb_matrices(n, order):
    """Chebyshev points x_j = cos(pi j / n), j = 0..n, and the
    differentiation matrices D^(1)..D^(order) on [-1, 1] as lists of mpf
    rows, by Welfert's recursion as in Weideman and Reddy's `chebdif`
    (ACM TOMS 26, 2000), each diagonal by the negative-sum trick."""
    from mpmath import mp
    N = n + 1
    x = [mp.cos(mp.pi * j / n) for j in range(N)]
    c = [(2 if j in (0, n) else 1) * (-1) ** j for j in range(N)]
    Z = [[1 / (x[i] - x[j]) if i != j else mp.zero for j in range(N)] for i in range(N)]
    D = [[int(i == j) for j in range(N)] for i in range(N)]
    out = []
    for ell in range(1, order + 1):
        diag = [D[i][i] for i in range(N)]
        D = [[ell * Z[i][j] * (mp.mpf(c[i]) / c[j] * diag[i] - D[i][j]) if i != j
              else mp.zero for j in range(N)] for i in range(N)]
        for i in range(N):
            D[i][i] = -mp.fsum(D[i])
        out.append(D)
    return x, out


def _mp_lu_solve(A, b):
    """x with A x = b, by Gaussian elimination with partial pivoting on
    lists of mpf; mpmath's lu_solve does the same four times slower."""
    from mpmath import mp
    n = len(A)
    A = [list(row) + [bi] for row, bi in zip(A, b)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(A[i][k]))
        A[k], A[p] = A[p], A[k]
        pivot = A[k]
        for i in range(k + 1, n):
            m = A[i][k] / pivot[k]
            A[i][k + 1:] = [a - m * q for a, q in zip(A[i][k + 1:], pivot[k + 1:])]
    x = [mp.zero] * n
    for k in range(n - 1, -1, -1):
        x[k] = (A[k][n] - mp.fdot(A[k][k + 1:n], x[k + 1:])) / A[k][k]
    return x


def _mp_chebsum(c, t):
    """sum_k c[k] T_k(t) in mpmath, by Clenshaw's recurrence."""
    b1 = b2 = 0
    for ck in c[:0:-1]:
        b1, b2 = ck + 2 * t * b1 - b2, b1
    return c[0] + t * b1 - b2


def _mp_chebder(c, scale):
    """The coefficients of scale * d/dt of sum_k c[k] T_k(t)."""
    n = len(c) - 1
    d = [0] * (n + 2)
    for k in range(n, 0, -1):
        d[k - 1] = d[k + 1] + 2 * k * c[k]
    d[0] /= 2
    return [scale * dk for dk in d[:n]]


def chebyshev_layer_series(n=120, dps=50):
    """The three capped layer problems of blowuplab.profiles, by
    Chebyshev collocation in mpmath at dps digits on n + 1 points:

    v    -v'''' + (eta/4) v' - v = -1 on [0, 36], v(0) = v'(0) = 0,
         v(36) = 1, v'(36) = 0;
    vb   -vb'''' + (eta/4) vb' - (5/4) vb = -2 v''' on [0, 36], with zero
         data in the same four conditions and v''' the collocation
         derivative of v;
    vb2  vb2'' + (eta/2) vb2' - (3/2) vb2 = v2'(eta) on [0, 20],
         vb2(0) = vb2(20) = 0, with v2' in mpmath's closed form.

    Trefethen's collocation (Spectral Methods in MATLAB, SIAM 2000, `cheb`):
    node j is eta = (eta_max / 2)(1 - cos(pi j / n)), and the rows of the
    end nodes and of their neighbours hold the boundary conditions.

    Returns a dict of mpf: each solution as the n + 1 Chebyshev
    coefficients of its interpolant in t = 2 eta / eta_max - 1 (a discrete
    cosine transform of its node values); eta0, the root of v' near 3.738,
    and v_peak = v(eta0); the far field's amplitude hypot(a, b) and phase
    atan2(b, a), where a sin(sqrt(3) xi) + b cos(sqrt(3) xi) is the least-
    squares fit of (v - 1) e^xi, xi = OMEGA eta^(4/3), on eta = i / 100 for
    i = 1200..2000; and vb1 = vb(1)."""
    from mpmath import mp
    N = n + 1

    def on(eta_max):
        """The nodes of [0, eta_max] and its d^k/d eta^k matrices."""
        s = -2 / mp.mpf(eta_max)
        return ([eta_max * (1 - xi) / 2 for xi in x],
                [[[s ** k * d for d in row] for row in Dk] for k, Dk in enumerate(D, 1)])

    def solve(rows, rhs, conditions, d1):
        """rows u = rhs with the rows of conditions (row, node, order of
        the derivative, value) replaced."""
        for row, node, order, value in conditions:
            rows[row] = list(d1[node]) if order else [int(j == node) for j in range(N)]
            rhs[row] = value
        return _mp_lu_solve(rows, rhs)

    def series(u):
        cosines = [mp.cos(mp.pi * m / n) for m in range(2 * n)]
        halved = [u[0] / 2] + u[1:n] + [u[n] / 2]
        c = [2 * mp.fdot(halved, [cosines[j * k % (2 * n)] for j in range(N)]) / n
             for k in range(N)]
        c[0], c[n] = c[0] / 2, c[n] / 2
        return [(-1) ** k * ck for k, ck in enumerate(c)]  # node j is t = -x_j

    with mp.workdps(dps):
        x, D = _cheb_matrices(n, 4)
        eta, (d1, _, d3, d4) = on(36)

        def fourth(c0, forcing, far):
            rows = [[-d4[i][j] + eta[i] / 4 * d1[i][j] - c0 * (i == j) for j in range(N)]
                    for i in range(N)]
            return solve(rows, forcing, ((0, 0, 0, 0), (1, 0, 1, 0), (n, n, 0, far),
                                         (n - 1, n, 1, 0)), d1)

        v = fourth(1, [-1] * N, 1)
        vb = fourth(mp.mpf(5) / 4, [-2 * mp.fdot(row, v) for row in d3], 0)
        eta2, (e1, e2, _, _) = on(20)
        rows = [[e2[i][j] + eta2[i] / 2 * e1[i][j] - mp.mpf(3) / 2 * (i == j)
                 for j in range(N)] for i in range(N)]
        v2_prime = [2 / mp.sqrt(mp.pi) * mp.exp(-e * e / 4) - e * mp.erfc(e / 2)
                    for e in eta2]
        vb2 = solve(rows, v2_prime, ((0, 0, 0, 0), (n, n, 0, 0)), e1)
        out = dict(v=series(v), vb=series(vb), vb2=series(vb2))

        dv = _mp_chebder(out["v"], 1 / mp.mpf(18))
        eta0 = mp.findroot(lambda e: _mp_chebsum(dv, e / 18 - 1), mp.mpf("3.738"))
        omega = 3 * mp.mpf(2) ** (-mp.mpf(11) / 3)
        M, r = [[0, 0], [0, 0]], [0, 0]
        for i in range(1200, 2001):
            e = mp.mpf(i) / 100
            xi = omega * e ** (mp.mpf(4) / 3)
            basis = (mp.sin(mp.sqrt(3) * xi), mp.cos(mp.sqrt(3) * xi))
            y = (_mp_chebsum(out["v"], e / 18 - 1) - 1) * mp.exp(xi)
            for p in range(2):
                r[p] += basis[p] * y
                for q in range(2):
                    M[p][q] += basis[p] * basis[q]
        a, b = _mp_lu_solve(M, r)
        out.update(eta0=+eta0, v_peak=_mp_chebsum(out["v"], eta0 / 18 - 1),
                   amplitude=mp.hypot(a, b), phase=mp.atan2(b, a),
                   vb1=_mp_chebsum(out["vb"], mp.mpf(1) / 18 - 1))
        return out


def chebyshev_profile4(n=80, dps=40):
    """Fourth-order profile peak (eta0, v(eta0)) as mpmath numbers, from
    chebyshev_layer_series(n, dps)."""
    series = chebyshev_layer_series(n, dps)
    return series["eta0"], series["v_peak"]


# the peak of the capped fourth-order problem, where chebyshev_layer_series
# at n = 80 and 40 digits and at n = 120 and 50 digits agree in all 20
# digits, and the order-4 correction at eta = 1 at n = 120
ETA0_REF = 3.7384337311286860135
VPEAK_REF = 1.060510046450362279
VB1_REF = -0.12152448983758509741

# blowuplab.profiles keeps each series through its last coefficient of
# magnitude SERIES_TRIM or more; the ones it drops sum to under 2e-17
SERIES_TRIM = 2.0 ** -60


def profile_literals(s):
    """The literals of blowuplab.profiles from s, the dict that
    chebyshev_layer_series returns, each the double nearest its mpmath
    value: the Chebyshev coefficients V4_SERIES, VB4_SERIES and VB2_SERIES,
    each trimmed after its last of magnitude SERIES_TRIM or more, and ETA0,
    V_PEAK, TAIL_A and TAIL_THETA. The one exception is each series' c[0],
    moved by the fewest ulps for which the double Clenshaw sum at eta = 0
    is exactly 0, the condition all three solutions meet there: 0, 8 and
    7 ulps (under 3e-17). The module's come from the default n = 120 and
    50 digits, and n = 160 gives the same doubles; at n = 80 the three
    smallest kept coefficients of each series differ from them (relative
    3e-16 to 1.3e-14)."""
    from numpy.polynomial.chebyshev import chebval  # numpy's arrangement of the sum

    def trim(c):
        kept = [float(ck) for ck in c]
        last = max(k for k, ck in enumerate(kept) if abs(ck) >= SERIES_TRIM)
        kept = kept[:last + 1]
        for k in sorted(range(-64, 65), key=lambda k: (abs(k), k)):
            c0 = kept[0]
            for _ in range(abs(k)):
                c0 = np.nextafter(c0, np.copysign(np.inf, k))
            if chebval(-1.0, [c0] + kept[1:]) == 0.0:
                return [float(c0)] + kept[1:]
        raise AssertionError("no c[0] within 64 ulps gives a zero sum at eta = 0")

    return dict(V4_SERIES=trim(s["v"]), VB4_SERIES=trim(s["vb"]),
                VB2_SERIES=trim(s["vb2"]), ETA0=float(s["eta0"]),
                V_PEAK=float(s["v_peak"]), TAIL_A=float(s["amplitude"]),
                TAIL_THETA=float(s["phase"]))


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


def dense_omega_grid(dom, level, resolution=None):
    """omega_set's grid xs, ys and F = d - level from one signed_distance
    call on every node."""
    xs, ys = omega_grid(dom, resolution)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    F = dom.signed_distance(np.column_stack([X.ravel(), Y.ravel()]))
    return xs, ys, F.reshape(X.shape) - level


def dense_omega_loops(dom, level, resolution=None):
    """omega_set's loops from one signed_distance call on its full grid.
    Raises RangeError past the inradius."""
    from blowuplab.errors import RangeError
    from blowuplab.geometry import _chain_segments, _marching_squares
    xs, ys, F = dense_omega_grid(dom, level, resolution)
    if F.max() <= 0:
        raise RangeError(f"no points at distance {level}")
    return _chain_segments(_marching_squares(xs, ys, F))


def full_grid_marching_squares(xs, ys, F):
    """geometry._marching_squares as it read the corner values: from the
    whole grid converted to Python floats, F.tolist()."""
    segs = []

    def interp(x0, f0, x1, f1):
        t = f0 / (f0 - f1)
        return x0 + t * (x1 - x0)

    pos = F > 0
    cut = ((pos[:-1, :-1] != pos[1:, :-1]) | (pos[1:, :-1] != pos[1:, 1:])
           | (pos[1:, 1:] != pos[:-1, 1:]))
    Fl, xs, ys = F.tolist(), xs.tolist(), ys.tolist()
    for i, j in zip(*(ix.tolist() for ix in np.nonzero(cut))):
        f = (Fl[i][j], Fl[i + 1][j], Fl[i + 1][j + 1], Fl[i][j + 1])
        crossings = []
        if (f[0] > 0) != (f[1] > 0):
            x = interp(xs[i], f[0], xs[i + 1], f[1])
            crossings.append((("h", i, j), (x, ys[j])))
        if (f[1] > 0) != (f[2] > 0):
            y = interp(ys[j], f[1], ys[j + 1], f[2])
            crossings.append((("v", i + 1, j), (xs[i + 1], y)))
        if (f[3] > 0) != (f[2] > 0):
            x = interp(xs[i], f[3], xs[i + 1], f[2])
            crossings.append((("h", i, j + 1), (x, ys[j + 1])))
        if (f[0] > 0) != (f[3] > 0):
            y = interp(ys[j], f[0], ys[j + 1], f[3])
            crossings.append((("v", i, j), (xs[i], y)))
        if len(crossings) == 2:
            segs.append((*crossings[0], *crossings[1]))
        elif len(crossings) == 4:
            fc = 0.25 * (((f[0] + f[1]) + f[2]) + f[3])
            if (fc > 0) == (f[0] > 0):
                pairs = [(0, 1), (2, 3)]
            else:
                pairs = [(0, 3), (1, 2)]
            for a, b in pairs:
                segs.append((*crossings[a], *crossings[b]))
    return segs


def box_feet(lo, hi, p):
    """The wall feet of the point p in the box [lo, hi], one per wall:
    for each axis k the perpendicular projections onto the walls
    x_k = lo_k (wall 2k) and x_k = hi_k (wall 2k + 1), as (point, wall,
    distance), sorted stably on distance."""
    feet = []
    for k in range(len(p)):
        for wall, value, dist in ((2 * k, lo[k], p[k] - lo[k]),
                                  (2 * k + 1, hi[k], hi[k] - p[k])):
            q = list(p)
            q[k] = value
            feet.append((q, wall, dist))
    return sorted(feet, key=lambda f: f[2])


def box_signed_distance(lo, hi, p):
    """Signed distance of the point p to the boundary of the box [lo, hi]:
    inside, the distance to the nearest wall; outside, minus the length
    of p minus its nearest box point, the clamp of each coordinate."""
    if all(a <= x <= b for a, x, b in zip(lo, p, hi)):
        return min(min(x - a, b - x) for a, x, b in zip(lo, p, hi))
    return -math.sqrt(sum((x - min(max(x, a), b)) ** 2 for a, x, b in zip(lo, p, hi)))


def brute_force_distance(dom, points, n_samples=100_000):
    """min |x - y| over a dense boundary sampling."""
    from blowuplab.geometry import RectangleDomain, SmoothPolarDomain
    points = np.atleast_2d(points)
    if isinstance(dom, SmoothPolarDomain):
        th = np.linspace(0.0, 2 * np.pi, n_samples, endpoint=False)
        bd = dom.point_at(th)
    elif isinstance(dom, RectangleDomain):
        (x0, x1), (y0, y1) = dom.bounding_box
        per_edge = n_samples // 4
        xs = np.linspace(x0, x1, per_edge)
        ys = np.linspace(y0, y1, per_edge)
        bd = np.concatenate([
            np.column_stack([xs, np.full(per_edge, y0)]),
            np.column_stack([xs, np.full(per_edge, y1)]),
            np.column_stack([np.full(per_edge, x0), ys]),
            np.column_stack([np.full(per_edge, x1), ys])])
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
    """The table and the header fields that LayerProfile.to_csv wrote to
    path, named as LayerProfile's fields; the tail's decay rate in the
    header is the module's OMEGA."""
    from types import SimpleNamespace
    from blowuplab.fileio import read_csv
    comments, _, rows = read_csv(path)
    meta = {k: float(v) for k, v in (t.split("=") for t in comments[0].split())}
    return SimpleNamespace(order=int(meta["order"]),
                           eta=np.array([float(r["eta"]) for r in rows]),
                           values=np.array([float(r["v"]) for r in rows]),
                           eta_max=meta["eta_max"], amplitude=meta["A"],
                           phase=meta["theta"], eta0=meta["eta0"],
                           v_peak=meta["v_peak"])
