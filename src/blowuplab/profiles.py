"""Boundary-layer similarity profiles.

Second order: the layer equation v'' + (eta/2) v' - v = -1 with v(0)=0,
v(inf)=1 has a closed form in terms of the complementary error function;
it is monotone increasing. Fourth order: -v'''' + (eta/4) v' - v = -1
with v(0)=v'(0)=0 has no usable closed form; the far field oscillates as
1 + A sin(sqrt(3) w eta^(4/3) + theta) exp(-w eta^(4/3)) with
w = 3*2^(-11/3), and the profile overshoots its limit, attaining a global
maximum at eta0. That overshoot is the whole story of multiple blow-up,
so eta0 and v(eta0) are first-class outputs here.

The fourth-order problem is discretized as the mixed system (v, w = v'')
with 7-point interpolatory stencils and solved sparsely, at h = 1/100.
Its error has a roundoff floor that grows as h shrinks. Against an
mpmath Chebyshev collocation of the same capped problem, eta0 is off by
+4.7e-8 and v(eta0) by +4.6e-10 at h = 1/100, but by -6.9e-7 and -7.0e-9
at 1/200 and by -2.9e-6 at 1/400; the table is within 2.8e-8 of a
shooting solution on (0, 12] at 1/100 (4.3e-7 at 1/200). A coarser grid
is no cure: the not-a-knot spline's slope at 0, held below 1e-6, grows
like h^3 and passes that bound for the correction at h = 1/80.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgtsv
from scipy.sparse.linalg import spsolve

from .errors import ConvergenceError
from .fileio import cell, write_csv
from .stencils import fd_weights, stencil_window

# decay rate of the fourth-order far field, from the WKB exponents
OMEGA = 3.0 * 2.0 ** (-11.0 / 3.0)

# beyond this the closed form's bracket is numerically 1-ish times an
# underflowing Gaussian; switch to the tail expansion
V2_ETA_SWITCH = 26.0

_SQRT_PI = np.sqrt(np.pi)

# The profile grid: [0, ETA_MAX] (the second-order correction stops at
# 20) and WIDTH-point stencils. Order 2 is tabulated at spacing H; the
# fourth-order profile is solved at H4 unless solve_profile4 is given
# another h, and its correction on the profile's own grid. Every sparse
# solve must leave a residual of at most RESIDUAL_TOL.
ETA_MAX = 36.0
H = 1.0 / 200.0
H4 = 1.0 / 100.0
WIDTH = 7
RESIDUAL_TOL = 1e-9


class _Spline:
    """Not-a-knot cubic interpolating spline (de Boor, A Practical Guide
    to Splines), computed with the arithmetic of scipy's CubicSpline, so
    its coefficients `c` and its values are scipy's bit for bit. Needs at
    least 4 strictly increasing nodes.

    Called as spline(x, nu) it gives the nu-th derivative, extrapolating
    the end pieces; NaN gives NaN, and a scalar gives a 0-d array."""

    def __init__(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        n = len(x)
        if n < 4:
            raise ValueError(f"a not-a-knot spline needs 4 or more nodes, got {n}")
        dx = np.diff(x)
        slope = np.diff(y) / dx
        # node slopes s: dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1]
        # = b[i]; the end rows make the third derivative continuous at
        # x[1] and x[-2]
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        dl = np.append(dx[1:], d1)
        diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
        du = np.insert(dx[:-1], 0, d0)
        b = np.concatenate((
            [((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0],
            3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
            [(dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1]))
        s = dgtsv(dl, diag, du, b)[3]
        # Hermite form of each piece, highest power first
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))

    def __call__(self, x, nu=0):
        x = np.asarray(x, dtype=float)
        q = x.ravel()
        i = np.clip(np.searchsorted(self.x, q, "right") - 1, 0, len(self.x) - 2)
        s = q - self.x[i]
        c = self.c[:, i]
        # scipy's power sum: the term of power kp, times kp!/(kp - nu)!,
        # added from the lowest power up
        out, z = np.zeros(len(q)), 1.0
        for kp in range(nu, 4):
            out = out + c[3 - kp] * z * float(math.perm(kp, nu))
            if kp < 3:
                z = z * s
        out[np.isnan(q)] = np.nan
        return out.reshape(x.shape)


def v2(eta):
    """Second-order layer profile, closed form.

    v(eta) = 1 - e^(-eta^2/4) * [-eta/sqrt(pi) + (1 + eta^2/2) erfcx(eta/2)]
    using the scaled complementary error function so no factor overflows.
    scipy.special is imported here, not at start-up: only order 2 uses it.
    """
    from scipy.special import erfcx
    scalar = np.isscalar(eta)
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    lo = eta <= V2_ETA_SWITCH
    e = eta[lo]
    bracket = -e / _SQRT_PI + (1.0 + 0.5 * e * e) * erfcx(0.5 * e)
    out[lo] = 1.0 - np.exp(-0.25 * e * e) * bracket
    if np.any(~lo):
        out[~lo] = v2_tail(eta[~lo])
    return float(out) if scalar else out


def v2_tail(eta):
    """Far-field expansion of the second-order profile (eta >= 5)."""
    scalar = np.isscalar(eta)
    eta = np.asarray(eta, dtype=float)
    out = 1.0 - (8.0 / (_SQRT_PI * eta ** 3)) * np.exp(-0.25 * eta * eta)
    return float(out) if scalar else out


def v2_prime(eta):
    """dv/deta of the second-order profile: (2/sqrt(pi)) e^(-eta^2/4) - eta erfc(eta/2)."""
    from scipy.special import erfcx
    scalar = np.isscalar(eta)
    eta = np.asarray(eta, dtype=float)
    g = np.exp(-0.25 * eta * eta)
    out = (2.0 / _SQRT_PI) * g - eta * g * erfcx(0.5 * eta)
    return float(out) if scalar else out


@dataclass
class LayerProfile:
    """Tabulated similarity profile with far-field tail parameters.

    For order 4 the tail is 1 + A sin(sqrt(3) w eta^(4/3) + theta)
    * exp(-w eta^(4/3)) with w = OMEGA; (eta0, v_peak) locates the global
    overshoot maximum. For order 2 the table holds the closed form and
    eta0 is meaningless (the profile is monotone), kept as nan.
    """

    order: int
    eta: np.ndarray
    values: np.ndarray
    eta_max: float
    amplitude: float = np.nan
    phase: float = np.nan
    eta0: float = np.nan
    v_peak: float = np.nan
    d2_values: np.ndarray = None  # v'' table from the mixed solve, when available

    def __post_init__(self):
        self._spline = _Spline(self.eta, self.values)

    def evaluate(self, eta):
        """Table interpolation inside [0, eta_max], tail formula beyond."""
        scalar = np.isscalar(eta)
        eta = np.asarray(eta, dtype=float)
        out = np.empty_like(eta)
        inside = eta <= self.eta_max
        out[inside] = self._spline(eta[inside])
        if np.any(~inside):
            e = eta[~inside]
            if self.order == 4:
                xi = OMEGA * e ** (4.0 / 3.0)
                out[~inside] = 1.0 + self.amplitude * np.sin(
                    np.sqrt(3.0) * xi + self.phase) * np.exp(-xi)
            else:
                out[~inside] = v2_tail(e)
        return float(out) if scalar else out

    def to_csv(self, path):
        meta = dict(order=self.order, eta_max=self.eta_max, A=self.amplitude,
                    theta=self.phase, omega=OMEGA, eta0=self.eta0,
                    v_peak=self.v_peak)
        write_csv(path, ("eta", "v"), np.column_stack([self.eta, self.values]),
                  [" ".join(f"{k}={cell(v)}" for k, v in meta.items())])


@dataclass
class CorrectionProfile:
    """Curvature-correction profile vbar1 (decays to 0 in the far field)."""

    order: int
    eta: np.ndarray
    values: np.ndarray
    eta_max: float

    def __post_init__(self):
        self._spline = _Spline(self.eta, self.values)

    def __call__(self, eta):
        scalar = np.isscalar(eta)
        eta = np.asarray(eta, dtype=float)
        out = np.where(eta <= self.eta_max,
                       self._spline(np.clip(eta, 0.0, self.eta_max)), 0.0)
        return float(out) if scalar else out


def _triplets(*blocks):
    """COO (rows, cols, vals) from blocks of broadcastable arrays.

    Entries enter block by block and, within a block, in row-major order,
    so duplicate (row, col) pairs are always summed in the same order."""
    parts = [np.broadcast_arrays(*b) for b in blocks]
    return tuple(np.concatenate([np.ravel(p[k]) for p in parts]) for k in range(3))


def _mixed_operator(eta, c0, rhs_values):
    """Assemble the mixed-system matrix for -w'' + (eta/4) v' + c0 v = rhs,
    v'' = w, with rows scaled by h^2 to keep conditioning ~ h^-2; rhs_values
    holds the right side on the grid."""
    n = len(eta) - 1
    N = n + 1
    h = eta[1] - eta[0]
    h2 = h * h
    # one stencil per node; the end stencils are also the one-sided windows
    # of the v'(0) and v'(eta_max) rows
    i = np.arange(N)
    J = stencil_window(i, N, WIDTH)
    C = fd_weights(eta[J], eta, 2)
    D1, D2 = C[:, :, 1] * h2, C[:, :, 2] * h2
    i = i[:, None]
    mid = slice(2, n - 1)
    rows, cols, vals = _triplets(
        # v-block boundary rows: v(0)=0 (row 0), v'(0)=0 (row 1),
        # v'(eta_max)=0 (row n-1), v(eta_max)=bc_right (row n)
        (0, 0, 1.0),
        (1, J[0], C[0, :, 1] * h),
        (n - 1, J[n], C[n, :, 1] * h),
        (n, n, 1.0),
        # v-block interior: v'' - w = 0
        (i[mid], np.hstack([J[mid], N + i[mid]]),
         np.hstack([D2[mid], np.full((n - 3, 1), -h2)])),
        # w-block: the fourth-order equation at every node (one-sided at ends)
        (N + i, np.hstack([N + J, J, i]),
         np.hstack([-D2, 0.25 * eta[i] * D1, np.full((N, 1), c0 * h2)])),
    )
    A = sp.csr_matrix((vals, (rows, cols)), shape=(2 * N, 2 * N)).tocsc()
    rhs = np.zeros(2 * N)
    rhs[N:] = rhs_values * h2
    return A, rhs


def _peak_from_table(eta, v):
    """Quartic fit through the 5 nodes around the maximal node."""
    i = int(np.argmax(v))
    h = eta[1] - eta[0]
    if i < 2 or i > len(eta) - 3:
        raise ConvergenceError("profile peak not interior to the table")
    sl = slice(i - 2, i + 3)
    x = eta[sl] - eta[i]
    p = np.polyfit(x, v[sl], 4)
    r = np.roots(np.polyder(p))
    r = r[np.isreal(r)].real
    r = r[np.abs(r) < 2.0 * h]
    if len(r) == 0:
        raise ConvergenceError("no stationary point near the maximal node")
    x0 = r[np.argmin(np.abs(r))]
    return float(eta[i] + x0), float(np.polyval(p, x0))


def _fit_tail(eta, v):
    """Least-squares (A, theta) of the WKB tail on the window [12, 20]."""
    m = (eta >= 12.0) & (eta <= 20.0)
    xi = OMEGA * eta[m] ** (4.0 / 3.0)
    r = (v[m] - 1.0) * np.exp(xi)
    M = np.column_stack([np.sin(np.sqrt(3.0) * xi), np.cos(np.sqrt(3.0) * xi)])
    ab, *_ = np.linalg.lstsq(M, r, rcond=None)
    return float(np.hypot(*ab)), float(np.arctan2(ab[1], ab[0]))


def _solve_checked(A, rhs, what):
    """spsolve(A, rhs); ConvergenceError when the residual exceeds
    RESIDUAL_TOL."""
    sol = spsolve(A, rhs)
    resid = np.abs(A @ sol - rhs).max()
    if resid > RESIDUAL_TOL:
        raise ConvergenceError(f"{what} residual {resid:g}")
    return sol


def solve_profile4(h=H4) -> LayerProfile:
    """Solve the fourth-order layer profile BVP on [0, ETA_MAX].

    Far field handled by capping v(eta_max)=1, v'(eta_max)=0; with
    eta_max = 36 the committed tail amplitude exp(-OMEGA*eta_max^(4/3))
    is ~7e-13, far below the discretization error. Tail parameters
    (A, theta) are fitted on [12, 20] and the peak is located by a local
    quartic fit.
    """
    n = int(round(ETA_MAX / h))
    eta = np.linspace(0.0, ETA_MAX, n + 1)
    A, rhs = _mixed_operator(eta, -1.0, -np.ones_like(eta))
    rhs[n] = 1.0  # v(eta_max) = 1
    sol = _solve_checked(A, rhs, "profile linear solve")
    v = sol[:n + 1]
    w = sol[n + 1:]
    eta0, v_peak = _peak_from_table(eta, v)
    if not (0.0 < eta0 < ETA_MAX and v_peak > 1.0):
        raise ConvergenceError("fourth-order profile peak not interior or <= 1")
    amp, phase = _fit_tail(eta, v)
    return LayerProfile(order=4, eta=eta, values=v, eta_max=ETA_MAX,
                        amplitude=amp, phase=phase, eta0=eta0, v_peak=v_peak,
                        d2_values=w)


def second_order_profile() -> LayerProfile:
    """Closed-form second-order profile, tabulated for export symmetry."""
    eta = np.linspace(0.0, ETA_MAX, int(round(ETA_MAX / H)) + 1)
    return LayerProfile(order=2, eta=eta, values=v2(eta), eta_max=ETA_MAX)


def solve_curvature_correction(order, profile4: LayerProfile | None = None
                               ) -> CorrectionProfile:
    """Solve the curvature-correction BVP for vbar1 with zero boundary data,
    at spacing H on [0, 20] (order 2) or on the profile's own grid.

    order 2:  vbar'' + (eta/2) vbar' - (3/2) vbar = v0'   (v0 = closed form)
    order 4:  -vbar'''' + (eta/4) vbar' - (5/4) vbar = -2 v0'''
    """
    if order == 2:
        eta_max = 20.0
        n = int(round(eta_max / H))
        eta = np.linspace(0.0, eta_max, n + 1)
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
        A = sp.csr_matrix((vals, (rows, cols)), shape=(n + 1, n + 1)).tocsc()
        sol = _solve_checked(A, rhs, "correction solve")
        return CorrectionProfile(order=2, eta=eta, values=sol, eta_max=eta_max)

    if order == 4:
        if profile4 is None:
            profile4 = get_profile4()
        if profile4.d2_values is None:
            raise ValueError("need a freshly solved profile (with its v'' "
                             "table) to form the correction forcing")
        eta = profile4.eta
        n = len(eta) - 1
        # v0''' as one derivative of the solved v'' table; differentiating
        # the value table three times amplifies its boundary-row error
        v0_3 = _table_derivative(eta, profile4.d2_values)
        A, rhs = _mixed_operator(eta, -1.25, -2.0 * v0_3)
        rhs[n] = 0.0  # vbar -> 0 in the far field
        sol = _solve_checked(A, rhs, "correction solve")
        return CorrectionProfile(order=4, eta=eta, values=sol[:n + 1],
                                 eta_max=profile4.eta_max)

    raise ValueError(f"order must be 2 or 4, got {order}")


def _table_derivative(eta, values):
    """First derivative of a table on its own nodes."""
    n = len(eta)
    J = stencil_window(np.arange(n), n, WIDTH)
    w = fd_weights(eta[J], eta, 1)[:, None, :, 1]
    # one BLAS dot per row, as for a single stencil: a row sum in another
    # order would change the last bits of the table
    return np.matmul(w, values[J][:, :, None]).ravel()


@lru_cache(maxsize=1)
def get_profile4() -> LayerProfile:
    """Cached default fourth-order profile."""
    return solve_profile4()


@lru_cache(maxsize=4)
def get_correction(order: int) -> CorrectionProfile:
    """Cached default curvature-correction profile."""
    if order == 4:
        return solve_curvature_correction(4, profile4=get_profile4())
    return solve_curvature_correction(order)
