"""The solver pipeline shared by every geometry. A geometry module builds
its problem (a Crank-Nicolson step adapter of its operator, one
coordinate array per field axis); solve_problem() does the rest:
stepping, extraction, peak tracking and the BlowupReport.

Time integration is Strang splitting: an exact pointwise reaction flow
(closed form or dense-output based, see ReactionSolution.flow) around a
Crank-Nicolson solve of the constant linear diffusion operator. The
reaction map is exact for any step size, so near blow-up, where the
dynamics are reaction-dominated, the stepper commits no time error and
the blow-up time estimate t_stop + tail(sup) converges; the step
controller only has to resolve the coupled layer phase. Entries that
blow through the reaction singularity inside a step come back +inf and
stop the run with the pre-step tail estimate.

Step sizes adapt by proportional control on the per-step growth of the
sup norm (2% target near blow-up). Every adapter keeps one form of its
operator and follows one contract (CNStep): a setup per dt, cached, and
a step from it. Strip and disc steps (BandedCN) keep its band and take
every dt the controller chooses, one banded factorization per new dt.
Rectangle and cube steps (FastDiagCN; FastDiagRectCN and FastDiagCubeCN
at order 4) work on sine coefficients from the grid alone, set up once
per power-of-two dt bucket, so a step makes two transforms and no
sparse product. SparseLUCN and ConjugateGradientCN, the box steps these
replaced, stay as the tests' reference paths and import scipy.sparse
only when used. Every adapter counts its solves and its factorizations
or setups, FastDiagCubeCN also its PCG iterations, and solve_problem
copies the counts into BlowupReport.diagnostics.

The banded and Cholesky solves call LAPACK through blowuplab.lapack,
which loads scipy's _flapack without the scipy.linalg package init: a
CLI start-up took a median 0.22 s against 0.41 s with `import
scipy.linalg` (15 alternating pairs, 2-core x86_64, scipy 1.17.1). No
solve loads scipy's BLAS module _fblas: FastDiagRectCN's Schur solve is
one dpotrs. numpy.random (5.5 MB of RSS, about 10 ms) waits for noisy
initial data in initial_field. A start-up holds 34.6 MB of RSS, and a
prediction loads neither.

run_stepper keeps a field copy only at the snapshot_times that a caller
asked for; BlowupReport.snapshots holds those. At every snapshot_stride
step it extracts the field's peaks and links them into the peak tracks
at once (PeakTracks), so a stride-only run holds no field copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from ..errors import ConfigError, ConvergenceError
from ..lapack import (LinAlgError, cho_factor, dgbtrf, dgbtrs, dgttrf, dgttrs,
                      dpotrs)
from ..reaction import Nonlinearity, ReactionSolution, TABLE_DELTA

# Crank-Nicolson (Crank and Nicolson 1947): the implicit weight of every
# step. THETA * dt and (1 - THETA) * dt are both exactly dt / 2.
THETA = 0.5


@dataclass
class SolverConfig:
    """Configuration shared by all geometries.

    nx/ny count grid nodes including boundaries (the cube uses nx on
    every axis; ny = 0 means ny = nx on the rectangle). grading > 0
    applies tanh clustering toward the strip endpoints (1D only).
    threshold is the sup-norm blow-up cutoff M; t_end, when set, stops
    the run at a fixed time instead. eps = 0 disables diffusion entirely
    (reaction limit, used by the solver self-checks). max_unknowns bounds
    the unknowns of every geometry: nx - 2 on the strip, nx on the disc.
    Invalid settings raise ConfigError (a ValueError)."""

    order: int
    nonlinearity: Nonlinearity
    eps: float
    geometry: str = "strip"
    nx: int = 2001
    ny: int = 0
    half_width_x: float = 1.0
    half_width_y: float = 1.0
    grading: float = 0.0
    dt_init: float = 1e-6
    dt_max: float = 5e-3
    growth_target: float = 0.02
    threshold: float = 1e3
    max_steps: int = 500_000
    t_end: Optional[float] = None
    snapshot_times: tuple = ()
    snapshot_stride: int = 0
    noise_amplitude: float = 0.0
    seed: int = 0
    check_supersolution: bool = True
    max_unknowns: int = 2_000_000

    def __post_init__(self):
        unknowns = {"strip": self.nx - 2, "radial-disc": self.nx,
                    "rect": (self.nx - 2) * ((self.ny or self.nx) - 2),
                    "cube": (self.nx - 2) ** 3}.get(self.geometry, 0)
        # (holds, message) in the order they are checked; a NaN fails each test
        for ok, message in (
                (self.order in (2, 4), f"order must be 2 or 4, got {self.order}"),
                (0 <= self.eps < math.inf, "eps must be finite and >= 0"),
                (1.0 < self.threshold < math.inf, "threshold M must be finite and exceed 1"),
                (0 < self.dt_init <= self.dt_max, "need 0 < dt_init <= dt_max"),
                (self.growth_target > 0, "growth_target must be positive"),
                (self.max_steps >= 1, "max_steps must be >= 1"),
                (self.t_end is None or self.t_end > 0, "t_end must be positive"),
                (self.grading >= 0, "grading must be >= 0"),
                (self.noise_amplitude >= 0, "noise_amplitude must be >= 0"),
                (self.nx >= 5, "nx too small"),
                (self.geometry != "rect" or (self.ny or self.nx) >= 5, "ny too small"),
                (self.snapshot_stride >= 0, "snapshot_stride must be >= 0"),
                (all(0 < t < math.inf for t in self.snapshot_times),
                 "snapshot_times must be finite and > 0"),
                (self.seed >= 0, "seed must be >= 0"),
                (self.geometry != "cube" or self.order == 4,
                 "cube solver covers the fourth-order problem only"),
                (unknowns <= self.max_unknowns, f"{self.geometry} grid with {unknowns} "
                 f"unknowns exceeds max_unknowns={self.max_unknowns}")):
            if not ok:
                raise ConfigError(message)


@dataclass
class Snapshot:
    t: float
    field: np.ndarray
    sup: float


@dataclass
class BlowupReport:
    """Solver output: blow-up time estimate, singularity set, trajectories."""

    T_eps: float
    t_stop: float
    sup_stop: float
    stop_reason: str
    singularities: list          # [(coords tuple, value)]
    final_field: np.ndarray
    grid: tuple                  # per-axis coordinate arrays
    peak_trajectory: list        # [(t, coords tuple)] for the tracked main peak
    snapshots: list              # [Snapshot] at cfg.snapshot_times only
    diagnostics: dict
    ring_radius: Optional[float] = None
    blowup_detected: bool = False

    @property
    def multiplicity(self):
        return len(self.singularities)

    def singularity_points(self):
        return np.array([list(c) for c, _ in self.singularities])


class CNStep:
    """The contract of every step adapter. apply(dt, u) is _step(dt,
    setup, u), from the setup that _setup(dt) made: the work that depends
    on dt alone, kept in a first-in-first-out cache of CACHE_SIZE setups
    keyed by dt. quantize(dt), the step taken for the controller's dt, is
    the largest power of two <= dt, or dt itself without BUCKETS. solves
    counts the steps and factorizations the setups."""

    CACHE_SIZE = 6
    BUCKETS = True

    def __init__(self):
        self.cache = {}
        self.factorizations = 0
        self.solves = 0

    def quantize(self, dt):
        return float(2.0 ** np.floor(np.log2(dt))) if self.BUCKETS else dt

    def apply(self, dt, u):
        setup = self.cache.get(dt)
        if setup is None:
            if len(self.cache) >= self.CACHE_SIZE:
                del self.cache[next(iter(self.cache))]
            setup = self.cache[dt] = self._setup(dt)
            self.factorizations += 1
        self.solves += 1
        return self._step(dt, setup, u)


class BandedCN(CNStep):
    """Crank-Nicolson solve for banded operators (1D), dt by dt.

    B is stored once, as its band ab in LAPACK storage (B[i, j] at
    ab[bw + i - j, j]). A new dt factors the band of I + THETA dt B once
    for the step and its mirror solve: dgttrf/dgttrs at bandwidth 1 and
    dgbtrf/dgbtrs above, the halves of gtsv and gbsv behind scipy's
    solve_banded, so every step is that of solve_banded, bit for bit.
    The explicit half is one product W[d, j] u[j], W the band of
    I - (1 - THETA) dt B, summed by matrix row in the order of the sparse
    sums the golden reports were recorded with: ascending offset, or,
    with symmetrize, the off-diagonals ascending and the diagonal last.

    The banded LU sweep is directional; on reflection-symmetric operators
    symmetrize=True averages the solve with its mirror image, which keeps
    symmetric data symmetric to roundoff instead of accumulating a biased
    drift that blow-up amplification would magnify."""

    CACHE_SIZE, BUCKETS = 1, False  # the strip repeats only the last dt, the disc none

    def __init__(self, ab: np.ndarray, symmetrize=False):
        super().__init__()
        self.ab = ab
        self.bw = bw = len(ab) // 2
        self.n = n = ab.shape[1]
        self.symmetrize = symmetrize
        # W[d, j] u[j] goes in rows of n + bw whose last bw entries stay
        # zero; read back in rows of n + bw - 1, row d holds the products
        # of offset bw - d, each in the column of its matrix row
        buf = np.zeros((2 * bw + 1) * (n + bw))
        self._products = buf.reshape(2 * bw + 1, n + bw)[:, :n]
        self._by_offset = buf[bw:-bw - 1].reshape(2 * bw + 1, n + bw - 1)[:, :n]
        # its rows in summation order: all reversed, offsets ascending (a
        # view), or, with symmetrize, a copy with the main diagonal last
        rows = [d for d in range(2 * bw, -1, -1) if d != bw] + [bw]
        self._order = np.array(rows) if symmetrize else slice(None, None, -1)

    apply = CNStep.apply        # perfbench/tracer.py hooks it by this class's name

    def _setup(self, dt):
        """W and the LU factors of the band of I + THETA dt B."""
        bw = self.bw
        W = (-(1.0 - THETA) * dt) * self.ab
        W[bw] += 1.0
        ab = (THETA * dt) * self.ab
        ab[bw] += 1.0
        if bw == 1:
            *lu, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
        else:
            a2 = np.zeros((3 * bw + 1, self.n))
            a2[bw:] = ab
            *lu, info = dgbtrf(a2, bw, bw, overwrite_ab=True)
        if info:
            raise LinAlgError("singular matrix")
        return W, lu

    def _step(self, dt, setup, u):
        W, lu = setup
        np.multiply(W, u, out=self._products)
        b = np.add.reduce(self._by_offset[self._order], axis=0)
        if self.symmetrize:     # the solve and its mirror as one two-column right side
            b = np.column_stack((b, b[::-1]))
        if self.bw == 1:
            x, _ = dgttrs(*lu, b)
        else:
            x, _ = dgbtrs(lu[0], self.bw, self.bw, b, lu[1])
        return 0.5 * (x[:, 0] + x[::-1, 1]) if self.symmetrize else x


def splu(A):
    """scipy's SuperLU factors of A, imported on the first call: only the
    tests' reference adapter SparseLUCN factors a sparse matrix, so no
    run loads scipy.sparse for it."""
    from scipy.sparse.linalg import splu as superlu
    return superlu(A)


class SparseLUCN(CNStep):
    """Crank-Nicolson by sparse LU factors, one per power-of-two dt bucket,
    of a scipy.sparse operator B."""

    def __init__(self, B):
        import scipy.sparse as sp
        super().__init__()
        self.B = B.tocsc()
        self.I = sp.identity(B.shape[0], format="csc")

    apply = CNStep.apply        # perfbench/tracer.py hooks it by this class's name

    def _setup(self, dt):
        return (splu((self.I + THETA * dt * self.B).tocsc()),
                (self.I - (1.0 - THETA) * dt * self.B).tocsr())

    def _step(self, dt, setup, u):
        lu, A2 = setup
        return lu.solve(A2 @ u)


class ConjugateGradientCN(CNStep):
    """Matrix-free-ish Crank-Nicolson via CG; for the SPD 3D operator. A
    setup is the step matrix A1 of a power-of-two dt bucket. B is a
    scipy.sparse operator."""

    RTOL = 1e-11

    def __init__(self, B):
        super().__init__()
        self.B = B.tocsr()

    apply = CNStep.apply        # perfbench/tracer.py hooks it by this class's name

    def _setup(self, dt):
        import scipy.sparse as sp
        return sp.identity(self.B.shape[0], format="csr") + THETA * dt * self.B

    def _step(self, dt, A1, u):
        from scipy.sparse.linalg import cg
        rhs = u - (1.0 - THETA) * dt * (self.B @ u)
        x, info = cg(A1, rhs, x0=u, rtol=self.RTOL, atol=0.0, maxiter=2000)
        if info != 0:
            raise ConvergenceError(f"CG did not converge (info={info})")
        return x


class FastDiagCN(CNStep):
    """Crank-Nicolson for box operators by fast diagonalization.

    On a uniform box grid with spacing h_k per axis the Dirichlet
    Laplacian L is diagonal in the orthonormal DST-I basis T of each axis
    (Lynch, Rice and Thomas 1964). This class takes the order-2 step,
    B = -s L, s = eps^2, entirely in that basis (dense per-axis sine
    matrices beat FFT-based DSTs at these grid sizes): with u^ = T u and
    c = (1 - THETA) dt s, the explicit half is b^ = u^ - c eig u^, the
    solve multiplies by g = 1 / (1 + THETA dt s eig), and the step is
    T(g b^), two transforms and no sparse product. eig holds the
    eigenvalues of -L.

    The clamped order-4 operator is B = s (L^2 + R), s = eps^4:
    d4_clamped_uniform is D2^2 plus 2/h^4 on its first and last diagonal
    entries, so R is 2/h_k^4 on the nodes next to the walls of axis k.
    FastDiagRectCN and FastDiagCubeCN square eig, so that the sine solve
    is P = I + THETA dt s L^2, and add R back. The sine matrices are
    orthonormal and symmetric, so in the sine basis R is rank 2 per axis:
    T R T = sum_k (2/h_k^4) E_k^T E_k along axis k, with E_k the rows of
    S_k at the walls (ends). Their explicit half is
    b^ = u^ - c (eig u^ + T R T u^), with T R T u^ a thin contraction of
    u^ per axis (_wall_hat). No adapter holds B: rect_operator and
    cube_operator assemble it for the tests."""

    def __init__(self, shape, spacing, scale):
        super().__init__()
        self.shape = tuple(shape)
        self.spacing = tuple(spacing)
        self.scale = scale
        self.sines = [_dst1_matrix(m) for m in self.shape]
        # eigenvalues of -L: per-axis 4/h^2 sin^2(pi k / (2(m+1))), summed
        self.eig = reduce(np.add.outer, [
            (2.0 / h * np.sin(0.5 * np.pi * np.arange(1, m + 1) / (m + 1))) ** 2
            for m, h in zip(self.shape, self.spacing)])

    def _transform(self, U):
        """Orthonormal DST-I along every axis (its own inverse). Each pass
        contracts the leading axis and moves it last; matmul takes the
        transposed view as it is, where tensordot would copy it."""
        for S in self.sines:
            U = (U.reshape(len(S), -1).T @ S).reshape(*U.shape[1:], len(S))
        return U

    def _setup(self, dt):
        """Eigenvalues of the sine-basis solve's inverse for this dt."""
        return 1.0 / (1.0 + THETA * dt * self.scale * self.eig)

    def _wall_hat(self, Uh):
        """T R T u^ on the sine coefficients Uh; R = 0 at order 2."""
        return 0.0

    def _explicit_hat(self, dt, u):
        """b^ = T(u - (1 - THETA) dt B u), from the forward transform of u."""
        Uh = self._transform(u.reshape(self.shape))
        bh = self.eig * Uh
        bh += self._wall_hat(Uh)
        bh *= -(1.0 - THETA) * dt * self.scale
        bh += Uh
        return bh

    def _step(self, dt, g, u):
        return self._transform(g * self._explicit_hat(dt, u)).ravel()


class FastDiagRectCN(FastDiagCN):
    """Order-4 rectangle steps: the P solve plus a Woodbury correction.

    R is added back exactly by a capacitance solve over the 2(mx+my)
    nodes of the lines next to the walls (Buzbee, Dorr, George and Golub
    1971), from G = g b^ in the sine basis. It is built and applied from
    Ex, Ey (the sine vectors at the walls) and g alone, in sine-line
    coordinates, where both diagonal blocks of the capacitance matrix
    are block-diagonal with 2 x 2 blocks. So the walls of the short axis
    are eliminated by 2 x 2 inverses, and only the Schur complement on
    the walls of the long axis, of size 2 min(mx, my), is
    Cholesky-factored. Memory: a cached dt bucket holds
    8 mx my + 8 (2 min(mx, my))^2 bytes, 0.17 MB at the benchmark's
    119 x 59 interior nodes and 80 MB at 1414^2, about the max_unknowns
    limit. There, on one BLAS thread of a 2-core x86_64, a setup took
    0.96 s and a process peaked at 355 MB of RSS over one setup and step
    (599^2: 0.10 s and 120 MB)."""

    def __init__(self, shape, spacing, scale):
        super().__init__(shape, spacing, scale)
        self.eig = self.eig ** 2                       # of L^2
        self.ends = [S[[0, -1]] for S in self.sines]   # sine vectors at the walls
        self.walls = [2.0 / h ** 4 for h in self.spacing]
        # per-axis lists and fields (by _long) with the long axis first
        self._axes = slice(None) if shape[0] >= shape[1] else slice(None, None, -1)

    def _long(self, A):
        return A.T if self._axes.step else A

    def _setup(self, dt):
        """g, the upper Cholesky factor of the Schur complement, the 2 x 2
        inverses F of the eliminated blocks, and D^1/2 of both parts. With
        gL = g long axis first, the kept (a, q) and eliminated (b, p) blocks
        of W^T P^-1 W are (EL[a] EL[b]) @ gL and (ES[a] ES[b]) @ gL^T, and
        X[(a, q), (b, p)] = EL[a, p] gL[p, q] ES[b, q] joins them."""
        g = super()._setup(dt)
        gL = self._long(g)
        EL, ES = self.ends[self._axes]
        aL, aS = (THETA * dt * self.scale * w for w in self.walls[self._axes])
        mL, mS = gL.shape
        # inverses of the eliminated part's blocks I + aS (ES[a] ES[b]) @ gL[p]
        KS = (ES[:, None] * ES) @ gL.T
        e00, e01, e11 = 1.0 + aS * KS[0, 0], aS * KS[0, 1], 1.0 + aS * KS[1, 1]
        F = np.array([[e11, -e01], [-e01, e00]]) / (e00 * e11 - e01 * e01)
        # S = I + aL KL - aL aS X F X^T, aL = D of the kept part, X^T as Y[b, p, (a, q)]
        Y = ((EL.T[:, :, None] * gL[:, None, :]) * ES[:, None, None, :]).reshape(2, mL, 2 * mS)
        S = Y.reshape(2 * mL, 2 * mS).T @ _pairs(F[..., None], Y).reshape(2 * mL, 2 * mS)
        S *= -(aL * aS)
        q = np.arange(mS)
        S.reshape(2, mS, 2, mS)[:, q, :, q] += aL * ((EL[:, None] * EL) @ gL).transpose(2, 0, 1)
        S[np.diag_indices_from(S)] += 1.0
        return g, cho_factor(S), F, math.sqrt(aL), math.sqrt(aS)

    def _wall_hat(self, Uh):
        Ex, Ey = self.ends
        wx, wy = self.walls
        return wx * (Ex.T @ (Ex @ Uh)) + wy * ((Uh @ Ey.T) @ Ey)

    def _step(self, dt, setup, u):
        g, cu, F, dL, dS = setup                       # cu: upper factor of S
        EL, ES = self.ends[self._axes]
        G = g * self._explicit_hat(dt, u)
        gL, GL = self._long(g), self._long(G)
        # D^1/2 W^T P^-1 b in sine-line coordinates: EL GL and ES GL^T
        vK, vE = dL * (EL @ GL), dS * (ES @ GL.T)
        # C z = v by blocks, X applied from EL, gL and ES:
        # S zK = vK - dL dS X F vE, then zE = F (vE - dL dS X^T zK)
        rK = vK - (dL * dS) * (EL @ (gL * (_pairs(F, vE).T @ ES)))
        zK = dpotrs(cu, rK.ravel())[0].reshape(2, -1)
        zE = _pairs(F, vE - (dL * dS) * (((EL.T @ zK) * gL) @ ES.T).T)
        # T (W D^1/2 z), subtracted in the sine basis
        H = EL.T @ (dL * zK) + (dS * zE).T @ ES
        return self._transform(G - g * self._long(H)).ravel()


def _pairs(F, v):
    """The 2 x 2 blocks F[:, :, p] applied to the pairs v[:, p]."""
    return F[:, 0] * v[0] + F[:, 1] * v[1]


class FastDiagCubeCN(FastDiagCN):
    """Order-4 cube steps: conjugate gradients preconditioned by P.

    The ring of the cube is too large for a dense capacitance matrix, so
    P preconditions CG on the step matrix A1 = P + c R, c = THETA dt s,
    where R is the diagonal wall term. The CG runs in the sine basis, on
    T A1 T = diag(1/g) + c K with K = T R T, preconditioned by diag(g),
    the sine-basis eigenvalues of P^-1; T is orthonormal, so its iterates
    are those of the CG on A1 in another basis. The cube has the same m
    nodes on every axis, and K p is three thin contractions of p with the
    sine vectors at the walls (_wall_hat). A dt bucket's setup is (g, c).
    The loop carries P p along with the search direction p: from
    p <- z + beta p and z = P^-1 r follows P p <- r + beta P p, so
    A1 p = P p + c K p makes no transform and no sparse product.

    Within a bucket the step matrix is fixed and the correction
    delta = x^ - g b^ to the P solve g b^ changes smoothly from step to
    step, so each PCG starts from the earlier solutions (Fischer 1998):
    x0^ = g b^ + d, with d the backward-difference extrapolation of the
    last HISTORY corrections (weights 4, -6, 4, -1, and fewer while fewer
    exist), and r0^ = -d/g - c K x0^. The extrapolation assumes equal
    steps, so the corrections are dropped whenever a step's setup differs
    from the last one's: a new or re-set-up bucket, or an exact-hit step.

    The PCG stops by scipy's cg rule with atol 0: |r| < RTOL |b^|, tested
    before each iteration, at most MAXITER iterations. RTOL is ten times
    tighter than ConjugateGradientCN's: both stop just under their bound,
    and plain CG overshoots further on the nearly diagonal early steps.
    cg_iterations counts the iterations of all solves. A step makes two
    sine transforms, the forward one of u and the inverse one of the
    solution."""

    RTOL = 1e-12
    MAXITER = 2000
    HISTORY = 4
    # backward-difference extrapolation weights, newest correction first
    WEIGHTS = ((), (1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0))

    def __init__(self, shape, spacing, scale):
        super().__init__(shape, spacing, scale)
        self.eig = self.eig ** 2                       # of L^2
        self.walls = [2.0 / h ** 4 for h in self.spacing]
        self.ends = self.sines[0][[0, -1]]             # sine vectors at the walls
        self.ends_t = self.ends.T.copy()               # contiguous for the last axis
        self.cg_iterations = 0
        self._bucket, self._history = None, []

    def _setup(self, dt):
        return super()._setup(dt).ravel(), THETA * dt * self.scale

    def _wall_hat(self, Uh):
        E, Et = self.ends, self.ends_t
        m = len(Et)
        wx, wy, wz = self.walls
        X = Uh.reshape(m, m, m)
        out = (Et @ (wx * (E @ X.reshape(m, m * m)))).reshape(m, m, m)
        out += Et @ (wy * (E @ X))
        out += ((wz * (X.reshape(m * m, m) @ Et)) @ E).reshape(m, m, m)
        return out.reshape(Uh.shape)

    def _step(self, dt, setup, u):
        g, c = setup
        if setup is not self._bucket:     # a new or re-set-up bucket, or an exact hit
            self._bucket, self._history = setup, []
        b = self._explicit_hat(dt, u).ravel()
        atol = self.RTOL * math.sqrt(_dot(b, b))
        if atol == 0.0:                   # b^ = 0, so x = 0
            return np.zeros(b.size)
        gb = g * b
        x, r = self._start(g, c, gb)
        for it in range(self.MAXITER):
            if math.sqrt(_dot(r, r)) < atol:
                break
            z = g * r
            rho = _dot(r, z)
            if it:
                beta = rho / rho_prev
                p *= beta
                p += z
                Pp *= beta
                Pp += r
            else:
                p, Pp = z, r.copy()
            q = self._wall_hat(p)
            q *= c
            q += Pp
            alpha = rho / _dot(p, q)
            x += alpha * p
            r -= alpha * q
            rho_prev = rho
        else:
            raise ConvergenceError(f"PCG did not converge in {self.MAXITER} iterations")
        self.cg_iterations += it
        self._history = [x - gb, *self._history[:self.HISTORY - 1]]
        return self._transform(x.reshape(self.shape)).ravel()

    def _start(self, g, c, gb):
        """x0^ = g b^ + d and r0^ = -d/g - c K x0^, with d the
        backward-difference extrapolation of the bucket's last corrections
        (d = 0 without any)."""
        h = self._history
        d = sum(w * dk for w, dk in zip(self.WEIGHTS[len(h)], h))
        x = gb + d if h else gb.copy()
        r = self._wall_hat(x)
        r *= -c
        if h:
            r -= d / g
        return x, r


def _dot(a, b):
    """sum(a * b) in one order at any BLAS thread count, unlike ddot."""
    return np.einsum("i,i->", a, b, optimize=False)


def banded(bw, cols, vals, keep=True):
    """LAPACK band storage, entry (i, j) at ab[bw + i - j, j], of the
    matrix whose row i adds vals[i] into the columns cols[i] where keep
    is set, in C order (the order scipy's sparse assembly summed them)."""
    rows, keep = np.indices(cols.shape)[0], np.broadcast_to(keep, cols.shape)
    ab = np.zeros((2 * bw + 1, len(cols)))
    np.add.at(ab, (bw + rows[keep] - cols[keep], cols[keep]), vals[keep])
    return ab


def _dst1_matrix(m):
    """Orthonormal, symmetric DST-I matrix of size m. The phase j*k is
    reduced mod 2(m+1) first, so sin sees arguments in [0, 2 pi)."""
    k = np.arange(1, m + 1)
    phase = np.outer(k, k) % (2 * (m + 1))
    return np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * phase / (m + 1))


def initial_field(cfg: SolverConfig, n_unknowns: int) -> np.ndarray:
    """Zero data plus optional seeded uniform noise."""
    u = np.zeros(n_unknowns)
    if cfg.noise_amplitude > 0.0:
        from numpy.random import default_rng
        rng = default_rng(cfg.seed)
        u += cfg.noise_amplitude * rng.uniform(-1.0, 1.0, size=n_unknowns)
    return u


def run_stepper(cfg: SolverConfig, adapter, rs: ReactionSolution, u: np.ndarray,
                axes=None):
    """March the split scheme until threshold/t_end/stall.

    adapter applies the Crank-Nicolson step of the linear operator (None:
    reaction only). axes holds one coordinate array per field axis; with
    it, the peaks of every sampled step (each snapshot_stride-th, and each
    snapshot time) are linked into tracks, and snapshot fields take its
    shape. Returns a dict with the raw run record; solve_problem turns it
    into a BlowupReport."""
    t = 0.0
    dt = cfg.dt_init
    sup = float(u.max()) if len(u) else 0.0
    steps = 0
    snapshots = []
    snap_q = sorted(set(cfg.snapshot_times))
    stride = cfg.snapshot_stride
    shape = u.shape if axes is None else tuple(len(a) for a in axes)
    tracks = None if axes is None else PeakTracks(axes)
    sup_hist = [(0.0, sup)]
    dt_hist = []
    stop = None
    u_prev, t_prev, sup_prev = u.copy(), 0.0, sup
    check_super = cfg.check_supersolution and cfg.order == 2
    t_table_end = rs.T0 * (1.0 - TABLE_DELTA)
    # the supersolution is the reaction flow from max(u(0), 0), which
    # sits t0 along the flow from zero
    t0 = rs.invert(sup) if check_super and sup > 0.0 else 0.0

    while True:
        if cfg.t_end is not None and t >= cfg.t_end - 1e-15:
            stop = "t-end"
            break
        if steps >= cfg.max_steps:
            stop = "no-blowup-detected"
            break
        # exact hits for snapshot times and t_end
        target = None
        if snap_q:
            target = snap_q[0]
        if cfg.t_end is not None and (target is None or cfg.t_end < target):
            target = cfg.t_end
        exact_hit = target is not None and t + dt >= target - 1e-15
        if exact_hit:
            dtb = target - t
        else:
            dtb = adapter.quantize(dt) if adapter is not None else dt
        if dtb <= 0.0 or t + dtb == t:
            stop = "dt-underflow"
            break
        u_prev, t_prev, sup_prev = u, t, sup
        u1 = rs.flow(u, 0.5 * dtb)
        if adapter is not None and np.isfinite(u1).all():
            u2 = adapter.apply(dtb, u1)
        else:
            u2 = u1
        # the flow keeps non-finite entries non-finite, so one scan of its
        # output also catches a failed linear step
        u3 = rs.flow(u2, 0.5 * dtb)
        t = t + dtb
        steps += 1
        if not np.isfinite(u3).all():
            sup = np.inf
            u = u3
            stop = "reaction-singularity"
            break
        u = u3
        new_sup = float(u.max())
        growth = (new_sup - sup) / max(sup, 0.05)
        sup = new_sup
        if check_super and t + t0 < t_table_end:
            bound = rs.state(t + t0)
            if sup > bound * (1.0 + 1e-9) + 1e-12:
                raise ConvergenceError(
                    f"supersolution bound violated: sup={sup!r} > "
                    f"u0({t + t0!r})={bound!r}")
        sup_hist.append((t, sup))
        dt_hist.append(dtb)
        if exact_hit and snap_q and abs(target - snap_q[0]) < 1e-14:
            snap = Snapshot(t=snap_q.pop(0), field=u.reshape(shape).copy(), sup=sup)
            snapshots.append(snap)
            if tracks is not None:
                tracks.add(snap.t, snap.field)
        elif tracks is not None and stride and steps % stride == 0:
            tracks.add(t, u.reshape(shape))
        if sup >= cfg.threshold:
            stop = "threshold"
            break
        if growth > 0:
            # proportional control toward the growth target, safety factor 0.9
            dt = dtb * min(2.0, max(0.4, 0.9 * cfg.growth_target / growth))
        else:
            dt = dtb * 2.0
        dt = min(dt, cfg.dt_max)

    if stop == "reaction-singularity":
        # singular inside the last step: the pre-step state carries the tail
        T_est = t_prev + rs.tail_time(sup_prev)
        u_final, sup_final = u_prev, sup_prev
    elif stop in ("threshold", "dt-underflow"):
        T_est = t + rs.tail_time(sup)
        u_final, sup_final = u, sup
    else:
        T_est = np.nan
        u_final, sup_final = u, sup
    detected = stop in ("threshold", "reaction-singularity")
    if stop == "dt-underflow":
        # representable time exhausted: past the point of no return iff the
        # remaining reaction tail is negligible
        detected = rs.tail_time(sup_final) <= 1e-6 * max(1.0, t)
    return dict(T_eps=float(T_est), t_stop=t, sup_stop=sup_final,
                stop_reason=stop, u=u_final, steps=steps, snapshots=snapshots,
                peak_trajectory=[] if tracks is None else tracks.main(),
                sup_history=sup_hist, dt_history=dt_hist,
                blowup_detected=detected)


def solve_problem(cfg: SolverConfig, adapter, axes) -> BlowupReport:
    """Integrate a built problem to blow-up (or t_end) and report it.

    adapter is the Crank-Nicolson step of the assembled operator; axes holds
    one coordinate array per field axis, and the unknowns are the field
    flattened in C order over them."""
    shape = tuple(len(a) for a in axes)
    if cfg.eps == 0:
        adapter = None
    rs = ReactionSolution(cfg.nonlinearity)
    run = run_stepper(cfg, adapter, rs, initial_field(cfg, int(np.prod(shape))), axes)
    u = run["u"].reshape(shape)
    sing = extract_singularities(u, axes)
    diag = dict(steps=run["steps"], sup_history=run["sup_history"],
                dt_history=run["dt_history"],
                factorizations=getattr(adapter, "factorizations", 0),
                solves=getattr(adapter, "solves", 0),
                cg_iterations=getattr(adapter, "cg_iterations", 0))
    return BlowupReport(T_eps=run["T_eps"], t_stop=run["t_stop"],
                        sup_stop=run["sup_stop"], stop_reason=run["stop_reason"],
                        singularities=sing, final_field=u, grid=tuple(axes),
                        peak_trajectory=run["peak_trajectory"],
                        snapshots=run["snapshots"],
                        diagnostics=diag, blowup_detected=run["blowup_detected"])


# -- singularity extraction -----------------------------------------------------

# grid cells within which extracted maxima merge into the larger one
SEPARATION = 4


def extract_singularities(field: np.ndarray, coords, threshold_fraction=0.5):
    """Strict local maxima above a fraction of the sup, merged by closeness.

    coords is a tuple or list of one 1D coordinate array per field axis.
    Maxima closer than SEPARATION grid cells keep only the larger.
    Locations are refined per axis by the vertex of the parabola through
    the three neighboring nodes (valid on non-uniform grids too)."""
    field = np.asarray(field)
    vmax = float(np.max(field))
    mask = _strict_local_maxima(field) & (field >= threshold_fraction * vmax)
    idxs = np.argwhere(mask)
    if len(idxs) == 0:
        return []
    vals = field[tuple(idxs.T)]
    order = np.argsort(-vals)
    idxs, vals = idxs[order], vals[order]
    # greedy suppression, largest first: the first live candidate is kept
    # and kills the live ones closer than SEPARATION; on integer offsets
    # |ij - other| < SEPARATION is exactly |ij - other|^2 < SEPARATION^2
    live = np.ones(len(idxs), dtype=bool)
    kept = []
    for k in range(len(idxs)):
        if live[k]:
            kept.append(k)
            live &= ((idxs - idxs[k]) ** 2).sum(axis=1) >= SEPARATION ** 2
    ij, vals = idxs[kept], vals[kept]
    locs = np.empty(ij.shape)
    for ax, x in enumerate(coords):
        i = ij[:, ax]
        inner = (0 < i) & (i < len(x) - 1)
        locs[:, ax] = x[i]
        rows = ij[inner].T.copy()
        x3, f3 = [], []
        for d in (-1, 0, 1):
            rows[ax] = i[inner] + d
            x3.append(x[rows[ax]])
            f3.append(field[tuple(rows)])
        locs[inner, ax] = _parabola_vertices(x3, f3)
    out = [(tuple(loc), val) for loc, val in zip(locs.tolist(), vals.tolist())]
    out.sort(key=lambda p: p[0])
    return out


def _strict_local_maxima(field):
    """Mask of the nodes greater than each of their 3^d - 1 neighbours,
    with nodes outside the grid counting as -inf. Comparisons are exact,
    so this is the mask that a maximum filter over the neighbours gives."""
    pad = np.pad(field, 1, constant_values=-np.inf)
    mask = np.ones(field.shape, dtype=bool)
    centre = (1,) * field.ndim
    for off in np.ndindex(*(3,) * field.ndim):
        if off != centre:
            mask &= field > pad[tuple(slice(o, o + n) for o, n in zip(off, field.shape))]
    return mask


def _parabola_vertices(x3, f3):
    """Vertex abscissae of the parabolas through three points each (x3,
    f3: three arrays of shape (n,), the left, middle and right nodes); the
    middle node where a parabola is flat. Every vertex takes the operations of a scalar evaluation in the
    same order, so it equals that evaluation bit for bit."""
    x0, x1, x2 = x3
    f0, f1, f2 = f3
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    with np.errstate(all="ignore"):
        a = (x2 * (f1 - f0) + x1 * (f0 - f2) + x0 * (f2 - f1)) / denom
        b = (x2 * x2 * (f0 - f1) + x1 * x1 * (f2 - f0) + x0 * x0 * (f1 - f2)) / denom
        xv = np.clip(-b / (2.0 * a), np.minimum(x0, x2), np.maximum(x0, x2))
    return np.where((denom == 0.0) | (a == 0.0), x1, xv)


class PeakTracks:
    """Refined peak locations (maxima above 0.6 of the field's sup) of
    fields sampled in time order, linked into tracks as they come.

    tracks is a list of dict(times=[...], points=[...]). Linking is
    nearest-association within a quarter of the largest grid extent;
    unmatched peaks start new tracks. Peaks take tracks greedily in their
    sorted order, each the nearest track not yet taken in this field,
    from one peak-to-track distance matrix per field."""

    def __init__(self, coords):
        self.coords = coords
        self.tracks = []
        self.max_jump = 0.25 * max(float(c[-1] - c[0]) for c in coords)
        self.last = np.empty((0, len(coords)))     # last point of every track

    def add(self, t, field):
        peaks = extract_singularities(field, self.coords, threshold_fraction=0.6)
        locs = np.array([loc for loc, _ in peaks]).reshape(-1, len(self.coords))
        # summed axis by axis, left to right like a row sum, bit for bit
        dist = np.sqrt(sum((x[:, None] - y) ** 2 for x, y in zip(locs.T, self.last.T)))
        # tracks started in this field are not in `last` yet, so, as taken
        # tracks, they take no other peak of the same field
        born = []
        for (loc, _), d in zip(peaks, dist):
            best = int(d.argmin()) if len(d) else -1
            if best >= 0 and d[best] < self.max_jump:
                self.tracks[best]["times"].append(t)
                self.tracks[best]["points"].append(loc)
                self.last[best] = loc
                dist[:, best] = np.inf
            else:
                self.tracks.append(dict(times=[t], points=[loc]))
                born.append(loc)
        if born:
            self.last = np.vstack([self.last, born])

    def main(self):
        """[(t, coords tuple)] of the longest track, the first of equals."""
        main = max(self.tracks, key=lambda tr: len(tr["times"]),
                   default=dict(times=[], points=[]))
        return list(zip(main["times"], main["points"]))


def track_peaks(snapshots, coords):
    """The PeakTracks tracks of the snapshots' fields, linked in order."""
    tracks = PeakTracks(coords)
    for snap in snapshots:
        tracks.add(snap.t, snap.field)
    return tracks.tracks
