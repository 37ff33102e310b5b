import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.ndimage import maximum_filter

from blowuplab.reaction import Nonlinearity, ReactionSolution
from blowuplab.solvers import (BUILDERS, SolverConfig, extract_singularities,
                               solve, solve_problem, track_peaks)
from blowuplab.solvers.common import (BandedCN, ConjugateGradientCN,
                                     FastDiagCN, FastDiagCubeCN, FastDiagRectCN,
                                     THETA, Snapshot, SparseLUCN,
                                     _strict_local_maxima, initial_field,
                                     run_stepper)
from blowuplab.solvers.cube3d import build_cube, cube_operator
from blowuplab.solvers.one_dim import (fourth_derivative_clamped,
                                       second_derivative_dirichlet, strip_grid)
from blowuplab.solvers.radial import (radial_biharmonic, radial_grid,
                                      radial_laplacian_dirichlet)
from blowuplab.solvers.rect2d import rect_operator
from oracles import (RebuiltBandedCN, band_to_dense, box_operator,
                     scalar_extract_singularities,
                     scalar_fourth_derivative_clamped, scalar_radial_biharmonic,
                     scalar_radial_laplacian_dirichlet,
                     scalar_second_derivative_dirichlet, scalar_track_peaks)

EXP = Nonlinearity.exponential()
POW2 = Nonlinearity.power(2)


# -- singularity extraction -----------------------------------------------------

def test_extract_single_peak():
    x = np.linspace(-1, 1, 201)
    u = np.exp(-((x - 0.2) / 0.1) ** 2)
    out = extract_singularities(u, (x,))
    assert len(out) == 1
    assert out[0][0][0] == pytest.approx(0.2, abs=1e-3)


def test_extract_symmetric_double_peak():
    x = np.linspace(-1, 1, 401)
    u = np.exp(-((x - 0.5) / 0.08) ** 2) + np.exp(-((x + 0.5) / 0.08) ** 2)
    out = extract_singularities(u, (x,))
    assert len(out) == 2
    assert out[0][0][0] == pytest.approx(-0.5, abs=1e-3)
    assert out[1][0][0] == pytest.approx(0.5, abs=1e-3)


def test_extract_square_fourfold_matches_brute_force():
    x = np.linspace(-1, 1, 151)
    X, Y = np.meshgrid(x, x, indexing="ij")
    u = np.zeros_like(X)
    for sx in (-1, 1):
        for sy in (-1, 1):
            u += np.exp(-(((X - 0.4 * sx) ** 2 + (Y - 0.4 * sy) ** 2) / 0.02))
    out = extract_singularities(u, (x, x))
    assert len(out) == 4
    # brute-force oracle: strict local maxima above half max
    brute = []
    for i in range(1, len(x) - 1):
        for j in range(1, len(x) - 1):
            nb = u[i - 1:i + 2, j - 1:j + 2].copy()
            c = nb[1, 1]
            nb[1, 1] = -np.inf
            if c > nb.max() and c >= 0.5 * u.max():
                brute.append((x[i], x[j]))
    assert len(brute) == 4
    got = sorted((round(c[0], 2), round(c[1], 2)) for c, _ in out)
    assert got == sorted((round(a, 2), round(b, 2)) for a, b in brute)


@settings(max_examples=200, deadline=None)
@given(arrays(float, array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=7),
              elements=st.sampled_from([0.0, 1.0, 2.0, 2.5, -1.0, np.inf])))
def test_strict_local_maxima_matches_maximum_filter(field):
    # few distinct values: plateaus and ties between neighbours are common
    footprint = np.ones((3,) * field.ndim, dtype=bool)
    footprint[(1,) * field.ndim] = False
    neigh_max = maximum_filter(field, footprint=footprint, mode="constant",
                               cval=-np.inf)
    assert np.array_equal(_strict_local_maxima(field), field > neigh_max)



@pytest.mark.parametrize("geometry", ["strip", "rect", "cube"])
def test_extract_equals_scalar_on_recorded_snapshots(geometry):
    """The vectorised extraction against the scalar oracle, with ==, on
    every snapshot of a noisy run: early snapshots keep many peaks."""
    cfg = dict(strip=dict(nx=401, eps=0.1, threshold=1e3),
               rect=dict(nx=41, ny=21, half_width_y=0.5, eps=0.1, threshold=10.0),
               cube=dict(nx=13, eps=0.25, threshold=5.0, nonlinearity=POW2))[geometry]
    rep = solve(SolverConfig(**dict(dict(order=4, nonlinearity=EXP, geometry=geometry,
                                         noise_amplitude=1e-3, seed=3,
                                         snapshot_stride=3), **cfg)))
    fields = [s.field for s in rep.snapshots] + [rep.final_field]
    assert len(fields) > 5
    peaks = 0
    for f in fields:
        for frac in (0.5, 0.6):
            got = extract_singularities(f, rep.grid, threshold_fraction=frac)
            assert got == scalar_extract_singularities(f, rep.grid, threshold_fraction=frac)
            peaks = max(peaks, len(got))
    assert peaks > 1


@settings(max_examples=200, deadline=None)
@given(arrays(float, array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9),
              elements=st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, -1.0])),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.5, 0.9]))
def test_extract_equals_scalar_with_ties_and_plateaus(field, seed, frac):
    # few distinct values: plateaus, tied peaks and flat parabolas are
    # common; the grids are non-uniform
    rng = np.random.default_rng(seed)
    coords = [np.cumsum(rng.uniform(0.1, 1.0, n)) for n in field.shape]
    got = extract_singularities(field, coords, frac)
    assert got == scalar_extract_singularities(field, coords, frac)


def test_extract_threshold_and_separation():
    x = np.linspace(-1, 1, 201)
    u = np.exp(-((x - 0.3) / 0.05) ** 2) + 0.3 * np.exp(-((x + 0.3) / 0.05) ** 2)
    assert len(extract_singularities(u, (x,), threshold_fraction=0.5)) == 1
    assert len(extract_singularities(u, (x,), threshold_fraction=0.2)) == 2
    # peaks three cells apart merge under SEPARATION = 4
    v = np.zeros_like(x)
    v[100] = 1.0
    v[103] = 0.9
    assert len(extract_singularities(v, (x,))) == 1


def test_track_peaks_moving_gaussian():
    x = np.linspace(-1, 1, 401)

    class Snap:
        def __init__(self, t, f):
            self.t, self.field, self.sup = t, f, f.max()

    snaps = [Snap(t, np.exp(-((x - (0.8 - 0.5 * t)) / 0.07) ** 2))
             for t in np.linspace(0, 1, 11)]
    tracks = track_peaks(snaps, (x,))
    assert len(tracks) == 1
    pos = np.array([p[0] for p in tracks[0]["points"]])
    assert len(pos) == 11
    assert np.allclose(pos, 0.8 - 0.5 * np.linspace(0, 1, 11), atol=1e-3)


@pytest.mark.parametrize("kw", [
    dict(order=4, nonlinearity=EXP, eps=0.1, geometry="strip", nx=401, grading=2.0),
    dict(order=4, nonlinearity=POW2, eps=0.05, geometry="rect", nx=41, ny=31,
         half_width_y=0.5)], ids=["strip", "rect"])
def test_track_peaks_matches_scalar_loop(kw):
    """On recorded snapshots with many peaks, tracks born and tracks
    competing for peaks, the distance-matrix linking equals the loop."""
    rep = solve(SolverConfig(threshold=10.0, snapshot_stride=5, **kw))
    tracks = track_peaks(rep.snapshots, rep.grid)
    assert len(tracks) > 10 and max(len(tr["times"]) for tr in tracks) > 50
    assert tracks == scalar_track_peaks(rep.snapshots, rep.grid)


@pytest.mark.parametrize("shape", [(300,), (30, 20), (12, 10, 9)])
def test_track_peaks_matches_scalar_loop_on_noise(shape):
    """Noise fields: many peaks per snapshot that jump, compete for the
    same tracks and start new ones, in one to three dimensions."""
    rng = np.random.default_rng(len(shape))
    coords = tuple(np.sort(rng.uniform(-1.0, 1.0, n)) for n in shape)
    snaps = [Snapshot(t=0.1 * k, field=rng.random(shape), sup=1.0) for k in range(12)]
    tracks = track_peaks(snaps, coords)
    assert len(tracks) > 12 and max(len(tr["times"]) for tr in tracks) > 6
    assert tracks == scalar_track_peaks(snaps, coords)


# -- operator construction -------------------------------------------------------

def test_strip_grid_symmetric_and_graded():
    x = strip_grid(2001, grading=2.0)
    assert np.array_equal(x, -x[::-1])
    h_edge = x[1] - x[0]
    h_mid = x[1001] - x[1000]
    assert h_edge < 0.2 * h_mid
    assert x[0] == -1.0 and x[-1] == 1.0


@pytest.mark.parametrize("grading", [0.0, 2.0])
@pytest.mark.parametrize("order", [2, 4])
def test_strip_operator_persymmetric(order, grading):
    """The strip operator commutes with the reflection x -> -x: J B J = B
    with J the exchange matrix. Mirrored stencils agree to rounding, and
    build_strip makes the stepped operator persymmetric exactly."""
    x = strip_grid(301, grading)
    raw = (fourth_derivative_clamped if order == 4 else second_derivative_dirichlet)(x)
    raw = band_to_dense(raw)
    assert np.abs(raw - raw[::-1, ::-1]).max() <= 1e-14 * np.abs(raw).max()
    cfg = SolverConfig(order=order, nonlinearity=EXP, eps=0.1, geometry="strip",
                       nx=301, grading=grading)
    B = band_to_dense(BUILDERS["strip"](cfg)[0].ab)
    assert np.array_equal(B, B[::-1, ::-1])


def test_d4_clamped_solution_convergence():
    # B u = 24 has the clamped solution u = (1 - x^2)^2; the reflection
    # ghost has an O(h^3) defect at one row per wall, absorbed by the
    # discrete Green function into >= 2nd-order solution convergence
    from scipy.linalg import solve_banded
    errs = []
    for n in (201, 401):
        x = strip_grid(n, grading=0.0)
        u = solve_banded((2, 2), fourth_derivative_clamped(x), np.full(n - 2, 24.0))
        errs.append(np.max(np.abs(u - (1 - x[1:-1] ** 2) ** 2)))
    assert errs[1] <= errs[0] / 3.5
    assert errs[1] <= 6e-5


def test_d2_dirichlet_exact_for_quadratic():
    x = strip_grid(301, grading=1.2)
    B = band_to_dense(second_derivative_dirichlet(x))
    u = 1 - x[1:-1] ** 2
    assert np.max(np.abs(B @ u + 2.0)) <= 1e-8


def _assert_same_operator(ab, B):
    """The band ab and the sparse B entry for entry, with nothing stored
    outside the matrix: the triplets summed the same way."""
    assert ab.shape[1] == B.shape[0] and np.count_nonzero(ab) == B.nnz
    assert np.array_equal(band_to_dense(ab), B.toarray())


@pytest.mark.parametrize("nr", [4, 5, 7, 100, 1000])
def test_radial_operators_match_scalar_references(nr):
    _assert_same_operator(radial_biharmonic(nr), scalar_radial_biharmonic(nr))
    _assert_same_operator(radial_laplacian_dirichlet(nr),
                          scalar_radial_laplacian_dirichlet(nr))


@pytest.mark.parametrize("grading", [0.0, 1.2])
@pytest.mark.parametrize("n", [5, 7, 301])
def test_d2_dirichlet_matches_scalar_reference(n, grading):
    x = strip_grid(n, grading)
    _assert_same_operator(second_derivative_dirichlet(x),
                          scalar_second_derivative_dirichlet(x))


@pytest.mark.parametrize("grading", [0.0, 1.2])
@pytest.mark.parametrize("n", [5, 7, 301])
def test_d4_clamped_matches_scalar_reference(n, grading):
    x = strip_grid(n, grading)
    _assert_same_operator(fourth_derivative_clamped(x),
                          scalar_fourth_derivative_clamped(x))


def test_radial_biharmonic_manufactured():
    # u = (1 - r^2)^2: clamped at r=1, even at 0, Delta^2 u = 64
    nr = 500
    r = radial_grid(nr)
    B = band_to_dense(radial_biharmonic(nr))
    res = B @ (1 - r ** 2) ** 2 - 64.0
    # interior rows are exact (quartic); the wall closure is cubic-exact
    # so the last two rows carry an O(1) defect on an O(h) region
    assert np.max(np.abs(res[:nr - 2])) <= 1e-2
    assert np.max(np.abs(res[nr - 2:])) <= 20.0


def test_radial_biharmonic_cubic_wall_exactness():
    import sympy as sym
    nr = 400
    r = radial_grid(nr)
    B = band_to_dense(radial_biharmonic(nr))
    rr = sym.symbols("r", positive=True)
    expr = (1 - rr) ** 2 * (0.7 - 0.3 * rr)
    L = (sym.diff(expr, rr, 4) + 2 / rr * sym.diff(expr, rr, 3)
         - sym.diff(expr, rr, 2) / rr ** 2 + sym.diff(expr, rr) / rr ** 3)
    u = np.array([float(expr.subs(rr, ri)) for ri in r])
    want = np.array([float(L.subs(rr, ri)) for ri in r])
    res = np.abs(B @ u - want)
    assert np.max(res[nr - 3:]) <= 1e-7  # wall rows exact for cubics


# -- stepper invariants -----------------------------------------------------------

def test_reaction_limit_zero_eps():
    cfg = SolverConfig(order=4, nonlinearity=EXP, eps=0.0, geometry="strip",
                       nx=101, threshold=50.0, snapshot_times=(0.3, 0.7))
    rep = solve(cfg)
    rs = ReactionSolution(EXP)
    for snap in rep.snapshots:
        assert np.max(np.abs(snap.field - rs.state(snap.t))) <= 1e-6


def test_supersolution_bound_with_noisy_initial_data():
    # the bound starts from the flow of max u(0): noise must not trip it
    cfg = SolverConfig(order=2, nonlinearity=POW2, eps=0.1, geometry="strip",
                       nx=201, noise_amplitude=1e-4)
    rep = solve(cfg)
    unchecked = solve(dataclasses.replace(cfg, check_supersolution=False))
    assert rep.stop_reason == "threshold"
    assert np.array_equal(rep.final_field, unchecked.final_field)
    assert rep.T_eps == unchecked.T_eps
    assert rep.diagnostics == unchecked.diagnostics


def test_supersolution_bound_second_order():
    cfg = SolverConfig(order=2, nonlinearity=POW2, eps=0.1, geometry="strip",
                       nx=801, grading=2.0, threshold=50.0, snapshot_stride=40)
    rep = solve(cfg)  # the in-loop assertion would raise on violation
    rs = ReactionSolution(POW2)
    for snap in rep.snapshots:
        if snap.t < rs.T0 * 0.999:
            assert snap.sup <= rs.state(snap.t) * (1 + 1e-9) + 1e-12


def test_blowup_time_ordering_second_order():
    cfg = SolverConfig(order=2, nonlinearity=POW2, eps=0.1, geometry="strip",
                       nx=801, grading=2.0, threshold=100.0)
    rep = solve(cfg)
    assert rep.blowup_detected
    assert rep.T_eps >= 1.0 - 1e-3
    assert rep.multiplicity == 1
    assert abs(rep.singularities[0][0][0]) <= 1e-3


def test_fourth_order_exhibits_early_blowup():
    cfg = SolverConfig(order=4, nonlinearity=EXP, eps=0.1, geometry="strip",
                       nx=1001, grading=2.0, threshold=100.0)
    rep = solve(cfg)
    assert rep.T_eps < 1.0


def test_grid_convergence_T_eps():
    reps = []
    for nx in (1001, 2001):
        cfg = SolverConfig(order=4, nonlinearity=EXP, eps=0.1, geometry="strip",
                           nx=nx, grading=2.0, threshold=1e3)
        reps.append(solve(cfg))
    T1, T2 = reps[0].T_eps, reps[1].T_eps
    assert abs(T2 - T1) / T2 <= 0.005


def test_per_step_symmetry_injection():
    # a symmetric state stays symmetric to 1e-10 of its scale through one
    # full split step (reaction, Crank-Nicolson solve, reaction)
    x = strip_grid(801, grading=2.0)
    ab = fourth_derivative_clamped(x) * 0.1 ** 4
    ab = 0.5 * (ab + ab[::-1, ::-1])
    adapter = BandedCN(ab, symmetrize=True)
    rs = ReactionSolution(EXP)
    xi = x[1:-1]
    u = 0.5 * np.exp(-4 * xi ** 2)
    u = 0.5 * (u + u[::-1])
    dt = 1e-3
    u1 = rs.flow(u, dt / 2)
    u2 = adapter.apply(dt, u1)
    u3 = rs.flow(u2, dt / 2)
    assert np.max(np.abs(u3 - u3[::-1])) <= 1e-10 * np.max(np.abs(u3))


class _PoisonedStep:
    """The identity linear step, except that step number `at` returns
    `value` at one node."""

    def __init__(self, at, value):
        self.at, self.value, self.solves = at, value, 0

    def quantize(self, dt):
        return dt

    def apply(self, dt, u):
        self.solves += 1
        out = u.copy()
        if self.solves == self.at:
            out[len(out) // 2] = self.value
        return out


@pytest.mark.parametrize("value", [np.nan, -np.inf], ids=["nan", "-inf"])
@pytest.mark.parametrize("nl", [EXP, POW2, Nonlinearity.custom(lambda u: (1.0 + u) ** 2,
                                                                "sq2")],
                         ids=["exp", "pow2", "tabulated"])
def test_non_finite_linear_step_stops_the_run(nl, value):
    """A linear step that returns NaN or -inf stops the run with
    reaction-singularity and the tail estimate of the state before it."""
    cfg = SolverConfig(order=2, nonlinearity=nl, eps=0.1, nx=41,
                       noise_amplitude=1e-3, seed=2)
    rs = ReactionSolution(nl)
    u0 = np.abs(initial_field(cfg, cfg.nx - 2))
    before = run_stepper(dataclasses.replace(cfg, max_steps=29), _PoisonedStep(0, value),
                         rs, u0)
    run = run_stepper(cfg, _PoisonedStep(30, value), rs, u0)
    assert run["stop_reason"] == "reaction-singularity" and run["steps"] == 30
    assert run["T_eps"] == before["t_stop"] + rs.tail_time(before["sup_stop"])
    assert np.array_equal(run["u"], before["u"])


def test_snapshot_symmetry_accumulated():
    cfg = SolverConfig(order=4, nonlinearity=EXP, eps=1 / 7, geometry="strip",
                       nx=1201, grading=2.0, threshold=10.0, snapshot_stride=50)
    rep = solve(cfg)
    for snap in rep.snapshots:
        scale = max(np.max(np.abs(snap.field)), 1e-300)
        assert np.max(np.abs(snap.field - snap.field[::-1])) <= 1e-6 * scale
    assert rep.multiplicity == 2
    xs = sorted(s[0][0] for s in rep.singularities)
    assert xs[0] == pytest.approx(-xs[1], abs=1e-9)


def test_peak_trajectory_moves_inward(profile4):
    rs = ReactionSolution(EXP)
    cfg = SolverConfig(order=4, nonlinearity=EXP, eps=0.1, geometry="strip",
                       nx=1201, grading=2.0, threshold=1e3,
                       snapshot_times=tuple(np.linspace(0.05, 0.85, 9)))
    rep = solve(cfg)
    ts = np.array([t for t, _ in rep.peak_trajectory])
    xs = np.abs([loc[0] for _, loc in rep.peak_trajectory])
    assert len(ts) >= 8
    assert np.all(np.diff(xs) < 0)  # monotone inward from near the wall
    # early trajectory tracks 1 - eta0*phi; later the layer prediction
    # overestimates the inward speed
    pred = 1.0 - profile4.eta0 * np.array([rs.gauge(t, 0.1, 4) for t in ts])
    early = ts <= 0.2
    assert np.max(np.abs(xs[early] - pred[early])) <= 0.01
    assert xs[-1] > pred[-1]


def test_peak_at_origin_second_order():
    # the interior plateau is flat to the last bit, so the verifiable
    # statement is that the origin attains the maximum at every snapshot
    cfg = SolverConfig(order=2, nonlinearity=POW2, eps=0.1, geometry="strip",
                       nx=801, grading=2.0, threshold=50.0,
                       snapshot_times=tuple(np.linspace(0.2, 0.9, 5)))
    rep = solve(cfg)
    x = rep.grid[0]
    mid = np.argmin(np.abs(x))
    assert x[mid] == 0.0
    for snap in rep.snapshots:
        assert snap.field.max() - snap.field[mid] <= 1e-13 * snap.field.max()


def test_no_blowup_detected_within_budget():
    cfg = SolverConfig(order=4, nonlinearity=EXP, eps=5.0, geometry="strip",
                       nx=101, threshold=1e3, max_steps=1500)
    rep = solve(cfg)
    assert not rep.blowup_detected
    assert rep.stop_reason == "no-blowup-detected"
    assert np.isnan(rep.T_eps)


def test_t_end_stop():
    cfg = SolverConfig(order=2, nonlinearity=POW2, eps=0.1, geometry="strip",
                       nx=401, grading=2.0, t_end=0.25, threshold=1e3,
                       snapshot_times=(0.25,))
    rep = solve(cfg)
    assert rep.stop_reason == "t-end"
    assert rep.t_stop == pytest.approx(0.25, abs=1e-12)
    assert rep.snapshots[0].t == 0.25


def test_noise_seed_determinism():
    cfg = SolverConfig(order=4, nonlinearity=EXP, eps=0.2, geometry="strip",
                       nx=301, threshold=5.0, noise_amplitude=1e-3, seed=9)
    a = solve(cfg)
    b = solve(cfg)
    assert np.array_equal(a.final_field, b.final_field)
    assert a.T_eps == b.T_eps
    c = solve(dataclasses.replace(cfg, seed=10))
    assert not np.array_equal(a.final_field, c.final_field)


# -- geometry dispatch ------------------------------------------------------------

def test_solver_dispatch():
    cfg = SolverConfig(order=4, nonlinearity=EXP, eps=0.2, geometry="strip",
                       nx=301, threshold=5.0)
    rep = solve(cfg)
    assert rep.blowup_detected
    with pytest.raises(ValueError):
        solve(dataclasses.replace(cfg, geometry="torus"))


def test_radial_disc_large_eps_origin():
    cfg = SolverConfig(order=4, nonlinearity=POW2, eps=0.35,
                       geometry="radial-disc", nx=400, threshold=1e3)
    rep = solve(cfg)
    assert rep.blowup_detected
    assert rep.ring_radius == 0.0
    assert rep.multiplicity == 1


def test_radial_disc_ring():
    cfg = SolverConfig(order=4, nonlinearity=POW2, eps=0.1,
                       geometry="radial-disc", nx=500, threshold=100.0)
    rep = solve(cfg)
    assert 0.3 <= rep.ring_radius <= 0.8
    assert rep.T_eps == pytest.approx(0.9817, abs=0.002)  # independently
    # cross-checked against an off-the-shelf stiff integrator on the same
    # semidiscrete system


def test_radial_disc_second_order():
    cfg = SolverConfig(order=2, nonlinearity=POW2, eps=0.1,
                       geometry="radial-disc", nx=400, threshold=100.0)
    rep = solve(cfg)
    assert rep.T_eps >= 1.0 - 1e-3
    assert rep.ring_radius == 0.0


def test_rect2d_small_square_multiplicities():
    for eps, want in ((0.1, 4), (0.2, 1)):
        cfg = SolverConfig(order=4, nonlinearity=EXP, eps=eps, geometry="rect",
                           nx=81, ny=81, threshold=10.0)
        rep = solve(cfg)
        assert rep.multiplicity == want, (eps, rep.singularities)
        if want == 4:
            pts = rep.singularity_points()
            assert np.allclose(np.abs(pts[:, 0]), np.abs(pts[:, 1]), atol=0.03)


def test_rect2d_memory_guard():
    with pytest.raises(ValueError, match="max_unknowns"):
        solve(SolverConfig(order=4, nonlinearity=EXP, eps=0.1, geometry="rect",
                           nx=4001, ny=4001, threshold=10.0))


def test_cube3d_smoke():
    cfg = SolverConfig(order=4, nonlinearity=POW2, eps=0.25, geometry="cube",
                       nx=17, threshold=5.0, snapshot_stride=100)
    rep = solve(cfg)
    assert rep.blowup_detected
    assert rep.multiplicity >= 1
    U = rep.final_field
    assert np.max(np.abs(U - U[::-1, :, :])) <= 1e-6 * np.max(np.abs(U))
    assert rep.snapshots
    assert all(s.field.shape == U.shape for s in rep.snapshots)
    assert rep.peak_trajectory


# -- fast diagonalization against the sparse reference paths ----------------------

def _laplacian_squared_plus_ring(shape, spacing):
    """L^2 + R, dense, from 1D 3-point Laplacians: R is 2/h^4 of each axis
    on the nodes next to that axis's walls."""
    eyes = [np.eye(m) for m in shape]
    L = np.zeros((int(np.prod(shape)),) * 2)
    R = np.zeros(L.shape[0])
    for ax, (m, h) in enumerate(zip(shape, spacing)):
        d2 = (np.diag(np.full(m - 1, 1.0), -1) + np.diag(np.full(m, -2.0))
              + np.diag(np.full(m - 1, 1.0), 1)) / h ** 2
        ring = np.zeros(m)
        ring[[0, -1]] = 2.0 / h ** 4
        d2_full, ring_full = np.ones((1, 1)), np.ones(1)
        for k in range(len(shape)):
            d2_full = np.kron(d2_full, d2 if k == ax else eyes[k])
            ring_full = np.kron(ring_full, ring if k == ax else np.ones(shape[k]))
        L += d2_full
        R += ring_full
    return L @ L + np.diag(R)


def test_box_operators_are_laplacian_squared_plus_ring():
    eps4 = 0.1 ** 4
    B = (rect_operator(11, 8, 0.2, 0.1, 4) * eps4).toarray()
    want = eps4 * _laplacian_squared_plus_ring((9, 6), (0.2, 0.1))
    assert np.max(np.abs(B - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(B, B.T)
    C = (cube_operator(8, 2.0 / 7) * eps4).toarray()
    want = eps4 * _laplacian_squared_plus_ring((6, 6, 6), (2.0 / 7,) * 3)
    assert np.max(np.abs(C - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(C, C.T)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("dt", [2.0 ** -20, 2.0 ** -14, 2.0 ** -8])
def test_fast_diag_rect_step_matches_sparse_lu(order, dt):
    nx, ny, hx, hy, eps = 41, 21, 0.05, 0.035, 0.1
    scale = eps ** order
    B = rect_operator(nx, ny, hx, hy, order) * scale
    step = FastDiagRectCN if order == 4 else FastDiagCN
    fast = step((nx - 2, ny - 2), (hx, hy), scale)
    ref = SparseLUCN(B)
    rng = np.random.default_rng(order)
    x = np.linspace(-1, 1, nx - 2)[:, None]
    y = np.linspace(-1, 1, ny - 2)[None, :]
    for u in (np.exp(-4 * (x ** 2 + y ** 2)).ravel(),
              rng.standard_normal(B.shape[0])):
        got, want = fast.apply(dt, u), ref.apply(dt, u)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert fast.factorizations == 1


def test_fast_diag_cube_step_error_within_plain_cg():
    """On every step input of a cube run, against a direct splu solve:
    the preconditioned CG meets the plain CG's residual rule (rtol 1e-11),
    and its worst error over the run is no larger than the plain CG's."""
    from scipy.sparse.linalg import splu
    cfg = SolverConfig(order=4, nonlinearity=POW2, eps=0.25, geometry="cube",
                       nx=11, threshold=5.0)
    recording, axes = build_cube(cfg)
    apply = recording.apply
    steps = []

    def record(dt, u):
        steps.append((dt, u.copy()))
        return apply(dt, u)

    recording.apply = record
    solve_problem(cfg, recording, axes)
    fast, _ = build_cube(cfg)
    B = box_operator(fast)
    ref = ConjugateGradientCN(B)
    lus, worst_fast, worst_cg = {}, 0.0, 0.0
    for dt, u in steps:
        if dt not in lus:
            A = (sp.identity(B.shape[0]) + THETA * dt * B).tocsc()
            lus[dt] = A, splu(A)
        A, lu = lus[dt]
        b = u - (1.0 - THETA) * dt * (B @ u)
        exact = lu.solve(b)
        x = fast.apply(dt, u)
        assert np.linalg.norm(b - A @ x) <= 1e-11 * np.linalg.norm(b)
        scale = np.linalg.norm(exact)
        worst_fast = max(worst_fast, np.linalg.norm(x - exact) / scale)
        worst_cg = max(worst_cg, np.linalg.norm(ref.apply(dt, u) - exact) / scale)
    assert len(steps) > 100
    assert worst_fast <= worst_cg


@pytest.mark.parametrize("geometry,order", [("strip", 2), ("strip", 4),
                                            ("radial-disc", 2), ("radial-disc", 4)])
def test_banded_step_matches_rebuilt_reference(geometry, order):
    """BandedCN against the per-dt sparse rebuild and solve_banded, bit for
    bit, over random dt sequences that repeat and revisit step sizes.
    build_strip persymmetrizes B and sets symmetrize=True, under which
    the reference sums its rows in the unsorted order of the strip's
    former CSR operator; build_disc does neither."""
    cfg = SolverConfig(order=order, nonlinearity=EXP, eps=0.1, geometry=geometry,
                       nx=301, grading=2.0 if geometry == "strip" else 0.0)
    fast, _ = BUILDERS[geometry](cfg)
    assert fast.symmetrize == (geometry == "strip")
    ref = RebuiltBandedCN(fast.ab, THETA, fast.symmetrize)
    rng = np.random.default_rng(order)
    dts = rng.choice(10.0 ** rng.uniform(-7.0, -2.0, 6), size=60)
    u = rng.uniform(0.0, 1.0, fast.n)
    for dt in dts:
        got = fast.apply(dt, u)
        assert np.array_equal(got, ref.apply(dt, u)), dt
        u = got / np.max(np.abs(got))
    assert fast.solves == len(dts)
    assert fast.factorizations == 1 + np.count_nonzero(dts[1:] != dts[:-1])


def _record_cube_steps(cfg):
    """Solve cfg on the cube, recording each step's dt and input u, and the
    start x0^ and P solve g b^ of each step's PCG in the sine basis."""
    fast, axes = build_cube(cfg)
    apply, start = fast.apply, fast._start
    steps, starts = [], []

    def record_apply(dt, u):
        steps.append((dt, u.copy()))
        return apply(dt, u)

    def record_start(g, c, gb):
        x, r = start(g, c, gb)
        starts.append((x.copy(), gb.copy()))
        return x, r

    fast.apply, fast._start = record_apply, record_start
    rep = solve_problem(cfg, fast, axes)
    assert len(starts) == len(steps) == rep.diagnostics["solves"] == rep.diagnostics["steps"]
    return rep, fast, steps, starts


def test_cube_cg_iterations_match_scipy_cg():
    """On the golden cube run, the PCG iteration count in the report equals
    scipy's cg with the same preconditioner, start and stopping rule,
    summed over the recorded steps; the extrapolated starts take fewer
    iterations than starting every step from the P solve M b."""
    from scipy.sparse.linalg import LinearOperator, cg
    cfg = SolverConfig(order=4, nonlinearity=POW2, eps=0.25, geometry="cube",
                       nx=11, threshold=5.0)
    rep, recording, steps, starts = _record_cube_steps(cfg)
    assert rep.diagnostics["cg_iterations"] == recording.cg_iterations > 0
    fast, _ = build_cube(cfg)
    B = box_operator(fast)
    n = B.shape[0]

    def iterations(A1, b, M, x0):
        count = 0

        def callback(xk):
            nonlocal count
            count += 1

        _, info = cg(A1, b, x0=x0, M=M, rtol=fast.RTOL, atol=0.0,
                     maxiter=fast.MAXITER, callback=callback)
        assert info == 0
        return count

    warm = cold = 0
    for (dt, u), (x0, _) in zip(steps, starts):
        g = fast._setup(dt)[0].reshape(fast.shape)
        M = LinearOperator((n, n), dtype=float, matvec=lambda r: fast._transform(
            g * fast._transform(r.reshape(fast.shape))).ravel())
        A1 = sp.identity(n, format="csr") + THETA * dt * B
        b = u - (1.0 - THETA) * dt * (B @ u)
        warm += iterations(A1, b, M, fast._transform(x0.reshape(fast.shape)).ravel())
        cold += iterations(A1, b, M, M @ b)
    assert rep.diagnostics["cg_iterations"] == warm < cold


def test_cube_pcg_starts_from_the_p_solve_on_a_new_setup():
    """The first step of every dt bucket and an exact-hit step (here of a
    snapshot time) start the PCG from g b^ exactly; every later step of a
    bucket starts from an extrapolated correction."""
    cfg = SolverConfig(order=4, nonlinearity=POW2, eps=0.25, geometry="cube",
                       nx=11, threshold=5.0, snapshot_times=(0.123456789,))
    rep, _, steps, starts = _record_cube_steps(cfg)
    assert [s.t for s in rep.snapshots] == [0.123456789]
    dts = [dt for dt, _ in steps]
    exact = [i for i, dt in enumerate(dts) if np.log2(dt) % 1.0 != 0.0]
    assert len(exact) == 1 and 0 < exact[0] < len(dts) - 1
    new_setup = [i == 0 or dts[i] != dts[i - 1] for i in range(len(dts))]
    assert new_setup[exact[0]] and new_setup[exact[0] + 1]
    assert 1 < sum(new_setup) < len(dts) // 2
    for fresh, (x0, gb) in zip(new_setup, starts):
        assert np.array_equal(x0, gb) == fresh


def _dense_ring_hat(fast, U):
    """T(R u) with R u formed at full size: 2/h^4 of each axis times u on
    the nodes next to that axis's walls."""
    RU = np.zeros_like(U)
    for ax, h in enumerate(fast.spacing):
        for wall in (0, -1):
            sl = [slice(None)] * U.ndim
            sl[ax] = wall
            RU[tuple(sl)] += 2.0 / h ** 4 * U[tuple(sl)]
    return fast._transform(RU)


def test_thin_ring_transform_matches_dense():
    rng = np.random.default_rng(5)
    eps4 = 0.1 ** 4
    rect = FastDiagRectCN((21, 12), (0.09, 0.15), eps4)
    cube = FastDiagCubeCN((10,) * 3, (2.0 / 11,) * 3, eps4)
    for fast in (rect, cube):
        for _ in range(3):
            U = rng.standard_normal(fast.shape)
            want = _dense_ring_hat(fast, U)
            got = fast._wall_hat(fast._transform(U))
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("geometry,order", [("rect", 2), ("rect", 4), ("cube", 4)])
def test_box_step_makes_two_transforms(geometry, order):
    """The forward transform of u and the inverse one of the step: the
    wall term, the Woodbury correction and the PCG stay in the sine basis."""
    cfg = SolverConfig(order=order, nonlinearity=POW2, eps=0.1, geometry=geometry,
                       nx=17, ny=11)
    fast, _ = BUILDERS[geometry](cfg)
    transform, calls = fast._transform, []

    def counting(U):
        calls.append(U.shape)
        return transform(U)

    fast._transform = counting
    rng = np.random.default_rng(order)
    for dt in (2.0 ** -12, 2.0 ** -6):
        del calls[:]
        fast.apply(dt, rng.uniform(0.0, 1.0, int(np.prod(fast.shape))))
        assert calls == [fast.shape] * 2
    assert getattr(fast, "cg_iterations", 1) > 0


def _holds_sparse(obj):
    """Whether obj is, or a list, tuple or dict in it holds, a sparse matrix."""
    if sp.issparse(obj):
        return True
    if isinstance(obj, dict):
        obj = list(obj.values())
    return isinstance(obj, (list, tuple)) and any(_holds_sparse(o) for o in obj)


@pytest.mark.parametrize("geometry,order", [("rect", 2), ("rect", 4), ("cube", 4),
                                            ("strip", 2), ("strip", 4),
                                            ("radial-disc", 2), ("radial-disc", 4)])
def test_fast_diag_apply_makes_no_sparse_product(geometry, order):
    """No adapter holds a sparse matrix: the box steps work from the
    grid, the strip and disc steps from the band of their operator."""
    cfg = SolverConfig(order=order, nonlinearity=POW2, eps=0.1, geometry=geometry,
                       nx=17, ny=11)
    fast, axes = BUILDERS[geometry](cfg)
    u = np.random.default_rng(order).uniform(0.0, 1.0, int(np.prod([len(a) for a in axes])))
    for dt in (2.0 ** -12, 2.0 ** -6, 2.0 ** -12):
        fast.apply(dt, u)
    # box setups are cached per dt bucket; a banded step refactors on every new dt
    assert fast.solves == 3 and fast.factorizations == (3 if hasattr(fast, "ab") else 2)
    assert not _holds_sparse(vars(fast))


@pytest.mark.parametrize("nx,ny", [(17, 11), (11, 17), (13, 13)])
def test_rect_buckets_factor_only_the_long_axis_walls(nx, ny):
    """The largest array of every cached dt bucket is the Cholesky factor
    of the Schur complement on the walls of the long axis, 2 min(mx, my)
    square."""
    cfg = SolverConfig(order=4, nonlinearity=POW2, eps=0.1, geometry="rect", nx=nx, ny=ny)
    fast, _ = BUILDERS["rect"](cfg)
    u = np.random.default_rng(0).uniform(0.0, 1.0, int(np.prod(fast.shape)))
    for dt in (2.0 ** -12, 2.0 ** -9, 2.0 ** -6):
        fast.apply(dt, u)
    side = 2 * min(nx - 2, ny - 2)
    assert len(fast.cache) == 3
    for setup in fast.cache.values():
        arrays = [a for a in setup if isinstance(a, np.ndarray)]
        assert max(arrays, key=np.size).shape == (side, side)


@pytest.mark.parametrize("reference,geometry,order", [
    *[(None, g, o) for g in ("strip", "radial-disc", "rect") for o in (2, 4)],
    (None, "cube", 4), (SparseLUCN, "rect", 2), (SparseLUCN, "rect", 4),
    (SparseLUCN, "cube", 4), (ConjugateGradientCN, "rect", 4),
    (ConjugateGradientCN, "cube", 4)])
def test_every_adapter_caches_setups_by_one_contract(reference, geometry, order):
    """Every builder's adapter, and the reference paths on the operator that
    rect_operator or cube_operator assembles: over quantized steps with
    repeats, more than CACHE_SIZE keys and a revisit after an eviction,
    solves counts the steps, factorizations the misses of a first-in
    first-out cache of CACHE_SIZE keys, and every step equals a fresh
    adapter's. No step follows one of the same dt, so the cube's PCG
    starts every step from the P solve, as a fresh adapter's does."""
    cfg = SolverConfig(order=order, nonlinearity=POW2, eps=0.1, geometry=geometry,
                       nx=13, ny=9)

    def fresh():
        fast, _ = BUILDERS[geometry](cfg)
        return fast if reference is None else reference(box_operator(fast))

    adapter, (_, axes) = fresh(), BUILDERS[geometry](cfg)
    rng = np.random.default_rng(order)
    exponents = (12, 10, 12, 9, 14, 8, 11, 13, 7, 12, 10)
    keys, misses = [], 0
    for e in exponents:
        dt = adapter.quantize(1.3 * 2.0 ** -e)
        if dt not in keys:
            misses += 1
            keys = (keys + [dt])[-adapter.CACHE_SIZE:]
        u = rng.uniform(0.0, 1.0, int(np.prod([len(a) for a in axes])))
        assert np.array_equal(adapter.apply(dt, u), fresh().apply(dt, u)), e
    assert len(set(exponents)) > 6
    assert adapter.solves == len(exponents) and adapter.factorizations == misses


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(order=3, nonlinearity=EXP, eps=0.1)
    with pytest.raises(ValueError):
        SolverConfig(order=2, nonlinearity=EXP, eps=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(order=2, nonlinearity=EXP, eps=0.1, threshold=0.5)
    for bad in (dict(eps=np.nan), dict(eps=np.inf), dict(threshold=np.nan),
                dict(threshold=np.inf), dict(growth_target=0.0),
                dict(growth_target=np.nan), dict(max_steps=0), dict(t_end=0.0),
                dict(t_end=np.nan), dict(grading=-1.0), dict(grading=np.nan),
                dict(noise_amplitude=-1e-3), dict(noise_amplitude=np.nan),
                dict(seed=-1)):
        with pytest.raises(ValueError):
            SolverConfig(order=2, nonlinearity=EXP, **{"eps": 0.1, **bad})
    SolverConfig(order=2, nonlinearity=EXP, eps=0.1, seed=0)
    # max_unknowns counts nx - 2 unknowns on the strip and nx on the disc
    for geometry, nx in (("strip", 2_000_002), ("radial-disc", 2_000_000)):
        SolverConfig(order=2, nonlinearity=EXP, eps=0.1, geometry=geometry, nx=nx)
        with pytest.raises(ValueError, match="max_unknowns"):
            SolverConfig(order=2, nonlinearity=EXP, eps=0.1, geometry=geometry, nx=nx + 1)
