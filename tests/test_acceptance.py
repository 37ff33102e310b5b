"""Acceptance suite: every criterion at its stated tolerance, one printed
PASS/FAIL line each (run with -s to see them).

Criteria 3a and 7a check the two halves of the paper's dichotomy, each
against a reference that comes from a closed form or from an oracle in
oracles.py that imports nothing from the package:

* criterion 3a (second order: the interior stays at the uniform reaction
  state): sup u(0.4) for pow:2 on the strip at eps 0.1 is
  u0(0.4) * sup v2 = 0.4 / 0.6 = 2/3 to 1 %. The comparison principle gives
  u <= u0(t), and the wall reaches x = 0 only through
  erfc(1/(2 eps sqrt(0.4))) ~ 5e-29. A BDF method-of-lines run on 801
  uniform nodes gives 0.66666667; it must agree with the solver to 1e-6
  and stay below u0 at every node. 3b is the fourth-order half of the
  pair: 0.74 ~ u0(0.5) v_peak = 0.735 for exp. The reference used to be
  0.446, which this equation cannot reach (gap 0.221); stretching eps to
  0.5, 1 or 2 gives 0.656, 0.473 or 0.153, so a mis-scaled eps does not
  explain it either.
* criterion 7a (fourth order: the overshooting layer peak sets the ring):
  the disc ring at eps 0.1 for pow:2 lies within 0.05 of the peak of the
  planar boundary layer linearised about u0 (u = u0 + f(u0) W), evaluated
  at the measured blow-up time: 0.565 against a computed 0.5617 (a radial
  version of the same linearisation gives 0.562). The formula used to be
  1 - eta0 phi(T_eps) with the gauge phi = eps u0^(1/4) of the f = 1
  similarity solution; u0(T_eps = 0.982) = 55 puts it at -0.020 (gap
  0.58). The ring never froze: it moves inward steadily, 0.823 at
  t = 0.05, 0.669 at t = 0.5 and 0.565 at t = 0.97. The leading-order
  similarity peak 1 - eta0 eps T^(1/4) = 0.628 misses by 0.066, so the
  tolerance still tells the three theories apart.
"""

import os
import time

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from blowuplab.geometry import (RectangleDomain, SmoothPolarDomain,
                                compute_skeleton, potato_domain)
from blowuplab.predictor import predict_second_2d, uniform_1d
from blowuplab.profiles import OMEGA, v2
from blowuplab.reaction import Nonlinearity, ReactionSolution
from blowuplab.solvers import SolverConfig, solve
from oracles import (ETA0_REF, hausdorff, linearised_layer_peak, rectangle_skeleton_points,
                     shooting_profile4, square_skeleton_points,
                     strip_second_order_bdf)

EXP = Nonlinearity.exponential()
POW2 = Nonlinearity.power(2)

ERR_TIMES = tuple(np.geomspace(0.01, 0.2, 8))


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def run_c1():
    t0 = time.perf_counter()
    cfg = SolverConfig(order=4, nonlinearity=EXP, eps=0.1, geometry="strip",
                       nx=2001, grading=2.0, threshold=1e3)
    rep = solve(cfg)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def run_second_order_amplitude():
    cfg = SolverConfig(order=2, nonlinearity=POW2, eps=0.1, geometry="strip",
                       nx=2001, grading=2.0, t_end=0.4, threshold=1e3,
                       snapshot_times=ERR_TIMES + (0.4,))
    return solve(cfg)


@pytest.fixture(scope="module")
def run_fourth_order_amplitude():
    cfg = SolverConfig(order=4, nonlinearity=EXP, eps=0.1, geometry="strip",
                       nx=2001, grading=2.0, t_end=0.5, threshold=1e3,
                       snapshot_times=ERR_TIMES + (0.5,))
    return solve(cfg)


def test_criterion_1_blowup_time(run_c1):
    rep, wall = run_c1
    detail = (f"T_eps = {rep.T_eps:.5f} vs 0.9779 +/- 0.003 "
              f"(runtime {wall:.1f}s < 60s)")
    ok = abs(rep.T_eps - 0.9779) <= 0.003 and wall < 60.0
    report(1, ok, detail)
    assert abs(rep.T_eps - 0.9779) <= 0.003
    assert wall < 60.0


def test_criterion_2_multiplicity_transition():
    t0 = time.perf_counter()
    outcomes = {}
    for eps in (0.2, 1.0 / 7.0):
        cfg = SolverConfig(order=4, nonlinearity=EXP, eps=eps, geometry="strip",
                           nx=2001, grading=2.0, threshold=10.0)
        outcomes[eps] = solve(cfg)
    wall = time.perf_counter() - t0
    one = outcomes[0.2]
    two = outcomes[1.0 / 7.0]
    xs = sorted(s[0][0] for s in two.singularities)
    detail = (f"eps=1/5: {one.multiplicity} point at x={one.singularities[0][0][0]:+.4f}; "
              f"eps=1/7: {two.multiplicity} points at {xs[0]:+.4f}/{xs[1]:+.4f} "
              f"(runtime {wall:.0f}s < 120s)")
    ok = (one.multiplicity == 1 and abs(one.singularities[0][0][0]) < 0.02
          and two.multiplicity == 2 and abs(xs[0] + xs[1]) <= 1e-6
          and wall < 120.0)
    report(2, ok, detail)
    assert one.multiplicity == 1
    assert abs(one.singularities[0][0][0]) < 0.02
    assert two.multiplicity == 2
    assert abs(xs[0] + xs[1]) <= 1e-6
    assert wall < 120.0


def test_criterion_3a_second_order_amplitude(run_second_order_amplitude):
    sup = run_second_order_amplitude.snapshots[-1].sup
    # pow:2: u0(t) = t / (1 - t); v2 rises monotonically to 1, so the
    # amplitude u0(0.4) * sup v2 is u0(0.4) itself
    u0 = 0.4 / (1.0 - 0.4)
    u_bdf = strip_second_order_bdf(2, 0.1, 0.4)
    sup_bdf = float(u_bdf.max())
    # comparison principle, to within 100x the oracle's rtol
    below_u0 = bool(np.all(u_bdf <= u0 * (1.0 + 1e-7)))
    agree = abs(sup - sup_bdf) <= 1e-6 * sup_bdf
    ok = abs(sup - u0) <= 0.01 * u0 and below_u0 and agree
    report("3a", ok, f"second order pow2 sup(0.4) = {sup:.7f} vs "
                     f"u0(0.4) = {u0:.7f} +/- 1%; BDF oracle {sup_bdf:.8f} "
                     f"(agree to 1e-6: {agree}; u <= u0 at every node: "
                     f"{below_u0})")
    assert below_u0, (
        f"BDF oracle exceeds u0(0.4) = {u0:.8f} (max {sup_bdf:.10f}): the "
        "second-order oracle breaks the comparison principle")
    assert agree, (
        f"solver sup(0.4) = {sup:.10f} and BDF oracle {sup_bdf:.10f} differ "
        "by more than 1e-6 relative")
    assert abs(sup - u0) <= 0.01 * u0, (
        f"solver sup at t=0.4 is {sup:.6f}, not u0(0.4) = {u0:.6f} to 1%: "
        "the comparison principle bounds u by u0 and the wall's influence at "
        "x = 0 is erfc(1/(2*0.1*sqrt(0.4))) ~ 5e-29 (the former reference "
        "0.446 lay 0.221 below u0(0.4))")


def test_criterion_3b_fourth_order_amplitude(run_fourth_order_amplitude):
    sup = run_fourth_order_amplitude.snapshots[-1].sup
    ok = abs(sup - 0.74) <= 0.02 * 0.74
    report("3b", ok, f"fourth order exp sup(0.5) = {sup:.5f} vs 0.74 +/- 2%")
    assert ok


def _error_slope(rep, rs, order, eps, profile):
    errs = []
    ts = []
    x = rep.grid[0]
    for snap in rep.snapshots:
        if snap.t > 0.21:
            continue
        ua = uniform_1d(rs, order, eps, x, snap.t, profile=profile)
        errs.append(np.max(np.abs(snap.field - ua)) / np.max(np.abs(snap.field)))
        ts.append(snap.t)
    return float(np.polyfit(np.log(ts), np.log(errs), 1)[0])


def test_criterion_4_error_order(run_second_order_amplitude,
                                 run_fourth_order_amplitude, profile4):
    s2 = _error_slope(run_second_order_amplitude, ReactionSolution(POW2), 2,
                      0.1, profile4)
    s4 = _error_slope(run_fourth_order_amplitude, ReactionSolution(EXP), 4,
                      0.1, profile4)
    ok = abs(s2 - 1.0) <= 0.15 and abs(s4 - 1.0) <= 0.15
    report(4, ok, f"relative-L-inf error slopes: second={s2:.3f}, "
                  f"fourth={s4:.3f} (want 1.0 +/- 0.15)")
    assert abs(s2 - 1.0) <= 0.15
    assert abs(s4 - 1.0) <= 0.15


def test_criterion_5_square_multiplicity():
    t0 = time.perf_counter()
    h = 2.0 / 200.0
    got = {}
    for eps in (0.1, 0.2):
        cfg = SolverConfig(order=4, nonlinearity=EXP, eps=eps, geometry="rect",
                           nx=201, ny=201, threshold=10.0)
        got[eps] = solve(cfg)
    wall = time.perf_counter() - t0
    four = got[0.1].singularity_points()
    one = got[0.2].singularity_points()
    diag_ok = (len(four) == 4
               and np.all(np.abs(np.abs(four[:, 0]) - np.abs(four[:, 1]))
                          <= 2 * h))
    origin_ok = len(one) == 1 and np.hypot(*one[0]) <= 2 * h
    detail = (f"eps=0.1: {len(four)} points "
              f"{[tuple(np.round(p, 3)) for p in four]}; "
              f"eps=0.2: {len(one)} at {tuple(np.round(one[0], 3))} "
              f"(runtime {wall:.0f}s < 600s)")
    ok = diag_ok and origin_ok and wall < 600.0
    report(5, ok, detail)
    assert diag_ok
    assert origin_ok
    assert wall < 600.0


def test_criterion_6_rectangle_sequence():
    t0 = time.perf_counter()
    mult = {}
    for eps in (0.05, 0.1, 0.2):
        cfg = SolverConfig(order=4, nonlinearity=EXP, eps=eps, geometry="rect",
                           nx=201, ny=101, half_width_x=1.0, half_width_y=0.5,
                           threshold=10.0)
        mult[eps] = solve(cfg).multiplicity
    wall = time.perf_counter() - t0
    ok = mult == {0.05: 4, 0.1: 2, 0.2: 1} and wall < 600.0
    report(6, ok, f"rectangle multiplicities {mult} (want 4/2/1; "
                  f"runtime {wall:.0f}s < 600s)")
    assert mult[0.05] == 4
    assert mult[0.1] == 2
    assert mult[0.2] == 1
    assert wall < 600.0


@pytest.fixture(scope="module")
def disc_sweep(profile4):
    out = {}
    for eps in (0.05, 0.075, 0.1):
        cfg = SolverConfig(order=4, nonlinearity=POW2, eps=eps,
                           geometry="radial-disc", nx=1000, threshold=1e3)
        out[eps] = solve(cfg)
    return out


def test_criterion_7a_ring_formula(disc_sweep):
    rep = disc_sweep[0.1]
    T = rep.T_eps
    # pow:2: g = u0 / f(u0) = t (1 - t), the wall data of the linearised layer
    pred = 1.0 - linearised_layer_peak(lambda t: 1.0 - 2.0 * t, 0.1, T)
    # self-check: unit forcing is the similarity solution t V(x/(eps t^(1/4)))
    eta0, _ = shooting_profile4()
    lead = 1.0 - linearised_layer_peak(lambda t: 1.0, 0.1, T)
    lead_ref = 1.0 - eta0 * 0.1 * T ** 0.25
    lead_ok = abs(lead - lead_ref) <= 1e-3
    gap = abs(rep.ring_radius - pred)
    ok = gap <= 0.05 and lead_ok
    report("7a", ok, f"ring r* = {rep.ring_radius:.4f} vs linearised-layer "
                     f"peak {pred:.4f} at T_eps = {T:.4f}; |gap| = {gap:.4f} "
                     f"(tolerance 0.05); oracle with g' = 1 gives {lead:.4f} "
                     f"vs 1 - eta0*eps*T^(1/4) = {lead_ref:.4f}")
    assert lead_ok, (
        f"linearised-layer oracle with unit forcing peaks at r = {lead:.5f}, "
        f"not at the similarity value {lead_ref:.5f} to 1e-3")
    assert gap <= 0.05, (
        f"|r* - r_lin| = {gap:.3f} > 0.05: the computed ring r* = "
        f"{rep.ring_radius:.4f} left the peak r_lin = {pred:.4f} of the "
        "boundary layer linearised about u0 (Z_t = -eps^4 Z_xxxx + g'(t), "
        "g = t(1-t), clamped wall) at T_eps (the former formula "
        "1 - eta0*eps*u0(T_eps)^(1/4) gave -0.020, a gap of 0.58)")


def test_criterion_7b_ring_trend(disc_sweep):
    rings = [disc_sweep[e].ring_radius for e in (0.05, 0.075, 0.1)]
    interior = all(0.0 < r < 1.0 for r in rings)
    ok = interior and rings[0] > rings[1] > rings[2]
    report("7b", ok, f"ring radii vs eps^2: {[round(r, 4) for r in rings]} "
                     "(monotone decreasing, all interior)")
    assert interior
    assert rings[0] > rings[1] > rings[2]


def test_criterion_8_potato_predictor():
    pred = predict_second_2d(potato_domain())
    x = pred.points[0]
    gap = np.hypot(x[0] - 0.3070, x[1] + 0.0345)
    ok = gap <= 2e-3
    report(8, ok, f"distance-argmax prediction ({x[0]:.4f}, {x[1]:.4f}) vs "
                  f"(0.3070, -0.0345); |gap| = {gap:.2e} (tolerance 2e-3)")
    assert ok


def test_criterion_9_skeleton_oracles():
    res = 0.02
    disc = compute_skeleton(SmoothPolarDomain(1.0), 0.05)
    disc_ok = np.max(np.hypot(*disc.points().T)) <= 0.05
    square = compute_skeleton(RectangleDomain.centered(1.0, 1.0), res)
    hd_sq = hausdorff(square.points(), square_skeleton_points())
    rect = compute_skeleton(RectangleDomain.centered(1.0, 0.5), res)
    hd_rc = hausdorff(rect.points(), rectangle_skeleton_points(1.0, 0.5))
    pts = rect.points()
    junction = max(np.min(np.hypot(pts[:, 0] - jx, pts[:, 1]))
                   for jx in (-0.5, 0.5))
    ok = (disc_ok and hd_sq <= 2 * res and hd_rc <= 2 * res
          and junction <= 2 * res)
    report(9, ok, f"disc point within res; square Hausdorff {hd_sq:.4f} and "
                  f"rectangle Hausdorff {hd_rc:.4f} <= {2 * res}; corner "
                  f"segments meet (+-0.5, mid) to {junction:.4f}")
    assert disc_ok
    assert hd_sq <= 2 * res
    assert hd_rc <= 2 * res
    assert junction <= 2 * res


def test_criterion_10_profile_suite(profile4):
    # v2 ODE residual on a 500-point grid of [0, 10]
    eta = np.linspace(0.0, 10.0, 500)
    h = 0.01
    vals = np.array([v2(eta + k * h) for k in range(-2, 3)]).T
    d1 = (vals[:, 0] - 8 * vals[:, 1] + 8 * vals[:, 3] - vals[:, 4]) / (12 * h)
    d2 = (-vals[:, 0] + 16 * vals[:, 1] - 30 * vals[:, 2]
          + 16 * vals[:, 3] - vals[:, 4]) / (12 * h * h)
    res_v2 = np.max(np.abs(d2 + 0.5 * eta * d1 - v2(eta) + 1.0))

    interior = 0.0 < profile4.eta0 < profile4.eta_max and profile4.v_peak > 1.0
    beyond = profile4.eta > profile4.eta0
    s = np.sign(profile4.values[beyond] - 1.0)
    s = s[s != 0]
    crossings = int(np.sum(s[:-1] * s[1:] < 0))

    d = np.diff(profile4.values)
    idx = np.where(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0] + 1
    amp = np.abs(profile4.values[idx] - 1.0)
    keep = (profile4.eta[idx] >= 14.0) & (profile4.eta[idx] <= 30.0) & (amp > 5e-12)
    slope = np.polyfit(profile4.eta[idx][keep] ** (4.0 / 3.0),
                       np.log(amp[keep]), 1)[0]
    rate_dev = abs(-slope / OMEGA - 1.0)

    # the stored eta0 against the collocation digits, and against the root
    # of the stored series' derivative by Newton's method (numpy's chebder)
    d_ref = abs(profile4.eta0 - ETA0_REF)
    dv = chebyshev.chebder(profile4.series) / 18.0   # d/d eta, t = eta / 18 - 1
    root = profile4.eta0
    for _ in range(4):
        root -= (chebyshev.chebval(root / 18.0 - 1.0, dv)
                 / chebyshev.chebval(root / 18.0 - 1.0, chebyshev.chebder(dv)) * 18.0)
    d_newton = abs(profile4.eta0 - root)
    eta0_sh, _ = shooting_profile4()
    d_shoot = abs(profile4.eta0 - eta0_sh)

    ok = (res_v2 <= 1e-9 and interior and crossings >= 3 and rate_dev <= 0.10
          and d_ref <= 1e-12 and d_newton <= 1e-12 and d_shoot <= 1e-4)
    report(10, ok, f"v2 residual {res_v2:.1e} <= 1e-9; peak interior "
                   f"(eta0={profile4.eta0:.6f}); {crossings} sign changes; "
                   f"decay-rate dev {rate_dev:.1%} <= 10%; eta0 against the "
                   f"collocation digits {d_ref:.1e} and the series' root "
                   f"{d_newton:.1e} <= 1e-12; shooting gap {d_shoot:.1e} <= 1e-4")
    assert res_v2 <= 1e-9
    assert interior
    assert crossings >= 3
    assert rate_dev <= 0.10
    assert d_ref <= 1e-12
    assert d_newton <= 1e-12
    assert d_shoot <= 1e-4


def test_criterion_11_ordering_invariants(run_c1):
    cfg = SolverConfig(order=2, nonlinearity=POW2, eps=0.1, geometry="strip",
                       nx=1001, grading=2.0, threshold=100.0)
    rep2 = solve(cfg)  # the supersolution bound is asserted per step
    rs = ReactionSolution(POW2)
    checked = [(t, sup) for t, sup in rep2.diagnostics["sup_history"] if t < rs.T0 * 0.999]
    super_ok = bool(checked) and all(sup <= rs.state(t) * (1 + 1e-9) + 1e-12
                                     for t, sup in checked)
    order2_ok = rep2.T_eps >= rs.T0 - 1e-3
    rep4, _ = run_c1
    order4_ok = rep4.T_eps < 1.0
    ok = super_ok and order2_ok and order4_ok
    report(11, ok, f"second order: u <= u0 pointwise, T_eps = "
                   f"{rep2.T_eps:.5f} >= T0 - 1e-3; fourth order exp "
                   f"eps=0.1: T_eps = {rep4.T_eps:.5f} < T0 = 1")
    assert super_ok
    assert order2_ok
    assert order4_ok


@pytest.mark.skipif(os.environ.get("BLOWUPLAB_OPTIONAL_TIER") != "1",
                    reason="optional tier (cube): set BLOWUPLAB_OPTIONAL_TIER=1")
def test_criterion_12_cube_multiplicities():
    t0 = time.perf_counter()
    got = {}
    for eps in (0.14, 0.2):
        cfg = SolverConfig(order=4, nonlinearity=POW2, eps=eps, geometry="cube",
                           nx=41, threshold=5e2)
        got[eps] = solve(cfg)
    wall = time.perf_counter() - t0
    eight = got[0.14].singularity_points()
    one = got[0.2].singularity_points()
    orbit_ok = (len(eight) == 8
                and len({tuple(np.round(np.sort(np.abs(p)), 2))
                         for p in eight}) == 1)
    origin_ok = len(one) == 1 and np.linalg.norm(one[0]) <= 0.1
    ok = orbit_ok and origin_ok and wall < 3600.0
    report(12, ok, f"cube eps=0.14: {len(eight)} points (one orbit: "
                   f"{orbit_ok}); eps=0.2: {len(one)} at origin "
                   f"(runtime {wall:.0f}s < 3600s)")
    assert orbit_ok
    assert origin_ok
    assert wall < 3600.0
