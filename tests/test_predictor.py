import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowuplab.errors import RangeError
from blowuplab.fileio import read_csv
from blowuplab.geometry import (RectangleDomain, SmoothPolarDomain,
                                compute_skeleton, ellipse_domain, omega_set,
                                potato_domain)
from blowuplab.predictor import (Prediction, critical_eps, outer_2d_second,
                                 predict_1d_fourth, predict_fourth_2d,
                                 predict_second_2d, uniform_2d)
from blowuplab.profiles import CorrectionProfile, get_correction, v2
from blowuplab.reaction import TABLE_DELTA, Nonlinearity, ReactionSolution
from blowuplab.predictor import _curvature_candidates
from oracles import (scalar_curvature_candidates, scalar_outer_2d_second,
                     scalar_uniform_2d)

EXP = ReactionSolution(Nonlinearity.exponential())
POW2 = ReactionSolution(Nonlinearity.power(2))
DISC = SmoothPolarDomain(1.0)
STRIP = RectangleDomain.centered(1.0)
SQUARE = RectangleDomain.centered(1.0, 1.0)
RECT = RectangleDomain.centered(1.0, 0.5)


@pytest.fixture(scope="module")
def square_skel():
    return compute_skeleton(SQUARE, 0.01)


@pytest.fixture(scope="module")
def rect_skel():
    return compute_skeleton(RECT, 0.01)


# -- one-dimensional: the strip as the 1-D box ---------------------------------

@pytest.mark.parametrize("order", [2, 4])
def test_uniform_1d_vanishes_at_walls(order, profile4):
    u = uniform_2d(STRIP, EXP, order, 0.05, np.array([[-1.0], [1.0]]), 0.1,
                   profile=profile4)
    assert u.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("order", [2, 4])
def test_uniform_1d_symmetric(order, profile4):
    # exact mirror symmetry: the same foot distances for x and -x, nearest
    # first, and equidistant feet carry equal terms
    x = np.linspace(0.0, 0.9, 91)[:, None]
    u_plus = uniform_2d(STRIP, EXP, order, 0.1, x, 0.3, profile=profile4)
    u_minus = uniform_2d(STRIP, EXP, order, 0.1, -x, 0.3, profile=profile4)
    assert np.array_equal(u_plus, u_minus)


def test_uniform_1d_second_order_argmax_at_origin():
    # the interior can be flat to double precision for small layer widths,
    # so assert the origin attains the maximum rather than argmax unicity
    x = np.linspace(-1.0, 1.0, 201)
    for eps in (0.05, 0.1, 0.2):
        for t in (0.1, 0.3, 0.6):
            u = uniform_2d(STRIP, POW2, 2, eps, x[:, None], t)
            assert u[100] == np.max(u)
            assert x[100] == 0.0


@pytest.mark.parametrize("order", [2, 4])
def test_uniform_1d_is_the_two_wall_closed_form(order, profile4):
    """On the strip the layer sum is u0 [v((1 - x)/phi) + v((1 + x)/phi)
    - 1], to rounding: the sum adds the nearer wall's term first."""
    x = np.linspace(-1.0, 1.0, 201)
    phi = EXP.gauge(0.3, 0.1, order)
    v = profile4.evaluate if order == 4 else v2
    want = EXP.state(0.3) * ((v((1.0 - x) / phi) + v((1.0 + x) / phi)) - 1.0)
    got = uniform_2d(STRIP, EXP, order, 0.1, x[:, None], 0.3, profile=profile4)
    assert np.max(np.abs(got - want)) <= 4e-16 * np.max(np.abs(want))


def test_outer_matches_uniform_away_from_walls():
    u_in = uniform_2d(STRIP, POW2, 2, 0.05, np.array([0.0]), 0.1)
    u_out = outer_2d_second(STRIP, POW2, 0.05, np.array([0.0]), 0.1)
    assert abs(u_in - u_out) <= 1e-3 * abs(u_out)


def test_outer_1d_validity_guard():
    phi = POW2.gauge(0.3, 0.2, 2)
    with pytest.raises(RangeError):
        outer_2d_second(STRIP, POW2, 0.2, np.array([1.0 - 4.0 * phi]), 0.3)


def test_predict_1d_fourth_branches(profile4):
    p = predict_1d_fourth(EXP, 0.05, 0.9, eta0=profile4.eta0)
    assert p.regime == "strip-pair"
    xc = 1.0 - profile4.eta0 * EXP.gauge(0.9, 0.05, 4)
    assert np.allclose(sorted(p.points.ravel()), [-xc, xc])
    p2 = predict_1d_fourth(EXP, 0.5, 0.99, eta0=profile4.eta0)
    assert p2.regime == "origin"
    assert np.allclose(p2.points, [[0.0]])


def test_predict_1d_fourth_small_eps_limit(profile4):
    p = predict_1d_fourth(EXP, 1e-4, 0.9, eta0=profile4.eta0)
    assert p.points.ravel().max() >= 1.0 - 1e-3


# -- two-dimensional ---------------------------------------------------------

def test_uniform_2d_vanishes_on_boundary_limit(profile4):
    pts = np.array([[0.999, 0.0]])
    u = uniform_2d(DISC, EXP, 4, 0.05, pts, 0.3, profile=profile4)
    assert abs(u[0]) <= 0.05 * EXP.state(0.3)


def test_uniform_2d_square_center_second_order():
    # eps large enough that v2(1/phi) - 1 does not underflow
    u0 = POW2.state(0.3)
    val = uniform_2d(SQUARE, POW2, 2, 0.35, np.array([[0.0, 0.0]]), 0.3)[0]
    assert val < u0
    # four equal foot contributions at distance 1
    from blowuplab.profiles import v2
    phi = POW2.gauge(0.3, 0.35, 2)
    assert val == pytest.approx(u0 * (1.0 + 4.0 * (v2(1.0 / phi) - 1.0)),
                                rel=1e-12)


def test_uniform_2d_disc_ring_maximum(profile4):
    for t, eps in ((0.5, 0.05), (0.3, 0.08)):
        phi = EXP.gauge(t, eps, 4)
        if profile4.eta0 * phi >= 1:
            continue
        rr = np.linspace(0.02, 0.98, 241)
        vals = uniform_2d(DISC, EXP, 4, eps, np.column_stack([rr, 0 * rr]), t,
                          profile=profile4)
        assert abs(rr[np.argmax(vals)] - (1 - profile4.eta0 * phi)) <= 0.006


def test_uniform_2d_degenerate_center_continuous(profile4):
    t, eps = 0.4, 0.07
    v_center = uniform_2d(DISC, EXP, 4, eps, np.array([[0.0, 0.0]]), t,
                          profile=profile4)[0]
    v_near = uniform_2d(DISC, EXP, 4, eps, np.array([[1e-6, 0.0]]), t,
                        profile=profile4)[0]
    assert v_center == pytest.approx(v_near, rel=1e-6)


UNIFORM_DOMAINS = {"potato": potato_domain(), "ellipse": ellipse_domain(0.75, 1.0),
                   "rect": RECT, "disc": DISC}


@pytest.mark.parametrize("curvature", [True, False])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("name", sorted(UNIFORM_DOMAINS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_uniform_2d_equals_scalar_loop(name, order, curvature, data):
    """The (point, foot slot) table of uniform_2d adds each point's terms
    as a scalar loop over its feet does, bit for bit. The origin leads
    every batch: on the disc it has the radial limit's two feet. Without
    curvature both are given a zero correction profile, which leaves the
    layer terms alone."""
    dom = UNIFORM_DOMAINS[name]
    (bx0, bx1), (by0, by1) = dom.bounding_box
    xy = st.tuples(st.floats(bx0, bx1), st.floats(by0, by1))
    pts = np.array([(0.0, 0.0)] + data.draw(st.lists(xy, max_size=30)))
    pts = pts[dom.contains(pts)]
    eps = data.draw(st.floats(0.03, 0.2))
    t = data.draw(st.floats(0.05, 0.9))
    origin = dom.feet_batch(pts[:1])
    assert (origin.param[0, :2].tolist() == [0.0, np.pi]) == (name == "disc")
    corr = None
    if not curvature:
        vb = get_correction(order)
        corr = CorrectionProfile(order, vb.eta, np.zeros_like(vb.values), vb.eta_max,
                                 np.zeros_like(vb.series))
    got = uniform_2d(dom, EXP, order, eps, pts, t, correction=corr)
    assert np.array_equal(got, scalar_uniform_2d(dom, EXP, order, eps, pts, t,
                                                 correction=corr))


@pytest.mark.parametrize("order", [2, 4])
def test_uniform_2d_disc_centre_is_the_radial_limit(order):
    """At the disc centre the sum holds two coincident layer terms at the
    radius: u0 (1 + 2 ((v(eta) - 1) + phi kappa vb(eta))), to a few ulps
    (the sum adds the two terms one at a time)."""
    from blowuplab.profiles import get_profile4, v2
    v = v2 if order == 2 else get_profile4().evaluate
    vb = get_correction(order)
    for eps, t in ((0.05, 0.3), (0.1, 0.5), (0.2, 0.8), (0.35, 0.3)):
        phi = POW2.gauge(t, eps, order)
        eta = float(DISC.radius(0.0)) / phi
        term = (v(eta) - 1.0) + phi * float(DISC.curvature(0.0)) * vb(eta)
        want = POW2.state(t) * (1.0 + 2.0 * term)
        got = uniform_2d(DISC, POW2, order, eps, np.array([[0.0, 0.0]]), t)[0]
        assert abs(got - want) <= 4.0 * np.spacing(abs(want)), (eps, t)


@pytest.mark.parametrize("name", sorted(UNIFORM_DOMAINS))
def test_outer_2d_second_equals_scalar_loop(name):
    """The padded distance table of outer_2d_second sums each point's
    terms as a per-point loop over its feet does, bit for bit; the
    origin, on the disc the radial limit's two feet, leads the batch."""
    dom = UNIFORM_DOMAINS[name]
    (bx0, bx1), (by0, by1) = dom.bounding_box
    g = np.array([(x, y) for x in np.linspace(bx0, bx1, 25)
                  for y in np.linspace(by0, by1, 25)])
    pts = np.vstack([[0.0, 0.0], g[dom.contains(g)]])
    for eps, t in ((0.02, 0.3), (0.05, 0.5)):
        q = pts[dom.signed_distance(pts) > 5.5 * POW2.gauge(t, eps, 2)]
        assert np.array_equal(q[0], [0.0, 0.0]) and len(q) > 20
        assert np.array_equal(outer_2d_second(dom, POW2, eps, q, t),
                              scalar_outer_2d_second(dom, POW2, eps, q, t))


def test_outer_2d_argmax_is_distance_argmax():
    pot = potato_domain()
    g = np.linspace(-1.2, 1.2, 49)
    G = np.array([[x, y] for x in g for y in g])
    G = G[pot.contains(G)]
    G = G[pot.signed_distance(G) > 0.52]
    vals = outer_2d_second(pot, POW2, 0.1, G, 0.5)
    best = G[np.argmax(vals)]
    assert np.hypot(best[0] - 0.3070, best[1] + 0.0345) <= 0.08


def test_outer_2d_validity_guard():
    with pytest.raises(RangeError):
        outer_2d_second(DISC, POW2, 0.2, np.array([[0.9, 0.0]]), 0.5)


def test_predict_second_2d_centers():
    assert np.allclose(predict_second_2d(DISC).points[0], [0, 0], atol=1e-6)
    assert np.allclose(predict_second_2d(SQUARE).points[0], [0, 0], atol=1e-6)


def test_predict_second_2d_potato():
    p = predict_second_2d(potato_domain())
    assert np.hypot(p.points[0][0] - 0.3070, p.points[0][1] + 0.0345) <= 1e-3
    assert p.regime == "distance-argmax"


def test_predict_fourth_square_four_points(square_skel, profile4):
    p = predict_fourth_2d(SQUARE, square_skel, EXP, 0.1, 0.9596,
                          eta0=profile4.eta0)
    assert p.regime == "skeleton-points"
    assert p.multiplicity == 4
    pts = p.points
    # one dihedral orbit on the diagonals
    assert np.allclose(np.abs(pts[:, 0]), np.abs(pts[:, 1]), atol=1e-9)
    assert len({tuple(np.round(q, 9)) for q in
                np.abs(pts)}) == 1
    xc = 1.0 - p.metadata["level"]
    assert np.allclose(np.abs(pts[:, 0]), xc, atol=0.011)


def test_predict_fourth_square_origin_with_fallback_T(square_skel, profile4):
    T = EXP.T0 * (1 - TABLE_DELTA)
    p = predict_fourth_2d(SQUARE, square_skel, EXP, 0.2, T, eta0=profile4.eta0)
    assert p.multiplicity == 1
    assert np.hypot(*p.points[0]) <= 0.02


def test_predict_fourth_rectangle_sequence(rect_skel, profile4):
    # multiplicity 4 -> 2 -> 1 as the layer level sweeps the skeleton
    for eps, T, want in ((0.05, 0.9598, 4), (0.1, 0.9520, 2),
                         (0.2, EXP.T0 * (1 - TABLE_DELTA), 1)):
        p = predict_fourth_2d(RECT, rect_skel, EXP, eps, T, eta0=profile4.eta0)
        assert p.multiplicity == want, (eps, p.points)
    p2 = predict_fourth_2d(RECT, rect_skel, EXP, 0.1, 0.9520,
                           eta0=profile4.eta0)
    assert np.allclose(p2.points[:, 1], 0.0, atol=1e-9)
    assert np.allclose(np.abs(p2.points[:, 0]), abs(p2.points[0, 0]))


def test_predict_fourth_disc_omega_regime(profile4):
    skd = compute_skeleton(DISC, 0.05)
    p = predict_fourth_2d(DISC, skd, POW2, 0.1, 0.9, eta0=profile4.eta0)
    assert p.regime == "omega-set"
    assert len(p.omega_loops) == 1
    r = np.hypot(p.omega_loops[0][:, 0], p.omega_loops[0][:, 1])
    assert np.max(np.abs(r - (1 - p.metadata["level"]))) <= 2e-3
    # radially symmetric: curvature cannot single out candidates
    assert p.multiplicity == 0


def test_predict_fourth_potato_omega_candidates(profile4):
    pot = potato_domain()
    sk = compute_skeleton(pot, 0.02)
    rs = POW2
    # early T: level below s_min keeps omega(T) short of the skeleton
    eps = 0.05
    T = rs.invert((sk.s_min / (profile4.eta0 * eps)) ** 4) * 0.2
    p = predict_fourth_2d(pot, sk, rs, eps, T, eta0=profile4.eta0)
    assert p.regime == "omega-set"
    assert p.multiplicity >= 1  # curvature-ranked candidates reported
    ths, _, _ = pot.nearest_feet_grid(p.points)
    kmax = pot.curvature(np.linspace(0, 2 * np.pi, 4096)).max()
    assert pot.curvature(ths).max() >= 0.95 * kmax


def test_critical_eps_square(profile4):
    rs = EXP
    ec = critical_eps(rs, 1.0, eta0=profile4.eta0)
    T = rs.T0 * (1 - TABLE_DELTA)
    assert profile4.eta0 * rs.gauge(T, ec, 4) == pytest.approx(1.0, abs=1e-10)
    # s_target -> 0 drives eps_c -> 0 (phi is linear in eps)
    assert critical_eps(rs, 1e-3, eta0=profile4.eta0) <= 1e-3
    assert critical_eps(rs, 0.0, eta0=profile4.eta0) == 0.0
    with pytest.raises(RangeError):
        critical_eps(rs, -0.1, eta0=profile4.eta0)


def test_critical_eps_rectangle_thresholds(profile4):
    # branch junction (s = b) and the deepest mid-line (s = a) order as
    # eps1 < eps2
    e1 = critical_eps(EXP, 0.5, eta0=profile4.eta0)
    e2 = critical_eps(EXP, 1.0, eta0=profile4.eta0)
    assert 0 < e1 < e2
    assert e2 == pytest.approx(2 * e1, rel=1e-10)  # phi linear in eps


def test_critical_eps_monotone_in_target(profile4):
    es = [critical_eps(EXP, s, eta0=profile4.eta0) for s in (0.2, 0.5, 1.0)]
    assert es[0] < es[1] < es[2]


@pytest.mark.parametrize("dom", [potato_domain(), ellipse_domain(0.75, 1.0), DISC],
                         ids=["potato", "ellipse", "disc"])
@pytest.mark.parametrize("level", [0.1, 0.4])
def test_curvature_candidates_match_scalar_reference(dom, level):
    """Same candidates in the same order as the per-point loop; the
    symmetric ellipse has tied maxima, the disc none."""
    loops = omega_set(dom, level)
    got = _curvature_candidates(dom, loops)
    ref = scalar_curvature_candidates(dom, loops)
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert np.array_equal(a["point"], b["point"])
        assert a["curvature"] == b["curvature"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_prediction_csv_rows_equal_per_candidate_loop(tmp_path_factory, data):
    """The selected points, then every candidate that np.allclose matches
    to no selected point, as the per-candidate loop wrote them."""
    # 1 + 1.00100005e-5 is close to 1.0 only relative to itself: it tells
    # np.isclose(candidate, point) from np.isclose(point, candidate)
    coord = st.sampled_from([-0.5, 0.0, 0.25, 0.25 + 1e-9, 0.25 + 1e-3, 1.0,
                             1.0 + 1.00100005e-5])
    point = st.tuples(coord, coord)
    pts = np.array(data.draw(st.lists(point, max_size=4)), dtype=float).reshape(-1, 2)
    cands = [dict(point=np.array(p)) for p in data.draw(st.lists(point, max_size=6))]
    path = tmp_path_factory.mktemp("pred") / "p.csv"
    Prediction("omega-set", pts, dict(eps=0.1, order=4), candidates=cands).to_csv(path)
    comments, header, rows = read_csv(path)
    assert comments == ["regime=omega-set", "eps=0.1", "order=4"]
    assert header == ["x", "y", "selected"]
    kept = [c["point"] for c in cands if not any(np.allclose(c["point"], q) for q in pts)]
    expected = [(*p, 1) for p in pts.tolist()] + [(*p, 0) for p in np.reshape(kept, (-1, 2)).tolist()]
    assert [(float(r["x"]), float(r["y"]), int(r["selected"])) for r in rows] == expected
