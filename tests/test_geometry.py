import collections
import copy
import itertools
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize

from blowuplab import geometry
from blowuplab.errors import RangeError
from blowuplab.geometry import (RectangleDomain, SmoothPolarDomain,
                                compute_skeleton, ellipse_domain,
                                max_distance_point, omega_set, potato_domain)
from blowuplab.predictor import predict_second_2d, skeleton_arrival_time
from blowuplab.profiles import get_profile4
from blowuplab.reaction import Nonlinearity, ReactionSolution
from oracles import (box_feet, box_signed_distance, brute_force_distance,
                     brute_force_near_pairs,
                     brute_force_nearest_sample,
                     dense_omega_grid, dense_omega_loops, equidistant_classes,
                     full_grid_marching_squares, hausdorff, omega_grid, polar_radius_derivatives,
                     rectangle_skeleton_points, scalar_dedup_samples,
                     scalar_label_branches, square_skeleton_points)

DISC = SmoothPolarDomain(1.0)
POTATO = potato_domain()
SQUARE = RectangleDomain.centered(1.0, 1.0)
ELLIPSE = ellipse_domain(0.75, 1.0)   # 64 harmonics
RECT = RectangleDomain.centered(1.0, 0.5)
DATA = os.path.join(os.path.dirname(__file__), "data")


# -- construction and boundary geometry ----------------------------------------

def test_positive_radius_required():
    with pytest.raises(ValueError):
        SmoothPolarDomain(1.0, [1.2, 0.0, 0.0], [0.0, 0.0, 0.0])


def test_roughness_warning():
    # max|kappa| * min r = 116.8 on this boundary, over ROUGHNESS_BOUND = 50
    with pytest.warns(UserWarning, match="rough"):
        SmoothPolarDomain(1.0, [0.0] * 12, [0.0] * 11 + [0.45])


def test_disc_curvature():
    for th in (0.0, 0.7, 3.0):
        assert DISC.curvature(np.float64(th)) == pytest.approx(1.0, rel=1e-12)


def test_potato_boundary_point_theta0():
    # r = 1 + 0.3 (cos t - sin 3t): r(0) = 1.3, r'(0) = -0.9, r''(0) = -0.3
    assert POTATO.radius(np.float64(0.0)) == pytest.approx(1.3, rel=1e-14)
    assert POTATO.radius_d1(np.float64(0.0)) == pytest.approx(-0.9, rel=1e-14)
    assert POTATO.radius_d2(np.float64(0.0)) == pytest.approx(-0.3, rel=1e-14)
    r, r1, r2 = 1.3, -0.9, -0.3
    kappa = (r * r + 2 * r1 * r1 - r * r2) / (r * r + r1 * r1) ** 1.5
    assert POTATO.curvature(np.float64(0.0)) == pytest.approx(kappa, rel=1e-12)


def test_potato_curvature_matches_finite_differences():
    th = np.linspace(0.1, 6.0, 23)
    h = 1e-5
    r1_fd = (POTATO.radius(th + h) - POTATO.radius(th - h)) / (2 * h)
    r2_fd = (POTATO.radius(th + h) - 2 * POTATO.radius(th)
             + POTATO.radius(th - h)) / h ** 2
    assert np.max(np.abs(POTATO.radius_d1(th) - r1_fd)) <= 1e-6
    assert np.max(np.abs(POTATO.radius_d2(th) - r2_fd)) <= 1e-4


@pytest.mark.parametrize("dom", [DISC, POTATO, ELLIPSE], ids=["disc", "potato", "ellipse"])
def test_radius_derivatives_match_harmonic_loop(dom):
    rng = np.random.default_rng(5)
    for th in (np.float64(0.37), rng.uniform(-7.0, 7.0, 1000),
               rng.uniform(0.0, 2 * np.pi, (30, 40))):
        ref = polar_radius_derivatives(dom.c0, dom.cos_coeffs, dom.sin_coeffs, th)
        got = (dom.radius(th), dom.radius_d1(th), dom.radius_d2(th))
        for g, r in zip(got, ref):
            assert np.shape(g) == np.shape(th)
            assert np.max(np.abs(g - r)) <= 1e-12 * max(1.0, np.max(np.abs(r)))


def _assert_one_pass_cache(build):
    """The domain that build() returns makes one harmonic pass at
    construction, and its cached points, tangents and roughness curvature
    equal point_at, _point_tangent and curvature at the samples bit for bit."""
    passes, kappas = [], []
    derivs, curvature = SmoothPolarDomain._radius_derivs, geometry._curvature

    def counting(self, th):
        passes.append(np.shape(th))
        return derivs(self, th)

    def recording(*args):
        kappas.append(curvature(*args))
        return kappas[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SmoothPolarDomain, "_radius_derivs", counting)
        mp.setattr(geometry, "_curvature", recording)
        dom = build()
    th = dom._th
    assert passes == [th.shape] and len(kappas) == 1
    assert np.array_equal(kappas[0], dom.curvature(th))
    assert np.array_equal(dom._bp, dom.point_at(th))
    assert np.array_equal(dom._tau, dom._point_tangent(th)[1])


@pytest.mark.parametrize("build", [potato_domain, lambda: ellipse_domain(0.75, 1.0),
                                   lambda: SmoothPolarDomain(1.0)],
                         ids=["potato", "ellipse", "disc"])
def test_construction_cache_equals_boundary_methods(build):
    _assert_one_pass_cache(build)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_construction_cache_equals_boundary_methods_on_random_domains(data):
    dom = data.draw(polar_domains())
    _assert_one_pass_cache(lambda: SmoothPolarDomain(dom.c0, dom.cos_coeffs,
                                                     dom.sin_coeffs))


# -- orthogonal feet -----------------------------------------------------------

def test_disc_center_degenerate_circle_of_feet():
    """Every boundary point is a foot of the centre; the table holds the
    two at theta = 0 and pi, at the common distance."""
    feet = DISC.feet_batch([(0.0, 0.0), (0.3, 0.0)])
    assert feet.count.tolist() == [2, 2]
    assert feet.distance[0] == pytest.approx([1.0, 1.0], abs=1e-12)
    assert feet.distance[0, 0] == feet.distance[0, 1]
    assert feet.param[0].tolist() == [0.0, np.pi]
    assert feet.curvature[0].tolist() == [1.0, 1.0]
    assert feet.distance[1] == pytest.approx([0.7, 1.3], abs=1e-12)


def test_rectangle_feet_example():
    R = RectangleDomain((-1, 0), (1, 1))
    feet = R.feet_batch([(0.0, 0.3)])
    got = [(tuple(np.round(p, 12)), round(d, 12))
           for p, d in zip(feet.point[0], feet.distance[0].tolist())]
    # nearest first; the equidistant left and right feet in wall order
    assert got == [((0.0, 0.0), 0.3), ((0.0, 1.0), 0.7),
                   ((-1.0, 0.3), 1.0), ((1.0, 0.3), 1.0)]
    assert feet.param[0].tolist() == [2.0, 3.0, 0.0, 1.0]
    assert feet.count.tolist() == [4]


def test_square_diagonal_point_nearest_feet():
    feet = SQUARE.feet_batch([(0.5, 0.5)])
    assert feet.distance[0, :2].tolist() == [0.5, 0.5]
    assert feet.distance[0, 2] > 0.5
    # wall x = 1 (wall 1) before wall y = 1 (wall 3)
    assert feet.point[0, :2].tolist() == [[1.0, 0.5], [0.5, 1.0]]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rectangle_feet_match_closed_form(data):
    """In boxes of 1, 2 and 3 dimensions each table row holds the 2d wall
    feet, nearest first, and equidistant feet in wall order (Python's
    stable sort); the points on a cube's diagonals tie d pairs of walls,
    and its centre all of them."""
    for d in (1, 2, 3):
        dom = data.draw(boxes(d))
        frac = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        pts = [dom.lo + [data.draw(frac) for _ in range(d)] * (dom.hi - dom.lo)
               for _ in range(5)]
        side = data.draw(st.floats(0.05, 3.0))
        cube = RectangleDomain.centered(*[side] * d)
        diag = [(t, *(s * t for s in signs)) for t in np.linspace(-side, side, 7)[1:-1]
                for signs in itertools.product((1, -1), repeat=d - 1)]
        for box, xs in ((dom, pts), (cube, diag)):
            feet = box.feet_batch(xs)
            assert feet.count.tolist() == [2 * d] * len(xs)
            assert not feet.curvature.any()
            for i, p in enumerate(np.asarray(xs, dtype=float)):
                want = box_feet(box.lo.tolist(), box.hi.tolist(), p.tolist())
                assert feet.point[i].tolist() == [f[0] for f in want]
                assert feet.param[i].tolist() == [f[1] for f in want]
                assert feet.distance[i].tolist() == [f[2] for f in want]


def test_cube_contains_and_signed_distance():
    """contains and signed_distance on the box [-1, 1] x [0, 2] x [-0.5, 0.5]
    at points inside, on its faces, edges and corners, and outside past a
    face, an edge or a corner."""
    lo, hi = [-1.0, 0.0, -0.5], [1.0, 2.0, 0.5]
    box = RectangleDomain(lo, hi)
    # per axis: outside below, the lo wall, inside, the hi wall, outside above
    levels = [(-1.5, -1.0, -0.25, 1.0, 1.75), (-0.5, 0.0, 1.5, 2.0, 2.25),
              (-1.0, -0.5, 0.125, 0.5, 0.75)]
    pts = np.array(list(itertools.product(*levels)))
    inside = [all(a < x < b for a, x, b in zip(lo, p, hi)) for p in pts.tolist()]
    assert box.contains(pts).tolist() == inside
    assert box.contains(np.array([0.0, 1.0, 0.0])) is True
    want = [box_signed_distance(lo, hi, p) for p in pts.tolist()]
    assert box.signed_distance(pts).tolist() == pytest.approx(want, abs=1e-15)
    assert box.signed_distance(np.array([3.0, 1.0, 0.0])) == -2.0
    # on a face, an edge and a corner the distance is 0; past a corner it
    # is the Euclidean distance to that corner
    assert box.signed_distance(np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 0.0],
                                         [1.0, 2.0, 0.5]])).tolist() == [0.0, 0.0, 0.0]
    assert box.signed_distance(np.array([2.0, 4.0, 2.5])) == -3.0


def test_box_signed_distance_keeps_the_rectangle_bits():
    """In two dimensions the outside distance is np.hypot of the two
    gaps, the same bits as the rectangle's former closed form."""
    rng = np.random.default_rng(7)
    pts = rng.uniform(-3.0, 3.0, size=(400, 2))
    ox = np.maximum(np.maximum(-1.0 - pts[:, 0], pts[:, 0] - 1.0), 0.0)
    oy = np.maximum(np.maximum(-0.5 - pts[:, 1], pts[:, 1] - 0.5), 0.0)
    inside = np.minimum(np.minimum(pts[:, 0] + 1.0, 1.0 - pts[:, 0]),
                        np.minimum(pts[:, 1] + 0.5, 0.5 - pts[:, 1]))
    want = np.where(inside >= 0, inside, -np.hypot(ox, oy))
    assert np.array_equal(RECT.signed_distance(pts), want)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("planar", ["compute_skeleton", "omega_set", "max_distance_point"])
def test_planar_geometry_rejects_other_boxes(planar, dim):
    box = RectangleDomain.centered(*[1.0] * dim)
    call = dict(compute_skeleton=lambda: compute_skeleton(box, 0.01),
                omega_set=lambda: omega_set(box, 0.5),
                max_distance_point=lambda: max_distance_point(box))[planar]
    with pytest.raises(ValueError, match=f"planar domain, not a {dim}-D box"):
        call()


def test_feet_segments_stay_inside():
    rng = np.random.default_rng(11)
    pts = []
    while len(pts) < 20:
        p = rng.uniform(-1.3, 1.3, size=2)
        if POTATO.contains(p) and POTATO.signed_distance(p) >= 0.05:
            pts.append(p)
    feet = POTATO.feet_batch(pts)
    for p, ys, n in zip(pts, feet.point, feet.count):
        for y in ys[:n]:
            s = np.linspace(0, 1, 64)[:, None]
            seg = p[None, :] + s * (y - p)[None, :]
            assert np.all(POTATO.signed_distance(seg) >= -1e-7)


TOL = 0.125  # dyadic: gaps of exactly TOL arise in the rows below


@st.composite
def ascending_rows(draw):
    """Rows of ascending distances padded with inf to one width: dyadic
    starts and gaps of 0, TOL and 2 TOL, or any float gap up to 3 TOL."""
    gap = st.sampled_from([0.0, TOL, 2 * TOL]) | st.floats(0.0, 3 * TOL)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        start = draw(st.integers(0, 16)) / 8
        rows.append(list(np.cumsum([start] + draw(st.lists(gap, max_size=6)))))
    if draw(st.booleans()):
        rows.append([])                     # a point with no feet
    width = max(len(r) for r in rows)
    return np.array([r + [np.inf] * (width - len(r)) for r in rows])


@settings(max_examples=200, deadline=None)
@given(table=ascending_rows())
@example(table=np.array([[0.0, TOL, 0.5, 0.5, np.inf],
                         [0.25, 0.25 + TOL, 0.25 + 2 * TOL, 1.0, 1.0 + 2 * TOL],
                         [np.inf] * 5]))
def test_equidistant_firsts_match_classes(table):
    """The vectorised classification picks, in each row, the first
    distance of every class of two or more that the per-point grouping
    finds."""
    first = geometry._equidistant_firsts(table, TOL)
    for row, m in zip(table, first):
        classes = equidistant_classes(row[np.isfinite(row)], TOL)
        assert row[m].tolist() == [g[0] for g in classes if len(g) >= 2]


# -- distance ------------------------------------------------------------------

def test_distance_examples():
    assert DISC.signed_distance(np.array([0.3, 0.0])) == pytest.approx(0.7, abs=1e-9)
    assert SQUARE.signed_distance(np.array([0.0, 0.0])) == pytest.approx(1.0)


@pytest.mark.parametrize("dom", [DISC, POTATO, SQUARE,
                                 RectangleDomain.centered(1.0, 0.5)])
def test_distance_against_brute_force(dom):
    rng = np.random.default_rng(3)
    pts = []
    while len(pts) < 100:
        p = rng.uniform(-1.4, 1.4, size=2)
        if dom.contains(p):
            pts.append(p)
    pts = np.array(pts)
    mine = dom.signed_distance(pts)
    brute = brute_force_distance(dom, pts)
    assert np.max(np.abs(mine - brute)) <= 1e-6


@st.composite
def polar_domains(draw):
    """r = 1 + sum over k <= 4 of a_k cos(k t) + b_k sin(k t), with
    sum |a_k| + |b_k| <= 0.6, kept only if it passes the roughness check."""
    n = draw(st.integers(0, 4))
    coef = st.floats(-0.15, 0.15)
    cos_c = draw(st.lists(coef, min_size=n, max_size=n))
    sin_c = draw(st.lists(coef, min_size=n, max_size=n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return SmoothPolarDomain(1.0, cos_c, sin_c)
        except UserWarning:
            assume(False)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_foot_orthogonality_residual(data):
    """At every orthogonal foot of a point at depth >= 0.05, the boundary
    tangent is perpendicular to the segment from the point, on the disc,
    the potato and random polar domains."""
    dom = data.draw(st.sampled_from([DISC, POTATO]) | polar_domains())
    tol = 1e-9 * dom.diameter
    (bx0, bx1), (by0, by1) = dom.bounding_box
    for _ in range(6):
        p = np.array([data.draw(st.floats(bx0, bx1)), data.draw(st.floats(by0, by1))])
        if not dom.contains(p) or dom.signed_distance(p) < 0.05:
            continue
        feet = dom.feet_batch(p[None])
        n = feet.count[0]
        for y, th in zip(feet.point[0, :n], feet.param[0, :n]):
            tau = dom._point_tangent(np.float64(th))[1]
            assert abs(np.dot(p - y, tau)) <= tol


@st.composite
def boxes(draw, dim=2):
    lo = [draw(st.floats(-2.0, 1.0)) for _ in range(dim)]
    return RectangleDomain(lo, [a + draw(st.floats(0.05, 3.0)) for a in lo])


def rectangle_edge_point(dom, s):
    """The boundary point at arc length s counterclockwise from (x0, y0)."""
    (x0, x1), (y0, y1) = dom.bounding_box
    W, H = x1 - x0, y1 - y0
    if s < W:
        return np.array([x0 + s, y0])
    if s < W + H:
        return np.array([x1, y0 + (s - W)])
    if s < 2 * W + H:
        return np.array([x1 - (s - W - H), y1])
    return np.array([x0, y1 - (s - 2 * W - H)])


@st.composite
def point_pairs(draw, dom):
    """A random point and a second one at any distance from 1e-9 to 1
    (including pairs near the skeleton), or a pair straddling the boundary
    at a random boundary point: along the normal on a polar domain, in a
    random direction on a rectangle, whose corners have no normal."""
    (bx0, bx1), (by0, by1) = dom.bounding_box
    ang = draw(st.floats(0.0, 2 * np.pi))
    gap = 10.0 ** draw(st.floats(-9.0, 0.0))
    step = gap * np.array([np.cos(ang), np.sin(ang)])
    if draw(st.booleans()):
        a = np.array([draw(st.floats(bx0 - 0.5, bx1 + 0.5)),
                      draw(st.floats(by0 - 0.5, by1 + 0.5))])
        return a, a + step
    if isinstance(dom, SmoothPolarDomain):
        th = np.float64(draw(st.floats(0.0, 2 * np.pi)))
        y, (tx, ty) = dom.point_at(th), dom._point_tangent(th)[1]
        normal = np.array([ty, -tx])
    else:
        W, H = (dom.hi - dom.lo).tolist()
        y = rectangle_edge_point(dom, draw(st.floats(0.0, 2 * (W + H))))
        normal = np.array([np.cos(ang), np.sin(ang)])
    s = draw(st.floats(0.0, 1.0))
    return y + s * gap * normal, y - (1.0 - s) * gap * normal


@pytest.mark.parametrize("domains", [polar_domains, boxes],
                         ids=["polar", "rectangle"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_signed_distance_is_1_lipschitz(domains, data):
    dom = data.draw(domains())
    for _ in range(4):
        a, b = data.draw(point_pairs(dom))
        da, db = dom.signed_distance(np.array([a, b]))
        assert abs(da - db) <= np.hypot(*(a - b)) + 1e-9


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_signed_distance_independent_of_batch(data):
    """A point's signed distance alone equals its value inside a random
    batch, bit for bit."""
    dom = data.draw(st.sampled_from([POTATO, ELLIPSE]) | polar_domains())
    n = data.draw(st.integers(1, 400))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    (bx0, bx1), (by0, by1) = dom.bounding_box
    pts = np.random.default_rng(seed).uniform((bx0 - 0.3, by0 - 0.3),
                                              (bx1 + 0.3, by1 + 0.3), (n, 2))
    batch = dom.signed_distance(pts)
    for i in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5)):
        assert dom.signed_distance(pts[i]) == batch[i]


def test_signed_distance_independent_of_batch_across_table_blocks():
    # 64 harmonics: the trig table holds 512 points per block, so this
    # batch spans 17 blocks, and the nearest-boundary query's chunks of
    # 4096 points start at 4096 and 8192
    assert len(ELLIPSE.cos_coeffs) == 64
    assert geometry._TRIG_TABLE_ELEMS // (2 * 64) == 512
    pts = np.random.default_rng(5).uniform(-1.1, 1.1, (8300, 2))
    batch = ELLIPSE.signed_distance(pts)
    for i in (0, 1, 511, 512, 513, 4095, 4096, 8191, 8192, 8193, 8299):
        assert ELLIPSE.signed_distance(pts[i]) == batch[i]
    assert np.array_equal(ELLIPSE.signed_distance(pts[8000:8300]), batch[8000:])


def _feet_rows_equal(feet, i, other, k):
    """Row i of feet equals row k of other in every field, nan for nan."""
    n = feet.count[i]
    if n != other.count[k]:
        return False
    pad = [(f.distance[r, c:], f.param[r, c:]) for f, r, c in ((feet, i, n), (other, k, n))]
    return (all(np.all(d == np.inf) and np.all(np.isnan(p)) for d, p in pad)
            and all(np.array_equal(getattr(feet, f)[i, :n], getattr(other, f)[k, :n],
                                   equal_nan=True)
                    for f in ("point", "param", "distance", "curvature")))


def _assert_feet_independent_of_batch(dom, pts, sizes, singles):
    """Prefix batches of pts, and single points at the indices singles,
    give the feet rows of the whole batch, which is returned."""
    whole = dom.feet_batch(pts)
    assert len(whole.count) == len(pts)
    for n in sizes:
        part = dom.feet_batch(pts[:n])
        assert all(_feet_rows_equal(part, i, whole, i) for i in range(n)), n
    for i in singles:
        assert _feet_rows_equal(dom.feet_batch(pts[i]), 0, whole, i), i
    return whole


def _feet_points(seed, n):
    """n points inside, near and far off a unit-size domain, with the
    origin (the disc's degenerate point) at both sides of a scan chunk."""
    pts = _near_and_far_points(seed, n - n // 10, n // 10)
    pts = pts[np.random.default_rng(seed).permutation(n)]
    c = SmoothPolarDomain.SCAN_CHUNK
    pts[[0, c - 1, c, n - 1]] = 0.0
    return pts


@pytest.mark.parametrize("dom", [DISC, POTATO, ELLIPSE], ids=["disc", "potato", "ellipse"])
def test_feet_independent_of_batch(dom):
    """Every field of a point's feet is the same in batches of 1,
    SCAN_CHUNK - 1, SCAN_CHUNK, SCAN_CHUNK + 1, 300 and 2000 points,
    across the scan chunks and the segment test's root chunks, for near,
    far and degenerate points."""
    c = SmoothPolarDomain.SCAN_CHUNK
    whole = _assert_feet_independent_of_batch(dom, _feet_points(31, 2000),
                                              (1, c - 1, c, c + 1, 300), range(0, 2000, 97))
    assert np.any(whole.count > 1) and np.any(whole.count == 0)
    # the radial limit's two feet only on the disc
    assert (whole.param[0, :2].tolist() == [0.0, np.pi]) == (dom is DISC)


@settings(max_examples=6, deadline=None)
@given(dom=polar_domains(), seed=st.integers(0, 2**32 - 1))
def test_feet_independent_of_batch_on_random_domains(dom, seed):
    c = SmoothPolarDomain.SCAN_CHUNK
    _assert_feet_independent_of_batch(dom, _feet_points(seed, 2000),
                                      (1, c - 1, c, c + 1, 300), range(0, 2000, 331))


def _traced_peak_mb(fn):
    """Peak of the memory traced while fn runs, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_geometry_working_set_is_bounded():
    """The feet of 2000 points and the potato skeleton at the CLI's
    default resolution 0.01 keep their scratch tables in fixed chunks,
    and the potato's omega set at its default resolution reads only the
    cut cells' corners. Measured traced peaks: 4.60, 8.02 and 3.13 MB;
    with 64-point feet scans and the whole omega grid as Python floats
    7.69, 11.75 and 4.60 MB, and with tables that grew with the batch
    about 100 and 65 MB."""
    pts = np.random.default_rng(41).uniform(-1.3, 1.3, (2000, 2))
    assert _traced_peak_mb(lambda: POTATO.feet_batch(pts)) < 5.5
    assert _traced_peak_mb(lambda: compute_skeleton(potato_domain(), 0.01)) < 9.5
    assert _traced_peak_mb(lambda: omega_set(POTATO, 0.3)) < 3.8


@pytest.mark.parametrize("dom", [DISC, POTATO, ELLIPSE], ids=["disc", "potato", "ellipse"])
def test_feet_of_no_points(dom):
    feet = dom.feet_batch(np.empty((0, 2)))
    assert feet.point.shape == (0, 0, 2)
    assert feet.param.shape == feet.distance.shape == feet.curvature.shape == (0, 0)
    assert feet.count.shape == (0,)


def _near_and_far_points(seed, n_near, n_far):
    """Points inside and just outside the unit-size domains, and far ones."""
    rng = np.random.default_rng(seed)
    near = rng.uniform(-1.6, 1.6, (n_near, 2))
    ang = rng.uniform(0.0, 2 * np.pi, n_far)
    far = rng.uniform(3.0, 50.0, n_far)[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    return np.concatenate([near, far])


@pytest.mark.parametrize("dom", [POTATO, ELLIPSE], ids=["potato", "ellipse"])
def test_tree_seed_is_a_nearest_boundary_sample(dom):
    """The block search returns the brute-force argmin index itself, the
    lowest among equal squared distances, in one batch and point by point."""
    pts = _near_and_far_points(9, 1600, 400)
    assert 0 < np.count_nonzero(dom.contains(pts)) < len(pts)
    want = brute_force_nearest_sample(dom._bp, pts)
    assert np.array_equal(dom._nearest_sample(pts), want)
    assert np.array_equal([dom._nearest_sample(p[None])[0] for p in pts[::7]], want[::7])


@pytest.mark.parametrize("dom", [POTATO, ELLIPSE], ids=["potato", "ellipse"])
def test_nearest_seeds_and_distances_independent_of_batch(dom):
    """Batches on each side of BRUTE_MAX and CHUNK, far points included,
    give the seeds and the signed_distance bits of one-point calls."""
    pts = _near_and_far_points(21, 7900, 400)[np.random.default_rng(22).permutation(8300)]
    one_seed = np.array([dom._nearest_sample(p[None])[0] for p in pts])
    one_sd = np.array([dom.signed_distance(p) for p in pts])
    b, c = SmoothPolarDomain.BRUTE_MAX, SmoothPolarDomain.CHUNK
    for n in sorted({1, b, b + 1, 32, 33, c, c + 1, 512, 513, 8300}):
        assert np.array_equal(dom._nearest_sample(pts[:n]), one_seed[:n]), n
        assert np.array_equal(dom.signed_distance(pts[:n]), one_sd[:n]), n


@pytest.mark.parametrize("dom", [DISC, POTATO, ELLIPSE], ids=["disc", "potato", "ellipse"])
def test_block_covers_hold_their_samples(dom):
    """The search may prune a block only if its cover holds every sample:
    the cover is the largest distance from the centre, padded by a
    relative 1e-9 and no more."""
    bx, by = dom._blocks
    cx, cy = dom._centres
    reach = np.sqrt((bx - cx[:, None]) ** 2 + (by - cy[:, None]) ** 2).max(axis=1)
    assert np.all(reach < dom._cover) and np.all(dom._cover <= reach * (1.0 + 2e-9))
    assert np.array_equal(np.stack([bx.ravel(), by.ravel()], axis=1), dom._bp)
    assert np.array_equal(cx, dom._bp[SmoothPolarDomain.BLOCK // 2::SmoothPolarDomain.BLOCK, 0])


def test_nearest_search_rejects_non_finite_points():
    for bad in ([np.nan, 0.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            POTATO.signed_distance(np.array([[0.1, 0.2]] * 40 + [bad]))


def test_potato_max_distance_point():
    xc, d = max_distance_point(POTATO)
    assert np.hypot(xc[0] - 0.3070, xc[1] + 0.0345) <= 2e-3
    assert d > 0.7


# argmax and distance of the 36-start Nelder-Mead search that seeded
# polishing replaced, with the default grid seeds and with the 8 deepest
# samples of compute_skeleton(dom, res) that predict_second_2d passes
POTATO_ARGMAX_BEFORE = [((0.30697702122089043, -0.03451137219215192), 0.7327863172198025),
                        ((0.30697702122283954, -0.03451137219344608), 0.7327863172192088)]
RECT_DMAX_BEFORE = [0.5, 0.5]
ELLIPSE_DMAX_BEFORE = [0.7500000000000001, 0.7499999999999547]


def _argmax_runs(dom, res):
    """(argmax, distance) with default seeds, then with skeleton seeds."""
    pred = predict_second_2d(dom, skeleton=compute_skeleton(dom, res))
    return [max_distance_point(dom), (pred.points[0], pred.metadata["distance"])]


def test_potato_argmax_unchanged_by_seeding():
    for (xc, d), (x_before, d_before) in zip(_argmax_runs(POTATO, 0.05),
                                             POTATO_ARGMAX_BEFORE):
        assert np.max(np.abs(xc - np.array(x_before))) <= 1e-10  # xatol
        assert abs(d - d_before) <= 1e-12                        # fatol


def test_plateau_and_ridge_argmax_in_argmax_set():
    rect = RectangleDomain.centered(1.0, 0.5)
    for (xc, d), d_before in zip(_argmax_runs(rect, 0.05), RECT_DMAX_BEFORE):
        assert abs(d - d_before) <= 1e-12
        # the maximizers of the 2 x 1 rectangle: the segment |x| <= 0.5, y = 0
        assert abs(xc[1]) <= 1e-10 and abs(xc[0]) <= 0.5 + 1e-10
        assert rect.signed_distance(xc) >= 0.5 - 1e-12
    for (xc, d), d_before in zip(_argmax_runs(ELLIPSE, 0.1), ELLIPSE_DMAX_BEFORE):
        assert abs(d - d_before) <= 1e-12
        # the unique maximizer is the centre, at depth 0.75; along the
        # ridge x = 0 the distance falls only like y^2
        assert abs(xc[0]) <= 1e-9 and abs(xc[1]) <= 1e-5
        assert ELLIPSE.signed_distance(xc) >= 0.75 - 1e-12


def test_max_distance_point_polishes_three_deepest_seeds(monkeypatch):
    starts = []
    lock_step = geometry.minimize

    def recording(fun, x0s, **kw):
        starts.append(np.array(x0s))
        return lock_step(fun, x0s, **kw)

    seeds = np.array([[0.0, 0.0], [0.9, 0.0], [0.3, 0.0], [0.5, 0.2], [0.1, 0.1]])
    monkeypatch.setattr(geometry, "minimize", recording)
    xc, d = max_distance_point(DISC, seeds=seeds)
    # the three deepest, in the order given, polished together
    assert len(starts) == 1 and np.array_equal(starts[0], seeds[[0, 2, 4]])
    assert np.hypot(*xc) <= 1e-9 and abs(d - 1.0) <= 1e-12


@pytest.mark.parametrize("dom", [POTATO, ELLIPSE, DISC, RECT],
                         ids=["potato", "ellipse", "disc", "rect"])
def test_lockstep_minimize_equals_scalar_nelder_mead(dom):
    """Three seeds in lock step give scipy's per-seed Nelder-Mead bit for
    bit; every point scipy evaluates is among the batched evaluations,
    and nfev counts the points the objective received."""
    rng = np.random.default_rng(4)
    seeds = np.concatenate([[[0.05, -0.1]], rng.uniform(-0.5, 0.5, (2, 2))])
    batched, scalar = collections.Counter(), collections.Counter()

    def neg_d(z):
        sd = dom.signed_distance(z)
        return np.where(sd > 0, -sd, 1.0)

    def counting(z):
        f = neg_d(z)
        batched.update(zip(map(tuple, z.tolist()), f.tolist()))
        return f

    def one_point(z):
        f = float(neg_d(z))
        scalar[(tuple(z.tolist()), f)] += 1
        return f

    opts = dict(xatol=1e-10, fatol=1e-12, maxiter=400)
    got = geometry.minimize(counting, seeds, **opts)
    runs = [scipy_minimize(one_point, s, method="Nelder-Mead", options=opts)
            for s in seeds]
    want = min(runs, key=lambda r: r.fun)      # the first of equal minima
    assert np.array_equal(got.x, want.x) and got.fun == want.fun
    assert got.nfev == sum(batched.values())
    assert scalar - batched == collections.Counter()
    assert sum(scalar.values()) == sum(r.nfev for r in runs)


def _deep_points(dom, centre, res):
    """400 points within 0.1 of centre, centre itself, and every sample of
    the skeleton at resolution res."""
    rng = np.random.default_rng(12)
    rad = 0.1 * np.sqrt(rng.uniform(0.0, 1.0, 400))
    ang = rng.uniform(0.0, 2 * np.pi, 400)
    cloud = centre + rad[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    return np.concatenate([cloud, [centre], compute_skeleton(dom, res).points()])


@pytest.mark.parametrize("dom,centre,res", [
    (POTATO, POTATO_ARGMAX_BEFORE[0][0], 0.05), (ELLIPSE, (0.0, 0.0), 0.1)],
    ids=["potato-argmax", "ellipse-centre"])
def test_wide_leaf_tree_seeds_equal_leaf_16_seeds(dom, centre, res):
    """Deep interior points, where the most blocks stay candidates, get
    the nearest sample of scipy's k-d tree with 16-point leaves, the
    search the package used before, so the distances keep their bits. The
    tree breaks exact ties its own way (the ellipse's centre is as far
    from sample 0 as from sample 2048), so at a tie the two seeds need
    only be equally near."""
    from scipy.spatial import cKDTree   # the oracle only
    pts = _deep_points(dom, np.array(centre), res)
    seed = dom._nearest_sample(pts)
    assert np.array_equal(seed, brute_force_nearest_sample(dom._bp, pts))
    tree_seed = cKDTree(dom._bp, leafsize=16).query(pts)[1]
    other = np.flatnonzero(seed != tree_seed)
    assert len(other) <= 1

    def d2(k):
        return ((pts[other] - dom._bp[k[other]]) ** 2).sum(axis=1)

    assert np.array_equal(d2(seed), d2(tree_seed))
    swapped = copy.copy(dom)
    swapped._nearest_sample = lambda p: cKDTree(dom._bp, leafsize=16).query(p)[1]
    assert np.array_equal(dom.signed_distance(pts), swapped.signed_distance(pts))


# objectives that map (k, n) points to (k,) values elementwise, so that a
# point's value does not depend on its batch, with their seeds; together
# they take every branch of Nelder-Mead in two and in three dimensions
NM_OBJECTIVES = {
    "abs-2d": (lambda z: np.abs(z[:, 0]) + 2 * np.abs(z[:, 1]),
               [(1.0, 0.7), (-0.3, 2.0), (0.0, 0.0)]),
    "wavy-2d": (lambda z: (z[:, 0] ** 2 + z[:, 1] ** 2
                           + 0.2 * np.sin(20 * z[:, 0]) * np.sin(20 * z[:, 1])),
                [(1.0, 0.7), (-0.3, 2.0)]),
    "abs-3d": (lambda z: (np.abs(z[:, 0]) + 2 * np.abs(z[:, 1])
                          + 3 * np.abs(z[:, 2] - 0.5)),
               [(1.0, -0.7, 0.2), (0.0, 0.3, 2.0)]),
    "quad-3d": (lambda z: ((z[:, 0] - 1) ** 2 + 10 * (z[:, 1] + 0.5) ** 2
                           + 100 * z[:, 2] ** 2 + z[:, 0] * z[:, 1]),
                [(0.0, 0.0, 0.0), (3.0, 1.0, -1.0)]),
}
REFLECT, EXPAND, OUTSIDE, INSIDE, SHRINK = range(5)


def _lockstep_branches(fun, seed, opts):
    """minimize from one seed, and the branch of each point it evaluated
    after the start simplex: a call of 4 points is one iteration's
    reflected, expanded, outside and inside contracted points; a call of
    n points (2 or 3, never 4) is a shrink."""
    calls = []

    def recording(z):
        calls.append(z.tolist())
        return fun(z)

    got = geometry.minimize(recording, [seed], **opts)
    assert got.nfev == sum(map(len, calls))
    branch = collections.defaultdict(set)
    for call in calls[1:]:
        for k, p in enumerate(call):
            branch[tuple(p)].add(k if len(call) == 4 else SHRINK)
    return got, branch


@pytest.mark.parametrize("maxiter", [400, 30])
@pytest.mark.parametrize("name", list(NM_OBJECTIVES))
def test_minimize_branches_equal_scipy_nelder_mead(name, maxiter):
    """On objectives that expand, contract outside and inside, and shrink,
    and on seeds cut off by maxiter, each seed alone and all seeds in lock
    step give scipy's x and fun bit for bit, and nfev counts the points the
    objective received."""
    fun, seeds = NM_OBJECTIVES[name]
    n = len(seeds[0])
    opts = dict(xatol=1e-10, fatol=1e-12, maxiter=maxiter)
    runs, taken = [], set()
    for seed in seeds:
        points = []

        def one_point(z):
            points.append(tuple(z.tolist()))
            return float(fun(z[None])[0])

        want = scipy_minimize(one_point, seed, method="Nelder-Mead", options=opts)
        assert want.status == (2 if maxiter == 30 else 0)    # 2: maxiter reached
        got, branch = _lockstep_branches(fun, seed, opts)
        assert np.array_equal(got.x, want.x) and got.fun == want.fun
        for p in points[n + 1:]:
            taken |= branch[p]
        runs.append(want)
    received = []

    def batched(z):
        received.append(len(z))
        return fun(z)

    got = geometry.minimize(batched, seeds, **opts)
    want = min(runs, key=lambda r: r.fun)      # the first of equal minima
    assert np.array_equal(got.x, want.x) and got.fun == want.fun
    assert got.nfev == sum(received)
    assert {REFLECT, EXPAND, OUTSIDE, INSIDE} <= taken
    if maxiter == 400 and name in ("wavy-2d", "quad-3d"):
        assert SHRINK in taken


# -- skeleton -------------------------------------------------------------------

def test_disc_skeleton_single_point():
    sk = compute_skeleton(DISC, 0.05)
    pts = sk.points()
    assert np.max(np.hypot(pts[:, 0], pts[:, 1])) <= 0.05
    assert sk.s_min == pytest.approx(1.0, abs=0.01)
    assert sk.s_min > 0.0  # off the boundary


def test_square_skeleton_hausdorff():
    res = 0.02
    sk = compute_skeleton(SQUARE, res)
    assert sk.s_min == 0.0  # touches the boundary
    assert hausdorff(sk.points(), square_skeleton_points()) <= 2 * res


def test_rectangle_skeleton_junctions():
    res = 0.02
    rect = RectangleDomain.centered(1.0, 0.5)
    sk = compute_skeleton(rect, res)
    assert hausdorff(sk.points(), rectangle_skeleton_points(1.0, 0.5)) <= 2 * res
    pts = sk.points()
    for jx in (-0.5, 0.5):
        assert np.min(np.hypot(pts[:, 0] - jx, pts[:, 1])) <= 2 * res


@pytest.mark.parametrize("dom,group", [
    (SQUARE, "d4"),
    (RectangleDomain.centered(1.0, 0.5), "d2"),
    (ellipse_domain(0.75, 1.0), "d2"),
])
def test_skeleton_symmetry(dom, group):
    sk = compute_skeleton(dom, 0.02)
    pts = sk.points()
    images = [pts * [-1, 1], pts * [1, -1], -pts]
    if group == "d4":
        images += [pts[:, ::-1]]
    for img in images:
        assert hausdorff(pts, img) <= 0.04


def test_skeleton_s_below_distance():
    sk = compute_skeleton(POTATO, 0.02)
    pts = sk.points()
    d = POTATO.signed_distance(pts)
    s = sk.s_values()
    assert np.all(s <= d + 1e-6)


def test_skeleton_s_equals_distance_where_nearest_pair():
    # disc center and square diagonal realize s = d exactly
    skd = compute_skeleton(DISC, 0.05)
    assert skd.samples[0].s_value == pytest.approx(
        float(DISC.signed_distance(skd.samples[0].point)), abs=1e-6)
    sks = compute_skeleton(SQUARE, 0.02)
    for smp in sks.samples:
        x, y = smp.point
        if abs(abs(x) - abs(y)) < 1e-9 and 0.2 < abs(x) < 0.8:
            assert smp.s_value == pytest.approx(
                float(SQUARE.signed_distance(smp.point)), abs=1e-9)


def test_ellipse_origin_two_pairs():
    ell = ellipse_domain(0.75, 1.0)
    sk = compute_skeleton(ell, 0.02)
    pts = sk.points()
    i = int(np.argmin(np.hypot(pts[:, 0], pts[:, 1])))
    smp = sk.samples[i]
    assert np.hypot(*smp.point) <= 0.02
    assert smp.s_value == pytest.approx(0.75, abs=1e-3)
    assert len(smp.pair_distances) == 2
    assert sorted(smp.pair_distances) == pytest.approx([0.75, 1.0], abs=1e-3)


def test_ellipse_skeleton_count_is_invariant_under_its_symmetries():
    """The ellipse, its rotation by pi and its mirror image in y give equal
    sample counts: segments along the x = 0 branch, where the two tracked
    distances agree to rounding, are not bisected on rounding noise."""
    k = np.arange(1, len(ELLIPSE.cos_coeffs) + 1)
    sign = (-1.0) ** k
    rotated = SmoothPolarDomain(ELLIPSE.c0, ELLIPSE.cos_coeffs * sign,
                                ELLIPSE.sin_coeffs * sign)
    mirrored = SmoothPolarDomain(ELLIPSE.c0, ELLIPSE.cos_coeffs, -ELLIPSE.sin_coeffs)
    counts = [len(compute_skeleton(dom, 0.05).samples)
              for dom in (ELLIPSE, rotated, mirrored)]
    assert counts[0] == counts[1] == counts[2]


def _golden_rows(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


@pytest.mark.parametrize("dom,res,name", [
    (POTATO, 0.05, "skeleton_potato_res0p05.csv"),
    (ELLIPSE, 0.1, "skeleton_ellipse_res0p1.csv"),
], ids=["potato", "ellipse"])
def test_skeleton_matches_golden(dom, res, name):
    rows = _golden_rows(name)
    sk = compute_skeleton(dom, res)
    assert len(sk.samples) == len(rows)
    ref = np.array([[float(r[0]), float(r[1])] for r in rows])
    pts = sk.points()
    # samples are ordered by x, which on the ellipse's x = 0 branch is
    # rounding noise: match each reference sample to its nearest sample
    gap = np.hypot(ref[:, None, 0] - pts[:, 0], ref[:, None, 1] - pts[:, 1])
    match = np.argmin(gap, axis=1)
    assert sorted(match) == list(range(len(pts)))
    assert np.max(gap.min(axis=1)) <= 1e-9
    branch_of = {}
    for r, i in zip(rows, match):
        smp = sk.samples[i]
        assert smp.s_value == pytest.approx(float(r[2]), abs=1e-9)
        pairs = [float(v) for v in r[4].split(";")]
        assert len(smp.pair_distances) == len(pairs)
        assert smp.pair_distances == pytest.approx(pairs, abs=1e-9)
        branch_of.setdefault(int(r[3]), set()).add(smp.branch)
    # the same branches, whatever their numbers
    assert all(len(b) == 1 for b in branch_of.values())
    assert len(set().union(*branch_of.values())) == len(branch_of)


@st.composite
def sample_clouds(draw):
    """Skeleton samples on a grid of spacing h = 1/8, where distances h
    and 5h (a 3-4-5 offset) are exact, mixed with free points and exact
    duplicates; the radius is h, 5h or free."""
    h = 0.125
    grid = st.tuples(st.integers(-8, 8), st.integers(-8, 8)).map(
        lambda ij: (ij[0] * h, ij[1] * h))
    free = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    pts = draw(st.lists(st.one_of(grid, free), min_size=1, max_size=60))
    dups = draw(st.lists(st.integers(0, len(pts) - 1), max_size=10))
    pts += [pts[k] for k in dups]
    radius = draw(st.sampled_from([h, 5 * h]) | st.floats(0.01, 0.5))
    samples = [geometry.SkeletonSample(point=np.array(p), s_value=float(k),
                                       pair_distances=[float(k)])
               for k, p in enumerate(pts)]
    return samples, radius


@settings(max_examples=300, deadline=None)
@given(sample_clouds())
def test_dedup_and_branch_labels_match_scalar_references(cloud):
    """The array passes keep the samples and number the branches of the
    per-sample loops they replace: strict < for dedup, <= for links."""
    samples, radius = cloud
    assert ([id(s) for s in geometry._dedup_samples(samples, radius)]
            == [id(s) for s in scalar_dedup_samples(samples, radius)])
    geometry._label_branches(samples, radius)
    labels = [s.branch for s in samples]
    scalar_label_branches(samples, radius)
    assert labels == [s.branch for s in samples]


@st.composite
def pair_clouds(draw):
    """0 to 60 points on a grid of spacing 1/8 (exact distances 1/8 and
    5/8, shared x values), free points and exact duplicates, with a
    radius of 1/8, 5/8 or free."""
    h = 0.125
    grid = st.tuples(st.integers(-8, 8), st.integers(-8, 8)).map(
        lambda ij: (ij[0] * h, ij[1] * h))
    free = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    pts = draw(st.lists(st.one_of(grid, free), max_size=60))
    if pts:
        pts += [pts[k] for k in draw(st.lists(st.integers(0, len(pts) - 1), max_size=10))]
    radius = draw(st.sampled_from([h, 5 * h]) | st.floats(0.01, 0.5))
    return np.array(pts, dtype=float).reshape(-1, 2), radius


@settings(max_examples=300, deadline=None)
@given(pair_clouds())
@example((np.empty((0, 2)), 0.1))
@example((np.array([[0.5, 0.5]]), 0.1))
@example((np.array([[0.0, 0.0], [0.0, 0.125], [0.0, 0.125], [0.125, 0.0]]), 0.125))
@example((np.array([[0.0, 0.0], [0.125 * (1.0 + 5e-10), 0.0]]), 0.125))   # in the padding
def test_near_pairs_equal_brute_force_pairs(cloud):
    """The sorted-window pair search returns every pair of the full pair
    list at the padded radius, with bit-identical distances."""
    pts, radius = cloud
    i, j, d = geometry._near_pairs(pts, radius)
    assert np.all(i < j)
    order = np.lexsort((j, i))
    want = brute_force_near_pairs(pts, radius * (1.0 + 1e-9))
    for got, ref in zip((i[order], j[order], d[order]), want):
        assert np.array_equal(got, ref)


def test_dedup_and_links_at_exactly_the_radius():
    pts = [(0.0, 0.0), (0.375, 0.5), (0.375, 0.5), (1.0, 0.5), (2.0, 0.0)]
    samples = [geometry.SkeletonSample(point=np.array(p), s_value=0.0,
                                       pair_distances=[0.0]) for p in pts]
    # neighbours exactly 0.625 apart (one along a 3-4-5 offset) are kept
    # by dedup and linked into one branch; the duplicate is dropped
    kept = geometry._dedup_samples(samples, 0.625)
    assert [id(s) for s in kept] == [id(samples[k]) for k in (0, 1, 3, 4)]
    geometry._label_branches(samples, 0.625)
    assert [s.branch for s in samples] == [0, 0, 0, 0, 1]


def test_dedup_order_survives_last_bit_noise():
    """The ellipse's 9 samples at resolution 0.1 lie on x = 0 with x equal
    to -1.7e-16 of rounding noise. Moved by one ulp in each coordinate,
    they come out of dedup in the same order."""
    samples = compute_skeleton(ELLIPSE, 0.1).samples
    assert len(samples) == 9
    rng = np.random.default_rng(0)
    for _ in range(200):
        moved = [copy.copy(s) for s in samples]
        for s in moved:
            s.point = np.nextafter(s.point, np.where(rng.random(2) < 0.5, -np.inf, np.inf))
        kept = geometry._dedup_samples(moved, 0.025)
        assert [id(s) for s in kept] == [id(s) for s in moved]


def test_rectangle_skeleton_order_survives_last_bit_noise(monkeypatch):
    """The rectangle's samples at resolution 0.01 share their x along the
    mid-lines and diagonals. Each coordinate moved by one ulp before the
    dedup, the 577 samples come out in the order of the exact ones."""
    exact = np.array([s.point for s in compute_skeleton(RECT, 0.01).samples])
    assert len(exact) == 577
    make = geometry._skeleton_samples
    rng = np.random.default_rng(0)

    def nudged(*args):
        samples = make(*args)
        for s in samples:
            s.point = np.nextafter(s.point, np.where(rng.random(2) < 0.5, -np.inf, np.inf))
        return samples

    monkeypatch.setattr(geometry, "_skeleton_samples", nudged)
    for _ in range(20):
        moved = np.array([s.point for s in compute_skeleton(RECT, 0.01).samples])
        assert np.max(np.abs(moved - exact)) <= 4.5e-16


def test_skeleton_requires_positive_resolution():
    with pytest.raises(ValueError):
        compute_skeleton(DISC, 0.0)


@given(st.lists(st.integers(0, 9), min_size=1, max_size=40))
def test_first_positions_match_unique(values):
    a = np.array(values)
    want = np.sort(np.unique(a, return_index=True)[1])
    got = geometry._first_positions(a)
    assert got.dtype == want.dtype and np.array_equal(got, want)


# -- omega level sets -----------------------------------------------------------

def test_omega_coarse_nodes_match_unique():
    for n in range(1, 65):
        c, nearest = geometry._coarse_nodes(n)
        want = np.unique(np.r_[np.arange(0, n, 8), n - 1])
        assert c.dtype == want.dtype == np.int64 and np.array_equal(c, want), n
        assert np.array_equal(nearest, np.abs(np.arange(n)[:, None] - want).argmin(axis=1))


def test_omega_disc_circle():
    loops = omega_set(DISC, 0.4, resolution=0.01)
    assert len(loops) == 1
    r = np.hypot(loops[0][:, 0], loops[0][:, 1])
    assert np.max(np.abs(r - 0.6)) <= 1e-3


def test_omega_square_offset():
    loops = omega_set(SQUARE, 0.25, resolution=0.01)
    assert len(loops) == 1
    d = SQUARE.signed_distance(loops[0])
    assert np.max(np.abs(d - 0.25)) <= 1e-3
    # inner offset of a square is the smaller square
    assert np.max(np.abs(loops[0])) <= 0.75 + 1e-6


def test_omega_potato_small_loop_near_incenter():
    # the deepest ridge carries a secondary peak (d ~ 0.711 near
    # (0.41, -0.11)), so the level must sit above it to isolate the
    # incenter loop
    xc, dmax = max_distance_point(POTATO)
    level = 0.995 * dmax
    loops = omega_set(POTATO, level, resolution=0.005)
    # marching near the flat peak may split off grid-scale fragments, but
    # every piece must hug the incenter at the requested distance
    assert 1 <= len(loops) <= 3
    assert max(len(l) for l in loops) >= 8
    for loop in loops:
        assert np.max(np.hypot(loop[:, 0] - xc[0], loop[:, 1] - xc[1])) <= 0.15
        d = POTATO.signed_distance(loop)
        assert np.max(np.abs(d - level)) <= 2e-3


def test_omega_potato_matches_golden():
    rows = _golden_rows("omega_potato_level0p7.csv")
    loops = omega_set(POTATO, 0.7)
    assert [len(loop) for loop in loops] == np.bincount([int(r[2]) for r in rows]).tolist()
    ref = np.array([[float(r[0]), float(r[1])] for r in rows])
    assert np.max(np.abs(np.concatenate(loops) - ref)) <= 1e-9


def test_omega_beyond_inradius_raises():
    with pytest.raises(RangeError):
        omega_set(DISC, 1.5, resolution=0.02)
    for dom, level in ((POTATO, 0.8), (RECT, 0.51), (SQUARE, 1.01)):
        with pytest.raises(RangeError):
            omega_set(dom, level)


def test_saddle_pairing_follows_the_left_to_right_sum():
    """A saddle cell whose corner values sum to -0.5 left to right and to
    +0.5 exactly: the cell centre counts as negative, so the positive
    corner (0, 0) pairs its bottom crossing with its left one. Python 3.11's
    sum() also adds left to right, so there this guards the written-out sum
    against a regression only; from 3.12 on, sum() pairs the other way."""
    f = (1.0, -1e16, 1e16, -0.5)            # corners (0,0), (1,0), (1,1), (0,1)
    assert ((f[0] + f[1]) + f[2]) + f[3] < 0.0 < math.fsum(f)
    F = np.array([[f[0], f[3]], [f[1], f[2]]])
    segs = geometry._marching_squares(np.array([0.0, 1.0]), np.array([0.0, 1.0]), F)
    pairs = {frozenset((ka, kb)) for ka, _, kb, _ in segs}
    assert pairs == {frozenset({("h", 0, 0), ("v", 0, 0)}),     # bottom, left
                     frozenset({("v", 1, 0), ("h", 0, 1)})}     # right, top


@pytest.mark.parametrize("dom, level", [(POTATO, 0.05), (POTATO, 0.3), (ELLIPSE, 0.3),
                                        (RECT, 0.2)],
                         ids=["potato-0.05", "potato-0.3", "ellipse-0.3", "rect-0.2"])
def test_marching_squares_equals_full_grid_path(dom, level):
    """Gathering the cut cells' corners keeps every segment of the path
    that converted the whole grid to Python floats."""
    xs, ys, F = dense_omega_grid(dom, level)
    segs = geometry._marching_squares(xs, ys, F)
    assert len(segs) > 100
    assert segs == full_grid_marching_squares(xs, ys, F)


def test_marching_squares_equals_full_grid_path_on_saddles():
    """Both saddle pairings, the cell centre on the side of corner (0, 0)
    and opposite it, then a random grid full of saddles."""
    F = np.array([[3.0, -1.0, 3.0], [-1.0, 1.0, -1.0]])
    xs, ys = np.array([0.0, 0.5]), np.array([0.0, 0.25, 0.5])
    segs = geometry._marching_squares(xs, ys, F)
    assert [(ka, kb) for ka, _, kb, _ in segs] == [
        (("h", 0, 0), ("v", 1, 0)), (("h", 0, 1), ("v", 0, 0)),     # centre with (0, 0)
        (("h", 0, 1), ("v", 0, 1)), (("v", 1, 1), ("h", 0, 2))]     # centre against it
    assert segs == full_grid_marching_squares(xs, ys, F)
    F = np.random.default_rng(5).standard_normal((40, 30))
    xs, ys = np.linspace(0.0, 1.0, 40), np.linspace(0.0, 0.7, 30)
    assert geometry._marching_squares(xs, ys, F) == full_grid_marching_squares(xs, ys, F)


# (domain, level, resolution); level None is 0.995 of the potato's depth
BAND_CASES = {
    "potato-0.05": (POTATO, 0.05, None),
    "potato-0.216": (POTATO, 0.216, None),
    "potato-0.7": (POTATO, 0.7, None),
    "potato-incenter": (POTATO, None, 0.005),
    "ellipse-0.3": (ELLIPSE, 0.3, None),
    "disc-0.4": (DISC, 0.4, None),
    "square-0.25": (SQUARE, 0.25, None),
    "rect-0.2": (RECT, 0.2, None),
}


@pytest.mark.parametrize("case", list(BAND_CASES))
def test_omega_band_equals_dense_grid(case):
    dom, level, res = BAND_CASES[case]
    if level is None:
        level = 0.995 * max_distance_point(dom)[1]
    dense = dense_omega_loops(dom, level, res)
    band = omega_set(dom, level, res)
    assert len(band) == len(dense)
    for a, b in zip(band, dense):
        assert np.array_equal(a, b)


def test_omega_band_evaluates_few_nodes(monkeypatch):
    xs, ys = omega_grid(POTATO)
    evaluated = []

    def counting(points):
        evaluated.append(len(np.atleast_2d(points)))
        return SmoothPolarDomain.signed_distance(POTATO, points)

    monkeypatch.setattr(POTATO, "signed_distance", counting)
    for level in (0.05, 0.216, 0.7):
        evaluated.clear()
        omega_set(POTATO, level)
        assert sum(evaluated) < 0.15 * len(xs) * len(ys), level


# -- skeleton arrival time --------------------------------------------------------

def test_arrival_time_square_zero():
    sk = compute_skeleton(SQUARE, 0.02)
    rs = ReactionSolution(Nonlinearity.exponential())
    assert skeleton_arrival_time(sk, rs, 0.1, get_profile4().eta0) == 0.0


def test_arrival_time_disc_positive_and_inverse():
    sk = compute_skeleton(DISC, 0.05)
    rs = ReactionSolution(Nonlinearity.exponential())
    eta0 = get_profile4().eta0
    assert skeleton_arrival_time(sk, rs, 0.1, eta0) > 0.0
    # choose eps so that (s_min/(eta0 eps))^4 = u0(0.5); then T_S = 0.5
    eps = sk.s_min / (eta0 * rs.state(0.5) ** 0.25)
    assert skeleton_arrival_time(sk, rs, eps, eta0) == pytest.approx(0.5,
                                                                     abs=1e-3)


def test_arrival_time_out_of_reaction_range():
    sk = compute_skeleton(DISC, 0.05)
    rs = ReactionSolution(Nonlinearity.custom(lambda u: (1.0 + u) ** 2, "sq2"))
    # tiny eps pushes the required reaction state beyond the table
    assert skeleton_arrival_time(sk, rs, 1e-4, get_profile4().eta0) == np.inf
