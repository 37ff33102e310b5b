"""Asymptotic blow-up predictors built on the layer profiles and geometry.

The short-time solution is the uniform reaction state u0(t) corrected by
one boundary-layer profile per orthogonal foot; its maxima act as
surrogates for the blow-up set. Second order: the profile is monotone,
exponentially small corrections dominate and the prediction collapses to
the distance-function argmax. Fourth order: the profile overshoots at
eta0, so the layer peaks sweep inward along the level set omega(t) of
the distance function; once omega(t) reaches the skeleton, equidistant
feet reinforce and the singularities land on skeleton points where
s(x) = eta0 * phi(T_eps; eps).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RangeError
from .fileio import write_csv
from .geometry import (PlanarDomain, RectangleDomain, Skeleton,
                       max_distance_point, omega_set)
from .profiles import get_correction, get_profile4, v2
from .reaction import TABLE_DELTA, ReactionSolution


@dataclass
class Prediction:
    """Predicted singularity set with the inputs that produced it.

    regime is one of "origin", "strip-pair", "distance-argmax",
    "omega-set", "skeleton-points". points is an (n, d) array; for the
    omega-set regime the full level curves ride along in omega_loops and
    points holds the curvature-ranked candidates (empty when curvature
    cannot discriminate, e.g. the disc ring)."""

    regime: str
    points: np.ndarray
    metadata: dict = field(default_factory=dict)
    candidates: list = field(default_factory=list)
    omega_loops: list = field(default_factory=list)

    @property
    def multiplicity(self):
        return len(self.points)

    def to_csv(self, path):
        dim = self.points.shape[1] if self.points.size else 2
        cands = np.array([c["point"] for c in self.candidates]).reshape(-1, dim)
        taken = np.isclose(cands[:, None], self.points[None]).all(axis=2).any(axis=1)
        write_csv(path, (*("x", "y", "z")[:dim], "selected"),
                  [(*p, 1) for p in self.points.tolist()]
                  + [(*p, 0) for p in cands[~taken].tolist()],
                  [f"regime={self.regime}"]
                  + [f"{k}={self.metadata[k]!r}" for k in sorted(self.metadata)])


# -- one-dimensional ---------------------------------------------------------

def uniform_1d(rs: ReactionSolution, order: int, eps: float, x, t,
               profile=None):
    """Uniformly valid short-time solution on the strip [-1, 1]:
    u0(t) * [1 + v((1-x)/phi) + v((1+x)/phi) - 2]."""
    u0 = rs.state(t)
    phi = rs.gauge(t, eps, order)
    if order == 2:
        v = v2
    else:
        prof = profile if profile is not None else get_profile4()
        v = prof.evaluate
    x = np.asarray(x, dtype=float)
    # (va + vb) - 1 rather than 1 + va + vb - 2: addition commutes bitwise,
    # so mirrored arguments give bitwise-equal values
    return u0 * ((v((1.0 - x) / phi) + v((1.0 + x) / phi)) - 1.0)


def outer_1d_second(rs: ReactionSolution, eps: float, x, t):
    """Outer expansion of the second-order solution, valid for 1 +- x >> phi."""
    u0 = rs.state(t)
    phi = rs.gauge(t, eps, 2)
    x = np.asarray(x, dtype=float)
    if np.any(1.0 - x <= 5.0 * phi) or np.any(1.0 + x <= 5.0 * phi):
        raise RangeError("outer expansion invalid within 5 layer widths of x=+-1")
    c = 8.0 * phi ** 3 / np.sqrt(np.pi)
    corr = ((1.0 - x) ** -3 * np.exp(-(1.0 - x) ** 2 / (4.0 * phi ** 2))
            + (1.0 + x) ** -3 * np.exp(-(1.0 + x) ** 2 / (4.0 * phi ** 2)))
    return u0 * (1.0 - c * corr)


def predict_1d_fourth(rs: ReactionSolution, eps: float, T_eps: float,
                      eta0: float = None) -> Prediction:
    """Crude strip prediction: peaks at +-(1 - eta0 phi_c), merging to the
    origin once eta0 phi_c exceeds 1."""
    if eta0 is None:
        eta0 = get_profile4().eta0
    phi_c = rs.gauge(T_eps, eps, 4)
    meta = dict(eps=eps, order=4, T_eps=T_eps, eta0=eta0, phi_c=phi_c)
    if eta0 * phi_c <= 1.0:
        xc = 1.0 - eta0 * phi_c
        return Prediction("strip-pair", np.array([[-xc], [xc]]), meta)
    return Prediction("origin", np.array([[0.0]]), meta)


# -- two-dimensional ---------------------------------------------------------

def uniform_2d(dom: PlanarDomain, rs: ReactionSolution, order: int, eps: float,
               points, t, profile=None, correction=None):
    """Short-time solution at interior points: u0 plus one curvature-corrected
    layer term per orthogonal foot.

    At the disc centre, the radial limit, the sum has two coincident
    contributions at the common distance: feet_batch gives it two feet."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    u0 = rs.state(t)
    phi = rs.gauge(t, eps, order)
    if order == 2:
        v = v2
    else:
        prof = profile if profile is not None else get_profile4()
        v = prof.evaluate
    vb = correction if correction is not None else get_correction(order)
    feet = dom.feet_batch(pts)
    has = np.arange(feet.distance.shape[1]) < feet.count[:, None]
    eta = feet.distance[has] / phi
    layer, curv = np.zeros(has.shape), np.zeros(has.shape)
    layer[has] = v(eta) - 1.0
    curv[has] = phi * feet.curvature[has] * vb(eta)
    # each slot's terms in foot order, as a scalar loop over a point's feet
    # adds them; a padded slot adds exact zeros
    out = np.ones(len(pts))
    for k in range(has.shape[1]):
        out = (out + layer[:, k]) + curv[:, k]
    out = u0 * out
    return float(out[0]) if np.asarray(points).ndim == 1 else out


def outer_2d_second(dom: PlanarDomain, rs: ReactionSolution, eps: float,
                    points, t):
    """Outer second-order solution: exponentially small foot corrections."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    u0 = rs.state(t)
    phi = rs.gauge(t, eps, 2)
    c = 8.0 * phi ** 3 / np.sqrt(np.pi)
    d = dom.feet_batch(pts).distance
    if np.any(d <= 5.0 * phi):
        raise RangeError("outer expansion invalid within 5 layer widths "
                         "of the boundary")
    # the inf padding adds terms of exactly 0
    out = u0 * (1.0 - c * np.sum(d ** -3 * np.exp(-d * d / (4.0 * phi * phi)), axis=1))
    return float(out[0]) if np.asarray(points).ndim == 1 else out


def predict_second_2d(dom: PlanarDomain, skeleton: Skeleton = None) -> Prediction:
    """Second-order prediction: the distance-function argmax (eps-free)."""
    seeds = None
    if skeleton is not None and skeleton.samples:
        order = np.argsort(-skeleton.s_values())[:8]
        seeds = [skeleton.samples[i].point for i in order]
    xc, d = max_distance_point(dom, seeds=seeds)
    return Prediction("distance-argmax", np.array([xc]),
                      dict(order=2, distance=float(d)))


def predict_fourth_2d(dom: PlanarDomain, skeleton: Skeleton,
                      rs: ReactionSolution, eps: float, T_eps: float,
                      eta0: float = None, profile=None, correction=None
                      ) -> Prediction:
    """Fourth-order prediction via the omega-set / skeleton dichotomy.

    Before the arrival time the blow-up set is the level curve
    omega(T_eps) with discrete candidates picked by boundary curvature;
    after it, skeleton samples matching s(x) = eta0 phi (to 1e-3 of it,
    or 0.75 of the skeleton resolution if that is wider) are ranked by the
    curvature-corrected uniform solution and every sample within 1e-6
    (relative) of the best is reported. When no sample
    matches the level band (level beyond the branch range, e.g. the
    rectangle between its two thresholds or past the deepest point) the
    ranking runs over the whole skeleton, which yields the rectangle's
    two-point and origin regimes."""
    if eta0 is None:
        eta0 = (profile if profile is not None else get_profile4()).eta0
    T_S = skeleton_arrival_time(skeleton, rs, eps, eta0)
    phi_c = rs.gauge(T_eps, eps, 4)
    level = eta0 * phi_c
    meta = dict(eps=eps, order=4, T_eps=T_eps, T_S=T_S, eta0=eta0,
                phi_c=phi_c, level=level)

    if T_eps < T_S:
        loops = omega_set(dom, level)
        cands = _curvature_candidates(dom, loops)
        if cands:
            kmax = max(c["curvature"] for c in cands)
            sel = [c for c in cands
                   if c["curvature"] >= kmax - 1e-6 * max(1.0, abs(kmax))]
            pts = np.array([c["point"] for c in sel])
        else:
            pts = np.empty((0, 2))
        return Prediction("omega-set", pts, meta, candidates=cands,
                          omega_loops=loops)

    samples = skeleton.samples
    s_vals = skeleton.s_values()
    band = max(1e-3 * level, 0.75 * skeleton.resolution)
    idx = np.where(np.abs(s_vals - level) <= band)[0]
    fell_back = len(idx) == 0
    if fell_back:
        idx = np.arange(len(samples))
    pts = np.array([samples[i].point for i in idx])
    vals = uniform_2d(dom, rs, 4, eps, pts, T_eps, profile=profile,
                      correction=correction)
    # local maxima among the matched samples (ties on symmetric domains kept)
    keep = []
    vtol = 1e-12 * max(1.0, np.max(np.abs(vals)))
    for a in range(len(idx)):
        near = np.hypot(*(pts - pts[a]).T) <= 2.6 * skeleton.resolution
        if vals[a] >= np.max(vals[near]) - vtol:
            keep.append(a)
    keep = np.array(keep, dtype=int)
    vmax = np.max(vals[keep])
    band_v = 1e-6 * max(abs(vmax), 1.0)
    win = keep[vals[keep] >= vmax - band_v]
    order_ix = np.lexsort((pts[win][:, 1], pts[win][:, 0]))
    points = pts[win][order_ix]
    # coincident winners (mid-line junctions sampled from two branches)
    distinct = []
    for p in points:
        if not distinct or np.min(np.hypot(*(np.array(distinct) - p).T)) \
                > 0.25 * skeleton.resolution:
            distinct.append(p)
    points = np.array(distinct)
    cands = [dict(point=pts[a], s_value=float(s_vals[idx[a]]),
                  value=float(vals[a]), branch=samples[idx[a]].branch)
             for a in keep]
    cands.sort(key=lambda c: -c["value"])
    meta["fallback_ranking"] = fell_back
    return Prediction("skeleton-points", points, meta, candidates=cands)


def _curvature_candidates(dom, loops):
    """Loop points where the nearest-boundary curvature is locally maximal."""
    if isinstance(dom, RectangleDomain):
        return []  # flat edges: curvature cannot discriminate
    cands = []
    for loop in loops:
        th, _, _ = dom.nearest_feet_grid(loop)
        kap = dom.curvature(th)
        if np.max(kap) - np.min(kap) < 1e-9:
            continue  # radially symmetric: no discrete selection
        prev, nxt = np.roll(kap, 1), np.roll(kap, -1)
        peak = (kap >= prev) & (kap >= nxt) & ((kap > prev) | (kap > nxt))
        cands += [dict(point=loop[i], curvature=float(kap[i]))
                  for i in np.flatnonzero(peak)]
    cands.sort(key=lambda c: -c["curvature"])
    return cands


def skeleton_arrival_time(skel: Skeleton, rs, eps: float, eta0: float) -> float:
    """First time the inward-moving layer-peak set reaches the skeleton.

    T_S solves s_min = eta0 * phi(t; eps); zero when the skeleton touches
    the boundary, +inf when the required reaction state is out of range."""
    if skel.s_min <= 0.0:
        return 0.0
    u_target = (skel.s_min / (eta0 * eps)) ** 4
    try:
        return float(rs.invert(u_target))
    except (OverflowError, RangeError):
        return np.inf


def critical_eps(rs: ReactionSolution, s_target: float, eta0: float = None) -> float:
    """Solve s_target = eta0 * phi(T; eps) for eps, at the regularized
    reaction blow-up time T = T0 * (1 - delta), the leading-order
    stand-in when no measured blow-up time is available. phi is linear
    in eps, so eps = s_target / (eta0 * phi(T; 1))."""
    if s_target < 0.0:
        raise RangeError("s_target is a distance and must be >= 0")
    if eta0 is None:
        eta0 = get_profile4().eta0
    return s_target / (eta0 * rs.gauge(rs.T0 * (1.0 - TABLE_DELTA), 1.0, 4))
