"""Planar domains: curvature, orthogonal feet, distance, skeleton, level sets.

Two domain families cover everything the predictors need: smooth
star-shaped regions given by a trigonometric-polynomial radius r(theta),
and axis-aligned rectangles. An "orthogonal foot" of an interior point x
is a boundary point y whose segment to x stays inside the domain and
meets the boundary perpendicularly; the skeleton is the set of interior
points with at least two equidistant orthogonal feet, and s(x) is the
smallest such equidistant distance. omega-level sets of the boundary
distance build directly on these, and so does the predictor.

Rectangles get closed-form feet and an exact skeleton (mid-lines plus
the four corner bisectors). Smooth domains are sampled on a grid; the
skeleton is located by jumps of the nearest-foot position between
neighboring grid points (parameter continuity is useless near focal
points, e.g. the disc center, where foot angles rotate arbitrarily
fast), then each detection is refined by bisection to the equidistance
locus.

Smooth domains cache 4096 boundary samples. A nearest-boundary query
seeds Newton from the nearest sample, found by a branch and bound over
blocks of consecutive samples (Fukunaga and Narendra 1975): a block
whose centre lies farther than the nearest centre plus the block's
covering radius cannot hold the nearest sample. r, r' and r'' come
from one pass over the harmonics: a blocked cos/sin table times a
coefficient matrix. The feet of many points come back as one table
of padded arrays (Feet). Their bisection, equidistance refinement and
Newton tracking are array passes, not loops over points. The tables
that would grow with a batch times the samples or the harmonics (the
nearest-boundary search, the feet scan, the segment test, the trig
table) go in chunks of a fixed size, so the working set grows only
with the per-point results, and no value depends on its batch.
Marching squares (Lorensen and Cline 1987) visits only the cells the
level set crosses, and the distance on its grid is exact only in a
narrow band around the level set.
"""

from __future__ import annotations

import types
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.fft import rfft

from .errors import RangeError
from .fileio import write_csv

TWO_PI = 2.0 * np.pi
# entries of one block of the cos/sin table in SmoothPolarDomain: 0.5 MB,
# 512 points of the 64-harmonic ellipse
_TRIG_TABLE_ELEMS = 1 << 16


@dataclass(frozen=True)
class Feet:
    """Orthogonal feet of n points as one table: row i holds the feet of
    point i, nearest first, in k = max(count) slots.

    point (n, k, 2), param, distance and curvature (n, k); slots past a
    row's count hold nan, and inf as their distance."""

    point: np.ndarray
    param: np.ndarray
    distance: np.ndarray
    curvature: np.ndarray
    count: np.ndarray


def _feet_table(n, row, point, param, distance, curvature) -> Feet:
    """Feet of n points from flat per-foot arrays, row[j] the point of
    foot j. The sort on distance within a row is stable, so equidistant
    feet keep the order they came in."""
    order = np.lexsort((distance, row))
    row = row[order]
    count = np.bincount(row, minlength=n)
    slot = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
    shape = (n, count.max(initial=0))

    def table(values, fill):
        out = np.full(shape + values.shape[1:], fill)
        out[row, slot] = values[order]
        return out

    return Feet(point=table(point, np.nan), param=table(param, np.nan),
                distance=table(distance, np.inf),
                curvature=table(curvature, np.nan), count=count)


def _polar_frame(th, r, r1):
    """Point and unit tangent of a polar boundary at th from r and r'."""
    c, s = np.cos(th), np.sin(th)
    tx = r1 * c - r * s
    ty = r1 * s + r * c
    n = np.hypot(tx, ty)
    return np.stack([r * c, r * s], axis=-1), np.stack([tx / n, ty / n], axis=-1)


def _squared_distances(ax, ay, bx, by):
    """(ax - bx)**2 + (ay - by)**2, broadcast, in place after the
    differences; swapping a and b keeps every bit."""
    d = ax - bx
    e = ay - by
    np.square(d, out=d)
    d += np.square(e, out=e)
    return d


def _curvature(r, r1, r2):
    """Curvature of a polar boundary from r, r' and r''."""
    return (r * r + 2.0 * r1 * r1 - r * r2) / (r * r + r1 * r1) ** 1.5


class PlanarDomain:
    """Common interface; see SmoothPolarDomain and RectangleDomain."""

    @property
    def diameter(self):
        (x0, x1), (y0, y1) = self.bounding_box
        return float(np.hypot(x1 - x0, y1 - y0))


class SmoothPolarDomain(PlanarDomain):
    """Star-shaped region r < r(theta), r a trigonometric polynomial.

    r(theta) = c0 + sum_k a_k cos(k theta) + b_k sin(k theta). Positivity
    of r is checked on a dense grid at construction; a polar graph is
    star-shaped with respect to the origin by construction. A warning is
    emitted when max|curvature| * min r exceeds ROUGHNESS_BOUND: the
    layer expansion behind the predictors assumes O(1) curvature.

    Construction makes one pass over the harmonics on the N_BOUNDARY
    samples; the positivity test, the roughness curvature and the cached
    points and tangents come from it by the expressions of `curvature`
    and `_point_tangent`, so they equal those methods at the samples bit
    for bit. The nearest-sample search splits the samples into blocks of
    BLOCK consecutive ones, each with its middle sample as centre and a
    covering radius; batches of at most BRUTE_MAX points compare every
    sample instead, and larger batches go CHUNK points at a time, so the
    candidate tables stay small. Both paths compare the same squared
    distances and take the lowest index among equal minima, so a point's
    seed does not depend on its batch. A nearest-boundary query takes
    NEAREST_CHUNK points at a time, the feet scan SCAN_CHUNK points and
    the segment test ROOT_CHUNK roots, so that their scratch tables do
    not grow with the batch.
    """

    N_BOUNDARY = 4096
    ROUGHNESS_BOUND = 50.0
    BLOCK = 64
    BRUTE_MAX = 4
    CHUNK = 128
    SCAN_CHUNK = 64
    ROOT_CHUNK = 256
    NEAREST_CHUNK = 4096

    def __init__(self, c0, cos_coeffs=(), sin_coeffs=()):
        self.c0 = float(c0)
        self.cos_coeffs = np.asarray(cos_coeffs, dtype=float)
        self.sin_coeffs = np.asarray(sin_coeffs, dtype=float)
        if len(self.cos_coeffs) != len(self.sin_coeffs):
            raise ValueError("cos and sin coefficient lists must have equal length")
        a, b = self.cos_coeffs, self.sin_coeffs
        self._k = np.arange(1, len(a) + 1, dtype=float)
        k, k2 = self._k, self._k ** 2
        # columns r - c0, r', r'' against the rows [cos(k th); sin(k th)]
        self._harmonics = np.column_stack([np.concatenate([a, b]),
                                           np.concatenate([k * b, -k * a]),
                                           np.concatenate([-k2 * a, -k2 * b])])
        th = np.linspace(0.0, TWO_PI, self.N_BOUNDARY, endpoint=False)
        r, r1, r2 = self._radius_derivs(th)
        if np.any(r <= 0.0):
            raise ValueError("polar radius must be positive everywhere")
        kap = _curvature(r, r1, r2)
        if np.max(np.abs(kap)) * np.min(r) > self.ROUGHNESS_BOUND:
            warnings.warn(
                "boundary is rough/spiky (max|kappa|*min r = "
                f"{np.max(np.abs(kap)) * np.min(r):.1f}); layer predictions "
                "are unreliable here", stacklevel=2)
        # dense boundary cache used by distance and foot queries
        self._th = th
        self._bp, self._tau = _polar_frame(th, r, r1)         # (N, 2) each
        # nearest-sample blocks (nb, BLOCK); the covering radius is inflated
        # so that rounding cannot prune a block holding a true minimum
        bx, by = (v.reshape(-1, self.BLOCK) for v in self._bp.T)
        cx, cy = bx[:, self.BLOCK // 2], by[:, self.BLOCK // 2]
        self._blocks, self._centres = (bx, by), (cx, cy)
        cover2 = _squared_distances(bx, by, cx[:, None], cy[:, None])
        self._cover = np.sqrt(cover2.max(axis=1)) * (1.0 + 1e-9)

    # -- radius and derivatives --------------------------------------------
    def _radius_derivs(self, th):
        """r, r' and r'' at th (any shape) from one cos/sin pass.

        The trig table [cos(k th), sin(k th)] is built in blocks of theta
        so that it stays near 0.5 MB for any number of harmonics and
        points. The harmonic sums go through einsum, not a BLAS product:
        BLAS picks its kernel by matrix size, so a point's last bit would
        depend on the batch it arrives in. With einsum every value is
        independent of its batch, and batched callers reproduce
        single-point calls."""
        th = np.asarray(th, dtype=float)
        flat = th.reshape(-1)
        out = np.zeros((3, flat.size))
        K = len(self._k)
        if K:
            step = max(1, _TRIG_TABLE_ELEMS // (2 * K))
            table = np.empty((min(step, flat.size), 2 * K))
            for lo in range(0, flat.size, step):
                kt = np.multiply.outer(flat[lo:lo + step], self._k)
                m = len(kt)
                np.cos(kt, out=table[:m, :K])
                np.sin(kt, out=table[:m, K:])
                out[:, lo:lo + m] = np.einsum("pk,kj->jp", table[:m], self._harmonics,
                                              optimize=False)
        out[0] += self.c0
        return tuple(v.reshape(th.shape) for v in out)

    def radius(self, th):
        return self._radius_derivs(th)[0]

    def radius_d1(self, th):
        return self._radius_derivs(th)[1]

    def radius_d2(self, th):
        return self._radius_derivs(th)[2]

    # -- boundary geometry ---------------------------------------------------
    def point_at(self, th):
        r = self._radius_derivs(th)[0]
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)

    def _point_tangent(self, th):
        """Boundary point y(th) and unit tangent, each th.shape + (2,)."""
        r, r1, _ = self._radius_derivs(th)
        return _polar_frame(th, r, r1)

    def curvature(self, th):
        return _curvature(*self._radius_derivs(th))

    @property
    def bounding_box(self):
        x, y = self._bp[:, 0], self._bp[:, 1]
        return (float(x.min()), float(x.max())), (float(y.min()), float(y.max()))

    # -- membership and distance ---------------------------------------------
    def contains(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        th = np.arctan2(pts[:, 1], pts[:, 0])
        rho = np.hypot(pts[:, 0], pts[:, 1])
        out = rho < self.radius(th)
        return bool(out[0]) if np.asarray(points).ndim == 1 else out

    def _newton_foot(self, pts, th, iters, max_step):
        """Newton on h(theta) = 0.5 |x - y(theta)|^2 for paired points and
        start parameters; steps are clipped to +-max_step, and a point
        where h'' vanishes keeps its parameter."""
        for _ in range(iters):
            r, r1, r2 = self._radius_derivs(th)
            c, s = np.cos(th), np.sin(th)
            dx, dy = pts[:, 0] - r * c, pts[:, 1] - r * s
            ypx, ypy = r1 * c - r * s, r1 * s + r * c
            yppx, yppy = (r2 - r) * c - 2 * r1 * s, (r2 - r) * s + 2 * r1 * c
            g = -(dx * ypx + dy * ypy)
            gp = (ypx * ypx + ypy * ypy) - (dx * yppx + dy * yppy)
            ok = np.abs(gp) > 1e-14
            step = np.where(ok, g / np.where(ok, gp, 1.0), 0.0)
            th = th - np.clip(step, -max_step, max_step)
        return th

    def _nearest_sample(self, pts):
        """Index of the nearest boundary sample of each point, the lowest
        among equal squared distances (px - sx)**2 + (py - sy)**2."""
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        px, py = pts[:, :1], pts[:, 1:]
        if len(pts) <= self.BRUTE_MAX:
            return _squared_distances(px, py, *self._bp.T).argmin(axis=1)
        bx, by = self._blocks
        seed = np.empty(len(pts), dtype=np.intp)
        # one candidate table for all chunks, grown as needed: a fresh one
        # per chunk page-faults again wherever freed memory goes back to
        # the system
        work = np.empty((2, 0, self.BLOCK))
        for lo in range(0, len(pts), self.CHUNK):
            qx, qy = px[lo:lo + self.CHUNK], py[lo:lo + self.CHUNK]
            dc2 = _squared_distances(qx, qy, *self._centres)
            # the nearest centre is a sample, so its distance bounds the
            # answer; a block farther than that plus its cover holds no
            # closer sample
            reach = np.sqrt(dc2.min(axis=1, keepdims=True)) + self._cover
            row, blk = np.nonzero(dc2 <= np.square(reach, out=reach))
            m = len(row)
            if m > work.shape[1]:
                work = np.empty((2, m, self.BLOCK))
            dx, dy = work[:, :m]
            np.take(bx, blk, axis=0, out=dx, mode="clip")
            np.take(by, blk, axis=0, out=dy, mode="clip")
            dx -= qx[row]
            dy -= qy[row]
            np.square(dx, out=dx)
            dx += np.square(dy, out=dy)
            col = dx.argmin(axis=1)
            # each point's minimum per block, inf where pruned; blocks hold
            # consecutive samples, so the first minimal block and its first
            # minimal column give the lowest index
            dc2.fill(np.inf)
            dc2[row, blk] = dx[np.arange(m), col]
            near = dc2.argmin(axis=1)
            cols = np.zeros(dc2.shape, dtype=np.intp)
            cols[row, blk] = col
            seed[lo:lo + self.CHUNK] = near * self.BLOCK + cols[np.arange(len(near)), near]
        return seed

    def _nearest_on_boundary(self, pts):
        """Nearest boundary parameter + distance for many points: the
        nearest boundary sample, polished by 3 Newton steps."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        th, d, y = np.empty(len(pts)), np.empty(len(pts)), np.empty((len(pts), 2))
        for lo in range(0, len(pts), self.NEAREST_CHUNK):
            part = slice(lo, lo + self.NEAREST_CHUNK)
            seed = self._nearest_sample(pts[part])
            th[part] = self._newton_foot(pts[part], self._th[seed], 3, 0.01)
            y[part] = self.point_at(th[part])
            d[part] = np.hypot(*(pts[part] - y[part]).T)
        return th, d, y

    def signed_distance(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        _, d, _ = self._nearest_on_boundary(pts)
        sign = np.where(self.contains(pts), 1.0, -1.0)
        out = sign * d
        return float(out[0]) if np.asarray(points).ndim == 1 else out

    # -- orthogonal feet -------------------------------------------------------
    def feet_batch(self, pts) -> Feet:
        """All orthogonal feet of each point; vectorized bisection refine.

        The residual g = (x - y(theta)) . tau(theta) on the cached boundary
        samples catches every sign change. The scan takes SCAN_CHUNK points
        at a time in reused tables, then all roots of all points are
        polished together by bisection, and a foot is kept only if the
        full segment to it stays inside the domain. At an exactly radial
        point (all residuals ~ 0, the disc centre) every boundary point is
        a foot; it gets the two at theta = 0 and pi, at their common
        distance, the radial limit of a pair of opposite feet. Every step
        is elementwise per point, so a point's feet do not depend on its
        batch, and only the per-root arrays grow with it.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        scale = max(self.c0, np.abs(self.cos_coeffs).sum()
                    + np.abs(self.sin_coeffs).sum())
        bx, by = self._bp.T
        tx, ty = self._tau.T
        n = len(pts)
        degenerate = np.zeros(n, dtype=bool)
        G = np.empty((min(n, self.SCAN_CHUNK), self.N_BOUNDARY))
        work = np.empty_like(G)
        # per root: its point, the sample below it and g there
        no_roots = np.empty(0, dtype=np.intp)
        rows, cols, g_los = [no_roots], [no_roots], [np.empty(0)]
        for lo in range(0, n, self.SCAN_CHUNK):
            chunk = pts[lo:lo + self.SCAN_CHUNK]
            g, w = G[:len(chunk)], work[:len(chunk)]
            np.subtract(chunk[:, :1], bx, out=g)
            g *= tx
            np.subtract(chunk[:, 1:], by, out=w)
            w *= ty
            g += w
            degen = degenerate[lo:lo + self.SCAN_CHUNK] = (
                np.abs(g, out=w).max(axis=1) < 1e-11 * scale)
            # a root lies between neighbouring samples of opposite signs
            # (the sample grid wraps around); an exact zero at a grid node
            # (g(0)=0 on the disc axis) must count as a root too
            pos, neg = g > 0.0, g < 0.0
            root = (pos & np.roll(neg, -1, axis=1)) | (neg & np.roll(pos, -1, axis=1))
            root |= g == 0.0
            root[degen] = False
            r, c = np.nonzero(root)
            rows.append(r + lo)
            cols.append(c)
            g_los.append(g[r, c])
        row, col, g_lo = (np.concatenate(v) for v in (rows, cols, g_los))
        P = pts[row]
        th_lo = self._th[col]
        th_hi = th_lo + (self._th[1] - self._th[0])
        for _ in range(45):
            mid = 0.5 * (th_lo + th_hi)
            y, tau = self._point_tangent(mid)
            gm = ((P - y) * tau).sum(axis=1)
            take_lo = np.sign(gm) == np.sign(g_lo)
            th_lo = np.where(take_lo, mid, th_lo)
            g_lo = np.where(take_lo, gm, g_lo)
            th_hi = np.where(take_lo, th_hi, mid)
        th_star = 0.5 * (th_lo + th_hi)
        y = self.point_at(th_star)
        keep = self._segments_inside(P, y)
        P, y, th_star = P[keep], y[keep], th_star[keep]
        # each degenerate point's two feet: at 0 and pi, the common distance
        deg = np.repeat(np.flatnonzero(degenerate), 2)
        th_deg = np.tile([0.0, np.pi], len(deg) // 2)
        dist = np.concatenate([np.hypot(*(P - y).T),
                               float(self.radius(0.0)) - np.hypot(*pts[deg].T)])
        th_star = np.concatenate([th_star, th_deg])
        return _feet_table(n, np.concatenate([row[keep], deg]),
                           np.concatenate([y, self.point_at(th_deg)]), th_star % TWO_PI,
                           dist, self.curvature(th_star))

    def _segments_inside(self, x, y):
        """Whether each segment x[i] -> y[i] stays inside, on 64 points;
        ROOT_CHUNK segments at a time."""
        s = np.linspace(0.0, 1.0, 65)[:-1, None]
        inside = np.empty(len(x), dtype=bool)
        for lo in range(0, len(x), self.ROOT_CHUNK):
            a, b = x[lo:lo + self.ROOT_CHUNK, None, :], y[lo:lo + self.ROOT_CHUNK, None, :]
            P = a + s * (b - a)
            th = np.arctan2(P[..., 1], P[..., 0])
            rho = np.hypot(P[..., 0], P[..., 1])
            inside[lo:lo + self.ROOT_CHUNK] = np.all(
                rho <= self.radius(th) * (1.0 + 1e-9) + 1e-12, axis=1)
        return inside

    # the public name; signed_distance calls the body by its own name, so
    # a wrapper of this one sees each query once
    nearest_feet_grid = _nearest_on_boundary


class RectangleDomain(PlanarDomain):
    """Axis-aligned rectangle [x0, x1] x [y0, y1].

    Edges are numbered 0: bottom, 1: right, 2: top, 3: left; the boundary
    parameter is arc length counterclockwise from (x0, y0). Corners carry
    no tangent and are excluded as orthogonal feet but participate in the
    distance function.
    """

    def __init__(self, x0, x1, y0, y1):
        if not (x1 > x0 and y1 > y0):
            raise ValueError("degenerate rectangle")
        self.x0, self.x1, self.y0, self.y1 = map(float, (x0, x1, y0, y1))
        self.cx = 0.5 * (x0 + x1)
        self.cy = 0.5 * (y0 + y1)
        self.a = 0.5 * (x1 - x0)  # half-width in x
        self.b = 0.5 * (y1 - y0)  # half-width in y

    @classmethod
    def centered(cls, a, b):
        """Rectangle [-a, a] x [-b, b]."""
        return cls(-a, a, -b, b)

    @property
    def bounding_box(self):
        return (self.x0, self.x1), (self.y0, self.y1)

    def contains(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = ((pts[:, 0] > self.x0) & (pts[:, 0] < self.x1)
               & (pts[:, 1] > self.y0) & (pts[:, 1] < self.y1))
        return bool(out[0]) if np.asarray(points).ndim == 1 else out

    def signed_distance(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dx = np.minimum(pts[:, 0] - self.x0, self.x1 - pts[:, 0])
        dy = np.minimum(pts[:, 1] - self.y0, self.y1 - pts[:, 1])
        inside = np.minimum(dx, dy)
        # outside: distance to the box, negated
        ox = np.maximum(np.maximum(self.x0 - pts[:, 0], pts[:, 0] - self.x1), 0.0)
        oy = np.maximum(np.maximum(self.y0 - pts[:, 1], pts[:, 1] - self.y1), 0.0)
        outside = np.hypot(ox, oy)
        out = np.where((dx >= 0) & (dy >= 0), inside, -outside)
        return float(out[0]) if np.asarray(points).ndim == 1 else out

    def feet_batch(self, pts) -> Feet:
        """The four edge feet of each point, the perpendicular projections
        onto the edges' lines, nearest first."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        W, H = self.x1 - self.x0, self.y1 - self.y0
        px, py = pts[:, :1], pts[:, 1:]
        one = np.ones_like(px)
        # edges 0..3 in the columns
        point = np.stack([np.hstack([px, self.x1 * one, px, self.x0 * one]),
                          np.hstack([self.y0 * one, py, self.y1 * one, py])], axis=-1)
        param = np.hstack([px - self.x0, W + (py - self.y0),
                           2 * W + H - (px - self.x0), 2 * (W + H) - (py - self.y0)])
        dist = np.hstack([py - self.y0, self.x1 - px, self.y1 - py, px - self.x0])
        return _feet_table(len(pts), np.repeat(np.arange(len(pts)), 4),
                           point.reshape(-1, 2), param.ravel(), dist.ravel(),
                           np.zeros(dist.size))


# -- skeleton ------------------------------------------------------------------

@dataclass
class SkeletonSample:
    point: np.ndarray
    s_value: float
    pair_distances: list      # one distance per qualifying equidistant class
    branch: int = -1


@dataclass
class Skeleton:
    samples: list
    resolution: float
    s_min: float                       # inf of s(x); 0 if it touches the boundary

    def points(self):
        return np.array([s.point for s in self.samples])

    def s_values(self):
        return np.array([s.s_value for s in self.samples])

    def to_csv(self, path):
        write_csv(path, ("x", "y", "s", "branch"),
                  [(*s.point, s.s_value, s.branch) for s in self.samples])


def _equidistant_firsts(distance, tol):
    """Mask of the first distance of each class of two or more equidistant
    feet in rows sorted ascending: a class is a run whose consecutive
    gaps are <= tol. inf padding joins no class."""
    with np.errstate(invalid="ignore"):            # inf - inf: nan, no link
        link = np.diff(distance, axis=1) <= tol
    pad = np.zeros((len(distance), 1), dtype=bool)
    # a run starts where no link comes in and goes on where one goes out
    return ~np.hstack([pad, link]) & np.hstack([link, pad])


def _skeleton_samples(dom, pts, tol):
    """A SkeletonSample at each point with a class of two or more
    equidistant feet; s is the smallest class distance."""
    feet = dom.feet_batch(pts)
    first = _equidistant_firsts(feet.distance, tol)
    return [SkeletonSample(point=p, s_value=q[0], pair_distances=q)
            for p, dist, m in zip(pts, feet.distance, first) if (q := dist[m].tolist())]


def _first_positions(a):
    """Ascending positions of each value's first entry in the 1-D a:
    np.sort(np.unique(a, return_index=True)[1]), without np.unique's
    import of numpy.ma."""
    order = np.argsort(a, kind="stable")
    s = a[order]
    return np.sort(order[np.r_[True, s[1:] != s[:-1]]])


def _label_branches(samples, link_radius):
    """Connected-component labels over samples linked at distance <=
    link_radius, numbered in the (x, y) order of each component's first
    sample."""
    if not samples:
        return
    pts = np.array([s.point for s in samples])
    i, j, d = _near_pairs(pts, link_radius)
    link = d <= link_radius
    i, j = i[link], j[link]
    # hook the larger root of each link onto the smaller, then jump
    # pointers until every sample points at its root
    root = np.arange(len(pts))
    while True:
        ri, rj = root[i], root[j]
        if np.array_equal(ri, rj):
            break
        lo = np.minimum(ri, rj)
        np.minimum.at(root, ri, lo)
        np.minimum.at(root, rj, lo)
        while not np.array_equal(root[root], root):
            root = root[root]
    first = root[np.lexsort((pts[:, 1], pts[:, 0]))]
    label = np.empty(len(pts), dtype=int)
    starts = _first_positions(first)
    label[first[starts]] = np.arange(len(starts))
    for s, b in zip(samples, label[root].tolist()):
        s.branch = b


def compute_skeleton(dom: PlanarDomain, resolution: float) -> Skeleton:
    """Sample the skeleton of the domain at the given spacing."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if isinstance(dom, RectangleDomain):
        return _rectangle_skeleton(dom, resolution)
    return _smooth_skeleton(dom, resolution)


def _rectangle_skeleton(dom: RectangleDomain, res: float) -> Skeleton:
    """Exact skeleton: both mid-lines plus the four corner bisectors.

    Every mid-line point has an equidistant opposite-edge pair; the corner
    bisectors are equidistant to their two adjacent edges, reaching the
    corners where s -> 0 (so the skeleton touches the boundary and the
    arrival time is zero)."""
    a, b, cx, cy = dom.a, dom.b, dom.cx, dom.cy
    nH = max(int(np.ceil(2 * a / res)), 2)
    nV = max(int(np.ceil(2 * b / res)), 2)
    c = min(a, b)
    nD = max(int(np.ceil(c * np.sqrt(2.0) / res)), 2)
    ts = np.linspace(0.0, c, nD + 1)[1:]
    xs = np.linspace(cx - a, cx + a, nH + 1)[1:-1]
    ys = np.linspace(cy - b, cy + b, nV + 1)[1:-1]
    pts = [np.column_stack([xs, np.full_like(xs, cy)]),
           np.column_stack([np.full_like(ys, cx), ys])]
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            pts.append(np.column_stack([cx + sx * (a - ts), cy + sy * (b - ts)]))
    samples = _skeleton_samples(dom, np.concatenate(pts), 1e-9 * dom.diameter)
    # sort keys on multiples of 1e-6 res; 1e-6 of this radius is ~20 ulps
    samples = _dedup_samples(samples, 1e-9 * dom.diameter, 1e-6 * res)
    _label_branches(samples, 1.8 * res)
    return Skeleton(samples=samples, resolution=res, s_min=0.0)


def _smooth_skeleton(dom: SmoothPolarDomain, res: float) -> Skeleton:
    (bx0, bx1), (by0, by1) = dom.bounding_box
    xs = np.arange(bx0, bx1 + res, res)
    ys = np.arange(by0, by1 + res, res)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    inside = dom.contains(pts)
    # one nearest-boundary query per inside point: its distance, foot and
    # parameter do not depend on the batch
    sd, th = np.full(len(pts), -1.0), np.full(len(pts), np.nan)
    yb = np.full((len(pts), 2), np.nan)
    th[inside], sd[inside], yb[inside] = dom.nearest_feet_grid(pts[inside])
    # only points a little off the boundary participate
    ok = inside & (sd > 0.3 * res)

    ok2 = ok.reshape(X.shape)
    ybg = yb.reshape(X.shape + (2,))
    thg = th.reshape(X.shape)
    P, Q, TP, TQ = [], [], [], []
    for axis in (0, 1):
        sl_a = (slice(None, -1), slice(None)) if axis == 0 else (slice(None), slice(None, -1))
        sl_b = (slice(1, None), slice(None)) if axis == 0 else (slice(None), slice(1, None))
        both = ok2[sl_a] & ok2[sl_b]
        jump = np.hypot(ybg[sl_a][..., 0] - ybg[sl_b][..., 0],
                        ybg[sl_a][..., 1] - ybg[sl_b][..., 1])
        hits = both & (jump > max(6.0 * res, 0.05 * dom.diameter) * 0.5)
        ii, jj = np.where(hits)
        ki, kj = ii + (axis == 0), jj + (axis == 1)
        P.append(np.column_stack([xs[ii], ys[jj]]))
        Q.append(np.column_stack([xs[ki], ys[kj]]))
        TP.append(thg[ii, jj])
        TQ.append(thg[ki, kj])

    refined, found = _refine_equidistance(
        dom, *(np.concatenate(c) for c in (P, Q, TP, TQ)))
    samples = _skeleton_samples(dom, refined[found], 1e-6 * dom.diameter)
    # dedup near-coincident samples
    samples = _dedup_samples(samples, 0.25 * res)
    if not samples:
        raise RangeError("no skeleton detections; resolution too coarse")
    _label_branches(samples, 1.8 * res)
    s_min = float(min(s.s_value for s in samples))
    # a skeleton within two samples of the boundary touches it
    return Skeleton(samples=samples, resolution=res,
                    s_min=0.0 if s_min <= 2.0 * res else s_min)


def _refine_equidistance(dom: SmoothPolarDomain, p, q, th_a, th_b):
    """Bisect each segment [p_i, q_i] (40 halvings) for the point where
    the nearest feet approached from either endpoint become equidistant;
    th_a and th_b are the nearest-foot parameters of p and q.

    All segments are bisected together. Returns the points and a mask of
    the segments that gave one."""

    def delta(x, rows):
        # both tracks in one call: values do not depend on the batch
        d = _tracked_distance(dom, np.concatenate([x, x]),
                              np.concatenate([th_a[rows], th_b[rows]]))
        return d[:len(x)] - d[len(x):]

    # |delta| <= tol is rounding, and counts as zero. Each tracked distance
    # is a hypot of coordinate differences no larger than the diameter D,
    # so its rounding error is a few eps D (at most eps D measured along the
    # skeletons of the ellipse and the disc), far below tol = 64 eps D. A
    # point with a true |delta| <= tol lies within tol / |grad delta| of the
    # equidistance set, about what 40 halvings of a res-long segment
    # resolve. Without the bound, a segment along the skeleton is bisected
    # on noise.
    tol = 64.0 * np.finfo(float).eps * dom.diameter
    fa = delta(p, slice(None))
    fb = delta(q, slice(None))
    fa[np.abs(fa) <= tol] = 0.0
    fb[np.abs(fb) <= tol] = 0.0
    # where the endpoints already agree the midpoint is the best guess
    out = 0.5 * (p + q)
    agree = ~np.isfinite(fa) | ~np.isfinite(fb) | (fa * fb > 0)
    found = ~agree | dom.contains(out)
    lo, hi = p.copy(), q.copy()
    act = np.flatnonzero(~agree)
    for _ in range(40):
        mid = 0.5 * (lo[act] + hi[act])
        fm = delta(mid, act)
        hit = np.abs(fm) <= tol
        out[act[hit]] = mid[hit]
        side = np.sign(fm) == np.sign(fa[act])
        lo[act[side]] = mid[side]
        fa[act[side]] = fm[side]
        hi[act[~side]] = mid[~side]
        act = act[~hit]
    out[act] = 0.5 * (lo[act] + hi[act])
    return out, found


def _tracked_distance(dom: SmoothPolarDomain, x, th0):
    """Distance from each point to its foot tracked from parameter th0
    (four Newton steps)."""
    th = dom._newton_foot(x, th0, 4, 0.2)
    return np.hypot(*(x - dom.point_at(th)).T)


def _dedup_samples(samples, radius, quantum=None):
    """Samples in (x, y) order, each dropped when closer than radius to
    an earlier kept one. The order compares coordinates rounded to
    multiples of quantum, 1e-6 radius unless given, so rounding noise (x
    is +-1.7e-16 on the ellipse's x = 0 branch) cannot flip it; equal
    keys keep the input order."""
    if not samples:
        return []
    pts = np.array([s.point for s in samples])
    key = np.round(pts / (1e-6 * radius if quantum is None else quantum))
    order = np.lexsort((key[:, 1], key[:, 0]))
    i, j, d = _near_pairs(pts[order], radius)
    # one greedy pass over the close pairs in (x, y) order of their first
    # sample, which is final when its pairs come up: a live one is kept
    # and kills the other
    close = np.flatnonzero(d < radius)
    close = close[np.argsort(i[close], kind="stable")]
    live = np.ones(len(pts), dtype=bool)
    for a, b in zip(i[close].tolist(), j[close].tolist()):
        if live[a]:
            live[b] = False
    return [samples[k] for k in order[live].tolist()]


def _near_pairs(pts, radius):
    """Index pairs i < j of the points at most radius apart, with their
    distances np.hypot(dx, dy). The search is padded by a relative 1e-9,
    so a few pairs just beyond radius come along: callers apply their own
    exact test to the distances. Points go into square cells a little
    wider than the padded radius r, and each point pairs only with the
    later points of its own cell, the cell above it and the three cells
    to its right, so memory grows with the pairs in 3 x 3 cell blocks."""
    r = radius * (1.0 + 1e-9)
    # the margin covers the rounding of x / size, so that two points within
    # r never lie more than one cell apart; it also keeps every cell index
    # below 2**53, where floats hold integers exactly
    margin = 1e-6 * r + 16.0 * np.finfo(float).eps * np.abs(pts).max(initial=0.0)
    size = max(r + margin, np.finfo(float).tiny)
    # cell (i, j) as the complex number i + j 1j, which sorts by i, then j
    cell = np.floor(pts / size).view(complex).ravel()
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    # ranges [lo, hi) of sorted positions: in its own column a point pairs
    # from the next point to the cell above, in the next column from the
    # cell below to the cell above
    n = len(cell)
    lo = np.concatenate([np.arange(1, n + 1), np.searchsorted(cell, cell + (1 - 1j), "left")])
    hi = np.concatenate([np.searchsorted(cell, cell + 1j, "right"),
                         np.searchsorted(cell, cell + (1 + 1j), "right")])
    count = hi - lo
    a = order[np.repeat(np.tile(np.arange(n), 2), count)]
    b = order[np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)]
    i, j = np.minimum(a, b), np.maximum(a, b)
    d = np.hypot(*(pts[i] - pts[j]).T)
    near = d <= r
    return i[near], j[near], d[near]


# -- level sets ------------------------------------------------------------------

def omega_set(dom: PlanarDomain, level: float, resolution: float = None):
    """Level set {x : d(x, boundary) = level} as closed polylines.

    Marching squares with linear interpolation on F = d - level over a
    grid of spacing res; raises RangeError if the level exceeds the
    inradius (empty set).

    F is exact only in a narrow band around the curve (Adalsteinsson and
    Sethian 1995). The signed distance is 1-Lipschitz, so it is first
    evaluated on every 8th node per axis (and the last), and a node whose
    nearest such node lies R away with value F_c is evaluated itself only
    if |F_c| <= R + 1.5 res. Every other node keeps F_c: its true F lies
    within R of F_c, so the two have the same sign. A corner of a cell
    the curve cuts is within sqrt(2) res of a corner of the other sign,
    so |F| <= sqrt(2) res < 1.5 res there and it is evaluated exactly.
    An 8th node (R = 0) is not evaluated twice: its distance does not
    depend on the batch it came in. The signs, the cut cells, the values
    marching squares interpolates and thus the loops are those of the
    fully evaluated grid.
    """
    if level <= 0:
        raise ValueError("level must be positive")
    if resolution is None:
        resolution = dom.diameter / 400.0
    (bx0, bx1), (by0, by1) = dom.bounding_box
    pad = 2 * resolution
    xs = np.arange(bx0 - pad, bx1 + pad + resolution, resolution)
    ys = np.arange(by0 - pad, by1 + pad + resolution, resolution)

    cx, kx = _coarse_nodes(len(xs))
    cy, ky = _coarse_nodes(len(ys))
    Fc = dom.signed_distance(np.column_stack(
        [np.repeat(xs[cx], len(cy)), np.tile(ys[cy], len(cx))]))
    # each node's F_c and its distance R to that coarse node
    F = (Fc.reshape(len(cx), len(cy)) - level)[kx[:, None], ky]
    R = np.hypot((xs - xs[cx[kx]])[:, None], ys - ys[cy[ky]])
    # coarse nodes (R == 0) already hold their exact F
    i, j = np.nonzero((np.abs(F) <= R + 1.5 * resolution) & (R > 0))
    F[i, j] = dom.signed_distance(np.column_stack([xs[i], ys[j]])) - level
    if F.max() <= 0:
        raise RangeError(f"no points at distance {level}; exceeds inradius")
    segments = _marching_squares(xs, ys, F)
    return _chain_segments(segments)


def _coarse_nodes(n):
    """Every 8th of n >= 1 node indices and the last, and for each node
    the position of the nearest of them."""
    c = np.arange(0, n, 8)
    if c[-1] != n - 1:
        c = np.append(c, n - 1)
    return c, np.abs(np.arange(n)[:, None] - c).argmin(axis=1)


def _marching_squares(xs, ys, F):
    """Per-cell crossing segments of F = 0. Returns list of (key_a, pt_a, key_b, pt_b)."""
    segs = []

    def interp(x0, f0, x1, f1):
        t = f0 / (f0 - f1)
        return x0 + t * (x1 - x0)

    # only cells whose corner signs differ, visited in (i, j) order
    pos = F > 0
    cut = ((pos[:-1, :-1] != pos[1:, :-1]) | (pos[1:, :-1] != pos[1:, 1:])
           | (pos[1:, 1:] != pos[:-1, 1:]))
    Fl, xs, ys = F.tolist(), xs.tolist(), ys.tolist()
    for i, j in zip(*(ix.tolist() for ix in np.nonzero(cut))):
        f = (Fl[i][j], Fl[i + 1][j], Fl[i + 1][j + 1], Fl[i][j + 1])
        crossings = []
        # edges: bottom (j fixed), right, top, left; key = (edge-grid id)
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
            # saddle: split by the cell-center sign
            # left to right: sum() compensates floats from Python 3.12 on
            fc = 0.25 * (((f[0] + f[1]) + f[2]) + f[3])
            # order of `crossings` here: bottom, right, top, left
            if (fc > 0) == (f[0] > 0):
                pairs = [(0, 1), (2, 3)]
            else:
                pairs = [(0, 3), (1, 2)]
            for a, b in pairs:
                segs.append((*crossings[a], *crossings[b]))
    return segs


def _chain_segments(segs):
    """Walk crossing segments into closed loops (lists of points)."""
    adj = {}
    pt_of = {}
    for ka, pa, kb, pb in segs:
        adj.setdefault(ka, []).append(kb)
        adj.setdefault(kb, []).append(ka)
        pt_of[ka] = pa
        pt_of[kb] = pb
    visited = set()
    loops = []
    for start in sorted(adj.keys()):
        if start in visited or not adj[start]:
            continue
        loop = [start]
        visited.add(start)
        cur = start
        prev = None
        while True:
            nxts = [k for k in adj[cur] if k != prev and k not in visited]
            if not nxts:
                break
            prev, cur = cur, nxts[0]
            visited.add(cur)
            loop.append(cur)
        if len(loop) >= 3:
            loops.append(np.array([pt_of[k] for k in loop]))
    loops.sort(key=lambda L: (-len(L), L[0, 0], L[0, 1]))
    return loops


def ellipse_domain(a, b) -> SmoothPolarDomain:
    """The ellipse with half-axes a (x) and b (y), its polar radius
    r(theta) = a b / sqrt((b cos)^2 + (a sin)^2) truncated to 64
    harmonics from 4096 samples. r is even in theta, so the sine
    coefficients vanish; the truncation error decays geometrically."""
    th = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    r = a * b / np.sqrt((b * np.cos(th)) ** 2 + (a * np.sin(th)) ** 2)
    F = rfft(r)[:65] / 4096
    return SmoothPolarDomain(float(F[0].real), (2.0 * F[1:].real).tolist(),
                             (-2.0 * F[1:].imag).tolist())


def potato_domain() -> SmoothPolarDomain:
    """The asymmetric test region r = 1 + 0.3 (cos t - sin 3t)."""
    return SmoothPolarDomain(1.0, [0.3, 0.0, 0.0], [0.0, 0.0, -0.3])


def minimize(fun, x0s, xatol, fatol, maxiter):
    """Nelder-Mead (Nelder and Mead 1965) from each row of x0s, all seeds
    advanced in lock step; returns the best seed as a namespace with
    x, fun and nfev, the fields of scipy's OptimizeResult that are read.

    fun maps (k, n) points to (k,) values. Each seed follows scipy's
    Nelder-Mead exactly: reflection, expansion, contraction and shrink
    coefficients 1, 2, 1/2 and 1/2, the 5 % (0.00025 at zero) start
    simplex, a stable sort of the vertices, the xatol/fatol test before
    each iteration, and maxiter counted per seed. One iteration makes one
    fun call on the reflected, expanded and both contracted points of
    every seed still running, and keeps only the values that the scalar
    method's branch asks for; seeds that shrink make a second call. If fun
    gives each point the same value whatever batch it arrives in, every
    seed's iterates are scipy's bit for bit.

    The simplices are kept as lists of Python floats: for a few seeds in
    two or three dimensions, numpy's per-call overhead would outweigh the
    arithmetic. Each coordinate goes through scipy's operations in scipy's
    order; the centroid is summed left to right from +0.0, as numpy's
    reduction does (not with sum(), which compensates from Python 3.12
    on). fun's values must not be NaN, which the sort does not order.

    The result is the first seed with the strictly lowest fun, as a scalar
    loop over the seeds with `<` gives. nfev is the number of points
    evaluated over all seeds, the ones evaluated and not kept included.
    The name stays `minimize`, the scipy function this replaces, since
    outside tools count the polish's evaluations through it."""
    x0s = np.asarray(x0s, dtype=float).tolist()
    S, n = len(x0s), len(x0s[0])
    # vertex 0 is the seed, vertex k + 1 moves coordinate k
    sims = [[x0] + [x0[:k] + [(1 + 0.05) * v if v != 0 else 0.00025] + x0[k + 1:]
                    for k, v in enumerate(x0)] for x0 in x0s]
    fs = fun(np.array([v for sim in sims for v in sim])).tolist()
    fsims = [fs[i * (n + 1):(i + 1) * (n + 1)] for i in range(S)]
    nfev = S * (n + 1)

    def sort(i):
        order = sorted(range(n + 1), key=fsims[i].__getitem__)
        sims[i] = [sims[i][j] for j in order]
        fsims[i] = [fsims[i][j] for j in order]

    def converged(i):
        best, f0 = sims[i][0], fsims[i][0]
        return (all(abs(a - b) <= xatol for v in sims[i][1:] for a, b in zip(v, best))
                and all(abs(f0 - f) <= fatol for f in fsims[i][1:]))

    for i in range(S):
        sort(i)
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    act = list(range(S))
    for _ in range(maxiter - 1):
        act = [i for i in act if not converged(i)]
        if not act:
            break
        # reflected, expanded, outside and inside contracted points
        trial = [[], [], [], []]
        for i in act:
            xbar = [0.0] * n
            for v in sims[i][:-1]:
                xbar = [a + b for a, b in zip(xbar, v)]
            xbar = [a / n for a in xbar]
            worst = sims[i][-1]
            trial[0].append([(1 + rho) * b - rho * w for b, w in zip(xbar, worst)])
            trial[1].append([(1 + rho * chi) * b - rho * chi * w
                             for b, w in zip(xbar, worst)])
            trial[2].append([(1 + psi * rho) * b - psi * rho * w
                             for b, w in zip(xbar, worst)])
            trial[3].append([(1 - psi) * b + psi * w for b, w in zip(xbar, worst)])
        m = len(act)
        ft = fun(np.array(trial[0] + trial[1] + trial[2] + trial[3])).tolist()
        nfev += 4 * m
        shrink = []
        for t, i in enumerate(act):
            fxr, fxe, fxc, fxcc = ft[t], ft[m + t], ft[2 * m + t], ft[3 * m + t]
            f = fsims[i]
            # scipy's branches: the trial point that replaces the worst
            # vertex, or None for a shrink
            if fxr < f[0]:
                pick = 1 if fxe < fxr else 0
            elif fxr < f[-2]:
                pick = 0
            elif fxr < f[-1]:
                pick = 2 if fxc <= fxr else None
            else:
                pick = 3 if fxcc < f[-1] else None
            if pick is None:
                best = sims[i][0]
                sims[i][1:] = [[b + sigma * (a - b) for a, b in zip(v, best)]
                               for v in sims[i][1:]]
                shrink.append(i)
            else:
                sims[i][-1] = trial[pick][t]
                f[-1] = ft[pick * m + t]
        if shrink:
            fs = fun(np.array([v for i in shrink for v in sims[i][1:]])).tolist()
            for t, i in enumerate(shrink):
                fsims[i][1:] = fs[t * n:(t + 1) * n]
            nfev += len(shrink) * n
        for i in act:
            sort(i)
    i = min(range(S), key=lambda i: fsims[i][0])
    return types.SimpleNamespace(x=np.array(sims[i][0]), fun=np.float64(fsims[i][0]),
                                 nfev=nfev)


def max_distance_point(dom: PlanarDomain, seeds=None):
    """argmax of d(x, boundary) by Nelder-Mead from the best seeds.

    Seeds default to the interior nodes of a coarse 6x6 grid; for
    skeleton-aware calls pass the deepest skeleton samples (the maximizer
    lies on the skeleton). One vectorized signed_distance ranks the seeds,
    and only the three deepest are polished, in lock step by `minimize`:
    one batched signed_distance per simplex step. Each point's distance
    is independent of the batch it arrives in (see
    SmoothPolarDomain._radius_derivs), so the result is that of three
    scalar scipy Nelder-Mead runs, bit for bit."""
    if seeds is None:
        (bx0, bx1), (by0, by1) = dom.bounding_box
        u, v = np.meshgrid(np.linspace(0.15, 0.85, 6), np.linspace(0.15, 0.85, 6),
                           indexing="ij")
        seeds = np.column_stack([bx0 + u.ravel() * (bx1 - bx0),
                                 by0 + v.ravel() * (by1 - by0)])
        seeds = seeds[dom.contains(seeds)]
    seeds = np.asarray(seeds, dtype=float).reshape(-1, 2)
    deepest = np.sort(np.argsort(-dom.signed_distance(seeds), kind="stable")[:3])

    def neg_d(z):
        sd = dom.signed_distance(z)
        return np.where(sd > 0, -sd, 1.0)

    best = minimize(neg_d, seeds[deepest], xatol=1e-10, fatol=1e-12, maxiter=400)
    return best.x, -best.fun
