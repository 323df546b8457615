"""Exact low-tolerance geometry kernel.

Oriented hyperplanes, convex bodies inside the closed unit ball, sphere
traces, centroids, segment-boundary intersection and segment-segment
closest points. Dimension 2 (circle cleaving) is handled exactly with arc
and chord arithmetic. The interior test and the centroid are planar; in
higher ambient dimensions only sphere traces sample, as masks over one
fixed cloud of TRACE_BUDGET points per dimension.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TOL = 1e-9
TWO_PI = 2.0 * math.pi

CLOUD_SEED = 0  # seeds the random sphere_points cloud of dim >= 4
TRACE_BUDGET = 2048


class GeometryError(ValueError):
    pass


class DimensionMismatch(GeometryError):
    pass


class EmptyBodyError(GeometryError):
    pass


class BoundaryHitError(GeometryError):
    pass


def finite_real(x) -> bool:
    """x is a finite real number, and not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def whole_number(x) -> bool:
    """x is an integer, and not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _as_vector(x, dim: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise GeometryError(f"expected a flat coordinate vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise GeometryError("coordinates must be finite")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.shape[0]}")
    return v


def _as_stack(x, dim: int) -> np.ndarray:
    """x as a checked (n, dim) stack of points; a single point is a GeometryError."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 2:
        raise GeometryError(f"expected an (n, {dim}) stack of points, got shape {v.shape}")
    if v.shape[1] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.shape[1]}")
    return _as_vector(v.reshape(-1)).reshape(v.shape)


def _rowdot(x, y) -> np.ndarray:
    """Dots over the last axis: x[..., 0]*y[..., 0] + x[..., 1]*y[..., 1] + ...

    The one dot product of the package.  Each product is rounded, then the
    products are added left to right; numpy never fuses a separate * and +,
    and no BLAS call is made, so a row rounds the same in any stack, for a
    single pair and on every CPU.  x and y broadcast against each other.
    """
    total = x[..., 0] * y[..., 0]
    for axis in range(1, np.shape(x)[-1]):
        total = total + x[..., axis] * y[..., axis]
    return total


def _clamp01(x: np.ndarray) -> np.ndarray:
    """min(1.0, max(0.0, x)) per entry, as Python takes it: nan and -0.0 give 0.0."""
    return np.where(x > 0.0, np.minimum(x, 1.0), 0.0)


def segment_closest(P1, D1, P2, D2):
    """Closest points of the segments P1 + s*D1 and P2 + t*D2, s and t in [0, 1], row by row.

    The clamped two-parameter solve of Ericson, Real-Time Collision
    Detection (2005), 5.1.9, over (n, d) stacks.  Returns (s, t, pa, pb)
    with pa = P1 + s*D1 and pb = P2 + t*D2.  Row r equals the one-pair
    scalar solve bit for bit: every dot is a _rowdot, which rounds a row
    the same in any stack, and a segment of squared length <= 1e-18
    counts as its first end point, which pa or pb then is exactly.
    """
    eps = 1e-18
    r = P1 - P2
    a = _rowdot(D1, D1)
    e = _rowdot(D2, D2)
    b = _rowdot(D1, D2)
    c = _rowdot(D1, r)
    f = _rowdot(D2, r)
    short_1, short_2 = a <= eps, e <= eps
    degenerate = (short_1 | short_2).any()
    if degenerate:  # keeps the divisions below finite on the short rows
        a, e = np.where(short_1, 1.0, a), np.where(short_2, 1.0, e)
    denom = a * e - b * b
    skew = denom > eps
    s = np.where(skew, _clamp01((b * f - c * e) / np.where(skew, denom, 1.0)), 0.0)
    t = (b * s + f) / e
    below, above = t < 0.0, t > 1.0
    s = np.where(below | above, _clamp01(np.where(below, -c, b - c) / a), s)
    t = np.where(below, 0.0, np.minimum(t, 1.0))
    if degenerate:
        s = np.where(short_1, 0.0, np.where(short_2, _clamp01(-c / a), s))
        t = np.where(short_2, 0.0, np.where(short_1, _clamp01(f / e), t))
    pa = P1 + s[:, None] * D1
    pb = P2 + t[:, None] * D2
    if degenerate:
        pa = np.where(short_1[:, None], P1, pa)
        pb = np.where(short_2[:, None], P2, pb)
    return s, t, pa, pb


@dataclass(frozen=True, eq=False)
class OrientedHyperplane:
    """Affine hyperplane {x : <normal, x> = offset} with a chosen side.

    The normal is stored normalized; the offset is rescaled to match, so it
    equals the signed distance of the plane from the origin. A normal that
    is empty, or whose length is not finite and above TOL, is refused. A
    plane used to cleave the unit sphere must satisfy |offset| < 1; that is
    enforced at validation time, not here, so general clipping remains
    available.
    """

    normal: np.ndarray
    offset: float

    def __init__(self, normal, offset: float):
        v = _as_vector(normal)
        with np.errstate(over="ignore"):  # a squared length past the largest float reads inf
            norm = math.sqrt(_rowdot(v, v)) if v.size else 0.0
        if not (math.isfinite(norm) and norm > TOL):
            raise GeometryError(f"hyperplane normal must be nonempty with a finite norm above {TOL}, "
                                f"got {v.tolist()}")
        unit = v / norm
        unit.setflags(write=False)
        object.__setattr__(self, "normal", unit)
        object.__setattr__(self, "offset", float(offset) / norm)

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def to_json(self) -> dict:
        return {"normal": [float(c) for c in self.normal], "offset": self.offset}

    @staticmethod
    def from_json(doc: dict) -> "OrientedHyperplane":
        return OrientedHyperplane(doc["normal"], doc["offset"])


@dataclass(frozen=True, eq=False)
class ConvexBody:
    """Intersection of the closed unit ball with signed half-spaces.

    constraints holds (hyperplane, side) pairs, side in {+1, -1}; membership
    means side * (<normal, x> - offset) >= 0 for every pair plus |x| <= 1.
    The ball constraint is implicit and always last in face indexing.
    Bodies come from unit_disk and clip, which checks each new pair.
    """

    constraints: tuple = ()
    dim: int = 2

    @cached_property
    def _planes(self) -> np.ndarray:
        """One row [normal, offset, side] per constraint, built on first use.

        One array rather than three keeps the cache small where many
        bodies stay alive.
        """
        return np.array(
            [[*h.normal, h.offset, side] for h, side in self.constraints], dtype=float
        ).reshape(-1, self.dim + 2)

    def contains(self, x, tol: float = TOL) -> np.ndarray:
        """Whether each row of the (n, d) stack x is within tol of the body, as n bools."""
        v = _as_stack(x, self.dim)
        return (np.sqrt(_rowdot(v, v)) <= 1.0 + tol) & (self._margins(v) >= -tol).all(axis=0)

    def _margins(self, v: np.ndarray) -> np.ndarray:
        """side * (<normal, v> - offset) of each constraint at a checked (n, d) stack.

        One row per plane, (m, n), so reductions run on axis 0; >= 0 means satisfied.
        """
        planes = self._planes
        dots = _rowdot(planes[:, None, : self.dim], v)
        return planes[:, -1:] * (dots - planes[:, -2:-1])


def unit_disk(dim: int = 2) -> ConvexBody:
    return ConvexBody((), dim)


def clip(body: ConvexBody, h: OrientedHyperplane, side: int) -> ConvexBody:
    if h.dim != body.dim:
        raise DimensionMismatch("clip plane dimension differs from body dimension")
    if not (whole_number(side) and side in (-1, 1)):
        raise GeometryError(f"clip side must be +1 or -1, got {side!r}")
    return ConvexBody(body.constraints + ((h, int(side)),), body.dim)


# ---------------------------------------------------------------------------
# Circle arc arithmetic (ambient dimension 2).


def _norm_angle(a: float) -> float:
    r = math.fmod(a, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    return r


class ArcSet:
    """Union of closed arcs on the unit circle.

    Canonical form: arcs (start, end) with start in [0, 2*pi), start < end
    <= start + 2*pi, pairwise disjoint, sorted by start. The full circle is
    ((0, 2*pi),) and the empty set is ().
    """

    __slots__ = ("arcs",)

    def __init__(self, intervals=()):
        self.arcs = _canonical_arcs(intervals)

    @classmethod
    def _of(cls, arcs: tuple) -> "ArcSet":
        """The set of arcs already in canonical form, taken as they are."""
        out = object.__new__(cls)
        out.arcs = arcs
        return out

    @staticmethod
    def full() -> "ArcSet":
        return ArcSet._of(_FULL)

    @staticmethod
    def empty() -> "ArcSet":
        return ArcSet._of(())

    def is_full(self) -> bool:
        return self.measure() >= TWO_PI - 1e-15

    def measure(self) -> float:
        return sum(e - s for s, e in self.arcs)

    def intersect(self, other: "ArcSet") -> "ArcSet":
        """The arcs in both sets, merged straight into canonical form.

        Each overlap (lo, hi) of an arc of self with an arc of other, the
        latter shifted by -2*pi, 0 or 2*pi, is one piece.  Its start is
        already in [0, 2*pi) unless lo wraps past 2*pi, and it ends at
        start + (hi - lo): the normalisation ArcSet() gives a piece, so the
        result equals ArcSet(pieces) without canonicalising them again.
        """
        raw = []
        for s1, e1 in self.arcs:
            for s2, e2 in other.arcs:
                for shift in (-TWO_PI, 0.0, TWO_PI):
                    lo, hi = s2 + shift, e2 + shift
                    lo = lo if lo > s1 else s1
                    hi = hi if hi < e1 else e1
                    if hi > lo:
                        length = hi - lo
                        if length >= TWO_PI:
                            return ArcSet.full()
                        s0 = lo if 0.0 <= lo < TWO_PI else _norm_angle(lo)
                        raw.append((s0, s0 + length))
        return ArcSet._of(_merge_arcs(raw))

    def complement(self) -> "ArcSet":
        if not self.arcs:
            return ArcSet.full()
        if self.is_full():
            return ArcSet.empty()
        gaps = []
        n = len(self.arcs)
        for i in range(n):
            cur_end = self.arcs[i][1]
            nxt_start = self.arcs[(i + 1) % n][0] + (TWO_PI if i == n - 1 else 0.0)
            if nxt_start > cur_end:
                gaps.append((cur_end, nxt_start))
        return ArcSet(gaps)

    def distance(self, theta) -> np.ndarray:
        """Circular distance from each of the angles theta to this set (0 if inside)."""
        t = np.fmod(np.asarray(theta, dtype=float), TWO_PI)
        t = np.where(t < 0.0, t + TWO_PI, t)
        inside = np.zeros(t.shape, dtype=bool)
        best = np.full(t.shape, math.pi)
        for s, e in self.arcs:
            for shift in (-TWO_PI, 0.0, TWO_PI):
                ts = t + shift
                inside |= (s <= ts) & (ts <= e)
                best = np.fmin(best, np.fmin(np.abs(ts - s), np.abs(ts - e)))
        return np.where(inside, 0.0, best)

    def __repr__(self):
        return f"ArcSet({list(self.arcs)!r})"


_FULL = ((0.0, TWO_PI),)


def _canonical_arcs(intervals) -> tuple:
    raw = []
    for s, e in intervals:
        length = e - s
        if length <= 0.0:
            continue
        if length >= TWO_PI:
            return _FULL
        s0 = _norm_angle(s)
        raw.append((s0, s0 + length))
    return _merge_arcs(raw)


def _merge_arcs(raw: list) -> tuple:
    """Canonical arcs from pieces (s, e), s in [0, 2*pi) and 0 < e - s < 2*pi.

    Sorts the pieces, joins each that starts within the arc before it, then
    folds leading arcs into the last one while it wraps past them.
    """
    if not raw:
        return ()
    raw.sort()
    merged = []
    pieces = iter(raw)
    start, end = next(pieces)
    for s, e in pieces:
        if s <= end:
            if e > end:
                end = e
        else:
            merged.append((start, end))
            start, end = s, e
    merged.append((start, end))
    while len(merged) > 1 and merged[-1][1] >= merged[0][0] + TWO_PI:
        first_end = merged.pop(0)[1] + TWO_PI
        start, end = merged[-1]
        if first_end > end:
            end = first_end
        merged[-1] = (start, end)
        if end - start >= TWO_PI:
            return _FULL
    start, end = merged[0]
    return _FULL if end - start >= TWO_PI else tuple(merged)


# ---------------------------------------------------------------------------
# Sphere traces.


@dataclass(frozen=True, eq=False)
class SphereRegion:
    """Intersection of a convex body with the unit sphere.

    dim 2: exact arc list. dim >= 3: a membership mask over the one shared
    point cloud sphere_points(dim).
    """

    body: ConvexBody
    arcs: ArcSet | None = None
    points: np.ndarray | None = None
    mask: np.ndarray | None = None

    def is_nonempty(self, tol: float = TOL) -> bool:
        if self.arcs is not None:
            return any(e - s > tol for s, e in self.arcs.arcs)
        return bool(self.mask.any())


def _constraint_arcs(h: OrientedHyperplane, side: int) -> ArcSet:
    # {theta : side * (cos(theta - phi) - offset) >= 0} with phi the normal angle.
    phi = math.atan2(h.normal[1], h.normal[0])
    if side == 1:
        if h.offset >= 1.0:
            return ArcSet.empty()
        if h.offset <= -1.0:
            return ArcSet.full()
        a = math.acos(h.offset)
        return ArcSet(((phi - a, phi + a),))
    if h.offset <= -1.0:
        return ArcSet.empty()
    if h.offset >= 1.0:
        return ArcSet.full()
    a = math.acos(h.offset)
    return ArcSet(((phi + a, phi - a + TWO_PI),))


@functools.cache
def sphere_points(dim: int) -> np.ndarray:
    """The unit-sphere point cloud in R^dim: TRACE_BUDGET points, one read-only array per dim."""
    if dim == 3:
        # Fibonacci lattice; no RNG involved.
        i = np.arange(TRACE_BUDGET) + 0.5
        z = 1.0 - 2.0 * i / TRACE_BUDGET
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        golden = math.pi * (3.0 - math.sqrt(5.0))
        phi = golden * i
        pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    else:
        pts = np.random.default_rng(CLOUD_SEED).normal(size=(TRACE_BUDGET, dim))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts.setflags(write=False)
    return pts


def clip_trace(region: SphereRegion, h: OrientedHyperplane, side: int) -> SphereRegion:
    """The trace of clip(region.body, h, side), from region's trace and the one new constraint.

    dim 2: the arcs intersected with the new constraint's arcs.  dim >= 3:
    the mask and-ed with the new constraint's row of margins, the row
    ConvexBody._margins computes.  Bit for bit sphere_trace of the clipped
    body, which is the fold of this step over its constraints.
    """
    body = clip(region.body, h, side)
    if region.arcs is not None:
        return SphereRegion(body, arcs=region.arcs.intersect(_constraint_arcs(h, side)))
    margins = side * (_rowdot(h.normal, region.points) - h.offset)
    return SphereRegion(body, points=region.points, mask=region.mask & (margins >= 0.0))


def sphere_trace(body: ConvexBody) -> SphereRegion:
    """The body's trace on the sphere: clip_trace folded over its constraints from the whole sphere.

    A region cut from a parent whose trace is known is cheaper as one
    clip_trace step; operad.validate carries its traces down the tree so.
    """
    if body.dim == 2:
        region = SphereRegion(unit_disk(2), arcs=ArcSet.full())
    else:
        pts = sphere_points(body.dim)
        region = SphereRegion(unit_disk(body.dim), points=pts, mask=np.ones(len(pts), dtype=bool))
    for h, side in body.constraints:
        region = clip_trace(region, h, side)
    return SphereRegion(body, region.arcs, region.points, region.mask)


# ---------------------------------------------------------------------------
# Interior test.


def is_nonempty_interior(body: ConvexBody, tol: float = TOL) -> bool:
    """True iff some point of the planar body clears every plane and the circle by more than tol.

    Exact. The tol-shrunk feasible set is the intersection of
    half-planes {margin >= tol} with the disk of radius 1 - tol; its
    minimum-norm point is the origin, a projection onto one boundary line,
    or an intersection of two boundary lines, so testing those candidates
    decides feasibility.  A candidate lies on the lines it was solved from,
    so only the other planes are checked; the rounding of a solve between
    nearly parallel lines once rejected the corner of a sliver so.

    A body of any other dimension is a GeometryError: only sphere traces
    sample in higher dimensions.
    """
    if not (finite_real(tol) and tol > 0.0):
        raise GeometryError(f"tol must be a positive finite number, got {tol!r}")
    if body.dim != 2:
        raise GeometryError(f"interior test and centroid are planar, got dimension {body.dim}")
    radius = 1.0 - tol
    if radius <= 0.0:
        return False
    # side * (n.x - c) >= tol  <=>  (side*n).x >= side*c + tol
    planes = body._planes
    normals = planes[:, -1:] * planes[:, :2]
    offsets = planes[:, -1] * planes[:, -2] + tol

    def feasible(p: np.ndarray, on: tuple = ()) -> bool:
        margins = _rowdot(normals, p) - offsets
        margins[list(on)] = 0.0
        return bool(np.all(margins >= -1e-15))

    origin = np.zeros(2)
    candidates = []
    if feasible(origin):
        candidates.append((origin, ()))
    else:
        m = len(offsets)
        for j in range(m):
            # Projection of the origin onto the shifted line n.x = c.
            candidates.append((normals[j] * offsets[j], (j,)))
        for j in range(m):
            for l in range(j + 1, m):
                (a00, a01), (a10, a11) = normals[j], normals[l]
                det = a00 * a11 - a01 * a10
                if abs(det) <= 1e-14:
                    continue
                r0, r1 = offsets[j], offsets[l]
                x, y = (r0 * a11 - a01 * r1) / det, (a00 * r1 - r0 * a10) / det
                candidates.append((np.array([x, y]), (j, l)))
    for p, on in candidates:
        if feasible(p, on) and math.sqrt(_rowdot(p, p)) <= radius:
            return True
    return False


# ---------------------------------------------------------------------------
# Centroids.


def _face_interval(body: ConvexBody, j: int):
    """Chord of constraint plane j inside the body, or None.

    Returns (p0, d, lo, hi): points p0 + s*d for s in [lo, hi], with d the
    unit direction making the traversal counterclockwise around the body.
    """
    h, side = body.constraints[j]
    if abs(h.offset) >= 1.0:
        return None
    p0 = h.offset * np.array(h.normal)
    outward = -side * np.array(h.normal)
    d = np.array([-outward[1], outward[0]])  # rot90ccw(outward)
    half = math.sqrt(max(0.0, 1.0 - h.offset * h.offset))
    lo, hi = -half, half
    for l, (h2, side2) in enumerate(body.constraints):
        if l == j:
            continue
        a = side2 * float(_rowdot(h2.normal, d))
        b = side2 * (float(_rowdot(h2.normal, p0)) - h2.offset)
        # Need a*s + b >= 0.
        if abs(a) <= 1e-14:
            if b < 0.0:
                return None
            continue
        bound = -b / a
        if a > 0.0:
            lo = max(lo, bound)
        else:
            hi = min(hi, bound)
    if hi - lo <= 1e-14:
        return None
    return p0, d, lo, hi


def centroid(region: SphereRegion) -> np.ndarray:
    """Center of mass of the planar body region.body, uniform density.

    region is the body's sphere trace, as operad.validate carries it
    (c.trace(label)) or sphere_trace(body) computes it; its arcs are the
    circle part of the boundary.  Exact: the boundary decomposes into
    chord segments and those arcs, and area plus first moments come from
    Green's theorem applied to each oriented piece.  A body of any other
    dimension gets the GeometryError of is_nonempty_interior.
    """
    body = region.body
    if not is_nonempty_interior(body, TOL):
        raise EmptyBodyError("centroid of a body with empty interior")

    area = 0.0
    sx = 0.0
    sy = 0.0
    for j in range(len(body.constraints)):
        fi = _face_interval(body, j)
        if fi is None:
            continue
        p0, d, lo, hi = fi
        p = p0 + lo * d
        q = p0 + hi * d
        # Green's theorem with A = integral x dy, oriented ccw.
        area += (q[1] - p[1]) * (p[0] + q[0]) / 2.0
        sx += (q[1] - p[1]) * (p[0] * p[0] + p[0] * q[0] + q[0] * q[0]) / 6.0
        sy += -(q[0] - p[0]) * (p[1] * p[1] + p[1] * q[1] + q[1] * q[1]) / 6.0
    for a, b in region.arcs.arcs:
        area += ((b + math.sin(b) * math.cos(b)) - (a + math.sin(a) * math.cos(a))) / 2.0
        sx += ((math.sin(b) - math.sin(b) ** 3 / 3.0)
               - (math.sin(a) - math.sin(a) ** 3 / 3.0)) / 2.0
        sy += ((-math.cos(b) + math.cos(b) ** 3 / 3.0)
               - (-math.cos(a) + math.cos(a) ** 3 / 3.0)) / 2.0
    if area <= TOL * TOL:
        raise EmptyBodyError("centroid of a body with vanishing area")
    return np.array([sx / area, sy / area])


# ---------------------------------------------------------------------------
# Segment-boundary intersection.


@dataclass(frozen=True)
class BoundaryHit:
    """The boundary crossings of a stack of segments, one array entry per source in each field."""

    point: np.ndarray  # (n, d) crossing points
    face_index: np.ndarray  # (n,) into body.constraints; -1 when the crossing lies on the sphere
    corner: np.ndarray  # (n,) bools
    t: np.ndarray  # (n,) segment parameters of the crossings


def segment_boundary_hit(body: ConvexBody, src, dst, tol: float = TOL) -> BoundaryHit:
    """Unique crossing of each segment [src[r], dst] with the body boundary.

    src is an (n, d) stack of sources sharing the one point dst.  Each
    source must be exterior (or on the boundary), dst interior. A crossing
    is the latest entry parameter among violated constraints; for a convex
    body that is the single boundary point of the segment. Ties within tol
    are corners: the lowest-index plane wins and the corner flag is set.
    Row r of the hit depends on row r of src alone, bit for bit.
    """
    a = _as_stack(src, body.dim)
    b = _as_vector(dst, body.dim)
    seg = b - a
    qa = _rowdot(seg, seg)
    seg_len = np.sqrt(qa)
    if (seg_len <= tol).any():
        raise BoundaryHitError("segment is degenerate")
    margins_dst = body._margins(b[None])
    if math.sqrt(_rowdot(b, b)) >= 1.0 - tol or (margins_dst.size and margins_dst.min() <= tol):
        raise BoundaryHitError("destination point must be interior to the body")

    g0 = body._margins(a)
    entering = g0 < 0.0
    t = np.where(entering, g0 / np.where(entering, g0 - margins_dst, 1.0), -np.inf)
    # Entry root of |a + t seg|^2 = 1, for sources outside the ball.
    aa = _rowdot(a, a)
    na = np.sqrt(aa)
    outside = na > 1.0
    qb = 2.0 * _rowdot(a, seg)
    disc = qb * qb - 4.0 * qa * (aa - 1.0)
    if (outside & (disc < 0.0)).any():
        raise BoundaryHitError("segment never enters the unit ball")
    with np.errstate(invalid="ignore"):  # disc < 0 only inside the ball
        root = (-qb - np.sqrt(disc)) / (2.0 * qa)
    t = np.vstack([t, np.where(outside, root, -np.inf)])
    entered = entering.any(axis=0) | outside
    if (~entered & (na < 1.0 - tol)).any():
        raise BoundaryHitError("source point is interior to the body")

    # A source without entries sits on the sphere inside every plane: t = 0.
    t_star = np.where(entered, t.max(axis=0), 0.0)
    with np.errstate(invalid="ignore"):  # -inf - -inf on rows without entries
        tie = (t_star - t) * seg_len <= tol
    # Every entered row ties with itself; the sphere is the last row of t.
    first_tie = tie.argmax(axis=0)
    face_index = np.where(entered & (first_tie < len(t) - 1), first_tie, -1)
    corner = tie.sum(axis=0) > 1
    point = np.where(entered[:, None], a + t_star[:, None] * seg, a)
    return BoundaryHit(point, face_index, corner, t_star)
