import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cleav import geom

PI = math.pi


def body_from_seed(seed: int, max_planes: int = 3) -> geom.ConvexBody:
    """Seeded random clipped disk; may have empty interior."""
    rng = np.random.default_rng(seed)
    body = geom.unit_disk()
    for _ in range(int(rng.integers(0, max_planes + 1))):
        n = rng.normal(size=2)
        while np.linalg.norm(n) < 1e-6:
            n = rng.normal(size=2)
        h = geom.OrientedHyperplane(n, rng.uniform(-0.9, 0.9))
        body = geom.clip(body, h, 1 if rng.random() < 0.5 else -1)
    return body


def bounding_box(body: geom.ConvexBody):
    """Corners of the body's bounding box, or None for an empty body.

    The extremes along each axis are ends of face chords or points of the
    unit circle on an axis, so the box of those that lie in the body is tight.
    """
    ends = []
    for j in range(len(body.constraints)):
        face = geom._face_interval(body, j)
        if face is not None:
            p0, d, lo, hi = face
            ends += [p0 + lo * d, p0 + hi * d]
    ends += [p for p in np.vstack([np.eye(2), -np.eye(2)]) if body.contains(p)]
    if not ends:
        return None
    return np.min(ends, axis=0), np.max(ends, axis=0)


def interior_point(body: geom.ConvexBody, seed: int = 0):
    """A seeded uniform draw from the bounding box that clears the body's boundary by 1e-6."""
    box = bounding_box(body)
    if box is None:
        return None
    rng = np.random.default_rng(seed)
    for _ in range(20000):
        p = rng.uniform(*box)
        if np.linalg.norm(p) < 1.0 - 1e-6 and body.contains(p, -1e-6):
            return p
    return None


class TestHyperplane:
    def test_normalizes(self):
        h = geom.OrientedHyperplane([3.0, 0.0], 1.5)
        assert np.allclose(h.normal, [1.0, 0.0])
        assert h.offset == pytest.approx(0.5)

    def test_zero_normal_rejected(self):
        with pytest.raises(geom.GeometryError):
            geom.OrientedHyperplane([0.0, 0.0], 0.1)

    def test_signed_eval_sign(self):
        h = geom.OrientedHyperplane([1.0, 0.0], 0.25)
        assert geom.signed_eval(h, [1.0, 0.0]) > 0
        assert geom.signed_eval(h, [0.0, 3.0]) < 0
        assert geom.signed_eval(h, [0.25, -2.0]) == pytest.approx(0.0)

    def test_json_roundtrip(self):
        h = geom.OrientedHyperplane([0.6, 0.8], -0.3)
        h2 = geom.OrientedHyperplane.from_json(h.to_json())
        assert np.allclose(h.normal, h2.normal)
        assert h.offset == pytest.approx(h2.offset, abs=1e-15)


class TestArcSet:
    def test_canonical_wrap(self):
        a = geom.ArcSet([(0.1, 0.5), (6.0, 6.5)])
        assert len(a.arcs) == 1
        s, e = a.arcs[0]
        assert s == pytest.approx(6.0)
        assert e == pytest.approx(0.5 + geom.TWO_PI)

    def test_full_and_empty(self):
        assert geom.ArcSet.full().is_full()
        assert geom.ArcSet.empty().is_empty()
        assert geom.ArcSet([(0.0, 7.0)]).is_full()

    def test_measure(self):
        a = geom.ArcSet([(0.0, 1.0), (2.0, 2.5)])
        assert a.measure() == pytest.approx(1.5)

    def test_contains_wraps(self):
        a = geom.ArcSet([(-0.5, 0.5)])
        assert a.contains(0.0)
        assert a.contains(2 * PI - 0.25)
        assert not a.contains(PI)

    def test_intersect_across_wrap(self):
        a = geom.ArcSet([(-0.5, 0.5)])
        b = geom.ArcSet([(0.25, 1.0)])
        inter = a.intersect(b)
        assert inter.measure() == pytest.approx(0.25)

    def test_complement_roundtrip(self):
        a = geom.ArcSet([(0.3, 1.2), (4.0, 5.5)])
        c = a.complement()
        assert c.measure() == pytest.approx(geom.TWO_PI - a.measure())
        assert a.complement().complement().sym_diff_measure(a) == pytest.approx(0.0, abs=1e-12)

    def test_sym_diff(self):
        a = geom.ArcSet([(0.0, 1.0)])
        b = geom.ArcSet([(0.5, 1.5)])
        assert a.sym_diff_measure(b) == pytest.approx(1.0)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_union_measure_bound(self, seed):
        rng = np.random.default_rng(seed)
        mk = lambda: geom.ArcSet([
            (rng.uniform(0, 2 * PI), rng.uniform(0, 2 * PI) + rng.uniform(0, PI))
            for _ in range(rng.integers(1, 4))
        ])
        a, b = mk(), mk()
        u = a.union(b)
        assert u.measure() <= a.measure() + b.measure() + 1e-12
        assert u.measure() >= max(a.measure(), b.measure()) - 1e-12
        # inclusion-exclusion
        assert u.measure() == pytest.approx(
            a.measure() + b.measure() - a.intersect(b).measure(), abs=1e-9)


class TestTrace:
    def test_half_disk_arc(self):
        half = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.0), 1)
        tr = geom.sphere_trace(half)
        assert tr.arcs.measure() == pytest.approx(PI)
        assert tr.arcs.contains(0.0)
        assert tr.arcs.contains(PI / 2)
        assert not tr.arcs.contains(PI)

    def test_offside_plane_empty(self):
        b = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.95), 1)
        b = geom.clip(b, geom.OrientedHyperplane([1, 0], 0.97), -1)
        tr = geom.sphere_trace(b)
        # A thin lens between x=0.95 and x=0.97 still owns two tiny arcs.
        assert tr.arcs.measure() > 0

    def test_trace_partition(self):
        h = geom.OrientedHyperplane([0.3, -0.8], 0.2)
        plus = geom.sphere_trace(geom.clip(geom.unit_disk(), h, 1)).arcs
        minus = geom.sphere_trace(geom.clip(geom.unit_disk(), h, -1)).arcs
        assert plus.measure() + minus.measure() == pytest.approx(geom.TWO_PI)
        assert plus.intersect(minus).measure() == pytest.approx(0.0, abs=1e-9)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_trace_additive_under_clip(self, seed):
        rng = np.random.default_rng(seed)
        body = body_from_seed(seed)
        n = rng.normal(size=2)
        if np.linalg.norm(n) < 1e-6:
            n = np.array([1.0, 0.0])
        h = geom.OrientedHyperplane(n, rng.uniform(-0.9, 0.9))
        whole = geom.sphere_trace(body).arcs
        left = geom.sphere_trace(geom.clip(body, h, 1)).arcs
        right = geom.sphere_trace(geom.clip(body, h, -1)).arcs
        assert left.union(right).sym_diff_measure(whole) == pytest.approx(0.0, abs=1e-9)

    def test_dim3_trace_counts(self):
        b = geom.clip(geom.unit_disk(3), geom.OrientedHyperplane([1, 0, 0], 0.0), 1)
        tr = geom.sphere_trace(b)
        frac = float(tr.mask.mean())
        assert 0.45 < frac < 0.55
        assert tr.is_nonempty()


class TestInterior:
    def test_sliver(self):
        sl = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.999999), 1)
        assert not geom.is_nonempty_interior(sl, 1e-3)
        assert geom.is_nonempty_interior(sl, 1e-9)

    def test_empty_wedge(self):
        b = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.5), 1)
        b = geom.clip(b, geom.OrientedHyperplane([1, 0], 0.4), -1)
        assert not geom.is_nonempty_interior(b, 1e-9)

    def test_offcenter_feasible(self):
        b = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.8), 1)
        b = geom.clip(b, geom.OrientedHyperplane([0, 1], 0.1), 1)
        assert geom.is_nonempty_interior(b, 1e-6)

    @given(st.integers(0, 10 ** 6))
    @example(12802)  # a sliver near (-0.466, -0.882) that draws over [-1, 1]^2 miss
    @settings(max_examples=80, deadline=None)
    def test_matches_sampling(self, seed):
        body = body_from_seed(seed)
        exact = geom.is_nonempty_interior(body, 1e-6)
        found = interior_point(body, seed) is not None
        # Sampling finds a point only if one exists; the converse can fail
        # only for extremely thin bodies, which tol screens out.
        if found:
            assert exact or not geom.is_nonempty_interior(body, 1e-9)
        if exact:
            assert found

    def test_dim3(self):
        b = geom.clip(geom.unit_disk(3), geom.OrientedHyperplane([1, 0, 0], 0.0), 1)
        assert geom.is_nonempty_interior(b, 1e-6)
        b2 = geom.clip(b, geom.OrientedHyperplane([1, 0, 0], 0.001), -1)
        assert not geom.is_nonempty_interior(b2, 1e-2)


class TestCentroid:
    def test_full_disk(self):
        assert np.allclose(geom.centroid(geom.unit_disk()), [0.0, 0.0], atol=1e-12)

    def test_half_disk(self):
        half = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.0), 1)
        c = geom.centroid(half)
        assert c[0] == pytest.approx(4 / (3 * PI), abs=1e-12)
        assert c[1] == pytest.approx(0.0, abs=1e-12)

    def test_cap(self):
        cap = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.5), 1)
        c = geom.centroid(cap)
        t = PI / 3
        exact = (2 / 3) * math.sin(t) ** 3 / (t - math.sin(t) * math.cos(t))
        assert c[0] == pytest.approx(exact, abs=1e-12)
        assert c[1] == pytest.approx(0.0, abs=1e-12)

    def test_quarter_disk(self):
        q = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.0), 1)
        q = geom.clip(q, geom.OrientedHyperplane([0, 1], 0.0), 1)
        assert np.allclose(geom.centroid(q), [4 / (3 * PI), 4 / (3 * PI)], atol=1e-12)

    def test_empty_raises(self):
        b = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.5), 1)
        b = geom.clip(b, geom.OrientedHyperplane([1, 0], 0.4), -1)
        with pytest.raises(geom.EmptyBodyError):
            geom.centroid(b)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_mc_agrees(self, seed):
        body = body_from_seed(seed)
        if not geom.is_nonempty_interior(body, 1e-2):
            return
        exact = geom.centroid(body)
        mc, se = geom.centroid_mc(body, 60_000, seed)
        for i in range(2):
            assert abs(exact[i] - mc[i]) < 5 * se[i] + 1e-4

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_centroid_interior(self, seed):
        body = body_from_seed(seed)
        if not geom.is_nonempty_interior(body, 1e-6):
            return
        assert body.contains(geom.centroid(body), 1e-9)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_midpoint_convexity(self, seed):
        body = body_from_seed(seed)
        p = interior_point(body, seed)
        q = interior_point(body, seed + 1)
        if p is None or q is None:
            return
        assert body.contains((p + q) / 2, 1e-9)


class TestBoundaryHit:
    def test_half_disk_oracle(self):
        half = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.0), 1)
        c = geom.centroid(half)
        s = np.array([math.cos(2.5), math.sin(2.5)])
        hit = geom.segment_boundary_hit(half, s, c)
        tpar = math.cos(2.5) / (math.cos(2.5) - 4 / (3 * PI))
        assert hit.face_index == 0
        assert not hit.corner
        assert hit.point[0] == pytest.approx(0.0, abs=1e-12)
        assert hit.point[1] == pytest.approx(math.sin(2.5) * (1 - tpar), abs=1e-12)

    def test_sphere_face(self):
        hit = geom.segment_boundary_hit(geom.unit_disk(), [2.0, 0.0], [0.2, 0.0])
        assert hit.face is None
        assert hit.face_index == -1
        assert np.allclose(hit.point, [1.0, 0.0], atol=1e-12)

    def test_corner_tie(self):
        q = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.0), 1)
        q = geom.clip(q, geom.OrientedHyperplane([0, 1], 0.0), 1)
        hit = geom.segment_boundary_hit(q, [-0.5, -0.5], [0.3, 0.3])
        assert hit.corner
        assert hit.face_index == 0
        assert np.allclose(hit.point, [0.0, 0.0], atol=1e-9)

    def test_interior_source_rejected(self):
        half = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.0), 1)
        with pytest.raises(geom.BoundaryHitError):
            geom.segment_boundary_hit(half, [0.5, 0.0], [0.3, 0.0])

    def test_degenerate_segment_rejected(self):
        with pytest.raises(geom.BoundaryHitError):
            geom.segment_boundary_hit(geom.unit_disk(), [0.5, 0.0], [0.5, 0.0])

    def test_boundary_source_returns_source(self):
        hit = geom.segment_boundary_hit(geom.unit_disk(), [1.0, 0.0], [0.0, 0.0])
        assert hit.t == pytest.approx(0.0, abs=1e-12)
        assert hit.face_index == -1

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_hit_lies_on_boundary(self, seed):
        rng = np.random.default_rng(seed)
        body = body_from_seed(seed)
        dst = interior_point(body, seed)
        if dst is None:
            return
        theta = rng.uniform(0, 2 * PI)
        src = 1.5 * np.array([math.cos(theta), math.sin(theta)])
        hit = geom.segment_boundary_hit(body, src, dst)
        p = hit.point
        assert body.contains(p, 1e-7)
        on_sphere = abs(np.linalg.norm(p) - 1.0) <= 1e-7
        margins = body.margins(p) if body.constraints else np.array([])
        on_plane = margins.size and np.min(np.abs(margins)) <= 1e-7
        assert on_sphere or on_plane
        if hit.face_index >= 0:
            h, side = body.constraints[hit.face_index]
            assert abs(geom.signed_eval(h, p)) <= 1e-7


class TestActiveConstraints:
    def test_redundant_flagged(self):
        b = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], -0.5), 1)
        b = geom.clip(b, geom.OrientedHyperplane([1, 0], 0.0), 1)
        assert geom.active_constraints(b) == [False, True]

    def test_both_active(self):
        b = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.0), 1)
        b = geom.clip(b, geom.OrientedHyperplane([0, 1], 0.0), 1)
        assert geom.active_constraints(b) == [True, True]


def loop_margins(body, x):
    """One signed_eval per constraint, the reference for ConvexBody.margins."""
    return np.array([side * geom.signed_eval(h, x) for h, side in body.constraints])


def loop_contains(body, x, tol):
    """The per-constraint membership test, the reference for ConvexBody.contains."""
    if float(np.linalg.norm(x)) > 1.0 + tol:
        return False
    return all(side * geom.signed_eval(h, x) >= -tol for h, side in body.constraints)


class TestMembership:
    @given(st.integers(0, 10 ** 6), st.integers(0, 6), st.sampled_from([2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_constraint_loop(self, seed, planes, dim):
        rng = np.random.default_rng(seed)
        body = geom.unit_disk(dim)
        for _ in range(planes):
            h = geom.OrientedHyperplane(rng.normal(size=dim), rng.uniform(-0.9, 0.9))
            body = geom.clip(body, h, 1 if rng.random() < 0.5 else -1)
        points = list(rng.uniform(-1.2, 1.2, size=(20, dim)))
        # Points on each plane, where the margins sit at rounding level.
        for h, _ in body.constraints:
            along = rng.normal(size=dim)
            along -= (along @ h.normal) * h.normal
            points.append(h.offset * h.normal + 0.3 * along)
        for x in points:
            got = body.margins(x)
            assert got.shape == (planes,)
            assert got.tobytes() == loop_margins(body, x).tobytes()
            for tol in (0.0, geom.TOL, 0.05, -1e-6):
                assert body.contains(x, tol) is loop_contains(body, x, tol)

    def test_bad_points_still_raise(self):
        body = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.0), 1)
        with pytest.raises(geom.DimensionMismatch):
            body.margins([0.0, 0.0, 0.0])
        with pytest.raises(geom.GeometryError):
            body.contains([math.nan, 0.0])
        with pytest.raises(geom.DimensionMismatch):
            geom.unit_disk().margins([0.0])
