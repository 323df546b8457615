import ast
import math
import pathlib
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as npst

from cleav import geom
from oracles import (
    arc_contains,
    canonicalising_intersect,
    centroid_mc,
    ref_dot,
    ref_norm,
    signed_eval,
    sym_diff_measure,
)

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
    axes = np.vstack([np.eye(2), -np.eye(2)])
    ends += list(axes[body.contains(axes)])
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
        if np.linalg.norm(p) < 1.0 - 1e-6 and loop_contains(body, p, -1e-6):
            return p
    return None


def exact_stepwise_dot(xs, ys):
    """Each product, then each left-to-right partial sum, rounded once from its exact value."""
    total = None
    for a, b in zip(xs, ys):
        product = float(Fraction(a) * Fraction(b))
        total = product if total is None else float(Fraction(total) + Fraction(product))
    return total


COORDS = st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)


class TestRowdot:
    @given(st.integers(1, 9), st.integers(0, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_stepwise_rounding(self, d, n, data):
        x = data.draw(npst.arrays(np.float64, (n, d), elements=COORDS))
        y = data.draw(npst.arrays(np.float64, (n, d), elements=COORDS))
        v = data.draw(npst.arrays(np.float64, (d,), elements=COORDS))
        rows = geom._rowdot(x, y)
        assert rows.shape == (n,)
        assert rows.tolist() == [exact_stepwise_dot(a, b) for a, b in zip(x.tolist(), y.tolist())]
        # One vector broadcast against the stack, on either side.
        assert geom._rowdot(x, v).tolist() == [exact_stepwise_dot(a, v.tolist()) for a in x.tolist()]
        assert geom._rowdot(v, x).tolist() == [exact_stepwise_dot(v.tolist(), a) for a in x.tolist()]
        for r in range(n):
            assert float(geom._rowdot(x[r], y[r])) == rows[r]

    def test_cancelling_products_are_not_fused(self):
        # a*b + b*(-a) is exactly 0 when each product is rounded; a fused
        # multiply-add leaves the rounding error of one product instead.
        x = np.random.default_rng(0).uniform(-1.0, 1.0, size=(2000, 2))
        assert not geom._rowdot(x, x[:, ::-1] * [1.0, -1.0]).any()

    def test_no_linalg_call_but_row_norms(self):
        """No module of the package reaches LAPACK or BLAS through np.linalg; norm takes neither."""
        found = []
        for path in sorted(pathlib.Path(geom.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                        and node.value.attr == "linalg" and node.attr != "norm"):
                    found.append(f"{path.name}:{node.lineno}: linalg.{node.attr}")
                if isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
                    found += [f"{path.name}:{node.lineno}: import {alias.name} from {node.module}"
                              for alias in node.names if alias.name != "norm"]
        assert found == []


class TestHyperplane:
    def test_normalizes(self):
        h = geom.OrientedHyperplane([3.0, 0.0], 1.5)
        assert np.allclose(h.normal, [1.0, 0.0])
        assert h.offset == pytest.approx(0.5)

    def test_zero_normal_rejected(self):
        with pytest.raises(geom.GeometryError):
            geom.OrientedHyperplane([0.0, 0.0], 0.1)

    @pytest.mark.parametrize("normal", [[], [1e308, 1e308], [1e200, 0.0, 0.0], [1e-10, 0.0]],
                             ids=["empty", "overflowing", "overflowing-3d", "short"])
    def test_normal_needs_a_finite_norm_above_tol(self, normal):
        # The empty normal raised an IndexError, and one whose squared length
        # overflows became the zero normal with offset 0 after RuntimeWarnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(geom.GeometryError, match="nonempty with a finite norm above 1e-09"):
                geom.OrientedHyperplane(normal, 0.1)

    def test_valid_planes_keep_their_bits(self):
        # The norm is still the square root of _rowdot(v, v).
        rng = np.random.default_rng(3)
        for v in [*rng.normal(size=(20, 3)), [1e150, 1e150], [3e-9, 0.0]]:
            v = np.asarray(v, dtype=float)
            norm = math.sqrt(float(geom._rowdot(v, v)))
            h = geom.OrientedHyperplane(v, 0.25)
            assert h.normal.tobytes() == (v / norm).tobytes() and h.offset == 0.25 / norm

    def test_signed_eval_sign(self):
        h = geom.OrientedHyperplane([1.0, 0.0], 0.25)
        assert signed_eval(h, [1.0, 0.0]) > 0
        assert signed_eval(h, [0.0, 3.0]) < 0
        assert signed_eval(h, [0.25, -2.0]) == pytest.approx(0.0)

    def test_json_roundtrip(self):
        h = geom.OrientedHyperplane([0.6, 0.8], -0.3)
        h2 = geom.OrientedHyperplane.from_json(h.to_json())
        assert np.allclose(h.normal, h2.normal)
        assert h.offset == pytest.approx(h2.offset, abs=1e-15)


class TestClip:
    def test_bad_side_rejected(self):
        for side in (0, 2, -2):
            with pytest.raises(geom.GeometryError, match="side must be"):
                geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.0), side)

    def test_mismatched_dimension_rejected(self):
        with pytest.raises(geom.DimensionMismatch):
            geom.clip(geom.unit_disk(3), geom.OrientedHyperplane([1, 0], 0.0), 1)


class TestArcSet:
    def test_canonical_wrap(self):
        a = geom.ArcSet([(0.1, 0.5), (6.0, 6.5)])
        assert len(a.arcs) == 1
        s, e = a.arcs[0]
        assert s == pytest.approx(6.0)
        assert e == pytest.approx(0.5 + geom.TWO_PI)

    def test_full_and_empty(self):
        assert geom.ArcSet.full().is_full()
        assert geom.ArcSet.empty().arcs == ()
        assert geom.ArcSet([(0.0, 7.0)]).is_full()

    def test_measure(self):
        a = geom.ArcSet([(0.0, 1.0), (2.0, 2.5)])
        assert a.measure() == pytest.approx(1.5)

    def test_contains_wraps(self):
        a = geom.ArcSet([(-0.5, 0.5)])
        assert arc_contains(a, 0.0)
        assert arc_contains(a, 2 * PI - 0.25)
        assert not arc_contains(a, PI)

    def test_intersect_across_wrap(self):
        a = geom.ArcSet([(-0.5, 0.5)])
        b = geom.ArcSet([(0.25, 1.0)])
        inter = a.intersect(b)
        assert inter.measure() == pytest.approx(0.25)

    def test_complement_roundtrip(self):
        a = geom.ArcSet([(0.3, 1.2), (4.0, 5.5)])
        c = a.complement()
        assert c.measure() == pytest.approx(geom.TWO_PI - a.measure())
        assert sym_diff_measure(a.complement().complement(), a) == pytest.approx(0.0, abs=1e-12)

    def test_sym_diff(self):
        a = geom.ArcSet([(0.0, 1.0)])
        b = geom.ArcSet([(0.5, 1.5)])
        assert sym_diff_measure(a, b) == pytest.approx(1.0)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_union_measure_bound(self, seed):
        rng = np.random.default_rng(seed)
        mk = lambda: geom.ArcSet([
            (rng.uniform(0, 2 * PI), rng.uniform(0, 2 * PI) + rng.uniform(0, PI))
            for _ in range(rng.integers(1, 4))
        ])
        a, b = mk(), mk()
        u = geom.ArcSet(a.arcs + b.arcs)
        assert u.measure() <= a.measure() + b.measure() + 1e-12
        assert u.measure() >= max(a.measure(), b.measure()) - 1e-12
        # inclusion-exclusion
        assert u.measure() == pytest.approx(
            a.measure() + b.measure() - a.intersect(b).measure(), abs=1e-9)


# Angles that canonical arcs start or end at: 0, its sign, pi and 2*pi, the
# floats next to them, and arbitrary ones within two turns either way.
EDGE_ANGLES = [0.0, -0.0, PI, geom.TWO_PI, -geom.TWO_PI, 2 * geom.TWO_PI,
               math.nextafter(geom.TWO_PI, 0.0), math.nextafter(geom.TWO_PI, 7.0),
               math.nextafter(0.0, 1.0), math.nextafter(0.0, -1.0)]
ANGLES = st.one_of(st.floats(-2 * geom.TWO_PI, 2 * geom.TWO_PI), st.sampled_from(EDGE_ANGLES))


@st.composite
def arc_set_pairs(draw):
    """Two canonical arc sets; the second often starts or ends where the first does."""
    a = geom.ArcSet(draw(st.lists(st.tuples(ANGLES, ANGLES).map(sorted), max_size=4)))
    ends = [x + shift for arc in a.arcs for x in arc for shift in (-geom.TWO_PI, 0.0, geom.TWO_PI)]
    pool = st.one_of(ANGLES, st.sampled_from(ends)) if ends else ANGLES
    b = geom.ArcSet(draw(st.lists(st.tuples(pool, pool).map(sorted), max_size=4)))
    return a, b


def arc_bits(arcs: geom.ArcSet) -> list:
    return [(s.hex(), e.hex()) for s, e in arcs.arcs]


def assert_canonical(arcs: geom.ArcSet) -> None:
    """Starts in [0, 2*pi), each arc shorter than a turn, sorted, apart, and clear of the wrap."""
    if arcs.arcs == ((0.0, geom.TWO_PI),):
        return
    for s, e in arcs.arcs:
        assert 0.0 <= s < geom.TWO_PI and s < e and e - s < geom.TWO_PI
    for (_, e), (s, _) in zip(arcs.arcs, arcs.arcs[1:]):
        assert e < s
    if arcs.arcs:
        assert arcs.arcs[-1][1] < arcs.arcs[0][0] + geom.TWO_PI


class TestArcMergeOracle:
    @given(arc_set_pairs())
    @example((geom.ArcSet.full(), geom.ArcSet.full()))
    @example((geom.ArcSet.full(), geom.ArcSet.empty()))
    @example((geom.ArcSet([(6.0, 7.0)]), geom.ArcSet([(0.5, 6.0)])))
    @example((geom.ArcSet([(6.0, 6.0 + geom.TWO_PI - 0.5)]), geom.ArcSet([(5.9, 6.1), (0.4, 1.0)])))
    @settings(max_examples=400, deadline=None)
    def test_matches_canonicalising_intersect(self, pair):
        a, b = pair
        for x, y in ((a, b), (b, a)):
            got, ref = x.intersect(y), canonicalising_intersect(x, y)
            assert got.arcs == ref.arcs
            assert arc_bits(got) == arc_bits(ref)
            assert_canonical(got)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_constraint_arcs_fold(self, seed):
        """Random bodies fold the same arcs both ways, touching ends included."""
        body = body_from_seed(seed, max_planes=5)
        got = ref = geom.ArcSet.full()
        for h, side in body.constraints:
            arcs = geom.ArcSet._of(geom._cut_arcs(h.normal, h.offset)[0 if side == 1 else 1])
            got, ref = got.intersect(arcs), canonicalising_intersect(ref, arcs)
            assert arc_bits(got) == arc_bits(ref)


def reference_sphere_points(dim, budget=2048, seed=0):
    """The cloud as sphere_points built it when budget and seed were arguments."""
    if dim == 3:
        i = np.arange(budget) + 0.5
        z = 1.0 - 2.0 * i / budget
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        phi = math.pi * (3.0 - math.sqrt(5.0)) * i
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    pts = np.random.default_rng(seed).normal(size=(budget, dim))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


class TestTrace:
    def test_half_disk_arc(self):
        half = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.0), 1)
        tr = geom.sphere_trace(half)
        assert tr.arcs.measure() == pytest.approx(PI)
        assert arc_contains(tr.arcs, 0.0)
        assert arc_contains(tr.arcs, PI / 2)
        assert not arc_contains(tr.arcs, PI)

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
        assert sym_diff_measure(geom.ArcSet(left.arcs + right.arcs), whole) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_point_cloud_is_one_read_only_array_per_dim(self, dim):
        pts = geom.sphere_points(dim)
        assert pts.tobytes() == reference_sphere_points(dim).tobytes()
        assert not pts.flags.writeable
        assert geom.sphere_points(dim) is pts
        with pytest.raises(ValueError):
            pts[0, 0] = 0.0

    def test_dim3_trace_counts(self):
        b = geom.clip(geom.unit_disk(3), geom.OrientedHyperplane([1, 0, 0], 0.0), 1)
        tr = geom.sphere_trace(b)
        frac = float(tr.mask.mean())
        assert 0.45 < frac < 0.55
        assert tr.is_nonempty()


class TestClipTrace:
    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 4]))
    @settings(max_examples=60, deadline=None)
    def test_step_equals_a_fresh_trace(self, seed, dim):
        """clip_trace of a body's trace is sphere_trace of the clipped body, bit for bit."""
        rng = np.random.default_rng(seed)
        body = geom.unit_disk(dim)
        for _ in range(int(rng.integers(0, 4))):
            body = geom.clip(body, geom.OrientedHyperplane(rng.normal(size=dim), rng.uniform(-0.9, 0.9)),
                             1 if rng.random() < 0.5 else -1)
        h = geom.OrientedHyperplane(rng.normal(size=dim), rng.uniform(-0.9, 0.9))
        region = geom.sphere_trace(body)
        for side in (1, -1):
            step = geom.clip_trace(region, h, side)
            fresh = geom.sphere_trace(geom.clip(body, h, side))
            assert step.body.constraints == body.constraints + ((h, side),)
            if dim == 2:
                assert arc_bits(step.arcs) == arc_bits(fresh.arcs)
            else:
                assert step.points is fresh.points is geom.sphere_points(dim)
                assert step.mask.tobytes() == fresh.mask.tobytes()
                margins = fresh.body._margins(fresh.points)
                assert step.mask.tobytes() == (margins >= 0.0).all(axis=0).tobytes()

    def test_rejects_what_clip_rejects(self):
        region = geom.sphere_trace(geom.unit_disk())
        with pytest.raises(geom.DimensionMismatch):
            geom.clip_trace(region, geom.OrientedHyperplane([1, 0, 0], 0.0), 1)
        with pytest.raises(geom.GeometryError, match="side"):
            geom.clip_trace(region, geom.OrientedHyperplane([1, 0], 0.0), 0)
        # True was taken as +1 and the bool stored in the body's constraints.
        with pytest.raises(geom.GeometryError, match="side"):
            geom.clip_trace(region, geom.OrientedHyperplane([1, 0], 0.0), True)
        step = geom.clip_trace(region, geom.OrientedHyperplane([1, 0], 0.0), np.int64(-1))
        assert type(step.body.constraints[-1][1]) is int


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

    def test_sliver_corner_between_nearly_parallel_planes(self):
        # Timber 1 of random_cleavage(109916, 6): its corner at |p| = 0.51,
        # solved from two planes 1 degree apart, missed its own two planes
        # by 1.3e-15, and centroid raised EmptyBodyError for a body that
        # holds points 1e-3 inside every plane.
        b = geom.unit_disk()
        for normal, offset, side in (
            ([0.14383931167606318, -0.9896010572026267], -0.659011655093141, 1),
            ([-0.7412361106409308, -0.6712443878960226], 0.3981980500582361, -1),
            ([-0.752635672982753, -0.6584371980331901], 0.4036061966537341, 1),
        ):
            b = geom.clip(b, geom.OrientedHyperplane(normal, offset), side)
        inside = 0.999 * np.array([math.cos(2.71), math.sin(2.71)])
        assert (b._margins(inside[None]) > 1e-3).all()
        assert geom.is_nonempty_interior(b, 1e-9)
        assert loop_contains(b, geom.centroid(geom.sphere_trace(b)), geom.TOL)

    def test_planar_only(self):
        with pytest.raises(geom.GeometryError, match="planar, got dimension 3"):
            geom.centroid(geom.sphere_trace(geom.unit_disk(3)))
        with pytest.raises(geom.GeometryError, match="planar, got dimension 3"):
            geom.is_nonempty_interior(geom.unit_disk(3), 1e-6)

    @pytest.mark.parametrize("dim", [2])
    @pytest.mark.parametrize("tol", [math.nan, math.inf, True])
    def test_bad_tol_is_a_domain_error(self, dim, tol):
        # Only tol <= 0 used to be rejected: these got False in the disk.
        with pytest.raises(geom.GeometryError, match="tol must be a positive finite number"):
            geom.is_nonempty_interior(geom.unit_disk(dim), tol)


def reference_face_interval(body, j, tol=0.0):
    """_face_interval as written when it took a tol, which every caller set to 0.0."""
    h, side = body.constraints[j]
    if abs(h.offset) >= 1.0:
        return None
    p0 = h.offset * np.array(h.normal)
    outward = -side * np.array(h.normal)
    d = np.array([-outward[1], outward[0]])
    half = math.sqrt(max(0.0, 1.0 - h.offset * h.offset))
    lo, hi = -half, half
    for l, (h2, side2) in enumerate(body.constraints):
        if l == j:
            continue
        a = side2 * ref_dot(h2.normal, d)
        b = side2 * (ref_dot(h2.normal, p0) - h2.offset)
        if abs(a) <= 1e-14:
            if b < -tol:
                return None
            continue
        bound = (-tol - b) / a
        if a > 0.0:
            lo = max(lo, bound)
        else:
            hi = min(hi, bound)
    if hi - lo <= 1e-14:
        return None
    return p0, d, lo, hi


class TestFaceIntervalOracle:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_zero_tol_arithmetic(self, seed):
        body = body_from_seed(seed, 5)
        for j in range(len(body.constraints)):
            got, ref = geom._face_interval(body, j), reference_face_interval(body, j)
            assert (got is None) == (ref is None)
            if got is not None:
                p0, d, lo, hi = got
                assert p0.tobytes() == ref[0].tobytes() and d.tobytes() == ref[1].tobytes()
                assert np.array([lo, hi]).tobytes() == np.array(ref[2:]).tobytes()

    def test_parallel_planes(self):
        # Rows with a == 0 take the b < 0 branch; b = +0.0 and -0.0 both keep the face.
        h = geom.OrientedHyperplane([1.0, 0.0], 0.25)
        for side in (1, -1):
            for offset in (0.25, -0.5, 0.75):
                body = geom.clip(geom.clip(geom.unit_disk(), h, 1),
                                 geom.OrientedHyperplane([1.0, 0.0], offset), side)
                for j in range(2):
                    got, ref = geom._face_interval(body, j), reference_face_interval(body, j)
                    assert (got is None) == (ref is None)
                    if got is not None:
                        assert np.array(got[2:]).tobytes() == np.array(ref[2:]).tobytes()


class TestCentroid:
    def test_full_disk(self):
        assert np.allclose(geom.centroid(geom.sphere_trace(geom.unit_disk())), [0.0, 0.0], atol=1e-12)

    def test_half_disk(self):
        half = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.0), 1)
        c = geom.centroid(geom.sphere_trace(half))
        assert c[0] == pytest.approx(4 / (3 * PI), abs=1e-12)
        assert c[1] == pytest.approx(0.0, abs=1e-12)

    def test_cap(self):
        cap = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.5), 1)
        c = geom.centroid(geom.sphere_trace(cap))
        t = PI / 3
        exact = (2 / 3) * math.sin(t) ** 3 / (t - math.sin(t) * math.cos(t))
        assert c[0] == pytest.approx(exact, abs=1e-12)
        assert c[1] == pytest.approx(0.0, abs=1e-12)

    def test_quarter_disk(self):
        q = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.0), 1)
        q = geom.clip(q, geom.OrientedHyperplane([0, 1], 0.0), 1)
        c = geom.centroid(geom.sphere_trace(q))
        assert np.allclose(c, [4 / (3 * PI), 4 / (3 * PI)], atol=1e-12)

    def test_empty_raises(self):
        b = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.5), 1)
        b = geom.clip(b, geom.OrientedHyperplane([1, 0], 0.4), -1)
        with pytest.raises(geom.EmptyBodyError):
            geom.centroid(geom.sphere_trace(b))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_mc_agrees(self, seed):
        # An inscribed disk of radius 0.05 gives at least 150 expected hits
        # of 60,000 draws, well over centroid_mc's floor of 10.
        body = body_from_seed(seed)
        if not geom.is_nonempty_interior(body, 5e-2):
            return
        exact = geom.centroid(geom.sphere_trace(body))
        mc, se = centroid_mc(body, 60_000, seed)
        for i in range(2):
            assert abs(exact[i] - mc[i]) < 5 * se[i] + 1e-4

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_centroid_interior(self, seed):
        body = body_from_seed(seed)
        if not geom.is_nonempty_interior(body, 1e-6):
            return
        assert loop_contains(body, geom.centroid(geom.sphere_trace(body)), 1e-9)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_midpoint_convexity(self, seed):
        body = body_from_seed(seed)
        p = interior_point(body, seed)
        q = interior_point(body, seed + 1)
        if p is None or q is None:
            return
        assert loop_contains(body, (p + q) / 2, 1e-9)


class TestBoundaryHit:
    def test_half_disk_oracle(self):
        half = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.0), 1)
        c = geom.centroid(geom.sphere_trace(half))
        s = np.array([math.cos(2.5), math.sin(2.5)])
        hit = geom.segment_boundary_hit(half, s[None], c)
        tpar = math.cos(2.5) / (math.cos(2.5) - 4 / (3 * PI))
        assert hit.face_index.tolist() == [0]
        assert hit.corner.tolist() == [False]
        assert hit.point[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert hit.point[0, 1] == pytest.approx(math.sin(2.5) * (1 - tpar), abs=1e-12)

    def test_sphere_face(self):
        hit = geom.segment_boundary_hit(geom.unit_disk(), [[2.0, 0.0]], [0.2, 0.0])
        assert hit.face_index.tolist() == [-1]
        assert np.allclose(hit.point, [[1.0, 0.0]], atol=1e-12)

    def test_corner_tie(self):
        q = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.0), 1)
        q = geom.clip(q, geom.OrientedHyperplane([0, 1], 0.0), 1)
        hit = geom.segment_boundary_hit(q, [[-0.5, -0.5]], [0.3, 0.3])
        assert hit.corner.tolist() == [True]
        assert hit.face_index.tolist() == [0]
        assert np.allclose(hit.point, [[0.0, 0.0]], atol=1e-9)

    def test_interior_source_rejected(self):
        half = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.0), 1)
        with pytest.raises(geom.BoundaryHitError):
            geom.segment_boundary_hit(half, [[0.5, 0.0]], [0.3, 0.0])

    def test_degenerate_segment_rejected(self):
        with pytest.raises(geom.BoundaryHitError):
            geom.segment_boundary_hit(geom.unit_disk(), [[0.5, 0.0]], [0.5, 0.0])

    def test_boundary_source_returns_source(self):
        hit = geom.segment_boundary_hit(geom.unit_disk(), [[1.0, 0.0]], [0.0, 0.0])
        assert hit.t[0] == pytest.approx(0.0, abs=1e-12)
        assert hit.face_index.tolist() == [-1]

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
        hit = geom.segment_boundary_hit(body, src[None], dst)
        p, face = hit.point[0], int(hit.face_index[0])
        assert loop_contains(body, p, 1e-7)
        on_sphere = abs(np.linalg.norm(p) - 1.0) <= 1e-7
        margins = loop_margins(body, p)
        on_plane = margins.size and np.min(np.abs(margins)) <= 1e-7
        assert on_sphere or on_plane
        if face >= 0:
            h, side = body.constraints[face]
            assert abs(signed_eval(h, p)) <= 1e-7


def loop_margins(body, x):
    """One side * (<normal, x> - offset) per constraint, the reference for ConvexBody._margins."""
    return np.array([side * (ref_dot(h.normal, x) - h.offset) for h, side in body.constraints])


def loop_contains(body, x, tol):
    """The per-constraint membership test, the reference for ConvexBody.contains."""
    if ref_norm(x) > 1.0 + tol:
        return False
    return bool((loop_margins(body, x) >= -tol).all())


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
            got = body._margins(x[None])[:, 0]
            assert got.shape == (planes,)
            assert got.tobytes() == loop_margins(body, x).tobytes()
        stack = np.array(points)
        assert body._margins(stack).T.tobytes() == np.array(
            [loop_margins(body, x) for x in points]).reshape(len(points), planes).tobytes()
        for tol in (0.0, geom.TOL, 0.05, -1e-6):
            assert body.contains(stack, tol).tolist() == [
                loop_contains(body, x, tol) for x in points]
            assert_rows_stand_alone(lambda rows: body.contains(rows, tol), stack)

    def test_bad_points_still_raise(self):
        body = geom.clip(geom.unit_disk(), geom.OrientedHyperplane([1, 0], 0.0), 1)
        with pytest.raises(geom.DimensionMismatch):
            body.contains([[0.0, 0.0, 0.0]])
        with pytest.raises(geom.GeometryError, match="finite"):
            body.contains([[math.nan, 0.0]])
        with pytest.raises(geom.DimensionMismatch):
            geom.unit_disk().contains([[0.0]])
        with pytest.raises(geom.DimensionMismatch):
            body.contains(np.zeros((4, 3)))
        with pytest.raises(geom.GeometryError, match="finite"):
            body.contains([[0.0, 0.0], [0.0, math.inf]])
        with pytest.raises(geom.GeometryError, match=r"expected an \(n, 2\) stack"):
            body.contains([0.0, 0.0])


def reference_arc_distance(arcs, theta):
    """The one-angle circular distance to an ArcSet, the reference for ArcSet.distance."""
    if not arcs.arcs:
        return math.pi
    t = math.fmod(theta, 2 * PI)
    if t < 0.0:
        t += 2 * PI
    best = math.pi
    for s, e in arcs.arcs:
        for shift in (-2 * PI, 0.0, 2 * PI):
            ts = t + shift
            if s <= ts <= e:
                return 0.0
            best = min(best, abs(ts - s), abs(ts - e))
    return best


class TestArcDistanceOracle:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        arcs = geom.ArcSet(
            (s, s + w) for s, w in zip(rng.uniform(-7, 7, 3), rng.uniform(-0.5, 4, 3))
        )
        ends = [x for arc in arcs.arcs for x in arc]
        theta = rng.uniform(-10, 10, 40).tolist() + ends + [e + 1e-12 for e in ends]
        theta += [e - 2 * PI for e in ends] + [math.nan, 0.0, -0.0, PI, -PI]
        got = arcs.distance(theta)
        assert got.tolist() == [reference_arc_distance(arcs, t) for t in theta]


def reference_segment_boundary_hit(body, src, dst, tol=geom.TOL):
    """The one-point crossing search, one constraint at a time.

    The reference for segment_boundary_hit; returns (point, face_index,
    corner, t).
    """
    a = geom._as_vector(src, body.dim)
    b = geom._as_vector(dst, body.dim)
    seg = b - a
    seg_len = ref_norm(seg)
    if seg_len <= tol:
        raise geom.BoundaryHitError("segment is degenerate")
    margins_dst = loop_margins(body, b)
    if ref_norm(b) >= 1.0 - tol or (margins_dst.size and margins_dst.min() <= tol):
        raise geom.BoundaryHitError("destination point must be interior to the body")
    entries = []
    for j, (h, side) in enumerate(body.constraints):
        g0 = side * (ref_dot(h.normal, a) - h.offset)
        g1 = side * (ref_dot(h.normal, b) - h.offset)
        if g0 < 0.0:
            entries.append((g0 / (g0 - g1), j))
    na = ref_norm(a)
    if na > 1.0:
        qa = ref_dot(seg, seg)
        qb = 2.0 * ref_dot(a, seg)
        qc = ref_dot(a, a) - 1.0
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            raise geom.BoundaryHitError("segment never enters the unit ball")
        entries.append(((-qb - math.sqrt(disc)) / (2.0 * qa), -1))
    if not entries:
        if na < 1.0 - tol:
            raise geom.BoundaryHitError("source point is interior to the body")
        return a.copy(), -1, False, 0.0
    t_star = max(t for t, _ in entries)
    tie = [idx for t, idx in entries if (t_star - t) * seg_len <= tol]
    plane_ties = sorted(i for i in tie if i >= 0)
    return a + t_star * seg, plane_ties[0] if plane_ties else -1, len(tie) > 1, float(t_star)


def outcome(fn, *args):
    """fn(*args), or the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return exc


def kind(exc: Exception) -> tuple:
    """exc's class and its message with each number masked: what rows failing alike share."""
    return type(exc), re.sub(r"-?\d+(\.\d+)?(e[-+]?\d+)?", "#", str(exc))


def assert_raises_first_of_its_kind(errors: list, fn, *args):
    """fn(*args) raises one of errors, the first of its kind among them, message and all.

    errors are the ones a stack's bad rows raise alone, in row order.  A
    stack with several kinds of bad row may raise any of those kinds, but
    a message naming a value names the first bad row of that kind.
    """
    with pytest.raises(ValueError) as got:
        fn(*args)
    same = [e for e in errors if kind(e) == kind(got.value)]
    assert same, f"{got.value!r} is none of the bad rows' errors"
    assert type(got.value) is type(same[0]) and str(got.value) == str(same[0])


def assert_rows_stand_alone(kernel, stack):
    """Row r of kernel(stack) is kernel(stack[r:r + 1]), bit for bit.

    kernel maps an (n, d) stack to an array, a tuple of arrays or a
    BoundaryHit, each with one leading row per point.
    """

    def fields(out):
        if isinstance(out, geom.BoundaryHit):
            return out.point, out.face_index, out.corner, out.t
        return out if isinstance(out, tuple) else (out,)

    whole = fields(kernel(stack))
    for r in range(len(stack)):
        for full, alone in zip(whole, fields(kernel(stack[r : r + 1]))):
            assert full.dtype == alone.dtype and full[r : r + 1].shape == alone.shape
            assert full[r : r + 1].tobytes() == alone.tobytes()


class TestBoundaryHitOracle:
    @given(
        st.integers(0, 10 ** 6),
        st.sampled_from([2, 3]),
        st.lists(st.tuples(
            st.sampled_from(["degenerate", "interior", "nonfinite", "exterior dst"]),
            st.integers(0, 60)), max_size=3),
    )
    @settings(max_examples=120, deadline=None)
    def test_stack_matches_reference(self, seed, dim, bad):
        rng = np.random.default_rng(seed)
        body = body_from_seed(seed, 4) if dim == 2 else geom.unit_disk(3)
        if dim == 3:
            for _ in range(int(rng.integers(0, 5))):
                h = geom.OrientedHyperplane(rng.normal(size=3), rng.uniform(-0.6, 0.6))
                body = geom.clip(body, h, 1 if rng.random() < 0.5 else -1)
        inner = [p for p in rng.uniform(-1.0, 1.0, size=(400, dim))
                 if np.linalg.norm(p) < 0.98 and (loop_margins(body, p) > 0.01).all()]
        if len(inner) < 2:
            return
        dst = inner[0]
        units = rng.normal(size=(20, dim))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        rows = list(units * rng.uniform(1.0, 2.0, size=(20, 1))) + list(units)
        # Rays through the corners of the body's faces tie two faces.
        if dim == 2:
            for j in range(len(body.constraints)):
                face = geom._face_interval(body, j)
                if face is not None:
                    p0, d, lo, hi = face
                    for corner in (p0 + lo * d, p0 + hi * d):
                        rows.append(corner + rng.uniform(0.1, 2.0) * (corner - dst))
                        rows.append(corner)
        good = [r for r in rows if not isinstance(
            outcome(reference_segment_boundary_hit, body, r, dst), Exception)]
        if good:
            hit = geom.segment_boundary_hit(body, np.array(good), dst)
            for r, src in enumerate(good):
                point, face, corner, t = reference_segment_boundary_hit(body, src, dst)
                assert hit.point[r].tobytes() == point.tobytes()
                assert (hit.face_index[r], hit.corner[r], hit.t[r]) == (face, corner, t)
            assert_rows_stand_alone(
                lambda rows: geom.segment_boundary_hit(body, rows, dst), np.array(good))
        # Bad rows of several kinds: the stack raises the error of one of them.
        stack = list(rows)
        for kind, where in bad:
            if kind == "exterior dst":
                dst = units[0]
                continue
            row = {"degenerate": dst, "interior": inner[1], "nonfinite": np.full(dim, math.nan)}
            stack.insert(where % (len(stack) + 1), row[kind].copy())
        errors = [e for e in (outcome(reference_segment_boundary_hit, body, r, dst) for r in stack)
                  if isinstance(e, Exception)]
        if errors:
            assert_raises_first_of_its_kind(
                errors, geom.segment_boundary_hit, body, np.array(stack), dst)

    def test_empty_stack(self):
        hit = geom.segment_boundary_hit(geom.unit_disk(), np.zeros((0, 2)), [0.1, 0.0])
        assert hit.point.shape == (0, 2)
        assert hit.face_index.shape == hit.corner.shape == hit.t.shape == (0,)


def reference_closest_points(p1, q1, p2, q2):
    """The one-pair scalar solve, the reference for geom.segment_closest.

    Returns (s, t, point on p1q1, point on p2q2); a segment of squared
    length <= 1e-18 gives its first end point itself.
    """
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = ref_dot(d1, d1)
    e = ref_dot(d2, d2)
    f = ref_dot(d2, r)
    eps = 1e-18
    if a <= eps and e <= eps:
        return 0.0, 0.0, p1, p2
    if a <= eps:
        t = min(1.0, max(0.0, f / e))
        return 0.0, t, p1, p2 + t * d2
    c = ref_dot(d1, r)
    if e <= eps:
        s = min(1.0, max(0.0, -c / a))
        return s, 0.0, p1 + s * d1, p2
    b = ref_dot(d1, d2)
    denom = a * e - b * b
    s = min(1.0, max(0.0, (b * f - c * e) / denom)) if denom > eps else 0.0
    t = (b * s + f) / e
    if t < 0.0:
        t = 0.0
        s = min(1.0, max(0.0, -c / a))
    elif t > 1.0:
        t = 1.0
        s = min(1.0, max(0.0, (b - c) / a))
    return s, t, p1 + s * d1, p2 + t * d2


SEGMENT_PAIRS = ["generic", "parallel", "collinear overlap", "zero length", "shorter than 1e-9",
                 "near the 1e-9 guard", "signed zeros"]


def segment_pair(rng, kind, d):
    """End points (p1, q1, p2, q2) of one pair of segments of the given kind."""
    p1, p2 = rng.uniform(-2.0, 2.0, size=(2, d))
    d1, d2 = rng.normal(size=(2, d))
    if kind in ("parallel", "collinear overlap"):
        d2 = rng.uniform(-2.0, 2.0) * d1
        if kind == "collinear overlap":
            p2 = p1 + rng.uniform(-0.5, 1.5) * d1
    elif kind == "zero length":
        d1, d2 = [np.zeros(d) if rng.random() < 0.6 else x for x in (d1, d2)]
    elif kind == "shorter than 1e-9":
        d1, d2 = [x * 10.0 ** -rng.uniform(9.5, 20.0) if rng.random() < 0.6 else x
                  for x in (d1, d2)]
    elif kind == "near the 1e-9 guard":
        d1, d2 = [x / np.linalg.norm(x) * 1e-9 * (1.0 + rng.uniform(-4e-16, 4e-16))
                  for x in (d1, d2)]
    elif kind == "signed zeros":
        p1, d1, p2, d2 = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], size=(4, d))
    return p1, p1 + d1, p2, p2 + d2


class TestSegmentClosestOracle:
    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]),
           st.lists(st.sampled_from(SEGMENT_PAIRS), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_the_scalar_solve(self, seed, d, kinds):
        rng = np.random.default_rng(seed)
        ends = np.array([segment_pair(rng, kind, d) for kind in kinds])
        p1, q1, p2, q2 = ends.transpose(1, 0, 2)
        s, t, pa, pb = geom.segment_closest(p1, q1 - p1, p2, q2 - p2)
        for r, row in enumerate(ends):
            ref_s, ref_t, ref_pa, ref_pb = reference_closest_points(*row)
            assert (s[r].tobytes(), t[r].tobytes()) == (
                np.float64(ref_s).tobytes(), np.float64(ref_t).tobytes())
            assert pa[r].tobytes() == ref_pa.tobytes()
            assert pb[r].tobytes() == ref_pb.tobytes()

    def test_crossing_and_parallel_examples(self):
        p1 = np.array([[-1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        d1 = np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        p2 = np.array([[0.0, -1.0], [0.5, 1.0], [3.0, 4.0]])
        d2 = np.array([[0.0, 2.0], [1.0, 0.0], [0.0, 0.0]])
        s, t, pa, pb = geom.segment_closest(p1, d1, p2, d2)
        assert s.tolist() == [0.5, 0.5, 0.0] and t.tolist() == [0.5, 0.0, 0.0]
        assert np.linalg.norm(pa - pb, axis=1).tolist() == [0.0, 1.0, 5.0]
