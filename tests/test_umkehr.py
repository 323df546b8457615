"""Metric, clearance, and collapse evaluator tests."""

import itertools
import json
import math
import tracemalloc
from dataclasses import replace
from re import escape as re_escape

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cleav import blueprint as bp_mod
from cleav import geom
from cleav import fixtures as fx
from cleav import operad
from cleav import sampling
from cleav import umkehr as um
from cleav.geom import OrientedHyperplane
from oracles import (
    ClearanceWitness,
    dense_clearance,
    object_thicken,
    one_pair_geodesic,
    one_query_clearance,
    pair_ends,
    ref_dot,
    ref_norm,
    ref_wrap,
    scalar_scaling,
)
from test_geom import assert_rows_stand_alone

PI = math.pi
EUCLID = um.FlatMetric("euclidean", 2)


def chord_cleavage():
    tree = operad.Internal(
        OrientedHyperplane([1.0, 0.0], 0.0), operad.Leaf(1), operad.Leaf(2)
    )
    return operad.validate(tree)


def chord_blueprint():
    return bp_mod.build_blueprint(chord_cleavage())


def circle(r, m=96, mirrored=False, center=(0.0, 0.0)):
    th = 2 * np.pi * np.arange(m) / m
    if mirrored:
        base = np.stack([-r * np.cos(th), r * np.sin(th)], axis=1)
    else:
        base = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    return base + np.asarray(center, dtype=float)


def concentric(g, r1=0.5, m=96):
    return um.DiscreteEmbedding(EUCLID, (circle(r1, m), circle(r1 - g, m, mirrored=True)))


class TestMetric:
    def test_euclidean_geodesic(self):
        g = um.geodesic(EUCLID, [[0.0, 0.0]], [[1.0, 0.0]])
        assert g.length.tolist() == [1.0]
        assert g.tangent.tolist() == [[1.0, 0.0]]
        assert (g.a + 0.5 * g.disp).tolist() == [[0.5, 0.0]]

    def test_torus_wraps(self):
        torus = um.FlatMetric("torus", 2, 10.0)
        g = um.geodesic(torus, [[0.0, 0.0]], [[9.0, 0.0]])
        assert g.length[0] == pytest.approx(1.0, abs=1e-12)
        assert g.tangent[0].tolist() == pytest.approx([-1.0, 0.0], abs=1e-12)

    def test_torus_tie_raises(self):
        torus = um.FlatMetric("torus", 2, 2.0)
        with pytest.raises(um.NonUniqueGeodesic):
            um.geodesic(torus, [[0.0, 0.0]], [[1.0, 0.0]])

    def test_zero_geodesic(self):
        g = um.geodesic(EUCLID, [[0.3, 0.4]], [[0.3, 0.4]])
        assert g.length.tolist() == [0.0]
        assert g.tangent.tolist() == [[0.0, 0.0]]

    @pytest.mark.parametrize("a, b", [([0.0, 0.0], [1.0, 0.0]), ([[0.0, 0.0]], [1.0, 0.0]),
                                      ([[[0.0, 0.0]]], [[[1.0, 0.0]]])],
                             ids=["points", "stack-and-point", "3-d"])
    def test_only_stacks_of_pairs(self, a, b):
        with pytest.raises(um.UmkehrError, match=re_escape("points must be two (n, 2) stacks")):
            um.geodesic(EUCLID, a, b)

    @pytest.mark.parametrize("d", [np.int64(2), np.int32(3), np.uint8(2)])
    def test_numpy_integer_dimension(self, d):
        # np.int64(2) used to be rejected as "ambient dimension must be an integer >= 2".
        metric = um.FlatMetric("torus", d, 1.0)
        assert type(metric.d) is int and metric.d == d
        assert metric == um.FlatMetric("torus", int(d), 1.0)
        assert json.dumps(metric.to_json()) == json.dumps({"kind": "torus", "d": int(d), "L": 1.0})
        with pytest.raises(um.UmkehrError, match="metric field 'd' must be an integer"):
            um.metric_from_json({"kind": "torus", "d": d, "L": 1.0})

    def test_validation(self):
        for d in (1, np.int64(1), 2.0, True):
            with pytest.raises(um.UmkehrError, match="ambient dimension"):
                um.FlatMetric("euclidean", d)
        with pytest.raises(um.UmkehrError):
            um.FlatMetric("spherical", 2)
        with pytest.raises(um.UmkehrError):
            um.FlatMetric("torus", 2)
        with pytest.raises(um.UmkehrError):
            um.FlatMetric("torus", 2, -1.0)
        with pytest.raises(um.UmkehrError):
            um.FlatMetric("euclidean", 2, 5.0)

    def test_json_roundtrip(self):
        for metric in (EUCLID, um.FlatMetric("torus", 3, 7.5)):
            doc = metric.to_json()
            back = um.metric_from_json(json.loads(json.dumps(doc)))
            assert back == metric
        with pytest.raises(um.UmkehrError):
            um.metric_from_json([1, 2])
        with pytest.raises(um.UmkehrError):
            um.metric_from_json({"kind": "torus", "d": 2.5, "L": 1.0})
        for bad_period in ([1], True, "1.0", None):
            with pytest.raises(um.UmkehrError):
                um.metric_from_json({"kind": "torus", "d": 2, "L": bad_period})

    @pytest.mark.parametrize("period", [math.inf, -math.inf, math.nan, True, "1.0"])
    def test_non_real_or_infinite_torus_period_rejected(self, period):
        # An infinite period used to be accepted, and umkehr then failed with
        # "clearance needs a geodesic of positive length".
        with pytest.raises(um.UmkehrError, match="torus period"):
            um.FlatMetric("torus", 2, period)
        if isinstance(period, float):
            with pytest.raises(um.UmkehrError, match="torus period"):
                um.metric_from_json(json.loads(json.dumps({"kind": "torus", "d": 2, "L": period})))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=80, deadline=None)
    def test_torus_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        L = float(rng.uniform(0.5, 5.0))
        torus = um.FlatMetric("torus", 2, L)
        a = rng.uniform(-L, 2 * L, size=2)
        b = rng.uniform(-L, 2 * L, size=2)
        shifts = np.array(
            [[i * L, j * L] for i in range(-3, 4) for j in range(-3, 4)]
        )
        images = b + shifts - a
        dists = np.linalg.norm(images, axis=1)
        order = np.sort(dists)
        if order[1] - order[0] < 1e-6:
            return
        try:
            g = um.geodesic(torus, [a], [b])
        except um.NonUniqueGeodesic:
            # per-axis ties can trip before the full-vector tie does
            axis_best = np.abs(images)[np.argmin(dists)]
            assert np.any(np.abs(axis_best - L / 2) < 1e-6)
            return
        assert g.length[0] == pytest.approx(float(order[0]), abs=1e-9)
        best = images[int(np.argmin(dists))]
        assert g.disp[0] == pytest.approx(best, abs=1e-9)


def remainder_cases(L: float) -> list:
    """Values where np.mod(x, L) changes branch or rounds: the ends of [-L, 2L) and their neighbours."""
    ulp = lambda x, to: float(np.nextafter(x, to))  # noqa: E731
    tiny = 5e-324
    return [0.0, -0.0, L, -L, ulp(L, 0.0), ulp(L, 3.0 * L), ulp(-L, 0.0), ulp(-L, -2.0 * L),
            ulp(2.0 * L, 0.0), 2.0 * L, ulp(2.0 * L, 3.0 * L), tiny, -tiny, 7 * tiny, -7 * tiny,
            2.2250738585072014e-308, -2.2250738585072014e-308, ulp(0.0, -1.0) * 3, 0.5 * L, -0.5 * L,
            1.5 * L, -3.0 * L, 5.5 * L, 1e300, -1e300]


class TestRemainder:
    """umkehr._remainder and FlatMetric.wrap against np.mod (oracles.ref_wrap), bit for bit."""

    @given(st.one_of(st.sampled_from([1.0, 0.7, 3.0, 2.0 ** -1074, 1e-300, 1e300]),
                     st.floats(1e-300, 1e300)),
           st.lists(st.floats(-1e300, 1e300), max_size=20), st.integers(0, 10 ** 6))
    @settings(max_examples=300, deadline=None)
    def test_matches_np_mod(self, L, drawn, seed):
        rng = np.random.default_rng(seed)
        inside = rng.uniform(-L, 2.0 * L, size=20) if np.isfinite(3.0 * L) else np.zeros(0)
        x = np.array(remainder_cases(L) + drawn + inside.tolist(), dtype=float)
        # One array on the exact path alone, one that falls back to np.mod.
        fast = x[(x >= -L) & (x < 2.0 * L)]
        for values in (fast, x, x[:1], x[:0]):
            assert um._remainder(values, L).tobytes() == np.mod(values, L).tobytes()
        # Entry by entry too: a lone value takes its own path.
        for value in x.tolist():
            one = np.array([value])
            assert um._remainder(one, L).tobytes() == np.mod(one, L).tobytes(), value

    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_wrap_matches_ref_wrap(self, seed, d):
        rng = np.random.default_rng(seed)
        L = float(rng.choice([1.0, 0.7, float(rng.uniform(1e-3, 1e3))]))
        metric = um.FlatMetric("torus", d, L)
        delta = np.concatenate([
            rng.uniform(-1.5 * L, 1.5 * L, size=(30, d)),
            rng.uniform(-20.0 * L, 20.0 * L, size=(5, d)),  # past [-L, 2L) after the shift
            np.array(remainder_cases(L)).reshape(-1, 1) - 0.5 * L + np.zeros((1, d)),
        ])
        assert metric.wrap(delta).tobytes() == ref_wrap(metric, delta).tobytes()
        assert metric.wrap(delta[:30]).tobytes() == ref_wrap(metric, delta[:30]).tobytes()
        empty = np.zeros((0, d))
        assert metric.wrap(empty).shape == (0, d)


def assert_same_row(g, r, ref, ref_r):
    """Row r of the stacked geodesic g is bit for bit row ref_r of ref."""
    assert g.length[r].tobytes() == ref.length[ref_r].tobytes()
    for field in ("a", "b", "tangent", "disp"):
        assert getattr(g, field)[r].tobytes() == getattr(ref, field)[ref_r].tobytes()


class TestGeodesicStack:
    @given(st.integers(0, 10 ** 6), st.sampled_from(["euclidean", "torus"]),
           st.sampled_from([2, 3, 8]), st.integers(0, 12))
    @settings(max_examples=150, deadline=None)
    def test_rows_match_one_pair_calls(self, seed, kind, d, n):
        rng = np.random.default_rng(seed)
        L = float(rng.choice([1.0, 2.0, 0.7]))
        metric = um.FlatMetric(kind, d, L if kind == "torus" else None)
        A = rng.uniform(-1.5, 1.5, size=(n, d))
        B = A + rng.uniform(-0.6, 0.6, size=(n, d)) * rng.integers(0, 2, size=(n, 1))
        if n and rng.random() < 0.3:  # a pair exactly half a period apart on one axis
            r = int(rng.integers(0, n))
            B[r, 0] = A[r, 0] + 0.5 * L
        first_tie = None
        rows = []
        for r in range(n):
            try:
                one = um.geodesic(metric, A[r : r + 1], B[r : r + 1])
            except um.NonUniqueGeodesic as err:
                with pytest.raises(um.NonUniqueGeodesic, match=re_escape(str(err))):
                    one_pair_geodesic(metric, A[r], B[r])
                first_tie = str(err) if first_tie is None else first_tie
                continue
            assert one.length.shape == (1,)
            assert_same_row(one, 0, one_pair_geodesic(metric, A[r], B[r]), 0)
            rows.append((r, one))
        if first_tie is not None:
            with pytest.raises(um.NonUniqueGeodesic) as err:
                um.geodesic(metric, A, B)
            assert str(err.value) == first_tie
            return
        stack = um.geodesic(metric, A, B)
        assert stack.length.shape == (n,) and stack.tangent.shape == (n, d)
        for r, one in rows:
            assert_same_row(stack, r, one, 0)

    def test_empty_stack(self):
        for metric in (EUCLID, um.FlatMetric("torus", 2, 1.0)):
            g = um.geodesic(metric, np.zeros((0, 2)), np.zeros((0, 2)))
            assert g.length.shape == (0,)
            assert g.tangent.shape == g.disp.shape == (0, 2)

    def test_stack_raises_the_first_tying_row(self):
        torus = um.FlatMetric("torus", 2, 2.0)
        A = np.zeros((4, 2))
        B = np.array([[0.3, 0.0], [1.0, 0.2], [0.1, 0.4], [0.0, -1.0]])
        with pytest.raises(um.NonUniqueGeodesic, match=re_escape("[1.0, 0.2]")):
            um.geodesic(torus, A, B)

    def test_shape_mismatch_raises(self):
        with pytest.raises(um.UmkehrError, match=re_escape("got (3, 2) and (2, 2)")):
            um.geodesic(EUCLID, np.zeros((3, 2)), np.zeros((2, 2)))
        with pytest.raises(um.UmkehrError, match=re_escape("(n, 2) stacks of one shape, got (3, 3)")):
            um.geodesic(EUCLID, np.zeros((3, 3)), np.zeros((3, 3)))


class TestEmbedding:
    def test_minimum_vertices(self):
        with pytest.raises(um.UmkehrError):
            um.DiscreteEmbedding(EUCLID, (circle(0.5, 7),))

    def test_repeated_vertex(self):
        loop = circle(0.5, 8)
        loop[3] = loop[2]
        with pytest.raises(um.UmkehrError):
            um.DiscreteEmbedding(EUCLID, (loop,))

    def test_dimension_mismatch(self):
        with pytest.raises(um.UmkehrError):
            um.DiscreteEmbedding(um.FlatMetric("euclidean", 3), (circle(0.5, 8),))

    @pytest.mark.parametrize("strand", [
        {"x": [0.0, 1.0]}, [[0.0, 1.0], [1.0]], [[0.0, "a"]] * 8, "loop",
    ], ids=["object", "ragged", "string-coordinate", "string"])
    def test_unconvertible_strand_is_named(self, strand):
        # An object used to escape as a TypeError from numpy.
        doc = fx.mirrored_pair(0.05).to_json()
        doc["loops"][1] = strand
        message = "strand 2 must be an (m, 2) vertex array"
        with pytest.raises(um.UmkehrError, match=re_escape(message)):
            um.embedding_from_json(doc)

    @pytest.mark.parametrize("period", [1e16, 1e17, 1e308])
    def test_huge_torus_period_is_named(self, period):
        # The mod by a huge period rounds every edge to zero; that used to
        # be reported as "strand 1 repeats vertex 0".
        doc = fx.mirrored_pair(0.05).to_json()
        doc["metric"] = {"kind": "torus", "d": 2, "L": period}
        with pytest.raises(um.UmkehrError, match=re_escape(
                f"torus period {period!r} is too large for strand 1: its edge 0 -> 1 rounds")):
            um.embedding_from_json(doc)

    @pytest.mark.parametrize("scale", [1e307, 1e155])
    def test_coordinates_whose_squares_overflow_are_named(self, scale):
        # mirrored_pair with its first ring scaled by 1e307 used to pass,
        # warn of overflow in the squared distances, and collapse every sample.
        doc = fx.mirrored_pair(0.05).to_json()
        doc["loops"][0] = [[x * scale for x in p] for p in doc["loops"][0]]
        with pytest.raises(um.UmkehrError, match=re_escape(
                f"strand 1 has a coordinate of magnitude {0.5 * scale!r}: squared distances")):
            um.embedding_from_json(doc)

    def test_coordinates_just_below_the_overflow_bound_are_kept(self):
        # d * (2 * max|x|)**2 is finite: every squared distance is too.
        big = math.sqrt(np.finfo(float).max / 2.0) / 2.0 * 0.99
        emb = um.DiscreteEmbedding(EUCLID, (circle(big, 8), circle(big / 4, 8)))
        assert emb.loops[0].max() == pytest.approx(big)

    def test_vertex_evaluation(self):
        emb = um.DiscreteEmbedding(EUCLID, (circle(0.5, 8),))
        for j in range(8):
            p = emb.points_at(1, [2 * PI * j / 8])[0]
            assert p == pytest.approx(emb.loops[0][j], abs=1e-15)

    def test_midpoint_interpolation(self):
        loop = np.array(
            [[0, 0], [1, 0], [1, 1], [0.8, 1.2], [0, 1], [-0.4, 1], [-0.5, 0.5], [-0.2, 0.1]],
            dtype=float,
        )
        emb = um.DiscreteEmbedding(EUCLID, (loop,))
        step = 2 * PI / 8
        mid = emb.points_at(1, [step / 2])[0]
        assert mid == pytest.approx([0.5, 0.0], abs=1e-12)

    def test_torus_seam_interpolation(self):
        torus = um.FlatMetric("torus", 2, 10.0)
        # edge from x=9.5 to x=0.5 should pass through the seam, not x=5
        loop = np.array(
            [[9.5, 0], [0.5, 0], [0.5, 1], [9.5, 1], [9.0, 1], [8.5, 1], [8.5, 0.5], [9.0, 0.2]],
            dtype=float,
        )
        emb = um.DiscreteEmbedding(torus, (loop,))
        mid = emb.points_at(1, [(2 * PI / 8) / 2])
        assert um.geodesic(torus, mid, [[0.0, 0.0]]).length[0] == pytest.approx(0.0, abs=1e-9)

    @given(st.integers(0, 10 ** 6), st.sampled_from(["euclidean", "torus"]), st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_edges_match_scalar_displacement(self, seed, kind, d):
        rng = np.random.default_rng(seed)
        metric = um.FlatMetric(kind, d, 1.0 if kind == "torus" else None)
        loop = random_strand(rng, int(rng.integers(8, 40)), d, 0.45)
        emb = um.DiscreteEmbedding(metric, (loop,))
        ref = scalar_edges(metric, emb.loops[0])
        assert emb._edges[0].tobytes() == ref.tobytes()

    def test_bad_edges_raise_for_the_first_offending_vertex(self):
        torus = um.FlatMetric("torus", 2, 2.0)
        base = circle(0.3, 8)
        tie_then_repeat = base.copy()
        tie_then_repeat[2] = tie_then_repeat[1] + [1.0, 0.0]
        tie_then_repeat[5] = tie_then_repeat[4]
        repeat_then_tie = base.copy()
        repeat_then_tie[2] = repeat_then_tie[1]
        repeat_then_tie[6] = repeat_then_tie[5] + [0.0, -1.0]
        for loop, kind in ((tie_then_repeat, um.NonUniqueGeodesic), (repeat_then_tie, um.UmkehrError)):
            with pytest.raises(kind) as ref:
                scalar_edges(torus, loop)
            with pytest.raises(kind) as got:
                um.DiscreteEmbedding(torus, (loop,))
            assert type(got.value) is type(ref.value)
            assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("label", [0, -1, 3, 1.0, True])
    def test_bad_labels_raise(self, label):
        # Label 0 used to read the last strand through index -1, and label 3 raised IndexError.
        emb = concentric(0.05)
        for read in (emb.m, emb.params, lambda x: emb.points_at(x, [0.5])):
            with pytest.raises(um.UmkehrError, match=r"strand label must be an integer in 1\.\.2"):
                read(label)

    def test_json_roundtrip(self):
        emb = concentric(0.05)
        doc = json.loads(json.dumps(emb.to_json()))
        back = um.embedding_from_json(doc)
        assert back.metric == emb.metric
        for a, b in zip(back.loops, emb.loops):
            assert np.array_equal(a, b)
        with pytest.raises(um.UmkehrError):
            um.embedding_from_json({"metric": EUCLID.to_json(), "loops": []})


def random_strand(rng, m, d, step):
    """Random-walk closed strand; steps up to `step` per axis."""
    return rng.uniform(0.0, 1.0, size=d) + np.cumsum(rng.uniform(-step, step, size=(m, d)), axis=0)


def scalar_edges(metric, loop):
    """Edge displacements one vertex at a time, as the reference for the batch build."""
    out = []
    for j in range(loop.shape[0]):
        step = one_pair_geodesic(metric, loop[j], loop[(j + 1) % loop.shape[0]]).disp[0]
        if float(np.linalg.norm(step)) == 0.0:
            raise um.UmkehrError(f"strand 1 repeats vertex {j}; consecutive points must differ")
        out.append(step)
    return np.array(out)


def brute_strand_distance(gamma, i, j):
    """All edge pairs; on the torus, of the reduced strands in every image n*L, |n_k| <= 2."""
    metric = gamma.metric
    A, DA = gamma.loops[i - 1], gamma._edges[i - 1]
    B, DB = gamma.loops[j - 1], gamma._edges[j - 1]
    shifts = [np.zeros(metric.d)]
    if metric.kind == "torus":
        A, B = np.mod(A, metric.L), np.mod(B, metric.L)
        shifts = [metric.L * np.array(n, dtype=float)
                  for n in itertools.product(range(-2, 3), repeat=metric.d)]
    ia, ib = np.divmod(np.arange(A.shape[0] * B.shape[0]), B.shape[0])
    best = math.inf
    for shift in shifts:
        img = B + shift if metric.kind == "torus" else B
        _, _, pa, pb = geom.segment_closest(A[ia], DA[ia], img[ib], DB[ib])
        best = min(best, float(np.linalg.norm(pa - pb, axis=1).min()))
    return best


BOUNDS = ("min", "above", "below", "half", "double", "tol")


def bound_from(kind, b):
    """A strand_distance bound at or around the brute-force minimum b."""
    return {
        "min": b,
        "above": np.nextafter(b, math.inf),
        "below": np.nextafter(b, -math.inf),
        "half": b / 2,
        "double": 2 * b,
        "tol": geom.TOL,
    }[kind]


def assert_bounded(gamma, i, j, kind, b):
    """Under a bound of the given kind around the minimum b, strand_distance is b or above the bound."""
    bound = bound_from(kind, b)
    got = um.strand_distance(gamma, i, j, bound)
    if b <= bound:
        assert got == b
    else:
        assert got > bound


def touching_four(kind):
    """Four strands where pairs (1, 4) and (2, 3) touch and every other pair is far apart.

    Strands 2 and 3 share the vertex (2.1, 1.0); strands 1 and 4 come 3.7e-10
    apart, on the torus of period 4 across the seam x = 0.
    """
    gap = 3.7e-10
    if kind == "torus":
        metric = um.FlatMetric("torus", 2, 4.0)
        centers = [(0.05, 2.0), (2.0, 1.0), (2.2, 1.0), (3.85 - gap, 2.0)]
    else:
        metric = EUCLID
        centers = [(0.0, 0.0), (2.0, 1.0), (2.2, 1.0), (0.2 + gap, 0.0)]
    return um.DiscreteEmbedding(metric, tuple(circle(0.1, center=c) for c in centers))


class TestStrandDistance:
    A = [(0.5, y) for y in (0.9, 0.45, 0.35, 0.25, 0.15, 0.05, 0.97, 0.93)]
    B = [(0.3, 0.38), (0.7, 0.62), (0.8, 0.6), (0.9, 0.55), (0.0, 0.5), (0.1, 0.45), (0.2, 0.4), (0.25, 0.39)]

    def test_torus_edges_crossing_in_another_image(self):
        # A winds once vertically and B once horizontally, so they must cross:
        # B's first edge meets A's first edge at (0.5, 0.5), in the image a
        # lift of B's edge start next to A's edge start (0.5, 0.9) skips.
        torus = um.FlatMetric("torus", 2, 1.0)
        emb = um.DiscreteEmbedding(torus, (self.A, self.B))
        assert um.strand_distance(emb, 1, 2) == 0.0
        assert um.strand_distance(emb, 2, 1) == 0.0
        c = sampling.random_cleavage(0, 2)
        with pytest.raises(um.SelfIntersecting):
            um.umkehr(emb, c, bp_mod.thicken(bp_mod.build_blueprint(c)), um.UmkehrConfig(epsilon=0.2))

    def test_corridor_minimum_matches_all_pairs(self):
        emb = fx.corridor_trio(63.2)
        assert um.strand_distance(emb, 2, 3) == brute_strand_distance(emb, 2, 3)

    @given(
        st.integers(0, 10 ** 6),
        st.sampled_from(["euclidean", "torus"]),
        st.sampled_from([2, 3]),
        st.integers(8, 100),
        st.integers(8, 100),
        st.sampled_from(BOUNDS),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed, kind, d, m1, m2, bound):
        rng = np.random.default_rng(seed)
        L = float(rng.uniform(0.5, 2.0))
        metric = um.FlatMetric(kind, d, L if kind == "torus" else None)
        # Long steps make torus edges wrap; whole-period offsets leave the
        # strands unchanged on the torus but exercise the reduction.
        step = 0.45 * L if kind == "torus" else float(rng.uniform(0.02, 0.3))
        loops = [random_strand(rng, m, d, step) for m in (m1, m2)]
        if kind == "torus":
            loops = [loop + L * rng.integers(-3, 4, size=loop.shape) for loop in loops]
        else:
            loops[1] = loops[1] + rng.uniform(-2.0, 2.0, size=d)
        try:
            emb = um.DiscreteEmbedding(metric, tuple(loops))
        except um.NonUniqueGeodesic:
            return
        assert um.strand_distance(emb, 1, 2) == brute_strand_distance(emb, 1, 2)
        assert um.strand_distance(emb, 2, 1) == brute_strand_distance(emb, 2, 1)
        # The unbounded minimum equals the brute force, as just asserted.
        for i, j in ((1, 2), (2, 1)):
            assert_bounded(emb, i, j, bound, um.strand_distance(emb, i, j))

    @given(
        st.integers(0, 10 ** 6),
        st.sampled_from(["euclidean", "torus"]),
        st.sampled_from([2, 3]),
        st.sampled_from(BOUNDS),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_ordered_pair_of_four_strands(self, seed, kind, d, bound):
        # One embedding answers all twelve ordered queries from one box index.
        rng = np.random.default_rng(seed)
        L = float(rng.uniform(0.5, 2.0))
        metric = um.FlatMetric(kind, d, L if kind == "torus" else None)
        step = 0.45 * L if kind == "torus" else 0.1
        loops = [random_strand(rng, int(rng.integers(8, 33)), d, step) for _ in range(4)]
        if kind == "euclidean":
            loops = [loop + rng.uniform(-1.0, 1.0, size=d) for loop in loops]
        try:
            emb = um.DiscreteEmbedding(metric, tuple(loops))
        except um.NonUniqueGeodesic:
            return
        index = emb._boxes
        for i, j in itertools.permutations(range(1, 5), 2):
            assert_bounded(emb, i, j, bound, brute_strand_distance(emb, i, j))
        assert emb._boxes is index

    def test_torus_precheck_builds_only_the_images_it_keeps(self):
        # Two 16-vertex strands, each winding once around its own axis of a
        # d = 8 torus, meet at the center.  Boxes assembled for all 5^8 images
        # up front took about 2.5 s and a 300 MB tracemalloc peak for this query.
        d, m = 8, 16
        loops = [np.full((m, d), 0.5) for _ in range(2)]
        loops[0][:, 0] = loops[1][:, 1] = np.arange(m) / m
        emb = um.DiscreteEmbedding(um.FlatMetric("torus", d, 1.0), tuple(loops))
        tracemalloc.start()
        try:
            assert um.strand_distance(emb, 1, 2, geom.TOL) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 4), (1, 1), (1.0, 2), (True, 2), (2, -1)])
    def test_bad_labels_raise(self, i, j):
        # Before labels were checked, (0, 1) read strand 3 through index -1
        # and returned 0.00339, (1, 4) raised IndexError and (1, 1) gave 0.0.
        emb = fx.corridor_trio(63.2)
        with pytest.raises(um.UmkehrError, match="strand"):
            um.strand_distance(emb, i, j)

    def test_nan_bound_raises(self):
        emb = fx.corridor_trio(63.2)
        with pytest.raises(um.UmkehrError, match="nan"):
            um.strand_distance(emb, 1, 2, math.nan)

    @pytest.mark.parametrize("kind", ["euclidean", "torus"])
    def test_first_touching_pair_is_named(self, kind):
        # (1, 4) comes before (2, 3) in label order; the message carries the
        # exact distance, as it did when the precheck computed every minimum.
        emb = touching_four(kind)
        b = brute_strand_distance(emb, 1, 4)
        assert 0.0 < b <= geom.TOL
        assert brute_strand_distance(emb, 2, 3) == 0.0
        c = sampling.random_cleavage(0, 4)
        with pytest.raises(um.SelfIntersecting) as err:
            um.umkehr(emb, c, bp_mod.thicken(bp_mod.build_blueprint(c)), um.UmkehrConfig(epsilon=0.2))
        assert str(err.value) == f"strands 1 and 4 come within {b:.3e} of each other"

    @pytest.mark.parametrize("kind", ["euclidean", "torus"])
    def test_closest_approach_just_above_tol_passes(self, kind):
        metric = um.FlatMetric("torus", 2, 4.0) if kind == "torus" else EUCLID
        # Parallel edges of concentric 96-gons sit cos(pi/96) times the radius gap apart.
        emb = um.DiscreteEmbedding(metric, (circle(0.5), circle(0.5 + 1.1e-9, mirrored=True)))
        b = brute_strand_distance(emb, 1, 2)
        assert geom.TOL < b < 1.1e-9
        assert um.strand_distance(emb, 1, 2, geom.TOL) > geom.TOL
        assert um.strand_distance(emb, 1, 2, b) == b
        c = chord_cleavage()
        tv = um.umkehr(emb, c, bp_mod.thicken(bp_mod.build_blueprint(c)), um.UmkehrConfig(epsilon=0.2))
        assert len(tv.components) == 1


class TestScaling:
    def test_examples(self):
        got = um.scaling(np.array([0.1, 0.1]), 0.2, np.array([1.0, 0.0]), 0.0)
        assert got.tolist() == [pytest.approx(0.5, abs=1e-15), math.inf]
        assert um.scaling(np.array([0.1]), 0.2, np.array([0.0]), 1.0)[0] == pytest.approx(0.5, abs=1e-15)

    def test_beyond_tube(self):
        assert um.scaling(np.array([0.25]), 0.2, np.array([1.0]), 0.0).tolist() == [math.inf]

    def test_boundary(self):
        assert um.scaling(np.array([0.2]), 0.2, np.array([1.0]), 0.0)[0] == pytest.approx(1.0, abs=1e-15)

    def test_empty(self):
        assert um.scaling(np.zeros(0), 0.2, np.zeros(0), 0.0).shape == (0,)

    @given(st.lists(st.tuples(st.one_of(st.floats(0.0, 2.0), st.just(1.0)),
                              st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))),
                    max_size=12),
           st.floats(1e-3, 1.0), st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])))
    @example(rows=[(0.5, 0.0), (0.5, 0.3), (1.0, 1.0), (1.5, 0.0), (0.0, 0.0)], epsilon=0.2, t=0.0)
    @example(rows=[(0.5, 0.0), (0.5, 0.3), (1.0, 1.0), (1.5, 0.0), (0.0, 0.0)], epsilon=0.2, t=1.0)
    # A denominator near 1e-310 overflows the quotient: INF, with no warning.
    @example(rows=[(0.5, 1e-310)], epsilon=1.0, t=0.0)
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_matches_the_scalar_reference(self, rows, epsilon, t):
        # Each row's distance is a multiple of epsilon (1.0 is the tube's
        # edge, above it lies beyond); one array call, one scalar call per row.
        dist = np.array([f * epsilon for f, _ in rows], dtype=float)
        inf_delta = np.array([delta for _, delta in rows], dtype=float)
        got = um.scaling(dist, epsilon, inf_delta, t)
        ref = np.array([scalar_scaling(d_, epsilon, delta, t)
                        for d_, delta in zip(dist.tolist(), inf_delta.tolist())], dtype=float)
        assert got.shape == dist.shape
        assert got.tobytes() == ref.tobytes()
        # A scalar inf_delta broadcasts as the same value in every row.
        assert um.scaling(dist, epsilon, 1.0, t).tobytes() == np.array(
            [scalar_scaling(d_, epsilon, 1.0, t) for d_ in dist.tolist()], dtype=float).tobytes()


def far_loops():
    return (
        circle(0.1, 8, center=(5.0, 5.0)),
        circle(0.1, 8, center=(6.0, 5.0)),
    )


class TestClearance:
    """Each delta from the block, bit for bit the per-query oracle's, which also names the witness."""

    def test_no_strand_in_tube(self):
        emb = um.DiscreteEmbedding(EUCLID, far_loops())
        g = um.geodesic(EUCLID, [[0.0, 0.0]], [[0.1, 0.0]])
        cfg = um.UmkehrConfig(epsilon=0.2)
        inf_delta, witness = query(emb, g, 0, cfg)
        assert inf_delta == 1.0
        assert witness is None

    def test_strand_through_tube(self):
        invader = circle(0.02, 8, center=(0.05, 0.0))
        invader[0] = [0.05, 0.0]  # exactly on the segment
        emb = um.DiscreteEmbedding(EUCLID, far_loops() + (invader,))
        g = um.geodesic(EUCLID, [[0.0, 0.0]], [[0.1, 0.0]])
        cfg = um.UmkehrConfig(epsilon=0.2)
        inf_delta, witness = query(emb, g, 0, cfg)
        assert inf_delta == 0.0
        assert witness.label == 3
        assert witness.param == 0.0
        assert witness.delta == 0.0

    def test_half_depth_vertex(self):
        invader = circle(0.001, 8, center=(0.05, 0.058))
        invader[0] = [0.05, 0.05]  # perp 0.05 at t=0.5, radius 0.1
        emb = um.DiscreteEmbedding(EUCLID, far_loops() + (invader,))
        g = um.geodesic(EUCLID, [[0.0, 0.0]], [[0.1, 0.0]])
        cfg = um.UmkehrConfig(epsilon=0.2)
        inf_delta, witness = query(emb, g, 0, cfg)
        assert inf_delta == pytest.approx(0.5, abs=1e-12)
        assert witness.label == 3
        assert witness.point == pytest.approx([0.05, 0.05], abs=1e-15)

    def test_endpoint_exclusion(self):
        # vertex 1 of loop 1 sits inside the tube but within eta of the
        # excluded endpoint parameter 0
        loop1 = np.array(
            [[0.0, 0.0], [0.05, 0.001], [1.0, 1.0], [1.5, 1.5], [1.5, 2.0],
             [1.0, 2.0], [0.5, 2.0], [0.0, 1.0]],
            dtype=float,
        )
        emb = um.DiscreteEmbedding(EUCLID, (loop1, circle(0.1, 8, center=(5.0, 5.0))))
        g = um.geodesic(EUCLID, [[0.0, 0.0]], [[0.1, 0.0]])
        default = um.UmkehrConfig(epsilon=0.2)
        inf_delta, _ = query(emb, g, 0, default, exclude=((1, 0.0),))
        assert inf_delta == 1.0
        tight = um.UmkehrConfig(epsilon=0.2, eta=0.1)
        inf_delta, witness = query(emb, g, 0, tight, exclude=((1, 0.0),))
        assert inf_delta == pytest.approx(0.001 / 0.1, abs=1e-12)
        assert witness.label == 1

    def test_exclusion_radius_reaches_whole_vertex_steps(self):
        # Vertex 2 lies exactly ETA_STEPS = 2 vertex steps from the excluded
        # parameter 0, so it is dropped; at 1.5 steps it is kept and sits
        # at depth 0.01 under radius 0.1 in the middle of the tube.
        loop1 = np.array([[0.0, 0.0], [-0.3, 0.3], [0.05, 0.01], [0.5, 0.5], [0.5, 1.0],
                          [0.0, 1.0], [-0.5, 1.0], [-0.5, 0.3]])
        emb = um.DiscreteEmbedding(EUCLID, (loop1, circle(0.1, 8, center=(5.0, 5.0))))
        g = um.geodesic(EUCLID, [[0.0, 0.0]], [[0.1, 0.0]])
        exclude = ((1, 0.0),)
        for cfg, delta in ((um.UmkehrConfig(epsilon=0.2), 1.0),
                           (um.UmkehrConfig(epsilon=0.2, eta=2 * 2 * PI / 8), 1.0),
                           (um.UmkehrConfig(epsilon=0.2, eta=1.5 * 2 * PI / 8), 0.1)):
            got = query(emb, g, 0, cfg, exclude)
            assert got[0] == pytest.approx(delta, abs=1e-12)
            assert_same_clearance(got, reference_clearance(emb, g, 0, cfg, exclude))
        assert (got[1].label, got[1].param) == (1, emb.params(1)[2])

    def test_exclusion_is_per_strand(self):
        invader = circle(0.001, 8, center=(0.05, 0.058))
        invader[0] = [0.05, 0.05]
        emb = um.DiscreteEmbedding(EUCLID, far_loops() + (invader,))
        g = um.geodesic(EUCLID, [[0.0, 0.0]], [[0.1, 0.0]])
        cfg = um.UmkehrConfig(epsilon=0.2, eta=PI)  # huge radius
        # excluding parameter 0 on strand 1 must not shield strand 3
        inf_delta, witness = query(emb, g, 0, cfg, exclude=((1, 0.0),))
        assert inf_delta == pytest.approx(0.5, abs=1e-12)
        assert witness.label == 3

    def test_zero_length_rejected(self):
        # The first queried row of non-positive length is named.
        emb = um.DiscreteEmbedding(EUCLID, far_loops())
        g = um.geodesic(EUCLID, [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]], [[0.1, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(um.UmkehrError, match="row 2 has length 0.0"):
            um.clearance(emb, g, [0, 2, 1], um.UmkehrConfig(epsilon=0.2), *no_exclusions(3))

    @pytest.mark.parametrize("r", [2, -1, 1.0, True, None])
    def test_row_outside_the_stack_is_a_domain_error(self, r):
        emb = um.DiscreteEmbedding(EUCLID, far_loops())
        g = um.geodesic(EUCLID, [[0.0, 0.0], [0.0, 0.0]], [[0.1, 0.0], [0.0, 0.1]])
        with pytest.raises(um.UmkehrError, match=re_escape(f"row must be an integer in 0..1, got {r!r}")):
            um.clearance(emb, g, [0, r], um.UmkehrConfig(epsilon=0.2), *no_exclusions(2))
        # Among integer rows, the first outside the stack is named.
        with pytest.raises(um.UmkehrError, match=re_escape("row must be an integer in 0..1, got 3")):
            um.clearance(emb, g, [0, 3, -1], um.UmkehrConfig(epsilon=0.2), *no_exclusions(3))

    def test_rows_must_be_one_axis(self):
        emb = um.DiscreteEmbedding(EUCLID, far_loops())
        g = um.geodesic(EUCLID, [[0.0, 0.0]], [[0.1, 0.0]])
        with pytest.raises(um.UmkehrError, match=re_escape("1-D array of row indices, got shape (1, 1)")):
            um.clearance(emb, g, [[0]], um.UmkehrConfig(epsilon=0.2), *no_exclusions(1))
        with pytest.raises(um.UmkehrError, match=re_escape("got shape ()")):
            um.clearance(emb, g, 0, um.UmkehrConfig(epsilon=0.2), *no_exclusions(1))

    @pytest.mark.parametrize("label", [7, 0, -1, 1.5, 1.0, True, np.True_, None, "1", [1]], ids=repr)
    def test_exclusion_label_outside_1_to_k_is_a_domain_error(self, label):
        # spans.get once skipped 7 and 1.5 without a word, and read True as strand 1.
        emb = um.DiscreteEmbedding(EUCLID, far_loops())
        g = um.geodesic(EUCLID, [[0.0, 0.0], [0.0, 0.0]], [[0.1, 0.0], [0.0, 0.1]])
        cfg = um.UmkehrConfig(epsilon=0.2)
        message = re_escape(f"exclusion label must be an integer in 1..2, got {label!r}")
        with pytest.raises(um.UmkehrError, match=message):
            um.clearance(emb, g, [0, 1], cfg, [[1, 2], [2, label]], np.zeros((2, 2)))
        # An array is judged by its dtype: each entry of a bool or float array fails.
        for array in (np.array([[1, 2]], dtype=float), np.array([[True, True]])):
            with pytest.raises(um.UmkehrError, match=re_escape(f"got {array[0, 0].item()!r}")):
                um.clearance(emb, g, [0], cfg, array, np.zeros((1, 2)))

    @pytest.mark.parametrize("labels_shape, params_shape", [
        ((2, 2), (2, 2)), ((0, 2), (0, 2)), ((1, 2), (1, 1)), ((1, 0), (1, 1)),
        ((2,), (2,)), ((1, 1, 2), (1, 1, 2)),
    ], ids=str)
    def test_exclusions_need_the_shape_of_rows(self, labels_shape, params_shape):
        emb = um.DiscreteEmbedding(EUCLID, far_loops())
        g = um.geodesic(EUCLID, [[0.0, 0.0]], [[0.1, 0.0]])
        cfg = um.UmkehrConfig(epsilon=0.2)
        assert um.clearance(emb, g, [0], cfg, np.ones((1, 2), dtype=int), np.zeros((1, 2))).tolist() == [1.0]
        with pytest.raises(um.UmkehrError, match=re_escape("exclusions must be two (1, e) arrays")):
            um.clearance(emb, g, [0], cfg, np.ones(labels_shape, dtype=int), np.zeros(params_shape))

    def test_exclusion_params_must_be_real(self):
        emb = um.DiscreteEmbedding(EUCLID, far_loops())
        g = um.geodesic(EUCLID, [[0.0, 0.0]], [[0.1, 0.0]])
        with pytest.raises(um.UmkehrError, match="exclusion params must be real numbers"):
            um.clearance(emb, g, [0], um.UmkehrConfig(epsilon=0.2), [[1]], [["pi"]])

    @pytest.mark.parametrize("param", [math.nan, math.inf, -math.inf])
    def test_non_finite_exclusion_param_is_a_domain_error(self, param):
        # nan used to drop the whole excluded strand, and inf warned in np.mod.
        emb = um.DiscreteEmbedding(EUCLID, far_loops())
        g = um.geodesic(EUCLID, [[0.0, 0.0]], [[0.1, 0.0]])
        with pytest.raises(um.UmkehrError, match="exclusion params must be finite real numbers"):
            um.clearance(emb, g, [0], um.UmkehrConfig(epsilon=0.2), [[1, 2]], [[0.0, param]])

    def test_squared_length_that_underflows_is_a_domain_error(self):
        # t divides by the squared length, which rounds to 0.0 below about 1.5e-162.
        emb = um.DiscreteEmbedding(EUCLID, far_loops())
        a, disp = np.zeros((2, 2)), np.array([[0.1, 0.0], [1e-170, 0.0]])
        g = um.Geodesic(a, a + disp, np.array([0.1, 1e-170]), np.array([[1.0, 0.0]] * 2), disp)
        with pytest.raises(um.UmkehrError, match=re_escape("row 1 has length 1e-170")):
            um.clearance(emb, g, [0, 1], um.UmkehrConfig(epsilon=0.2), *no_exclusions(2))

    def test_no_rows(self):
        emb = um.DiscreteEmbedding(EUCLID, far_loops())
        g = um.geodesic(EUCLID, [[0.0, 0.0]], [[0.1, 0.0]])
        got = um.clearance(emb, g, np.zeros(0, dtype=int), um.UmkehrConfig(epsilon=0.2), *no_exclusions(0))
        assert got.shape == (0,) and got.dtype == float


def no_exclusions(n):
    """(n, 0) exclusion arrays: n queries, each excluding nothing."""
    return np.zeros((n, 0), dtype=int), np.zeros((n, 0))


def exclusion_arrays(excludes):
    """umkehr.clearance's (n, e) label and param arrays from n lists of e (label, param) points."""
    n = len(excludes)
    e = len(excludes[0]) if n else 0
    return (np.array([[label for label, _ in ex] for ex in excludes], dtype=int).reshape(n, e),
            np.array([[param for _, param in ex] for ex in excludes], dtype=float).reshape(n, e))


def query(gamma, g, r, cfg, exclude=(), tol=geom.TOL):
    """(delta, witness) of row r: delta from the block, the witness from the per-query oracle.

    The block's delta must be the oracle's, bit for bit.
    """
    got = um.clearance(gamma, g, [r], cfg, *exclusion_arrays([tuple(exclude)]), tol)
    ref = one_query_clearance(gamma, g, r, cfg, exclude, tol)
    assert got.shape == (1,) and float(got[0]).hex() == float(ref[0]).hex()
    return float(got[0]), ref[1]


def reference_clearance(gamma, g, r, cfg, exclude=(), tol=geom.TOL):
    """Strand-by-strand tube scan around row r of g, the reference for the one-pass clearance."""
    a, disp, length = g.a[r], g.disp[r], float(g.length[r])
    etas = cfg.eta_radians(gamma)
    best = 1.0
    witness = None
    zero_witness = None
    ell2 = length * length
    for label in range(1, gamma.k + 1):
        loop = gamma.loops[label - 1]
        params = gamma.params(label)
        keep = np.ones(loop.shape[0], dtype=bool)
        for exc_label, exc_param in exclude:
            if exc_label != label:
                continue
            gap = np.abs(params - (exc_param % (2 * PI)))
            gap = np.minimum(gap, 2 * PI - gap)
            keep &= gap > etas[label - 1]
        if not np.any(keep):
            continue
        w = ref_wrap(gamma.metric, loop[keep] - a)
        t = ref_dot(w, disp) / ell2
        perp = w - t[:, None] * disp
        pd = ref_norm(perp)
        seg = ref_norm(w - np.clip(t, 0.0, 1.0)[:, None] * disp)
        kept_params = params[keep]
        on_seg = seg <= tol
        if np.any(on_seg) and zero_witness is None:
            first = int(np.argmax(on_seg))
            zero_witness = ClearanceWitness(
                label, float(kept_params[first]), 0.0, loop[keep][first]
            )
        inside = (t > 0.0) & (t < 1.0) & ~on_seg
        if not np.any(inside):
            continue
        radius = cfg.epsilon * (0.5 - np.abs(t[inside] - 0.5))
        ratio = pd[inside] / radius
        hit = ratio < 1.0
        if not np.any(hit):
            continue
        ratios = ratio[hit]
        arg = int(np.argmin(ratios))
        if float(ratios[arg]) < best:
            best = float(ratios[arg])
            sub_params = kept_params[inside][hit]
            sub_points = loop[keep][inside][hit]
            witness = ClearanceWitness(label, float(sub_params[arg]), best, sub_points[arg])
    if zero_witness is not None:
        return 0.0, zero_witness
    return best, witness


def reference_one_pass_clearance(gamma, g, r, cfg, exclude=(), tol=geom.TOL):
    """The one-pass scan around row r of g over the kept rows of all strands
    at once, with pure-Python dots, the reference for clearance in every dimension."""
    a, disp, length = g.a[r], g.disp[r], float(g.length[r])
    verts = np.concatenate(gamma.loops)
    labels = np.concatenate([np.full(loop.shape[0], i + 1) for i, loop in enumerate(gamma.loops)])
    params = np.concatenate([gamma.params(i + 1) for i in range(gamma.k)])
    keep = np.ones(labels.shape[0], dtype=bool)
    if exclude:
        eta = np.asarray(cfg.eta_radians(gamma))[labels - 1]
        for exc_label, exc_param in exclude:
            gap = np.abs(params - (exc_param % (2 * PI)))
            gap = np.minimum(gap, 2 * PI - gap)
            keep &= (labels != exc_label) | (gap > eta)
    rows = keep.nonzero()[0]
    if rows.size == 0:
        return 1.0, None
    w = ref_wrap(gamma.metric, verts[rows] - a)
    t = ref_dot(w, disp) / (length * length)

    def witness(row, delta):
        v = int(rows[row])
        return ClearanceWitness(int(labels[v]), float(params[v]), delta, verts[v].copy())

    seg = ref_norm(w - np.clip(t, 0.0, 1.0)[:, None] * disp)
    on_seg = seg <= tol
    if on_seg.any():
        return 0.0, witness(int(np.argmax(on_seg)), 0.0)
    inside = ((t > 0.0) & (t < 1.0)).nonzero()[0]
    t_in = t[inside]
    pd = ref_norm(w[inside] - t_in[:, None] * disp)
    ratio = pd / (cfg.epsilon * (0.5 - np.abs(t_in - 0.5)))
    hit = (ratio < 1.0).nonzero()[0]
    if hit.size == 0:
        return 1.0, None
    arg = int(hit[np.argmin(ratio[hit])])
    best = float(ratio[arg])
    return best, witness(int(inside[arg]), best)


def assert_same_clearance(got, ref):
    assert got[0] == ref[0]
    if ref[1] is None:
        assert got[1] is None
        return
    assert (got[1].label, got[1].param, got[1].delta) == (ref[1].label, ref[1].param, ref[1].delta)
    assert got[1].point.tobytes() == ref[1].point.tobytes()


class TestClearanceOracle:
    @given(
        st.integers(0, 10 ** 6),
        st.sampled_from(["euclidean", "torus"]),
        st.sampled_from([2, 3, 8]),
        st.integers(2, 6),
        st.one_of(st.none(), st.floats(0.0, 3.5), st.just(PI - 1e-9)),
        st.sampled_from([1e-9, 1e-3, 0.05]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_strand_scan(self, seed, kind, d, k, eta, tol):
        rng = np.random.default_rng(seed)
        metric = um.FlatMetric(kind, d, 1.0 if kind == "torus" else None)
        loops = [random_strand(rng, int(rng.integers(8, 201)), d, float(rng.uniform(0.01, 0.3)))
                 for _ in range(k)]
        try:
            emb = um.DiscreteEmbedding(metric, tuple(loops))
        except um.NonUniqueGeodesic:
            return
        cfg = um.UmkehrConfig(epsilon=float(rng.uniform(0.05, 2.0)), eta=eta)
        # A geodesic between two strand points, as umkehr draws them, or
        # between two free points, in row r of a stack of short free pairs;
        # its ends are excluded or not at random.  The references scan the
        # one-pair oracle geodesic.
        ends = [(int(rng.integers(1, k + 1)), float(rng.uniform(-7.0, 7.0))) for _ in range(2)]
        if rng.random() < 0.8:
            a, b = (emb.points_at(label, [s])[0] for label, s in ends)
        else:
            a, b = rng.uniform(-0.5, 1.5, size=(2, d))
        n = int(rng.integers(1, 5))
        r = int(rng.integers(0, n))
        A = rng.uniform(-0.5, 1.5, size=(n, d))
        B = A + rng.uniform(-0.1, 0.1, size=(n, d))
        A[r], B[r] = a, b
        try:
            ref = one_pair_geodesic(metric, a, b, tol)
        except um.NonUniqueGeodesic:
            return
        if not ref.length[0] > 0.0:
            return
        exclude = tuple(ends[: int(rng.integers(0, 3))])
        exclude += tuple((int(rng.integers(1, k + 1)), float(rng.uniform(0.0, 7.0)))
                         for _ in range(int(rng.integers(0, 3))))
        got = query(emb, um.geodesic(metric, A, B, tol), r, cfg, exclude, tol)
        assert_same_clearance(got, reference_one_pass_clearance(emb, ref, 0, cfg, exclude, tol))
        assert_same_clearance(got, reference_clearance(emb, ref, 0, cfg, exclude, tol))

    def test_strands_keeping_one_vertex(self):
        # eta just under pi leaves an excluded strand with an even vertex
        # count only the vertex opposite parameter 0: its row must round as
        # the same vertex does in a one-strand scan.
        cfg = um.UmkehrConfig(epsilon=50.0, eta=PI - 1e-9)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(2, 7))
            emb = um.DiscreteEmbedding(EUCLID, tuple(
                random_strand(rng, int(rng.integers(8, 30)), 2, 0.2) for _ in range(k)))
            a, b = (emb.points_at(int(rng.integers(1, k + 1)), [float(rng.uniform(0.0, 7.0))])
                    for _ in range(2))
            g = um.geodesic(EUCLID, a, b)
            exclude = tuple((label, 0.0) for label in range(1, int(rng.integers(2, k + 1))))
            assert_same_clearance(query(emb, g, 0, cfg, exclude),
                                  reference_clearance(emb, g, 0, cfg, exclude))

    @pytest.mark.parametrize("kind", ["euclidean", "torus"])
    def test_eight_dimensions(self, kind):
        # Eight coordinates are still added left to right, as the
        # reference adds them.  The deepest vertex is the last row of the
        # table, and excluding part of strand 1 shifts it within the kept
        # rows, which must not change how its row rounds.
        metric = um.FlatMetric(kind, 8, 4.0 if kind == "torus" else None)
        hits = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            loops = [random_strand(rng, int(rng.integers(8, 40)), 8, 0.05) for _ in range(3)]
            emb = um.DiscreteEmbedding(metric, tuple(loops))
            a = emb.points_at(1, [0.0])
            g = um.geodesic(metric, a, 2 * loops[2][-1] - a + rng.uniform(-1e-3, 1e-3, size=8))
            cfg = um.UmkehrConfig(epsilon=1.0, eta=float(rng.integers(1, 4)) * 2 * PI / emb.m(1))
            got = query(emb, g, 0, cfg, ((1, 0.0),))
            assert_same_clearance(got, reference_one_pass_clearance(emb, g, 0, cfg, ((1, 0.0),)))
            hits += got[1] is not None and got[1].label == 3
        assert hits >= 30

    def test_ties_go_to_the_first_vertex_in_label_order(self):
        g = um.geodesic(EUCLID, [[0.0, 0.0]], [[1.0, 0.0]])
        cfg = um.UmkehrConfig(epsilon=0.5)
        far = circle(0.1, 8, center=(5.0, 5.0))
        # Strands 2 and 3 both hold the deepest point, strand 2 twice
        # (vertices 3 and 5, the latter mirrored), so the witness is strand
        # 2's vertex 3; at tol 0.06 every one of them is on the segment.
        twin = circle(0.1, 8, center=(0.5, 0.5))
        twin[3], twin[5] = [0.5, 0.05], [0.5, -0.05]
        other = circle(0.1, 8, center=(0.5, -0.5))
        other[1] = [0.5, 0.05]
        emb = um.DiscreteEmbedding(EUCLID, (far, twin, other))
        delta, witness = query(emb, g, 0, cfg)
        assert delta == pytest.approx(0.2, abs=1e-12)
        assert (witness.label, witness.param) == (2, emb.params(2)[3])
        delta, witness = query(emb, g, 0, cfg, tol=0.06)
        assert (delta, witness.label, witness.param) == (0.0, 2, emb.params(2)[3])
        for tol in (geom.TOL, 0.06):
            assert_same_clearance(query(emb, g, 0, cfg, tol=tol),
                                  reference_clearance(emb, g, 0, cfg, tol=tol))

    @pytest.mark.parametrize("tip", [61.6, 63.2, 72.4])
    def test_corridor_samples_match_per_strand_scan(self, tip):
        # In the plane, and wrapped onto the unit torus as the benchmark
        # writes it; every pair is a row of one stack, as umkehr stacks them.
        plane = fx.corridor_trio(tip)
        torus = um.DiscreteEmbedding(um.FlatMetric("torus", 2, 1.0),
                                     tuple(np.mod(loop, 1.0) for loop in plane.loops))
        c = fx.corridor_cleavage()
        tb = bp_mod.thicken(bp_mod.build_blueprint(c), density=24)
        cfg = um.UmkehrConfig(epsilon=fx.CORRIDOR_EPSILON, density=24)
        pairs = [pair for sample in tb.samples for pair in itertools.combinations(sample.preimages, 2)]
        for emb in (plane, torus):
            A, B = (np.array([emb.points_at(label, [th])[0] for label, th in ends])
                    for ends in zip(*pairs))
            g = um.geodesic(emb.metric, A, B)
            for r, exclude in enumerate(pairs):
                if 0.0 < g.length[r] <= cfg.epsilon:
                    assert_same_clearance(query(emb, g, r, cfg, exclude),
                                          reference_clearance(emb, g, r, cfg, exclude))


class TestClearanceBlock:
    """The stacked clearance against the per-query oracle, float bits compared as hex."""

    @given(
        st.integers(0, 10 ** 6),
        st.sampled_from(["euclidean", "torus"]),
        st.sampled_from([2, 3, 8]),
        st.integers(2, 4),
        st.integers(0, 2),
        st.sampled_from(["steps", "drawn", "whole strand"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_query_oracle(self, seed, kind, d, k, e, eta):
        rng = np.random.default_rng(seed)
        metric = um.FlatMetric(kind, d, 1.0 if kind == "torus" else None)
        loops = [random_strand(rng, int(rng.integers(8, 61)), d, float(rng.uniform(0.01, 0.3)))
                 for _ in range(k)]
        try:
            emb = um.DiscreteEmbedding(metric, tuple(loops))
        except um.NonUniqueGeodesic:
            return
        # eta = pi drops the whole strand of each exclusion.
        cfg = um.UmkehrConfig(epsilon=float(rng.uniform(0.05, 2.0)),
                              eta={"steps": None, "drawn": float(rng.uniform(0.0, 3.0)),
                                   "whole strand": PI}[eta])
        tol = float(rng.choice([1e-9, 1e-3, 0.05]))
        # Rows of four kinds: between two strand points, as umkehr draws
        # them; between free points; through a vertex of a strand that is
        # not excluded (delta 0.0); and, with eta = pi, excluding strands
        # 1 and 2 of two (delta 1.0).
        n = int(rng.integers(1, 41))
        kinds = rng.choice(["strand", "free", "on", "full"], size=n).tolist()
        A, B = rng.uniform(-0.5, 1.5, size=(2, n, d))
        B = A + 0.3 * (B - A)
        ex_labels = rng.integers(1, k + 1, size=(n, e))
        ex_params = rng.uniform(-7.0, 7.0, size=(n, e))
        for q, row in enumerate(kinds):
            if row == "strand":
                ends = [(int(rng.integers(1, k + 1)), float(rng.uniform(-7.0, 7.0))) for _ in range(2)]
                A[q], B[q] = (emb.points_at(label, [s])[0] for label, s in ends)
                ex_labels[q], ex_params[q] = [label for label, _ in ends][:e], [s for _, s in ends][:e]
            elif row == "on":
                label = int(rng.integers(1, k + 1))
                vertex = loops[label - 1][int(rng.integers(0, emb.m(label)))]
                half = rng.uniform(-0.05, 0.05, size=d)
                A[q], B[q] = vertex - half, vertex + half
                ex_labels[q] = label % k + 1
            elif row == "full" and e == 2 and k == 2 and cfg.eta == PI:
                ex_labels[q] = [1, 2]
        try:
            g = um.geodesic(metric, A, B, tol)
        except um.NonUniqueGeodesic:
            return
        live = np.flatnonzero(g.length > 0.0)
        if live.size == 0:
            return
        # Query q reads row q, or a random live row where row q has length
        # 0, so rows may repeat.
        rows = np.where(g.length > 0.0, np.arange(n), rng.choice(live, size=n))
        got = um.clearance(emb, g, rows, cfg, ex_labels, ex_params, tol)
        assert got.shape == (n,) and got.dtype == float
        for q, r in enumerate(rows.tolist()):
            exclude = tuple(zip(ex_labels[q].tolist(), ex_params[q].tolist()))
            ref, _ = one_query_clearance(emb, g, r, cfg, exclude, tol)
            assert float(got[q]).hex() == float(ref).hex()
            if r == q and kinds[q] == "on":
                assert got[q] == 0.0
            if r == q and kinds[q] == "full" and e == 2 and k == 2 and cfg.eta == PI:
                assert got[q] == 1.0
        # Each query alone, through a stack of query numbers.
        def block(sel):
            return um.clearance(emb, g, rows[sel[:, 0]], cfg, ex_labels[sel[:, 0]], ex_params[sel[:, 0]], tol)

        assert_rows_stand_alone(block, np.arange(n)[:, None])
        with pytest.MonkeyPatch.context() as mp:
            for budget in (1, 1 << 20):
                mp.setattr(um, "_CLEARANCE_ROWS", budget)
                assert um.clearance(emb, g, rows, cfg, ex_labels, ex_params, tol).tobytes() == got.tobytes()

    def test_a_large_table_runs_one_query_per_chunk(self, monkeypatch):
        # The corridor trio's 4320 vertices exceed the chunk budget; each
        # query then runs alone, with the bits of the whole-stack block.
        emb = fx.corridor_trio(63.2)
        c = fx.corridor_cleavage()
        tb = bp_mod.thicken(bp_mod.build_blueprint(c), density=24)
        cfg = um.UmkehrConfig(epsilon=fx.CORRIDOR_EPSILON)
        pairs = [pair for sample in tb.samples for pair in itertools.combinations(sample.preimages, 2)]
        A, B = (np.array([emb.points_at(label, [th])[0] for label, th in ends]) for ends in zip(*pairs))
        g = um.geodesic(emb.metric, A, B)
        rows = np.flatnonzero((g.length > 0.0) & (g.length <= cfg.epsilon))
        ex_labels, ex_params = exclusion_arrays([pairs[r] for r in rows.tolist()])
        assert um._CLEARANCE_ROWS // sum(emb.m(label) for label in (1, 2, 3)) == 0
        got = um.clearance(emb, g, rows, cfg, ex_labels, ex_params)
        assert (got < 1.0).any()
        monkeypatch.setattr(um, "_CLEARANCE_ROWS", 1 << 30)
        assert um.clearance(emb, g, rows, cfg, ex_labels, ex_params).tobytes() == got.tobytes()


class TestReachableBlocks:
    """clearance on long strands and tables of several chunks, where its bounds skip blocks.

    Every δ must equal, as float hex, the dense block's (oracles.dense_clearance)
    and the per-query oracle's.
    """

    @given(
        st.integers(0, 10 ** 6),
        st.sampled_from(["euclidean", "torus"]),
        st.sampled_from([2, 3]),
        st.sampled_from([None, 0.0, PI, 1e308]),
        st.sampled_from([1e-9, 1e-3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_dense_and_per_query_oracles(self, seed, kind, d, eta, tol):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 4))
        loops = [random_strand(rng, int(rng.integers(100, 401)), d, float(rng.uniform(0.002, 0.02)))
                 for _ in range(k)]
        if kind == "torus":
            # Reduced into [0, 1): a strand crossing the period jumps, and its
            # blocks straddle a half-period for queries on either side.
            loops = [np.mod(loop - 0.5, 1.0) for loop in loops]
        metric = um.FlatMetric(kind, d, 1.0 if kind == "torus" else None)
        emb = um.DiscreteEmbedding(metric, tuple(loops))
        vertices = sum(emb.m(label) for label in range(1, k + 1))
        n = um._CLEARANCE_ROWS // vertices + int(rng.integers(1, 30))
        assert n * vertices > um._CLEARANCE_ROWS
        cfg = um.UmkehrConfig(epsilon=float(rng.uniform(0.02, 0.5)), eta=eta)
        # Rows of five kinds.  "strand": between two strand points, each
        # excluded, as umkehr draws them.  "free": a short free segment.
        # "end": a vertex within tol/2 of an end point, behind it, so outside
        # the slab 0 <= t <= 1 (δ is 0.0 unless it is excluded).  "ulps": a
        # vertex 1.5 tol off an end point, square to the segment and shifted
        # by a few ulps, at t = 0 or 1 give or take some ulps.  "seam": a
        # segment across the torus period.
        kinds = rng.choice(["strand", "free", "end", "ulps", "seam"], size=n).tolist()
        A = rng.uniform(0.0, 1.0, size=(n, d))
        B = A + rng.uniform(-0.1, 0.1, size=(n, d))
        ex_labels = rng.integers(1, k + 1, size=(n, 2))
        ex_params = rng.uniform(-7.0, 7.0, size=(n, 2))
        for q, row in enumerate(kinds):
            label = int(rng.integers(1, k + 1))
            vertex = emb.loops[label - 1][int(rng.integers(0, emb.m(label)))]
            u = rng.normal(size=d)
            u /= np.linalg.norm(u)
            ell = float(rng.uniform(0.01, 0.3))
            if row == "strand":
                ends = [(int(rng.integers(1, k + 1)), float(rng.uniform(-7.0, 7.0))) for _ in range(2)]
                A[q], B[q] = (emb.points_at(lab, [s])[0] for lab, s in ends)
                ex_labels[q], ex_params[q] = [lab for lab, _ in ends], [s for _, s in ends]
            elif row in ("end", "ulps"):
                if row == "end":
                    end = vertex + 0.5 * tol * u
                else:
                    perp = rng.normal(size=d)
                    perp -= (perp @ u) * u
                    end = vertex + 1.5 * tol * perp / np.linalg.norm(perp)
                    for _ in range(int(rng.integers(0, 4))):
                        end = np.nextafter(end, end + rng.choice([-1.0, 1.0], size=d))
                if rng.random() < 0.5:
                    A[q], B[q] = end, end + ell * u
                else:
                    A[q], B[q] = end - ell * u, end
                ex_labels[q] = label % k + 1
            elif row == "seam":
                A[q] = rng.uniform(-0.05, 0.05, size=d)
                B[q] = A[q] + ell * u
        try:
            g = um.geodesic(metric, A, B, tol)
        except um.NonUniqueGeodesic:
            return
        rows = np.flatnonzero(g.length > 0.0)
        got = um.clearance(emb, g, rows, cfg, ex_labels[rows], ex_params[rows], tol)
        dense = dense_clearance(emb, g, rows, cfg, ex_labels[rows], ex_params[rows], tol)
        assert got.tobytes() == dense.tobytes()
        for q, r in enumerate(rows.tolist()):
            exclude = tuple(zip(ex_labels[r].tolist(), ex_params[r].tolist()))
            ref, _ = one_query_clearance(emb, g, r, cfg, exclude, tol)
            assert float(got[q]).hex() == float(ref).hex()
            if kinds[r] == "end" and eta is None:
                assert got[q] == 0.0

    @pytest.mark.parametrize("kind", ["euclidean", "torus"])
    def test_corridor_visits_few_blocks_with_the_dense_bits(self, kind):
        # The corridor trio as umkehr queries it, in the plane and wrapped
        # onto the unit torus as the benchmark writes it.
        plane = fx.corridor_trio(63.2)
        emb = plane if kind == "euclidean" else um.DiscreteEmbedding(
            um.FlatMetric("torus", 2, 1.0), tuple(np.mod(loop, 1.0) for loop in plane.loops))
        tb = bp_mod.thicken(bp_mod.build_blueprint(fx.corridor_cleavage()), density=24)
        cfg = um.UmkehrConfig(epsilon=fx.CORRIDOR_EPSILON)
        pairs = [pair for sample in tb.samples for pair in itertools.combinations(sample.preimages, 2)]
        A, B = (np.array([emb.points_at(label, [th])[0] for label, th in ends]) for ends in zip(*pairs))
        g = um.geodesic(emb.metric, A, B)
        rows = np.flatnonzero((g.length > 0.0) & (g.length <= cfg.epsilon))
        ex_labels, ex_params = exclusion_arrays([pairs[r] for r in rows.tolist()])
        got = um.clearance(emb, g, rows, cfg, ex_labels, ex_params)
        assert (got < 1.0).any()
        assert got.tobytes() == dense_clearance(emb, g, rows, cfg, ex_labels, ex_params).tobytes()
        length = g.length[rows]
        visit = um._reachable(emb.metric, emb._blocks, g.a[rows].T, g.disp[rows].T, length, length * length,
                              geom.TOL)
        assert visit.mean() < 0.25

    def test_padding_repeats_the_last_vertex_and_never_counts(self):
        # 40 vertices make a second block of 8 vertices and 24 padding slots
        # repeating vertex 39, which lies on the segment; excluding vertex 39
        # must drop its copies too.
        loop = circle(0.5, 40)
        emb = um.DiscreteEmbedding(EUCLID, (loop, circle(0.1, 8, center=(5.0, 5.0))))
        blocks = emb._blocks
        assert blocks.pad.tolist() == list(range(40, 64)) + list(range(72, 96))
        assert (blocks.cols[:, 8:, 1] == loop[39][:, None]).all()
        g = um.geodesic(EUCLID, [loop[39] - [0.01, 0.0]], [loop[39] + [0.01, 0.0]])
        cfg = um.UmkehrConfig(epsilon=0.2, eta=1e-6)
        kept = um.clearance(emb, g, [0], cfg, [[2]], [[0.0]])
        dropped = um.clearance(emb, g, [0], cfg, [[1]], [[emb.params(1)[39]]])
        assert kept.tolist() == [0.0] and dropped.tolist() == [1.0]
        for ex in ([[2]], [[0.0]]), ([[1]], [[emb.params(1)[39]]]):
            assert um.clearance(emb, g, [0], cfg, *ex).tobytes() == dense_clearance(emb, g, [0], cfg, *ex).tobytes()


class TestConfig:
    def test_validation(self):
        with pytest.raises(um.UmkehrError):
            um.UmkehrConfig(epsilon=0.0)
        with pytest.raises(um.UmkehrError):
            um.UmkehrConfig(epsilon=0.2, t_homotopy=1.5)
        with pytest.raises(um.UmkehrError):
            um.UmkehrConfig(epsilon=0.2, density=1)
        with pytest.raises(um.UmkehrError):
            um.UmkehrConfig(epsilon=0.2, eta=-0.1)

    @pytest.mark.parametrize("knob", [
        {"epsilon": math.inf}, {"epsilon": math.nan}, {"epsilon": True},
        {"t_homotopy": math.nan}, {"t_homotopy": True},
        {"density": 2.5}, {"density": True}, {"density": "8"},
        {"eta": math.inf}, {"eta": math.nan},
        {"mapping": 1}, {"mapping": 2}, {"mapping": "yes"},
    ], ids=lambda knob: ",".join(f"{k}={v!r}" for k, v in knob.items()))
    def test_bad_knobs_raise_domain_errors(self, knob):
        with pytest.raises(um.UmkehrError):
            um.UmkehrConfig(**{"epsilon": 0.2, **knob})

    def test_infinite_tol_is_not_reported_as_self_intersection(self):
        # The evaluation tolerance is the diagram's, so an infinite one is
        # refused where the diagram is built, before any strand is compared.
        with pytest.raises(bp_mod.BlueprintError, match="tol") as err:
            bp_mod.build_blueprint(chord_cleavage(), tol=math.inf)
        assert not isinstance(err.value, um.SelfIntersecting)

    def test_numpy_scalars_accepted(self):
        cfg = um.UmkehrConfig(epsilon=np.float64(0.2), density=np.int64(8), eta=np.float64(0.3))
        assert cfg.density == 8
        # mapping = 1 once turned the glue masks into integer bit operations.
        cfg = um.UmkehrConfig(epsilon=0.2, mapping=np.bool_(True))
        assert cfg.mapping is True and cfg.to_json()["mapping"] is True

    def test_eta_default_follows_sampling(self):
        cfg = um.UmkehrConfig(epsilon=0.2)
        emb = concentric(0.05, m=96)
        assert cfg.eta_radians(emb) == [2.0 * 2 * PI / 96] * 2
        explicit = um.UmkehrConfig(epsilon=0.2, eta=0.3)
        assert explicit.eta_radians(emb) == [0.3, 0.3]


class TestUmkehr:
    def setup_method(self):
        self.c = chord_cleavage()
        self.tb = bp_mod.thicken(bp_mod.build_blueprint(self.c), density=8)
        self.cfg = um.UmkehrConfig(epsilon=0.2)

    def test_concentric_finite(self):
        tv = um.umkehr(concentric(0.05), self.c, self.tb, self.cfg)
        assert len(tv.components) == 1
        comp = tv.components[0]
        assert comp.status == "finite"
        scales = [e.scale for e in comp.entries]
        assert len(scales) == 16  # 8 samples x 2 ordered pairs
        assert max(scales) == pytest.approx(0.25, abs=1e-12)
        assert min(scales) >= 0.25 * (1 - 6e-4)
        assert comp.boundary == ()
        assert comp.uf_mask == ()
        assert comp.collapsed_samples == ()

    def test_antisymmetry(self):
        tv = um.umkehr(concentric(0.05), self.c, self.tb, self.cfg)
        comp = tv.components[0]
        by = {(e.sample, e.pair): e for e in comp.entries}
        for (s, pair), e in by.items():
            if pair != (1, 2):
                continue
            mirror = by[(s, (2, 1))]
            assert mirror.scale == e.scale
            assert mirror.tangent == tuple(-x for x in e.tangent)
            assert mirror.src == e.dst and mirror.dst == e.src

    def test_far_apart_collapses(self):
        tv = um.umkehr(concentric(0.3), self.c, self.tb, self.cfg)
        comp = tv.components[0]
        assert comp.status == "infinity"
        assert comp.entries == ()

    def test_boundary_scale_stays_finite(self):
        tv = um.umkehr(concentric(0.2), self.c, self.tb, self.cfg)
        comp = tv.components[0]
        assert comp.status == "finite"
        assert comp.boundary == ((1, 2),)
        assert max(e.scale for e in comp.entries) == pytest.approx(1.0, abs=1e-9)

    def test_arity_mismatch(self):
        emb = um.DiscreteEmbedding(EUCLID, (circle(0.5),))
        with pytest.raises(um.UmkehrError):
            um.umkehr(emb, self.c, self.tb, self.cfg)

    def test_cleavage_must_be_the_thickened_one(self):
        # Samples from another cleavage used to give component 0 'infinity'.
        tb = bp_mod.thicken(bp_mod.build_blueprint(sampling.random_cleavage(5, 2)), 8)
        with pytest.raises(um.UmkehrError, match="differs from the one the thickened diagram"):
            um.umkehr(fx.mirrored_pair(0.05), fx.chord_cleavage(), tb, self.cfg)
        # Another object with the same tree is the same cleavage.
        tb = bp_mod.thicken(bp_mod.build_blueprint(fx.chord_cleavage()), 8)
        out = um.umkehr(fx.mirrored_pair(0.05), fx.chord_cleavage(), tb, self.cfg)
        assert [cv.status for cv in out.components] == ["finite"]

    def test_self_intersecting_rejected(self):
        emb = um.DiscreteEmbedding(EUCLID, (circle(0.5), circle(0.5, mirrored=True)))
        with pytest.raises(um.SelfIntersecting):
            um.umkehr(emb, self.c, self.tb, self.cfg)

    def test_torus_epsilon_cap(self):
        torus = um.FlatMetric("torus", 2, 0.6)
        emb = um.DiscreteEmbedding(
            torus, (circle(0.05, 8), circle(0.04, 8, mirrored=True))
        )
        with pytest.raises(um.UmkehrError):
            um.umkehr(emb, self.c, self.tb, um.UmkehrConfig(epsilon=0.2))

    def test_torus_tie_propagates(self):
        torus = um.FlatMetric("torus", 2, 2.0)
        emb = um.DiscreteEmbedding(
            torus,
            (circle(0.01, 8), circle(0.01, 8, mirrored=True, center=(1.0, 0.0))),
        )
        with pytest.raises(um.NonUniqueGeodesic):
            um.umkehr(emb, self.c, self.tb, um.UmkehrConfig(epsilon=0.4))

    def dipped_embedding(self):
        loop2 = circle(0.4, 96, mirrored=True)
        loop2[24] = [0.15 * -math.cos(PI / 2), 0.15 * math.sin(PI / 2)]
        return um.DiscreteEmbedding(EUCLID, (circle(0.5), loop2))

    def test_sup_scope_component(self):
        tv = um.umkehr(self.dipped_embedding(), self.c, self.tb, self.cfg)
        assert tv.components[0].status == "infinity"

    def test_homotopy_disables_clearance(self):
        # loop 1 grows an excursion whose tip sits inside one geodesic tube;
        # the excursion lives in the annulus between the loops (no crossing)
        # and uses parameters where no collapse endpoint lands
        mid = min(self.tb.samples, key=lambda s: abs(s.point[1]))
        th1 = dict(mid.preimages)[1]
        assert PI / 2 + 0.3 < th1 < 3 * PI / 2 - 0.3
        loop1 = circle(0.5, 96)
        for j, a in enumerate(np.linspace(0.12, th1 - 0.08, 11)):
            loop1[1 + j] = [0.46 * math.cos(a), 0.46 * math.sin(a)]
        loop1[12] = [0.475 * math.cos(th1), 0.475 * math.sin(th1)]
        for j, a in enumerate(np.linspace(th1 - 0.08, 1.62, 10)):
            loop1[13 + j] = [0.462 * math.cos(a), 0.462 * math.sin(a)]
        loop1[23] = [0.468 * math.cos(1.60), 0.468 * math.sin(1.60)]
        emb = um.DiscreteEmbedding(EUCLID, (loop1, circle(0.45, 96, mirrored=True)))
        t0 = um.umkehr(emb, self.c, self.tb, um.UmkehrConfig(epsilon=0.2))
        t1 = um.umkehr(emb, self.c, self.tb, um.UmkehrConfig(epsilon=0.2, t_homotopy=1.0))
        assert t0.components[0].status == "infinity"
        assert t1.components[0].status == "finite"
        assert max(e.scale for e in t1.components[0].entries) < 0.3

    def test_mapping_glues_coincident(self):
        emb = um.DiscreteEmbedding(EUCLID, (circle(0.5), circle(0.5, mirrored=True)))
        tv = um.umkehr(emb, self.c, self.tb, replace(self.cfg, mapping=True, t_homotopy=1.0))
        comp = tv.components[0]
        assert comp.status == "finite"
        assert comp.uf_mask == tuple(range(8))
        assert {e.scale for e in comp.entries} == {0.0}
        assert all(e.tangent == (0.0, 0.0) for e in comp.entries)
        assert tv.config["t_homotopy"] == 1.0
        assert tv.config["mapping"] is True

    def test_mapping_matches_t1_when_disjoint(self):
        # The evaluation runs at the tolerance its diagram was built with.
        emb = um.DiscreteEmbedding(
            EUCLID, (circle(0.5), circle(0.5 - 1e-6, mirrored=True))
        )
        mapping = um.UmkehrConfig(epsilon=0.2, mapping=True, t_homotopy=1.0)
        coarse, fine = (bp_mod.thicken(bp_mod.build_blueprint(self.c, tol=tol), density=8)
                        for tol in (1e-5, 1e-7))
        glued = um.umkehr(emb, self.c, coarse, mapping)
        assert glued.components[0].uf_mask == tuple(range(8))
        assert glued.config["tol"] == 1e-5
        halved = um.umkehr(emb, self.c, fine, mapping)
        plain = um.umkehr(emb, self.c, fine, replace(mapping, mapping=False))
        assert halved.components[0].uf_mask == ()
        assert [e.to_json() for e in halved.components[0].entries] == [
            e.to_json() for e in plain.components[0].entries
        ]

    def test_json_shape_and_determinism(self):
        tv = um.umkehr(concentric(0.05), self.c, self.tb, self.cfg)
        doc = tv.to_json()
        assert set(doc) == {"config", "components", "restriction"}
        assert set(doc["components"][0]) == {
            "component", "status", "entries", "uf_mask", "boundary", "collapsed_samples",
        }
        entry = doc["components"][0]["entries"][0]
        assert set(entry) == {"sample", "pair", "scale", "tangent", "from", "to"}
        assert doc["config"]["eta_radians"] == [2.0 * 2 * PI / 96] * 2
        again = um.umkehr(concentric(0.05), self.c, self.tb, self.cfg)
        assert json.dumps(doc) == json.dumps(again.to_json())


def reference_umkehr(gamma, c, tb, cfg):
    """The per-pair evaluator: one geodesic and one clearance per (sample, pair).

    The reference for umkehr's stacked geodesics; its geodesics,
    clearances and scales are the one-pair references, so it shares no
    kernel with the evaluator beyond the precheck and restrict.  Like
    umkehr, it evaluates at the diagram's tolerance.
    """
    tol = tb.blueprint.tol
    if gamma.k != c.k:
        raise um.UmkehrError(f"strand count {gamma.k} != arity {c.k}")
    metric = gamma.metric
    if metric.kind == "torus" and not cfg.epsilon < metric.L / 4.0:
        raise um.UmkehrError(
            f"torus evaluation needs epsilon < L/4 = {metric.L / 4.0}, got {cfg.epsilon}")
    if not cfg.mapping:
        for i, j in itertools.combinations(range(1, gamma.k + 1), 2):
            d = um.strand_distance(gamma, i, j, tol)
            if d <= tol:
                raise um.SelfIntersecting(f"strands {i} and {j} come within {d:.3e} of each other")
    restriction = tuple(um.restrict(gamma, c, tol))
    sample_entries, sample_glued = [], []
    for idx, sample in enumerate(tb.samples):
        entries, glued = [], False
        for (i, th_i), (j, th_j) in itertools.combinations(sample.preimages, 2):
            p_i = gamma.points_at(i, np.array([th_i]))[0]
            g = one_pair_geodesic(metric, p_i, gamma.points_at(j, np.array([th_j]))[0], tol)
            length = float(g.length[0])
            if cfg.mapping and length <= tol:
                zero, base = (0.0,) * metric.d, tuple(float(x) for x in p_i)
                entries += [um.Entry(idx, (i, j), 0.0, zero, base, base),
                            um.Entry(idx, (j, i), 0.0, zero, base, base)]
                glued = True
                continue
            if length > cfg.epsilon:
                s_val = math.inf
            elif cfg.t_homotopy == 1.0:
                s_val = scalar_scaling(length, cfg.epsilon, 1.0, 1.0)
            else:
                inf_delta, _ = reference_clearance(gamma, g, 0, cfg, ((i, th_i), (j, th_j)), tol)
                s_val = scalar_scaling(length, cfg.epsilon, inf_delta, cfg.t_homotopy)
            tang = tuple(float(x) for x in g.tangent[0])
            src, dst = tuple(float(x) for x in p_i), tuple(float(x) for x in p_i + g.disp[0])
            entries += [um.Entry(idx, (i, j), s_val, tang, src, dst),
                        um.Entry(idx, (j, i), s_val, tuple(-x for x in tang), dst, src)]
        sample_entries.append(entries)
        sample_glued.append(glued)
    sups = [max((e.scale for e in entries), default=0.0) for entries in sample_entries]
    cut = 1.0 + tol
    components = []
    for cid in sorted({s.component for s in tb.samples}):
        members = [i for i, s in enumerate(tb.samples) if s.component == cid]
        collapsed = set(members) if max(sups[i] for i in members) > cut else set()
        status = "infinity" if collapsed == set(members) else "finite"
        kept = [e for i in members if i not in collapsed for e in sample_entries[i]]
        boundary = {tuple(sorted(e.pair)) for i in members for e in sample_entries[i]
                    if math.isfinite(e.scale) and abs(e.scale - 1.0) <= tol}
        uf = {i for i in members if sample_glued[i]}
        components.append(um.ComponentValue(
            cid, status, tuple(kept) if status == "finite" else (), tuple(sorted(uf)),
            tuple(sorted(boundary)), tuple(sorted(collapsed))))
    config = {**cfg.to_json(), "tol": tol, "eta_radians": cfg.eta_radians(gamma)}
    return um.ThomValue(tuple(components), restriction, config)


def with_samples(tb, samples):
    """tb with its table rebuilt from one (point, component, preimages) row per sample."""
    mask = np.zeros((len(samples), tb.mask.shape[1]), dtype=bool)
    angles = np.zeros(mask.shape)
    for row, (_, _, preimages) in enumerate(samples):
        for label, angle in preimages:
            mask[row, label - 1], angles[row, label - 1] = True, angle
    points = np.array([point for point, _, _ in samples]).reshape(-1, 2)
    components = np.array([component for _, component, _ in samples], dtype=int)
    return replace(tb, points=points, components=components, mask=mask, angles=angles)


def outcome(evaluate, *args):
    """The output document's JSON bytes, or the error's type and message."""
    try:
        return json.dumps(evaluate(*args).to_json(), sort_keys=True)
    except um.UmkehrError as err:
        return type(err).__name__, str(err)


class TestUmkehrOracle:
    @given(
        st.integers(0, 10 ** 6),
        st.integers(2, 5),
        st.sampled_from(["euclidean", "torus"]),
        st.sampled_from(["zero", "drawn", "one"]),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_per_pair_loop(self, seed, k, kind, t, mapping):
        rng = np.random.default_rng(seed)
        c = sampling.random_cleavage(rng, k)
        tb = bp_mod.thicken(bp_mod.build_blueprint(c), density=int(rng.integers(2, 7)))
        # One loop per timber on a ring, far enough apart not to touch:
        # neighbouring centres sit 0.5 apart, each loop within 0.2 of its own.
        ring = 0.25 / math.sin(PI / k)
        phase = float(rng.uniform(0.0, 2.0 * PI))
        loops = [fx.fourier_loop(int(s), m=int(rng.integers(16, 49)), base=0.12, wobble=0.03,
                                 drift=0.015)
                 + ring * np.array([math.cos(phase + 2 * PI * j / k), math.sin(phase + 2 * PI * j / k)])
                 for j, s in enumerate(rng.integers(0, 2 ** 31, k))]
        if kind == "torus":
            L = float(rng.uniform(2.0 * ring + 1.0, 2.0 * ring + 3.0))
            metric = um.FlatMetric("torus", 2, L)
            loops = [np.mod(loop, L) for loop in loops]
            epsilon = float(rng.uniform(0.3, 0.999)) * L / 4.0
        else:
            metric = EUCLID
            epsilon = float(rng.uniform(0.5, 3.5))
        gamma = um.DiscreteEmbedding(metric, tuple(loops))
        t_hom = {"zero": 0.0, "one": 1.0, "drawn": float(rng.uniform(0.0, 1.0))}[t]
        cfg = um.UmkehrConfig(epsilon=epsilon, t_homotopy=t_hom, mapping=mapping)
        assert outcome(um.umkehr, gamma, c, tb, cfg) == outcome(reference_umkehr, gamma, c, tb, cfg)

    @pytest.mark.parametrize("gap", [0.0, 0.05, 0.2, 0.3])
    @pytest.mark.parametrize("mapping", [False, True])
    def test_mirrored_pairs_match_the_per_pair_loop(self, gap, mapping):
        # Gap 0 glues every sample in mapping mode and is self-intersecting
        # otherwise; 0.2 puts every scale on the boundary; 0.3 collapses.
        c = fx.chord_cleavage()
        tb = bp_mod.thicken(bp_mod.build_blueprint(c))
        cfg = um.UmkehrConfig(epsilon=0.2, mapping=mapping)
        emb = fx.mirrored_pair(gap)
        assert outcome(um.umkehr, emb, c, tb, cfg) == outcome(reference_umkehr, emb, c, tb, cfg)

    @pytest.mark.parametrize("tip, statuses", [(61.6, ["infinity", "finite"]),
                                               (63.2, ["finite", "finite"])])
    @pytest.mark.parametrize("kind", ["euclidean", "torus"])
    def test_corridor_trio_matches_the_per_pair_loop(self, tip, statuses, kind):
        # The corridor benchmark's evaluations: 1440-vertex strands at the
        # benchmark's 24 samples per piece, in the plane or wrapped onto the
        # unit torus as the benchmark writes them.
        emb = fx.corridor_trio(tip)
        if kind == "torus":
            emb = um.DiscreteEmbedding(um.FlatMetric("torus", 2, 1.0),
                                       tuple(np.mod(loop, 1.0) for loop in emb.loops))
        c = fx.corridor_cleavage()
        tb = bp_mod.thicken(bp_mod.build_blueprint(c), density=24)
        cfg = um.UmkehrConfig(epsilon=fx.CORRIDOR_EPSILON, density=24)
        got = outcome(um.umkehr, emb, c, tb, cfg)
        assert got == outcome(reference_umkehr, emb, c, tb, cfg)
        assert [cv["status"] for cv in json.loads(got)["components"]] == statuses

    @pytest.mark.parametrize("gap, mapping", [(0.0, True), (0.2, False), (0.3, False)],
                             ids=["component-0.0-True", "component-0.2-False", "component-0.3-False"])
    def test_flags_stay_in_their_component(self, gap, mapping):
        # Odd samples move to a component of their own with one preimage
        # each, so it has no pairs: glued samples (gap 0), boundary pairs
        # (0.2) and collapses (0.3) of component 0 must not leak into it.
        c = fx.chord_cleavage()
        tb = bp_mod.thicken(bp_mod.build_blueprint(c))
        tb = with_samples(tb, [(s.point, idx % 2, s.preimages[:1] if idx % 2 else s.preimages)
                               for idx, s in enumerate(tb.samples)])
        cfg = um.UmkehrConfig(epsilon=0.2, mapping=mapping)
        emb = fx.mirrored_pair(gap)
        got = outcome(um.umkehr, emb, c, tb, cfg)
        assert got == outcome(reference_umkehr, emb, c, tb, cfg)
        lone = json.loads(got)["components"][1]
        assert lone["boundary"] == lone["uf_mask"] == lone["entries"] == []

    def test_a_later_tie_raises_the_first_tying_pair(self):
        # Strand 2 sits a half period (1.0) away along x from strand 1;
        # vertex pairs whose x offsets cancel tie, the others do not.
        torus = um.FlatMetric("torus", 2, 2.0)
        emb = um.DiscreteEmbedding(
            torus, (circle(0.01, 8), circle(0.01, 8, mirrored=True, center=(1.0, 0.0))))
        c = chord_cleavage()
        tb = bp_mod.thicken(bp_mod.build_blueprint(c))
        step = 2 * PI / 8
        preimages = [((1, 0.0), (2, 0.0)), ((1, step), (2, 0.0)),
                     ((1, 2 * step), (2, 2 * step)), ((1, 0.0), (2, 4 * step))]
        tb = with_samples(tb, [(s.point, s.component, pre) for s, pre in zip(tb.samples, preimages)])
        cfg = um.UmkehrConfig(epsilon=0.4)
        got = outcome(um.umkehr, emb, c, tb, cfg)
        assert got == outcome(reference_umkehr, emb, c, tb, cfg)
        first = emb.points_at(2, [2 * step])[0] - emb.points_at(1, [2 * step])[0]
        later = emb.points_at(2, [4 * step])[0] - emb.points_at(1, [0.0])[0]
        assert got == ("NonUniqueGeodesic",
                       f"displacement {first.tolist()} sits half a period away on some axis")
        assert first.tolist() != later.tolist()
        with pytest.raises(um.NonUniqueGeodesic):
            um.geodesic(torus, emb.points_at(1, [0.0]), emb.points_at(2, [4 * step]))


def sample_rows(samples):
    """Each sample's point bytes, and its component and preimages with their types, angles as hex."""
    return [(s.point.tobytes(), type(s.component), s.component,
             [(type(label), label, type(angle), angle.hex()) for label, angle in s.preimages])
            for s in samples]


class TestPreimageTable:
    """thicken's table and umkehr's pairs over it, against the object loops they replaced."""

    @given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(2, 32))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_object_loops(self, seed, k, density):
        bp = bp_mod.build_blueprint(sampling.random_cleavage(seed, k))
        try:
            ref = object_thicken(bp, density)
        except bp_mod.BlueprintError as exc:
            with pytest.raises(type(exc), match=re_escape(str(exc))):
                bp_mod.thicken(bp, density)
            return
        tb = bp_mod.thicken(bp, density)
        assert sample_rows(tb.samples) == sample_rows(ref)
        ends, ref_ends = um._pair_ends(tb.mask), pair_ends(ref)
        assert ends.dtype == ref_ends.dtype
        assert ends.shape == ref_ends.shape and ends.tolist() == ref_ends.tolist()

    def test_unit_evaluates_to_no_components(self):
        c = operad.unit()
        tb = bp_mod.thicken(bp_mod.build_blueprint(c))
        emb = um.DiscreteEmbedding(EUCLID, (circle(0.5, 16),))
        for cfg in (um.UmkehrConfig(epsilon=0.2), um.UmkehrConfig(epsilon=0.2, mapping=True)):
            assert um.umkehr(emb, c, tb, cfg).components == ()
        assert um._pair_ends(tb.mask).shape == (0, 3)


class TestRestrict:
    def test_full_loop_when_unit(self):
        emb = um.DiscreteEmbedding(EUCLID, (circle(0.5, 16),))
        arcs = um.restrict(emb, operad.unit())
        assert len(arcs) == 1
        arc = arcs[0]
        assert arc.closed and arc.start == 0.0 and arc.end == 2 * PI
        assert arc.points.shape == (16, 2)

    def test_half_arcs(self):
        emb = concentric(0.05)
        arcs = um.restrict(emb, chord_cleavage())
        assert [a.label for a in arcs] == [1, 2]
        first = arcs[0]
        assert not first.closed
        assert first.start == pytest.approx(3 * PI / 2, abs=1e-12)
        assert first.end == pytest.approx(5 * PI / 2, abs=1e-12)
        assert first.points.shape == (49, 2)
        assert first.points[0] == pytest.approx([0.0, -0.5], abs=1e-12)
        assert first.points[-1] == pytest.approx([0.0, 0.5], abs=1e-12)

    def test_arity_checked(self):
        emb = um.DiscreteEmbedding(EUCLID, (circle(0.5, 16),))
        with pytest.raises(um.UmkehrError):
            um.restrict(emb, chord_cleavage())


BAD_TOLS = [math.nan, -1.0, 0.0, math.inf, True]


class TestCollapseKnobs:
    """restrict, clearance and self_intersection_locus reject bad tolerances and densities.

    On the first locus fixture, whose locus has 2 intervals at its own tol,
    tol = nan or -1 used to give no interval and a float density a
    TypeError; restrict at tol = nan kept only the 2 end points of each arc.
    The locus reads its cleavage from the diagram, so a bare cleavage is
    rejected too.
    """

    @pytest.mark.parametrize("knob", [{"tol": tol} for tol in BAD_TOLS] + [
        {"density": 1024.0}, {"density": 2.5}, {"density": "8"}, {"density": None},
        {"bp": chord_cleavage()},
    ], ids=lambda knob: ",".join(
        f"{k}={type(v).__name__ if k == 'bp' else repr(v)}" for k, v in knob.items()))
    def test_bad_locus_knobs_are_domain_errors(self, knob):
        _, emb, density, tol = fx.locus_fixtures()[0]
        knobs = {"bp": chord_blueprint(), "tol": tol, "density": density, **knob}
        name = next(iter(knob))
        with pytest.raises(um.UmkehrError, match=f"{name} must be a"):
            um.self_intersection_locus(emb, **knobs)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_bad_clearance_tol_is_a_domain_error(self, tol):
        emb = um.DiscreteEmbedding(EUCLID, far_loops())
        g = um.geodesic(EUCLID, [[0.0, 0.0]], [[0.1, 0.0]])
        with pytest.raises(um.UmkehrError, match="tol must be a positive finite number"):
            um.clearance(emb, g, [0], um.UmkehrConfig(epsilon=0.2), *no_exclusions(1), tol)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_bad_restrict_tol_is_a_domain_error(self, tol):
        _, emb, _, _ = fx.locus_fixtures()[0]
        with pytest.raises(um.UmkehrError, match="tol must be a positive finite number"):
            um.restrict(emb, chord_cleavage(), tol)


def trapezoid(th, thc, w, ramp):
    d = np.abs(np.angle(np.exp(1j * (th - thc))))
    return np.where(
        d <= w / 2,
        1.0,
        np.where(d >= w / 2 + ramp, 0.0, 1.0 - (d - w / 2) / ramp),
    )


def plateau_pair(w, ramp=0.2, thc=0.0, r1=0.5, r2=0.45, m=512):
    th = 2 * np.pi * np.arange(m) / m
    rho = r2 + (r1 - r2) * trapezoid(th, thc, w, ramp)
    loop1 = np.stack([r1 * np.cos(th), r1 * np.sin(th)], axis=1)
    loop2 = np.stack([-rho * np.cos(th), rho * np.sin(th)], axis=1)
    return um.DiscreteEmbedding(EUCLID, (loop1, loop2))


class TestLocus:
    def test_disjoint_empty(self):
        emb = concentric(0.05)
        assert um.self_intersection_locus(emb, chord_blueprint(), tol=2e-4) == []

    def test_plateau_interval(self):
        emb = plateau_pair(w=0.3)
        locus = um.self_intersection_locus(emb, chord_blueprint(), tol=2e-4)
        assert sorted(li.label for li in locus) == [1, 2]
        for li in locus:
            assert li.end - li.start < 2 * PI - 1e-9
            assert li.end - li.start == pytest.approx(0.3, abs=0.01)
        lab1 = next(li for li in locus if li.label == 1)
        assert (lab1.start + lab1.end) / 2 == pytest.approx(PI, abs=0.01)

    def test_quarter_arc_overlap(self):
        emb = plateau_pair(w=PI / 2)
        locus = um.self_intersection_locus(emb, chord_blueprint(), tol=2e-4)
        assert len(locus) == 2
        for li in locus:
            assert li.end - li.start == pytest.approx(PI / 2, abs=0.01)
            assert li.end - li.start < 2 * PI - 1e-9

    def test_point_touch_degenerate(self):
        # apex on the sampling grid and on a strand vertex: w=0 marks a
        # single parameter per strand
        a = 700
        thc = PI / 2 - a * PI / 2048
        emb = plateau_pair(w=0.0, ramp=0.1, thc=thc, m=4096)
        locus = um.self_intersection_locus(
            emb, chord_blueprint(), tol=2e-4, density=2049
        )
        assert sorted(li.label for li in locus) == [1, 2]
        for li in locus:
            assert li.end - li.start <= 2 * PI / 2048

    def test_validation(self):
        emb = concentric(0.05)
        with pytest.raises(um.UmkehrError):
            um.self_intersection_locus(emb, bp_mod.build_blueprint(operad.unit()))
        with pytest.raises(um.UmkehrError):
            um.self_intersection_locus(emb, chord_blueprint(), density=1)


def reference_entry_points(c, label, cpt, grid):
    """Circle points at the grid angles and where they land on timber label.

    Each lands by the latest plane entry along its ray to cpt, from
    matrix-vector products.
    """
    pts = np.stack([np.cos(grid), np.sin(grid)], axis=1)
    t_entry = np.zeros(len(grid))
    for h, side in c.timber(label).constraints:
        gs = side * (pts @ h.normal - h.offset)
        gc = side * (float(cpt @ h.normal) - h.offset)
        t_entry = np.maximum(t_entry, np.where(gs < 0.0, gs / (gs - gc), 0.0))
    return pts, pts + t_entry[:, None] * (cpt - pts)


def reference_self_intersection_locus(gamma, c, tol, density):
    """The locus scan with its own entry and exit solvers.

    The reference for self_intersection_locus: points land as in
    reference_entry_points, and partners exit by a matrix-vector
    ray-circle solve with np.arctan2 angles.
    """
    bp = bp_mod.build_blueprint(c)
    out = []
    for label in range(1, c.k + 1):
        for s0, s1 in c.trace(label).arcs.complement().arcs:
            grid = np.linspace(s0, s1, density)
            _, landed = reference_entry_points(c, label, bp.centroids[label - 1], grid)
            marked = np.zeros(density, dtype=bool)
            own = gamma.points_at(label, grid)
            for other in range(1, c.k + 1):
                if other == label:
                    continue
                member = np.ones(density, dtype=bool)
                on_cut = np.zeros(density, dtype=bool)
                for h, side in c.timber(other).constraints:
                    val = landed @ h.normal - h.offset
                    member &= side * val >= -tol
                    on_cut |= np.abs(val) <= tol
                sel = member & on_cut
                if not sel.any():
                    continue
                ci = bp.centroids[other - 1]
                d = landed[sel] - ci
                qa = np.einsum("ij,ij->i", d, d)
                qb = 2.0 * (d @ ci)
                qc = float(ci @ ci) - 1.0
                u = (-qb + np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0))) / (2.0 * qa)
                ex = ci + u[:, None] * d
                partner = np.mod(np.arctan2(ex[:, 1], ex[:, 0]), 2 * PI)
                theirs = gamma.points_at(other, partner)
                diff = ref_wrap(gamma.metric, theirs - own[sel])
                marked[sel] |= np.linalg.norm(diff, axis=1) <= tol
            idxs = np.flatnonzero(marked)
            runs = np.split(idxs, np.flatnonzero(np.diff(idxs) > 1) + 1) if idxs.size else []
            out += [(label, float(grid[r[0]]), float(grid[r[-1]])) for r in runs]
    return out


class TestLocusOracle:
    def test_fixture_intervals_match_reference(self):
        cc = fx.chord_cleavage()
        bp = bp_mod.build_blueprint(cc)
        for name, emb, density, ltol in fx.locus_fixtures():
            got = um.self_intersection_locus(emb, bp, tol=ltol, density=density)
            ref = reference_self_intersection_locus(emb, cc, ltol, density)
            assert [(iv.label, iv.start, iv.end) for iv in got] == ref, name

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_landing_points_stay_on_the_reference(self, seed):
        """Stacked alpha lands within rounding of the plane-entry scan on any cleavage."""
        c = sampling.random_cleavage(seed, 2 + seed % 5)
        bp = bp_mod.build_blueprint(c)
        for label in range(1, c.k + 1):
            cpt = bp.centroids[label - 1]
            for s0, s1 in c.trace(label).arcs.complement().arcs:
                pts, ref = reference_entry_points(c, label, cpt, np.linspace(s0, s1, 64))
                landed = bp_mod.alpha(bp, label, pts).point
                assert np.abs(landed - ref).max() <= 1e-12


def direct_arc_landings(bp, label, density):
    """The landings computed in place, as the locus scan did per call before it kept them."""
    out = []
    for s0, s1 in bp.cleavage.trace(label).arcs.complement().arcs:
        grid = np.linspace(s0, s1, density)
        circle = np.stack([np.cos(grid), np.sin(grid)], axis=1)
        mask, exits = bp_mod.alpha_preimage(bp, bp_mod.alpha(bp, label, circle).point)
        partners = []
        for other in range(1, bp.cleavage.k + 1):
            sel = mask[:, other - 1]
            if other != label and sel.any():
                angles = [math.atan2(y, x) % (2 * PI) for x, y in exits[sel, other - 1].tolist()]
                partners.append((other, sel, np.array(angles)))
        out.append((grid, partners))
    return out


def landing_arrays(landings):
    for grid, partners in landings:
        yield grid
        for _, rows, angles in partners:
            yield rows
            yield angles


class TestLocusLandings:
    @given(st.integers(0, 10 ** 6), st.sampled_from([16, 64, 257]))
    @settings(max_examples=20, deadline=None)
    def test_kept_landings_match_direct_ones(self, seed, density):
        bp = bp_mod.build_blueprint(sampling.random_cleavage(seed, 2 + seed % 5))
        for label in range(1, bp.cleavage.k + 1):
            kept = bp_mod.arc_landings(bp, label, density)
            assert bp_mod.arc_landings(bp, label, density) is kept
            direct = direct_arc_landings(bp, label, density)
            assert len(kept) == len(direct)
            for (grid, partners), (ref_grid, ref_partners) in zip(kept, direct):
                assert grid.tobytes() == ref_grid.tobytes()
                assert [(o, r.tobytes(), a.tobytes()) for o, r, a in partners] == [
                    (o, r.tobytes(), a.tobytes()) for o, r, a in ref_partners]

    def test_cache_hit_returns_equal_intervals(self):
        cc = fx.chord_cleavage()
        bp = bp_mod.build_blueprint(cc)
        for name, emb, density, ltol in fx.locus_fixtures():
            fresh = um.self_intersection_locus(emb, bp_mod.build_blueprint(cc), tol=ltol, density=density)
            first = um.self_intersection_locus(emb, bp, tol=ltol, density=density)
            again = um.self_intersection_locus(emb, bp, tol=ltol, density=density)
            assert fresh == first == again, name

    def test_cache_is_kept_per_blueprint(self):
        bp, other = chord_blueprint(), chord_blueprint()
        emb = plateau_pair(w=0.3)
        first = um.self_intersection_locus(emb, bp, tol=2e-4, density=512)
        assert set(bp._landings) == {(1, 512), (2, 512)}
        assert "_landings" not in other.__dict__
        assert um.self_intersection_locus(emb, other, tol=2e-4, density=512) == first
        for label in (1, 2):
            assert bp_mod.arc_landings(other, label, 512) is not bp_mod.arc_landings(bp, label, 512)
        um.self_intersection_locus(emb, bp, tol=2e-4, density=64)
        assert set(bp._landings) == {(1, 512), (2, 512), (1, 64), (2, 64)}

    def test_kept_arrays_are_read_only(self):
        bp = chord_blueprint()
        um.self_intersection_locus(plateau_pair(w=0.3), bp, tol=2e-4, density=128)
        arrays = [a for landings in bp._landings.values() for a in landing_arrays(landings)]
        assert len(arrays) == 2 * 3
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[-1]
