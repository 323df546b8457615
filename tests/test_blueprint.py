import copy
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cleav import blueprint as bp_mod
from cleav import fixtures, geom, operad, sampling
from oracles import ref_dot, ref_norm, signed_eval
from test_geom import (
    assert_raises_first_of_its_kind,
    assert_rows_stand_alone,
    outcome,
    reference_arc_distance,
    reference_closest_points,
    reference_segment_boundary_hit,
)

PI = math.pi


def labels(row) -> tuple:
    """The labels a row of a participants mask marks."""
    return tuple((np.flatnonzero(row) + 1).tolist())


def chord(nx, ny, offset):
    return geom.OrientedHyperplane([nx, ny], offset)


def chord_cleavage(offset=0.0):
    return operad.validate(
        operad.Internal(chord(1, 0, offset), operad.Leaf(1), operad.Leaf(2))
    )


def tee_cleavage():
    """Root cut x=0; the left half is cut again by y=0."""
    return operad.validate(
        operad.Internal(
            chord(1, 0, 0.0),
            operad.Leaf(1),
            operad.Internal(chord(0, 1, 0.0), operad.Leaf(2), operad.Leaf(3)),
        )
    )


def parallel_cleavage():
    return operad.validate(
        operad.Internal(
            chord(1, 0, 0.5),
            operad.Leaf(1),
            operad.Internal(chord(1, 0, -0.5), operad.Leaf(2), operad.Leaf(3)),
        )
    )


def random_cleavage(seed, max_internal=3):
    rng = np.random.default_rng(seed)

    def build(labels):
        if len(labels) == 1:
            return operad.Leaf(labels[0])
        cut = int(rng.integers(1, len(labels)))
        normal = rng.normal(size=2)
        while np.linalg.norm(normal) < 1e-6:
            normal = rng.normal(size=2)
        plane = geom.OrientedHyperplane(normal, rng.uniform(-0.7, 0.7))
        return operad.Internal(plane, build(labels[:cut]), build(labels[cut:]))

    for _ in range(300):
        k = int(rng.integers(2, max_internal + 2))
        labels = [int(x) for x in rng.permutation(k) + 1]
        try:
            c = operad.validate(build(labels))
        except operad.OperadError:
            continue
        # Keep timbers fat enough that centroids sit well inside.
        if min(t.arcs.measure() for t in c.traces) > 0.2:
            return c
    return chord_cleavage()


class TestBuild:
    def test_single_chord(self):
        bp = bp_mod.build_blueprint(chord_cleavage())
        assert len(bp.pieces) == 1
        assert bp.n_components == 1
        assert bp.piece_components == (0,)
        pts = sorted([bp.pieces[0].a[1], bp.pieces[0].b[1]])
        assert pts == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert abs(bp.pieces[0].a[0]) < 1e-12

    def test_unit_has_empty_diagram(self):
        bp = bp_mod.build_blueprint(operad.unit())
        assert bp.pieces == ()
        assert bp.n_components == 0

    def test_tee_pieces(self):
        bp = bp_mod.build_blueprint(tee_cleavage())
        assert len(bp.pieces) == 2
        # Full chord plus a half chord stopping at the root cut.
        lengths = sorted(p.length for p in bp.pieces)
        assert lengths == pytest.approx([1.0, 2.0], abs=1e-12)
        assert bp.n_components == 1

    def test_parallel_components(self):
        bp = bp_mod.build_blueprint(parallel_cleavage())
        assert len(bp.pieces) == 2
        assert bp.n_components == 2
        assert sorted(bp.piece_components) == [0, 1]

    def test_faces(self):
        bp = bp_mod.build_blueprint(parallel_cleavage())
        assert len(bp.faces[0]) == 1
        assert len(bp.faces[1]) == 2
        assert len(bp.faces[2]) == 1
        constraints = bp.cleavage.timber(2).constraints
        slab_planes = sorted(constraints[f.constraint_index][0].offset for f in bp.faces[1])
        assert slab_planes == pytest.approx([-0.5, 0.5])

    def test_redundant_plane_has_no_face(self):
        # Timber 1 lies in x >= -0.5 and x >= 0; the first plane misses it.
        c = operad.validate(operad.Internal(
            chord(1, 0, -0.5),
            operad.Internal(chord(1, 0, 0.0), operad.Leaf(1), operad.Leaf(2)),
            operad.Leaf(3),
        ))
        bp = bp_mod.build_blueprint(c)
        assert [f.constraint_index for f in bp.faces[0]] == [1]

    def test_both_planes_have_faces(self):
        # Timber 1 is the quadrant x >= 0, y >= 0.
        c = operad.validate(operad.Internal(
            chord(1, 0, 0.0),
            operad.Internal(chord(0, 1, 0.0), operad.Leaf(1), operad.Leaf(2)),
            operad.Leaf(3),
        ))
        bp = bp_mod.build_blueprint(c)
        assert [f.constraint_index for f in bp.faces[0]] == [0, 1]

    def test_degree_needs_no_centroid_or_face(self):
        c = sampling.random_cleavage(5, 5)
        with mock.patch.object(bp_mod, "centroid", side_effect=AssertionError("centroid")):
            bp = bp_mod.build_blueprint(c)
            assert bp_mod.stable_degree(bp, 2)[0] == 2 * bp.n_components
        assert "centroids" not in vars(bp) and "faces" not in vars(bp)

    def test_crossings_are_touching_pairs(self):
        bp = bp_mod.build_blueprint(tee_cleavage())
        assert bp.crossing_pieces == (0,)
        assert np.abs(bp.crossings).max() < 1e-12
        assert bp_mod.build_blueprint(parallel_cleavage()).crossings.shape == (0, 2)

    def test_centroids(self):
        bp = bp_mod.build_blueprint(chord_cleavage())
        assert bp.centroids[0] == pytest.approx([4 / (3 * PI), 0.0], abs=1e-12)
        assert bp.centroids[1] == pytest.approx([-4 / (3 * PI), 0.0], abs=1e-12)

    def test_rejects_higher_spheres(self):
        tree = operad.Internal(
            geom.OrientedHyperplane([0, 0, 1], 0.0), operad.Leaf(1), operad.Leaf(2)
        )
        c = operad.validate(tree, n=2)
        with pytest.raises(bp_mod.BlueprintError):
            bp_mod.build_blueprint(c)


class TestParticipants:
    def test_generic_point(self):
        bp = bp_mod.build_blueprint(chord_cleavage())
        assert labels(bp_mod.participants(bp, [[0.0, 0.3]])[0]) == (1, 2)

    def test_off_diagram(self):
        bp = bp_mod.build_blueprint(chord_cleavage())
        assert labels(bp_mod.participants(bp, [[0.3, 0.3]])[0]) == ()

    def test_tee_junction(self):
        mask = bp_mod.participants(bp_mod.build_blueprint(tee_cleavage()), [[0.0, 0.0]])
        assert labels(mask[0]) == (1, 2, 3)

    def test_collinear_cross(self):
        c = operad.validate(
            operad.Internal(
                chord(1, 0, 0.0),
                operad.Internal(chord(0, 1, 0.0), operad.Leaf(1), operad.Leaf(2)),
                operad.Internal(chord(0, 1, 0.0), operad.Leaf(3), operad.Leaf(4)),
            )
        )
        mask = bp_mod.participants(bp_mod.build_blueprint(c), [[0.0, 0.0]])
        assert labels(mask[0]) == (1, 2, 3, 4)


class TestCollapseTol:
    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf, True])
    @pytest.mark.parametrize("call", ["participants", "alpha", "alpha_preimage"])
    def test_bad_tol_is_a_domain_error(self, call, tol):
        # At tol = nan participants found no timber, alpha landed a point and
        # alpha_preimage reported the nearest piece at distance 0.  All three
        # read the tol of the diagram they are given, so a bad tol meant for
        # them stops where that diagram is built.
        c = chord_cleavage()
        evaluate = {
            "participants": lambda: bp_mod.participants(
                bp_mod.build_blueprint(c, tol), [[0.0, 0.3]]),
            "alpha": lambda: bp_mod.alpha(bp_mod.build_blueprint(c, tol), 1, [[-1.0, 0.0]]),
            "alpha_preimage": lambda: bp_mod.alpha_preimage(
                bp_mod.build_blueprint(c, tol), [[0.0, 0.3]]),
        }[call]
        with pytest.raises(bp_mod.BlueprintError, match="tol must be a positive finite number"):
            evaluate()

    @pytest.mark.parametrize("label", [0, 3, -1, 1.5, 1.0, True, None])
    def test_bad_label_is_a_domain_error(self, label):
        # label = 1.5 raised TypeError from tuple indexing, and True was taken as label 1.
        bp = bp_mod.build_blueprint(chord_cleavage())
        with pytest.raises(bp_mod.BlueprintError, match=r"label must be an integer in 1\.\.2, got "):
            bp_mod.alpha(bp, label, [[-1.0, 0.0]])


class TestNeedsTheDiagram:
    @pytest.mark.parametrize("call", [
        lambda c: bp_mod.participants(c, [[0.0, 0.3]]),
        lambda c: bp_mod.alpha(c, 1, [[-1.0, 0.0]]),
        lambda c: bp_mod.alpha_preimage(c, [[0.0, 0.3]]),
        lambda c: bp_mod.blueprint_distance(c, [[0.0, 0.3]]),
        lambda c: bp_mod.thicken(c, 4),
        lambda c: bp_mod.stable_degree(c, 1),
        lambda c: bp_mod.export_obj(c),
    ], ids=["participants", "alpha", "alpha_preimage", "blueprint_distance", "thicken",
            "stable_degree", "export_obj"])
    def test_a_cleavage_is_a_domain_error(self, call):
        # A cleavage is no diagram: its tol would be a second, silent default.
        # All but participants and thicken raised AttributeError on a missing diagram field.
        with pytest.raises(bp_mod.BlueprintError, match="bp must be a Blueprint, got Cleavage"):
            call(fixtures.chord_cleavage())


class TestStacksOnly:
    @pytest.mark.parametrize("kernel", ["contains", "segment_boundary_hit", "participants",
                                        "alpha", "alpha_preimage", "blueprint_distance"])
    @pytest.mark.parametrize("shape", [(2,), (1, 1, 2)])
    def test_other_shapes_are_geometry_errors(self, kernel, shape):
        bp = bp_mod.build_blueprint(chord_cleavage())
        call = {
            "contains": lambda b: bp.cleavage.timber(1).contains(b),
            "segment_boundary_hit": lambda b: geom.segment_boundary_hit(
                geom.unit_disk(), b, [0.1, 0.0]),
            "participants": lambda b: bp_mod.participants(bp, b),
            "alpha": lambda b: bp_mod.alpha(bp, 2, b),
            "alpha_preimage": lambda b: bp_mod.alpha_preimage(bp, b),
            "blueprint_distance": lambda b: bp_mod.blueprint_distance(bp, b),
        }[kernel]
        point = np.reshape([0.0, 1.0], shape)
        with pytest.raises(geom.GeometryError, match=r"expected an \(n, 2\) stack of points"):
            call(point)
        assert call(point.reshape(1, 2)) is not None


def loop_participants(c, b, tol=geom.TOL):
    """One signed_eval per constraint per timber, the reference for participants."""
    b = np.asarray(b, dtype=float)
    out = []
    for label in range(1, c.k + 1):
        body = c.timber(label)
        if float(np.linalg.norm(b)) > 1.0 + tol:
            continue
        if not all(side * signed_eval(h, b) >= -tol for h, side in body.constraints):
            continue
        if any(abs(signed_eval(h, b)) <= tol for h, _ in body.constraints):
            out.append(label)
    return tuple(out)


class TestParticipantsOracle:
    @given(st.integers(0, 10 ** 6), st.integers(1, 6), st.sampled_from([geom.TOL, 1e-3]))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_constraint_loop(self, seed, k, tol):
        rng = np.random.default_rng(seed)
        c = operad.validate(operad.Leaf(1)) if k == 1 else sampling.random_cleavage(seed, k)
        bp = bp_mod.build_blueprint(c, tol)
        points = list(rng.uniform(-1.1, 1.1, size=(20, 2)))
        for piece in bp.pieces:
            points += [piece.a, piece.b, piece.a + rng.uniform() * (piece.b - piece.a)]
            # The cut line past the circle: on a plane, but outside the ball.
            points += [piece.a + t * (piece.b - piece.a) for t in (-0.05, 1.05)]
        mask = bp_mod.participants(bp, np.array(points))
        assert [labels(row) for row in mask] == [loop_participants(c, b, tol) for b in points]
        assert_rows_stand_alone(lambda rows: bp_mod.participants(bp, rows), np.array(points))

    def test_bad_points_still_raise(self):
        bp = bp_mod.build_blueprint(chord_cleavage())
        with pytest.raises(geom.DimensionMismatch):
            bp_mod.participants(bp, [[0.0, 0.0, 0.0]])
        with pytest.raises(geom.GeometryError, match="finite"):
            bp_mod.participants(bp, [[math.inf, 0.0]])


def reference_alpha(c, i, s, tol=geom.TOL, centroid_point=None):
    """The one-point collapse, the reference for alpha: (point, face_index, corner, t)."""
    if not 1 <= i <= c.k:
        raise bp_mod.BlueprintError(f"label {i} out of range 1..{c.k}")
    s = np.asarray(s, dtype=float)
    nrm = ref_norm(s)
    if abs(nrm - 1.0) > 1e-6:
        raise bp_mod.AlphaDomainError(f"query point has norm {nrm!r}, expected a circle point")
    s = s / nrm
    theta = math.atan2(s[1], s[0])
    if reference_arc_distance(c.trace(i).arcs.complement(), theta) > tol:
        raise bp_mod.AlphaDomainError(
            f"angle {theta:.9f} lies inside the sphere trace of timber {i}"
        )
    cpt = geom.centroid(c.timber(i)) if centroid_point is None else centroid_point
    return reference_segment_boundary_hit(c.timber(i), s, cpt, tol)


def reference_point_seg_distance(p, a, b):
    """The one-pair point-segment distance, the reference for blueprint_distance."""
    d = b - a
    dd = ref_dot(d, d)
    if dd <= 1e-18:
        return ref_norm(p - a)
    t = min(1.0, max(0.0, ref_dot(p - a, d) / dd))
    return ref_norm(p - (a + t * d))


def reference_blueprint_distance(bp, b):
    """One point-segment distance per piece, the reference for blueprint_distance."""
    return min((reference_point_seg_distance(b, p.a, p.b) for p in bp.pieces), default=math.inf)


def reference_alpha_preimage(bp, b, tol=None):
    """One exit solve per participant, the reference for alpha_preimage."""
    tol = bp.tol if tol is None else tol
    b = np.asarray(b, dtype=float)
    dist = reference_blueprint_distance(bp, b)
    if not dist <= tol:
        raise bp_mod.BlueprintError(f"b not on blueprint: nearest piece at distance {dist:.3e}")
    out = []
    for label in loop_participants(bp.cleavage, b, tol):
        ci = bp.centroids[label - 1]
        d = b - ci
        qa = ref_dot(d, d)
        if qa <= 1e-30:
            raise bp_mod.BlueprintError(f"b coincides with the centroid of timber {label}")
        qb = 2.0 * ref_dot(ci, d)
        qc = ref_dot(ci, ci) - 1.0
        disc = qb * qb - 4.0 * qa * qc
        u = (-qb + math.sqrt(disc)) / (2.0 * qa)
        s = ci + u * d
        out.append((label, s / ref_norm(s)))
    return out


def diagram_points(bp, rng, n=4):
    """Piece ends, n random points per piece and every thickening sample."""
    points = []
    for piece in bp.pieces:
        points += [piece.a, piece.b]
        points += [piece.a + t * (piece.b - piece.a) for t in rng.random(n)]
    if bp.pieces:
        points += [s.point for s in bp_mod.thicken(bp, density=3).samples]
    return points


class TestCollapseOracles:
    @given(st.integers(0, 10 ** 6), st.integers(1, 6), st.sampled_from([geom.TOL, 1e-3]),
           st.lists(st.tuples(st.booleans(), st.integers(0, 400)), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_alpha_matches_reference(self, seed, k, tol, bad):
        rng = np.random.default_rng(seed)
        c = operad.validate(operad.Leaf(1)) if k == 1 else sampling.random_cleavage(seed, k)
        bp = bp_mod.build_blueprint(c, tol)
        for i in range(1, c.k + 1):
            cpt = geom.centroid(c.timber(i))
            angles = []
            for s0, s1 in c.trace(i).arcs.complement().arcs:
                angles += [s0, s1] + (s0 + (s1 - s0) * rng.random(30)).tolist()
            rows = [np.array([math.cos(t), math.sin(t)]) for t in angles]
            # Rays from the sphere through a corner of the timber tie two faces.
            for j in range(len(c.timber(i).constraints)):
                face = geom._face_interval(c.timber(i), j)
                if face is not None:
                    p0, d, lo, hi = face
                    for corner in (p0 + lo * d, p0 + hi * d):
                        rows.append(bp_mod._exit_points(cpt, corner[None])[0])
            good = [r for r in rows
                    if not isinstance(outcome(reference_alpha, c, i, r, tol, cpt), Exception)]
            if good:
                hit = bp_mod.alpha(bp, i, np.array(good))
                for r, s in enumerate(good):
                    point, face, corner, t = reference_alpha(c, i, s, tol, cpt)
                    assert hit.point[r].tobytes() == point.tobytes()
                    assert (hit.face_index[r], hit.corner[r], hit.t[r]) == (face, corner, t)
                assert_rows_stand_alone(lambda rows: bp_mod.alpha(bp, i, rows), np.array(good))
            # Bad rows inside the trace or off the circle: the error names the
            # first bad row of the kind it raises.
            stack = list(rows)
            for off_circle, where in bad:
                s0, s1 = c.trace(i).arcs.arcs[0]
                t = s0 + (s1 - s0) * rng.random()
                row = np.array([math.cos(t), math.sin(t)]) * (rng.uniform(0.5, 0.9) if off_circle else 1)
                stack.insert(where % (len(stack) + 1), row)
            errors = [e for e in (outcome(reference_alpha, c, i, r, tol, cpt) for r in stack)
                      if isinstance(e, Exception)]
            if errors:
                assert_raises_first_of_its_kind(
                    errors, bp_mod.alpha, bp, i, np.array(stack).reshape(-1, 2))

    @given(st.integers(0, 10 ** 6), st.integers(2, 6), st.sampled_from([geom.TOL, 1e-3]),
           st.booleans(), st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_alpha_preimage_matches_reference(self, seed, k, tol, off, where):
        rng = np.random.default_rng(seed)
        bp = bp_mod.build_blueprint(sampling.random_cleavage(seed, k), tol)
        points = diagram_points(bp, rng)
        stack = np.array(points)
        assert bp_mod.blueprint_distance(bp, stack).tolist() == [
            reference_blueprint_distance(bp, b) for b in points]
        mask, exits = bp_mod.alpha_preimage(bp, stack)
        for r, b in enumerate(points):
            ref = reference_alpha_preimage(bp, b, tol)
            assert (np.flatnonzero(mask[r]) + 1).tolist() == [label for label, _ in ref]
            for label, s in ref:
                assert exits[r, label - 1].tobytes() == s.tobytes()
        assert_rows_stand_alone(lambda rows: bp_mod.blueprint_distance(bp, rows), stack)
        assert_rows_stand_alone(lambda rows: bp_mod.alpha_preimage(bp, rows), stack)
        if off:
            points.insert(where % (len(points) + 1), rng.uniform(-1.0, 1.0, 2))
        errors = [e for e in (outcome(reference_alpha_preimage, bp, b, tol) for b in points)
                  if isinstance(e, Exception)]
        if errors:
            assert_raises_first_of_its_kind(errors, bp_mod.alpha_preimage, bp, np.array(points))

    @given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_centroid_coincidence_raises_for_the_first_row(self, seed, k, where):
        rng = np.random.default_rng(seed)
        bp = bp_mod.build_blueprint(sampling.random_cleavage(seed, k))
        points = diagram_points(bp, rng)
        b = points[where % len(points)]
        label = labels(bp_mod.participants(bp, b[None])[0])[-1]
        centroids = list(bp.centroids)
        centroids[label - 1] = b.copy()
        moved = copy.copy(bp)
        moved.__dict__["centroids"] = tuple(centroids)
        errors = [e for e in (outcome(reference_alpha_preimage, moved, p) for p in points)
                  if isinstance(e, Exception)]
        assert_raises_first_of_its_kind(errors, bp_mod.alpha_preimage, moved, np.array(points))

    def test_bad_points_are_domain_errors(self):
        bp = bp_mod.build_blueprint(chord_cleavage())
        with pytest.raises(geom.DimensionMismatch):
            bp_mod.alpha_preimage(bp, [[0.0, 0.0, 0.0]])
        with pytest.raises(geom.GeometryError, match="finite"):
            bp_mod.alpha_preimage(bp, [[0.0, 0.3], [math.nan, 0.0], [0.3, 0.3]])
        with pytest.raises(bp_mod.BlueprintError, match="not on blueprint"):
            bp_mod.alpha_preimage(bp, [[0.0, 0.3], [0.3, 0.3], [0.0, -0.3]])
        with pytest.raises(geom.GeometryError, match="finite"):
            bp_mod.alpha(bp, 1, [[-1.0, 0.0], [math.nan, 0.0]])

    def test_empty_stacks(self):
        bp = bp_mod.build_blueprint(chord_cleavage())
        mask, exits = bp_mod.alpha_preimage(bp, np.zeros((0, 2)))
        assert mask.shape == (0, 2) and exits.shape == (0, 2, 2)
        assert bp_mod.alpha(bp, 1, np.zeros((0, 2))).point.shape == (0, 2)
        empty = bp_mod.build_blueprint(operad.unit())
        assert bp_mod.alpha_preimage(empty, np.zeros((0, 2)))[0].shape == (0, 1)


class TestAlpha:
    def test_frozen_oracle(self):
        c = chord_cleavage()
        s = np.array([math.cos(2.5), math.sin(2.5)])
        hit = bp_mod.alpha(bp_mod.build_blueprint(c), 1, s[None])
        t = math.cos(2.5) / (math.cos(2.5) - 4 / (3 * PI))
        assert hit.point[0] == pytest.approx([0.0, math.sin(2.5) * (1 - t)], abs=1e-12)
        assert hit.point[0, 1] == pytest.approx(0.2072523014526812, abs=1e-12)
        assert hit.t[0] == pytest.approx(0.6536976641360925, abs=1e-12)
        assert hit.face_index[0] >= 0
        assert abs(c.timber(1).constraints[hit.face_index[0]][0].normal[0]) == pytest.approx(1.0)
        assert hit.corner.tolist() == [False]

    def test_domain_error_inside_trace(self):
        bp = bp_mod.build_blueprint(chord_cleavage())
        with pytest.raises(bp_mod.AlphaDomainError):
            bp_mod.alpha(bp, 1, [[1.0, 0.0]])
        with pytest.raises(bp_mod.AlphaDomainError):
            bp_mod.alpha(bp, 2, [[-1.0, 0.0]])

    def test_trace_endpoint_is_fixed(self):
        hit = bp_mod.alpha(bp_mod.build_blueprint(chord_cleavage()), 1, [[0.0, 1.0]])
        assert hit.point[0] == pytest.approx([0.0, 1.0], abs=1e-12)
        assert hit.t[0] == pytest.approx(0.0)
        assert hit.face_index.tolist() == [-1]

    def test_not_on_circle(self):
        with pytest.raises(bp_mod.AlphaDomainError):
            bp_mod.alpha(bp_mod.build_blueprint(chord_cleavage()), 1, [[0.5, 0.0]])

    def test_unit_has_no_domain(self):
        with pytest.raises(bp_mod.AlphaDomainError):
            bp_mod.alpha(bp_mod.build_blueprint(operad.unit()), 1, [[1.0, 0.0]])

    def test_corner_hit(self):
        c = tee_cleavage()
        cen = geom.centroid(c.timber(2))
        s = -cen / np.linalg.norm(cen)
        hit = bp_mod.alpha(bp_mod.build_blueprint(c), 2, s[None])
        assert hit.corner.tolist() == [True]
        assert hit.point[0] == pytest.approx([0.0, 0.0], abs=1e-9)
        assert hit.face_index.tolist() == [0]

    def test_explicit_centroid_matches(self):
        # alpha lands toward the diagram's centroid, the timber's exact centroid.
        c = chord_cleavage()
        s = np.array([math.cos(2.2), math.sin(2.2)])
        hit = bp_mod.alpha(bp_mod.build_blueprint(c), 1, s[None])
        point, *_ = reference_alpha(c, 1, s, geom.TOL, geom.centroid(c.timber(1)))
        assert hit.point[0].tobytes() == point.tobytes()


class TestPreimage:
    def test_roundtrip_through_oracle(self):
        c = chord_cleavage()
        bp = bp_mod.build_blueprint(c)
        s = np.array([math.cos(2.5), math.sin(2.5)])
        hit = bp_mod.alpha(bp, 1, s[None])
        mask, pre = bp_mod.alpha_preimage(bp, hit.point)
        assert labels(mask[0]) == (1, 2)
        assert pre[0, 0] == pytest.approx(s, abs=1e-12)
        # Each preimage sits outside its own timber's trace; by symmetry
        # timber 2's exit point is the mirror image of s.
        assert pre[0, 1] == pytest.approx([-math.cos(2.5), math.sin(2.5)], abs=1e-12)

    def test_preimage_count_generic(self):
        bp = bp_mod.build_blueprint(chord_cleavage())
        assert bp_mod.alpha_preimage(bp, [[0.0, 0.3]])[0].sum() == 2

    def test_preimage_count_tee(self):
        bp = bp_mod.build_blueprint(tee_cleavage())
        assert bp_mod.alpha_preimage(bp, [[0.0, 0.0]])[0].sum() == 3

    def test_off_diagram_rejected(self):
        bp = bp_mod.build_blueprint(chord_cleavage())
        with pytest.raises(bp_mod.BlueprintError) as exc:
            bp_mod.alpha_preimage(bp, [[0.3, 0.3]])
        assert "not on blueprint" in str(exc.value)

    def test_chord_endpoint_returns_itself(self):
        bp = bp_mod.build_blueprint(chord_cleavage())
        mask, pre = bp_mod.alpha_preimage(bp, [[0.0, 1.0]])
        assert labels(mask[0]) == (1, 2)
        assert pre[0] == pytest.approx(np.array([[0.0, 1.0], [0.0, 1.0]]), abs=1e-9)

    def test_empty_diagram(self):
        bp = bp_mod.build_blueprint(operad.unit())
        with pytest.raises(bp_mod.BlueprintError):
            bp_mod.alpha_preimage(bp, [[0.0, 0.0]])


def reference_thicken(c, density, tol):
    """Candidates piece by piece, then crossings; each checked against every kept one.

    The O(n^2) first-kept-wins scan with one preimage lookup per kept
    sample, the reference for thicken.  Returns (point, component,
    preimages) per kept sample.
    """
    bp = bp_mod.build_blueprint(c, tol)
    candidates = []
    for idx, piece in enumerate(bp.pieces):
        for t in np.linspace(0.0, 1.0, density):
            candidates.append((piece.a + t * (piece.b - piece.a), idx))
    for i in range(len(bp.pieces)):
        for j in range(i + 1, len(bp.pieces)):
            _, _, pa, pb = reference_closest_points(
                bp.pieces[i].a, bp.pieces[i].b, bp.pieces[j].a, bp.pieces[j].b
            )
            if ref_norm(pa - pb) <= tol:
                candidates.append(((pa + pb) / 2.0, i))
    kept = []
    out = []
    for point, idx in candidates:
        if any(ref_norm(point - q) <= tol for q in kept):
            continue
        kept.append(point)
        preimages = tuple(
            (label, math.atan2(s[1], s[0]) % (2 * PI))
            for label, s in reference_alpha_preimage(bp, point, tol)
        )
        out.append((point, bp.piece_components[idx], preimages))
    return out


class TestThicken:
    def test_single_chord_counts(self):
        tb = bp_mod.thicken(bp_mod.build_blueprint(chord_cleavage()), density=5)
        assert len(tb.samples) == 5
        assert tb.blueprint.n_components == 1
        for s in tb.samples:
            assert s.component == 0
            assert s.participants == (1, 2)

    def test_tee_dedups_junction(self):
        tb = bp_mod.thicken(bp_mod.build_blueprint(tee_cleavage()), density=3)
        # 3 + 3 minus the shared junction sample.
        assert len(tb.samples) == 5
        junction = [s for s in tb.samples if np.linalg.norm(s.point) < 1e-9]
        assert len(junction) == 1
        assert junction[0].participants == (1, 2, 3)

    def test_accepts_prebuilt_blueprint(self):
        bp = bp_mod.build_blueprint(chord_cleavage())
        tb = bp_mod.thicken(bp, density=4)
        assert tb.blueprint is bp
        assert len(tb.samples) == 4

    def test_density_validated(self):
        with pytest.raises(bp_mod.BlueprintError):
            bp_mod.thicken(bp_mod.build_blueprint(chord_cleavage()), density=1)

    @pytest.mark.parametrize("density", [2.5, True, "8", None])
    def test_non_integer_density_is_a_domain_error(self, density):
        with pytest.raises(bp_mod.BlueprintError, match="density"):
            bp_mod.thicken(bp_mod.build_blueprint(chord_cleavage()), density=density)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf, True])
    def test_bad_tol_is_a_domain_error(self, tol):
        with pytest.raises(bp_mod.BlueprintError, match="tol"):
            bp_mod.build_blueprint(chord_cleavage(), tol=tol)

    def test_numpy_integer_density(self):
        bp = bp_mod.build_blueprint(chord_cleavage())
        assert len(bp_mod.thicken(bp, density=np.int64(4)).samples) == 4

    @given(
        st.integers(0, 10 ** 6),
        st.integers(2, 6),
        st.integers(2, 32),
        st.sampled_from([geom.TOL, 1e-3, 0.05]),
        st.sampled_from([1 << 16, 64, 5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_first_kept_wins_scan(self, seed, k, density, tol, block):
        c = sampling.random_cleavage(seed, k)
        try:
            ref = reference_thicken(c, density, tol)
        except bp_mod.BlueprintError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                bp_mod.thicken(bp_mod.build_blueprint(c, tol), density)
            return
        with mock.patch.object(bp_mod, "_DEDUP_PAIRS", block):
            tb = bp_mod.thicken(bp_mod.build_blueprint(c, tol), density)
        assert len(tb.samples) == len(ref)
        for s, (point, component, preimages) in zip(tb.samples, ref):
            assert s.point.tobytes() == point.tobytes()
            assert s.component == component
            assert s.preimages == preimages

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_participant_count_law(self, seed):
        tb = bp_mod.thicken(bp_mod.build_blueprint(random_cleavage(seed)), density=7)
        bp = tb.blueprint
        for s in tb.samples:
            near = sum(
                1
                for p in bp.pieces
                if reference_point_seg_distance(s.point, p.a, p.b) <= bp.tol
            )
            assert len(s.participants) == near + 1
            assert len(s.participants) >= 2

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_preimage_roundtrip(self, seed):
        tb = bp_mod.thicken(bp_mod.build_blueprint(random_cleavage(seed)), density=5)
        for s in tb.samples:
            mask, pre = bp_mod.alpha_preimage(tb.blueprint, s.point[None])
            assert s.participants == labels(mask[0])
            assert s.preimages == tuple(
                (label, math.atan2(pre[0, label - 1, 1], pre[0, label - 1, 0]) % (2 * math.pi))
                for label in s.participants
            )
            for label in s.participants:
                hit = bp_mod.alpha(tb.blueprint, label, pre[0, label - 1][None])
                assert hit.point[0] == pytest.approx(s.point, abs=1e-8)

    def test_table_is_read_only(self):
        tb = bp_mod.thicken(bp_mod.build_blueprint(tee_cleavage()), density=3)
        for table in (tb.points, tb.components, tb.mask, tb.angles):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = table[-1]

    def test_samples_are_a_view_built_per_access(self):
        tb = bp_mod.thicken(bp_mod.build_blueprint(tee_cleavage()), density=3)
        first, again = tb.samples, tb.samples
        assert first is not again
        assert [(s.point.tobytes(), s.component, s.preimages) for s in first] == [
            (s.point.tobytes(), s.component, s.preimages) for s in again]
        assert [s.participants for s in first] == [labels(row) for row in tb.mask]

    def test_unit_thickens_to_an_empty_table(self):
        tb = bp_mod.thicken(bp_mod.build_blueprint(operad.unit()))
        assert tb.mask.shape == tb.angles.shape == (0, 1)
        assert tb.points.shape == (0, 2) and tb.components.shape == (0,)
        assert tb.samples == ()

    def test_chord_sample_preimages(self):
        # A chord end lies on the circle, so both timbers' rays exit at the sample itself.
        tb = bp_mod.thicken(bp_mod.build_blueprint(chord_cleavage()), density=3)
        assert tb.blueprint.n_components == 1
        assert len(tb.samples) == 3
        s0 = tb.samples[0]
        assert s0.participants == (1, 2)
        end = math.atan2(s0.point[1], s0.point[0]) % (2 * PI)
        assert [angle for _, angle in s0.preimages] == pytest.approx([end, end], abs=1e-12)


class TestStableDegree:
    def test_examples(self):
        assert bp_mod.stable_degree(bp_mod.build_blueprint(tee_cleavage()), 2) == (2, 2)
        assert bp_mod.stable_degree(bp_mod.build_blueprint(parallel_cleavage()), 2) == (4, 0)

    def test_unit(self):
        assert bp_mod.stable_degree(bp_mod.build_blueprint(operad.unit()), 3) == (0, 0)

    def test_chord(self):
        bp = bp_mod.build_blueprint(chord_cleavage())
        assert bp_mod.stable_degree(bp, 3) == bp_mod.stable_degree(bp, np.int64(3)) == (3, 0)

    def test_bad_dim(self):
        with pytest.raises(bp_mod.BlueprintError):
            bp_mod.stable_degree(bp_mod.build_blueprint(chord_cleavage()), 0)

    @pytest.mark.parametrize("dim_m", [2.5, True, 2.0, "2", -1, np.int64(0)],
                             ids=repr)
    def test_dim_must_be_a_whole_number_at_least_one(self, dim_m):
        # 2.5 used to give (2.5, 0.0) and True (1, 0).
        with pytest.raises(bp_mod.BlueprintError, match="manifold dimension"):
            bp_mod.stable_degree(bp_mod.build_blueprint(chord_cleavage()), dim_m)

    def test_components_op(self):
        assert bp_mod.build_blueprint(operad.unit()).n_components == 0
        assert bp_mod.build_blueprint(chord_cleavage()).n_components == 1
        assert bp_mod.build_blueprint(parallel_cleavage()).n_components == 2

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_degree_sum(self, seed):
        c = random_cleavage(seed)
        bp = bp_mod.build_blueprint(c)
        assert 0 <= bp.n_components <= c.k - 1
        for dim_m in (2, 3):
            a, b = bp_mod.stable_degree(bp, dim_m)
            assert a + b == dim_m * (c.k - 1)


class TestExport:
    def test_obj_export(self):
        bp = bp_mod.build_blueprint(chord_cleavage())
        text = bp_mod.export_obj(bp)
        v_lines = [ln for ln in text.splitlines() if ln.startswith("v ")]
        l_lines = [ln for ln in text.splitlines() if ln.startswith("l ")]
        # one face per timber plus the single cut piece
        assert len(l_lines) == 3
        assert len(v_lines) == 2 * len(l_lines)
        for ln in l_lines:
            _, a, b = ln.split()
            assert 1 <= int(a) <= len(v_lines) and 1 <= int(b) <= len(v_lines)
