import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cleav import fixtures, geom, operad
from oracles import chop_equal, perm_after, perm_inverse, perm_sign, random_plane, random_tree, sym_diff_measure

PI = math.pi


def chord(nx, ny, offset):
    return geom.OrientedHyperplane([nx, ny], offset)


def chord_tree(offset=0.0):
    return operad.Internal(chord(1, 0, offset), operad.Leaf(1), operad.Leaf(2))


def random_cleavage(seed, n=1, max_internal=3):
    """Rejection-sampled admissible tree; falls back to the plain chord."""
    rng = np.random.default_rng(seed)
    dim = n + 1

    def build(labels):
        if len(labels) == 1:
            return operad.Leaf(labels[0])
        cut = int(rng.integers(1, len(labels)))
        normal = rng.normal(size=dim)
        while np.linalg.norm(normal) < 1e-6:
            normal = rng.normal(size=dim)
        plane = geom.OrientedHyperplane(normal, rng.uniform(-0.8, 0.8))
        return operad.Internal(plane, build(labels[:cut]), build(labels[cut:]))

    for _ in range(200):
        k = int(rng.integers(1, max_internal + 2))
        labels = [int(x) for x in rng.permutation(k) + 1]
        try:
            return operad.validate(build(labels), n)
        except operad.OperadError:
            continue
    return operad.validate(chord_tree(), 1)


class TestValidate:
    def test_chord_split(self):
        c = operad.validate(chord_tree())
        assert c.k == 2
        assert c.n == 1
        right_half = geom.ArcSet([(-PI / 2, PI / 2)])
        left_half = geom.ArcSet([(PI / 2, 3 * PI / 2)])
        assert sym_diff_measure(c.trace(1).arcs, right_half) < 1e-12
        assert sym_diff_measure(c.trace(2).arcs, left_half) < 1e-12
        assert c.timber(1).contains([[0.5, 0.0], [-0.5, 0.0]]).tolist() == [True, False]

    def test_unit(self):
        u = operad.unit()
        assert u.k == 1
        assert u.trace(1).arcs.is_full()
        assert u.cuts == ()

    def test_degenerate_offset(self):
        with pytest.raises(operad.DegeneratePlane) as exc:
            operad.validate(chord_tree(1.5))
        assert "root" in str(exc.value)
        with pytest.raises(operad.DegeneratePlane):
            operad.validate(chord_tree(1.0))
        with pytest.raises(operad.DegeneratePlane):
            operad.validate(chord_tree(-1.0))

    def test_near_degenerate_ok(self):
        c = operad.validate(chord_tree(0.999), tol=1e-6)
        assert c.trace(1).arcs.measure() > 0

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-9, True])
    def test_bad_tol_is_a_domain_error(self, tol):
        # tol = inf used to be reported as a cut leaving no sphere trace.
        with pytest.raises(operad.OperadError, match="tol"):
            operad.validate(chord_tree(0.0), tol=tol)

    @pytest.mark.parametrize("n", [0, -1, 1.5, 2.0, True, None])
    def test_bad_sphere_dimension_is_a_domain_error(self, n):
        # n = 1.5 used to build a body of dimension 2.5, and n = True was taken as 1.
        with pytest.raises(operad.OperadError, match="sphere dimension must be an integer >= 1"):
            operad.validate(operad.Leaf(1), n)

    def test_recleave_same_plane(self):
        tree = operad.Internal(
            chord(1, 0, 0.0),
            operad.Internal(chord(1, 0, 0.0), operad.Leaf(1), operad.Leaf(2)),
            operad.Leaf(3),
        )
        with pytest.raises(operad.NonCleaving) as exc:
            operad.validate(tree)
        assert "root.left" in str(exc.value)

    def test_noncleaving_path_names_node(self):
        # Second cut sits entirely on one side of the first.
        tree = operad.Internal(
            chord(1, 0, 0.0),
            operad.Leaf(1),
            operad.Internal(chord(1, 0, 0.5), operad.Leaf(2), operad.Leaf(3)),
        )
        with pytest.raises(operad.NonCleaving) as exc:
            operad.validate(tree)
        assert "root.right" in str(exc.value)

    def test_bad_labels(self):
        tree = operad.Internal(chord(1, 0, 0.0), operad.Leaf(1), operad.Leaf(3))
        with pytest.raises(operad.LabelError):
            operad.validate(tree)
        dup = operad.Internal(chord(1, 0, 0.0), operad.Leaf(1), operad.Leaf(1))
        with pytest.raises(operad.LabelError):
            operad.validate(dup)

    def test_label_order_not_planar_order(self):
        tree = operad.Internal(chord(1, 0, 0.0), operad.Leaf(2), operad.Leaf(1))
        c = operad.validate(tree)
        # Label 2 sits on the normal side now.
        assert c.timber(2).contains([[0.5, 0.0]]).tolist() == [True]
        assert c.timber(1).contains([[-0.5, 0.0]]).tolist() == [True]

    def test_dim_mismatch(self):
        tree = operad.Internal(
            geom.OrientedHyperplane([1, 0, 0], 0.0), operad.Leaf(1), operad.Leaf(2)
        )
        with pytest.raises(operad.OperadError):
            operad.validate(tree, 1)

    def test_within_restricts(self):
        upper = geom.clip(geom.unit_disk(), chord(0, 1, 0.0), 1)
        c = operad.validate(chord_tree(), within=upper)
        q1 = geom.ArcSet([(0.0, PI / 2)])
        q2 = geom.ArcSet([(PI / 2, PI)])
        assert sym_diff_measure(c.trace(1).arcs, q1) < 1e-12
        assert sym_diff_measure(c.trace(2).arcs, q2) < 1e-12

    def test_within_can_fail(self):
        left = geom.clip(geom.unit_disk(), chord(1, 0, 0.0), -1)
        with pytest.raises(operad.NonCleaving):
            operad.validate(chord_tree(0.5), within=left)

    def test_cuts_preorder(self):
        tree = operad.Internal(
            chord(1, 0, 0.5),
            operad.Leaf(1),
            operad.Internal(chord(1, 0, -0.5), operad.Leaf(2), operad.Leaf(3)),
        )
        c = operad.validate(tree)
        assert [cut.path for cut in c.cuts] == ["root", "root.right"]
        # The second cut inherits the first cut's right side.
        assert len(c.cuts[1].body.constraints) == 1

    def test_n2_validates(self):
        tree = operad.Internal(
            geom.OrientedHyperplane([0, 0, 1], 0.2), operad.Leaf(1), operad.Leaf(2)
        )
        c = operad.validate(tree, n=2)
        assert c.k == 2
        assert c.trace(1).is_nonempty()
        assert c.trace(2).is_nonempty()


class TestLabelLookup:
    @pytest.mark.parametrize("label", [0, -1, 4, 1.0, True], ids=repr)
    def test_bad_label_is_a_domain_error(self, label):
        # 0 and -1 used to return timber 3's trace and body, and 4 raised a bare IndexError.
        c = fixtures.corridor_cleavage()
        for lookup in (c.trace, c.timber):
            with pytest.raises(operad.OperadError, match=re.escape(f"1..3, got {label!r}")):
                lookup(label)

    def test_timber_is_the_trace_body(self):
        c = fixtures.corridor_cleavage()
        for label in (1, 2, np.int64(3)):
            assert c.trace(label) is c.traces[int(label) - 1]
            assert c.timber(label) is c.trace(label).body


class TestJson:
    def test_tree_roundtrip(self):
        tree = operad.Internal(
            chord(0.6, 0.8, -0.25),
            operad.Internal(chord(0, 1, 0.1), operad.Leaf(2), operad.Leaf(3)),
            operad.Leaf(1),
        )
        doc = operad.tree_to_json(tree)
        assert operad.tree_to_json(operad.tree_from_json(doc)) == doc

    def test_cleavage_roundtrip(self):
        c = operad.validate(chord_tree(0.25))
        c2 = operad.cleavage_from_json(c.to_json())
        assert chop_equal(c, c2)

    def test_malformed(self):
        with pytest.raises(operad.OperadError):
            operad.tree_from_json([1, 2])
        with pytest.raises(operad.OperadError):
            operad.tree_from_json({"leaf": 0})
        with pytest.raises(operad.OperadError):
            operad.tree_from_json({"plane": {"normal": [1, 0], "offset": 0.0}})
        with pytest.raises(operad.OperadError):
            operad.cleavage_from_json({"n": "x", "tree": {"leaf": 1}})

    @pytest.mark.parametrize("plane, message", [
        ({"normal": [1.0, 0.0]}, "plane missing field 'offset'"),
        ({"offset": 0.0}, "plane missing field 'normal'"),
        ({"normal": [1.0, 0.0], "offset": None}, "'offset' must be a real number, got None"),
        ({"normal": [1.0, 0.0], "offset": "0.5"}, "'offset' must be a real number, got '0.5'"),
        ({"normal": [1.0, 0.0], "offset": True}, "'offset' must be a real number, got True"),
        ({"normal": {"x": 1.0}, "offset": 0.0}, "'normal' must be a list of real numbers"),
        ({"normal": [1.0, None], "offset": 0.0}, "'normal' must be a list of real numbers"),
        ([[1.0, 0.0], 0.0], "plane must be an object, got list"),
    ], ids=["no-offset", "no-normal", "null-offset", "string-offset", "bool-offset",
            "object-normal", "null-coordinate", "list-plane"])
    def test_malformed_plane_is_a_domain_error(self, plane, message):
        # These used to escape as KeyError or TypeError, or, for the string
        # offset, to be accepted.
        doc = {"n": 1, "tree": {"plane": plane, "left": {"leaf": 1}, "right": {"leaf": 2}}}
        with pytest.raises(operad.OperadError, match=re.escape(message)):
            operad.cleavage_from_json(doc)

    def test_nan_offset_is_a_degenerate_plane_at_its_path(self):
        # A NaN offset used to pass validation and fail later, in the blueprint.
        inner = {"plane": {"normal": [0.0, 1.0], "offset": math.nan},
                 "left": {"leaf": 2}, "right": {"leaf": 3}}
        doc = {"n": 1, "tree": {"plane": {"normal": [1.0, 0.0], "offset": 0.0},
                                "left": {"leaf": 1}, "right": inner}}
        with pytest.raises(operad.DegeneratePlane, match=r"cut at root\.right .*nan"):
            operad.cleavage_from_json(doc)


class TestChopEqual:
    def test_parallel_cuts_nesting_order(self):
        a = operad.validate(
            operad.Internal(
                chord(1, 0, 0.3),
                operad.Leaf(1),
                operad.Internal(chord(1, 0, -0.3), operad.Leaf(2), operad.Leaf(3)),
            )
        )
        b = operad.validate(
            operad.Internal(
                chord(1, 0, -0.3),
                operad.Internal(chord(1, 0, 0.3), operad.Leaf(1), operad.Leaf(2)),
                operad.Leaf(3),
            )
        )
        assert chop_equal(a, b)

    def test_different_planes_differ(self):
        a = operad.validate(chord_tree())
        b = operad.validate(
            operad.Internal(chord(0, 1, 0.0), operad.Leaf(1), operad.Leaf(2))
        )
        assert not chop_equal(a, b)

    def test_arity_mismatch_raises(self):
        with pytest.raises(operad.OperadError):
            chop_equal(operad.unit(), operad.validate(chord_tree()))

    def test_n2_chop_equal(self):
        up = geom.OrientedHyperplane([0, 0, 1], 0.0)
        a = operad.validate(
            operad.Internal(up, operad.Leaf(1), operad.Leaf(2)), n=2
        )
        b = operad.validate(
            operad.Internal(up, operad.Leaf(1), operad.Leaf(2)), n=2
        )
        assert chop_equal(a, b)
        flipped = operad.validate(
            operad.Internal(up, operad.Leaf(2), operad.Leaf(1)), n=2
        )
        assert not chop_equal(a, flipped)


class TestCompose:
    def test_quarter_example(self):
        outer = operad.validate(chord_tree())
        inner = operad.validate(
            operad.Internal(chord(0, 1, 0.0), operad.Leaf(1), operad.Leaf(2))
        )
        c = operad.compose(outer, 1, inner)
        assert c.k == 3
        assert sym_diff_measure(c.trace(1).arcs, geom.ArcSet([(0.0, PI / 2)])) < 1e-12
        assert sym_diff_measure(c.trace(2).arcs, geom.ArcSet([(-PI / 2, 0.0)])) < 1e-12
        assert (
            sym_diff_measure(c.trace(3).arcs, geom.ArcSet([(PI / 2, 3 * PI / 2)]))
            < 1e-12
        )

    def test_unit_identities(self):
        c = random_cleavage(7)
        for i in range(1, c.k + 1):
            same = operad.compose(c, i, operad.unit())
            assert operad.tree_to_json(same.tree) == operad.tree_to_json(c.tree)
        same = operad.compose(operad.unit(), 1, c)
        assert operad.tree_to_json(same.tree) == operad.tree_to_json(c.tree)

    def test_slot_out_of_range(self):
        c = operad.validate(chord_tree())
        with pytest.raises(operad.OperadError):
            operad.compose(c, 3, operad.unit())
        with pytest.raises(operad.OperadError):
            operad.compose(c, 0, operad.unit())

    @pytest.mark.parametrize("slot", [1.5, 1.0, "1", True, None], ids=repr)
    def test_slot_must_be_a_whole_number(self, slot):
        # 1.5 raised a LabelError about shifted leaf labels and "1" a TypeError.
        c = operad.validate(chord_tree())
        with pytest.raises(operad.OperadError, match=r"slot must be an integer in 1\.\.2, got "):
            operad.compose(c, slot, operad.unit())
        assert operad.compose(c, np.int64(1), operad.unit()).k == 2

    def test_graft_can_fail(self):
        outer = operad.validate(chord_tree())
        # x = -0.5 misses outer timber 1 = {x >= 0} entirely.
        inner = operad.validate(
            operad.Internal(chord(1, 0, -0.5), operad.Leaf(1), operad.Leaf(2))
        )
        with pytest.raises(operad.NonCleaving):
            operad.compose(outer, 1, inner)
        # It sits fine inside timber 2.
        c = operad.compose(outer, 2, inner)
        assert c.k == 3

    def test_label_shifts(self):
        outer = operad.validate(
            operad.Internal(
                chord(1, 0, 0.4),
                operad.Leaf(2),
                operad.Internal(chord(1, 0, -0.4), operad.Leaf(1), operad.Leaf(3)),
            )
        )
        inner = operad.validate(
            operad.Internal(chord(0, 1, 0.0), operad.Leaf(2), operad.Leaf(1))
        )
        c = operad.compose(outer, 1, inner)
        assert c.k == 4
        # Slot 1 sits at planar position 2; outer labels 2,3 shift to 3,4
        # and the inner labels 2,1 keep their values (i=1 shifts by zero).
        assert operad.leaf_labels(c.tree) == [3, 2, 1, 4]

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_nested_associativity(self, seed):
        rng = np.random.default_rng(seed + 13)
        a = random_cleavage(seed)
        b = random_cleavage(seed + 1)
        c = random_cleavage(seed + 2)
        i = int(rng.integers(1, a.k + 1))
        j = int(rng.integers(1, b.k + 1))
        try:
            lhs = operad.compose(operad.compose(a, i, b), i + j - 1, c)
        except operad.OperadError:
            with pytest.raises(operad.OperadError):
                operad.compose(a, i, operad.compose(b, j, c))
            return
        rhs = operad.compose(a, i, operad.compose(b, j, c))
        assert operad.tree_to_json(lhs.tree) == operad.tree_to_json(rhs.tree)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_disjoint_slots_commute(self, seed):
        rng = np.random.default_rng(seed + 29)
        a = random_cleavage(seed)
        if a.k < 2:
            return
        b = random_cleavage(seed + 1)
        c = random_cleavage(seed + 2)
        i = int(rng.integers(1, a.k))
        j = int(rng.integers(i + 1, a.k + 1))
        try:
            lhs = operad.compose(operad.compose(a, i, b), j + b.k - 1, c)
            rhs = operad.compose(operad.compose(a, j, c), i, b)
        except operad.OperadError:
            return
        assert operad.tree_to_json(lhs.tree) == operad.tree_to_json(rhs.tree)


class TestPermute:
    def test_swap(self):
        c = operad.validate(chord_tree())
        sigma = operad.Permutation((2, 1))
        swapped = operad.permute(c, sigma)
        assert perm_sign(sigma) == -1
        assert sym_diff_measure(swapped.trace(1).arcs, c.trace(2).arcs) < 1e-12
        assert sym_diff_measure(swapped.trace(2).arcs, c.trace(1).arcs) < 1e-12

    def test_identity(self):
        c = random_cleavage(3)
        ident = operad.Permutation(tuple(range(1, c.k + 1)))
        same = operad.permute(c, ident)
        assert perm_sign(ident) == 1
        assert operad.tree_to_json(same.tree) == operad.tree_to_json(c.tree)

    def test_signs(self):
        assert perm_sign(operad.Permutation((1, 2, 3))) == 1
        assert perm_sign(operad.Permutation((2, 1, 3))) == -1
        assert perm_sign(operad.Permutation((2, 3, 1))) == 1
        assert perm_sign(operad.Permutation((3, 2, 1))) == -1

    def test_inverse_roundtrip(self):
        sigma = operad.Permutation((3, 1, 4, 2))
        assert perm_after(sigma, perm_inverse(sigma)).images == (1, 2, 3, 4)
        assert perm_after(perm_inverse(sigma), sigma).images == (1, 2, 3, 4)

    def test_not_a_permutation(self):
        with pytest.raises(operad.OperadError):
            operad.Permutation((1, 1))
        with pytest.raises(operad.OperadError):
            operad.Permutation((0, 1))

    @pytest.mark.parametrize("images", [(1.9, 2), (2.0, 1.0), (True, 2), ("2", "1"), (None, 1)],
                             ids=repr)
    def test_images_must_be_whole_numbers(self, images):
        # (1.9, 2) was truncated to (1, 2); (True, 2) and ("2", "1") were accepted.
        with pytest.raises(operad.OperadError, match="permutation images must be integers"):
            operad.Permutation(images)

    def test_index_must_be_a_whole_number_in_range(self):
        # 1.5 and "1" raised TypeError from the tuple and from <=; True gave the image of 1.
        sigma = operad.Permutation((2, 1))
        for index in (1.5, "1", True, 0, 3, None):
            with pytest.raises(operad.OperadError, match=r"index must be an integer in 1\.\.2"):
                sigma(index)
        assert (sigma(1), sigma(np.int64(2))) == (2, 1)

    def test_numpy_integer_images(self):
        sigma = operad.Permutation(tuple(np.array([2, 1])))
        assert sigma.images == (2, 1) and all(type(i) is int for i in sigma.images)

    def test_size_mismatch(self):
        c = operad.validate(chord_tree())
        with pytest.raises(operad.OperadError):
            operad.permute(c, operad.Permutation((1, 2, 3)))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_timber_relabeling(self, seed):
        rng = np.random.default_rng(seed + 41)
        c = random_cleavage(seed)
        sigma = operad.Permutation(tuple(int(x) for x in rng.permutation(c.k) + 1))
        moved = operad.permute(c, sigma)
        inv = perm_inverse(sigma)
        for label in range(1, c.k + 1):
            orig = c.trace(inv(label)).arcs
            assert sym_diff_measure(moved.trace(label).arcs, orig) < 1e-12

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_sign_multiplicative(self, seed):
        rng = np.random.default_rng(seed + 57)
        c = random_cleavage(seed)
        sig1 = operad.Permutation(tuple(int(x) for x in rng.permutation(c.k) + 1))
        sig2 = operad.Permutation(tuple(int(x) for x in rng.permutation(c.k) + 1))
        twice = operad.permute(operad.permute(c, sig1), sig2)
        combo = perm_after(sig2, sig1)
        assert perm_sign(sig1) * perm_sign(sig2) == perm_sign(combo)
        assert operad.tree_to_json(twice.tree) == operad.tree_to_json(
            operad.permute(c, combo).tree
        )

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_compose_equivariance(self, seed):
        # Relabeling the outer operation and grafting at the moved slot
        # agrees with grafting first and applying the block relabeling.
        rng = np.random.default_rng(seed + 73)
        a = random_cleavage(seed)
        b = random_cleavage(seed + 1)
        i = int(rng.integers(1, a.k + 1))
        sigma = operad.Permutation(tuple(int(x) for x in rng.permutation(a.k) + 1))
        m = b.k
        try:
            lhs = operad.compose(operad.permute(a, sigma), sigma(i), b.tree)
            base = operad.compose(a, i, b.tree)
        except operad.OperadError:
            return
        block = [0] * (a.k + m - 1)
        for j in range(1, a.k + 1):
            if j == i:
                continue
            src = j if j < i else j + m - 1
            img = sigma(j)
            block[src - 1] = img if img < sigma(i) else img + m - 1
        for ell in range(1, m + 1):
            block[i - 1 + ell - 1] = sigma(i) - 1 + ell
        rhs = operad.permute(base, operad.Permutation(tuple(block)))
        assert operad.tree_to_json(lhs.tree) == operad.tree_to_json(rhs.tree)


class TestLeafTraces:
    @given(st.integers(0, 10 ** 6), st.sampled_from([1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_each_trace_is_a_fresh_trace_of_its_timber(self, seed, n):
        """validate keeps its walk's traces; each equals a trace taken from the timber anew.

        compose and permute validate with within=, and unit is a tree without cuts.
        """
        rng = np.random.default_rng(seed + 83)
        a = random_cleavage(seed, n)
        b = random_cleavage(seed + 1, n)
        sigma = operad.Permutation(tuple(int(x) for x in rng.permutation(a.k) + 1))
        cleavages = [a, operad.unit(a.n), operad.permute(a, sigma)]
        try:
            cleavages.append(operad.compose(a, int(rng.integers(1, a.k + 1)), b))
        except operad.OperadError:
            pass
        for c in cleavages:
            for label in range(1, c.k + 1):
                trace, fresh = c.trace(label), geom.sphere_trace(c.timber(label))
                assert trace.body is c.timber(label)
                if c.n == 1:
                    assert trace.arcs.arcs == fresh.arcs.arcs
                else:
                    assert trace.mask.tobytes() == fresh.mask.tobytes()
                    assert trace.points is fresh.points


def fresh_trace_walk(tree, n, within, tol=geom.TOL):
    """The NonCleaving message of the first failing cut, or None, from fresh traces.

    The reference for validate's admissibility check: every side of every
    cut is clipped and traced anew, constraint by constraint.
    """
    def walk(node, body, path):
        if isinstance(node, operad.Leaf):
            return None
        for side, side_name in ((1, "left"), (-1, "right")):
            if not geom.sphere_trace(geom.clip(body, node.plane, side)).is_nonempty(tol):
                return f"cut at {path} leaves no sphere trace on the {side_name} side"
        return (walk(node.left, geom.clip(body, node.plane, 1), path + ".left")
                or walk(node.right, geom.clip(body, node.plane, -1), path + ".right"))

    return walk(tree, geom.unit_disk(n + 1) if within is None else within, "root")


class TestCarriedTraces:
    @given(st.integers(0, 10 ** 6), st.sampled_from([1, 2]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_walk_traces_match_fresh_traces(self, seed, n, restricted):
        """Traces carried down random trees equal fresh ones, and so does every verdict."""
        rng = np.random.default_rng(seed)
        within = None
        if restricted:
            within = geom.clip(geom.unit_disk(n + 1), random_plane(rng, n + 1), 1)
        for _ in range(10):
            tree = random_tree(rng, int(rng.integers(1, 6)), n)
            expected = fresh_trace_walk(tree, n, within)
            if expected is not None:
                with pytest.raises(operad.NonCleaving, match=re.escape(expected)):
                    operad.validate(tree, n, within=within)
                continue
            c = operad.validate(tree, n, within=within)
            if restricted:
                assert c.incoming is within
            for label in range(1, c.k + 1):
                trace, fresh = c.trace(label), geom.sphere_trace(c.timber(label))
                assert trace.body is c.timber(label)
                if n == 1:
                    assert trace.arcs.arcs == fresh.arcs.arcs
                else:
                    assert trace.mask.tobytes() == fresh.mask.tobytes()


class TestPartitionProperties:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_traces_partition_circle(self, seed):
        c = random_cleavage(seed)
        total = sum(t.arcs.measure() for t in c.traces)
        assert total == pytest.approx(2 * PI, abs=1e-9)
        for i in range(c.k):
            for j in range(i + 1, c.k):
                overlap = c.traces[i].arcs.intersect(c.traces[j].arcs)
                assert overlap.measure() < 1e-9

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_timbers_convex_and_disjoint(self, seed):
        rng = np.random.default_rng(seed + 71)
        c = random_cleavage(seed)
        pts = rng.uniform(-1, 1, size=(50, 2))
        pts = pts[np.linalg.norm(pts, axis=1) < 1 - 1e-9]
        owners = sum(c.timber(lab).contains(pts, -1e-9).astype(int) for lab in range(1, c.k + 1))
        assert (owners <= 1).all()
        strict = sum(c.timber(lab).contains(pts, 1e-9).astype(int) for lab in range(1, c.k + 1))
        assert (strict >= 1).all()
