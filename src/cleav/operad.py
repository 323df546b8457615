"""Trees of oriented cuts splitting the round sphere.

A k-ary operation is a rooted binary tree whose internal nodes carry
oriented hyperplanes and whose leaves carry the labels 1..k in some order.
Walking from the root, each cut splits the inherited region in two, the
normal side going to the left child.  The operation is admissible when
every cut leaves part of the sphere on both sides; the k convex regions at
the leaves are called timbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from .geom import (
    TOL,
    ConvexBody,
    OrientedHyperplane,
    SphereRegion,
    _bare_nonempty,
    _bare_region,
    _cut_bare,
    finite_real,
    sphere_trace,
    unit_disk,
    whole_number,
)


class OperadError(ValueError):
    """Invalid tree, bad labels, or an inadmissible cut."""


class DegeneratePlane(OperadError):
    """A cut plane misses the unit sphere entirely."""


class NonCleaving(OperadError):
    """Some cut leaves an empty sphere trace on one side."""


class LabelError(OperadError):
    """Leaf labels are not a permutation of 1..k."""


@dataclass(frozen=True)
class Leaf:
    label: int


@dataclass(frozen=True)
class Internal:
    plane: OrientedHyperplane
    left: "Node"
    right: "Node"


Node = Union[Leaf, Internal]


def tree_to_json(node: Node) -> dict:
    if isinstance(node, Leaf):
        return {"leaf": node.label}
    return {
        "plane": node.plane.to_json(),
        "left": tree_to_json(node.left),
        "right": tree_to_json(node.right),
    }


def tree_from_json(doc: object) -> Node:
    if not isinstance(doc, dict):
        raise OperadError(f"tree node must be an object, got {type(doc).__name__}")
    if "leaf" in doc:
        label = doc["leaf"]
        if isinstance(label, bool) or not isinstance(label, int) or label < 1:
            raise OperadError(f"leaf label must be a positive integer, got {label!r}")
        return Leaf(label)
    for field in ("plane", "left", "right"):
        if field not in doc:
            raise OperadError(f"internal node missing field {field!r}")
    plane = doc["plane"]
    if not isinstance(plane, dict):
        raise OperadError(f"plane must be an object, got {type(plane).__name__}")
    for field in ("normal", "offset"):
        if field not in plane:
            raise OperadError(f"plane missing field {field!r}")
    normal, offset = plane["normal"], plane["offset"]
    if not (isinstance(normal, list) and all(_is_real(x) for x in normal)):
        raise OperadError(f"plane field 'normal' must be a list of real numbers, got {normal!r}")
    if not _is_real(offset):
        raise OperadError(f"plane field 'offset' must be a real number, got {offset!r}")
    plane = OrientedHyperplane.from_json(plane)
    return Internal(plane, tree_from_json(doc["left"]), tree_from_json(doc["right"]))


def _is_real(x) -> bool:
    """x is an int or a float, as JSON numbers parse, and not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def leaf_labels(node: Node) -> list[int]:
    if isinstance(node, Leaf):
        return [node.label]
    return leaf_labels(node.left) + leaf_labels(node.right)


def _map_labels(node: Node, f: Callable[[int], int]) -> Node:
    if isinstance(node, Leaf):
        return Leaf(f(node.label))
    return Internal(node.plane, _map_labels(node.left, f), _map_labels(node.right, f))


@dataclass(frozen=True)
class NodeCut:
    """One internal node: its plane and the region the cut inherits."""

    path: str
    plane: OrientedHyperplane
    body: ConvexBody


@dataclass(frozen=True)
class Cleavage:
    """A validated operation: tree plus the regions it produces.

    traces are indexed by leaf label, not by planar position, and each
    carries its timber as its body; cuts lists the internal nodes in
    pre-order.
    """

    n: int
    tree: Node
    k: int
    traces: tuple[SphereRegion, ...]
    cuts: tuple[NodeCut, ...]
    incoming: ConvexBody

    def timber(self, label: int) -> ConvexBody:
        return self.trace(label).body

    def trace(self, label: int) -> SphereRegion:
        if not (whole_number(label) and 1 <= label <= self.k):
            raise OperadError(f"label must be an integer in 1..{self.k}, got {label!r}")
        return self.traces[label - 1]

    def to_json(self) -> dict:
        return {"n": self.n, "tree": tree_to_json(self.tree)}


def validate(
    tree: Node,
    n: int = 1,
    tol: float = TOL,
    within: ConvexBody | None = None,
) -> Cleavage:
    """Check every cut of the tree and split the region into timbers.

    Cuts apply from the root down, the normal side of each plane going to
    the left child.  `within` restricts the root region (default: the whole
    ball); traces are still reported as absolute sphere regions.  The
    walk takes sphere_trace of the root region once and carries it down
    (_cleave), so a timber's trace equals sphere_trace(timber) bit for bit
    and is kept as c.trace(label), with the timber as its body.

    Raises OperadError when n is not a whole number >= 1, DegeneratePlane
    when a plane misses the unit sphere, NonCleaving when either side of a
    cut retains no sphere trace (the message names the node by its
    root.left.right... path), and LabelError when the leaf labels are not
    a permutation of 1..k.
    """
    if not (whole_number(n) and n >= 1):
        raise OperadError(f"sphere dimension must be an integer >= 1, got {n!r}")
    if not (finite_real(tol) and tol > 0.0):
        raise OperadError(f"tol must be a positive finite number, got {tol!r}")
    root_body = unit_disk(n + 1) if within is None else within
    if root_body.dim != n + 1:
        raise OperadError(f"root region has dim {root_body.dim}, expected {n + 1}")
    root = sphere_trace(root_body)
    return _assemble(tree, int(n), root, _cleave(_bare(tree), root, tol))


def _bare(node: Node):
    """The tree as _cleave walks it: (normal, offset, left, right) per cut, the Leaf itself per leaf."""
    if isinstance(node, Leaf):
        return node
    return (node.plane.normal, node.plane.offset, _bare(node.left), _bare(node.right))


def _cleave(tree, root: SphereRegion, tol: float = TOL) -> list:
    """The admissibility walk: the bare traces of the tree's timbers, in planar order.

    tree is bare: a tuple (normal, offset, left, right) per cut, normal
    any sequence of floats, and anything else a leaf.  The walk starts
    from root's trace and takes one _cut_bare step per cut, from the root
    down in pre-order; it stops at the first cut that fails, with
    OperadError when its normal has the wrong dimension, DegeneratePlane
    when its |offset| is not < 1, and NonCleaving when its left, then its
    right side, keeps no trace longer than tol.  validate and the sampler
    both run it, before any plane, body or region of the tree is built.
    """
    dim, points = root.body.dim, root.points
    leaves = []

    def walk(node, trace, path: str) -> None:
        if type(node) is not tuple:
            leaves.append(trace)
            return
        normal, offset, left, right = node
        if len(normal) != dim:
            raise OperadError(f"plane at {path} has dim {len(normal)}, expected {dim}")
        if not abs(offset) < 1.0:
            raise DegeneratePlane(f"cut at {path} misses the sphere: |offset| = {abs(offset)!r} is not < 1")
        left_trace, right_trace = _cut_bare(trace, points, normal, offset)
        for half, side_name in ((left_trace, "left"), (right_trace, "right")):
            if not _bare_nonempty(half, tol):
                raise NonCleaving(f"cut at {path} leaves no sphere trace on the {side_name} side")
        walk(left, left_trace, path + ".left")
        walk(right, right_trace, path + ".right")

    walk(tree, root._bare, "root")
    return leaves


def _assemble(tree: Node, n: int, root: SphereRegion, traces: list) -> Cleavage:
    """The Cleavage of a tree that _cleave accepted from root, with the timber traces it returned.

    Each body is built once from root.body, as clip builds it (the walk
    checked every plane's dimension), and each timber's SphereRegion from
    its bare trace.  Raises LabelError when the leaf labels are not a
    permutation of 1..k.
    """
    k = len(traces)
    labels = leaf_labels(tree)
    if sorted(labels) != list(range(1, k + 1)):
        raise LabelError(f"leaf labels {sorted(labels)} are not a permutation of 1..{k}")
    bare = iter(traces)
    regions = {}
    cuts: list[NodeCut] = []

    def build(node: Node, body: ConvexBody, path: str) -> None:
        if isinstance(node, Leaf):
            regions[node.label] = _bare_region(body, next(bare), root.points)
            return
        cuts.append(NodeCut(path, node.plane, body))
        build(node.left, ConvexBody(body.constraints + ((node.plane, 1),), body.dim), path + ".left")
        build(node.right, ConvexBody(body.constraints + ((node.plane, -1),), body.dim), path + ".right")

    build(tree, root.body, "root")
    return Cleavage(n, tree, k, tuple(regions[i] for i in range(1, k + 1)), tuple(cuts), root.body)


def cleavage_from_json(doc: object, tol: float = TOL) -> Cleavage:
    if not isinstance(doc, dict):
        raise OperadError("cleavage document must be an object")
    n = doc.get("n")
    if isinstance(n, bool) or not isinstance(n, int):
        raise OperadError(f"field 'n' must be an integer, got {n!r}")
    if "tree" not in doc:
        raise OperadError("cleavage document missing field 'tree'")
    return validate(tree_from_json(doc["tree"]), n, tol)


def compose(outer: Cleavage, i: int, inner, tol: float = TOL) -> Cleavage:
    """Graft a tree at outer's leaf labeled i and revalidate the whole tree.

    `inner` is a decorated tree (a Cleavage is accepted too; its tree is
    used). Inner labels shift to i..i+m-1; outer labels above i shift up by
    m-1. Raises NonCleaving when an inner cut fails inside outer's timber i.
    """
    if isinstance(inner, Cleavage):
        if outer.n != inner.n:
            raise OperadError(f"sphere dimension mismatch: {outer.n} != {inner.n}")
        inner = inner.tree
    if not isinstance(inner, (Leaf, Internal)):
        raise OperadError(f"inner must be a decorated tree, got {type(inner).__name__}")
    if not (whole_number(i) and 1 <= i <= outer.k):
        raise OperadError(f"slot must be an integer in 1..{outer.k}, got {i!r}")
    inner_labels = sorted(leaf_labels(inner))
    m = len(inner_labels)
    if inner_labels != list(range(1, m + 1)):
        raise LabelError(f"inner leaf labels {inner_labels} are not a permutation of 1..{m}")
    inner_tree = _map_labels(inner, lambda lab: lab + i - 1)

    def graft(node: Node) -> Node:
        if isinstance(node, Leaf):
            if node.label == i:
                return inner_tree
            return Leaf(node.label + m - 1 if node.label > i else node.label)
        return Internal(node.plane, graft(node.left), graft(node.right))

    return validate(graft(outer.tree), outer.n, tol, within=outer.incoming)


@dataclass(frozen=True)
class Permutation:
    """Bijection of 1..k stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        if not all(whole_number(i) for i in self.images):
            raise OperadError(f"permutation images must be integers, got {self.images!r}")
        images = tuple(int(i) for i in self.images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise OperadError(f"not a permutation of 1..{len(images)}: {self.images}")
        object.__setattr__(self, "images", images)

    @property
    def k(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not (whole_number(i) and 1 <= i <= self.k):
            raise OperadError(f"index must be an integer in 1..{self.k}, got {i!r}")
        return self.images[i - 1]


def permute(c: Cleavage, sigma: Permutation, tol: float = TOL) -> Cleavage:
    """Relabel leaves by sigma; timber sigma(i) of the result is timber i of c."""
    if sigma.k != c.k:
        raise OperadError(f"permutation size {sigma.k} != arity {c.k}")
    tree = _map_labels(c.tree, sigma)
    return validate(tree, c.n, tol, within=c.incoming)


def unit(n: int = 1) -> Cleavage:
    """The identity operation: a single leaf, no cuts."""
    return validate(Leaf(1), n)
