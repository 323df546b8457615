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
    clip_trace,
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
    walk takes sphere_trace of the root region once and carries it down:
    each side of a cut is one clip_trace step from its parent's trace, so
    a timber's trace equals sphere_trace(timber) bit for bit and is kept
    as c.trace(label), with the timber as its body.

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
    dim = n + 1
    root_body = unit_disk(dim) if within is None else within
    if root_body.dim != dim:
        raise OperadError(f"root region has dim {root_body.dim}, expected {dim}")
    leaves: list[tuple[int, SphereRegion]] = []
    cuts: list[NodeCut] = []

    def walk(node: Node, trace: SphereRegion, path: str) -> None:
        if isinstance(node, Leaf):
            leaves.append((node.label, trace))
            return
        plane = node.plane
        if plane.dim != dim:
            raise OperadError(f"plane at {path} has dim {plane.dim}, expected {dim}")
        if not abs(plane.offset) < 1.0:
            raise DegeneratePlane(
                f"cut at {path} misses the sphere: |offset| = {abs(plane.offset)!r} is not < 1"
            )
        cuts.append(NodeCut(path, plane, trace.body))
        halves = []
        for side, side_name in ((1, "left"), (-1, "right")):
            halves.append(clip_trace(trace, plane, side))
            if not halves[-1].is_nonempty(tol):
                raise NonCleaving(
                    f"cut at {path} leaves no sphere trace on the {side_name} side"
                )
        walk(node.left, halves[0], path + ".left")
        walk(node.right, halves[1], path + ".right")

    walk(tree, sphere_trace(root_body), "root")
    k = len(leaves)
    labels = sorted(lab for lab, _ in leaves)
    if labels != list(range(1, k + 1)):
        raise LabelError(f"leaf labels {labels} are not a permutation of 1..{k}")
    by_label = dict(leaves)
    traces = tuple(by_label[i] for i in range(1, k + 1))
    return Cleavage(int(n), tree, k, traces, tuple(cuts), root_body)


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
