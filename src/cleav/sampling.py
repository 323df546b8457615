"""Seeded random cut trees: uniform shapes, Gaussian normals, flat offsets.

Admissibility is enforced by rejection.  Each candidate draws all of its
numbers as plain floats (shape, labels, then a normal and an offset per
cut in pre-order) and goes through validate's own walk, which stops at
its first failing cut; planes, bodies and regions are built only for the
tree that is kept.  All draws go through one numpy Generator, so a given
seed always produces the same tree, and reruns are byte-identical.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .geom import ArcSet, OrientedHyperplane, finite_real, sphere_trace, unit_disk, whole_number
from .operad import Cleavage, Internal, Leaf, Node, OperadError, _assemble, _cleave

ENV_SEED = "CLEAVE_SEED"
MAX_TRIES = 10_000


class SamplingError(RuntimeError):
    """A bad sampling knob, or rejection sampling exhausted its budget."""


def resolve_seed(seed: int | None = None) -> int:
    """Explicit seed, else the CLEAVE_SEED environment variable, else 0; never negative."""
    source = "seed"
    if seed is None:
        env = os.environ.get(ENV_SEED)
        if env is None:
            return 0
        try:
            seed = int(env)
        except ValueError:
            raise SamplingError(f"{ENV_SEED} must be an integer, got {env!r}") from None
        source = ENV_SEED
    seed = int(seed)
    if seed < 0:
        raise SamplingError(f"{source} must be non-negative, got {seed}")
    return seed


def _as_rng(seed_or_rng) -> np.random.Generator:
    """seed_or_rng itself when it is a Generator, else a fresh one seeded by a whole number >= 0."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    if not (whole_number(seed_or_rng) and seed_or_rng >= 0):
        raise SamplingError(f"seed must be a numpy Generator or an integer >= 0, got {seed_or_rng!r}")
    return np.random.default_rng(seed_or_rng)


class _ShapeNode:
    __slots__ = ("left", "right")

    def __init__(self):
        self.left = None
        self.right = None


def _random_shape(rng: np.random.Generator, k: int) -> _ShapeNode:
    """Uniform plane binary tree with k leaves, grown by leaf insertion.

    Each step splits a uniformly chosen node of the current tree into an
    internal node holding the old subtree and a fresh leaf, on a uniform
    side. Starting from a single leaf this walks over all shapes with
    equal probability.
    """
    root = _ShapeNode()
    nodes = [root]
    for _ in range(k - 1):
        target = nodes[int(rng.integers(len(nodes)))]
        moved = _ShapeNode()
        moved.left, moved.right = target.left, target.right
        fresh = _ShapeNode()
        if int(rng.integers(2)) == 0:
            target.left, target.right = moved, fresh
        else:
            target.left, target.right = fresh, moved
        nodes.extend((moved, fresh))
    return root


def _norm(v: list) -> float:
    """|v|, each square summed left to right as _rowdot sums it."""
    total = 0.0
    for x in v:
        total += x * x
    return math.sqrt(total)


def _draw_tree(rng: np.random.Generator, k: int, n: int):
    """One candidate tree for _cleave, bare: its numbers drawn as plain floats.

    The draws are the shape, the labels, then per cut in pre-order a
    Gaussian normal (redrawn while its norm is <= 1e-12) and a flat offset
    in (-1, 1).  The normal is normalised, then normal and offset are
    normalised again as OrientedHyperplane() normalises them, so
    OrientedHyperplane._of stores the bits the constructor would.
    """
    shape = _random_shape(rng, k)
    labels = iter(rng.permutation(k).tolist())

    def draw(node: _ShapeNode):
        if node.left is None:
            return next(labels) + 1
        while True:
            v = rng.standard_normal(n + 1).tolist()
            norm = _norm(v)
            if norm > 1e-12:
                break
        u = [x / norm for x in v]
        norm = _norm(u)
        # rng.uniform(-1.0, 1.0), bit for bit: -1 + 2 * random(), and 2 * random() is exact.
        offset = -1.0 + 2.0 * rng.random()
        return ([x / norm for x in u], offset / norm, draw(node.left), draw(node.right))

    return draw(shape)


def _tree(bare) -> Node:
    """The Node tree of a bare tree that _draw_tree drew."""
    if type(bare) is not tuple:
        return Leaf(bare)
    normal, offset, left, right = bare
    return Internal(OrientedHyperplane._of(normal, offset), _tree(left), _tree(right))


def _first_admissible(seed_or_rng, k: int, n: int, accept, failure) -> Cleavage:
    """The first candidate tree that cleaves and whose timber traces pass accept, by rejection.

    Every candidate is drawn by _draw_tree and walked by operad._cleave;
    accept takes the bare timber traces in planar order.  MAX_TRIES is
    read on each call; once that many candidates are rejected,
    SamplingError is raised with the message failure(MAX_TRIES).  Before
    any draw, SamplingError is raised unless k and n are whole numbers
    >= 1 and seed_or_rng is a Generator or a whole number >= 0.
    """
    for name, value in (("arity", k), ("sphere dimension", n)):
        if not (whole_number(value) and value >= 1):
            raise SamplingError(f"{name} must be an integer >= 1, got {value!r}")
    rng = _as_rng(seed_or_rng)
    root = sphere_trace(unit_disk(n + 1))
    for _ in range(MAX_TRIES):
        bare = _draw_tree(rng, k, n)
        try:
            traces = _cleave(bare, root)
        except OperadError:
            continue
        if accept(traces):
            return _assemble(_tree(bare), int(n), root, traces)
    raise SamplingError(failure(MAX_TRIES))


def random_cleavage(seed_or_rng, k: int, n: int = 1) -> Cleavage:
    """Validated random operation of the given arity, from at most MAX_TRIES candidates."""
    return _first_admissible(
        seed_or_rng, k, n, lambda traces: True,
        lambda tries: f"no admissible decoration for k={k}, n={n} after {tries} rejections")


def fat_cleavage(seed_or_rng, k: int, min_arc: float = 0.15) -> Cleavage:
    """Random circle operation whose timbers all keep a trace arc above min_arc.

    Thin slivers make sampled-angle tests flaky; this filter rejects
    them.  One budget of MAX_TRIES candidate trees covers both checks:
    each draw is cleaved as in random_cleavage, and the first tree that
    is admissible and fat is returned.  min_arc must be a finite real
    number, checked before any draw.
    """
    if not finite_real(min_arc):
        raise SamplingError(f"min_arc must be a finite number, got {min_arc!r}")
    return _first_admissible(
        seed_or_rng, k, 1, lambda traces: all(ArcSet._of(arcs).measure() >= min_arc for arcs in traces),
        lambda tries: f"no fat decoration for k={k}, min_arc={min_arc} after {tries} draws")
