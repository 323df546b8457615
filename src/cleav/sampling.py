"""Seeded random cut trees: uniform shapes, Gaussian normals, flat offsets.

Admissibility is enforced by rejection: a fresh shape and decoration are
drawn until validation accepts them or the budget runs out. All draws go
through one numpy Generator, so a given seed always produces the same
tree, and reruns are byte-identical.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .geom import GeometryError, OrientedHyperplane, _rowdot, whole_number
from .operad import Cleavage, Internal, Leaf, Node, OperadError, validate

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
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
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


def random_plane(rng: np.random.Generator, dim: int) -> OrientedHyperplane:
    """Uniform unit normal (Gaussian direction) with a flat offset in (-1, 1)."""
    while True:
        v = rng.standard_normal(dim)
        nrm = math.sqrt(_rowdot(v, v))
        if nrm > 1e-12:
            break
    return OrientedHyperplane(v / nrm, float(rng.uniform(-1.0, 1.0)))


def random_tree(seed_or_rng, k: int, n: int = 1) -> Node:
    """One decorated candidate tree; may or may not validate.

    Raises SamplingError, before any draw, unless k and n are whole
    numbers >= 1.
    """
    for name, value in (("arity", k), ("sphere dimension", n)):
        if not (whole_number(value) and value >= 1):
            raise SamplingError(f"{name} must be an integer >= 1, got {value!r}")
    rng = _as_rng(seed_or_rng)
    shape = _random_shape(rng, k)
    labels = iter(int(x) + 1 for x in rng.permutation(k))

    def build(node: _ShapeNode) -> Node:
        if node.left is None:
            return Leaf(next(labels))
        plane = random_plane(rng, n + 1)
        return Internal(plane, build(node.left), build(node.right))

    return build(shape)


def _first_admissible(rng: np.random.Generator, k: int, n: int, accept, failure) -> Cleavage:
    """The first candidate tree that validates and passes accept, by rejection.

    Every candidate is drawn by random_tree from rng.  MAX_TRIES is read
    on each call; once that many candidates are rejected, SamplingError
    is raised with the message failure(MAX_TRIES).
    """
    for _ in range(MAX_TRIES):
        try:
            c = validate(random_tree(rng, k, n), n)
        except (OperadError, GeometryError):
            continue
        if accept(c):
            return c
    raise SamplingError(failure(MAX_TRIES))


def random_cleavage(seed_or_rng, k: int, n: int = 1) -> Cleavage:
    """Validated random operation of the given arity, from at most MAX_TRIES candidates."""
    return _first_admissible(
        _as_rng(seed_or_rng), k, n, lambda c: True,
        lambda tries: f"no admissible decoration for k={k}, n={n} after {tries} rejections")


def fat_cleavage(seed_or_rng, k: int, min_arc: float = 0.15) -> Cleavage:
    """Random circle operation whose timbers all keep a trace arc above min_arc.

    Thin slivers make sampled-angle tests flaky; this filter rejects
    them.  One budget of MAX_TRIES candidate trees covers both checks:
    each draw is validated as in random_cleavage, and the first tree that
    is admissible and fat is returned.
    """
    return _first_admissible(
        _as_rng(seed_or_rng), k, 1, lambda c: all(tr.arcs.measure() >= min_arc for tr in c.traces),
        lambda tries: f"no fat decoration for k={k}, min_arc={min_arc} after {tries} draws")
