"""Collapse evaluation for families of closed strands.

Given a circle cleavage and one embedded closed polyline per timber, the
evaluator recovers, at every sample of the thickened cut diagram, the
strand points collapsing there, measures the geodesics between them, and
scales each by how close third strands come to a tapered tube around that
geodesic.  Any scale exceeding 1 sends the containing diagram component to
the point at infinity; everything else is reported as tangent data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import (
    _BLOCK,
    _StrandBoxes,
    _VertexBlocks,
    _block_boxes,
    _block_index,
    _dropped,
    _nearest_edges,
    _reachable,
    _vertex_blocks,
)
from .blueprint import (
    Blueprint,
    ThickenedBlueprint,
    _require_circle,
    arc_landings,
)
from .geom import TOL, TWO_PI, _pairs, _rowdot, finite_real, whole_number

INF = math.inf
ETA_STEPS = 2.0  # default exclusion radius, in vertex steps of the excluded point's strand


class UmkehrError(ValueError):
    """Bad input to collapse evaluation."""


class NonUniqueGeodesic(UmkehrError):
    """Two or more shortest paths tie within tolerance."""


class SelfIntersecting(UmkehrError):
    """Strands meant to be disjoint come within tolerance of each other."""


# ---------------------------------------------------------------------------
# Flat metrics and geodesics.


def _remainder(x: np.ndarray, L: float) -> np.ndarray:
    """np.mod(x, L) bit for bit, for a positive L; exact and cheaper when every x lies in [-L, 2L).

    There fmod(x, L) is x, or x - L for x >= L, which is exact by
    Sterbenz's lemma.  numpy's remainder adds L to a negative fmod with one
    rounding, as r + L does here, and turns a zero into +0.0, as r + 0.0
    does.  Any other x, nan included, takes np.mod itself.
    """
    if not (x.size and x.min() >= -L and x.max() < 2.0 * L):
        return np.mod(x, L)
    r = x - (x >= L) * L
    return r + (r < 0.0) * L


def _tie_error(delta: np.ndarray) -> NonUniqueGeodesic:
    return NonUniqueGeodesic(
        f"displacement {delta.tolist()} sits half a period away on some axis"
    )


@dataclass(frozen=True)
class FlatMetric:
    """Euclidean R^d, or the flat torus with period L along every axis."""

    kind: str
    d: int
    L: float | None = None

    def __post_init__(self):
        if self.kind not in ("euclidean", "torus"):
            raise UmkehrError(f"metric kind must be 'euclidean' or 'torus', got {self.kind!r}")
        if not (whole_number(self.d) and self.d >= 2):
            raise UmkehrError(f"ambient dimension must be an integer >= 2, got {self.d!r}")
        object.__setattr__(self, "d", int(self.d))
        if self.kind == "torus":
            if not (finite_real(self.L) and self.L > 0.0):
                raise UmkehrError(f"torus period must be a positive finite number, got {self.L!r}")
            object.__setattr__(self, "L", float(self.L))
        elif self.L is not None:
            raise UmkehrError("euclidean metric takes no period")

    def wrap(self, delta) -> np.ndarray:
        """Row-wise shortest vectors equivalent to the differences delta, no tie check.

        On the torus this is mod(delta + L/2, L) - L/2 entry by entry, bit
        for bit np.mod's, with the remainder taken by _remainder.
        """
        delta = np.asarray(delta, dtype=float)
        if self.kind == "euclidean":
            return delta
        L = self.L
        return _remainder(delta + 0.5 * L, L) - 0.5 * L

    def ties(self, W, tol: float = TOL) -> np.ndarray:
        """Row-wise: does the shortest vector sit half a period away on some axis?"""
        W = np.asarray(W, dtype=float)
        if self.kind == "euclidean":
            return np.zeros(W.shape[:-1], dtype=bool)
        return np.any(np.abs(np.abs(W) - 0.5 * self.L) <= tol, axis=-1)

    def to_json(self) -> dict:
        doc = {"kind": self.kind, "d": self.d}
        if self.kind == "torus":
            doc["L"] = self.L
        return doc


def metric_from_json(doc: object) -> FlatMetric:
    if not isinstance(doc, dict):
        raise UmkehrError("metric document must be an object")
    kind = doc.get("kind")
    d = doc.get("d")
    if isinstance(d, bool) or not isinstance(d, int):
        raise UmkehrError(f"metric field 'd' must be an integer, got {d!r}")
    if kind == "torus":
        L = doc.get("L")
        if isinstance(L, bool) or not isinstance(L, (int, float)):
            raise UmkehrError(f"metric field 'L' must be a real number, got {L!r}")
        return FlatMetric("torus", d, L)
    return FlatMetric(kind if isinstance(kind, str) else repr(kind), d)


@dataclass(frozen=True)
class Geodesic:
    """Shortest constant-speed paths from a[r] to b[r], parametrized on [0, 1].

    Every field holds one row per pair; length is an (n,) array.
    """

    a: np.ndarray
    b: np.ndarray
    length: np.ndarray
    tangent: np.ndarray
    disp: np.ndarray


def geodesic(metric: FlatMetric, a, b, tol: float = TOL) -> Geodesic:
    """Row-wise minimizing geodesics from a to b; zero length allowed, ties raise.

    a and b are (n, d) stacks of n pairs.  Row r of the result is bit for
    bit the geodesic of the 1-row stack a[r:r+1], b[r:r+1]: the length is
    the square root of geom._rowdot(disp, disp), which rounds a row the
    same in any stack.  Ties raise the first tying row's NonUniqueGeodesic.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[1] != metric.d:
        raise UmkehrError(f"points must be two (n, {metric.d}) stacks of one shape, "
                          f"got {a.shape} and {b.shape}")
    delta = b - a
    disp = metric.wrap(delta)
    tie = metric.ties(disp, tol)
    if tie.any():
        raise _tie_error(delta[np.argmax(tie)])
    length = np.sqrt(_rowdot(disp, disp))
    tangent = np.divide(disp, length[:, None], out=np.zeros_like(disp), where=length[:, None] > 0.0)
    return Geodesic(a, b, length, tangent, disp)


# ---------------------------------------------------------------------------
# Discrete strand families.


@dataclass(frozen=True)
class DiscreteEmbedding:
    """k closed strands, each a closed polyline on equal angular steps.

    Vertex j of strand i sits at parameter 2*pi*j/m_i; the strand closes
    back to vertex 0.  Points between vertices interpolate along the
    metric's shortest edge displacement, so torus strands may wrap.
    """

    metric: FlatMetric
    loops: tuple

    def __post_init__(self):
        strands = tuple(self.loops)
        if not strands:
            raise UmkehrError("at least one strand is required")
        loops, edges = [], []
        for idx, raw in enumerate(strands):
            try:
                loop = np.asarray(raw, dtype=float)
            except (TypeError, ValueError):
                loop = None
            if loop is None or loop.ndim != 2 or loop.shape[1] != self.metric.d:
                raise UmkehrError(
                    f"strand {idx + 1} must be an (m, {self.metric.d}) vertex array"
                )
            if loop.shape[0] < 8:
                raise UmkehrError(
                    f"strand {idx + 1} has {loop.shape[0]} vertices, need at least 8"
                )
            if not np.all(np.isfinite(loop)):
                raise UmkehrError(f"strand {idx + 1} has non-finite coordinates")
            big = float(np.abs(loop).max())
            if not math.isfinite(self.metric.d * (2.0 * big) * (2.0 * big)):  # Python floats: no warning
                raise UmkehrError(f"strand {idx + 1} has a coordinate of magnitude {big!r}: "
                                  f"squared distances between its points overflow")
            delta = np.roll(loop, -1, axis=0) - loop
            disp = self.metric.wrap(delta)
            tie = self.metric.ties(disp)
            bad = np.flatnonzero(tie | (np.linalg.norm(disp, axis=1) == 0.0))
            if bad.size:
                j = int(bad[0])
                if tie[j]:
                    raise _tie_error(delta[j])
                if delta[j].any() and not disp[j].any():  # the torus mod rounded it away
                    raise UmkehrError(
                        f"torus period {self.metric.L!r} is too large for strand {idx + 1}: "
                        f"its edge {j} -> {(j + 1) % loop.shape[0]} rounds to a zero displacement"
                    )
                raise UmkehrError(
                    f"strand {idx + 1} repeats vertex {j}; consecutive points must differ"
                )
            loops.append(loop)
            edges.append(disp)
        object.__setattr__(self, "loops", tuple(loops))
        object.__setattr__(self, "_edges", tuple(edges))

    @cached_property
    def _blocks(self) -> _VertexBlocks:
        """Clearance's block index: every strand's vertices by block of _BLOCK, built on first use.

        The blocks are _block_index's, the precheck's, over the vertices as
        given (not reduced mod L), in label order; a strand's last block
        repeats its last vertex.  The coordinates are laid out axis-major,
        (d, _BLOCK, blocks), beside each block's box.  Only clearance reads the index, so
        embeddings that never meet a tube query do not hold a second copy
        of their vertices.
        """
        return _vertex_blocks(self.loops)

    @cached_property
    def _boxes(self):
        """(offsets, zero, strands): the strand precheck's box index, built on first use.

        offsets holds the per-axis image offsets n*L, n in {-2,...,2}, on
        the torus (one 0.0 in the plane) and zero the position of 0.0.  Per
        strand, a _StrandBoxes of its vertices reduced mod L, its block
        index, and its block and whole-strand boxes per offset and axis: a
        coordinate of R + shift depends on that axis's offset alone, so
        strand_distance assembles an image's boxes only for the images it
        keeps, and forms an edge's image as R[rows] + shift when needed,
        the same sum the boxes were taken over.
        """
        metric = self.metric
        torus = metric.kind == "torus"
        offsets = metric.L * np.arange(-2.0, 3.0) if torus else np.zeros(1)
        strands = []
        for loop, disp in zip(self.loops, self._edges):
            R = _remainder(loop, metric.L) if torus else loop
            lo, hi = _block_boxes(R[None] + offsets[:, None, None], disp)  # (offset, block, axis)
            strands.append(_StrandBoxes(
                R, disp, _block_index(R.shape[0]), lo, hi, lo.min(axis=1), hi.max(axis=1),
            ))
        return offsets, offsets.size // 2, tuple(strands)

    @property
    def k(self) -> int:
        return len(self.loops)

    def _index(self, label) -> int:
        """Position of strand `label` in loops; raises unless it is an integer in 1..k."""
        if not (whole_number(label) and 1 <= label <= self.k):
            raise UmkehrError(f"strand label must be an integer in 1..{self.k}, got {label!r}")
        return int(label) - 1

    def m(self, label: int) -> int:
        return self.loops[self._index(label)].shape[0]

    def params(self, label: int) -> np.ndarray:
        m = self.m(label)
        return TWO_PI * np.arange(m) / m

    def points_at(self, label: int, s) -> np.ndarray:
        """Strand points at angular parameters s (vectorized)."""
        idx = self._index(label)
        loop = self.loops[idx]
        disp = self._edges[idx]
        m = loop.shape[0]
        u = np.mod(np.asarray(s, dtype=float), TWO_PI) / (TWO_PI / m)
        j = np.floor(u).astype(int) % m
        frac = u - np.floor(u)
        return loop[j] + frac[..., None] * disp[j]

    def to_json(self) -> dict:
        return {
            "metric": self.metric.to_json(),
            "loops": [loop.tolist() for loop in self.loops],
        }


def embedding_from_json(doc: object) -> DiscreteEmbedding:
    if not isinstance(doc, dict):
        raise UmkehrError("strand document must be an object")
    if "metric" not in doc or "loops" not in doc:
        raise UmkehrError("strand document needs 'metric' and 'loops'")
    metric = metric_from_json(doc["metric"])
    loops = doc["loops"]
    if not isinstance(loops, list) or not loops:
        raise UmkehrError("'loops' must be a nonempty list of vertex lists")
    return DiscreteEmbedding(metric, tuple(loops))


def strand_distance(gamma: DiscreteEmbedding, i: int, j: int, within: float = INF) -> float:
    """Minimum distance between strands i and j over all edge pairs, exact up to `within`.

    Returns the exact all-pairs minimum whenever that minimum is at most
    `within`, and otherwise some value above `within` (INF when no box
    comes within it).  The default bound is infinite, so the minimum is
    then always exact.  i and j must be different labels in 1..k.

    On the torus both strands' vertices are reduced into [0, L)^d and
    strand j is compared in every image shifted by n*L, n in {-2,...,2}^d.
    That set is complete: edge components lie in [-L/2, L/2], so reduced
    segment points lie in [-L/2, 3L/2], any difference of two of them in
    [-2L, 2L], and the image nearest to it is one of those shifts.

    The search (blocks._nearest_edges) reads the embedding's box index
    (DiscreteEmbedding._boxes): per axis offset of each strand, one box per block of _BLOCK edges and
    one around the whole strand.  The candidate images of j are the
    product, in lexicographic order, of the offsets on each axis whose
    interval lies within `within` of strand i's (no box is nearer than it
    is on one axis), so the default infinite bound takes all 5^d torus
    images.  It drops the candidates whose whole box lies farther than
    `within` from strand i's, then the blocks of either strand farther
    than `within` from the other's whole boxes, then the block box pairs
    farther than `within`.  The box pairs left are visited in
    ascending box distance until the next is no closer than the best edge
    pair so far.  Inside them, edge pairs whose own boxes lie beyond that
    bound are skipped; the rest go through the same row-wise kernel as an
    all-pairs scan (geom.segment_closest).

    No prune can lose the minimum: a box's distance never exceeds the
    computed distance of an edge pair inside it, because each box spans
    the rounded edge ends the kernel's closest points lie between, rounding
    is monotone, and box and edge-pair distances take the same norm.  So
    every edge pair attaining a minimum at most `within` survives, and the
    visit order only decides when the search stops.
    """
    if math.isnan(within):
        raise UmkehrError("strand_distance bound must not be nan")
    a = gamma._index(i)
    b = gamma._index(j)
    if a == b:
        raise UmkehrError(f"strand_distance needs two different strands, got {i} and {j}")
    offsets, zero, strands = gamma._boxes
    return _nearest_edges(strands[a], strands[b], offsets, zero, gamma.metric.d, within)


# ---------------------------------------------------------------------------
# Tube clearance and the scaling factor.


def _require_tol(tol) -> None:
    if not (finite_real(tol) and tol > 0.0):
        raise UmkehrError(f"tol must be a positive finite number, got {tol!r}")


def _require_density(density) -> None:
    if not (whole_number(density) and density >= 2):
        raise UmkehrError(f"density must be an integer >= 2, got {density!r}")


@dataclass(frozen=True)
class UmkehrConfig:
    """Evaluation knobs.

    eta is the parameter exclusion radius (radians) around each geodesic
    endpoint on its own strand; None means ETA_STEPS vertex steps per
    strand, as eta_radians spells out.  density is validated and echoed in
    to_json but not read: the caller thickens the diagram at its own
    density.  There is no tolerance here: umkehr evaluates at the
    tolerance its thickened diagram was built with.  to_json also echoes
    the fixed policy: eta_steps is ETA_STEPS, and sup_scope 'component'
    says a collapse is decided per diagram component.
    """

    epsilon: float
    t_homotopy: float = 0.0
    density: int = 8
    eta: float | None = None
    mapping: bool = False

    def __post_init__(self):
        if not (finite_real(self.epsilon) and self.epsilon > 0.0):
            raise UmkehrError(f"epsilon must be a positive finite number, got {self.epsilon!r}")
        if not (finite_real(self.t_homotopy) and 0.0 <= self.t_homotopy <= 1.0):
            raise UmkehrError(f"t_homotopy must lie in [0, 1], got {self.t_homotopy!r}")
        _require_density(self.density)
        if self.eta is not None and not (finite_real(self.eta) and self.eta >= 0.0):
            raise UmkehrError(f"eta must be a finite number >= 0, got {self.eta!r}")
        if not isinstance(self.mapping, (bool, np.bool_)):
            raise UmkehrError(f"mapping must be a bool, got {self.mapping!r}")
        object.__setattr__(self, "mapping", bool(self.mapping))

    def eta_radians(self, gamma: DiscreteEmbedding) -> list:
        """The exclusion radius of each strand of gamma, in label order."""
        if self.eta is not None:
            return [self.eta] * gamma.k
        return [ETA_STEPS * TWO_PI / gamma.m(i) for i in range(1, gamma.k + 1)]

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "t_homotopy": self.t_homotopy,
            "density": self.density,
            "eta": self.eta,
            "eta_steps": ETA_STEPS,
            "sup_scope": "component",
            "mapping": self.mapping,
        }


_CLEARANCE_ROWS = 1 << 12  # (query, vertex) entries per chunk of the clearance block


def _not_in_range(values, lo: int, hi: int) -> list:
    """The entries of values that are not integers in lo..hi, in order.

    An array is judged by its dtype, so every entry of a bool or float
    array fails.  Nested lists are judged entry by entry, before numpy
    could read True as 1 or 1.0 as an integer beside the others.
    """
    if isinstance(values, np.ndarray):
        flat = values.ravel()
        return (flat if flat.dtype.kind not in "iu" else flat[(flat < lo) | (flat > hi)]).tolist()
    flat = np.asarray(values, dtype=object).ravel().tolist()
    return [v for v in flat if not (whole_number(v) and lo <= v <= hi)]


def clearance(gamma: DiscreteEmbedding, g: Geodesic, rows, cfg: UmkehrConfig,
              ex_labels, ex_params, tol: float = TOL) -> np.ndarray:
    """Least scaled depth of any strand vertex inside the tube around each queried row of g.

    g is a stack of geodesics as geodesic returns it; rows holds the n
    integer rows to query, each of positive squared length.  ex_labels
    and ex_params are (n, e) arrays: query q drops, for each of its e
    excluded (label, param) points, the vertices of strand label within
    that strand's radius in cfg.eta_radians of param.  Returns the (n,)
    array of clearances δ.  A kept vertex within tol (a positive finite
    number; umkehr passes its diagram's) of the geodesic segment gives
    δ = 0.  Otherwise vertices strictly inside the open tube contribute
    their distance-to-radius ratio, and δ is the least ratio below 1, or
    1.0 when no kept vertex enters the tube.

    Work follows the vertices a query can reach.  One bound for all
    queries at once, over the embedding's blocks (DiscreteEmbedding._blocks),
    keeps the (query, block) pairs that _reachable cannot rule out.  The
    kept pairs run in chunks of about _CLEARANCE_ROWS (query, vertex)
    entries, laid out axis-major, (d, _BLOCK, pairs).  The entries the
    exclusions drop (_dropped) are listed once per call and get the
    distance INF; outside 0 < t < 1 the taper is 0, so the ratio there is
    INF too (nan only at distance 0, where δ is 0.0 anyway).  Every dot,
    the projections and the squared distances alike, is geom._rowdot's
    sum of per-axis products added left to right, and an entry's value
    does not depend on its neighbours, so a query's δ is bit for bit the
    same in any stack, any chunk and beside any other query, and the same
    as a scan of every vertex.  Where 0 < t < 1 the distance to the
    segment is the perpendicular distance, so one pass serves both tests.
    """
    _require_tol(tol)
    n = g.length.shape[0]
    if bad := _not_in_range(rows, 0, n - 1):
        raise UmkehrError(f"row must be an integer in 0..{n - 1}, got {bad[0]!r}")
    rows = np.asarray(rows, dtype=np.intp)
    if rows.ndim != 1:
        raise UmkehrError(f"rows must be a 1-D array of row indices, got shape {rows.shape}")
    if bad := _not_in_range(ex_labels, 1, gamma.k):
        raise UmkehrError(f"exclusion label must be an integer in 1..{gamma.k}, got {bad[0]!r}")
    ex_labels = np.asarray(ex_labels, dtype=np.intp)
    try:
        ex_params = np.asarray(ex_params, dtype=float)
    except (TypeError, ValueError):
        raise UmkehrError("exclusion params must be real numbers") from None
    if not np.isfinite(ex_params).all():
        raise UmkehrError("exclusion params must be finite real numbers")
    if ex_labels.ndim != 2 or ex_labels.shape[0] != rows.shape[0] or ex_params.shape != ex_labels.shape:
        raise UmkehrError(f"exclusions must be two ({rows.shape[0]}, e) arrays, one row per "
                          f"queried row, got {ex_labels.shape} and {ex_params.shape}")
    length = g.length[rows]
    ell2 = length * length
    if (short := np.flatnonzero(~(ell2 > 0.0))).size:
        r = int(rows[short[0]])
        raise UmkehrError(f"clearance needs geodesics of positive squared length, "
                          f"row {r} has length {float(g.length[r])!r}")

    blocks = gamma._blocks
    # (d, n), C-ordered so that every gather from them is too.
    a, disp = np.ascontiguousarray(g.a[rows].T), np.ascontiguousarray(g.disp[rows].T)
    visit = np.empty((rows.shape[0], blocks.lo.shape[1]), dtype=bool)
    group = max(1, _CLEARANCE_ROWS // blocks.lo.size)  # queries per bound, so its arrays fit a chunk
    for lo in range(0, rows.shape[0], group):
        part = slice(lo, lo + group)
        visit[part] = _reachable(gamma.metric, blocks, a[:, part], disp[:, part], length[part], ell2[part], tol)
    pairs = np.flatnonzero(visit)  # query * blocks + block, in query order
    pair_q, pair_b = np.divmod(pairs, visit.shape[1])
    # The dropped entries of visited pairs as pair * _BLOCK + place, sorted, and the first of each chunk.
    query, slot = _dropped(cfg.eta_radians(gamma), blocks, ex_labels, ex_params)
    key = query * visit.shape[1] + slot // _BLOCK
    hit = visit.ravel()[key]
    dropped = np.sort(np.searchsorted(pairs, key[hit]) * _BLOCK + slot[hit] % _BLOCK)
    step = max(1, _CLEARANCE_ROWS // _BLOCK)
    cuts = np.searchsorted(dropped, _BLOCK * np.arange(0, pairs.size + step, step)).tolist()
    pair_seg = np.empty(pairs.size)
    pair_min = np.empty(pairs.size)
    with np.errstate(divide="ignore", invalid="ignore"):  # the taper is 0 outside 0 < t < 1
        for chunk, lo in enumerate(range(0, pairs.size, step)):
            q, sel = pair_q[lo : lo + step], slice(lo, lo + step)
            # Axis-major, (d, _BLOCK, pairs): each axis is one contiguous plane,
            # and a pair's values broadcast along whole rows of it.
            w = gamma.metric.wrap(np.take(blocks.cols, pair_b[sel], axis=2) - a[:, None, q])
            D = disp[:, None, q]
            t = _rowdot(w.transpose(1, 2, 0), D.transpose(1, 2, 0)) / ell2[q]
            clamped = np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)
            for axis in range(w.shape[0]):  # w becomes w - D * clamped, plane by plane
                w[axis] -= D[axis] * clamped
            seg = np.sqrt(_rowdot(w.transpose(1, 2, 0), w.transpose(1, 2, 0)))
            if cuts[chunk] < cuts[chunk + 1]:
                pair, place = np.divmod(dropped[cuts[chunk] : cuts[chunk + 1]] - lo * _BLOCK, _BLOCK)
                seg[place, pair] = INF
            pair_seg[sel] = seg.min(axis=0)
            taper = np.abs(clamped - 0.5, out=clamped)  # in place: epsilon * (0.5 - |clamped - 0.5|)
            taper = np.multiply(cfg.epsilon, np.subtract(0.5, taper, out=taper), out=taper)
            pair_min[sel] = np.divide(seg, taper, out=taper).min(axis=0)
    # Per query, over its pairs: 0.0 if some entry lies within tol of the segment, else the least ratio.
    out = np.ones(rows.shape[0])
    if pairs.size:
        starts = np.flatnonzero(np.diff(pair_q, prepend=-1))
        out[pair_q[starts]] = np.where(np.minimum.reduceat(pair_seg, starts) <= tol, 0.0,
                                       np.minimum(np.minimum.reduceat(pair_min, starts), 1.0))
    return out


def scaling(dist, epsilon: float, inf_delta, t: float) -> np.ndarray:
    """dist / (epsilon * ((1-t) * inf_delta + t)) entry by entry; infinite past the tube.

    dist and inf_delta are arrays that broadcast together.  An entry is
    INF where dist > epsilon or its denominator is not positive.
    """
    dist = np.asarray(dist, dtype=float)
    denom = epsilon * ((1.0 - t) * np.asarray(inf_delta, dtype=float) + t)
    past = (dist > epsilon) | (denom <= 0.0)
    out = np.full(np.broadcast_shapes(dist.shape, denom.shape), INF)
    with np.errstate(over="ignore"):  # a quotient past the largest float rounds to INF
        return np.divide(dist, denom, out=out, where=~past)


# ---------------------------------------------------------------------------
# Restriction of strands to their timbers.


@dataclass(frozen=True)
class RestrictedArc:
    """One parameter arc of a strand, with interpolated end points."""

    label: int
    start: float
    end: float
    closed: bool
    points: np.ndarray

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "start": self.start,
            "end": self.end,
            "closed": self.closed,
            "points": self.points.tolist(),
        }


def _require_strands(gamma: DiscreteEmbedding, c) -> None:
    """Raise unless c is a circle cleavage with one strand of gamma per timber."""
    _require_circle(c)
    if gamma.k != c.k:
        raise UmkehrError(f"strand count {gamma.k} != arity {c.k}")


def restrict(gamma: DiscreteEmbedding, c, tol: float = TOL) -> list:
    """Clip each strand to the sphere trace of its own timber.

    Returns one RestrictedArc per trace arc per label, in label order; a
    full-circle trace yields a single closed arc listing every vertex.
    """
    _require_strands(gamma, c)
    _require_tol(tol)
    out = []
    for label in range(1, c.k + 1):
        arcs = c.trace(label).arcs
        params = gamma.params(label)
        if arcs.is_full():
            out.append(
                RestrictedArc(label, 0.0, TWO_PI, True, gamma.loops[label - 1].copy())
            )
            continue
        for s0, s1 in arcs.arcs:
            inside = params[(params > s0 + tol) & (params < s1 - tol)]
            shifted = params + TWO_PI
            inside2 = shifted[(shifted > s0 + tol) & (shifted < s1 - tol)]
            mids = np.sort(np.concatenate([inside, inside2]))
            pts = gamma.points_at(label, np.concatenate([[s0], mids, [s1]]))
            out.append(RestrictedArc(label, float(s0), float(s1), False, pts))
    return out


# ---------------------------------------------------------------------------
# The collapse evaluator.


@dataclass(frozen=True)
class Entry:
    """Scaled tangent datum of one ordered strand pair at one sample."""

    sample: int
    pair: tuple
    scale: float
    tangent: tuple
    src: tuple
    dst: tuple

    def to_json(self) -> dict:
        return {
            "sample": self.sample,
            "pair": list(self.pair),
            "scale": self.scale,
            "tangent": list(self.tangent),
            "from": list(self.src),
            "to": list(self.dst),
        }


@dataclass(frozen=True)
class ComponentValue:
    """Evaluation of one diagram component: finite data or the infinity point."""

    component: int
    status: str
    entries: tuple
    uf_mask: tuple
    boundary: tuple
    collapsed_samples: tuple

    def to_json(self) -> dict:
        return {
            "component": self.component,
            "status": self.status,
            "entries": [e.to_json() for e in self.entries],
            "uf_mask": list(self.uf_mask),
            "boundary": [list(p) for p in self.boundary],
            "collapsed_samples": list(self.collapsed_samples),
        }


@dataclass(frozen=True)
class ThomValue:
    """Full evaluator output: restriction plus one value per component."""

    components: tuple
    restriction: tuple
    config: dict

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "components": [cv.to_json() for cv in self.components],
            "restriction": [arc.to_json() for arc in self.restriction],
        }


def _pair_ends(mask: np.ndarray) -> np.ndarray:
    """Rows (sample, flat index of each end), one per pair of one sample's preimages in mask."""
    flat = np.cumsum(mask).reshape(mask.shape) - 1
    first, second = _pairs(mask.shape[1])
    sample_of, pair = (mask[:, first] & mask[:, second]).nonzero()
    return np.stack([sample_of, flat[sample_of, first[pair]], flat[sample_of, second[pair]]], axis=1)


def umkehr(
    gamma: DiscreteEmbedding,
    c,
    tb: ThickenedBlueprint,
    cfg: UmkehrConfig,
) -> ThomValue:
    """Evaluate the collapse of the strand family on the thickened diagram.

    Per sample, per ordered pair of its stored preimages, the geodesic
    between the two collapsing strand points is scaled by tube clearance;
    a component whose largest scale exceeds 1 + tol collapses to the
    infinity point.  Scales within tol of 1 are flagged as boundary
    pairs but stay finite.  In mapping mode, pairs closer than tol are glued:
    zero vector, scale 0, sample recorded in the uf_mask.  tol is the
    diagram's, tb.blueprint.tol, so the samples, their preimages and the
    evaluation share one tolerance.  c must be the cleavage tb was
    thickened from, or one with the same tree.

    The preimages are read from tb's table, mask and angles.  The
    evaluation is stacked: one geodesic call for every pair, one
    clearance block for every pair inside the tube that is neither glued
    nor at t = 1 (each excluding its own two end points), and one scaling
    call for all of them.
    """
    _require_strands(gamma, c)
    if c is not tb.blueprint.cleavage and c.to_json() != tb.blueprint.cleavage.to_json():
        raise UmkehrError("the cleavage differs from the one the thickened diagram was built from")
    metric, tol = gamma.metric, tb.blueprint.tol
    if metric.kind == "torus" and not cfg.epsilon < metric.L / 4.0:
        raise UmkehrError(
            f"torus evaluation needs epsilon < L/4 = {metric.L / 4.0}, got {cfg.epsilon}"
        )
    if not cfg.mapping:
        for i in range(1, gamma.k + 1):
            for j in range(i + 1, gamma.k + 1):
                d = strand_distance(gamma, i, j, tol)
                if d <= tol:
                    raise SelfIntersecting(
                        f"strands {i} and {j} come within {d:.3e} of each other"
                    )

    restriction = tuple(restrict(gamma, c, tol))

    # Every preimage's strand point, flat in mask.nonzero() order (sample,
    # then label), from one points_at call per label.  Then every (sample,
    # pair) geodesic in one stacked call, pairs in the same order.
    flat_labels, flat_angles = tb.mask.nonzero()[1] + 1, tb.angles[tb.mask]
    flat_points = np.stack([gamma.points_at(label, tb.angles[:, label - 1])
                            for label in range(1, gamma.k + 1)], axis=1)[tb.mask]
    ends = _pair_ends(tb.mask)
    sample_of = ends[:, 0]
    geo = geodesic(metric, flat_points[ends[:, 1]], flat_points[ends[:, 2]], tol)

    # One scale per pair: 0.0 where glued, otherwise the length scaled by
    # the clearance of its tube, INF past the tube.
    glued = (geo.length <= tol) & cfg.mapping
    inf_delta = np.ones(geo.length.shape)
    query = np.flatnonzero(~glued & (geo.length <= cfg.epsilon))
    if cfg.t_homotopy != 1.0 and query.size:
        ex = ends[query, 1:]
        inf_delta[query] = clearance(gamma, geo, query, cfg, flat_labels[ex], flat_angles[ex], tol)
    scale = np.where(glued, 0.0, scaling(geo.length, cfg.epsilon, inf_delta, cfg.t_homotopy))

    # Pool the per-sample suprema by component; components are numbered 0, 1, ...
    comp = tb.components
    sup = np.zeros(comp.shape)
    np.maximum.at(sup, sample_of, scale)
    collapsed = np.bincount(comp, sup > 1.0 + tol)[comp] > 0

    # Entries only for samples left finite; a glued pair keeps +0.0 tangents both ways.
    labels = flat_labels[ends[:, 1:]]
    rows = np.flatnonzero(~collapsed[sample_of])
    hold = glued[rows, None]
    tangent, src = geo.tangent[rows], geo.a[rows]
    row_comp = comp[sample_of]
    cols = (sample_of[rows], row_comp[rows], labels[rows], scale[rows], np.where(hold, 0.0, tangent),
            np.where(hold, 0.0, -tangent), src, np.where(hold, src, src + geo.disp[rows]))
    kept = {cid: [] for cid in sorted(set(comp.tolist()))}
    for idx, cid, (i, j), s_val, tang, neg, a, b in zip(*(col.tolist() for col in cols)):
        a, b = tuple(a), tuple(b)
        kept[cid] += (Entry(idx, (i, j), s_val, tuple(tang), a, b),
                      Entry(idx, (j, i), s_val, tuple(neg), b, a))

    edge = np.isfinite(scale) & (np.abs(scale - 1.0) <= tol)
    components = tuple(
        ComponentValue(
            cid,
            "infinity" if collapsed[comp == cid].all() else "finite",
            tuple(entries),
            tuple(sorted(set(sample_of[glued & (row_comp == cid)].tolist()))),
            tuple(sorted(set(map(tuple, np.sort(labels[edge & (row_comp == cid)], 1).tolist())))),
            tuple(np.flatnonzero(collapsed & (comp == cid)).tolist()),
        )
        for cid, entries in kept.items()
    )

    config = {**cfg.to_json(), "tol": tol, "eta_radians": cfg.eta_radians(gamma)}
    return ThomValue(components, restriction, config)


# ---------------------------------------------------------------------------
# Self-intersection locus.


@dataclass(frozen=True)
class LocusInterval:
    """Maximal parameter interval of near-coincidence on one strand."""

    label: int
    start: float
    end: float

    def to_json(self) -> dict:
        return {"label": self.label, "start": self.start, "end": self.end}


def self_intersection_locus(
    gamma: DiscreteEmbedding,
    bp: Blueprint,
    tol: float = TOL,
    density: int = 2048,
) -> list:
    """Parameter intervals where a strand's image meets a partner strand.

    The cleavage is the diagram's.  For each strand label and each arc of
    the complement of its trace, the arc is sampled on a uniform grid whose
    points land on the diagram by alpha; arc_landings gives each landing
    point's collapse partners and their sphere angles, at the diagram's
    tol, and keeps them on bp, so later calls on the same diagram and
    density (other strands, another tol) reuse them.  A parameter is
    marked when some partner's strand point lies within tol of this
    strand's point.  Consecutive marked parameters merge into maximal
    intervals; isolated marks yield degenerate single-parameter intervals.
    """
    if not isinstance(bp, Blueprint):
        raise UmkehrError(f"bp must be a Blueprint, got {type(bp).__name__}")
    c = bp.cleavage
    _require_strands(gamma, c)
    _require_tol(tol)
    _require_density(density)
    out = []
    for label in range(1, c.k + 1):
        for grid, partners in arc_landings(bp, label, density):
            marked = np.zeros(density, dtype=bool)
            own = gamma.points_at(label, grid)
            for other, sel, partner in partners:
                theirs = gamma.points_at(other, partner)
                diff = gamma.metric.wrap(theirs - own[sel])
                marked[sel] |= np.linalg.norm(diff, axis=1) <= tol
            idxs = np.flatnonzero(marked)
            for run in np.split(idxs, np.flatnonzero(np.diff(idxs) > 1) + 1) if idxs.size else ():
                out.append(LocusInterval(label, float(grid[run[0]]), float(grid[run[-1]])))
    return out
