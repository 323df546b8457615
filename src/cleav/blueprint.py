"""Cut loci of circle cleavages.

The cuts of a validated tree draw a diagram of chords inside the disk: one
maximal segment per internal node, clipped to the region that node
inherits.  This module builds that diagram, groups its pieces into
connected components, collapses outside sphere points onto it, and walks
the collapse backwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from .geom import (
    TOL,
    TWO_PI,
    BoundaryHit,
    _as_stack,
    _face_interval,
    _pairs,
    _rowdot,
    centroid,
    clip,
    finite_real,
    segment_boundary_hit,
    segment_closest,
    whole_number,
)
from .operad import Cleavage


class BlueprintError(ValueError):
    """Bad input to cut-locus analysis."""


class AlphaDomainError(BlueprintError):
    """Query point sits inside the timber's own sphere trace."""


def _require_circle(c: Cleavage) -> None:
    if c.n != 1:
        raise BlueprintError(
            f"cut-locus analysis is implemented for the circle only, got n = {c.n}"
        )


def _require_blueprint(bp) -> None:
    if not isinstance(bp, Blueprint):
        raise BlueprintError(f"bp must be a Blueprint, got {type(bp).__name__}")


@dataclass(frozen=True)
class CutPiece:
    """One row of Blueprint.ends: the cut piece from a to b."""

    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class Blueprint:
    """The full cut diagram of a cleavage.

    ends is the read-only (P, 2, 2) table of the cut pieces, row j holding
    the ends (a, b) of the maximal segment that cleavage.cuts[j] draws
    inside the region its node inherits; the cut holds the row's path and
    plane.  crossings holds one row per pair of pieces within tol of each
    other, pairs (i, j), i < j, in row-major order: the midpoint of their
    closest points, with piece i in the same row of crossing_pieces.
    Timber centroids are computed on first use and kept; so are the
    sampled collapse landings of arc_landings, by label and grid size.
    """

    cleavage: Cleavage
    ends: np.ndarray
    piece_components: tuple[int, ...]
    n_components: int
    crossings: np.ndarray
    crossing_pieces: tuple[int, ...]
    tol: float

    @property
    def pieces(self) -> tuple[CutPiece, ...]:
        """One CutPiece per row of ends, built anew on every access."""
        return tuple(CutPiece(a, b) for a, b in self.ends)

    @cached_property
    def centroids(self) -> tuple[np.ndarray, ...]:
        """Per timber, its centroid from the trace the cleavage carries."""
        return tuple(centroid(trace) for trace in self.cleavage.traces)

    @cached_property
    def _landings(self) -> dict:
        """arc_landings results by (label, density), filled as they are asked for."""
        return {}


def build_blueprint(c: Cleavage, tol: float = TOL) -> Blueprint:
    """Extract the cut pieces, group touching pieces and record where they cross."""
    _require_circle(c)
    if not (finite_real(tol) and tol > 0.0):
        raise BlueprintError(f"tol must be a positive finite number, got {tol!r}")
    rows = []
    for cut in c.cuts:
        with_cut = clip(cut.body, cut.plane, 1)
        interval = _face_interval(with_cut, len(with_cut.constraints) - 1)
        if interval is None:
            raise BlueprintError(f"cut at {cut.path} has no chord inside its region")
        p0, d, lo, hi = interval
        rows.append((p0 + lo * d, p0 + hi * d))

    ends = np.array(rows).reshape(-1, 2, 2)
    ends.setflags(write=False)
    first, second = _pairs(len(ends))
    crossings, touch = np.empty((0, 2)), np.zeros(0, dtype=bool)
    if len(first):
        a, d = ends[:, 0], ends[:, 1] - ends[:, 0]
        _, _, pa, pb = segment_closest(a[first], d[first], a[second], d[second])
        gap = pa - pb
        touch = np.sqrt(_rowdot(gap, gap)) <= tol
        crossings = (pa[touch] + pb[touch]) / 2.0

    parent = list(range(len(ends)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in zip(first[touch].tolist(), second[touch].tolist()):
        parent[find(i)] = find(j)

    comp_ids: dict[int, int] = {}
    components = []
    for i in range(len(ends)):
        root = find(i)
        if root not in comp_ids:
            comp_ids[root] = len(comp_ids)
        components.append(comp_ids[root])

    return Blueprint(c, ends, tuple(components), len(comp_ids), crossings, tuple(first[touch].tolist()), tol)


def blueprint_distance(bp: Blueprint, b) -> np.ndarray:
    """Distance from each row of the (n, 2) stack b to the nearest cut piece.

    inf when there are no pieces.  One (points x pieces) array whose
    entries take the one-pair arithmetic, so row r depends on b[r] alone.
    """
    _require_blueprint(bp)
    p = _as_stack(b, 2)[:, None, :]
    if not len(bp.ends):
        return np.full(len(p), math.inf)
    a, d = bp.ends[:, 0], bp.ends[:, 1] - bp.ends[:, 0]
    dd = _rowdot(d, d)
    with np.errstate(all="ignore"):  # a piece shorter than 1e-9 counts as its first end
        t = np.where(dd > 1e-18, np.minimum(1.0, np.maximum(0.0, _rowdot(p - a, d) / dd)), 0.0)
    off = p - (a + t[..., None] * d)
    return np.sqrt(_rowdot(off, off)).min(axis=1)


def participants(bp: Blueprint, b) -> np.ndarray:
    """Per row of the (n, d) stack b, the labels whose timber holds it on a cut plane.

    The cleavage and the tolerance (bp.tol) come from the diagram.  The
    result is an (n, k) bool array, column label - 1 marking that label,
    and row r depends on b[r] alone.
    """
    _require_blueprint(bp)
    c, tol = bp.cleavage, bp.tol
    b = _as_stack(b, c.timber(1).dim)
    inside = np.sqrt(_rowdot(b, b)) <= 1.0 + tol
    mask = np.empty((b.shape[0], c.k), dtype=bool)
    for label in range(1, c.k + 1):
        margins = c.timber(label)._margins(b)
        mask[:, label - 1] = (
            inside & (margins >= -tol).all(axis=0) & (np.abs(margins) <= tol).any(axis=0)
        )
    return mask


def alpha(bp: Blueprint, i: int, s) -> BoundaryHit:
    """Project the circle points s, an (n, 2) stack, onto timber i along the rays to its centroid.

    The timber, its centroid (bp.centroids[i - 1]) and the tolerance
    (bp.tol) come from the diagram.  Every row must lie on the circle and
    outside the sphere trace of timber i (within bp.tol); the error names
    the first row that fails its check.  A row lands at the first boundary
    crossing of the segment from it to the centroid; for admissible rows
    that crossing is on a cut plane, with the corner flag raised when
    several faces tie.  Row r of the stacked hit depends on s[r] alone,
    bit for bit.
    """
    _require_blueprint(bp)
    c, tol = bp.cleavage, bp.tol
    if not (whole_number(i) and 1 <= i <= c.k):
        raise BlueprintError(f"label must be an integer in 1..{c.k}, got {i!r}")
    s = _as_stack(s, 2)
    nrm = np.sqrt(_rowdot(s, s))
    bad = np.abs(nrm - 1.0) > 1e-6
    if bad.any():
        nrm = float(nrm[bad.argmax()])
        raise AlphaDomainError(f"query point has norm {nrm!r}, expected a circle point")
    s = s / nrm[:, None]
    # np.arctan2 can round unlike math.atan2 in the last bit, moving the
    # distance by a few ulps: rows that close to tol are settled by math.atan2.
    outside = c.trace(i).arcs.complement()
    dist = outside.distance(np.arctan2(s[:, 1], s[:, 0]))
    near = (np.abs(dist - tol) <= 1e-12).nonzero()[0]
    if near.size:
        dist[near] = outside.distance([math.atan2(y, x) for x, y in s[near].tolist()])
    if (dist > tol).any():
        x, y = s[(dist > tol).argmax()]
        raise AlphaDomainError(
            f"angle {math.atan2(y, x):.9f} lies inside the sphere trace of timber {i}"
        )
    return segment_boundary_hit(c.timber(i), s, bp.centroids[i - 1], tol)


def _exit_points(ci: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unit vectors where the rays from ci through the rows of b leave the circle."""
    d = b - ci
    qa = _rowdot(d, d)
    qb = 2.0 * _rowdot(ci, d)
    qc = _rowdot(ci, ci) - 1.0
    u = (-qb + np.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)
    s = ci + u[:, None] * d
    return s / np.sqrt(_rowdot(s, s))[:, None]


def _exit_angles(points: np.ndarray) -> np.ndarray:
    """Angles in [0, 2*pi) of the rows of an (n, 2) stack, math.atan2 per row.

    math.atan2 rounds the same on every CPU, where np.arctan2 may take a
    SIMD kernel that differs in the last bit.
    """
    return np.array([math.atan2(y, x) % TWO_PI for x, y in zip(*points.T.tolist())])


def alpha_preimage(bp: Blueprint, b) -> tuple[np.ndarray, np.ndarray]:
    """All sphere points collapsing to the diagram points b, an (n, 2) stack, by timber label.

    For each participating timber the preimage is where the ray from its
    centroid (bp.centroids) through the point exits the circle.  Returns
    (mask, points): mask the (n, k) participants of b, and
    points[r, label - 1] that label's sphere point for row r (zeros where
    the mask is off), so row r depends on b[r] alone, bit for bit.  Raises
    when a row is not on the diagram within bp.tol, the tolerance
    participants are found at too, naming the first such row's distance.
    """
    _require_blueprint(bp)
    tol = bp.tol
    b = _as_stack(b, 2)
    dist = blueprint_distance(bp, b)
    if not (dist <= tol).all():
        dist = dist[(~(dist <= tol)).argmax()]
        raise BlueprintError(f"b not on blueprint: nearest piece at distance {dist:.3e}")
    mask = participants(bp, b)
    points = np.zeros(mask.shape + (2,))
    for col in mask.any(axis=0).nonzero()[0].tolist():
        ci = bp.centroids[col]
        rows = mask[:, col].nonzero()[0]
        d = b[rows] - ci
        if (_rowdot(d, d) <= 1e-30).any():
            raise BlueprintError(f"b coincides with the centroid of timber {col + 1}")
        points[rows, col] = _exit_points(ci, b[rows])
    return mask, points


def arc_landings(bp: Blueprint, label: int, density: int) -> tuple:
    """The collapse of timber label's outside, sampled per arc; kept on bp.

    One (grid, partners) per arc of the complement of the label's trace:
    grid holds density angles along the arc, whose circle points land on
    the diagram by alpha, and partners one (other, rows, angles) per other
    label that one stacked alpha_preimage of the landings finds: a bool
    mask over the grid and, for those rows, the angles in [0, 2*pi) of
    their preimages on timber other.  Computed once per (label, density)
    and kept on bp, as its centroids are; the arrays are read-only.
    """
    key = (label, density)
    if key not in bp._landings:
        arcs = []
        for s0, s1 in bp.cleavage.trace(label).arcs.complement().arcs:
            grid = np.linspace(s0, s1, density)
            circle = np.stack([np.cos(grid), np.sin(grid)], axis=1)
            mask, exits = alpha_preimage(bp, alpha(bp, label, circle).point)
            partners = []
            for other in range(1, bp.cleavage.k + 1):
                rows = mask[:, other - 1]
                if other == label or not rows.any():
                    continue
                angles = _exit_angles(exits[rows, other - 1])
                rows.setflags(write=False)
                angles.setflags(write=False)
                partners.append((other, rows, angles))
            grid.setflags(write=False)
            arcs.append((grid, tuple(partners)))
        bp._landings[key] = tuple(arcs)
    return bp._landings[key]


@dataclass(frozen=True)
class BlueprintSample:
    """One sample of a ThickenedBlueprint: a diagram point with its collapse preimages.

    preimages holds one (label, angle) pair per participating timber,
    sorted by label, the angle in [0, 2*pi) being where the ray from that
    timber's centroid through the point exits the circle.  Participants
    derive from it.
    """

    point: np.ndarray
    component: int
    preimages: tuple[tuple[int, float], ...]

    @property
    def participants(self) -> tuple[int, ...]:
        return tuple(label for label, _ in self.preimages)


@dataclass(frozen=True)
class ThickenedBlueprint:
    """The thickened diagram's samples and their preimage table, in read-only arrays.

    points is the (S, 2) stack of samples, components their (S,) component
    ids and mask their (S, k) participants, as alpha_preimage returns them.
    angles[r, label - 1] is the angle in [0, 2*pi) where the ray from that
    timber's centroid through sample r exits the circle, 0.0 where the
    mask is off.
    """

    blueprint: Blueprint
    points: np.ndarray
    components: np.ndarray
    mask: np.ndarray
    angles: np.ndarray

    @property
    def samples(self) -> tuple[BlueprintSample, ...]:
        """One BlueprintSample per row of the table, built anew on every access."""
        labels = range(1, self.mask.shape[1] + 1)
        return tuple(
            BlueprintSample(point, component, tuple(zip(compress(labels, row), compress(angles, row))))
            for point, component, row, angles in zip(
                self.points, self.components.tolist(), self.mask.tolist(), self.angles.tolist())
        )


_DEDUP_PAIRS = 1 << 12  # candidate pairs per block of the dedup distance matrix


def _first_kept(points: np.ndarray, tol: float) -> list[int]:
    """Indices of the points kept when each is dropped within tol of one kept before it.

    The distances come from one pairwise matrix, built in row blocks of
    about _DEDUP_PAIRS entries; each entry is the sqrt of the _rowdot of
    the difference with itself, so it rounds as a one-pair distance does.
    A pass in candidate order then keeps a point unless a point kept
    before it lies within tol, so a point dropped as a duplicate never
    drops another.
    """
    n = points.shape[0]
    later: dict[int, list[int]] = {}
    step = max(1, _DEDUP_PAIRS // max(n, 1))
    for lo in range(0, n, step):
        diff = points[lo : lo + step, None, :] - points[None, :, :]
        dist = np.sqrt(_rowdot(diff, diff))
        rows, cols = np.nonzero(dist <= tol)
        rows += lo
        ahead = cols > rows
        for i, j in zip(rows[ahead].tolist(), cols[ahead].tolist()):
            later.setdefault(i, []).append(j)
    kept = []
    dropped = set()
    for i in range(n):
        if i not in dropped:
            kept.append(i)
            dropped.update(later.get(i, ()))
    return kept


def thicken(bp: Blueprint, density: int = 8) -> ThickenedBlueprint:
    """Sample every piece uniformly plus all pairwise crossing points.

    bp is the diagram, whose tol governs the whole thickening: a cleavage
    c is thickened as thicken(build_blueprint(c)).  density, an integer
    >= 2, counts samples per piece including both endpoints.  Candidates
    come piece by piece, then the crossings the blueprint recorded; a
    candidate within tol of an earlier kept one (shared endpoints,
    crossings) is dropped, first kept wins, so the samples keep candidate
    order.  One stacked alpha_preimage call over the kept samples fills
    the table's mask and exit angles.
    """
    _require_blueprint(bp)
    if not (whole_number(density) and density >= 2):
        raise BlueprintError(f"density must be an integer >= 2, got {density!r}")
    steps = np.linspace(0.0, 1.0, density)[:, None]
    a, b = bp.ends[:, None, 0], bp.ends[:, None, 1]
    points = np.concatenate([(a + steps * (b - a)).reshape(-1, 2), bp.crossings])
    owners = np.concatenate([np.repeat(np.arange(len(bp.ends)), density),
                             np.array(bp.crossing_pieces, dtype=int)])

    kept = _first_kept(points, bp.tol)
    points = points[kept]
    mask, exits = alpha_preimage(bp, points)
    angles = np.zeros(mask.shape)
    angles[mask] = _exit_angles(exits[mask])
    components = np.array(bp.piece_components, dtype=int)[owners[kept]]
    for table in (points, components, mask, angles):
        table.setflags(write=False)
    return ThickenedBlueprint(bp, points, components, mask, angles)


def stable_degree(bp: Blueprint, dim_m: int) -> tuple[int, int]:
    """Degree pair (loop components, interval components) scaled by dim_m, an integer >= 1."""
    _require_blueprint(bp)
    if not (whole_number(dim_m) and dim_m >= 1):
        raise BlueprintError(f"manifold dimension must be an integer >= 1, got {dim_m!r}")
    g = bp.n_components
    return dim_m * g, dim_m * (bp.cleavage.k - 1 - g)


def export_obj(bp: Blueprint) -> str:
    """Wavefront OBJ with one polyline per timber face and per cut piece.

    A timber's faces are its constraints whose chord inside it is longer
    than bp.tol.
    """
    _require_blueprint(bp)
    lines = ["# cleavage diagram export"]
    verts: list[str] = []
    elems: list[str] = []

    def add_segment(a, b, tag: str) -> None:
        base = len(verts)
        verts.append(f"v {a[0]:.17g} {a[1]:.17g} 0")
        verts.append(f"v {b[0]:.17g} {b[1]:.17g} 0")
        elems.append(f"# {tag}")
        elems.append(f"l {base + 1} {base + 2}")

    for label, trace in enumerate(bp.cleavage.traces, start=1):
        for j in range(len(trace.body.constraints)):
            interval = _face_interval(trace.body, j)
            if interval is None or interval[3] - interval[2] <= bp.tol:
                continue
            p0, d, lo, hi = interval
            add_segment(p0 + lo * d, p0 + hi * d, f"timber {label} face {j}")
    for cut, (a, b), comp in zip(bp.cleavage.cuts, bp.ends, bp.piece_components):
        add_segment(a, b, f"cut {cut.path} component {comp}")
    return "\n".join(lines + verts + elems) + "\n"
