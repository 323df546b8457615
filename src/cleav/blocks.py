"""Strands by block of consecutive vertices, and the boxes that let a search skip whole blocks.

Every strand is cut into blocks of _BLOCK consecutive vertices or edges
(_block_index; a last, short block repeats its final entry), and each
block is bounded by its box.  The strand precheck (umkehr.strand_distance)
skips the block pairs whose boxes lie too far apart, and tube clearance
(umkehr.clearance) skips the blocks whose boxes cannot project into a
query's segment.  Both bounds are proven on the rounded arithmetic of
the exact computation they stand for, so neither moves a result bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .geom import TWO_PI, segment_closest

INF = math.inf

_BLOCK = 32  # vertices or edges per block
_BATCH = 8  # box pairs per exact-distance batch


class _StrandBoxes(NamedTuple):
    """One strand in the precheck index; boxes are per axis offset, then per block."""

    R: np.ndarray  # (m, d) vertices, reduced mod L on the torus
    disp: np.ndarray  # (m, d) edge displacements
    idx: np.ndarray  # (blocks, _BLOCK) edge indices
    lo: np.ndarray  # (offsets, blocks, d) block box corners
    hi: np.ndarray
    whole_lo: np.ndarray  # (offsets, d) whole-strand box corners
    whole_hi: np.ndarray


class _VertexBlocks(NamedTuple):
    """Every strand's vertices by block, the index clearance reads (DiscreteEmbedding._blocks).

    A slot is a position in the flat run of all blocks' _BLOCK entries, so
    slot // _BLOCK is its block and slot % _BLOCK its place in the block.
    """

    cols: np.ndarray  # (d, _BLOCK, blocks) vertex coordinates, axis-major
    lo: np.ndarray  # (d, blocks) box corners
    hi: np.ndarray
    m: np.ndarray  # (k,) vertices per strand
    first: np.ndarray  # (k,) slot of each strand's vertex 0
    pad: np.ndarray  # slots repeating their strand's last vertex


def _block_index(m: int) -> np.ndarray:
    """Indices 0..m-1 of vertices or edges by block of _BLOCK; a last, short block repeats m - 1."""
    blocks = -(-m // _BLOCK)
    return np.minimum(np.arange(blocks * _BLOCK).reshape(blocks, _BLOCK), m - 1)


def _block_boxes(P, D):
    """Lower and upper corners of the box around each block of edges P + s*D."""
    Q = P + D
    starts = np.arange(0, P.shape[-2], _BLOCK)
    return (
        np.minimum.reduceat(np.minimum(P, Q), starts, axis=-2),
        np.maximum.reduceat(np.maximum(P, Q), starts, axis=-2),
    )


def _box_distance(lo1, hi1, lo2, hi2) -> np.ndarray:
    """Euclidean distance between boxes, broadcast over leading axes."""
    return np.linalg.norm(np.maximum(np.maximum(lo2 - hi1, lo1 - hi2), 0.0), axis=-1)


def _vertex_blocks(loops) -> _VertexBlocks:
    """The _VertexBlocks of closed strands with the vertex arrays loops, in label order."""
    m = np.array([loop.shape[0] for loop in loops])
    index = [_block_index(size) + start for size, start in zip(m.tolist(), (np.cumsum(m) - m).tolist())]
    first = _BLOCK * np.cumsum([0] + [idx.shape[0] for idx in index[:-1]])
    cols = np.take(np.concatenate(loops).T.copy(), np.concatenate(index).T, axis=1)
    pad = np.concatenate([np.arange(f + size, f + idx.size) for f, size, idx in zip(first, m, index)])
    return _VertexBlocks(cols, cols.min(axis=1), cols.max(axis=1), m, first, pad)


def _nearest_edges(A: _StrandBoxes, B: _StrandBoxes, offsets, zero: int, d: int, within: float) -> float:
    """strand_distance's search: the least edge-pair distance between strands A and B, exact up to within.

    offsets and zero are DiscreteEmbedding._boxes's image offsets and the
    position of 0.0 among them; B is compared in every image that the
    boxes cannot rule out, as strand_distance describes.
    """
    lo_a, hi_a, whole_a = A.lo[zero], A.hi[zero], (A.whole_lo[zero], A.whole_hi[zero])
    # Offsets of j near strand i per axis, the images of j they make near strand i,
    # their blocks near strand i, and blocks of i near those images.
    axes = np.arange(d)
    near = _box_distance(*(w[:, None] for w in whole_a), B.whole_lo[..., None], B.whole_hi[..., None])
    grid = np.array(list(itertools.product(*map(np.flatnonzero, (near <= within).T))), int)
    grid = grid.reshape(-1, axes.size)
    grid = grid[_box_distance(*whole_a, B.whole_lo[grid, axes], B.whole_hi[grid, axes]) <= within]
    if grid.shape[0] == 0:
        return INF
    blocks = np.arange(B.lo.shape[1])[:, None]
    lo_b, hi_b = B.lo[grid[:, None], blocks, axes], B.hi[grid[:, None], blocks, axes]
    img, blk_b = np.nonzero(_box_distance(*whole_a, lo_b, hi_b) <= within)
    near_a = _box_distance(lo_a[:, None], hi_a[:, None], B.whole_lo[grid, axes], B.whole_hi[grid, axes])
    blk_a = np.flatnonzero((near_a <= within).any(axis=1))
    if blk_a.size == 0 or blk_b.size == 0:
        return INF
    # (block of i, image and block of j)
    box = _box_distance(lo_a[blk_a, None], hi_a[blk_a, None], lo_b[img, blk_b], hi_b[img, blk_b])

    def nearest(sel, bound: float) -> float:
        """Least distance over the edge pairs of box pairs sel whose own boxes are within bound."""
        row, col = np.divmod(sel, box.shape[1])
        ea, eb = A.idx[blk_a[row]], B.idx[blk_b[col]]  # (box pairs, _BLOCK) edges of each side
        P1, P2 = A.R[ea], B.R[eb] + offsets[grid[img[col]]][:, None]
        Q1, Q2 = P1 + A.disp[ea], P2 + B.disp[eb]
        lo1, hi1 = np.minimum(P1, Q1)[:, :, None], np.maximum(P1, Q1)[:, :, None]
        lo2, hi2 = np.minimum(P2, Q2)[:, None], np.maximum(P2, Q2)[:, None]
        q, r, c = np.nonzero(_box_distance(lo1, hi1, lo2, hi2) <= bound)
        if q.size == 0:
            return INF
        _, _, pa, pb = segment_closest(P1[q, r], A.disp[ea[q, r]], P2[q, c], B.disp[eb[q, c]])
        return float(np.linalg.norm(pa - pb, axis=1).min())

    # The closest box pair bounds the answer; only boxes under it get ranked.
    flat = box.ravel()
    start = int(np.argmin(flat))
    if not flat[start] <= within:
        return INF
    best = nearest(np.array([start]), within)
    order = np.flatnonzero((flat < best) & (flat <= within))
    order = order[np.argsort(flat[order], kind="stable")]
    for lo in range(0, order.size, _BATCH):
        sel = order[lo : lo + _BATCH]
        sel = sel[flat[sel] < best]
        if sel.size == 0:
            break
        best = min(best, nearest(sel, min(best, within)))
    return best


def _reachable(metric, blocks: _VertexBlocks, a, D, length, ell2, tol: float) -> np.ndarray:
    """(n, blocks) mask of the (query, block) pairs whose vertices may give a query's δ.

    metric is the embedding's umkehr.FlatMetric; a and D are the (d, n)
    starts and displacements of the queries.  A pair is skipped only
    when, at every vertex of the block, clearance's own arithmetic gives
    t <= 0 or t >= 1 (so the ratio is INF) and a distance to the segment
    above tol (so not 0.0): skipping it cannot change δ.  The proof
    follows the rounded operations.

    - Each axis's wrapped difference w_k of a vertex lies between those of
      the box corners: c - a and the plane's identity are monotone in c,
      and so is the torus wrap within one image of c - a + L/2, [-L, 0),
      [0, L) or [L, 2L).  A box whose corners fall in different images,
      or outside them, is visited whatever its bound.
    - A rounded product w_k*D_k is monotone in w_k and a rounded sum in
      each addend, so the projection p = geom._rowdot(w, D) of every
      vertex lies in [low, high], the same left-to-right sums over the
      corners' smaller and larger products.  t = p / ell2.
    - high < -s gives p < 0, so t <= 0 and the distance is |w| >=
      |p| / |D| up to rounding.  low > ell2*kappa + s gives p > ell2, so
      t >= 1 and the distance is |w - D| >= (p - |D|^2) / |D|, again up
      to rounding.

    s = max(tol, 2**-500) * kappa * length, and kappa = 1 + (d + 2) * 2**-49
    is 1 + 16(d + 2)u for the unit roundoff u.  The relative roundings in
    play (p against the exact dot, the length and ell2 against |D| and
    |D|^2, the computed distance against the exact one, and s and
    ell2*kappa + s themselves) add up to less than 4(d + 3)u, so either
    bound leaves the distance above tol, and p on its side of 0 or of
    ell2.  The floor 2**-500 keeps every quantity compared far above the
    subnormal range, where rounding stops being relative, and a query
    shorter than 2**-500 visits every block.
    """
    lo = blocks.lo[:, None, :] - a[:, :, None]  # (d, n, blocks)
    hi = blocks.hi[:, None, :] - a[:, :, None]
    straddle = False
    if metric.kind == "torus":  # the image of each corner after FlatMetric.wrap's shift by L/2
        L = metric.L
        x_lo, x_hi = lo + 0.5 * L, hi + 0.5 * L
        straddle = ((x_lo < -L) | (x_hi >= 2.0 * L) | ((x_lo < 0.0) != (x_hi < 0.0))
                    | ((x_lo < L) != (x_hi < L))).any(axis=0)
    lo, hi = metric.wrap(lo) * D[:, :, None], metric.wrap(hi) * D[:, :, None]
    low = functools.reduce(np.add, np.minimum(lo, hi))
    high = functools.reduce(np.add, np.maximum(lo, hi))
    kappa = 1.0 + (D.shape[0] + 2) * 2.0 ** -49
    s = np.where(length >= 2.0 ** -500, max(tol, 2.0 ** -500) * kappa * length, INF)[:, None]
    return straddle | ((high >= -s) & (low <= ell2[:, None] * kappa + s))


def _dropped(etas: list, blocks: _VertexBlocks, ex_labels: np.ndarray, ex_params: np.ndarray) -> tuple:
    """(queries, slots) of the (query, vertex) entries the exclusions drop.

    etas holds each strand's exclusion radius, as UmkehrConfig.eta_radians
    gives them.  Query q's exclusion (l, c) drops vertex j of strand l
    when min(gap, 2*pi - gap) > eta fails, for gap = |params[j] - c mod
    2*pi| and strand l's eta: the exact test, rounded as
    DiscreteEmbedding.params rounds.  It runs on a window of ceil(eta/h) +
    2 vertices on each side of the vertex below the centre, h = 2*pi/m,
    which holds every vertex the test can drop; eta is capped at pi, the
    largest gap, so no window overflows, and a window past m/2 wraps
    round the whole strand.  Every padding slot of _VertexBlocks is
    dropped for every query as well: it repeats a vertex of its own
    block, so it gives δ nothing, and it must not keep a copy of a
    dropped vertex.
    """
    n = ex_labels.shape[0]
    reach = 2 + max(math.ceil(min(eta, math.pi) * m / TWO_PI) for eta, m in zip(etas, blocks.m.tolist()))
    strand = ex_labels - 1
    m = blocks.m[strand][..., None]
    centre = np.mod(ex_params, TWO_PI)[..., None]
    j = (np.floor(centre * m / TWO_PI).astype(np.intp) + np.arange(-reach, reach + 1)) % m
    gap = np.abs(TWO_PI * j / m - centre)
    drop = np.minimum(gap, TWO_PI - gap) <= np.asarray(etas)[strand][..., None]
    q, e, _ = drop.nonzero()
    slot = blocks.first[strand[q, e]] + j[drop]
    if blocks.pad.size:
        q = np.concatenate([q, np.repeat(np.arange(n), blocks.pad.size)])
        slot = np.concatenate([slot, np.tile(blocks.pad, n)])
    return q, slot
