"""References the tests compare the package with.

The references in the test modules take every dot product here, so they
share no arithmetic with geom._rowdot and none with BLAS: each product is
rounded to a float, then the products are added left to right, which is
the rounding the package promises for every dot.  The plane, arc,
cleavage, permutation and one-pair collapse helpers below are ones the
package itself does not need, or the code a faster kernel of the package
replaced; one_query_clearance keeps that code's geom._rowdot dots,
object_thicken and pair_ends keep the per-sample object loops that the
preimage table of blueprint.ThickenedBlueprint replaced, and
reference_faces keeps the timber face rule that blueprint.export_obj
writes out.
"""

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from cleav import blueprint as bp_mod
from cleav import geom, operad
from cleav import umkehr as um


def ref_dot(x, y):
    """x[..., 0]*y[..., 0] + x[..., 1]*y[..., 1] + ..., in Python floats.

    x and y broadcast against each other.  Two vectors give a float, and
    stacks give an array of their leading shape.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    d = x.shape[-1]
    total = None
    for xs, ys in zip(x.reshape(-1, d).T.tolist(), y.reshape(-1, d).T.tolist()):
        products = list(map(operator.mul, xs, ys))
        total = products if total is None else list(map(operator.add, total, products))
    if x.ndim == 1:
        return total[0]
    return np.array(total, dtype=float).reshape(x.shape[:-1])


def ref_norm(x):
    """Euclidean length over the last axis: the square root of ref_dot(x, x)."""
    sq = ref_dot(x, x)
    return math.sqrt(sq) if isinstance(sq, float) else np.sqrt(sq)


def signed_eval(h: geom.OrientedHyperplane, x) -> float:
    """<normal, x> - offset; positive on the normal side."""
    return ref_dot(h.normal, geom._as_vector(x, h.dim)) - h.offset


def centroid_mc(body: geom.ConvexBody, samples: int, seed: int):
    """Monte Carlo centroid estimate: (point, per-coordinate standard error).

    Draws uniform points in the unit ball and averages those the body
    keeps; fewer than 10 kept draws raise EmptyBodyError.
    """
    rng = np.random.default_rng(seed)
    d = body.dim
    pts = rng.normal(size=(samples, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= (rng.random(samples) ** (1.0 / d))[:, None]
    hits = pts[(body._margins(pts) >= 0.0).all(axis=0)]
    if len(hits) < 10:
        raise geom.EmptyBodyError("Monte Carlo centroid: body acceptance rate too low")
    return hits.mean(axis=0), hits.std(axis=0, ddof=1) / math.sqrt(len(hits))


def ref_wrap(metric: um.FlatMetric, delta):
    """mod(delta + L/2, L) - L/2 on the torus, delta in the plane: the reference for FlatMetric.wrap."""
    delta = np.asarray(delta, dtype=float)
    if metric.kind == "euclidean":
        return delta
    return np.mod(delta + 0.5 * metric.L, metric.L) - 0.5 * metric.L


def one_pair_geodesic(metric: um.FlatMetric, a, b, tol: float = geom.TOL) -> um.Geodesic:
    """The geodesic from the point a to the point b, as a 1-row stack.

    The reference for a row of umkehr.geodesic: one pair at a time, with a
    pure-Python length, raising the NonUniqueGeodesic it raises for a tie.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    disp = ref_wrap(metric, b - a)
    if metric.ties(disp, tol):
        raise um.NonUniqueGeodesic(
            f"displacement {(b - a).tolist()} sits half a period away on some axis")
    length = ref_norm(disp)
    tangent = disp / length if length > 0.0 else np.zeros(metric.d)
    return um.Geodesic(a[None], b[None], np.array([length]), tangent[None], disp[None])


def scalar_scaling(dist: float, epsilon: float, inf_delta: float, t: float) -> float:
    """dist / (epsilon * ((1-t) * inf_delta + t)) for one pair; the reference for umkehr.scaling."""
    if dist > epsilon:
        return math.inf
    denom = epsilon * ((1.0 - t) * inf_delta + t)
    if denom <= 0.0:
        return math.inf
    return dist / denom


def object_thicken(bp: bp_mod.Blueprint, density: int) -> tuple:
    """thicken's samples built one BlueprintSample at a time, from Python tuples.

    The object loop that thicken's preimage table replaced: owners as a
    list, component ids looked up per sample, and the (label, exit angle)
    pairs dealt out to the samples in mask.nonzero() order.
    """
    steps = np.linspace(0.0, 1.0, density)[:, None]
    points = np.concatenate(
        [piece.a + steps * (piece.b - piece.a) for piece in bp.pieces] + [bp.crossings])
    owners = [idx for idx in range(len(bp.pieces)) for _ in range(density)]
    owners += bp.crossing_pieces
    kept = bp_mod._first_kept(points, bp.tol)
    points = points[kept]
    mask, exits = bp_mod.alpha_preimage(bp, points)
    rows, cols = mask.nonzero()
    pairs = zip((cols + 1).tolist(), bp_mod._exit_angles(exits[rows, cols]).tolist())
    samples = []
    for idx, point, count in zip(kept, points, mask.sum(axis=1).tolist()):
        preimages = tuple(itertools.islice(pairs, count))
        samples.append(bp_mod.BlueprintSample(point, bp.piece_components[owners[idx]], preimages))
    return tuple(samples)


def reference_faces(c: operad.Cleavage, tol: float) -> tuple:
    """Per timber of c, one (constraint index, a, b) per face, the reference for export_obj.

    A face is a constraint whose chord inside the timber, from a to b, is
    longer than tol.
    """
    faces = []
    for label in range(1, c.k + 1):
        body = c.timber(label)
        rows = []
        for j in range(len(body.constraints)):
            interval = geom._face_interval(body, j)
            if interval is None or interval[3] - interval[2] <= tol:
                continue
            p0, d, lo, hi = interval
            rows.append((j, p0 + lo * d, p0 + hi * d))
        faces.append(tuple(rows))
    return tuple(faces)


def pair_ends(samples) -> np.ndarray:
    """One row (sample, flat index of each end) per pair of a sample's preimages.

    The per-sample loop that umkehr's pairs over the preimage table
    replaced: the preimages flat in sample order, and each sample's pairs
    in itertools.combinations order.
    """
    pairs = []
    start = 0
    for idx, sample in enumerate(samples):
        n = len(sample.preimages)
        pairs.extend((idx, start + a, start + b) for a, b in itertools.combinations(range(n), 2))
        start += n
    return np.array(pairs, dtype=int).reshape(-1, 3)


@dataclass(frozen=True)
class ClearanceWitness:
    """The strand vertex realizing the clearance infimum."""

    label: int
    param: float
    delta: float
    point: np.ndarray


def one_query_clearance(gamma: um.DiscreteEmbedding, g: um.Geodesic, r: int, cfg: um.UmkehrConfig,
                        exclude=(), tol: float = geom.TOL):
    """(delta, witness) of the tube around row r of g, one query at a time.

    The per-query kernel the stacked umkehr.clearance replaced, kept as
    the reference for its bits, with the witness it returned: one pass
    over the flat vertex table, all strands in label order.  Each excluded
    (label, param) point drops the vertices of its own strand within
    parameter radius eta of it; the kept rows are gathered once.  A kept
    vertex within tol of the segment gives (0.0, the first such vertex in
    label order); otherwise the least distance-to-radius ratio below 1 of
    the vertices strictly inside the open tube, with the first vertex
    attaining it, or (1.0, None).
    """
    a, disp, length = g.a[r], g.disp[r], float(g.length[r])
    verts = np.concatenate(gamma.loops)
    labels = np.concatenate([np.full(loop.shape[0], i + 1) for i, loop in enumerate(gamma.loops)])
    params = np.concatenate([gamma.params(i + 1) for i in range(gamma.k)])
    stops = np.cumsum([loop.shape[0] for loop in gamma.loops]).tolist()
    keep = None
    for exc_label, exc_param in exclude:
        lo, hi = ([0] + stops)[exc_label - 1], stops[exc_label - 1]
        eta = cfg.eta if cfg.eta is not None else um.ETA_STEPS * geom.TWO_PI / (hi - lo)
        gap = np.abs(params[lo:hi] - (exc_param % geom.TWO_PI))
        if keep is None:
            keep = np.ones(labels.shape[0], dtype=bool)
        keep[lo:hi] &= np.minimum(gap, geom.TWO_PI - gap) > eta
    rows = None if keep is None else keep.nonzero()[0]
    if rows is not None and rows.size == 0:
        return 1.0, None
    pts = verts if rows is None else np.take(verts, rows, axis=0)
    w = gamma.metric.wrap(pts - a)
    t = geom._rowdot(w, disp) / (length * length)
    clamped = np.minimum(np.maximum(t, 0.0), 1.0)
    diff = (w.T - disp[:, None] * clamped).T
    seg = np.sqrt(geom._rowdot(diff, diff))

    def witness(row: int, delta: float) -> ClearanceWitness:
        v = row if rows is None else int(rows[row])
        return ClearanceWitness(int(labels[v]), float(params[v]), delta, verts[v].copy())

    on_seg = seg <= tol
    if on_seg.any():
        return 0.0, witness(int(np.argmax(on_seg)), 0.0)
    inside = (t > 0.0) & (t < 1.0)
    ratio = np.divide(seg, cfg.epsilon * (0.5 - np.abs(clamped - 0.5)),
                      out=np.full(t.shape, math.inf), where=inside)
    arg = int(np.argmin(ratio))
    best = float(ratio[arg])
    if not best < 1.0:
        return 1.0, None
    return best, witness(arg, best)


def canonicalising_intersect(a: geom.ArcSet, b: geom.ArcSet) -> geom.ArcSet:
    """Every overlap of an arc of a with an arc of b shifted by -2*pi, 0 or 2*pi, made canonical anew.

    The reference for ArcSet.intersect, which merges the same pieces
    straight into canonical form.
    """
    pieces = []
    for s1, e1 in a.arcs:
        for s2, e2 in b.arcs:
            for shift in (-geom.TWO_PI, 0.0, geom.TWO_PI):
                lo = max(s1, s2 + shift)
                hi = min(e1, e2 + shift)
                if hi > lo:
                    pieces.append((lo, hi))
    return geom.ArcSet(pieces)


def arc_contains(arcs: geom.ArcSet, theta: float, tol: float = geom.TOL) -> bool:
    """Whether the angle theta lies within tol of one of the arcs."""
    t = math.fmod(theta, geom.TWO_PI)
    t = t + geom.TWO_PI if t < 0.0 else t
    return any(s - tol <= t <= e + tol or s - tol <= t + geom.TWO_PI <= e + tol
               for s, e in arcs.arcs)


def sym_diff_measure(a: geom.ArcSet, b: geom.ArcSet) -> float:
    """Total length of the arcs in exactly one of a and b."""
    return a.measure() + b.measure() - 2.0 * a.intersect(b).measure()


def chop_equal(a: operad.Cleavage, b: operad.Cleavage, tol: float = 1e-9) -> bool:
    """Whether a and b carve out the same sphere region for every label.

    Masks on the shared point cloud may differ within max(tol, 1e-9) of
    either body's boundary, where membership is float noise.
    """
    if a.k != b.k:
        raise operad.OperadError(f"arity mismatch: {a.k} != {b.k}")
    if a.n != b.n:
        raise operad.OperadError(f"sphere dimension mismatch: {a.n} != {b.n}")
    if a.n == 1:
        return all(sym_diff_measure(ta.arcs, tb.arcs) <= tol for ta, tb in zip(a.traces, b.traces))
    band = max(tol, 1e-9)
    for ta, tb in zip(a.traces, b.traces):
        near = np.zeros(len(ta.points), dtype=bool)
        for region in (ta, tb):
            near |= (np.abs(region.body._margins(ta.points)) <= band).any(axis=0)
        if ((ta.mask != tb.mask) & ~near).any():
            return False
    return True


def perm_inverse(sigma: operad.Permutation) -> operad.Permutation:
    inv = [0] * sigma.k
    for i, img in enumerate(sigma.images, start=1):
        inv[img - 1] = i
    return operad.Permutation(tuple(inv))


def perm_after(sigma: operad.Permutation, other: operad.Permutation) -> operad.Permutation:
    """The composite applying other first, then sigma."""
    return operad.Permutation(tuple(sigma(other(i)) for i in range(1, sigma.k + 1)))


def perm_sign(sigma: operad.Permutation) -> int:
    """+1 or -1 by the parity of the inversions of sigma's images."""
    im = sigma.images
    inversions = sum(im[i] > im[j] for i in range(len(im)) for j in range(i + 1, len(im)))
    return -1 if inversions % 2 else 1
