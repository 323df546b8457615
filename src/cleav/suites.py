"""Named property suites behind the command line check verb.

Each suite draws its own seeded instances, runs one family of checks at
full scale, and returns a SuiteReport. Nothing here prints; callers
format the report and pick the exit code.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import fixtures as fx
from .blueprint import alpha, alpha_preimage, build_blueprint, stable_degree, thicken
from .geom import TOL, TWO_PI, _rowdot, centroid, segment_boundary_hit
from .operad import Permutation, permute
from .sampling import fat_cleavage, random_cleavage
from .umkehr import (
    DiscreteEmbedding,
    UmkehrConfig,
    clearance,
    geodesic,
    scaling,
    self_intersection_locus,
    strand_distance,
    umkehr,
)

INF = math.inf


@dataclass
class SuiteReport:
    """Outcome of one named suite."""

    name: str
    passed: bool
    checked: int
    failures: int
    details: dict
    counterexample: dict | None = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "failures": self.failures,
            "details": self.details,
            "counterexample": self.counterexample,
        }


def format_report(r: SuiteReport) -> str:
    flag = "PASS" if r.passed else "FAIL"
    return f"[{flag}] {r.name}: {r.checked} checks, {r.failures} failures"


def _pick(failures: list) -> dict | None:
    # min is stable, so among the smallest arity the earliest failure wins
    if not failures:
        return None
    return min(failures, key=lambda f: f.get("k", 0))


def _floats(x) -> list:
    return [float(v) for v in np.asarray(x).ravel()]


# ---------------------------------------------------------------------------
# partition: the timbers tile the sphere.


def check_partition(seed: int = 0, cleavages: int = 50, points: int = 10_000) -> SuiteReport:
    """Random sphere points land in exactly one timber unless on a cut."""
    rng = np.random.default_rng(seed)
    failures: list = []
    checked = 0
    n2 = 0
    for idx in range(cleavages):
        k = 2 + idx % 4
        n = 2 if idx % 5 == 4 else 1
        n2 += n == 2
        c = random_cleavage(rng, k, n=n)
        pts = rng.normal(size=(points, n + 1))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        count = np.zeros(points, dtype=int)
        for i in range(1, k + 1):
            count += c.timber(i).contains(pts, TOL)
        near = np.zeros(points, dtype=bool)
        for cut in c.cuts:
            near |= np.abs(_rowdot(pts, cut.plane.normal) - cut.plane.offset) <= TOL
        bad = (count == 0) | ((count != 1) & ~near)
        checked += points
        if np.any(bad):
            j = int(np.argmax(bad))
            failures.append({
                "k": k, "n": n, "cleavage": c.to_json(),
                "point": _floats(pts[j]), "inside": int(count[j]),
                "near_cut": bool(near[j]),
            })
    return SuiteReport(
        "partition", not failures, checked, len(failures),
        {"cleavages": cleavages, "points_per_cleavage": points, "n2_cleavages": n2},
        _pick(failures),
    )


# ---------------------------------------------------------------------------
# convexity: midpoints of interior points stay inside.


def check_convexity(seed: int = 0, cleavages: int = 12, pairs: int = 1000) -> SuiteReport:
    """Star-sample each timber from its centroid and test midpoints."""
    rng = np.random.default_rng(seed)
    failures: list = []
    checked = 0
    timbers = 0
    for idx in range(cleavages):
        k = 2 + idx % 4
        c = random_cleavage(rng, k)
        for i in range(1, k + 1):
            body = c.timber(i)
            cpt = centroid(c.trace(i))
            timbers += 1
            ang = rng.uniform(0.0, TWO_PI, 2 * pairs)
            u = rng.random(2 * pairs)
            far = cpt + 2.0 * np.array([[math.cos(a), math.sin(a)] for a in ang.tolist()])
            hit = segment_boundary_hit(body, far, cpt)
            sample = cpt + u[:, None] * (hit.point - cpt)
            mid = (sample[0::2] + sample[1::2]) / 2.0
            for pts in (sample, mid):
                ok = body.contains(pts, TOL)
                checked += pts.shape[0]
                if not np.all(ok):
                    j = int(np.argmax(~ok))
                    failures.append({
                        "k": k, "cleavage": c.to_json(), "timber": i,
                        "point": _floats(pts[j]),
                        "kind": "midpoint" if pts is mid else "interior",
                    })
    return SuiteReport(
        "convexity", not failures, checked, len(failures),
        {"cleavages": cleavages, "timbers": timbers, "pairs_per_timber": pairs},
        _pick(failures),
    )


# ---------------------------------------------------------------------------
# alpha: the collapse is injective along every complement arc.


def check_alpha(seed: int = 0, cleavages: int = 8, samples: int = 1000) -> SuiteReport:
    """Hit points sweep monotonically around the timber centroid.

    The collapse of a complement arc walks along the timber boundary, a
    convex curve, so its angle seen from the centroid must be strictly
    monotone; any fold would make two arc points hit the same spot.
    """
    rng = np.random.default_rng(seed)
    failures: list = []
    checked = 0
    arcs = 0
    for idx in range(cleavages):
        k = 2 + idx % 4
        c = fat_cleavage(rng, k, min_arc=0.05)
        bp = build_blueprint(c)
        for i in range(1, k + 1):
            cpt = bp.centroids[i - 1]
            for s0, s1 in c.trace(i).arcs.complement().arcs:
                arcs += 1
                th = s0 + (s1 - s0) * np.arange(1, samples + 1) / (samples + 1)
                s = np.array([[math.cos(t), math.sin(t)] for t in th.tolist()])
                hits = alpha(bp, i, s).point
                kappa = np.unwrap(np.arctan2(hits[:, 1] - cpt[1], hits[:, 0] - cpt[0]))
                d = np.diff(kappa)
                checked += samples
                if not (np.all(d > 0.0) or np.all(d < 0.0)):
                    j = int(np.argmax(d <= 0.0) if d[0] > 0.0 else np.argmax(d >= 0.0))
                    failures.append({
                        "k": k, "cleavage": c.to_json(), "timber": i,
                        "arc": [float(s0), float(s1)],
                        "flip_between": [float(th[j]), float(th[j + 1])],
                    })
    return SuiteReport(
        "alpha", not failures, checked, len(failures),
        {"cleavages": cleavages, "arcs": arcs, "samples_per_arc": samples},
        _pick(failures),
    )


# ---------------------------------------------------------------------------
# preimage: |collapse preimage| = planes through the point + 1.


def check_preimage(seed: int = 0, cleavages: int = 100, samples: int = 1000) -> SuiteReport:
    """Count preimages at random diagram points plus endpoint samples."""
    rng = np.random.default_rng(seed)
    failures: list = []
    checked = 0
    hist: Counter = Counter()
    for idx in range(cleavages):
        k = 2 + idx % 4
        c = random_cleavage(rng, k)
        bp = build_blueprint(c)
        ends = bp.ends[rng.integers(0, len(bp.ends), samples)]
        t = rng.random(samples)
        pts = ends[:, 0] + t[:, None] * (ends[:, 1] - ends[:, 0])
        extra = thicken(bp, density=2).points
        b = np.concatenate([pts, extra])
        planes = sum(np.abs(_rowdot(cut.plane.normal, b) - cut.plane.offset) <= TOL
                     for cut in c.cuts)
        mask, _ = alpha_preimage(bp, b)
        sizes = mask.sum(axis=1)
        hist.update(sizes.tolist())
        checked += b.shape[0]
        for j in (sizes != planes + 1).nonzero()[0].tolist():
            failures.append({
                "k": k, "cleavage": c.to_json(), "point": _floats(b[j]),
                "planes_through": int(planes[j]), "preimage_size": int(sizes[j]),
                "labels": (mask[j].nonzero()[0] + 1).tolist(),
            })
    return SuiteReport(
        "preimage", not failures, checked, len(failures),
        {"cleavages": cleavages, "histogram": {str(s): n for s, n in sorted(hist.items())}},
        _pick(failures),
    )


# ---------------------------------------------------------------------------
# symmetry: relabeling strands and timbers together transposes the output.


def _close(a, b) -> bool:
    return max(abs(x - y) for x, y in zip(a, b)) <= TOL


def check_symmetry(seed: int = 0, instances: int = 50) -> SuiteReport:
    """Swap the two strands and timbers; entries must transpose.

    For each instance the swapped evaluation is compared entrywise with
    the original: same scales, negated tangents, source and target
    exchanged, statuses and collapsed samples identical. Each instance
    runs at t = 0, where the collapse decision is covariant, and at
    t = 1, where every entry stays finite and is compared in full.
    """
    rng = np.random.default_rng(seed)
    sigma = Permutation((2, 1))
    configs = (UmkehrConfig(epsilon=2.5), UmkehrConfig(epsilon=2.5, t_homotopy=1.0))
    failures: list = []
    checked = 0
    collapsed = 0
    for inst in range(instances):
        c = random_cleavage(rng, 2)
        base = int(rng.integers(0, 2**31 - 10_000))
        for bump in range(6):
            # side by side with tight drift, so the strands stay disjoint
            # and the geodesics between them cross mostly empty space
            l1 = fx.fourier_loop(base + 1000 * bump, base=0.3, wobble=0.05, drift=0.02) + [0.8, 0.0]
            l2 = fx.fourier_loop(base + 1000 * bump + 1, base=0.3, wobble=0.05, drift=0.02) - [0.8, 0.0]
            gamma = DiscreteEmbedding(fx.EUCLIDEAN, (l1, l2))
            if strand_distance(gamma, 1, 2, within=1e-6) > 1e-6:
                break
        else:
            failures.append({"k": 2, "instance": inst, "kind": "no separated loops"})
            continue
        c2 = permute(c, sigma)
        gamma2 = DiscreteEmbedding(fx.EUCLIDEAN, (l2, l1))
        tb1, tb2 = thicken(build_blueprint(c)), thicken(build_blueprint(c2))

        def flag(kind: str, **extra) -> None:
            failures.append({
                "k": 2, "instance": inst, "cleavage": c.to_json(),
                "loop_seed": base + 1000 * bump, "kind": kind, **extra,
            })

        for cfg in configs:
            out = umkehr(gamma, c, tb1, cfg)
            out2 = umkehr(gamma2, c2, tb2, cfg)
            for cv, cv2 in zip(out.components, out2.components):
                checked += 1
                if cv.status != cv2.status or cv.collapsed_samples != cv2.collapsed_samples:
                    flag("status", status=[cv.status, cv2.status])
                    continue
                if cv.status == "infinity":
                    collapsed += 1
                    continue
                e1 = {(e.sample, e.pair): e for e in cv.entries}
                e2 = {(e.sample, e.pair): e for e in cv2.entries}
                if set(e1) != set(e2):
                    flag("entry keys", only_first=len(set(e1) - set(e2)))
                    continue
                for key, ent in e1.items():
                    mate = e2[key]
                    checked += 1
                    scales_match = (
                        math.isinf(ent.scale) and math.isinf(mate.scale)
                    ) or abs(ent.scale - mate.scale) <= TOL
                    if not scales_match:
                        flag("scale", sample=key[0], pair=list(key[1]),
                             delta=float(abs(ent.scale - mate.scale)))
                    elif not _close(mate.tangent, tuple(-x for x in ent.tangent)):
                        flag("tangent", sample=key[0], pair=list(key[1]))
                    elif not (_close(mate.src, ent.dst) and _close(mate.dst, ent.src)):
                        flag("endpoints", sample=key[0], pair=list(key[1]))
    return SuiteReport(
        "symmetry", not failures, checked, len(failures),
        {"instances": instances, "collapsed_instances": collapsed},
        _pick(failures),
    )


# ---------------------------------------------------------------------------
# soundness: collapse statuses track the independent supremum exactly.


@functools.cache
def _corridor_setup():
    c = fx.corridor_cleavage()
    return c, thicken(build_blueprint(c), density=24)


def _manual_sups(emb, tb, cfg) -> dict:
    """Recompute per-component suprema from tb's table and the public primitives, one pair at a time."""
    tol = tb.blueprint.tol
    sups: dict = {}
    for row, angles, component in zip(tb.mask.tolist(), tb.angles.tolist(), tb.components.tolist()):
        preimages = [(label, th) for label, (on, th) in enumerate(zip(row, angles), 1) if on]
        for (a, th_a), (b, th_b) in itertools.combinations(preimages, 2):
            g = geodesic(emb.metric, emb.points_at(a, [th_a]), emb.points_at(b, [th_b]), tol)
            delta = 1.0
            if g.length[0] <= cfg.epsilon:
                delta = clearance(emb, g, [0], cfg, [[a, b]], [[th_a, th_b]], tol)
            val = float(scaling(g.length, cfg.epsilon, delta, cfg.t_homotopy)[0])
            sups[component] = max(sups.get(component, 0.0), val)
    return sups


def check_soundness(seed: int = 0) -> SuiteReport:
    """Finite versus infinity agrees with recomputed suprema everywhere.

    Two families: the corridor trio swept through its critical tip
    angle, and the concentric pair swept through gaps on both sides of
    the tube radius. The corridor invader must flip exactly one
    component exactly once.
    """
    c, tb = _corridor_setup()
    cfg = UmkehrConfig(epsilon=fx.CORRIDOR_EPSILON)
    failures: list = []
    checked = 0
    flips = 0
    prev_inf = None
    min_margin = INF
    for tip in fx.CORRIDOR_SWEEP:
        emb = fx.corridor_trio(tip)
        out = umkehr(emb, c, tb, cfg)
        sups = _manual_sups(emb, tb, cfg)
        for cv in out.components:
            checked += 1
            expect = sups[cv.component] > 1.0 + tb.blueprint.tol
            actual = cv.status == "infinity"
            if expect != actual:
                failures.append({
                    "family": "corridor", "tip": tip, "component": cv.component,
                    "sup": sups[cv.component], "status": cv.status,
                })
            if math.isfinite(sups[cv.component]):
                min_margin = min(min_margin, abs(sups[cv.component] - 1.0))
        inv = out.components[0].status == "infinity"
        if out.components[1].status != "finite":
            failures.append({"family": "corridor", "tip": tip,
                             "kind": "bystander collapsed"})
        if prev_inf is not None and inv != prev_inf:
            flips += 1
        prev_inf = inv
    if flips != 1:
        failures.append({"family": "corridor", "kind": "transition count", "flips": flips})

    cc = fx.chord_cleavage()
    tbc = thicken(build_blueprint(cc))
    for gap in (0.02, 0.06, 0.10, 0.14, 0.18, 0.24, 0.28):
        emb = fx.mirrored_pair(gap)
        out = umkehr(emb, cc, tbc, cfg)
        checked += 1
        expect_finite = gap < cfg.epsilon
        if (out.components[0].status == "finite") != expect_finite:
            failures.append({
                "family": "concentric", "gap": gap,
                "status": out.components[0].status,
            })
    return SuiteReport(
        "soundness", not failures, checked, len(failures),
        {"sweep_points": len(fx.CORRIDOR_SWEEP), "transition_flips": flips,
         "min_sup_margin": None if math.isinf(min_margin) else round(min_margin, 6)},
        _pick(failures),
    )


# ---------------------------------------------------------------------------
# nontriviality: finite outputs carry the exact expected magnitudes.


def check_nontriviality(seed: int = 0) -> SuiteReport:
    """Concentric pairs scale to gap over tube radius; far pairs collapse."""
    cc = fx.chord_cleavage()
    tbc = thicken(build_blueprint(cc))
    cfg = UmkehrConfig(epsilon=fx.CORRIDOR_EPSILON)
    failures: list = []
    checked = 0
    for gap in (0.02, 0.06, 0.10, 0.14, 0.18):
        out = umkehr(fx.mirrored_pair(gap), cc, tbc, cfg)
        cv = out.components[0]
        checked += 1
        if cv.status != "finite" or not cv.entries:
            failures.append({"gap": gap, "kind": "collapsed"})
            continue
        top = max(e.scale for e in cv.entries)
        unit = max(abs(math.hypot(*e.tangent) - 1.0) for e in cv.entries)
        if abs(top - gap / cfg.epsilon) > 1e-9:
            failures.append({"gap": gap, "kind": "max scale",
                             "max_scale": top, "expected": gap / cfg.epsilon})
        elif unit > 1e-9:
            failures.append({"gap": gap, "kind": "tangent norm", "error": unit})

    out = umkehr(fx.mirrored_pair(0.3), cc, tbc, cfg)
    checked += 1
    if out.components[0].status != "infinity":
        failures.append({"gap": 0.3, "kind": "expected collapse"})

    c, tb = _corridor_setup()
    far = umkehr(fx.corridor_trio(74.8), c, tb, cfg)
    checked += 1
    tops = []
    for cv in far.components:
        if cv.status != "finite" or not cv.entries:
            failures.append({"family": "corridor", "kind": "far tip collapsed",
                             "component": cv.component})
        else:
            tops.append(max(e.scale for e in cv.entries))
    if tops and not all(0.0 < t_ < 0.3 for t_ in tops):
        failures.append({"family": "corridor", "kind": "far tip scale", "tops": tops})
    return SuiteReport(
        "nontriviality", not failures, checked, len(failures),
        {"corridor_far_maxima": [round(t_, 6) for t_ in tops]},
        _pick(failures),
    )


# ---------------------------------------------------------------------------
# homotopy: t = 1 ignores invaders, t = 0 is the default contract.


def check_homotopy(seed: int = 0, perturbations: int = 10) -> SuiteReport:
    """Bit-stability at t = 1 and exact agreement of t = 0 with defaults."""
    c, tb = _corridor_setup()
    eps = fx.CORRIDOR_EPSILON
    failures: list = []
    checked = 0

    def comp_json(value) -> str:
        return json.dumps([cv.to_json() for cv in value.components], sort_keys=True)

    for tip in (61.6, 63.2):
        cfg1 = UmkehrConfig(epsilon=eps, t_homotopy=1.0)
        ref = comp_json(umkehr(fx.corridor_trio(tip), c, tb, cfg1))
        for p in range(perturbations):
            emb = fx.corridor_trio(tip, jitter_seed=10_000 * seed + p + 1)
            checked += 1
            if comp_json(umkehr(emb, c, tb, cfg1)) != ref:
                failures.append({"tip": tip, "perturbation": p, "kind": "t1 instability"})

        emb0 = fx.corridor_trio(tip)
        cfg0 = UmkehrConfig(epsilon=eps, t_homotopy=0.0)
        dflt = UmkehrConfig(epsilon=eps)
        a = umkehr(emb0, c, tb, cfg0)
        b = umkehr(emb0, c, tb, dflt)
        checked += 1
        if json.dumps(a.to_json(), sort_keys=True) != json.dumps(b.to_json(), sort_keys=True):
            failures.append({"tip": tip, "kind": "t0 default mismatch"})

    # contrast: the same perturbation is visible when the tube is live
    base = comp_json(umkehr(fx.corridor_trio(63.2), c, tb, UmkehrConfig(epsilon=eps)))
    jit = comp_json(umkehr(fx.corridor_trio(63.2, jitter_seed=10_000 * seed + 1), c, tb,
                           UmkehrConfig(epsilon=eps)))
    checked += 1
    if base == jit:
        failures.append({"tip": 63.2, "kind": "t0 blind to invader"})
    return SuiteReport(
        "homotopy", not failures, checked, len(failures),
        {"tips": [61.6, 63.2], "perturbations": perturbations},
        _pick(failures),
    )


# ---------------------------------------------------------------------------
# degree: index bookkeeping of the stable collapse.


def check_degree(seed: int = 0, cleavages: int = 1000) -> SuiteReport:
    """stable_degree splits as (dim * components, the rest), summing right.

    The diagram is a forest of P pieces with its leaves on the circle, so it
    has as many components as trace arcs minus P (a full circle counts none).
    """
    rng = np.random.default_rng(seed)
    failures: list = []
    checked = 0
    for idx in range(cleavages):
        k = 2 + idx % 4
        c = random_cleavage(rng, k)
        bp = build_blueprint(c)
        arcs = sum(0 if t.arcs.is_full() else len(t.arcs.arcs) for t in c.traces)
        for dim in (2, 3):
            a, b = stable_degree(bp, dim)
            checked += 1
            if (a != dim * bp.n_components or a + b != dim * (k - 1)
                    or bp.n_components != arcs - len(bp.ends)):
                failures.append({
                    "k": k, "cleavage": c.to_json(), "dim_m": dim,
                    "gamma": bp.n_components, "from_traces": arcs - len(bp.ends),
                    "got": [a, b],
                })
    return SuiteReport(
        "degree", not failures, checked, len(failures),
        {"cleavages": cleavages, "dims": [2, 3]},
        _pick(failures),
    )


# ---------------------------------------------------------------------------
# locus: meeting sets of touching pairs are proper intervals.


def check_locus(seed: int = 0) -> SuiteReport:
    """Every fixture yields a nonempty locus of proper intervals."""
    cc = fx.chord_cleavage()
    bp = build_blueprint(cc)
    failures: list = []
    checked = 0
    shapes: dict = {}
    for name, emb, density, ltol in fx.locus_fixtures():
        found = self_intersection_locus(emb, bp, tol=ltol, density=density)
        if not found:
            failures.append({"fixture": name, "kind": "empty locus"})
            continue
        total = 0.0
        for iv in found:
            checked += 1
            total += iv.end - iv.start
            host = None
            for a0, a1 in cc.trace(iv.label).arcs.complement().arcs:
                if a0 - 1e-9 <= iv.start and iv.end <= a1 + 1e-9:
                    host = (a0, a1)
                    break
            if host is None or iv.end < iv.start:
                failures.append({"fixture": name, "label": iv.label,
                                 "interval": [iv.start, iv.end],
                                 "kind": "not inside one scan arc"})
            elif iv.end - iv.start >= (host[1] - host[0]) - 1e-12:
                failures.append({"fixture": name, "label": iv.label,
                                 "interval": [iv.start, iv.end],
                                 "kind": "covers the whole arc"})
        shapes[name] = [len(found), round(total, 6)]
    return SuiteReport(
        "locus", not failures, checked, len(failures),
        {"fixtures": len(shapes), "intervals": shapes},
        _pick(failures),
    )


SUITES = {
    "partition": check_partition,
    "convexity": check_convexity,
    "alpha": check_alpha,
    "preimage": check_preimage,
    "symmetry": check_symmetry,
    "soundness": check_soundness,
    "nontriviality": check_nontriviality,
    "homotopy": check_homotopy,
    "degree": check_degree,
    "locus": check_locus,
}


def run_suite(name: str, seed: int = 0, **overrides) -> SuiteReport:
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {name!r}; known: {known}")
    return SUITES[name](seed=seed, **overrides)
