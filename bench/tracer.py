"""Per-layer spans recorded around calls into the cleav modules.

The tracer replaces each traced public function with a timing wrapper in
every loaded cleav module that binds it, so calls made through a
from-import (``alpha_preimage`` is bound in blueprint, umkehr, suites and
cli) are seen as well as calls through the defining module. Spans are kept
in memory with an id, a parent and an op id; self times and counters are
derived from them when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from time import perf_counter

# (module, function) pairs wrapped by the tracer, grouped by layer.
TARGETS = (
    ("geom", "segment_boundary_hit"),
    ("geom", "centroid"),
    ("geom", "sphere_trace"),
    ("operad", "validate"),
    ("operad", "compose"),
    ("operad", "permute"),
    ("sampling", "random_cleavage"),
    ("blueprint", "build_blueprint"),
    ("blueprint", "thicken"),
    ("blueprint", "participants"),
    ("blueprint", "alpha_preimage"),
    ("blueprint", "alpha"),
    ("umkehr", "embedding_from_json"),
    ("umkehr", "strand_distance"),
    ("umkehr", "clearance"),
    ("umkehr", "geodesic"),
    ("umkehr", "restrict"),
    ("umkehr", "umkehr"),
    ("umkehr", "self_intersection_locus"),
    ("cli", "main"),
)

SUITE_SPANS = ("partition", "convexity", "alpha", "preimage", "degree", "locus", "symmetry")

# Spans: (parent, op, name, start, end, covered_end, ok, extra).
# covered_end includes the time spent computing the span's counters, which
# is charged to neither the span nor its parent.
PARENT, OP, NAME, START, END, COVERED, OK, EXTRA = range(8)


def _segment_distance(a, b, c, d) -> float:
    """Distance between planar segments ab and cd.

    The tracer keeps its own copy so that counting thicken's candidates
    neither calls nor depends on the code being traced.
    """

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    def point_seg(p, s, t):
        dx, dy = t[0] - s[0], t[1] - s[1]
        dd = dx * dx + dy * dy
        u = 0.0 if dd == 0.0 else min(1.0, max(0.0, ((p[0] - s[0]) * dx + (p[1] - s[1]) * dy) / dd))
        return math.hypot(p[0] - s[0] - u * dx, p[1] - s[1] - u * dy)

    d1, d2 = cross(a, b, c), cross(a, b, d)
    d3, d4 = cross(c, d, a), cross(c, d, b)
    if d1 * d2 < 0.0 and d3 * d4 < 0.0:
        return 0.0
    return min(point_seg(a, c, d), point_seg(b, c, d), point_seg(c, a, b), point_seg(d, a, b))


def _strand_distance_counts(args, kwargs, result):
    gamma, i, j = args[:3]
    return (gamma.m(i) * gamma.m(j), gamma.metric.kind == "torus")


def _clearance_counts(args, kwargs, result):
    gamma = args[0]
    vertices = sum(gamma.m(label) for label in range(1, gamma.k + 1))
    return (vertices, result[0] < 1.0)


def _thicken_counts(args, kwargs, result):
    density = args[1] if len(args) > 1 else kwargs.get("density", 8)
    bp = result.blueprint
    pieces = bp.pieces
    crossings = sum(
        1
        for i in range(len(pieces))
        for j in range(i + 1, len(pieces))
        if _segment_distance(pieces[i].a, pieces[i].b, pieces[j].a, pieces[j].b) <= bp.tol
    )
    return (len(result.samples), len(pieces) * density + crossings)


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


COUNTERS = {
    "umkehr.strand_distance": _strand_distance_counts,
    "umkehr.clearance": _clearance_counts,
    "blueprint.thicken": _thicken_counts,
}


class Tracer:
    """Span recorder; install() wraps the targets, uninstall() restores them."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def _enter(self):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(sid)
        return sid, parent

    def _leave(self, sid, parent, name, start, end, ok, extra):
        self.stack.pop()
        self.spans[sid] = (parent, self.op, name, start, end, perf_counter(), ok, extra)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._enter()
            ok = False
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                extra = counter(args, kwargs, result) if counter is not None and ok else None
                self._leave(sid, parent, name, start, end, ok, extra)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """One span opened by the benchmark itself, around a block."""
        sid, parent = self._enter()
        ok = False
        start = perf_counter()
        try:
            yield
            ok = True
        finally:
            self._leave(sid, parent, name, start, perf_counter(), ok, None)

    # -- installation ------------------------------------------------------

    def install(self) -> list:
        """Wrap every target in every cleav module binding it; returns missing targets."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "cleav" or key.startswith("cleav."))]
        missing = []
        for mod_name, fn_name in TARGETS:
            home = sys.modules.get(f"cleav.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list:
        covered = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp[PARENT] >= 0:
                covered[sp[PARENT]] += sp[COVERED] - sp[START]
        return [sp[END] - sp[START] - cov for sp, cov in zip(self.spans, covered)]

    def summary(self, op_walls: list) -> tuple:
        """Per-layer metrics and the list of invariant violations."""
        selfs = self.self_times()
        names = [f"{m}.{f}" for m, f in TARGETS] + [f"suites.{s}" for s in SUITE_SPANS]
        calls = dict.fromkeys(names, 0)
        incl = dict.fromkeys(names, 0.0)
        own = dict.fromkeys(names, 0.0)
        edge_pairs = 0
        torus_self = 0.0
        vertices = 0
        hits = 0
        kept = candidates = 0
        attempts = accepted = 0
        per_op_self: dict = {}
        for sp, s in zip(self.spans, selfs):
            name = sp[NAME]
            calls[name] += 1
            own[name] += s
            incl[name] += sp[END] - sp[START]
            per_op_self[sp[OP]] = per_op_self.get(sp[OP], 0.0) + s
            extra = sp[EXTRA]
            if name == "umkehr.strand_distance" and extra is not None:
                edge_pairs += extra[0]
                if extra[1]:
                    torus_self += s
            elif name == "umkehr.clearance" and extra is not None:
                vertices += extra[0]
                hits += extra[1]
            elif name == "blueprint.thicken" and extra is not None:
                kept += extra[0]
                candidates += extra[1]
            elif name == "sampling.random_cleavage" and sp[OK]:
                accepted += 1
            elif name == "operad.validate" and sp[PARENT] >= 0 \
                    and self.spans[sp[PARENT]][NAME] == "sampling.random_cleavage":
                attempts += 1

        metrics = {}
        for name in names:
            if name.startswith("suites."):
                metrics[f"{name}.s"] = (incl[name], "s")
                continue
            metrics[f"{name}.calls"] = (calls[name], "count")
            metrics[f"{name}.s"] = (incl[name], "s")
            metrics[f"{name}.self_s"] = (own[name], "s")
        metrics["umkehr.strand_distance.edge_pairs"] = (edge_pairs, "count")
        metrics["umkehr.strand_distance.torus.self_s"] = (torus_self, "s")
        metrics["umkehr.clearance.vertices"] = (vertices, "count")
        metrics["umkehr.clearance.hit_ratio"] = (_ratio(hits, calls["umkehr.clearance"]), "ratio")
        metrics["blueprint.thicken.kept_ratio"] = (_ratio(kept, candidates), "ratio")
        metrics["sampling.accept_ratio"] = (_ratio(accepted, attempts), "ratio")
        metrics["trace.spans"] = (len(self.spans), "count")

        problems = []
        for op, wall in enumerate(op_walls):
            if per_op_self.get(op, 0.0) > wall:
                problems.append(f"op {op}: self times sum to {per_op_self[op]:.6f} s, above its wall {wall:.6f} s")
        if self.stack:
            problems.append(f"{len(self.stack)} spans left open")
        return metrics, problems

    def rows(self):
        """Spans as tab-separated rows: id, parent, op, name, start, end, self, ok."""
        selfs = self.self_times()
        for sid, (sp, s) in enumerate(zip(self.spans, selfs)):
            yield (f"{sid}\t{sp[PARENT]}\t{sp[OP]}\t{sp[NAME]}\t{sp[START]:.9f}\t"
                   f"{sp[END]:.9f}\t{s:.9f}\t{int(sp[OK])}\n")

