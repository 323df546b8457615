"""The three benchmark workloads.

Each workload turns the benchmark seed into a list of op inputs (its
plan), runs one op at a time, and turns an op's output into a JSON record
that its checker accepts or rejects. Only `plan` draws from the seed; the
ops see nothing but the generated inputs.

`expected_calls` lists the traced functions a workload always reaches;
the traced run fails when one of them records no calls. Ops call the
program through module attributes (``operad.compose``, not a
from-import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from cleav import blueprint, cli, fixtures, geom, operad, sampling, suites, umkehr

import checks


class OpFailed(RuntimeError):
    """An op finished without raising but reported failure."""


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


class Corridor:
    """`cleave umkehr` on the corridor trio, in the plane and on the flat torus.

    Three 1440-vertex strands make the all-pairs strand precheck nearly
    all of an op. One op evaluates the trio at one seeded tip twice: as
    drawn, and wrapped onto the torus of period 1 so that it straddles the
    period. Torus evaluations take about a third longer, so an op holding
    one of each keeps op latencies in one cluster, where a run of single
    evaluations splits into two and puts its median in the gap.
    """

    name = "corridor"
    ops_per_second = 0.25
    metrics = ("euclidean", "torus")
    epsilon = fixtures.CORRIDOR_EPSILON
    density = checks.CORRIDOR_SAMPLES_PER_PIECE
    torus_period = 1.0
    expected_calls = ("cli.main", "umkehr.embedding_from_json", "operad.validate",
              "blueprint.build_blueprint", "blueprint.thicken", "blueprint.participants",
              "blueprint.alpha_preimage", "umkehr.umkehr", "umkehr.strand_distance",
              "umkehr.restrict", "umkehr.geodesic", "umkehr.clearance")

    def plan(self, rng: np.random.Generator, n_ops: int, workdir: Path) -> list:
        # Each set-up starts from a cold fixtures cache, as a fresh process
        # does; the cache is private to fixtures and may go away.
        getattr(fixtures, "_STATIC_CACHE", {}).clear()
        workdir.mkdir(parents=True, exist_ok=True)
        doc_path = workdir / "cleavage.json"
        _write_json(doc_path, fixtures.corridor_cleavage().to_json())
        tips = rng.choice(np.array(fixtures.CORRIDOR_SWEEP), size=n_ops).tolist()
        written = {}
        for tip in sorted(set(tips)):
            emb = fixtures.corridor_trio(tip)
            docs = {
                "euclidean": emb.to_json(),
                "torus": {
                    "metric": {"kind": "torus", "d": 2, "L": self.torus_period},
                    "loops": [np.mod(loop, self.torus_period).tolist() for loop in emb.loops],
                },
            }
            for kind, doc in docs.items():
                written[tip, kind] = str(workdir / f"loops_{kind}_{tip:.1f}.json")
                _write_json(Path(written[tip, kind]), doc)
        return [
            {"tip": tip, "doc": str(doc_path), "out": str(workdir / f"out_{i}"),
             "loops": {kind: written[tip, kind] for kind in self.metrics}}
            for i, tip in enumerate(tips)
        ]

    def run(self, op: dict, tag: str, tracer=None) -> dict:
        outs = {}
        for kind in self.metrics:
            out = outs[kind] = f"{op['out']}_{kind}_{tag}.json"
            argv = ["umkehr", op["doc"], op["loops"][kind], "--epsilon", str(self.epsilon),
                    "--density", str(self.density), "--out", out]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            if rc != 0:
                raise OpFailed(f"cleave umkehr ({kind}) exited {rc}: {err.getvalue().strip()}")
        return outs

    def record(self, op: dict, out: dict) -> dict:
        return {kind: json.loads(Path(path).read_text(encoding="utf-8"))
                for kind, path in out.items()}

    def check(self, op: dict, rec: dict) -> list:
        critical = fixtures.corridor_critical_deg()
        problems = [f"{kind}: {p}" for kind, doc in rec.items()
                    for p in checks.check_corridor(doc, op["tip"], critical, geom.TOL)]
        statuses = {kind: [c.get("status") for c in doc.get("components", [])]
                    for kind, doc in rec.items()}
        if statuses["torus"] != statuses["euclidean"]:
            problems.append(f"torus statuses {statuses['torus']} differ from the plane's "
                            f"{statuses['euclidean']}")
        return problems


class Composed:
    """compose -> permute -> build_blueprint -> thicken -> umkehr in the library.

    Random outer and inner cleavages are grafted at a random slot (triples
    whose graft fails validation are redrawn) and relabeled by a random
    permutation; one 64-vertex loop per timber sits on a ring, and the
    homotopy parameter t is drawn from [0, 1). One op runs six pipelines,
    one for each arity pair in seeded order, so every op does a like mix of
    small and large cleavages and op latencies stay close together.
    """

    name = "composed"
    ops_per_second = 1.0
    arities = tuple((ko, ki) for ko in (2, 3, 4) for ki in (2, 3))
    density = 32
    epsilon = 2.5
    loop_m = 64
    # Ring radius and loop budget keep neighbouring loops apart at arity 6:
    # 2 * (base + 1.84 * wobble + sqrt(2) * drift) < 2 * ring * sin(pi / 6).
    ring = 0.9
    loop_shape = {"base": 0.25, "wobble": 0.06, "drift": 0.03}
    expected_calls = ("operad.compose", "operad.permute", "operad.validate", "geom.centroid",
              "blueprint.build_blueprint", "blueprint.thicken", "blueprint.participants",
              "blueprint.alpha_preimage", "umkehr.umkehr", "umkehr.strand_distance",
              "umkehr.restrict", "umkehr.geodesic", "umkehr.clearance")

    def plan(self, rng: np.random.Generator, n_ops: int, workdir: Path) -> list:
        return [{"pipelines": [self._pipeline(rng, *self.arities[i])
                               for i in rng.permutation(len(self.arities)).tolist()]}
                for _ in range(n_ops)]

    def _pipeline(self, rng: np.random.Generator, ko: int, ki: int) -> dict:
        while True:
            outer = sampling.random_cleavage(rng, ko)
            inner = sampling.random_cleavage(rng, ki)
            slot = int(rng.integers(1, ko + 1))
            try:
                operad.compose(outer, slot, inner)
                break
            except operad.NonCleaving:
                continue
        k = ko + ki - 1
        perm = tuple(int(x) + 1 for x in rng.permutation(k))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        loops = []
        for j, seed in enumerate(rng.integers(0, 2**31, k).tolist()):
            ang = phase + 2.0 * math.pi * j / k
            center = self.ring * np.array([math.cos(ang), math.sin(ang)])
            loops.append(fixtures.fourier_loop(seed, m=self.loop_m, **self.loop_shape) + center)
        return {
            "outer": outer, "inner": inner, "slot": slot, "perm": perm,
            "loops": tuple(loops), "t": float(rng.uniform(0.0, 1.0)),
        }

    def run(self, op: dict, tag: str, tracer=None):
        return [self.run_pipeline(p) for p in op["pipelines"]]

    def record(self, op: dict, out) -> list:
        return [self.record_pipeline(c, tb, value) for c, tb, value in out]

    def check(self, op: dict, rec: list) -> list:
        return [f"pipeline {i}: {p}" for i, r in enumerate(rec)
                for p in checks.check_composed(r, geom.TOL)]

    def run_pipeline(self, op: dict) -> tuple:
        c = operad.compose(op["outer"], op["slot"], op["inner"])
        c = operad.permute(c, operad.Permutation(op["perm"]))
        bp = blueprint.build_blueprint(c)
        tb = blueprint.thicken(bp, density=self.density)
        gamma = umkehr.DiscreteEmbedding(fixtures.EUCLIDEAN, op["loops"])
        cfg = umkehr.UmkehrConfig(epsilon=self.epsilon, t_homotopy=op["t"], density=self.density)
        return c, tb, umkehr.umkehr(gamma, c, tb, cfg)

    def record_pipeline(self, c, tb, value) -> dict:
        return {
            "tree": c.to_json()["tree"],
            "samples": [
                {"point": [float(x) for x in s.point], "component": s.component,
                 "participants": list(s.participants)}
                for s in tb.samples
            ],
            "value": value.to_json(),
        }


class Suites:
    """One round of property suites at reduced sizes, as `cleave check` runs them.

    Scalar per-point geometry and cleavage sampling dominate; the
    corridor-based suites are left out because `corridor` measures them.
    """

    name = "suites"
    ops_per_second = 0.6
    sizes = {
        "partition": {"cleavages": 10, "points": 10_000},
        "convexity": {"cleavages": 2, "pairs": 500},
        "alpha": {"cleavages": 2, "samples": 1000},
        "preimage": {"cleavages": 8, "samples": 500},
        "degree": {"cleavages": 100},
        "locus": {},
        "symmetry": {"instances": 3},
    }
    expected_calls = ("geom.segment_boundary_hit", "geom.centroid", "geom.sphere_trace",
              "operad.validate", "operad.permute", "sampling.random_cleavage",
              "blueprint.alpha", "blueprint.participants", "blueprint.alpha_preimage",
              "blueprint.build_blueprint", "blueprint.thicken",
              "umkehr.self_intersection_locus", "umkehr.umkehr")

    def plan(self, rng: np.random.Generator, n_ops: int, workdir: Path) -> list:
        return [{"seed": seed} for seed in rng.integers(0, 2**31, n_ops).tolist()]

    def run(self, op: dict, tag: str, tracer=None):
        reports = []
        for name, sizes in self.sizes.items():
            with tracer.span(f"suites.{name}") if tracer else contextlib.nullcontext():
                reports.append(suites.run_suite(name, seed=op["seed"], **sizes))
        return reports

    def record(self, op: dict, out) -> list:
        return [r.to_json() for r in out]

    def check(self, op: dict, rec: list) -> list:
        return checks.check_suites(rec, self.sizes)


WORKLOADS = {w.name: w for w in (Corridor(), Composed(), Suites())}
