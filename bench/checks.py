"""Output checks for the benchmark workloads.

Each checker takes one op's output as plain JSON data and returns a list
of problems; an empty list means the output is accepted. The checkers
derive what they expect from the workload's inputs and from geometry they
compute themselves, not from the code that produced the output, so a
defect in the evaluator shows up as a failed op instead of agreeing with
itself.
"""

from __future__ import annotations

import math

UNIT_TOL = 1e-9


def tree_planes(node: dict) -> list:
    """(normal, offset) of every internal node of a cleavage tree document."""
    if "leaf" in node:
        return []
    plane = node["plane"]
    return ([(plane["normal"], plane["offset"])]
            + tree_planes(node["left"]) + tree_planes(node["right"]))


def planes_through(point, planes, tol: float) -> int:
    return sum(
        1 for normal, offset in planes
        if abs(sum(n * x for n, x in zip(normal, point)) - offset) <= tol
    )


def _entry_problems(entries: list, tol: float) -> list:
    """Finite entries pair up as (i, j)/(j, i) with one scale and opposite unit tangents."""
    problems = []
    by_key = {}
    for e in entries:
        key = (e["sample"], tuple(e["pair"]))
        if key in by_key:
            problems.append(f"sample {key[0]} pair {key[1]} listed twice")
        by_key[key] = e
    for (sample, (i, j)), e in by_key.items():
        mate = by_key.get((sample, (j, i)))
        if mate is None:
            problems.append(f"sample {sample} pair {(i, j)} has no mate {(j, i)}")
            continue
        scale = e["scale"]
        if not (isinstance(scale, (int, float)) and math.isfinite(scale) and scale <= 1.0 + tol):
            problems.append(f"sample {sample} pair {(i, j)} has scale {scale!r} in a finite component")
        if mate["scale"] != scale:
            problems.append(f"sample {sample} pair {(i, j)} scale differs from its mate")
        norm = math.sqrt(sum(x * x for x in e["tangent"]))
        if abs(norm - 1.0) > UNIT_TOL:
            problems.append(f"sample {sample} pair {(i, j)} tangent norm {norm!r}")
        if any(abs(a + b) > UNIT_TOL for a, b in zip(e["tangent"], mate["tangent"])):
            problems.append(f"sample {sample} pair {(i, j)} tangent is not the mate's negation")
    return problems


def _component_problems(comp: dict, members: set, participants: dict, tol: float) -> list:
    """Status, collapsed samples and per-sample entry counts of one component.

    `participants` maps each sample index to the labels whose preimages
    the sample has; a kept sample carries one entry per ordered pair.
    """
    cid = comp["component"]
    status = comp["status"]
    collapsed = set(comp["collapsed_samples"])
    if status == "infinity":
        problems = []
        if comp["entries"]:
            problems.append(f"component {cid} is infinity but keeps {len(comp['entries'])} entries")
        if collapsed != members:
            problems.append(f"component {cid} is infinity but collapses {len(collapsed)} of {len(members)} samples")
        return problems
    if status != "finite":
        return [f"component {cid} has unknown status {status!r}"]
    problems = []
    if collapsed:
        problems.append(f"component {cid} is finite but collapses samples {sorted(collapsed)}")
    per_sample = {}
    for e in comp["entries"]:
        per_sample.setdefault(e["sample"], []).append(tuple(e["pair"]))
    if set(per_sample) != members:
        problems.append(f"component {cid} has entries for samples {sorted(per_sample)}, expected {sorted(members)}")
    for sample, pairs in per_sample.items():
        labels = participants.get(sample, ())
        want = sorted((i, j) for i in labels for j in labels if i != j)
        if sorted(pairs) != want:
            problems.append(f"sample {sample} has pairs {sorted(pairs)}, expected {want}")
    return problems + _entry_problems(comp["entries"], tol)


# ---------------------------------------------------------------------------
# corridor


CORRIDOR_SAMPLES_PER_PIECE = 24


def check_corridor(doc: dict, tip: float, critical_deg: float, tol: float) -> list:
    """`cleave umkehr` output for the corridor trio with its tip at `tip` degrees.

    The corridor cleavage cuts at x = 1/2 (component 0, timbers 1 and 2)
    and x = -1/2 (component 1, timbers 2 and 3); each cut carries 24
    samples in piece order. The excursion component collapses exactly
    when the tip sits below the critical angle; the bystander never does.
    The same holds on the flat torus, where the corridor only wraps.
    """
    comps = doc.get("components", [])
    if [c.get("component") for c in comps] != [0, 1]:
        return [f"expected components [0, 1], got {[c.get('component') for c in comps]}"]
    n = CORRIDOR_SAMPLES_PER_PIECE
    layout = (
        (set(range(n)), (1, 2), "infinity" if tip < critical_deg else "finite"),
        (set(range(n, 2 * n)), (2, 3), "finite"),
    )
    problems = []
    for comp, (members, labels, status) in zip(comps, layout):
        if comp["status"] != status:
            problems.append(f"tip {tip}: component {comp['component']} is {comp['status']}, expected {status}")
        participants = {s: labels for s in members}
        problems += _component_problems(comp, members, participants, tol)
    return problems


# ---------------------------------------------------------------------------
# composed


def check_composed(record: dict, tol: float) -> list:
    """Library pipeline output on a composed, permuted random cleavage.

    `record` holds the cleavage tree document, the thickened samples
    (point, component, participants) and the evaluator output. Each
    sample's participant count must be one more than the number of cut
    planes through its point, counted here from the tree's planes.
    """
    planes = tree_planes(record["tree"])
    k = len(planes) + 1
    problems = []
    members: dict = {}
    participants = {}
    for idx, s in enumerate(record["samples"]):
        labels = tuple(s["participants"])
        want = planes_through(s["point"], planes, tol) + 1
        if len(labels) != want:
            problems.append(f"sample {idx} has {len(labels)} participants, expected {want}")
        if len(set(labels)) != len(labels) or not all(1 <= lab <= k for lab in labels):
            problems.append(f"sample {idx} has bad participant labels {list(labels)}")
        members.setdefault(s["component"], set()).add(idx)
        participants[idx] = labels
    comps = record["value"]["components"]
    if sorted(c["component"] for c in comps) != sorted(members):
        problems.append(f"components {[c['component'] for c in comps]} do not match samples {sorted(members)}")
        return problems
    for comp in comps:
        problems += _component_problems(comp, members[comp["component"]], participants, tol)
    return problems


# ---------------------------------------------------------------------------
# suites


def expected_checked(name: str, sizes: dict, details: dict):
    """Check count a suite must report for its sizes, or None when not fixed."""
    if name == "partition":
        return sizes["cleavages"] * sizes["points"]
    if name == "convexity":
        return 3 * sizes["pairs"] * details["timbers"]
    if name == "alpha":
        return sizes["samples"] * details["arcs"]
    if name == "preimage":
        return sum(details["histogram"].values())
    if name == "degree":
        return 2 * sizes["cleavages"]
    return None


def check_suites(reports: list, sizes: dict) -> list:
    """One round of property suites: every suite passed with consistent counts."""
    names = [r.get("name") for r in reports]
    if names != list(sizes):
        return [f"suites ran {names}, expected {list(sizes)}"]
    problems = []
    for r in reports:
        name = r["name"]
        if not r["passed"] or r["failures"] or r["counterexample"] is not None:
            problems.append(f"{name}: passed={r['passed']}, failures={r['failures']}")
        if not r["checked"] > 0:
            problems.append(f"{name}: no checks ran")
        want = expected_checked(name, sizes[name], r["details"])
        if want is not None and r["checked"] != want:
            problems.append(f"{name}: {r['checked']} checks, expected {want}")
        if name == "preimage" and any(int(size) < 2 for size in r["details"]["histogram"]):
            problems.append(f"preimage: sizes below 2 in {r['details']['histogram']}")
    return problems
