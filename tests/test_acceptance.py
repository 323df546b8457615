"""Full-scale behavioral acceptance run.

Each test exercises one guaranteed property family at its full sample
budget (seed 0) and prints a single [PASS]/[FAIL] report line.  Run with
`pytest tests/test_acceptance.py -v -s` to see the lines; every family
finishes in well under a minute on its own.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cleav import blueprint, fixtures, sampling, suites
from cleav import umkehr as um
from cleav.blueprint import build_blueprint, thicken
from cleav.geom import TOL, OrientedHyperplane, clip, sphere_trace, unit_disk
from cleav.operad import Internal, Leaf, Permutation, compose, permute, validate
from cleav.suites import format_report, run_suite
from oracles import sym_diff_measure


def _run(name: str, **overrides):
    report = run_suite(name, seed=0, **overrides)
    print(format_report(report))
    if not report.passed and report.counterexample is not None:
        print(json.dumps(report.counterexample, indent=2, default=str))
    assert report.passed, format_report(report)
    return report


def test_preimage_sizes_track_cut_crossings():
    report = _run("preimage")
    # 100 circle cleavages, a thousand fresh samples each, plus the
    # structured boundary samples folded in by the suite.
    assert report.details["cleavages"] >= 100
    assert report.checked >= 100 * 1000


def test_collapse_is_monotone_on_every_arc():
    report = _run("alpha")
    assert report.details["samples_per_arc"] >= 1000


def test_timbers_are_convex_and_partition_the_sphere():
    partition = _run("partition")
    assert partition.details["points_per_cleavage"] >= 10_000
    convexity = _run("convexity")
    assert convexity.details["pairs_per_timber"] >= 1000


def test_swapping_labels_transposes_the_output():
    report = _run("symmetry")
    assert report.details["instances"] == 50


def test_scale_transitions_follow_the_geodesic_supremum():
    _run("soundness")
    _run("nontriviality")


def test_straightened_output_is_stable_under_jitter():
    report = _run("homotopy")
    assert report.details["perturbations"] == 10


def test_degree_splits_sum_to_dimension_times_arity():
    report = _run("degree")
    # one thousand trees, each checked for ambient dimensions 2 and 3
    assert report.checked >= 2000


def test_degree_catches_pieces_that_never_merge(monkeypatch):
    # The suite also counts components from the sphere traces, so a
    # union-find that never merges touching pieces (each piece its own
    # component) fails it at the benchmark's reduced size.
    build = suites.build_blueprint

    def never_merge(c):
        bp = build(c)
        return dataclasses.replace(bp, piece_components=tuple(range(len(bp.pieces))),
                                   n_components=len(bp.pieces))

    monkeypatch.setattr(suites, "build_blueprint", never_merge)
    report = run_suite("degree", seed=0, cleavages=100)
    assert not report.passed
    assert report.failures > 0 and report.counterexample["gamma"] != report.counterexample["from_traces"]


def test_preimage_catches_a_thickening_that_keeps_duplicates(monkeypatch):
    # The suite checks the density-2 thickening it builds as well: a dedup
    # that keeps every candidate leaves samples within tol of each other at
    # the junctions, which fails it at the benchmark's reduced size.
    assert run_suite("preimage", seed=0, cleavages=8, samples=500).passed
    monkeypatch.setattr(blueprint, "_first_kept", lambda points, tol: list(range(points.shape[0])))
    report = run_suite("preimage", seed=0, cleavages=8, samples=500)
    assert not report.passed and report.failures > 0
    assert report.counterexample["kind"] == "samples within tol"


def test_meeting_loci_are_proper_intervals():
    report = _run("locus")
    assert report.details["fixtures"] >= 20


# Grafting coherence is checked directly rather than through a suite:
# the case list is exhaustive over small tree shapes, not randomized.

def _shapes(k: int) -> list:
    """All binary tree shapes with k leaves, as nested (left, right) pairs."""
    if k == 1:
        return [None]
    out = []
    for left_count in range(1, k):
        for left in _shapes(left_count):
            for right in _shapes(k - left_count):
                out.append((left, right))
    return out


def _leaf_count(shape) -> int:
    if shape is None:
        return 1
    return _leaf_count(shape[0]) + _leaf_count(shape[1])


def _chord_plane(body, rng: np.random.Generator):
    """A plane through two interior points of the body's sphere trace.

    Both sides of the cut keep a nonempty trace, so the cut is valid by
    construction inside `body`.
    """
    arcs = sphere_trace(body).arcs.arcs
    lengths = np.array([e - s for s, e in arcs])
    for _ in range(100):
        picks = rng.choice(len(arcs), size=2, p=lengths / lengths.sum())
        us = rng.uniform(0.1, 0.9, 2)
        ta, tb = (arcs[p][0] + u * (arcs[p][1] - arcs[p][0])
                  for p, u in zip(picks, us))
        if abs(ta - tb) < 1e-3:
            continue
        pa = np.array([np.cos(ta), np.sin(ta)])
        pb = np.array([np.cos(tb), np.sin(tb)])
        bisector = pa + pb
        norm = np.linalg.norm(bisector)
        if norm < 1e-6:
            continue
        normal = bisector / norm
        return OrientedHyperplane(normal, float(normal @ pa))
    raise AssertionError("no usable chord found")


def _grow(shape, body, counter, rng: np.random.Generator):
    """Decorate a shape with cuts guaranteed to split `body` nontrivially."""
    if shape is None:
        return Leaf(next(counter))
    plane = _chord_plane(body, rng)
    left = _grow(shape[0], clip(body, plane, +1), counter, rng)
    right = _grow(shape[1], clip(body, plane, -1), counter, rng)
    return Internal(plane, left, right)


def _decorate(shape, rng: np.random.Generator, body=None):
    tree = _grow(shape, unit_disk(2) if body is None else body,
                 itertools.count(1), rng)
    return tree, validate(tree, within=body)


def test_grafting_matches_direct_recursive_clipping():
    tol = 1e-9
    cases = 0
    label_checks = 0
    mismatches = []
    case_idx = 0
    for outer_k in (1, 2, 3):
        for outer_shape in _shapes(outer_k):
            for slot in range(1, outer_k + 1):
                for inner_k in (1, 2, 3):
                    for inner_shape in _shapes(inner_k):
                        case_idx += 1
                        rng = np.random.default_rng(9000 + case_idx)
                        _, outer = _decorate(outer_shape, rng)
                        # Independent route: clip the inner tree inside
                        # outer's slot region, root down.
                        inner_tree, direct = _decorate(
                            inner_shape, rng, body=outer.timber(slot))
                        composite = compose(outer, slot, inner_tree)
                        cases += 1
                        assert composite.k == outer_k + inner_k - 1
                        for j in range(1, inner_k + 1):
                            got = composite.trace(slot + j - 1).arcs
                            want = direct.trace(j).arcs
                            gap = sym_diff_measure(got, want)
                            label_checks += 1
                            if gap > tol:
                                mismatches.append(
                                    (case_idx, "inner", j, gap))
                        for lbl in range(1, outer_k + 1):
                            if lbl == slot:
                                continue
                            shifted = lbl if lbl < slot else lbl + inner_k - 1
                            gap = sym_diff_measure(composite.trace(shifted).arcs,
                                                   outer.trace(lbl).arcs)
                            label_checks += 1
                            if gap > tol:
                                mismatches.append(
                                    (case_idx, "outer", lbl, gap))
    status = "PASS" if not mismatches else "FAIL"
    print(f"[{status}] grafting: {cases} composites, "
          f"{label_checks} label comparisons, {len(mismatches)} mismatches")
    assert cases == 36
    assert not mismatches, mismatches[:5]


# Relabelling equivariance: the symmetric group on the k labels acts on a
# cleavage by permute and on a strand family by moving strand l to slot
# sigma(l).  Acting on both moves every output by sigma and changes nothing
# else.

def _ring_loops(rng: np.random.Generator, k: int) -> list:
    """One smooth loop per label on a ring, neighbours 0.5 apart and each within 0.2 of its centre."""
    ring = 0.25 / math.sin(math.pi / k)
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    angles = phase + 2.0 * math.pi * np.arange(k) / k
    return [fixtures.fourier_loop(int(s), m=int(rng.integers(16, 49)), base=0.12, wobble=0.03,
                                  drift=0.015) + ring * np.array([math.cos(a), math.sin(a)])
            for s, a in zip(rng.integers(0, 2 ** 31, k), angles.tolist())]


def _close(x, y) -> bool:
    """Equal entry by entry within TOL; infinite entries must be equal."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and bool(np.all((x == y) | (np.abs(x - y) <= TOL)))


@given(st.integers(0, 2 ** 32 - 1), st.data(),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), st.booleans())
@settings(max_examples=100, deadline=None)
def test_relabelling_the_strands_and_the_cleavage_relabels_the_output(seed, data, t, mapping):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 7))
    images = data.draw(st.permutations(range(1, k + 1)), label="sigma")
    sigma = np.array(images)
    c = sampling.random_cleavage(rng, k)
    moved = permute(c, Permutation(tuple(images)))
    density = int(rng.integers(2, 7))
    tb, tb2 = (thicken(build_blueprint(x), density=density) for x in (c, moved))
    # Same samples and components; column sigma(l) of the moved table is column l.
    assert tb2.points.tobytes() == tb.points.tobytes()
    assert tb2.components.tobytes() == tb.components.tobytes()
    assert tb2.mask[:, sigma - 1].tobytes() == tb.mask.tobytes()
    assert tb2.angles[:, sigma - 1].tobytes() == tb.angles.tobytes()

    loops = _ring_loops(rng, k)
    gamma = um.DiscreteEmbedding(fixtures.EUCLIDEAN, tuple(loops))
    # Strand sigma(l) of gamma2 is strand l of gamma.
    gamma2 = um.DiscreteEmbedding(fixtures.EUCLIDEAN,
                                  tuple(loops[images.index(label)] for label in range(1, k + 1)))
    cfg = um.UmkehrConfig(epsilon=float(rng.uniform(0.5, 3.5)), t_homotopy=t, mapping=mapping)
    value, value2 = um.umkehr(gamma, c, tb, cfg), um.umkehr(gamma2, moved, tb2, cfg)

    def move(pair):
        return tuple(int(sigma[label - 1]) for label in pair)

    assert len(value.components) == len(value2.components)
    for cv, cv2 in zip(value.components, value2.components):
        assert (cv.component, cv.status, cv.collapsed_samples, cv.uf_mask) == (
            cv2.component, cv2.status, cv2.collapsed_samples, cv2.uf_mask)
        assert {tuple(sorted(move(p))) for p in cv.boundary} == set(cv2.boundary)
        mates = {(e.sample, e.pair): e for e in cv2.entries}
        assert len(mates) == len(cv2.entries) == len(cv.entries)
        for e in cv.entries:
            mate = mates[e.sample, move(e.pair)]
            assert _close(e.scale, mate.scale), (e, mate)
            assert _close(e.tangent, mate.tangent), (e, mate)
            assert _close(e.src, mate.src) and _close(e.dst, mate.dst), (e, mate)
    for label in range(1, k + 1):
        arcs = [a.to_json() for a in value.restriction if a.label == label]
        mates = [{**a.to_json(), "label": label} for a in value2.restriction if a.label == sigma[label - 1]]
        assert mates == arcs


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
