"""Seeded generation of random cleavages."""

import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cleav import geom, operad, sampling
from cleav.sampling import (
    SamplingError,
    fat_cleavage,
    random_cleavage,
    resolve_seed,
)
from oracles import eager_cleavage, random_plane, random_tree


def leaf_labels(tree: dict) -> list:
    if "leaf" in tree:
        return [tree["leaf"]]
    return leaf_labels(tree["left"]) + leaf_labels(tree["right"])


class TestResolveSeed:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("CLEAVE_SEED", "99")
        assert resolve_seed(5) == 5

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("CLEAVE_SEED", "42")
        assert resolve_seed(None) == 42

    def test_default_zero(self, monkeypatch):
        monkeypatch.delenv("CLEAVE_SEED", raising=False)
        assert resolve_seed(None) == 0

    def test_non_integer_env_rejected(self, monkeypatch):
        monkeypatch.setenv("CLEAVE_SEED", "charlie")
        with pytest.raises(SamplingError):
            resolve_seed(None)


class TestRandomCleavage:
    def test_deterministic(self):
        a = random_cleavage(7, 4).to_json()
        b = random_cleavage(7, 4).to_json()
        assert json.dumps(a) == json.dumps(b)

    def test_seed_changes_output(self):
        a = random_cleavage(1, 3).to_json()
        b = random_cleavage(2, 3).to_json()
        assert json.dumps(a) != json.dumps(b)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_arity_and_labels(self, k):
        c = random_cleavage(11, k)
        assert c.k == k
        doc = c.to_json()
        assert sorted(leaf_labels(doc["tree"])) == list(range(1, k + 1))

    def test_sphere_dimension_two(self):
        c = random_cleavage(3, 3, n=2)
        assert c.n == 2
        assert c.timber(1).dim == 3

    def test_tree_shapes_vary(self):
        # both k=3 shapes must show up under one rng stream
        rng = np.random.default_rng(0)
        left_heavy = right_heavy = 0
        for _ in range(120):
            doc = random_cleavage(rng, 3).to_json()
            if "plane" in doc["tree"]["left"]:
                left_heavy += 1
            else:
                right_heavy += 1
        assert left_heavy > 10 and right_heavy > 10

    def test_plane_normal_is_unit(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3):
            h = random_plane(rng, dim)
            assert abs(np.linalg.norm(h.normal) - 1.0) < 1e-12
            assert abs(h.offset) <= 1.0


class TestFatCleavage:
    def test_traces_meet_floor(self):
        c = fat_cleavage(0, 4, min_arc=0.2)
        assert all(tr.arcs.measure() >= 0.2 for tr in c.traces)

    def test_impossible_floor_raises(self, monkeypatch):
        monkeypatch.setattr(sampling, "MAX_TRIES", 40)
        with pytest.raises(SamplingError, match="no fat decoration for k=2, min_arc=7.0 after 40 draws"):
            fat_cleavage(0, 2, min_arc=7.0)

    def test_budget_counts_every_draw(self, monkeypatch):
        # Most k = 5 trees fail validation.  Nesting random_cleavage's budget
        # inside its own allowed MAX_TRIES**2 draws; this call made 293.
        calls = []
        draw = sampling._draw_tree
        monkeypatch.setattr(sampling, "_draw_tree", lambda *a, **kw: calls.append(1) or draw(*a, **kw))
        monkeypatch.setattr(sampling, "MAX_TRIES", 40)
        with pytest.raises(SamplingError, match="40"):
            fat_cleavage(0, 5, min_arc=7.0)
        assert len(calls) == 40

    def test_accepts_shared_rng(self):
        rng = np.random.default_rng(9)
        a = fat_cleavage(rng, 3)
        b = fat_cleavage(rng, 3)
        assert json.dumps(a.to_json()) != json.dumps(b.to_json())


class TestBadKnobs:
    @pytest.mark.parametrize("knobs", [
        {"k": 0}, {"k": -1}, {"k": 2.5}, {"k": 2.0}, {"k": True}, {"k": None},
        {"n": 0}, {"n": -1}, {"n": 1.5}, {"n": True}, {"n": None},
    ], ids=lambda knobs: ",".join(f"{k}={v!r}" for k, v in knobs.items()))
    @pytest.mark.parametrize("sampler", [random_cleavage, random_tree])
    def test_rejected_before_any_draw(self, sampler, knobs):
        # n = 0 used to spend its whole budget on trees validate rejects, n = -1
        # raised IndexError, k = 2.5 TypeError, and n = True wrote "n": true.
        args = {"k": 2, "n": 1, **knobs}
        name = "arity" if "k" in knobs else "sphere dimension"
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        with pytest.raises(SamplingError, match=f"{name} must be an integer >= 1, got {knobs[next(iter(knobs))]!r}"):
            sampler(rng, args["k"], n=args["n"])
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("seed", [2.5, "a", -1, True, None, np.float64(3.0)], ids=repr)
    def test_bad_seed_rejected(self, seed):
        # 2.5 and "a" raised numpy's TypeError, -1 its ValueError, True seeded 1 and None drew fresh entropy.
        for sampler in (random_cleavage, fat_cleavage):
            with pytest.raises(SamplingError, match=re.escape(f"seed must be a numpy Generator or an integer >= 0, got {seed!r}")):
                sampler(seed, 3)

    @pytest.mark.parametrize("min_arc", [float("nan"), float("inf"), -float("inf"), "0.1", None, True],
                             ids=repr)
    def test_bad_floor_rejected_before_any_draw(self, min_arc):
        # nan and inf spent the whole budget (about 2 s), "0.1" and None raised TypeError from the filter.
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        with pytest.raises(SamplingError, match=re.escape(f"min_arc must be a finite number, got {min_arc!r}")):
            fat_cleavage(rng, 3, min_arc=min_arc)
        assert rng.bit_generator.state == before

    def test_fat_cleavage_rejects_a_bad_arity(self):
        with pytest.raises(SamplingError, match="arity"):
            fat_cleavage(0, 2.5)

    def test_numpy_integers_are_whole_numbers(self):
        a = random_cleavage(7, np.int64(3), n=np.int64(1)).to_json()
        assert json.dumps(a) == json.dumps(random_cleavage(7, 3).to_json())
        assert json.dumps(random_cleavage(np.int64(7), 3).to_json()) == json.dumps(a)


def assert_same_cleavage(got: operad.Cleavage, ref: operad.Cleavage) -> None:
    """Tree JSON, plane bits, cut paths and bodies, and traces, bit for bit."""
    assert json.dumps(got.to_json()) == json.dumps(ref.to_json())
    assert (got.n, got.k, got.incoming.dim) == (ref.n, ref.k, ref.incoming.dim)

    def planes(body):
        return [(h.normal.tobytes(), np.float64(h.offset).tobytes(), side) for h, side in body.constraints]

    assert len(got.cuts) == len(ref.cuts)
    for a, b in zip(got.cuts, ref.cuts):
        assert a.path == b.path
        assert a.plane.normal.tobytes() == b.plane.normal.tobytes()
        assert not a.plane.normal.flags.writeable
        assert type(a.plane.offset) is float and np.float64(a.plane.offset).tobytes() == np.float64(b.plane.offset).tobytes()
        assert planes(a.body) == planes(b.body)
    for label, (a, b) in enumerate(zip(got.traces, ref.traces), start=1):
        assert a.body is got.timber(label)
        assert planes(a.body) == planes(b.body)
        if got.n == 1:
            assert np.array(a.arcs.arcs).tobytes() == np.array(b.arcs.arcs).tobytes()
        else:
            assert a.points is b.points
            assert a.mask.tobytes() == b.mask.tobytes()


class TestLazySampler:
    """The float draws and the early-stopping walk against the eager sampler: oracles.random_tree + validate."""

    @given(st.integers(0, 10 ** 6), st.integers(1, 7), st.sampled_from([1, 2]))
    @example(3, 5, 1)  # its first candidate fails at root.left, the second of its four cuts
    @example(1, 4, 1)  # its first candidate fails on the right side of root.left only
    @settings(max_examples=100, deadline=None)
    def test_random_cleavage_matches_eager(self, seed, k, n):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with mock.patch.object(sampling, "_draw_tree", wraps=sampling._draw_tree) as draws:
            got = random_cleavage(rng, k, n)
        ref, drawn = eager_cleavage(ref_rng, k, n)
        assert draws.call_count == drawn
        assert_same_cleavage(got, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @given(st.integers(0, 10 ** 6), st.integers(1, 7), st.sampled_from([0.0, 0.05, 0.15, 0.4]))
    @settings(max_examples=60, deadline=None)
    def test_fat_cleavage_matches_eager(self, seed, k, min_arc):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with mock.patch.object(sampling, "_draw_tree", wraps=sampling._draw_tree) as draws:
            try:
                got = fat_cleavage(rng, k, min_arc=min_arc)
            except SamplingError:
                got = None
        ref, drawn = eager_cleavage(ref_rng, k, 1, lambda c: all(tr.arcs.measure() >= min_arc for tr in c.traces))
        assert draws.call_count == drawn
        assert (got is None) == (ref is None)
        if ref is not None:
            assert_same_cleavage(got, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("seed, k, message", [
        (3, 5, "cut at root.left leaves no sphere trace on the left side"),
        (1, 4, "cut at root.left leaves no sphere trace on the right side"),
    ], ids=["second-of-four-cuts", "right-side-only"])
    def test_a_rejected_candidate_draws_all_its_numbers(self, seed, k, message):
        """The walk stops at the failing cut, but the cuts after it are still drawn."""
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        root = geom.sphere_trace(geom.unit_disk(2))
        with pytest.raises(operad.NonCleaving, match=message):
            operad._cleave(sampling._draw_tree(rng, k, 1), root)
        with pytest.raises(operad.NonCleaving, match=message):
            operad.validate(random_tree(ref_rng, k, 1), 1)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_offset_normalised_twice_before_its_check(self):
        """A flat offset below 1 that reaches 1 only after the second normalisation misses the sphere."""
        normal = [-0.7434992493538084, -0.9217253762584194]  # |normal / |normal|| rounds to 1 - 2**-52
        top = 1.0 - 2.0 ** -53  # the largest draw of random(): uniform(-1, 1) gives 1 - 2**-52

        class Planted:
            """Hands out the planted draws for one cut and two leaves."""

            def integers(self, m):
                return 0

            def permutation(self, k):
                return np.arange(k)

            def standard_normal(self, dim):
                return np.array(normal)

            def random(self):
                return top

            def uniform(self, low, high):
                return low + (high - low) * top

        assert Planted().uniform(-1.0, 1.0) < 1.0
        message = "cut at root misses the sphere: |offset| = 1.0 is not < 1"
        with pytest.raises(operad.DegeneratePlane, match=re.escape(message)):
            operad._cleave(sampling._draw_tree(Planted(), 2, 1), geom.sphere_trace(geom.unit_disk(2)))
        with pytest.raises(operad.DegeneratePlane, match=re.escape(message)):
            operad.validate(random_tree(Planted(), 2, 1), 1)
