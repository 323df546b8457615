"""Seeded generation of random cleavages."""

import json

import numpy as np
import pytest

from cleav import sampling
from cleav.sampling import (
    SamplingError,
    fat_cleavage,
    random_cleavage,
    random_plane,
    resolve_seed,
)


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

    def test_impossible_floor_raises(self):
        with pytest.raises(SamplingError, match="40"):
            fat_cleavage(0, 2, min_arc=7.0, max_tries=40)

    def test_budget_counts_every_draw(self, monkeypatch):
        # Most k = 5 trees fail validation.  Nesting random_cleavage's budget
        # inside its own allowed max_tries**2 draws; this call made 293.
        calls = []
        draw = sampling.random_tree
        monkeypatch.setattr(sampling, "random_tree", lambda *a, **kw: calls.append(1) or draw(*a, **kw))
        with pytest.raises(SamplingError, match="40"):
            fat_cleavage(0, 5, min_arc=7.0, max_tries=40)
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
    @pytest.mark.parametrize("sampler", [random_cleavage, sampling.random_tree])
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

    def test_fat_cleavage_rejects_a_bad_arity(self):
        with pytest.raises(SamplingError, match="arity"):
            fat_cleavage(0, 2.5)

    def test_numpy_integers_are_whole_numbers(self):
        a = random_cleavage(7, np.int64(3), n=np.int64(1)).to_json()
        assert json.dumps(a) == json.dumps(random_cleavage(7, 3).to_json())
