"""Self-tests of the benchmark: checkers reject corrupted outputs, runs print every metric.

    python3 -m pytest bench -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_record(name: str, seed: int = 0, n_ops: int = 12, want=lambda op: True):
    """Run the first op of a seeded plan that satisfies `want`; returns (op, record)."""
    workload = WORKLOADS[name]
    ops = workload.plan(np.random.default_rng(seed), n_ops, ROOT / ".bench_out" / "selftest")
    op = next(op for op in ops if want(op))
    return op, workload.record(op, workload.run(op, "selftest"))


@pytest.fixture(scope="module")
def corridor_ops():
    """One op with a collapsing excursion and one without, each in the plane and on the torus."""
    from cleav import fixtures

    critical = fixtures.corridor_critical_deg()
    low = one_record("corridor", n_ops=40, want=lambda op: op["tip"] < critical)
    high = one_record("corridor", n_ops=40, want=lambda op: op["tip"] > critical)
    return low, high


def corridor_check(op, rec):
    return WORKLOADS["corridor"].check(op, rec)


def test_corridor_accepts_real_outputs(corridor_ops):
    for op, rec in corridor_ops:
        assert corridor_check(op, rec) == []
    (_, low), (_, high) = corridor_ops
    for kind in WORKLOADS["corridor"].metrics:
        assert low[kind]["components"][0]["status"] == "infinity"
        assert high[kind]["components"][0]["status"] == "finite"


def test_corridor_rejects_flipped_status(corridor_ops):
    for op, rec in corridor_ops:
        for kind in rec:
            for comp in (0, 1):
                bad = copy.deepcopy(rec)
                c = bad[kind]["components"][comp]
                c["status"] = "finite" if c["status"] == "infinity" else "infinity"
                assert corridor_check(op, bad), f"flipped {kind} component {comp} accepted"


def test_corridor_rejects_torus_disagreeing_with_plane(corridor_ops):
    op, rec = corridor_ops[1]
    bad = copy.deepcopy(rec)
    bad["torus"]["components"][0]["status"] = "infinity"
    problems = corridor_check(op, bad)
    assert any("differ from the plane" in p for p in problems)


def test_corridor_rejects_wrong_preimage_count(corridor_ops):
    op, rec = corridor_ops[1]
    for kind in rec:
        dropped = copy.deepcopy(rec)
        dropped[kind]["components"][0]["entries"].pop()
        assert corridor_check(op, dropped)
        extra = copy.deepcopy(rec)
        entry = copy.deepcopy(extra[kind]["components"][1]["entries"][0])
        entry["pair"] = [1, 3]
        extra[kind]["components"][1]["entries"].append(entry)
        assert corridor_check(op, extra)


@pytest.fixture(scope="module")
def composed_op():
    """One op: six pipelines, one for each arity pair."""
    return one_record("composed", n_ops=1)


def test_composed_accepts_real_output(composed_op):
    op, rec = composed_op
    assert len(rec) == len(WORKLOADS["composed"].arities)
    assert WORKLOADS["composed"].check(op, rec) == []


def test_composed_rejects_flipped_status(composed_op):
    op, rec = composed_op
    for p in range(len(rec)):
        for idx in range(len(rec[p]["value"]["components"])):
            bad = copy.deepcopy(rec)
            c = bad[p]["value"]["components"][idx]
            c["status"] = "finite" if c["status"] == "infinity" else "infinity"
            assert WORKLOADS["composed"].check(op, bad)


def test_composed_rejects_wrong_preimage_count(composed_op):
    op, rec = composed_op
    for p in range(len(rec)):
        bad = copy.deepcopy(rec)
        labels = bad[p]["samples"][0]["participants"]
        labels.append(max(labels) % len(checks.tree_planes(rec[p]["tree"])) + 1)
        assert WORKLOADS["composed"].check(op, bad)
        bad = copy.deepcopy(rec)
        bad[p]["samples"][0]["participants"].pop()
        assert WORKLOADS["composed"].check(op, bad)


def test_composed_rejects_unpaired_entries():
    tangent = [0.6, 0.8]
    entries = [
        {"sample": 0, "pair": [1, 2], "scale": 0.5, "tangent": tangent},
        {"sample": 0, "pair": [2, 1], "scale": 0.5, "tangent": tangent},
    ]
    assert checks._entry_problems(entries, 1e-9)
    entries[1]["tangent"] = [-0.6, -0.8]
    assert checks._entry_problems(entries, 1e-9) == []
    entries[0]["scale"] = entries[1]["scale"] = 1.5
    assert checks._entry_problems(entries, 1e-9)


@pytest.fixture(scope="module")
def suites_round():
    return one_record("suites")


def test_suites_accept_real_round(suites_round):
    op, rec = suites_round
    assert WORKLOADS["suites"].check(op, rec) == []


def test_suites_reject_flipped_pass(suites_round):
    op, rec = suites_round
    for idx in range(len(rec)):
        bad = copy.deepcopy(rec)
        bad[idx]["passed"] = False
        assert WORKLOADS["suites"].check(op, bad)


def test_suites_reject_wrong_preimage_count(suites_round):
    op, rec = suites_round
    bad = copy.deepcopy(rec)
    pre = next(r for r in bad if r["name"] == "preimage")
    hist = pre["details"]["histogram"]
    size = next(iter(hist))
    hist[size] -= 1
    hist["1"] = hist.get("1", 0) + 1
    assert WORKLOADS["suites"].check(op, bad)
    bad = copy.deepcopy(rec)
    next(r for r in bad if r["name"] == "preimage")["checked"] += 1
    assert WORKLOADS["suites"].check(op, bad)


def test_tail_index_leaves_ten_ops_beyond():
    assert run.tail_index(100) == 89
    assert run.tail_index(300) == 289
    assert run.tail_index(22) == 11
    assert run.tail_index(4) == 2


def bench_run(cwd: Path, *args):
    cmd = SPEC["command"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric(workload, trace):
    proc = bench_run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if not trace:
        assert result["metrics"]["ok_rate"]["value"] == 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run(tmp_path, "--workload", "composed", "--seed", "0", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
