"""End-to-end checks of the command line front end."""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cleav import cli
from cleav import fixtures as fx
from cleav import sampling, suites
from cleav.operad import cleavage_from_json

ROT_CHORD = {
    "n": 1,
    "tree": {
        "plane": {"normal": [0.0, 1.0], "offset": 0.0},
        "left": {"leaf": 1},
        "right": {"leaf": 2},
    },
}


def run(capsys, *argv):
    rc = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestGen:
    def test_byte_identical_reruns(self, capsys):
        rc1, out1, err1 = run(capsys, "gen", "--k", 4, "--seed", 9)
        rc2, out2, _ = run(capsys, "gen", "--k", 4, "--seed", 9)
        assert rc1 == rc2 == 0
        assert out1 == out2 and out1.strip()
        echoed = json.loads(err1)
        assert echoed["config"]["command"] == "gen"
        assert echoed["config"]["seed"] == 9

    def test_output_revalidates(self, capsys):
        rc, out, _ = run(capsys, "gen", "--k", 3, "--seed", 1)
        assert rc == 0
        assert cleavage_from_json(json.loads(out)).k == 3

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("CLEAVE_SEED", "11")
        _, out_env, _ = run(capsys, "gen", "--k", 2)
        monkeypatch.delenv("CLEAVE_SEED")
        _, out_flag, _ = run(capsys, "gen", "--k", 2, "--seed", 11)
        assert out_env == out_flag

    def test_default_seed_is_zero(self, capsys, monkeypatch):
        monkeypatch.delenv("CLEAVE_SEED", raising=False)
        _, out_default, _ = run(capsys, "gen", "--k", 2)
        _, out_zero, _ = run(capsys, "gen", "--k", 2, "--seed", 0)
        assert out_default == out_zero

    def test_sphere_dimension_three_is_usage_error(self, capsys):
        rc, _, _ = run(capsys, "gen", "--n", 3)
        assert rc == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "c.json"
        rc, out, _ = run(capsys, "gen", "--k", 2, "--seed", 4, "--out", target)
        assert rc == 0 and out == ""
        assert cleavage_from_json(json.loads(target.read_text())).k == 2

    def test_tol_is_a_usage_error(self, capsys):
        assert run(capsys, "gen", "--k", 2, "--tol", "1e-3")[0] == 2

    @pytest.mark.parametrize("command", [["gen", "--k", 2], ["check", "degree"]])
    def test_negative_seed_flag_is_a_domain_error(self, capsys, command):
        rc, out, err = run(capsys, *command, "--seed=-1")
        assert (rc, out, err) == (1, "", "error: seed must be non-negative, got -1\n")

    def test_negative_env_seed_is_a_domain_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CLEAVE_SEED", "-3")
        rc, out, err = run(capsys, "gen", "--k", 2)
        assert (rc, out, err) == (1, "", "error: CLEAVE_SEED must be non-negative, got -3\n")


class TestInspect:
    def test_chord_summary(self, capsys, tmp_path):
        doc = write_json(tmp_path, "chord.json", fx.chord_cleavage().to_json())
        rc, out, _ = run(capsys, "inspect", doc)
        assert rc == 0
        assert "arity 2" in out
        assert "components 1" in out
        assert "stable degree for dim 2: (2, 0), sum 2" in out
        assert "2: 8" in out  # every thickened sample has two preimages

    def test_leaf_has_no_samples(self, capsys, tmp_path):
        doc = write_json(tmp_path, "leaf.json", {"n": 1, "tree": {"leaf": 1}})
        rc, out, _ = run(capsys, "inspect", doc)
        assert rc == 0
        assert out.endswith("\npreimage sizes over 0 samples: \n")

    def test_corridor_summary(self, capsys, tmp_path):
        doc = write_json(tmp_path, "tri.json", fx.corridor_cleavage().to_json())
        rc, out, _ = run(capsys, "inspect", doc, "--dim-m", 2)
        assert rc == 0
        assert "arity 3" in out
        assert "components 2" in out
        assert "stable degree for dim 2: (4, 0), sum 4" in out

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{this is not json")
        rc, _, err = run(capsys, "inspect", path)
        assert rc == 1 and "error:" in err

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, "inspect", tmp_path / "nope.json")
        assert rc == 1 and "error:" in err

    @pytest.mark.parametrize("plane, message", [
        ({"normal": [0.0, 1.0]}, "plane missing field 'offset'"),
        ({"normal": [0.0, 1.0], "offset": None}, "'offset' must be a real number"),
        ([[0.0, 1.0], 0.0], "plane must be an object"),
        ({"normal": [0.0, 1.0], "offset": "0.5"}, "'offset' must be a real number"),
        ({"normal": [0.0, 1.0], "offset": math.nan}, "cut at root misses the sphere"),
    ], ids=["no-offset", "null-offset", "list-plane", "string-offset", "nan-offset"])
    def test_malformed_plane_is_a_one_line_domain_error(self, capsys, tmp_path, plane, message):
        # These used to end in a KeyError or TypeError traceback, in a later
        # "no chord inside its region" error for NaN, or, for the string
        # offset, in a summary of the chord at offset 0.5.
        tree = {**ROT_CHORD["tree"], "plane": plane}
        doc = write_json(tmp_path, "bad.json", {**ROT_CHORD, "tree": tree})
        rc, out, err = run(capsys, "inspect", doc)
        assert (rc, out) == (1, "")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("normal", [[], [1e308, 1e308]], ids=["empty", "overflowing"])
    def test_bad_normal_is_a_one_line_domain_error(self, capsys, tmp_path, normal):
        # The empty normal used to end in an IndexError traceback; the
        # overflowing one was stored as the zero normal after two overflow
        # RuntimeWarnings, and inspect printed a piece of length 0.0000.
        tree = {**ROT_CHORD["tree"], "plane": {"normal": normal, "offset": 0.0}}
        doc = write_json(tmp_path, "bad.json", {**ROT_CHORD, "tree": tree})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out, err = run(capsys, "inspect", doc)
        assert (rc, out, caught) == (1, "", [])
        assert err.startswith("error: hyperplane normal must be nonempty") and err.count("\n") == 1


class TestComposePermute:
    def test_compose_grafts_rotated_chord(self, capsys, tmp_path):
        outer = write_json(tmp_path, "outer.json", fx.chord_cleavage().to_json())
        inner = write_json(tmp_path, "inner.json", ROT_CHORD)
        rc, out, err = run(capsys, "compose", outer, 1, inner)
        assert rc == 0
        composed = cleavage_from_json(json.loads(out))
        assert composed.k == 3
        assert json.loads(err)["config"]["slot"] == 1

    def test_compose_bad_slot(self, capsys, tmp_path):
        outer = write_json(tmp_path, "outer.json", fx.chord_cleavage().to_json())
        inner = write_json(tmp_path, "inner.json", ROT_CHORD)
        rc, _, err = run(capsys, "compose", outer, 9, inner)
        assert rc == 1 and "error:" in err

    def test_permute_involution(self, capsys, tmp_path):
        doc = write_json(tmp_path, "chord.json", fx.chord_cleavage().to_json())
        rc, once, _ = run(capsys, "permute", doc, "2,1")
        assert rc == 0
        again = write_json(tmp_path, "swapped.json", json.loads(once))
        rc, twice, _ = run(capsys, "permute", again, "2,1")
        assert rc == 0
        original = json.dumps(fx.chord_cleavage().to_json(), indent=2, sort_keys=True)
        assert twice.strip() == original

    def test_permute_rejects_non_bijection(self, capsys, tmp_path):
        doc = write_json(tmp_path, "chord.json", fx.chord_cleavage().to_json())
        assert run(capsys, "permute", doc, "2,2")[0] == 1
        assert run(capsys, "permute", doc, "a,b")[0] == 1


class TestUmkehr:
    def test_concentric_quarter_scale(self, capsys, tmp_path):
        doc = write_json(tmp_path, "chord.json", fx.chord_cleavage().to_json())
        loops = write_json(tmp_path, "loops.json", fx.mirrored_pair(0.05).to_json())
        rc, out, err = run(capsys, "umkehr", doc, loops, "--epsilon", 0.2)
        assert rc == 0
        value = json.loads(out)
        assert sorted(value["config"]) == [
            "command", "density", "doc", "epsilon", "eta", "eta_radians", "eta_steps",
            "loops", "mapping", "sup_scope", "t_homotopy", "tol",
        ]
        assert value["config"]["command"] == "umkehr"
        assert value["config"]["epsilon"] == 0.2
        # The fixed exclusion radius and pooling scope are still echoed.
        assert value["config"]["eta_steps"] == 2.0
        assert value["config"]["sup_scope"] == "component"
        comp = value["components"][0]
        assert comp["status"] == "finite"
        top = max(e["scale"] for e in comp["entries"])
        assert abs(top - 0.25) <= 1e-9
        assert "finite" in err

    def test_far_pair_collapses(self, capsys, tmp_path):
        doc = write_json(tmp_path, "chord.json", fx.chord_cleavage().to_json())
        loops = write_json(tmp_path, "loops.json", fx.mirrored_pair(0.3).to_json())
        rc, out, _ = run(capsys, "umkehr", doc, loops, "--epsilon", 0.2)
        assert rc == 0
        comp = json.loads(out)["components"][0]
        assert comp["status"] == "infinity"
        assert comp["entries"] == []

    def test_homotopy_flag_calms_invader(self, capsys, tmp_path):
        doc = write_json(tmp_path, "tri.json", fx.corridor_cleavage().to_json())
        loops = write_json(tmp_path, "trio.json", fx.corridor_trio(62.0).to_json())
        rc, out, _ = run(capsys, "umkehr", doc, loops, "--epsilon", 0.2,
                         "--density", 24)
        assert rc == 0
        assert json.loads(out)["components"][0]["status"] == "infinity"
        rc, out, _ = run(capsys, "umkehr", doc, loops, "--epsilon", 0.2,
                         "--density", 24, "--t", 1)
        assert rc == 0
        assert json.loads(out)["components"][0]["status"] == "finite"

    def test_mapping_glues_coincident_pair(self, capsys, tmp_path):
        doc = write_json(tmp_path, "chord.json", fx.chord_cleavage().to_json())
        loops = write_json(tmp_path, "loops.json", fx.mirrored_pair(0.0).to_json())
        rc, out, _ = run(capsys, "umkehr", doc, loops, "--epsilon", 0.2, "--mapping")
        assert rc == 0
        comp = json.loads(out)["components"][0]
        assert comp["uf_mask"], "coincident samples must be glued"
        glued = {e["sample"] for e in comp["entries"] if e["scale"] == 0.0}
        assert set(comp["uf_mask"]) <= glued

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "inf"), ("--tol", "nan"), ("--epsilon", "inf"), ("--eta", "inf"),
    ])
    def test_non_finite_knob_is_a_one_line_domain_error(self, capsys, tmp_path, flag, value):
        doc = write_json(tmp_path, "chord.json", fx.chord_cleavage().to_json())
        loops = write_json(tmp_path, "loops.json", fx.mirrored_pair(0.05).to_json())
        argv = ["umkehr", doc, loops, "--epsilon", 0.2, flag, value]
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag.lstrip("-") in err and "come within" not in err

    def test_infinite_torus_period_is_a_one_line_domain_error(self, capsys, tmp_path):
        # An infinite period used to pass validation and end in "clearance
        # needs a geodesic of positive length" after numpy RuntimeWarnings.
        doc = write_json(tmp_path, "chord.json", fx.chord_cleavage().to_json())
        loops = fx.mirrored_pair(0.05).to_json()
        loops["metric"] = {"kind": "torus", "d": 2, "L": float("inf")}
        path = write_json(tmp_path, "loops.json", loops)
        assert '"L": Infinity' in path.read_text()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out, err = run(capsys, "umkehr", doc, path, "--epsilon", 0.2)
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "torus period" in err
        assert caught == []

    def test_huge_torus_period_is_a_one_line_domain_error(self, capsys, tmp_path):
        # A finite period too large for the strands' edges used to be
        # reported as "strand 1 repeats vertex 0".
        doc = write_json(tmp_path, "chord.json", fx.chord_cleavage().to_json())
        loops = fx.mirrored_pair(0.05).to_json()
        loops["metric"] = {"kind": "torus", "d": 2, "L": 1e16}
        path = write_json(tmp_path, "loops.json", loops)
        rc, out, err = run(capsys, "umkehr", doc, path, "--epsilon", 0.2)
        assert rc == 1 and out == ""
        assert err.startswith("error: torus period 1e+16 is too large") and err.count("\n") == 1
        assert "repeats vertex" not in err

    def test_huge_epsilon_raises_no_warning(self, capsys, tmp_path):
        # The tube half-width was formed from t on every row, also far outside
        # [0, 1], so 1.7e308 overflowed in numpy's multiply before the inside
        # mask dropped those rows.
        doc = write_json(tmp_path, "chord.json", fx.chord_cleavage().to_json())
        loops = write_json(tmp_path, "rings.json", fx.mirrored_pair(0.05).to_json())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out, err = run(capsys, "umkehr", doc, loops, "--epsilon", "1.7e308")
        assert rc == 0 and json.loads(out)["config"]["epsilon"] == 1.7e308
        assert caught == [] and "Warning" not in err

    def test_coordinates_whose_squares_overflow_are_a_one_line_domain_error(self, capsys, tmp_path):
        # With its first ring scaled by 1e307, mirrored_pair used to print three
        # overflow warnings and "component 0: infinity, all 8 samples collapsed".
        doc = write_json(tmp_path, "chord.json", fx.chord_cleavage().to_json())
        loops = fx.mirrored_pair(0.05).to_json()
        loops["loops"][0] = [[x * 1e307 for x in p] for p in loops["loops"][0]]
        path = write_json(tmp_path, "big.json", loops)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out, err = run(capsys, "umkehr", doc, path, "--epsilon", 0.2)
        assert rc == 1 and out == ""
        assert err == "error: strand 1 has a coordinate of magnitude 5e+306: squared distances " \
                      "between its points overflow\n"
        assert caught == [] and "Traceback" not in err

    def test_strand_given_as_an_object_is_a_one_line_domain_error(self, capsys, tmp_path):
        # numpy's TypeError on the object used to escape as a traceback.
        doc = write_json(tmp_path, "chord.json", fx.chord_cleavage().to_json())
        loops = fx.mirrored_pair(0.05).to_json()
        loops["loops"][0] = {"vertices": loops["loops"][0]}
        path = write_json(tmp_path, "loops.json", loops)
        rc, out, err = run(capsys, "umkehr", doc, path, "--epsilon", 0.2)
        assert (rc, out) == (1, "")
        assert err == "error: strand 1 must be an (m, 2) vertex array\n"

    def test_epsilon_is_required(self, capsys, tmp_path):
        doc = write_json(tmp_path, "chord.json", fx.chord_cleavage().to_json())
        loops = write_json(tmp_path, "loops.json", fx.mirrored_pair(0.1).to_json())
        assert run(capsys, "umkehr", doc, loops)[0] == 2


class TestCheck:
    def test_degree_suite_passes(self, capsys):
        rc, out, err = run(capsys, "check", "degree", "--seed", 0)
        assert rc == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["config"] == {"command": "check", "suite": "degree", "seed": 0}
        assert "[PASS] degree" in err

    def test_partition_suite_passes(self, capsys):
        rc, out, _ = run(capsys, "check", "partition")
        assert rc == 0 and json.loads(out)["failures"] == 0

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run(capsys, "check", "bogus")[0] == 2

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        def forced(seed=0, **kw):
            return suites.SuiteReport("degree", False, 1, 1, {}, {"kind": "forced"})

        monkeypatch.setitem(suites.SUITES, "degree", forced)
        rc, out, err = run(capsys, "check", "degree")
        assert rc == 1
        assert json.loads(out)["counterexample"] == {"kind": "forced"}
        assert "[FAIL]" in err


class TestExportObj:
    def test_obj_stream(self, capsys, tmp_path):
        doc = write_json(tmp_path, "tri.json", fx.corridor_cleavage().to_json())
        rc, out, _ = run(capsys, "export-obj", doc)
        assert rc == 0
        assert out.startswith("#")
        assert any(line.startswith("v ") for line in out.splitlines())

    def test_obj_to_file(self, capsys, tmp_path):
        doc = write_json(tmp_path, "chord.json", fx.chord_cleavage().to_json())
        target = tmp_path / "diagram.obj"
        rc, out, _ = run(capsys, "export-obj", doc, "--out", target)
        assert rc == 0 and out == ""
        assert target.read_text().startswith("#")


FLOAT_KNOB = st.sampled_from(
    ["nan", "inf", "-inf", "-1", "-1e-3", "0", "1e-12", "1e-3", "0.2", "1", "3.5", "1e308"])
# Small integers only: a huge density or arity allocates without bound, and
# sampling a cleavage of arity 9 or more takes seconds.
INT_KNOB = st.integers(-3, 8)


def knobs(*pools):
    """Each flag left out or given as --flag=value, so values starting with '-' still parse."""
    drawn = [st.none() | pool.map(lambda v, flag=flag: f"{flag}={v}") for flag, pool in pools]
    return st.tuples(*drawn).map(lambda flags: [f for f in flags if f is not None])


ARGV = st.one_of(
    knobs(("--k", INT_KNOB), ("--seed", INT_KNOB), ("--n", st.sampled_from([1, 2]))).map(
        lambda flags: ["gen"] + flags),
    st.tuples(st.sampled_from(["chord", "tri"]),
              knobs(("--dim-m", INT_KNOB), ("--density", INT_KNOB), ("--tol", FLOAT_KNOB))).map(
        lambda drawn: ["inspect", drawn[0]] + drawn[1]),
    st.tuples(st.sampled_from(["chord", "tri"]), st.sampled_from(["pair", "three", "torus"]),
              FLOAT_KNOB, st.booleans(),
              knobs(("--t", FLOAT_KNOB), ("--eta", FLOAT_KNOB), ("--tol", FLOAT_KNOB),
                    ("--density", INT_KNOB))).map(
        lambda drawn: ["umkehr", drawn[0], drawn[1], f"--epsilon={drawn[2]}"]
        + ["--mapping"] * drawn[3] + drawn[4]),
)


@pytest.fixture(scope="module")
def knob_files(tmp_path_factory):
    """Cleavage and strand documents for the knob fuzz, by name."""
    root = tmp_path_factory.mktemp("knobs")
    shifted = [fx.fourier_loop(seed, m=16) + [3.0 * seed, 0.0] for seed in range(3)]
    docs = {
        "chord": fx.chord_cleavage().to_json(),
        "tri": sampling.random_cleavage(3, 3).to_json(),
        "pair": fx.mirrored_pair(0.05).to_json(),
        "three": {"metric": {"kind": "euclidean", "d": 2},
                  "loops": [loop.tolist() for loop in shifted]},
        "torus": {"metric": {"kind": "torus", "d": 2, "L": 4.0},
                  "loops": [np.mod(loop, 4.0).tolist() for loop in shifted[:2]]},
    }
    return {name: str(write_json(root, f"{name}.json", doc)) for name, doc in docs.items()}


class TestKnobFuzz:
    @given(ARGV)
    @settings(max_examples=200, deadline=None)
    def test_parsed_runs_exit_0_or_1_with_one_error_line(self, knob_files, argv):
        argv = [knob_files.get(arg, arg) for arg in argv]
        cli._build_parser().parse_args(argv)  # raises SystemExit if a drawn vector fails to parse
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        assert caught == []
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert "Traceback" not in err.getvalue()
        if rc == 1:
            assert len(errors) == 1 and out.getvalue() == ""
        else:
            assert rc == 0 and not errors


def stdlib_dump(value):
    return json.dumps(value, indent=2, sort_keys=True)


def outcome(dump, value):
    """The text ``dump`` gives for ``value``, or the type and message it raises."""
    try:
        return dump(value)
    except Exception as exc:
        return type(exc), str(exc)


EDGE_FLOATS = st.sampled_from([
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    1e308, -1.7976931348623157e308, 0.1, 1e16, 1e-7,
])
FLOATS = st.floats() | EDGE_FLOATS
NUMBERS = FLOATS | st.integers() | st.sampled_from([2**64, -(2**100), 10**300])
ODD_TEXT = st.sampled_from(["é", "ü∑", "\U0001f600", '"', "\\", "\x00", "\x1f\n\t", "[", "{",
                            ", ", '", "', "[]", "{}", '"quoted, [x]": {y}'])
TEXT = st.text() | ODD_TEXT | st.text(alphabet=st.sampled_from(list('[]{}", \\:é\x01')))
SCALARS = st.none() | st.booleans() | NUMBERS | FLOATS.map(np.float64) | TEXT


def rows(width, elements=NUMBERS):
    return st.lists(st.lists(elements, min_size=width, max_size=width), min_size=1, max_size=6)


# The lists the writer joins or templates, and the near misses it must write one by one.
ROWS = st.one_of(
    st.integers(1, 4).flatmap(rows),
    st.lists(st.lists(NUMBERS, max_size=4), min_size=1, max_size=6),  # ragged, empty rows
    st.integers(1, 3).flatmap(lambda w: rows(w).map(lambda r: r + [[]])),
    st.integers(1, 3).flatmap(lambda w: rows(w, SCALARS)),
    st.lists(NUMBERS | st.lists(NUMBERS, max_size=3), min_size=1, max_size=6),
    st.lists(FLOATS, min_size=1, max_size=4).flatmap(
        lambda head: SCALARS.map(lambda tail: head + [tail])),
    st.integers(1, 3).flatmap(rows).map(lambda r: tuple(tuple(x) for x in r)),
    st.integers(1, 3).flatmap(rows).map(lambda r: r + [tuple(r[0])]),
    st.integers(1, 3).flatmap(rows).map(lambda r: [r]),
)
JSON = st.recursive(
    SCALARS | ROWS,
    lambda inner: st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=5),
    max_leaves=15,
)


class Opaque:
    """A value of a type neither encoder knows."""


# Int keys and unknown values are left to json.dumps, which converts or rejects them.
FALLBACK = st.recursive(
    JSON | st.builds(Opaque) | st.sampled_from([{1, 2}, 1j, b"bytes"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.integers() | TEXT | st.none() | st.booleans() | FLOATS, inner,
                      max_size=4),
    max_leaves=10,
)


class TestDump:
    @given(JSON)
    @settings(max_examples=200, deadline=None)
    def test_matches_json_dumps(self, value):
        assert cli._dump(value) == stdlib_dump(value)

    @given(FALLBACK)
    @settings(max_examples=100, deadline=None)
    def test_falls_back_with_the_same_result_or_error(self, value):
        assert outcome(cli._dump, value) == outcome(stdlib_dump, value)

    @pytest.mark.parametrize("value", [
        [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]], [[1.0], [2.0, 3.0]], [[1.0, 2.0], []], [[], [1.0]],
        [[1.0, math.nan]], [[1.0], (2.0,)], [[1.0], [True]], [[1.0], [[2.0]]], [[1.0], 2.0],
        [1.0, "a, [b]"], [0.5, [1.0]], [1, -0.0, math.inf], (np.float64(0.1), 2), [[np.float64(1e-7)]],
        {"k": [[1, 2], [3, 4]], "": {}, "é": []},
    ], ids=["ragged-same-total", "ragged", "empty-last-row", "empty-first-row", "nan-in-row",
            "tuple-row", "bool-in-row", "nested-row", "row-then-number", "string-after-float",
            "list-after-float", "special-floats", "float64-tuple", "float64-row", "mixed-dict"])
    def test_near_misses(self, value):
        assert cli._dump(value) == stdlib_dump(value)

    @pytest.mark.parametrize("value", [
        {1: 2, 0: [3.0]}, {"a": Opaque()}, [1.0, Opaque()], [[1.0], [Opaque()]], {"a": 1, 2: 3},
        {(1, 2): 3}, 10**5000, [10**5000], [[1.0, 10**5000]], {"x": [[[]]]},
    ], ids=["int-keys", "opaque-value", "opaque-in-numbers", "opaque-in-rows", "mixed-keys",
            "tuple-key", "huge-int", "huge-int-in-numbers", "huge-int-in-rows", "nested-empty"])
    def test_fallback_cases(self, value):
        assert outcome(cli._dump, value) == outcome(stdlib_dump, value)

    def test_cycle_gives_the_stdlib_error(self):
        loop = [1.0]
        loop.append(loop)
        assert outcome(cli._dump, loop) == (ValueError, "Circular reference detected")


class TestStdoutLayout:
    """Every document the CLI prints is json.dumps(doc, indent=2, sort_keys=True)."""

    @pytest.fixture
    def docs(self, tmp_path):
        # The odd loops file name makes the echoed config exercise string escapes.
        trio = fx.corridor_trio(62.0)
        return {
            "chord": write_json(tmp_path, "chord.json", fx.chord_cleavage().to_json()),
            "rot": write_json(tmp_path, "rot.json", ROT_CHORD),
            "tri": write_json(tmp_path, "tri.json", fx.corridor_cleavage().to_json()),
            "pair": write_json(tmp_path, 'loops é [1], "q".json', fx.mirrored_pair(0.05).to_json()),
            "glued": write_json(tmp_path, "glued.json", fx.mirrored_pair(0.0).to_json()),
            "torus": write_json(tmp_path, "torus.json", {
                "metric": {"kind": "torus", "d": 2, "L": 4.0},
                "loops": [np.mod(loop, 4.0).tolist() for loop in trio.loops],
            }),
            "trio": write_json(tmp_path, "trio.json", trio.to_json()),
        }

    @pytest.mark.parametrize("argv", [
        ["gen", "--k", 4, "--seed", 9],
        ["gen", "--n", 2, "--k", 3, "--seed", 2],
        ["compose", "chord", 1, "rot"],
        ["permute", "tri", "3,1,2"],
        ["umkehr", "chord", "pair", "--epsilon", 0.2],
        ["umkehr", "chord", "glued", "--epsilon", 0.2, "--mapping"],
        ["umkehr", "tri", "trio", "--epsilon", 0.2, "--density", 24],
        ["umkehr", "tri", "torus", "--epsilon", 0.2, "--density", 24],
        ["check", "degree", "--seed", 0],
    ], ids=lambda argv: " ".join(map(str, argv)))
    def test_stdout_is_the_stdlib_text(self, capsys, docs, argv):
        rc, out, _ = run(capsys, *[docs.get(arg, arg) for arg in argv])
        assert rc == 0
        assert out == stdlib_dump(json.loads(out)) + "\n"

    def test_escaped_path_is_echoed(self, capsys, docs):
        rc, out, _ = run(capsys, "umkehr", docs["chord"], docs["pair"], "--epsilon", 0.2)
        assert rc == 0
        assert json.loads(out)["config"]["loops"] == str(docs["pair"])
        assert '\\u00e9 [1], \\"q\\".json' in out

    def test_one_parser_serves_every_call(self, capsys, docs):
        argv = ["umkehr", docs["chord"], docs["pair"], "--epsilon", 0.2]
        rc, out, _ = run(capsys, *argv, "--mapping")
        assert rc == 0 and json.loads(out)["config"]["mapping"] is True
        rc, out, _ = run(capsys, *argv)
        assert rc == 0 and json.loads(out)["config"]["mapping"] is False
        assert run(capsys, *argv[:3])[0] == 2  # no --epsilon
        rc, out, _ = run(capsys, *argv, "--t", 0.5)
        assert rc == 0 and json.loads(out)["config"]["t_homotopy"] == 0.5
        assert cli._build_parser() is cli._build_parser()


def _cpu_flags() -> set:
    """The flags of the first CPU in /proc/cpuinfo, or none where it cannot be read."""
    try:
        lines = pathlib.Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return set(next((line for line in lines if line.startswith("flags")), ":").split(":", 1)[1].split())


def _numpy_on_openblas() -> bool:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its config
        return False
    return "openblas" in config["Build Dependencies"]["blas"]["name"].lower()


# The README worked example, then a corridor evaluation, whose bytes
# differed between the Haswell and Prescott kernels when dots went through BLAS.
_EXAMPLES = """
from cleav.cli import main
main(["umkehr", "chord.json", "rings.json", "--epsilon", "0.2"])
main(["umkehr", "corridor.json", "trio.json", "--epsilon", "0.2"])
"""


class TestBlasKernels:
    @pytest.mark.skipif(not (_numpy_on_openblas() and "avx2" in _cpu_flags()),
                        reason="needs numpy on OpenBLAS and a CPU with avx2")
    def test_stdout_bytes_do_not_depend_on_the_kernel(self, tmp_path):
        for name, doc in [("chord.json", fx.chord_cleavage()), ("rings.json", fx.mirrored_pair(0.05)),
                          ("corridor.json", fx.corridor_cleavage()),
                          ("trio.json", fx.corridor_trio(63.2))]:
            write_json(tmp_path, name, doc.to_json())
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = {}
        for kernel in ("default", "Prescott", "Haswell"):  # never one the CPU lacks
            env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
            env["PYTHONPATH"] = path
            if kernel != "default":
                env["OPENBLAS_CORETYPE"] = kernel
            outs[kernel] = subprocess.run([sys.executable, "-c", _EXAMPLES], cwd=tmp_path, env=env,
                                          capture_output=True, check=True).stdout
        assert outs["default"].count(b'"components"') == 2
        assert outs["Prescott"] == outs["default"]
        assert outs["Haswell"] == outs["default"]
