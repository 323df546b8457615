"""Checks that the shared strand families keep their designed margins."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import cleav.fixtures as fx
from cleav.blueprint import build_blueprint, thicken
from cleav.umkehr import UmkehrConfig, strand_distance, umkehr


def _dispatched_features() -> list:
    """numpy's runtime-dispatched CPU features above its build baseline that this CPU has."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy before 2.0
        from numpy.core import _multiarray_umath as core
    baseline = getattr(core, "__cpu_baseline__", [])
    return [name for name in getattr(core, "__cpu_dispatch__", [])
            if name not in baseline and core.__cpu_features__.get(name)]


# sha256 of the vertex bytes of the corridor trio at tip 63.2 and of every locus fixture.
_FIXTURE_DIGEST = """
import hashlib, sys
import numpy as np
from cleav import fixtures
embeddings = [fixtures.corridor_trio(63.2)] + [e for _, e, _, _ in fixtures.locus_fixtures()]
digest = hashlib.sha256(b"".join(np.concatenate(e.loops).tobytes() for e in embeddings))
sys.stdout.write(digest.hexdigest())
"""


@pytest.fixture(scope="module")
def corridor():
    c = fx.corridor_cleavage()
    return c, thicken(build_blueprint(c), density=24)


def pair12_component(tb):
    bp = tb.blueprint
    for cut, comp in zip(bp.cleavage.cuts, bp.piece_components):
        if cut.plane.offset > 0.0:
            return comp
    raise AssertionError("no piece on the positive cut")


class TestCorridor:
    def test_cleavage_shape(self, corridor):
        c, tb = corridor
        assert c.k == 3
        assert tb.blueprint.n_components == 2
        assert len(tb.samples) == 48

    def test_only_the_tip_enters_a_corridor_window(self):
        emb = fx.corridor_trio(62.0)
        windows = [(0.046, 0.050, -75.0, 75.0, 1), (0.038, 0.042, 105.0, 255.0, 0)]
        for lo, hi, a_lo, a_hi, expect in windows:
            count = 0
            for loop in emb.loops:
                r = np.linalg.norm(loop, axis=1)
                ang = np.degrees(np.arctan2(loop[:, 1], loop[:, 0]))
                in_ang = ((ang - a_lo) % 360.0) <= (a_hi - a_lo)
                count += int(np.sum((r > lo + 1e-12) & (r < hi - 1e-12) & in_ang))
            assert count == expect

    def test_corner_pair_distance_is_the_gap(self, corridor):
        c, tb = corridor
        emb = fx.corridor_trio(70.0)
        corner = max(tb.samples, key=lambda s: s.point[1] - 10 * abs(s.point[0] - 0.5))
        pre = dict(corner.preimages)
        assert sorted(pre) == [1, 2]
        gap = np.linalg.norm(emb.points_at(1, [pre[1]])[0] - emb.points_at(2, [pre[2]])[0])
        assert abs(gap - fx.CORRIDOR_GAP) < 1e-12

    def test_strands_stay_apart(self):
        for tip in (61.2, 74.8):
            emb = fx.corridor_trio(tip, jitter_seed=5)
            for i in range(1, 4):
                for j in range(i + 1, 4):
                    assert strand_distance(emb, i, j) >= 2e-4

    def test_transition_brackets_the_critical_angle(self, corridor):
        c, tb = corridor
        crit = fx.corridor_critical_deg()
        assert 62.0 < crit < 62.4
        cfg = UmkehrConfig(epsilon=fx.CORRIDOR_EPSILON)
        comp = pair12_component(tb)
        by_tip = {}
        for tip in (62.0, 62.4):
            tv = umkehr(fx.corridor_trio(tip), c, tb, cfg)
            by_tip[tip] = next(cv for cv in tv.components if cv.component == comp)
        assert by_tip[62.0].status == "infinity"
        assert by_tip[62.4].status == "finite"

    def test_far_tip_keeps_both_components_calm(self, corridor):
        c, tb = corridor
        tv = umkehr(fx.corridor_trio(74.8), c, tb, UmkehrConfig(epsilon=0.2))
        assert all(cv.status == "finite" for cv in tv.components)
        mx = max(e.scale for cv in tv.components for e in cv.entries)
        assert mx < 0.3

    def test_jitter_leaves_components_bit_stable_at_t1(self, corridor):
        c, tb = corridor
        cfg = UmkehrConfig(epsilon=0.2, t_homotopy=1.0)
        ref = umkehr(fx.corridor_trio(63.2), c, tb, cfg)
        ref_comp = json.dumps([cv.to_json() for cv in ref.components])
        ref_rest = json.dumps([a.to_json() for a in ref.restriction])
        for seed in (0, 1):
            tv = umkehr(fx.corridor_trio(63.2, jitter_seed=seed), c, tb, cfg)
            assert json.dumps([cv.to_json() for cv in tv.components]) == ref_comp
            assert json.dumps([a.to_json() for a in tv.restriction]) != ref_rest

    def test_tip_range_is_validated(self):
        with pytest.raises(ValueError):
            fx.corridor_trio(60.0)
        with pytest.raises(ValueError):
            fx.corridor_trio(101.0)


class TestSimplePairs:
    def test_mirrored_pair_scale(self):
        c = fx.chord_cleavage()
        tb = thicken(build_blueprint(c), density=8)
        tv = umkehr(fx.mirrored_pair(0.1), c, tb, UmkehrConfig(epsilon=0.2))
        mx = max(e.scale for cv in tv.components for e in cv.entries)
        assert abs(mx - 0.5) <= 1e-9

    def test_plateau_pair_touches_exactly_on_the_window(self):
        emb = fx.plateau_pair(width=0.3)
        r = np.linalg.norm(emb.loops[1], axis=1)
        assert np.isclose(r.max(), 0.5) and np.isclose(r.min(), 0.45)
        assert int(np.sum(np.isclose(r, 0.5))) >= 20

    def test_locus_fixture_list(self):
        fixtures = fx.locus_fixtures()
        assert len(fixtures) == 20
        names = [name for name, _, _, _ in fixtures]
        assert len(set(names)) == 20
        for _, emb, density, tol in fixtures:
            assert emb.k == 2
            assert density >= 1024
            assert 0.0 < tol < 1e-2

    def test_bytes_do_not_depend_on_simd_dispatch(self):
        # np.arctan2 and np.angle round unlike the baseline build under
        # AVX-512 on some CPUs, and used to move corridor and locus vertices.
        features = _dispatched_features()
        if not features:
            pytest.skip("numpy dispatches no CPU feature above its baseline here")
        src = str(pathlib.Path(fx.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        digests = []
        for disabled in ("", " ".join(features)):
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
            digests.append(subprocess.run([sys.executable, "-c", _FIXTURE_DIGEST], env=env,
                                          capture_output=True, text=True, check=True).stdout)
        assert len(digests[0]) == 64
        assert digests[1] == digests[0]

    def test_fourier_loop_deterministic(self):
        a = fx.fourier_loop(7)
        b = fx.fourier_loop(7)
        assert np.array_equal(a, b)
        assert a.shape == (64, 2)
        assert not np.array_equal(fx.fourier_loop(8), a)
