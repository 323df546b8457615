"""Hand-built strand families with known collapse behavior.

Shared by the test suite and the example scripts. Everything is
deterministic; functions taking a seed use it only for reproducible
jitter. Vertices are built without np.arctan2 or complex angles, whose
last bit can change with numpy's SIMD dispatch, so their bytes are the
same with the dispatched CPU features disabled. The corridor trio is the
centerpiece: three strands whose pairwise geodesics form thin radial
corridors near the origin, with an excursion on strand 3 whose tip sweeps
across one corridor at a chosen polar angle. The collapse threshold for
the tip angle is known in closed form, so tests can bracket the
finite-to-infinite transition.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .geom import OrientedHyperplane, centroid
from .operad import Cleavage, Internal, Leaf, validate
from .umkehr import DiscreteEmbedding, FlatMetric

EUCLIDEAN = FlatMetric("euclidean", 2)

ROOT3_2 = math.sqrt(3.0) / 2.0


def chord_cleavage() -> Cleavage:
    """Two timbers split by the vertical chord through the center."""
    tree = Internal(OrientedHyperplane([1.0, 0.0], 0.0), Leaf(1), Leaf(2))
    return validate(tree)


def corridor_cleavage() -> Cleavage:
    """Three timbers: caps beyond x = +-1/2 and the slab between them."""
    tree = Internal(
        OrientedHyperplane([1.0, 0.0], 0.5),
        Leaf(1),
        Internal(OrientedHyperplane([1.0, 0.0], -0.5), Leaf(2), Leaf(3)),
    )
    return validate(tree)


def mirrored_pair(gap: float, r1: float = 0.5, m: int = 96) -> DiscreteEmbedding:
    """Concentric strands whose pointwise collapse distance is the gap.

    Strand 2 runs mirrored so that parameter s on strand 1 pairs with
    pi - s on strand 2 under the chord cleavage. Corner samples land on
    vertices, making the largest pair distance exactly `gap`.
    """
    th = 2.0 * np.pi * np.arange(m) / m
    loop1 = np.stack([r1 * np.cos(th), r1 * np.sin(th)], axis=1)
    r2 = r1 - gap
    loop2 = np.stack([-r2 * np.cos(th), r2 * np.sin(th)], axis=1)
    return DiscreteEmbedding(EUCLIDEAN, (loop1, loop2))


def _trapezoid(th: np.ndarray, center: float, width: float, ramp: float) -> np.ndarray:
    d = np.abs(np.mod(th - center + np.pi, 2.0 * np.pi) - np.pi)
    return np.where(
        d <= width / 2.0,
        1.0,
        np.where(d >= width / 2.0 + ramp, 0.0, 1.0 - (d - width / 2.0) / ramp),
    )


def plateau_pair(
    width: float,
    ramp: float = 0.2,
    center: float = 0.0,
    r1: float = 0.5,
    r2: float = 0.45,
    m: int = 512,
    bumps: tuple = (),
    overshoot: float = 0.0,
) -> DiscreteEmbedding:
    """Mirrored pair whose strand 2 touches strand 1 along angular windows.

    The strand-2 radius follows a trapezoid profile that reaches exactly
    r1 on a plateau of the given angular width centered at `center` (in
    strand-2 parameter angle). Extra (center, width) pairs in `bumps` add
    further touching windows. A positive overshoot raises the plateau
    past r1, turning each touching window into a pair of crossings.
    """
    th = 2.0 * np.pi * np.arange(m) / m
    profile = _trapezoid(th, center, width, ramp)
    for c, w in bumps:
        profile = np.maximum(profile, _trapezoid(th, c, w, ramp))
    rho = r2 + (r1 - r2 + overshoot) * profile
    loop1 = np.stack([r1 * np.cos(th), r1 * np.sin(th)], axis=1)
    loop2 = np.stack([-rho * np.cos(th), rho * np.sin(th)], axis=1)
    return DiscreteEmbedding(EUCLIDEAN, (loop1, loop2))


def touch_pair() -> DiscreteEmbedding:
    """Pair meeting at a single point aligned with both grids.

    The contact angle sits on a strand-2 vertex and maps onto the
    crossing-parameter grid used by the locus scan at density 2049, so
    the scan sees an isolated one-parameter touch.
    """
    a = 700
    center = math.pi / 2.0 - a * math.pi / 2048.0
    return plateau_pair(width=0.0, ramp=0.1, center=center, m=4096)


def locus_fixtures() -> tuple:
    """Twenty touching or overlapping pairs for interval-shape checks.

    Returns (name, embedding, scan_density, scan_tol) quadruples. Every
    fixture has a nonempty meeting locus; density and tolerance are the
    values the fixture's grid alignment was designed for. Touching pairs
    meet the scan grid exactly, so they work at the default tolerance;
    crossing pairs pass through each other between grid points and need
    a looser one.
    """
    out = []
    # The locus scan walks each strand's complement arcs, so a window is
    # visible only when its strand-2 parameter range stays inside
    # (-pi/2, pi/2) mod 2pi; all plateau spans below are placed there.
    singles = [
        (0.20, 0.20, 0.0, 0.5, 0.45, 512),
        (0.30, 0.20, 0.0, 0.5, 0.45, 512),
        (0.30, 0.20, 0.8, 0.5, 0.45, 512),
        (0.30, 0.15, 0.9, 0.5, 0.45, 512),
        (0.50, 0.20, 0.0, 0.5, 0.45, 512),
        (0.50, 0.25, 5.5, 0.6, 0.50, 512),
        (0.80, 0.20, 1.0, 0.5, 0.45, 512),
        (0.80, 0.15, 5.5, 0.55, 0.48, 768),
        (1.20, 0.20, 0.0, 0.5, 0.45, 512),
        (1.20, 0.25, 0.4, 0.6, 0.50, 768),
        (math.pi / 2, 0.20, 0.0, 0.5, 0.45, 512),
        (math.pi / 2, 0.20, 6.0, 0.5, 0.45, 768),
        (0.40, 0.30, 0.3, 0.5, 0.44, 512),
        (0.60, 0.10, 5.0, 0.5, 0.46, 768),
        (0.25, 0.20, 1.3, 0.52, 0.47, 512),
        (0.90, 0.20, 0.2, 0.5, 0.45, 512),
    ]
    for i, (w, ramp, c, r1, r2, m) in enumerate(singles):
        emb = plateau_pair(width=w, ramp=ramp, center=c, r1=r1, r2=r2, m=m)
        out.append((f"single_{i}", emb, 1024, 1e-9))
    cross_a = plateau_pair(width=0.6, ramp=0.2, center=0.0, overshoot=0.02, m=512)
    out.append(("crossing_a", cross_a, 1024, 2e-3))
    cross_b = plateau_pair(
        width=0.4, ramp=0.25, center=0.9, r1=0.55, r2=0.5, overshoot=0.03, m=768
    )
    out.append(("crossing_b", cross_b, 1024, 2e-3))
    double = plateau_pair(
        width=0.4, ramp=0.15, center=0.0, m=768, bumps=((5.6, 0.5),)
    )
    out.append(("double_window", double, 1024, 1e-9))
    out.append(("point_touch", touch_pair(), 2049, 1e-9))
    return tuple(out)


def fourier_loop(seed: int, m: int = 64, base: float = 0.5, wobble: float = 0.12,
                 drift: float = 0.15) -> np.ndarray:
    """Smooth random closed strand: radius wobbles around `base`.

    Worst-case radius stays within base +- 1.84 * wobble, and the whole
    loop shifts by at most drift per axis, so nested non-crossing pairs
    can be guaranteed by budgeting those bounds.
    """
    rng = np.random.default_rng(seed)
    amps = wobble * rng.uniform(0.2, 1.0, 3) / np.array([1.0, 2.0, 3.0])
    phases = rng.uniform(0.0, 2.0 * np.pi, 3)
    shift = rng.uniform(-drift, drift, 2)
    th = 2.0 * np.pi * np.arange(m) / m
    rho = base + sum(a * np.cos((h + 1) * th + p) for h, (a, p) in enumerate(zip(amps, phases)))
    return np.stack([rho * np.cos(th), rho * np.sin(th)], axis=1) + shift


# -- corridor trio ----------------------------------------------------------
#
# Strand layout in polar coordinates (position angle in degrees, radius):
#   pair (1,2) geodesics: radial segments, angles in [-60, 60], radii
#   [0.046, 0.050]; pair (2,3): angles in [120, 240], radii [0.038, 0.042].
# Each strand's partner band sits at the radius above, parametrized so the
# collapse preimage parameter lands exactly at the matching polar angle.
# Closures run well outside the corridor radii; transitions are one or two
# steep steps so that no vertex lands inside a corridor's radius window
# within reach of its tube. The strand-3 excursion is the one exception:
# its tip is the only vertex inside the pair (1,2) radius window.

CORRIDOR_M = 1440
_STEP = 360.0 / CORRIDOR_M  # degrees of parameter per vertex

_R1_BAND = 0.050
_R2_P1 = 0.046
_R2_P3 = 0.042
_R3_BAND = 0.038
_R1_LEDGE = 0.064
_R2_LEDGE = 0.058
_R_LOW = 0.022
_R_TIP = 0.048
_R_SHOULDER = 0.0454

CORRIDOR_EPSILON = 0.2
CORRIDOR_GAP = 0.004

# excursion vertex range (rise, tip, hop, descent) used for jitter
CORRIDOR_EXCURSION = (680, 762)

# sweep angles for the tip, bracketing the collapse threshold
CORRIDOR_SWEEP = tuple(round(61.2 + 0.4 * k, 1) for k in range(35))


def corridor_critical_deg() -> float:
    """Tip angle where the worst-case scale crosses 1, in degrees.

    The tip enters the tube of the corner corridor at polar angle 60.
    Solving perp = radius * gap/epsilon for the tip offset gives
    sin(d) + 1 - cos(d) = 1/24 with the tip radius pinned at 0.048.
    """
    lo, hi = 0.0, 0.2
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if math.sin(mid) + 1.0 - math.cos(mid) < 1.0 / 24.0:
            lo = mid
        else:
            hi = mid
    return 60.0 + math.degrees(0.5 * (lo + hi))


def _polar(deg, rad):
    ang = np.deg2rad(np.asarray(deg, dtype=float))
    rad = np.asarray(rad, dtype=float)
    return np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=-1)


def _chord_y(cpt: np.ndarray, x: float, exit_deg: np.ndarray) -> np.ndarray:
    """Heights of the points on the chord at abscissa x whose rays from cpt
    leave the unit circle at the angles exit_deg (degrees).

    Each is where the line from cpt to its exit point crosses the chord.
    """
    e = _polar(exit_deg, 1.0)
    return cpt[1] + (x - cpt[0]) / (e[:, 0] - cpt[0]) * (e[:, 1] - cpt[1])


def _band(x: float, y: np.ndarray, radius: float) -> np.ndarray:
    """The points (x, y) scaled to the given radius."""
    return radius * np.stack([np.full_like(y, x), y], axis=1) / np.sqrt(x * x + y * y)[:, None]


@functools.cache
def _corridor_static() -> tuple:
    """(loop1, loop2, loop3_static): the corridor strands' parts that do not move with the tip."""
    c = corridor_cleavage()

    # strand 1: partner band at params [60, 300], toward the chord x = 1/2
    p1 = _STEP * np.arange(240, 1201)
    y1 = _chord_y(centroid(c.trace(1)), 0.5, p1)
    y1[0], y1[-1] = ROOT3_2, -ROOT3_2
    y1[p1.searchsorted(180.0)] = 0.0
    loop1 = np.empty((CORRIDOR_M, 2))
    loop1[240:1201] = _band(0.5, y1, _R1_BAND)
    loop1[1201] = _polar(-60.5, 0.057)
    loop1[1202] = _polar(-61.0, _R1_LEDGE)
    ledge_idx = np.concatenate([np.arange(1203, 1440), np.arange(0, 239)])
    p_ext = _STEP * ledge_idx + np.where(ledge_idx < 240, 360.0, 0.0)
    loop1[ledge_idx] = _polar(-61.0 - 2.0 * (p_ext - 300.5), _R1_LEDGE)
    loop1[238] = _polar(61.0, _R1_LEDGE)
    loop1[239] = _polar(60.5, 0.057)

    # strand 2: identity bands plus high ledges between them
    loop2 = np.empty((CORRIDOR_M, 2))
    q = _STEP * np.arange(0, 241)
    loop2[0:241] = _polar(q, _R2_P1)
    loop2[241] = _polar(62.0, 0.0513)
    loop2[242] = _polar(64.0, _R2_LEDGE)
    pa = _STEP * np.arange(243, 478)
    loop2[243:478] = _polar(64.0 + 56.0 * (pa - 60.5) / 58.75, _R2_LEDGE)
    loop2[478] = _polar(120.0, 0.053)
    loop2[479] = _polar(120.0, 0.0435)
    q = _STEP * np.arange(480, 961)
    loop2[480:961] = _polar(q, _R2_P3)
    loop2[961] = _polar(240.0, 0.0435)
    loop2[962] = _polar(240.0, 0.053)
    loop2[963] = _polar(240.0, _R2_LEDGE)
    pb = _STEP * np.arange(964, 1198)
    loop2[964:1198] = _polar(240.0 + 56.0 * (pb - 240.75) / 58.5, _R2_LEDGE)
    loop2[1198] = _polar(298.0, 0.0513)
    loop2[1199] = _polar(299.0, 0.0513)
    q = _STEP * np.arange(1200, 1440) - 360.0
    loop2[1200:1440] = _polar(q, _R2_P1)

    # strand 3 static part: partner band and the radial stubs at +-120
    band_idx = np.concatenate([np.arange(0, 481), np.arange(960, 1440)])
    u = _STEP * band_idx
    y3 = _chord_y(centroid(c.trace(3)), -0.5, np.where(u > 180.0, u - 360.0, u))
    y3[480] = ROOT3_2
    y3[481] = -ROOT3_2
    y3[0] = 0.0
    loop3_static = np.full((CORRIDOR_M, 2), np.nan)
    loop3_static[band_idx] = _band(-0.5, y3, _R3_BAND)
    p_in = _STEP * np.arange(481, 504)
    loop3_static[481:504] = _polar(120.0, 0.038 + (p_in - 120.0) / 6.0 * (_R_LOW - 0.038))
    p_out = _STEP * np.arange(936, 960)
    loop3_static[936:960] = _polar(-120.0, _R_LOW + (p_out - 234.0) / 6.0 * (0.038 - _R_LOW))

    return loop1, loop2, loop3_static


def corridor_trio(
    tip_deg: float, jitter_seed: int | None = None, jitter: float = 1e-3
) -> DiscreteEmbedding:
    """The three-strand corridor family with the tip at `tip_deg` degrees.

    The strand-3 excursion rises to radius 0.048 at polar angle tip_deg,
    hops 0.4 degrees sideways on its shoulder, and descends. With a seed,
    the excursion vertices (and only those) jitter radially by at most
    `jitter`, which keeps them clear of every corridor segment.
    """
    if not 61.0 < tip_deg < 100.0:
        raise ValueError(f"tip angle {tip_deg!r} outside the designed range (61, 100)")
    loop1, loop2, loop3_static = _corridor_static()
    ang = np.full(CORRIDOR_M, np.nan)
    rad = np.full(CORRIDOR_M, np.nan)
    p = _STEP * np.arange(CORRIDOR_M)

    sl = slice(504, 680)  # approach arc: angle 120 -> tip_deg at the floor radius
    ang[sl] = 120.0 + (tip_deg - 120.0) * (p[sl] - 126.0) / 44.0
    rad[sl] = _R_LOW
    sl = slice(680, 720)  # rise to the shoulder below the corridor window
    ang[sl] = tip_deg
    rad[sl] = _R_LOW + (p[sl] - 170.0) * (_R_SHOULDER - _R_LOW) / 9.75
    ang[720], rad[720] = tip_deg, _R_TIP
    ang[721], rad[721] = tip_deg + 0.4, _R_SHOULDER
    sl = slice(722, 761)  # descend on the staggered side
    ang[sl] = tip_deg + 0.4
    rad[sl] = _R_SHOULDER - (p[sl] - 180.25) * (_R_SHOULDER - _R_LOW) / 10.0
    sl = slice(761, 936)  # return arc: tip_deg + 0.4 -> -120
    ang[sl] = (tip_deg + 0.4) - (tip_deg + 120.4) * (p[sl] - 190.25) / 43.75
    rad[sl] = _R_LOW

    if jitter_seed is not None:
        rng = np.random.default_rng(jitter_seed)
        lo, hi = CORRIDOR_EXCURSION
        rad[lo:hi] = rad[lo:hi] + rng.uniform(-jitter, jitter, hi - lo)

    loop3 = loop3_static.copy()
    mobile = ~np.isnan(ang)
    loop3[mobile] = _polar(ang[mobile], rad[mobile])
    return DiscreteEmbedding(EUCLIDEAN, (loop1, loop2, loop3))
