#!/usr/bin/env python3
"""Sweep the ring gap of the concentric pair and tabulate output scales.

For each gap g the two loops sit at radii r1 and r1 - g, so the largest
geodesic between distinct strands has length exactly g.  With tube radius
epsilon the finite outputs must peak at g / epsilon, and the component
collapses once g passes epsilon.  The table makes both effects visible.
"""

import argparse
from dataclasses import dataclass

import numpy as np

from cleav import fixtures as fx
from cleav.blueprint import build_blueprint, thicken
from cleav.umkehr import UmkehrConfig, umkehr


@dataclass
class SweepConfig:
    epsilon: float = fx.CORRIDOR_EPSILON
    start: float = 0.02
    stop: float = 0.30
    steps: int = 15
    radius: float = 0.5


def run(cfg: SweepConfig) -> None:
    c = fx.chord_cleavage()
    tb = thicken(build_blueprint(c))
    ucfg = UmkehrConfig(epsilon=cfg.epsilon)
    print(f"# concentric pair, outer radius {cfg.radius}, epsilon {cfg.epsilon}")
    print(f"{'gap':>8} {'status':>9} {'max scale':>12} {'g/eps':>10} {'error':>10}")
    for gap in np.linspace(cfg.start, cfg.stop, cfg.steps):
        gap = float(round(gap, 6))
        out = umkehr(fx.mirrored_pair(gap, r1=cfg.radius), c, tb, ucfg)
        cv = out.components[0]
        predicted = gap / cfg.epsilon
        if cv.status == "finite" and cv.entries:
            top = max(e.scale for e in cv.entries)
            err = abs(top - predicted)
            print(f"{gap:8.4f} {cv.status:>9} {top:12.6f} {predicted:10.6f} {err:10.2e}")
        else:
            print(f"{gap:8.4f} {cv.status:>9} {'-':>12} {predicted:10.6f} {'-':>10}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epsilon", type=float, default=SweepConfig.epsilon)
    ap.add_argument("--start", type=float, default=SweepConfig.start)
    ap.add_argument("--stop", type=float, default=SweepConfig.stop)
    ap.add_argument("--steps", type=int, default=SweepConfig.steps)
    ap.add_argument("--radius", type=float, default=SweepConfig.radius)
    args = ap.parse_args()
    run(SweepConfig(args.epsilon, args.start, args.stop, args.steps, args.radius))


if __name__ == "__main__":
    main()
