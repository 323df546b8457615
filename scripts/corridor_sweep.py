#!/usr/bin/env python3
"""Walk the invader's tip through the corridor and find the collapse point.

The trio has a bystander component (loop 2 alone) and an excursion
component (loops 1 and 3).  As the tip angle grows, the invader's spur
retreats from the corridor walls; the excursion component flips from
collapsed to finite exactly when the largest relevant geodesic drops
under the tube radius.  The script prints one row per tip and reports
the observed flip against the analytically predicted critical angle.
"""

import argparse

from cleav import fixtures as fx
from cleav.blueprint import build_blueprint, thicken
from cleav.umkehr import UmkehrConfig, umkehr


def run(tips, epsilon: float, density: int) -> None:
    c = fx.corridor_cleavage()
    tb = thicken(build_blueprint(c), density)
    cfg = UmkehrConfig(epsilon=epsilon, density=density)
    print(f"# corridor trio, epsilon {epsilon}, density {density}")
    print(f"{'tip deg':>8} {'excursion':>10} {'max scale':>11} {'bystander':>10} {'max scale':>11}")
    previous = None
    flip = None
    for tip in tips:
        out = umkehr(fx.corridor_trio(tip), c, tb, cfg)
        cols = []
        for cv in out.components:
            if cv.status == "finite" and cv.entries:
                cols += [cv.status, f"{max(e.scale for e in cv.entries):11.6f}"]
            else:
                cols += [cv.status, f"{'-':>11}"]
        excursion = out.components[0].status
        if previous is not None and previous != excursion:
            flip = tip
        previous = excursion
        print(f"{tip:8.1f} {cols[0]:>10} {cols[1]} {cols[2]:>10} {cols[3]}")
    print(f"# predicted critical tip: {fx.corridor_critical_deg():.4f} deg")
    if flip is not None:
        print(f"# observed flip at or before: {flip:.1f} deg")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epsilon", type=float, default=fx.CORRIDOR_EPSILON)
    ap.add_argument("--density", type=int, default=24)
    ap.add_argument("--tips", type=float, nargs="*", default=None,
                    help="tip angles in degrees (default: the standard sweep)")
    args = ap.parse_args()
    tips = tuple(args.tips) if args.tips else fx.CORRIDOR_SWEEP
    run(tips, args.epsilon, args.density)


if __name__ == "__main__":
    main()
