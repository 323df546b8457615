#!/usr/bin/env python3
"""Generate a random circle cleavage and dump its cut diagram to disk.

Writes two files into --out-dir: an OBJ polyline mesh of the cut pieces
(one object per connected component, loadable in any mesh viewer) and a
JSON summary with the tree, the piece endpoints, the component count,
and the stable degree splits for ambient dimensions 2 and 3.
"""

import argparse
import json
from pathlib import Path

from cleav.blueprint import build_blueprint, export_obj, stable_degree
from cleav.sampling import random_cleavage


def run(seed: int, k: int, out_dir: Path) -> None:
    c = random_cleavage(seed, k)
    bp = build_blueprint(c)
    out_dir.mkdir(parents=True, exist_ok=True)

    obj_path = out_dir / f"cleavage_s{seed}_k{k}.obj"
    obj_path.write_text(export_obj(bp), encoding="ascii")

    summary = {
        "seed": seed,
        "cleavage": c.to_json(),
        "pieces": [
            {
                "path": cut.path,
                "component": comp,
                "start": [round(float(x), 12) for x in a],
                "end": [round(float(x), 12) for x in b],
            }
            for cut, (a, b), comp in zip(c.cuts, bp.ends, bp.piece_components)
        ],
        "components": bp.n_components,
        "stable_degree": {
            str(dim): list(stable_degree(bp, dim)) for dim in (2, 3)
        },
    }
    json_path = out_dir / f"cleavage_s{seed}_k{k}.json"
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                         encoding="ascii")

    print(f"arity {c.k}, {len(bp.ends)} pieces, {bp.n_components} components")
    print(f"wrote {obj_path}")
    print(f"wrote {json_path}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--out-dir", type=Path, default=Path("out"))
    args = ap.parse_args()
    run(args.seed, args.k, args.out_dir)


if __name__ == "__main__":
    main()
