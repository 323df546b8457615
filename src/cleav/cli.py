"""Command line front end.

Subcommands mirror the library layers: gen and compose and permute act on
cleavage documents, inspect and export-obj read them, umkehr evaluates a
strand family against one, and check runs a named property suite. All
randomness flows through one seed (flag, then CLEAVE_SEED, then 0), and
identical invocations produce byte-identical output.

Exit codes: 0 success, 1 domain error (bad geometry, malformed input),
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from .blueprint import (
    BlueprintError,
    build_blueprint,
    export_obj,
    stable_degree,
    thicken,
)
from .geom import TOL, GeometryError, _rowdot
from .operad import OperadError, Permutation, cleavage_from_json, compose, permute
from .sampling import SamplingError, random_cleavage, resolve_seed
from .suites import SUITES, format_report, run_suite
from .umkehr import UmkehrConfig, UmkehrError, embedding_from_json, umkehr


def _emit(text: str, args) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n", encoding="ascii")
    else:
        print(text)


def _echo_config(doc: dict) -> None:
    print(json.dumps({"config": doc}, sort_keys=True), file=sys.stderr)


def _load_json(path: str):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _load_cleavage(path: str, tol: float):
    return cleavage_from_json(_load_json(path), tol=tol)


# Compact encoder for the scalars that _write does not spell out itself.
_encode = json.JSONEncoder().encode
_NUMBERS = frozenset((float, int))


def _dump(doc) -> str:
    """``doc`` as exactly the text of ``json.dumps(doc, indent=2, sort_keys=True)``.

    Dicts and lists are written here, and lists of numbers or of equal
    number rows in one join. A dict key that is not a ``str``, a value of
    a type this writer does not know, an int too long for ``repr`` or a
    cycle sends the whole document to that ``json.dumps`` call, which
    gives its own text or its own error.
    """
    parts: list = []
    try:
        _write(doc, "\n", parts)
    except (TypeError, ValueError, RecursionError):
        return json.dumps(doc, indent=2, sort_keys=True)
    return "".join(parts)


def _numbers(items, nl: str) -> str | None:
    """An opened list of exact ints and finite floats, one per line at ``nl``."""
    if _NUMBERS.issuperset(map(type, items)):
        text = "[" + nl + ("," + nl).join(map(repr, items))
        if "n" not in text:  # only nan and the infinities put an "n" in a repr
            return text
    return None


def _rows(items, nl: str) -> str | None:
    """An opened list of equal-length non-empty number lists, rows at ``nl``."""
    width = len(items[0])
    if width and {list} == set(map(type, items)) and {width} == set(map(len, items)):
        flat = list(chain.from_iterable(items))
        if _NUMBERS.issuperset(map(type, flat)):
            inner = nl + "  "
            row = "[" + inner + ("," + inner).join(["%s"] * width) + nl + "]"
            text = ("[" + nl + ("," + nl).join([row] * len(items))) % tuple(map(repr, flat))
            if "n" not in text:
                return text
    return None


def _write(value, nl: str, parts: list) -> None:
    """Append ``value`` as json.dumps indents it, ``nl`` being its own line start."""
    inner = nl + "  "
    kind = value.__class__
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        sep = "{" + inner
        for key, item in sorted(value.items()):  # _quote raises TypeError on a non-str key
            parts.append(sep + _quote(key) + ": ")
            _write(item, inner, parts)
            sep = "," + inner
        parts.append(nl + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        text = _rows(value, inner) if value[0].__class__ is list else _numbers(value, inner)
        if text is not None:
            parts.append(text + nl + "]")
            return
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _write(item, inner, parts)
            sep = "," + inner
        parts.append(nl + "]")
    elif kind is str:
        parts.append(_quote(value))
    elif kind is int:
        parts.append(int.__repr__(value))
    elif kind is float and math.isfinite(value):
        parts.append(float.__repr__(value))
    else:  # NaN, the infinities, bools, None and subclasses of str, int and float
        parts.append(_encode(value))


def _cmd_gen(args) -> int:
    seed = resolve_seed(args.seed)
    c = random_cleavage(seed, args.k, n=args.n)
    _echo_config({"command": "gen", "seed": seed, "k": args.k, "n": args.n})
    _emit(_dump(c.to_json()), args)
    return 0


def _cmd_inspect(args) -> int:
    c = _load_cleavage(args.doc, args.tol)
    bp = build_blueprint(c, tol=args.tol)
    lines = [f"arity {c.k}, sphere dimension {c.n}"]
    for i in range(1, c.k + 1):
        arcs = ", ".join(
            f"[{s:.4f}, {e:.4f}]" for s, e in c.trace(i).arcs.arcs
        ) or "(none)"
        lines.append(f"timber {i}: trace arcs {arcs}")
    lines.append(f"pieces {len(bp.ends)}, components {bp.n_components}")
    d = bp.ends[:, 1] - bp.ends[:, 0]
    lengths = np.sqrt(_rowdot(d, d))
    for j, cut in enumerate(c.cuts):
        lines.append(
            f"piece {j} at {cut.path}: component"
            f" {bp.piece_components[j]}, length {lengths[j]:.4f}"
        )
    a, b = stable_degree(bp, args.dim_m)
    lines.append(f"stable degree for dim {args.dim_m}: ({a}, {b}), sum {a + b}")
    tb = thicken(bp, density=args.density)
    sizes = tb.mask.sum(axis=1).tolist()
    parts = ", ".join(f"{size}: {sizes.count(size)}" for size in sorted(set(sizes)))
    lines.append(f"preimage sizes over {len(tb.points)} samples: {parts}")
    _emit("\n".join(lines), args)
    return 0


def _cmd_compose(args) -> int:
    outer = _load_cleavage(args.outer, args.tol)
    inner = _load_cleavage(args.inner, args.tol)
    c = compose(outer, args.slot, inner, tol=args.tol)
    _echo_config({
        "command": "compose", "outer": args.outer, "slot": args.slot,
        "inner": args.inner, "tol": args.tol,
    })
    _emit(_dump(c.to_json()), args)
    return 0


def _cmd_permute(args) -> int:
    c = _load_cleavage(args.doc, args.tol)
    try:
        images = tuple(int(x) for x in args.images.split(","))
    except ValueError:
        raise OperadError(f"images must be comma-separated integers, got {args.images!r}")
    out = permute(c, Permutation(images), tol=args.tol)
    _echo_config({
        "command": "permute", "doc": args.doc, "images": list(images), "tol": args.tol,
    })
    _emit(_dump(out.to_json()), args)
    return 0


def _cmd_umkehr(args) -> int:
    c = _load_cleavage(args.doc, args.tol)
    gamma = embedding_from_json(_load_json(args.loops))
    cfg = UmkehrConfig(
        epsilon=args.epsilon,
        t_homotopy=args.t,
        density=args.density,
        eta=args.eta,
        mapping=args.mapping,
    )
    if args.mapping:
        # gluing replaces tube clearance, so mapping mode evaluates at t = 1
        cfg = replace(cfg, t_homotopy=1.0)
    tb = thicken(build_blueprint(c, tol=args.tol), density=args.density)
    value = umkehr(gamma, c, tb, cfg)
    doc = value.to_json()
    doc["config"]["command"] = "umkehr"
    doc["config"]["doc"] = args.doc
    doc["config"]["loops"] = args.loops
    for cv in value.components:
        if cv.status == "finite":
            finite = [e.scale for e in cv.entries if math.isfinite(e.scale)]
            top = max(finite) if finite else 0.0
            note = f"{len(cv.entries)} entries, max scale {top:.6f}"
        else:
            note = f"all {len(cv.collapsed_samples)} samples collapsed"
        print(f"component {cv.component}: {cv.status}, {note}", file=sys.stderr)
    _emit(_dump(doc), args)
    return 0


def _cmd_check(args) -> int:
    seed = resolve_seed(args.seed)
    report = run_suite(args.suite, seed=seed)
    doc = report.to_json()
    doc["config"] = {"command": "check", "suite": args.suite, "seed": seed}
    print(format_report(report), file=sys.stderr)
    _emit(_dump(doc), args)
    return 0 if report.passed else 1


def _cmd_export_obj(args) -> int:
    c = _load_cleavage(args.doc, args.tol)
    _emit(export_obj(build_blueprint(c, tol=args.tol)).rstrip("\n"), args)
    return 0


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cleave",
        description="Generate, transform, and evaluate sphere cleavages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol: bool = True) -> None:
        if tol:
            p.add_argument("--tol", type=float, default=TOL, help="geometric tolerance")
        p.add_argument("--out", help="write the result to this file instead of stdout")

    p = sub.add_parser("gen", help="sample a random cleavage")
    p.add_argument("--k", type=int, default=2, help="arity, at least 1")
    p.add_argument("--n", type=int, default=1, choices=(1, 2),
                   help="sphere dimension (1 or 2)")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed; falls back to CLEAVE_SEED, then 0")
    common(p, tol=False)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("inspect", help="summarize a cleavage document")
    p.add_argument("doc", help="cleavage JSON file")
    p.add_argument("--dim-m", type=int, default=2, help="manifold dimension for degrees")
    p.add_argument("--density", type=int, default=8, help="samples per cut piece")
    common(p)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("compose", help="graft one cleavage into a slot of another")
    p.add_argument("outer", help="outer cleavage JSON file")
    p.add_argument("slot", type=int, help="timber label to graft into")
    p.add_argument("inner", help="inner cleavage JSON file")
    common(p)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("permute", help="relabel timbers by a permutation")
    p.add_argument("doc", help="cleavage JSON file")
    p.add_argument("images", help="comma-separated images of 1..k, e.g. 2,1,3")
    common(p)
    p.set_defaults(func=_cmd_permute)

    p = sub.add_parser("umkehr", help="evaluate the collapse of a strand family")
    p.add_argument("doc", help="cleavage JSON file")
    p.add_argument("loops", help="strand family JSON file")
    p.add_argument("--epsilon", type=float, required=True, help="tube radius")
    p.add_argument("--t", type=float, default=0.0, help="homotopy parameter in [0, 1]")
    p.add_argument("--density", type=int, default=8, help="samples per cut piece")
    p.add_argument("--eta", type=float, default=None,
                   help="endpoint exclusion radius in radians")
    p.add_argument("--mapping", action="store_true",
                   help="glue coincidences instead of collapsing")
    common(p)
    p.set_defaults(func=_cmd_umkehr)

    p = sub.add_parser("check", help="run one named property suite")
    p.add_argument("suite", choices=sorted(SUITES), help="suite name")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed; falls back to CLEAVE_SEED, then 0")
    p.add_argument("--out", help="write the report to this file instead of stdout")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("export-obj", help="write the cut diagram as a wavefront OBJ")
    p.add_argument("doc", help="cleavage JSON file")
    common(p)
    p.set_defaults(func=_cmd_export_obj)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OperadError, GeometryError, BlueprintError, UmkehrError,
            SamplingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
