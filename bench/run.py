"""Benchmark of the cleav pipeline: one seeded workload per run.

    python3 bench/run.py --workload corridor --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory. The seed only feeds the workload's input generator. The
op count is fixed by the workload and --seconds (not by the clock), so two
commits run the same ops. The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics under --trace 0 and the per-layer metrics under --trace 1. The
line before it carries run metadata (versions, seed, op count, output
digest). Inputs, outputs and the full result go to ``.bench_out/``.
"""

import os
import time

T_START = time.perf_counter()

# Pinned before numpy is imported anywhere in the process.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = Path(".bench_out")

# A seed kept out of tuning, for confirming a claimed gain on fresh inputs.
CONFIRM_SEED = 7919
# Set-up is repeated this many times per run; setup_s reports the median.
SETUP_REPEATS = 5
MIN_OPS = 2


def op_count(workload, seconds: int) -> int:
    """Fixed op count for a run of nominally `seconds` seconds, always even."""
    n = max(MIN_OPS, round(seconds * workload.ops_per_second))
    return n + n % 2


def tail_index(n: int) -> int:
    """Index of the highest order statistic with at least ten ops beyond it.

    With fewer than 21 ops no percentile above the median has ten ops
    beyond it, so the tail falls back to the upper median.
    """
    return max(n - 11, n // 2)


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_ops(workload, plan: list, tag: str, tracer=None) -> tuple:
    """Run every op once in order; returns (latencies, outputs, errors, wall)."""
    latencies, outputs, errors = [], [], {}
    start = time.perf_counter()
    for i, op in enumerate(plan):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = workload.run(op, tag, tracer)
        except Exception:  # a failed op is counted and the run goes on
            out = None
            errors[i] = traceback.format_exc(limit=3)
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return latencies, outputs, errors, time.perf_counter() - start


def check_ops(workload, plan: list, outputs: list, errors: dict) -> tuple:
    """Check each op's output; returns (failed op indices, digest, problems)."""
    digest = hashlib.sha256()
    failed = set(errors)
    problems = [f"op {i} raised:\n{tb}" for i, tb in errors.items()]
    for i, (op, out) in enumerate(zip(plan, outputs)):
        if i in errors:
            digest.update(b"null\n")
            continue
        rec = workload.record(op, out)
        digest.update(json.dumps(rec, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        found = workload.check(op, rec)
        if found:
            failed.add(i)
            problems += [f"op {i}: {p}" for p in found[:5]]
    return failed, digest.hexdigest(), problems


def make_plan(workload, seed: int, n_ops: int) -> tuple:
    """Generate the op inputs SETUP_REPEATS times; returns (plan, median seconds)."""
    import numpy as np

    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        plan = workload.plan(np.random.default_rng(seed), n_ops, OUT_DIR / workload.name)
        times.append(time.perf_counter() - t0)
    return plan, statistics.median(times)


def end_to_end(latencies: list, wall: float, n_ok: int, setup_s: float) -> dict:
    ordered = sorted(latencies)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n_ok / wall, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(ordered), "ms"),
        "op_tail_ms": (1e3 * ordered[tail_index(len(ordered))], "ms"),
        "ok_rate": (n_ok / len(latencies), "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "cleav" / "__init__.py").is_file():
        print(f"error: no cleav package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    os.chdir(ROOT)
    OUT_DIR.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import cleav

    from tracer import Tracer
    from workloads import WORKLOADS

    if Path(cleav.__file__).resolve().parent != (SRC / "cleav").resolve():
        print(f"error: imported cleav from {cleav.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    import_s = time.perf_counter() - T_START

    n_ops = op_count(workload, args.seconds)
    plan, plan_s = make_plan(workload, args.seed, n_ops)
    setup_s = import_s + plan_s
    if args.trace:
        # The traced run times the first half of the ops twice, untraced
        # and traced, so it lasts about as long as an untraced run.
        plan = plan[: max(MIN_OPS, n_ops // 2)]

    latencies, outputs, errors, wall = run_ops(workload, plan, "untraced")
    failed, digest, problems = check_ops(workload, plan, outputs, errors)
    attempted = len(plan)
    meta = {
        "workload": workload.name, "seed": args.seed, "confirm_seed": CONFIRM_SEED,
        "seconds": args.seconds, "trace": args.trace, "ops": len(plan),
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "import_s": import_s, "plan_s": plan_s, "setup_repeats": SETUP_REPEATS,
        "tail_percentile": 100.0 * (tail_index(len(plan)) + 1) / len(plan),
        "timed_wall_s": wall, "output_sha256": digest,
        "fail_rate": len(failed) / attempted,
        "latencies_s": latencies,
    }

    if args.trace:
        tracer = Tracer()
        missing = tracer.install()
        try:
            t_lat, t_out, t_err, t_wall = run_ops(workload, plan, "traced", tracer)
        finally:
            tracer.uninstall()
        t_failed, t_digest, t_problems = check_ops(workload, plan, t_out, t_err)
        failed |= {i + attempted for i in t_failed}
        problems += t_problems
        attempted += len(plan)
        metrics, trace_problems = tracer.summary(t_lat)
        metrics["trace.untraced_wall_s"] = (wall, "s")
        metrics["trace.traced_wall_s"] = (t_wall, "s")
        metrics["trace.overhead_s"] = (t_wall - wall, "s")
        if missing:
            trace_problems.append(f"traced functions not found: {missing}")
        uncalled = [name for name in workload.expected_calls
                    if metrics[f"{name}.calls"][0] == 0]
        if uncalled:
            trace_problems.append(f"no calls recorded for {uncalled}")
        if t_digest != digest:
            trace_problems.append("traced outputs differ from untraced outputs")
        problems += trace_problems
        meta.update(traced_output_sha256=t_digest, trace_problems=trace_problems,
                    strand_distance_share=metrics["umkehr.strand_distance.self_s"][0] / t_wall)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.tsv"
        with spans_path.open("w", encoding="ascii") as fh:
            fh.write("id\tparent\top\tname\tstart\tend\tself\tok\n")
            fh.writelines(tracer.rows())
        correct = not failed and not trace_problems
    else:
        metrics = end_to_end(latencies, wall, attempted - len(failed), setup_s)
        correct = not failed

    for p in problems[:20]:
        print(p, file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"meta": {k: v for k, v in meta.items() if k != "latencies_s"}},
                     sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
