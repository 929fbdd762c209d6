"""kanrelu benchmark: fixed-seed CLI workloads with output checks and a layer trace.

Usage, from the root of a checkout:

    python3 bench/run.py --workload transpile --seed 0 --seconds 32 --trace 0
    python3 bench/run.py --workload all        # every workload, one process each

One run builds its inputs from ``--seed`` and, for ``--seconds``, runs
untraced passes of the workload (at least one) with set-ups repeated between
their steps; it reports medians over passes (for ``setup_s``, of each pass's
mean set-up time).  With ``--trace 1`` it also runs one traced pass and
reports the per-layer metrics instead of the end-to-end ones.  All outputs
are then checked against independent references, pinned digests and the
expected verdicts; a mismatch counts as a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it are
a human-readable report.  A fuller record, and the spans of a traced pass,
are written to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"
WORKLOAD_NAMES = ("transpile", "sample-eval", "certify-1d")
SETUP_SLICE_S = 0.1

# End-to-end metrics reported by every workload (BENCHMARK.json "end_to_end").
E2E = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("file_bytes", "bytes"),
    ("mlp_nonzero", "count"),
)
# Per-command timings and ratios, printed and recorded for the workloads that have them.
OTHER_METRICS = {
    "convert_s": "s",
    "to_kan_s": "s",
    "spline_s": "s",
    "verify_s": "s",
    "mlp_eval_us": "us/point",
    "fingerprint_s": "s",
    "certify_s": "s",
    "regions_s": "s",
    "failed_ratio": "failed/attempted",
}


def _import_package():
    """Import kanrelu from this checkout's src/, never from anywhere else."""
    if not (SRC / "kanrelu" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'kanrelu'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import kanrelu

    if Path(kanrelu.__file__).resolve().parent != (SRC / "kanrelu").resolve():
        sys.exit(f"error: imported kanrelu from {kanrelu.__file__}, expected {SRC / 'kanrelu'}")


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _provenance(args, shapes: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shapes": shapes,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def _pinned(workload: str, seed: int) -> dict[str, str] | None:
    if not DIGESTS.is_file():
        return None
    with open(DIGESTS, encoding="utf-8") as f:
        return json.load(f).get(workload, {}).get(str(seed))


def _run_pass(ops, out: Path, tracer=None, between=None) -> dict:
    """One pass; ``wall_s`` sums the ops' own times.

    ``between`` runs after every op, outside the timed ops.  Digests and
    sizes are taken after the last op.
    """
    from workloads import digest_op, run_op

    out.mkdir()
    gc.collect()
    results = {}
    for op in ops:
        if tracer is None:
            results[op.name] = run_op(op, out)
        else:
            with tracer.span(f"bench.{op.name}"):
                results[op.name] = run_op(op, out)
        if between is not None:
            between()
    for op in ops:
        digest_op(op, results[op.name], out)
    file_bytes = sum(f.stat().st_size for f in out.iterdir())
    return {"wall_s": sum(r.seconds for r in results.values()), "results": results,
            "file_bytes": file_bytes, "dir": out}


def _command_times(ops, p: dict) -> dict[str, float]:
    times: dict[str, float] = {}
    for op in ops:
        if op.metric:
            times[op.metric] = times.get(op.metric, 0.0) + p["results"][op.name].seconds
    return times


def _median_table(rows: list[dict[str, float]]) -> dict[str, tuple[float, int]]:
    """Median and sample count of every per-pass metric."""
    return {k: (statistics.median(r[k] for r in rows), len(rows)) for k in sorted(rows[0])}


def measure(work, seed: int, scratch: Path, seconds: float):
    """Set up, then run timed passes with further set-ups between their ops.

    Set-ups run in slices of at least SETUP_SLICE_S (and at least one set-up)
    before the first pass and after every op; each pass records the mean time
    of the set-ups around its ops as ``setup_s``.  So set-up time is sampled
    over the same stretch of time as the ops, and averaged like them: on a
    shared host CPU speed can change by half within seconds, and a median of
    short set-ups would flip between the two speeds.  The first set-up's
    files feed every pass; later ones are compared with it and deleted.  A
    pass starts only while it is expected to end by the deadline, ``seconds``
    after the start; there is always at least one.  Returns the set-up state,
    the ops, the number of set-ups, whether every set-up wrote the same bytes,
    and the passes.
    """
    from workloads import sha256_file

    times: list[float] = []  # set-up times since the current pass began
    digests: list[dict[str, str]] = []

    def setup_slice() -> dict:
        """Set up until the slice time is spent; returns the slice's first state."""
        end = perf_counter() + SETUP_SLICE_S
        first = None
        while first is None or perf_counter() < end:
            d = scratch / ("inputs" if not digests else "setup")
            d.mkdir()
            gc.collect()
            t0 = perf_counter()
            st = work.setup(seed, d)
            times.append(perf_counter() - t0)
            digests.append({f.name: sha256_file(f) for f in sorted(d.iterdir())})
            if len(digests) > 1:
                shutil.rmtree(d)
            first = first or st
        return first

    start = perf_counter()
    st = setup_slice()
    ops = work.ops(st)
    passes: list[dict] = []
    while not passes or (now := perf_counter()) + (now - start) / len(passes) <= start + seconds:
        p = _run_pass(ops, scratch / f"pass{len(passes)}", between=setup_slice)
        if passes:
            shutil.rmtree(p["dir"])  # outputs of later passes are compared by digest
        p["setup_s"] = statistics.mean(times)
        times.clear()
        passes.append(p)
    return st, ops, len(digests), all(x == digests[0] for x in digests), passes


def judge(work, st, ops, executions, checks, pinned) -> tuple[int, int]:
    """Check every execution; returns (failed, attempted).

    ``checks`` arrives holding the run-level checks (set-up determinism,
    tracer clean-up), each one attempted operation.  Each op execution fails
    on an unexpected exit code, on a digest that differs from the pinned one
    (or, for unpinned seeds, from the first pass), or when the reference
    checks on the first pass flag that op.
    """
    failed = sum(1 for _, ok, _ in checks.items if not ok)
    attempted = len(checks.items)
    first = executions[0][1]
    reference = pinned if pinned is not None else {
        k: v for op in ops for k, v in first["results"][op.name].digests.items()
    }
    try:
        work.check(st, first["dir"], first["results"], checks)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        checks.add("check", False, f"{type(exc).__name__}: {exc!r}"[:300])
    flagged = checks.failed_ops()
    for label, p in executions:
        for op in ops:
            attempted += 1
            r = p["results"][op.name]
            bad = []
            if op.argv is not None and r.rc != op.expect_rc:
                bad.append(f"exit {r.rc}, expected {op.expect_rc}: {r.stderr.strip()[:200]}")
            wrong = sorted(k for k, v in r.digests.items() if reference.get(k) != v)
            if wrong:
                bad.append(f"digest mismatch {wrong}")
            if op.name in flagged or "check" in flagged:
                bad.append("output check failed")
            if bad:
                failed += 1
                checks.add(f"{label}:{op.name}", False, "; ".join(bad))
    return failed, attempted


def run_workload(args) -> int:
    import workloads

    work = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return _run(args, work, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, work, scratch: Path) -> int:
    import layertrace
    from workloads import Checks

    checks = Checks()
    st, ops, setups, setup_same, passes = measure(work, args.seed, scratch, args.seconds)
    checks.add("setup", setup_same, f"{setups} set-ups from one seed wrote identical models")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    executions = [(f"pass{i}", p) for i, p in enumerate(passes)]

    tracer = layer_metrics = None
    if args.trace:
        tracer = layertrace.Tracer()
        with tracer:
            traced = _run_pass(ops, scratch / "traced", tracer)
        shutil.rmtree(traced["dir"])
        executions.append(("traced", traced))
        leftovers = layertrace.leftover_wrappers()
        checks.add("trace", not leftovers, f"tracer restored every wrapped attribute {leftovers}")
        overhead = traced["wall_s"] / statistics.median(p["wall_s"] for p in passes)
        layer_metrics = tracer.layer_metrics(overhead)

    pinned = _pinned(work.name, args.seed)
    failed, attempted = judge(work, st, ops, executions, checks, pinned)

    per_pass = []
    for p in passes:
        row = {"wall_s": p["wall_s"], "setup_s": p["setup_s"], "file_bytes": p["file_bytes"]}
        row.update(_command_times(ops, p))
        row.update(work.metrics(st, p["results"]))
        per_pass.append(row)
    table = _median_table(per_pass)
    table["peak_rss_mb"] = (peak_rss_mb, 1)
    table["failed_ratio"] = (failed / attempted, 1)
    units = dict(E2E) | OTHER_METRICS

    provenance = _provenance(args, st["shapes"])
    provenance["digests_pinned"] = pinned is not None
    print(f"# kanrelu benchmark  workload={work.name}  seed={args.seed}  passes={len(passes)}")
    print(f"# why: {work.why}")
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    for name, (value, n) in table.items():
        print(f"# {name:<16} {value:>16.6g} {units[name]:<16} median of n={n}")
    if tracer is not None:
        print(f"# traced pass: wall_s={traced['wall_s']:.6g} s, overhead {layer_metrics['trace_overhead']:.3f}x "
              f"untraced, {len(tracer.span_start)} spans")
        for name, value in layer_metrics.items():
            if value:
                print(f"#   {name:<44} {value:.6g}")
    for op, ok, detail in checks.items:
        if not ok:
            print(f"# FAILED {op}: {detail}")
    print(f"# checks: {sum(ok for _, ok, _ in checks.items)}/{len(checks.items)} passed, "
          f"{failed}/{attempted} operations failed")

    stem = f"BENCH_{work.name}_seed{args.seed}" + ("_trace" if args.trace else "")
    record = {
        "provenance": provenance,
        "metrics": {name: {"value": v, "unit": units[name], "n": n} for name, (v, n) in table.items()},
        "per_pass": per_pass,
        "setups": setups,
        "layers": layer_metrics,
        "checks": checks.items,
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}_spans.json")
        metrics = {name: {"value": layer_metrics[name], "unit": unit}
                   for name, unit, _b, _m, _w in layertrace.LAYER_METRICS}
    else:
        metrics = {name: {"value": table[name][0], "unit": unit} for name, unit in E2E}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS belongs to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    _import_package()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
