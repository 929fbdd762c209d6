"""Pin the SHA-256 digest of everything the workloads produce, per seed.

    python3 bench/pin_digests.py --seeds 0-31 [--workload NAME]

Runs one pass per workload and seed, refuses to pin when any output check
fails, and merges the digests into bench/digests.json.  run.py compares
every pass of a pinned seed against these, which guards the rule that
outputs stay byte-identical.  Re-pin only for a change that is meant to
alter output bytes.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def pin(workload: str, seed: int) -> dict[str, str]:
    import workloads

    work = workloads.WORKLOADS[workload]
    run.OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"pin-{workload}-", dir=run.OUT))
    try:
        (scratch / "inputs").mkdir()
        st = work.setup(seed, scratch / "inputs")
        ops = work.ops(st)
        p = run._run_pass(ops, scratch / "pass0")
        checks = workloads.Checks()
        failed, _attempted = run.judge(work, st, ops, [("pass0", p)], checks, None)
        if failed:
            bad = [f"{op}: {detail}" for op, ok, detail in checks.items if not ok]
            sys.exit(f"{workload} seed {seed}: checks failed, not pinning:\n" + "\n".join(bad))
        return {k: v for op in ops for k, v in p["results"][op.name].digests.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range such as 0-31")
    parser.add_argument("--workload", choices=run.WORKLOAD_NAMES)
    args = parser.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    run._import_package()
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    for workload in [args.workload] if args.workload else run.WORKLOAD_NAMES:
        for seed in range(lo, hi + 1):
            table.setdefault(workload, {})[str(seed)] = pin(workload, seed)
            print(f"pinned {workload} seed {seed}", flush=True)
            run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
