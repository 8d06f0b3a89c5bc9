"""Record the reference values the benchmark's correctness gate compares with.

    python3 perfbench/record_reference.py --seeds 0-19
    python3 perfbench/record_reference.py --seeds 3,7 --workload small-many

Run from the root of a checkout. For each workload and seed it runs one
untimed cycle of calls and stores its per-point design values and per-method
quality means in perfbench/reference.json, replacing what was there for that
workload and seed. Re-record only in a change that edits the benchmark.
"""

import argparse
import json
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import run


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, required=True)
    p.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = p.parse_args(argv)

    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text())
    env = run.blas_env()
    for name in args.workload or run.WORKLOADS:
        for seed in args.seeds:
            workdir = Path.cwd() / ".perfbench_work" / f"reference-{name}-{seed}"
            workdir.mkdir(parents=True)
            job = SimpleNamespace(workload=name, seed=seed, seconds=0, trace=0)
            try:
                result = run.spawn(job, "run", workdir, 0, time.monotonic() + 600, env)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if any(c["failed"] for c in result["calls"]) or result["errors"]["count"]:
                print(f"{name} seed {seed}: failed ops, not recorded", file=sys.stderr)
                return 1
            reference["workloads"][name][str(seed)] = run.reference_entry(result["first"])
            path.write_text(json.dumps(reference, sort_keys=True) + "\n")
            print(f"{name} seed {seed}: {result['first']['quality']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
