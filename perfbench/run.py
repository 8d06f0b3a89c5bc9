"""The bitmimo benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload paper-point --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It starts the workload in fresh processes
(`perfbench/workload.py`) with the BLAS thread count fixed, takes the median
set-up time over a few of them, checks the outputs (no failed or missing ops,
reference values for the seed, one CSV digest per seed and source tree), prints
provenance and every metric by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones from a
traced phase that follows an untraced one in the same process.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import unit

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-point", "design-sweep", "small-many")
SETUP_REPEATS = 3     # processes whose set-up time goes into the median
TIME_LIMIT_S = 170.0  # the whole run, all processes included
BLAS_THREADS = 1  # one thread: runs on a shared two-core box stay steady

# Values the design fixes (no solver in between) must match the reference to
# REL_TOL. Solver results may only improve beyond their tolerance.
REL_TOL = 1e-6
HIT_RATE_DROP = 0.1    # absolute, per method (one target of paper-point: 0.083)
MSE_A_RISE = 0.10      # relative, per method

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "peak_rss_mb": "MB",
                    "completed_frac": "ratio", "design_emse_rel": "ratio"}
# Printed by name and unit, gated against the reference, not bounded.
QUALITY_UNITS = {"failed_frac": "ratio", "hit_rate": "ratio", "mse_a": "ratio",
                 "mse_s": "ratio"}


class BenchError(RuntimeError):
    pass


def source_digest(root):
    """Digest of the program and benchmark sources."""
    h = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = root / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        packed = root / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def blas_env():
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads)


def spawn(args, phase, workdir, index, deadline, env):
    out = workdir / f"{phase}{index}.json"
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--phase", phase,
           "--spawned-at", repr(started), "--workdir", str(workdir), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{phase} process exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{phase} process exited with code {proc.returncode}")
    return json.loads(out.read_text())


def reference_entry(first):
    """What the reference keeps of a run's first cycle: the per-point design
    values and the per-method quality means."""
    return {"points": first["points"], "methods": first["methods"]}


def check_reference(call, reference, problems):
    if sorted(call["points"]) != sorted(reference["points"]) \
            or sorted(call["methods"]) != sorted(reference["methods"]):
        problems.append("points or methods differ from the reference")
        return
    # The design fixes these; no solver runs between the seed and them.
    fixed = [(key, name, value, call["points"][key][name])
             for key, ref in reference["points"].items() for name, value in ref.items()]
    fixed += [(method, "mse_s", ref["mse_s"], call["methods"][method]["mse_s"])
              for method, ref in reference["methods"].items()]
    for key, name, want, got in fixed:
        if abs(got - want) > REL_TOL * abs(want):
            problems.append(f"{key} {name}={got!r}, reference {want!r}")
    for method, ref in reference["methods"].items():
        got = call["methods"][method]
        if got["hit_rate"] < ref["hit_rate"] - HIT_RATE_DROP:
            problems.append(f"{method} hit_rate {got['hit_rate']:.4f} below reference "
                            f"{ref['hit_rate']:.4f} - {HIT_RATE_DROP}")
        if got["mse_a"] > ref["mse_a"] * (1.0 + MSE_A_RISE):
            problems.append(f"{method} mse_a {got['mse_a']:.4g} above reference "
                            f"{ref['mse_a']:.4g} * (1 + {MSE_A_RISE})")


def check_quality(result, reference, problems):
    """Sanity on every seed; reference values where the seed has them."""
    first = result["first"]
    for row in first["rows"]:
        values = [v for k, v in row.items() if k != "key" and v is not None]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{row['key']}: non-finite value in {row}")
        if not 0.0 <= row.get("hit_rate", 0.0) <= 1.0:
            problems.append(f"{row['key']}: hit rate {row['hit_rate']} outside [0, 1]")
        if row["eps_lmmse"] <= 0 or (row["eps_emse"] is not None and row["eps_emse"] < 0):
            problems.append(f"{row['key']}: negative design error")
        if "filter_rows" in row and row["filter_rows"] != row["filter_rows_expected"]:
            problems.append(f"{row['key']}: filter CSV has {row['filter_rows']} rows, "
                            f"expected P*N*M*L = {row['filter_rows_expected']}")
    if reference is None:
        return "none for this seed (sanity checks only)"
    check_reference(first, reference, problems)
    return "compared"


def check_history(root, key, digest, problems):
    """Append this run's digest; flag an earlier run of the same key whose
    digest differs (same spec + seed + source + BLAS set-up must give the same
    bytes)."""
    path = root / ".perfbench_runs" / "digests.jsonl"
    path.parent.mkdir(exist_ok=True)
    if path.is_file():
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            if rec["key"] == key and rec["digest"] != digest:
                problems.append(f"output digest {digest[:12]} differs from an earlier "
                                f"run of this source and seed ({rec['digest'][:12]})")
                break
    with open(path, "a") as fh:
        fh.write(json.dumps({"key": key, "digest": digest, "time": time.time()}) + "\n")


def ops_per_s(calls):
    """Ops of one cycle over the summed median repeat time of each call."""
    walls, ops = {}, {}
    for c in calls:
        walls.setdefault(c["call"], []).append(c["wall_s"])
        ops[c["call"]] = c["attempted"]
    return sum(ops.values()) / sum(statistics.median(w) for w in walls.values())


def output_digest(calls, problems):
    """One digest over the calls' outputs; repeats of a call must agree."""
    digests = {}
    for c in calls:
        digests.setdefault(c["call"], set()).add(c["digest"])
    for index, seen in sorted(digests.items()):
        if len(seen) != 1:
            problems.append(f"repeats of call {index} wrote {len(seen)} different outputs")
    return hashlib.sha256("".join(min(seen) for _, seen in sorted(digests.items()))
                          .encode()).hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bitmimo" / "__init__.py").is_file():
        print("perfbench: no src/bitmimo here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env = blas_env()
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_REPEATS - 1):
                setups.append(spawn(args, "setup", workdir, i, deadline, env)["setup_s"])
        result = spawn(args, "run", workdir, 0, deadline, env)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()
    setups.append(result["setup_s"])

    calls = result["calls"]
    all_calls = calls + result.get("traced_calls", [])
    attempted = sum(c["attempted"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} ops failed or are missing")
    traced_failed = sum(c["failed"] for c in result.get("traced_calls", []))
    if traced_failed:
        problems.append(f"{traced_failed} traced ops failed or are missing")
    if result["errors"]["count"]:
        problems.append(f"{result['errors']['count']} ERROR log records")
    digest = output_digest(all_calls, problems)

    references = json.loads((HERE / "reference.json").read_text())
    reference = references["workloads"][args.workload].get(str(args.seed))
    ref_status = check_quality(result, reference, problems)

    prov = dict(result["provenance"], git_commit=git_commit(root),
                sources_sha256=source_digest(root), seed=args.seed,
                workload=args.workload, config_hashes=result["config_hashes"],
                output_sha256=digest)
    key = [prov["sources_sha256"], args.workload, args.seed, prov["blas_threads"],
           prov["numpy"], prov["blas"]]
    check_history(root, key, digest, problems)

    q = result["first"]["quality"]
    if args.trace:
        traced = ops_per_s(result["traced_calls"])
        untraced = ops_per_s(calls)
        metrics = dict(result["layers"])
        metrics["trace.overhead_frac"] = 1.0 - traced / untraced
        units = {name: unit(name) for name in metrics}
        trace_path = root / ".perfbench_runs" / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(result["spans"]))
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "ops_per_s": ops_per_s(calls),
                   "peak_rss_mb": result["peak_rss_mb"],
                   "completed_frac": (attempted - failed) / attempted,
                   "design_emse_rel": q["design_emse_rel"]}
        units = dict(END_TO_END_UNITS)

    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    print(f"{len(calls)} timed calls; set-up samples {[round(s, 3) for s in setups]}")
    print(f"reference: {ref_status}")
    shown = dict(metrics)
    if not args.trace:
        shown["failed_frac"] = failed / attempted
        shown.update({name: q[name] for name in ("hit_rate", "mse_a", "mse_s") if name in q})
        units.update(QUALITY_UNITS)
    for name, value in shown.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if result["errors"]["first"]:
        print(f"{result['errors']['count']} ERROR records; the first:\n"
              f"{result['errors']['first']}")

    if not all(math.isfinite(v) for v in metrics.values()):
        print("perfbench: a metric is not finite; no result", file=sys.stderr)
        return 4
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
