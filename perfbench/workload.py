"""One workload process of the bitmimo benchmark.

Started by `perfbench/run.py` from the root of a checkout, with the BLAS thread
count fixed in its environment. It imports bitmimo from `./src`, builds the
workload's inputs from the seed, sets up (import, config, dictionary, one
untimed warm-up op), then repeats cycles of timed calls into the program for
about `--seconds` and writes what it saw as JSON to `--out`.

    --phase setup   stop after set-up (run.py starts a few of these to take a
                    median set-up time)
    --phase run     set up, then the timed calls; with --trace 1 a second
                    timed phase follows with every layer boundary traced
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import functools
import io
import itertools
import json
import logging
import os
import platform
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

from bitmimo import cli, combiner, harness, model  # noqa: E402

import spans  # noqa: E402

CONFIG_SEED_TAG = 0xC0F1


def random_array_config(dims, seed, index):
    rng = np.random.default_rng(np.random.SeedSequence([seed, CONFIG_SEED_TAG, index]))
    return model.config_from_dict(dict(dims, array="random"), rng=rng)


class SweepWorkload:
    """Sweep points through `harness.run_sweep`, one sweep per random array;
    an op is one (trial, method) recovery. A timed call is one array's sweep;
    repeats of a call must write the same CSV bytes."""

    dims: dict
    axes: dict
    arrays: int

    def __init__(self, seed, workdir):
        self.specs = [harness.ExperimentSpec(
            config=random_array_config(self.dims, seed, i), methods=harness.METHODS,
            master_seed=seed * self.arrays + i, **self.axes) for i in range(self.arrays)]
        self.csvs = [workdir / f"sweep{i}.csv" for i in range(self.arrays)]
        self.config_hashes = [combiner.config_hash(s.config) for s in self.specs]
        self.dictionaries = []

    def setup(self):
        self.dictionaries = []  # drop the old Phi before building a new one
        self.dictionaries = [harness.build_dictionary(s.config) for s in self.specs]

    def warmup(self):
        spec = replace(self.specs[0], trials=1, methods=("bilimo",),
                       snr_db=self.specs[0].snr_db[:1])
        harness.run_sweep(spec, dictionary=self.dictionaries[0])

    def calls(self):
        return [functools.partial(self._sweep, i) for i in range(self.arrays)]

    def _sweep(self, i):
        spec, csv = self.specs[i], self.csvs[i]
        t0 = time.perf_counter()
        result = harness.run_sweep(spec, out_csv=csv, dictionary=self.dictionaries[i])
        wall = time.perf_counter() - t0
        rows = [{"key": f"array{i}@{p.snr_db:g}dB/{p.method}", "trials": p.trials,
                 "failed": max(p.n_failed, spec.trials - p.trials),
                 "hit_rate": p.hit_rate_mean, "mse_a": p.mse_a_mean,
                 "mse_s": p.mse_s_mean, "eps_lmmse": p.eps_lmmse,
                 "eps_emse": p.eps_emse, "pairs": {"hit_rate": p.hits,
                                                   "mse_a": p.mse_a, "mse_s": p.mse_s}}
                for p in result.points]
        return {"wall_s": wall, "attempted": len(rows) * spec.trials,
                "failed": sum(r["failed"] for r in rows),
                "digest": hashlib.sha256(csv.read_bytes()).hexdigest(), "rows": rows}

    @staticmethod
    def summarize(rows):
        """Per-point design values and per-method quality means of one cycle."""
        points, pairs = {}, {}
        for row in rows:
            point, method = row["key"].split("/")
            if row["eps_emse"] is not None:
                points[point] = {"eps_lmmse": row["eps_lmmse"], "eps_emse": row["eps_emse"]}
            acc = pairs.setdefault(method, {"hit_rate": [], "mse_a": [], "mse_s": []})
            for name, values in row.pop("pairs").items():
                acc[name] += values
        methods = {m: {name: float(np.mean(v)) for name, v in acc.items()}
                   for m, acc in pairs.items()}
        quality = {name: float(np.mean([x for acc in pairs.values() for x in acc[name]]))
                   for name in ("hit_rate", "mse_a", "mse_s")}
        quality["design_emse_rel"] = float(np.mean(
            [p["eps_emse"] / p["eps_lmmse"] for p in points.values()]))
        return {"points": points, "methods": methods, "quality": quality}


class PaperPoint(SweepWorkload):
    """Production scale of the acceptance suite: one point, all four methods.
    How fast the Phi-operator solves converge depends on the array (up to
    40% of the work between seeds), so each call covers three arrays."""

    dims = {"M": 8, "N": 12, "bandwidth": 1e6, "pri": 9e-6}
    axes = {"budget_bits": (1728,), "snr_db": (10.0,), "dcr": (2,), "k": (4,),
            "matrix_kinds": ("gaussian",), "trials": 1}
    arrays = 3


class SmallMany(SweepWorkload):
    """Small dims, many trials: per-iteration and per-trial overhead bound.
    Solves here stop early at iteration counts that depend on the array, so
    several arrays share a call to keep the work per op steady across seeds."""

    dims = {"M": 2, "N": 3, "bandwidth": 1e6, "pri": 3e-6}
    axes = {"budget_bits": (36,), "snr_db": (-10.0, 0.0, 10.0, 20.0),
            "dcr": (2,), "k": (2,), "matrix_kinds": ("gaussian",), "trials": 2}
    arrays = 8


class DesignSweep:
    """`bitmimo design` over a production-scale grid; an op is one command."""

    dims = {"M": 8, "N": 12, "bandwidth": 1e6, "pri": 9e-6}
    grid = [(kind, dcr, budget) for kind in ("gaussian", "bernoulli", "dft")
            for dcr in (2, 4) for budget in (1728, 3456)]

    def __init__(self, seed, workdir):
        self.cfg_path = workdir / "config.json"
        self.cfg_path.write_text(json.dumps(dict(self.dims, array="random")))
        self.points = []
        for i, (kind, dcr, budget) in enumerate(self.grid):
            prefix = workdir / f"design{i}"
            argv = ["design", "--config", str(self.cfg_path), "--seed", str(seed),
                    "--budget-bits", str(budget), "--dcr", str(dcr), "--k", "4",
                    "--snr-db", "10", "--matrix-kind", kind, "--out", str(prefix),
                    "--filters-csv", f"{prefix}.filters.csv"]
            self.points.append((f"{kind}/dcr{dcr}/{budget}b", prefix, argv))
        self.warm_argv = self.points[0][2][:-4] + [
            "--out", str(workdir / "warmup"),
            "--filters-csv", str(workdir / "warmup.filters.csv")]
        self.config_hashes = []

    def setup(self):
        pass  # the CLI loads the config itself on every command

    def warmup(self):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(self.warm_argv)

    def calls(self):
        return [functools.partial(self._design, *point) for point in self.points]

    def _design(self, key, prefix, argv):
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
        except Exception:  # a failed command is counted, not fatal
            logging.getLogger("perfbench").exception("design command %s failed", key)
            return {"wall_s": time.perf_counter() - t0, "attempted": 1, "failed": 1,
                    "digest": "", "rows": []}
        wall = time.perf_counter() - t0
        meta_bytes = Path(f"{prefix}.json").read_bytes()
        csv_bytes = Path(f"{prefix}.filters.csv").read_bytes()
        meta = json.loads(meta_bytes)
        self.config_hashes = [meta["config_hash"]]
        expected_rows = (meta["channels"] * self.dims["M"] * self.dims["N"]
                         * round(self.dims["bandwidth"] * self.dims["pri"]))
        row = {"key": key, "channels": meta["channels"], "levels": meta["levels"],
               "eps_lmmse": meta["lmmse"], "eps_emse": meta["emse"],
               "filter_rows": csv_bytes.count(b"\n") - 1,
               "filter_rows_expected": expected_rows}
        return {"wall_s": wall, "attempted": 1, "failed": 0,
                "digest": hashlib.sha256(meta_bytes + csv_bytes).hexdigest(),
                "rows": [row]}

    @staticmethod
    def summarize(rows):
        points = {r["key"]: {k: r[k] for k in ("eps_lmmse", "eps_emse", "channels",
                                               "levels", "filter_rows")} for r in rows}
        quality = {"design_emse_rel": float(np.mean(
            [r["eps_emse"] / r["eps_lmmse"] for r in rows])) if rows else float("nan")}
        return {"points": points, "methods": {}, "quality": quality}


WORKLOADS = {"paper-point": PaperPoint, "design-sweep": DesignSweep,
             "small-many": SmallMany}


class ErrorCapture(logging.Handler):
    """Counts ERROR records, keeping the first traceback: the harness logs a
    failed trial to `bitmimo.harness` and drops it; failed design commands go
    to `perfbench`."""

    def __init__(self):
        super().__init__(level=logging.ERROR)
        self.count = 0
        self.first = None

    def emit(self, record):
        self.count += 1
        if self.first is None:
            self.first = logging.Formatter().format(record)


def timed_cycles(workload, seconds):
    """Repeat the workload's calls in cycles: at least one cycle, another only
    while it should end within `seconds`. Returns every call's record (rows
    only from the first cycle) and the first cycle's summary."""
    records, first_rows = [], []
    t_start = time.perf_counter()
    for cycle in itertools.count(1):
        for index, call in enumerate(workload.calls()):
            rec = call()
            rows = rec.pop("rows")
            if cycle == 1:
                first_rows += rows
            records.append(dict(rec, call=index))
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / cycle > seconds:
            break
    summary = workload.summarize(first_rows)
    summary["rows"] = first_rows
    return records, summary


def blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--phase", choices=("setup", "run"), required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    errors = ErrorCapture()
    for name in ("bitmimo.harness", "perfbench"):
        logging.getLogger(name).addHandler(errors)
    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    workload.warmup()
    out = {"setup_s": time.monotonic() - args.spawned_at}

    if args.phase == "run":
        out["calls"], out["first"] = timed_cycles(workload, args.seconds)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if args.trace:
            tracer = spans.Tracer()
            with spans.installed(tracer):
                workload.setup()
                out["traced_calls"], _ = timed_cycles(workload, args.seconds)
            ops = sum(c["attempted"] for c in out["traced_calls"])
            out["layers"] = spans.layer_metrics(tracer.spans, ops)
            out["spans"] = [s.as_dict() for s in tracer.spans]
        out["config_hashes"] = workload.config_hashes
        out["provenance"] = {
            "numpy": np.__version__, "blas": blas_info(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "python": platform.python_version(),
        }
    out["errors"] = {"count": errors.count, "first": errors.first}
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
