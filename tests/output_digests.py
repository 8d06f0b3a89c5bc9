"""sha256 digests of the program's outputs, to compare two checkouts byte by byte.

Run from the root of a checkout (a script, not a collected test):

    python3 tests/output_digests.py OUTDIR

It writes into OUTDIR, which must be empty or missing, the `run_sweep` CSVs
and sidecars of every array of the benchmark's paper-point seeds 0 and 7 and
small-many seed 0 (specs from perfbench/workload.py), the `bitmimo design`
outputs of design-sweep seed 1, and an off-grid `simulate` and `sweep` of all
four methods. The off-grid layout's tones are off one common grid, so it has no
band Gram and power iteration sets the solver constants, a path that no
benchmark workload reaches. It drops `timestamp` and `timing` from every
sidecar and prints one `sha256 name` line per file; `diff` two checkouts'
listings, or two runs of one checkout, which is how CI checks that one spec
and seed give the same bytes in every process. BLAS runs on one thread unless
the environment sets OPENBLAS_NUM_THREADS (or its OMP/MKL peers): paper-point's
last bits move with the thread count, so only listings made at one count
compare.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workload  # noqa: E402  (puts ./src first on the path)
from bitmimo import cli, harness  # noqa: E402

# an explicit layout whose bands' tones are off one common grid: no band Gram,
# so power iteration sets the solver constants, which no benchmark workload
# reaches. A `simulate` and a 2 x 2 x 2-point `sweep` on it, all four methods
OFF_GRID = {"M": 2, "N": 3, "bandwidth": 1e6, "pri": 3e-6, "rx_pos": [0.0, 0.5, 1.0],
            "tx_pos": [0.0, 1.5], "tone_offsets": [-5e5, 6e5]}
OFF_GRID_RUNS = {
    "off_grid.csv": ["simulate", "--seed", "3", "--trials", "4", "--budget-bits", "36",
                     "--snr-db", "10", "--dcr", "2", "--k", "2"],
    "off_grid_sweep.csv": ["sweep", "--seed", "5", "--trials", "2", "--budget-bits", "36,72",
                           "--snr-db", "-10,10", "--dcr", "1,2", "--k", "2"],
}


def write_outputs(out: Path) -> None:
    for name, seed in (("paper-point", 0), ("paper-point", 7), ("small-many", 0)):
        for i, spec in enumerate(workload.WORKLOADS[name](seed, out).specs):
            harness.run_sweep(spec, out_csv=out / f"{name}-{seed}-array{i}.csv")
    design = workload.DesignSweep(1, out)
    off_grid = out / "off_grid.json"
    off_grid.write_text(json.dumps(OFF_GRID))
    with contextlib.redirect_stdout(io.StringIO()):
        for _, _, argv in design.points:
            cli.main(argv)
        for csv, argv in OFF_GRID_RUNS.items():
            cli.main(argv + ["--config", str(off_grid), "--out", str(out / csv),
                             "--methods", ",".join(harness.METHODS)])


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    out = Path(args[0])
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    write_outputs(out)
    for sidecar in out.glob("*.meta.json"):
        meta = json.loads(sidecar.read_text())
        del meta["timestamp"], meta["timing"]
        sidecar.write_text(json.dumps(meta, indent=1, sort_keys=True))
    for path in sorted(out.iterdir()):
        print(hashlib.sha256(path.read_bytes()).hexdigest(), path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
