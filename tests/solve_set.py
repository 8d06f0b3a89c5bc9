"""The LASSO solver's yardstick on the solves of paper-point seeds.

Run from the root of a checkout (a script, not a collected test):

    python3 tests/solve_set.py 0 1 2 3
    python3 tests/solve_set.py 4 5 6 7 --long-iter 4000 --verbose

For each seed it builds the paper-point sweeps the benchmark runs (three
random arrays at M=8, N=12, L=9, one point, four methods, one trial; see
perfbench/workload.py) and captures every `fista` call of `harness.run_sweep`:
twelve solves per seed. Each captured problem is then solved again for
--long-iter iterations in double precision on the same operator and rho, and
the solve's objective, evaluated the same way, is compared with that long
solve's. It prints, over all seeds: total iterations, backtracks, capped
solves, the largest relative excess (f - f_long) / f_long, and the mean hit
rate and mse_a of the sweeps. BLAS runs on one thread, as in the benchmark,
unless the environment sets OPENBLAS_NUM_THREADS (or its OMP/MKL peers).

It exits with code 1 when any solve ran all max_iter iterations or ended more
than MAX_EXCESS above its long solve, so CI can gate on it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workload  # noqa: E402  (puts ./src first on the path)
from bitmimo import harness  # noqa: E402
from bitmimo.recovery import RecoverySpec  # noqa: E402

# the largest relative excess of a solve's objective over its long solve's
MAX_EXCESS = 2e-6


def _objective(apply, s, x, rho):
    r = s - apply(x)
    return 0.5 * float(np.vdot(r, r).real) + rho * float(np.abs(x).sum())


def captured_solves(seed):
    """(label, apply, adjoint, s_hat, spec, lipschitz, x, info) of every solve
    of the seed's paper-point sweeps, and the sweeps' PointResults."""
    solves, points = [], []
    fista = harness.fista

    def recording(apply, adjoint, s_hat, spec, lipschitz=None, return_info=False):
        x, info = fista(apply, adjoint, s_hat, spec, lipschitz=lipschitz,
                        return_info=True)
        solves.append([apply, adjoint, s_hat, spec, lipschitz, x, info])
        return (x, info) if return_info else x

    with tempfile.TemporaryDirectory() as tmp:
        specs = workload.PaperPoint(seed, Path(tmp)).specs
    # the solves are captured in this process, so no point forks a child for
    # its design-free methods; the forked path solves the same problems
    forks = harness._forks
    harness.fista, harness._forks = recording, lambda spec: False
    try:
        for i, spec in enumerate(specs):
            first = len(solves)
            points += harness.run_sweep(spec).points
            for solve, method in zip(solves[first:], [m for m in harness.METHODS
                                                      if m in spec.methods]):
                solve.insert(0, f"seed {seed} array {i} {method}")
    finally:
        harness.fista, harness._forks = fista, forks
    return solves, points


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--long-iter", type=int, default=4000)
    parser.add_argument("--verbose", action="store_true", help="one line per solve")
    args = parser.parse_args(argv)

    iterations = backtracks = capped = solved = 0
    excess_max, worst = -np.inf, ""
    hits, mse_a = [], []
    for seed in args.seeds:
        solves, points = captured_solves(seed)
        hits += [h for p in points for h in p.hits]
        mse_a += [m for p in points for m in p.mse_a]
        for label, apply, adjoint, s_hat, spec, lip, x, info in solves:
            rho = info["rho"]
            s = s_hat.astype(np.complex128)
            _, info_long = harness.fista(
                apply, adjoint, s, RecoverySpec(rho=rho, max_iter=args.long_iter, tol=1e-13),
                lipschitz=lip, return_info=True)
            f_long = info_long["objective"][-1]
            excess = (_objective(apply, s, x.astype(np.complex128), rho) - f_long) / f_long
            solved += 1
            iterations += info["iterations"]
            backtracks += info.get("backtracks", 0)
            capped += info["iterations"] >= spec.max_iter
            if excess > excess_max:
                excess_max, worst = excess, label
            if args.verbose:
                print(f"{label}: {info['iterations']} iterations, "
                      f"{info.get('backtracks', 0)} backtracks, excess {excess:.2e}")
    print(f"seeds {' '.join(map(str, args.seeds))}: {solved} solves, "
          f"{iterations} iterations, {backtracks} backtracks, {capped} capped, "
          f"largest excess {excess_max:.2e} ({worst}), "
          f"hit rate {np.mean(hits):.4f}, mse_a {np.mean(mse_a):.4f}")
    if capped or excess_max > MAX_EXCESS:
        print(f"FAIL: {capped} capped solves, largest excess {excess_max:.2e} "
              f"(at most {MAX_EXCESS:g} allowed)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
