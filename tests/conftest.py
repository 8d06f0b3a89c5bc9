"""Tier-1 runs BLAS on one thread unless the environment sets a count: set
before numpy is imported, so OpenBLAS starts no second thread, the process
holds one OS thread, and a sweep point can fork (harness._forks) on a box
with two CPUs. Without it the forked-path tests of test_harness skip."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
