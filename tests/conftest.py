"""Test-session settings, applied before any test module imports numpy.

BLAS runs on one thread, as in CI, so that a threaded BLAS on a busy core
cannot slow the tests' larger products many times over.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
