"""Test-session settings, applied before any test module imports numpy.

BLAS runs on one thread, as in CI: the fit's products with its constraint
matrix at n = 200 are large enough for OpenBLAS to thread, and a threaded
BLAS on a busy core slows those tests many times over.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
