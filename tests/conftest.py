"""Settings of the test process.

One BLAS thread: numpy's threaded OpenBLAS oversubscribes a small shared
host, which made the acceptance budgets fail when other work ran beside the
suite.  It is set before any test module imports numpy; a value already in
the environment is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
