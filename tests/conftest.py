"""Settings of the test process.

`ellcert` is imported before any test module imports numpy, so the suite runs
under the library's own BLAS thread count: one, unless OPENBLAS_NUM_THREADS is
exported (see `ellcert/__init__.py`).  Subprocesses that the tests start
inherit the setting.
"""

import ellcert  # noqa: F401
