"""Run the float paths at the BLAS thread count that perfbench and tools/ use.

Generated certificates depend on the OpenBLAS thread count, so tests that
compare them see the same floats on every machine. numpy has not been
imported when this runs; a value set in the environment wins.
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
