"""Test-session setup: BLAS runs on one thread.

Acceptance criteria 5 and 6 take most of the suite's time, and most of
theirs is matrix products of modest size. At OpenBLAS's default of one
thread per core, its worker threads spin-wait on each other, so any other
busy process on the machine stalls them: one epoch of criterion 5's U-Net
took 15.9 s alone and 34.3 s beside one busy process on a 2-core x86 VM,
against 18.2 s and 18.1 s on one thread. The subprocesses that the tests
start inherit the setting. It must be in the environment before numpy is
first imported, which this file is; a value already set is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
