"""Run the suite with one BLAS thread: numpy reads OPENBLAS_NUM_THREADS when it is
first imported, which is after this file loads. Contending BLAS threads slow the
small dense products of every case on a machine with few cores. An explicit
setting in the environment is kept."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
