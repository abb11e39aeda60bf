"""The command line, run on one thread: ``python -m jacobispec`` and the
installed ``jacobispec`` command both enter here.

Every route is a sequential three-term recurrence and nothing in the
package calls BLAS, yet OpenBLAS starts a worker thread when numpy loads,
and that thread busy-waits for about 0.12 s of CPU per run.  The pin below
is written before anything imports numpy, which the lazy package root
allows; it is a constant, not an option.
"""

import os
import sys

os.putenv("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
