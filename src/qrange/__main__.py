"""Allow ``python -m qrange``; :func:`run` is also the installed ``qrange`` script."""

import os
import sys


def run() -> int:
    """Run the CLI on ``sys.argv`` with OpenBLAS on one thread unless the caller chose a count.

    The variable must be set before NumPy loads: OpenBLAS reads it once, and
    its idle worker otherwise spins at start-up for tens of milliseconds,
    on the main thread's CPU when they share one.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main

    return main()


if __name__ == "__main__":
    sys.exit(run())
