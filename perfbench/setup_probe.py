"""Time one benchmark set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is the package import plus drawing the workload inputs, as
``run.setup`` does it; ``run.py`` starts this a few times per run and
reports the median of these and its own set-up.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

from run import setup  # noqa: E402

setup(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - T0)
