"""Set-up time of one workload in a fresh interpreter.

Prints the seconds from before ``import qags`` to the end of building the
workload's objectives, boxes and configs, then the fastest of three runs
of the speed probe (``speed.py``) made in the same interpreter right
after, so the parent can scale the set-up time to reference speed.
``run.py`` starts this several times and reports the median as ``setup_s``.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

started = time.perf_counter()

import workloads  # noqa: E402  (imports qags and NumPy)

workloads.build(sys.argv[1], int(sys.argv[2]))
setup = time.perf_counter() - started

import speed  # noqa: E402

speed.probe_s()  # first call warms the probe's code paths
print(setup, min(speed.probe_s() for _ in range(3)))
