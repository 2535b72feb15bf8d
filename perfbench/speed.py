"""Host speed probe: a fixed piece of work timed right beside every timed run.

On a shared host the speed of the benchmark's own CPU drifts: neighbours
slow Python and NumPy code by up to 1.8x, in phases that last from seconds
to minutes, so two sets of runs taken minutes apart can differ by more
than any change worth measuring.  The probe's work never changes, so the
ratio of a run's time to the probe's time next to it is the run's cost in
units of host speed.  ``at_reference`` turns that ratio back into seconds
by multiplying it by ``REFERENCE_S``, the probe's fastest time in a tight
loop on the reference host (2 vCPUs, NumPy 2.4).  Beside a run the probe
finds its data evicted from cache and takes longer, so scaled times read
lower than the same runs' wall times on a quiet host.

The work mixes what the program does: a pure-Python loop, many NumPy
calls on small arrays, one pass over an array larger than L2, and a new
16 MB array filled and summed.  Each part follows a different kind of
slowdown; on the reference host the mix kept the scaled times of every
workload steadier than their raw times, where no single part did.
"""

import time

import numpy as np

REFERENCE_S = 0.0134

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal(256)
_LARGE = _RNG.standard_normal(1 << 19)
_FRESH_LEN = 1 << 21


def _work():
    total = 0.0
    for i in range(20000):
        total += i * 0.5
    for _ in range(400):
        total += float(np.cos(_SMALL).sum())
    total += float(np.cos(_LARGE).sum())
    return total + float(np.ones(_FRESH_LEN).sum())


def probe_s():
    """Wall seconds of one run of the probe's fixed work."""
    started = time.perf_counter()
    _work()
    return time.perf_counter() - started


def at_reference(seconds, probe_seconds):
    """``seconds`` measured while the probe took ``probe_seconds``, scaled
    to the reference host's speed."""
    return seconds * REFERENCE_S / probe_seconds
