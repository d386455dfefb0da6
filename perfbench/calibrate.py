"""Host-speed calibration.

On a host shared with other tenants, the speed a process gets changes by
up to 2x for seconds at a time.  Every job is followed by
a short fixed kernel, and the job's time is scaled by how long the kernel
took compared with REFERENCE_S.  The kernel imports nothing from symfa and
builds its data once, so no change to the program can change its speed.

The kernel does the kind of work symfa does: Moore refinement of a fixed
random DFA, in tuples, lists and dicts of small ints.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

_rng = random.Random(20211227)
_STATES, _LETTERS = 500, 6
_TABLE = [[_rng.randrange(_STATES) for _ in range(_LETTERS)]
          for _ in range(_STATES)]
_ACCEPTING = [_rng.random() < 0.5 for _ in range(_STATES)]

# Median kernel time on a quiet host: the 2-vCPU Xeon (KVM guest) the
# benchmark was tuned on.  It only fixes the unit of calibrated seconds.
REFERENCE_S = 0.0012

# Calibrations of this many neighbouring jobs, centred on a job, set its
# host speed: single kernel timings are too short to trust alone.
WINDOW = 5


def kernel():
    block = [int(a) for a in _ACCEPTING]
    count = len(set(block))
    while True:
        ids = {}
        block = [ids.setdefault((block[s],) + tuple(block[t] for t in row),
                                len(ids))
                 for s, row in enumerate(_TABLE)]
        if len(ids) == count:
            return count
        count = len(ids)


def measure():
    """Median of three timings of the kernel, on a freshly collected heap
    so that garbage left by a job does not trigger collections inside."""
    gc.collect()
    times = []
    for _ in range(3):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def scale(times, calibrations):
    """Calibrated times: each time times REFERENCE_S over the median of
    the calibrations in a window of WINDOW around it."""
    half = WINDOW // 2
    out = []
    for i, t in enumerate(times):
        near = calibrations[max(0, i - half):i + half + 1]
        out.append(t * REFERENCE_S / statistics.median(near))
    return out
