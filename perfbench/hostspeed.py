"""Host speed probe: a fixed piece of pure-Python work timed between ops.

On the shared 2-vCPU host the benchmark was built on, the same work ran at
one of two speeds about 1.5x apart, switching every few seconds to minutes,
so raw wall times spread 20-40% from run to run. The probe sees the same two
speeds. The probe runs before the first op of a pass and after every op,
outside the timed regions. Every reported time is a wall time scaled by
``REFERENCE_S`` over the mean probe time of its pass (of the whole set-up,
for ``setup_s``): a change in termflow moves it one to one, while a change
of host speed between passes and runs mostly cancels. Averaging over a pass
rather than using the probes next to each op alone gave the steadier result,
because a single probe is short and noisy. Raw wall times and every probe
stay in the full report.

The probe's two parts are integer arithmetic and dict/tuple building over a
fixed word list. It uses nothing from termflow and runs with the garbage
collector off, so no change to termflow changes its time.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

#: Probe seconds (both parts) at the faster of the two speeds seen on the
#: shared 2-vCPU Xeon host the benchmark was built on. Reported times are
#: scaled to this speed.
REFERENCE_S = 0.0125

_REPEATS = 3
_rng = random.Random(0)
_WORDS = [f"w{_rng.randrange(20_000)}" for _ in range(40_000)]


def _arith() -> int:
    total = 0
    for i in range(60_000):
        total += i * i
    return total


def _dicts() -> int:
    counts: dict[str, int] = {}
    for word in _WORDS:
        counts[word] = counts.get(word, 0) + 1
    pairs = [(word, len(word)) for word in _WORDS]
    return len(counts) + len(pairs)


def probe() -> tuple[float, float]:
    """Wall seconds of the arithmetic part and of the dict part, each the
    fastest of ``_REPEATS`` runs, which drops a run slowed by a brief
    interruption or by first-touch page faults after a large free."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        arith, dicts = [], []
        for _ in range(_REPEATS):
            start = perf_counter()
            _arith()
            middle = perf_counter()
            _dicts()
            dicts.append(perf_counter() - middle)
            arith.append(middle - start)
    finally:
        if enabled:
            gc.enable()
    return min(arith), min(dicts)
