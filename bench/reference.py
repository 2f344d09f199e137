"""A fixed reference workload that measures how fast this CPU runs Python right now.

On a shared host the speed of one vCPU shifts by up to 50 % within minutes
(contention from neighbours, not stolen time), which no run length averages
out.  The benchmark therefore times `reference_pass` between its operations
and reports every time in reference seconds: measured seconds scaled by
REFERENCE_S over the mean measured time of the passes.  A slower program still
reads slower; a slower machine does not.  The pass uses nothing from the
package, and runs with the garbage collector off so the program's heap does
not change its cost.
"""
from __future__ import annotations

import gc
import random
import statistics
import time

# what reference_pass takes at reference speed: its median on a 2-vCPU KVM
# guest with an Intel Xeon (family 6, model 143) under Python 3.11
REFERENCE_S = 0.006

_rng = random.Random(7)
_ADJ = {v: sorted(_rng.sample(range(300), 4)) for v in range(300)}


def _work() -> int:
    # breadth-first search from every tenth vertex of a fixed random graph:
    # dict, set, list and tuple churn like the package's inner loops
    total = 0
    for src in range(0, 300, 10):
        seen = {src: 0}
        queue = [src]
        i = 0
        while i < len(queue):
            u = queue[i]
            i += 1
            for w in _ADJ[u]:
                if w not in seen:
                    seen[w] = seen[u] + 1
                    queue.append(w)
        total += sum(sorted(seen.values())) + len({(a % 7, b % 5) for a, b in seen.items()})
    return total


def reference_pass() -> float:
    """Seconds one pass of the reference work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(passes: list[float]) -> float:
    """Factor turning measured seconds into reference seconds."""
    return REFERENCE_S / statistics.fmean(passes)
