"""How fast the host runs Python right now, from a fixed probe.

On a shared machine the speed at which this interpreter runs drifts by a
third within minutes, and every timing drifts with it.  A probe of fixed
pure-Python work, built only from the standard library (a depth-first
search over frozensets, the kind of work the engine's path search does,
and random reads over 8 MB, since the engine's heap does not fit in cache
either), is timed before, between the links of and after every pass.
Scaling the pass's times by ``REFERENCE_S`` over the mean of its probes
gives seconds at a fixed reference speed, which change only when the
engine's work changes.  The probe never calls the engine, so a faster
engine cannot make the probe faster.

Each probe is run twice and only the second run is timed, with the
garbage collector off.  Right after a link the probe's code and data are
out of the caches and a collection would scan the engine's heap; a probe
timed cold tracked the engine's pass times worse than no probe at all
(on a 2-vCPU host: correlation 0.1 to 0.5 with the pass time, against
0.9 for the warm probe, which cut the spread of pass times from 11-14%
to 4-7%).
"""

from __future__ import annotations

import functools
import gc
import statistics
import time
from array import array
from collections import namedtuple

# The clock of every time the benchmark reports: CPU seconds of this
# thread.  The other tenants of a shared host take turns on its few cores,
# and wall time counts their turns as the engine's; CPU time does not.
# What they still change (caches, a busy sibling hyperthread, the clock
# rate) the probe below tracks.
clock = time.thread_time

# The probe time that defines the reference speed: about what one probe
# takes on a quiet 2-vCPU x86-64 host with CPython 3.11.
REFERENCE_S = 0.012

# Seconds between probes inside a pass: often enough to follow the drift
# on passes of many short links; a pass of long links is probed between
# every two links.
PROBE_INTERVAL_S = 0.25

# 1M slots (8 MB), each holding the next slot of a full-period linear
# congruential sequence, so following them reads all over the table.
# The table is made on first use, so importing this module (the
# set-up probe does, through workloads.py) stays cheap.
_STEPS = 40000
_SLOTS = 1 << 20


@functools.cache
def _chase() -> array:
    return array("q", ((133333 * i + 7) % _SLOTS for i in range(_SLOTS)))


_Node = namedtuple("_Node", "x y")
_GRID = {}
for _x in range(10):
    for _y in range(6):
        _GRID[_Node(_x, _y)] = tuple(n for n in (_Node(_x + 1, _y), _Node(_x, _y + 1))
                                     if n.x < 10 and n.y < 6)


def _work() -> int:
    found = [0]

    def walk(node, seen):
        if not _GRID[node]:
            found[0] += 1
            return
        for nxt in _GRID[node]:
            if nxt not in seen:
                walk(nxt, seen | {nxt})

    start = _Node(0, 0)
    walk(start, frozenset({start}))
    chase, i = _chase(), 0
    for _ in range(_STEPS):
        i = chase[i]
    return found[0] + i


class SpeedMeter:
    """Probe times of one pass; ``maybe`` probes when PROBE_INTERVAL_S
    have passed since the last probe."""

    def __init__(self):
        _chase()
        self.times: list[float] = []
        self.last = clock()

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            _work()
            t0 = clock()
            _work()
            self.last = clock()
        finally:
            if enabled:
                gc.enable()
        self.times.append(self.last - t0)

    def maybe(self) -> None:
        if clock() - self.last >= PROBE_INTERVAL_S:
            self.sample()

    def factor(self) -> float:
        """Multiplier from seconds measured while these probes were taken
        to reference seconds."""
        return REFERENCE_S / statistics.fmean(self.times)
