"""How fast the host's CPU is running right now.

On a host whose cores are shared with other tenants the CPU's speed
swings by up to half over seconds to minutes, more than the changes the
benchmark has to resolve.  A fixed pure-Python loop, timed next to the
work, measures the speed the work ran at.  ``run.py`` reports timings as
they would read on a host where that loop takes its reference time
(``measured * reference / median loop time``) and prints the raw
figures beside them.  The loops use no program code, so a change to the
program cannot move them.

Other tenants slow different work by different amounts, so each
workload is scaled by the loop that tracks it best (``NOTES.md`` has
the measurements): the simulator's walks over a large heap by scattered
accesses to a large array, the model checker's hashing of states by
work on a list of integer objects and a dict.  Both loops allocate only
integers, which the garbage collector does not track, so their cost
does not depend on how big the process's heap is.
"""

from __future__ import annotations

import gc
import time
from array import array

_ARRAY_SIZE = 1 << 21
_ARRAY_MASK = _ARRAY_SIZE - 1
_LIST_SIZE = 1 << 15
_LIST_MASK = _LIST_SIZE - 1


def _array_loop(table):
    """Scattered read-modify-write over a 16 MiB array, far larger than
    a core's L2 cache, as the simulator walks a heap of ~100 MB."""
    acc = 0
    for i in range(3000):
        j = (i * 2654435761) & _ARRAY_MASK
        table[j] = (table[j] + i) & 0xFFFFF
        acc ^= table[(j * 40503) & _ARRAY_MASK]
    return acc


def _build_array():
    return array("q", range(_ARRAY_SIZE))


def _object_loop(tables):
    """List, dict and integer work in a scattered order, like the model
    checker's walk over hashed states."""
    values, order, lookup = tables
    acc = 0
    for i in range(3000):
        j = order[(i * 97) & _LIST_MASK]
        values[j] = (values[j] + i) & 0xFFFFF
        acc ^= lookup.get(values[j] & 4095, 0)
    return acc


def _build_objects():
    return (list(range(_LIST_SIZE)),
            [(i * 40503) & _LIST_MASK for i in range(_LIST_SIZE)],
            {i: (i * 7) & 0xFFF for i in range(4096)})


#: loop name -> (loop, builder of its data, seconds per pass at the
#: reference speed: about the usual speed of a shared 2-CPU 2.1 GHz
#: Xeon host under Python 3.11)
LOOPS = {
    "array": (_array_loop, _build_array, 0.0015),
    "objects": (_object_loop, _build_objects, 0.002),
}
#: The loop each workload's timings are scaled by.
WORKLOAD_LOOP = {
    "pox-async": "array",
    "fleet-mixed": "array",
    "reproduce": "objects",
}

_loop = None
_data = None
reference_s = None


def prepare(workload, passes=3):
    """Select *workload*'s loop, build its data and run a few passes
    before any timed work: the first passes in a fresh process run
    slower, on cold data and a cold interpreter, and building the array
    takes a tenth of a second."""
    global _loop, _data, reference_s
    _loop, build, reference_s = LOOPS[WORKLOAD_LOOP[workload]]
    _data = build()
    for _ in range(passes):
        sample()


def sample():
    """Seconds one pass of the selected loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _loop(_data)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def samples(count):
    return [sample() for _ in range(count)]
