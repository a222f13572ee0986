"""The machine's current speed, read from a fixed kernel that never calls the library.

On a virtual machine shared with other tenants a pure-Python loop runs up to
1.7x slower in some seconds than in others, and process CPU time slows with
it.  The benchmark runs ``kernel_s`` between operations and scales each
operation's wall time by ``REFERENCE_S`` over the kernel time measured around
it.  A time so scaled reads in seconds at the speed at which the kernel takes
``REFERENCE_S``: a change to the library moves it, the machine's speed mostly
does not (the README gives what is left).
``scale`` does the same for the per-layer metrics of a probe or a traced round.

The kernel does the kind of work the library does (small dicts keyed by
tuples of ints, tuple building, a sort with a key function), with the cyclic
garbage collector off so that the size of the library's heap does not slow it.
"""
from __future__ import annotations

import gc
import statistics
import time

# about the kernel's median time on a 2-vCPU virtual machine with Python 3.11,
# which swings between 4 and 7 ms there with the load of other tenants
REFERENCE_S = 0.0050
REPEATS = 3


def _kernel() -> int:
    counts: dict = {}
    for i in range(6000):
        key = ((i * 7919) % 509, i & 7)
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[0][1]


def kernel_s() -> float:
    """Median time of a few kernel runs, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


TIME_UNITS = ("s", "ms", "us", "ns")


def scale(metrics: dict, kernel: float) -> dict:
    """Metrics of ``(value, unit)`` measured while the kernel took ``kernel``
    seconds, at the reference speed: times scaled by ``REFERENCE_S / kernel``,
    rates (units ending in ``/s``) by its inverse, counts and sizes kept."""
    factor = REFERENCE_S / kernel
    out = {}
    for name, (value, unit) in metrics.items():
        if unit in TIME_UNITS:
            value *= factor
        elif unit.endswith("/s"):
            value /= factor
        out[name] = (value, unit)
    return out
