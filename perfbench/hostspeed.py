"""Host-speed calibration for the simulation workloads' job timings.

The benchmark's host is a shared virtual machine whose speed changes by up
to 1.6x between stretches of 30 to 90 seconds (see the README's *Host
speed*), so a 30-second run sits in one state or the other, and raw wall
times of the same work differ by that much between runs.  :func:`calibrate`
times a fixed, program-independent piece of interpreter work (attribute
access, small sorts, dict updates, float arithmetic, like the simulator's
per-slot loop) before and after every simulation job, and
:func:`reference_seconds` rescales the job's wall time to a host on which
that kernel takes exactly ``REFERENCE_S``.  A change to the program does
not move the kernel, so it shows in full; a change of host speed moves
both and cancels.

Set-up and the service workload are reported in wall seconds: the kernel
does not track process start-up and imports, and a kernel run by the
service's client does not track the server's worker (the README gives the
measurements).  Standard library only.
"""

from __future__ import annotations

import random
import time

#: Kernel time (seconds) on the reference host.  Rescaled timings are wall
#: seconds x REFERENCE_S / measured kernel time.
REFERENCE_S = 0.010
#: Rounds of the kernel per calibration (about 10-20 ms).
ROUNDS = 1500


class _Processor:
    __slots__ = ("speed", "state", "load")

    def __init__(self, speed: int):
        self.speed = speed
        self.state = 0
        self.load = 0.0


def _kernel(rounds: int) -> float:
    rng = random.Random(12345)
    processors = [_Processor(rng.randint(1, 10)) for _ in range(20)]
    seen: dict = {}
    total = 0.0
    for _ in range(rounds):
        for processor in processors:
            draw = rng.random()
            processor.state = 0 if draw < 0.9 else (1 if draw < 0.95 else 2)
        up = [processor for processor in processors if processor.state == 0]
        up.sort(key=lambda processor: (processor.speed, processor.load))
        chosen = up[:5]
        for processor in chosen:
            processor.load += 1.0 / processor.speed
        key = tuple(processor.speed for processor in chosen)
        seen[key] = seen.get(key, 0) + 1
        total += sum(processor.load for processor in chosen) / (1 + len(seen))
    return total


def calibrate() -> float:
    """Wall seconds of one fixed kernel run on this host, now."""
    start = time.perf_counter()
    _kernel(ROUNDS)
    return time.perf_counter() - start


def reference_seconds(wall_s: float, *kernel_s: float) -> float:
    """*wall_s* rescaled by the mean of the calibrations taken around it."""
    return wall_s * REFERENCE_S * len(kernel_s) / sum(kernel_s)
