"""Machine-speed probe for drift-corrected timings.

On a shared host the whole machine speeds up and slows down by tens of
percent for seconds to minutes at a time, in step for every kind of
work (measured on the 2-core box this benchmark was written on: 15 s
windows of a fixed transient varied 0.33 in inter-quartile spread, its
ratio to this probe 0.04).  The benchmark therefore times a fixed
reference loop, which touches no program code, right before and after
every measured sample. It reports the sample scaled to the speed at
which the loop takes :data:`REF_S`:

    scaled = sample * REF_S / mean(probe before, probe after)

Raw times are printed beside the scaled ones.  Probes never run while
the program does, so program work cannot slow them down.

Work that keeps every CPU busy meets a noise this probe cannot see: on
a virtual machine the hypervisor takes CPU time away ("steal") mostly
while all virtual CPUs want to run.  :func:`steal_share` measures it
with the program idle, by keeping every CPU busy for a moment.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import Tuple

import numpy as np

#: the probe's time at the reference speed (the 2-core box's fast
#: periods); a scaled time equals the raw time at that speed
REF_S = 4.5e-3
_LOOPS = 40_000
#: how long :func:`steal_share` keeps every CPU busy [s]
STEAL_SPIN_S = 0.5
_SPIN = ("import sys, time\n"
         "end = time.perf_counter() + float(sys.argv[1])\n"
         "while time.perf_counter() < end:\n"
         "    pass\n")


def _loop() -> float:
    """Interpreter-bound work with small numpy calls, like the engine's
    own mix."""
    a = np.ones(64)
    x = 0.0
    start = time.perf_counter()
    for i in range(_LOOPS):
        x += i * 0.5
        if i % 50 == 0:
            a = a * 1.0000001 + 1e-9
    return time.perf_counter() - start


def probe() -> float:
    """Median of five runs of the reference loop [s].  The median, not
    the minimum: an operation runs at the host's average speed, and the
    fastest probe run overstates it when contention comes in bursts."""
    return statistics.median(_loop() for _ in range(5))


def scale(sample: float, before: float, after: float) -> float:
    """``sample`` at the reference speed, from the probes around it."""
    return sample * REF_S / (0.5 * (before + after))


def cpu_ticks() -> Tuple[int, int]:
    """``(busy, stolen)`` CPU ticks of the whole machine so far, from
    ``/proc/stat``; ``(0, 0)`` where the kernel does not report them."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    if len(fields) < 8:
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq, steal


def steal_share() -> float:
    """Share of the CPU time the machine gets while every CPU wants to
    run, ``busy / (busy + stolen)`` over :data:`STEAL_SPIN_S` of one
    spinning process per CPU; 1 where the kernel reports no steal.

    Measured with the program idle and at a fixed demand, so a program
    that keeps more CPUs busy does not change it."""
    before = cpu_ticks()
    procs = [subprocess.Popen([sys.executable, "-c", _SPIN,
                               str(STEAL_SPIN_S)])
             for _ in range(len(os.sched_getaffinity(0)))]
    try:
        for proc in procs:
            proc.wait(timeout=30.0)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    after = cpu_ticks()
    busy = after[0] - before[0]
    stolen = after[1] - before[1]
    return busy / (busy + stolen) if busy + stolen > 0 else 1.0
