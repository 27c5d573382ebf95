"""Machine-speed correction for the end-to-end timings.

On a shared 2-vCPU machine the same Python code runs at two speeds that
alternate every few seconds: a fixed loop measured back to back for 60 s
took 40 ms in some stretches and 68 ms in others, in wall and in CPU time
alike. Runs that differ only in which stretches they met then differ by up
to 1.7x, and no run length averages that out.

So a fixed reference kernel, written here and sharing no code with
procforge, is timed every 50 ms from a SIGALRM handler while the benchmark
runs. An interval's measured time is scaled by how much slower than its
nominal time the kernel ran around that interval, and the kernel's own time
inside the interval is taken out. The result reads as seconds on a machine
where the kernel takes REF_KERNEL_S, so it moves with the program's own
speed and not with the machine's.
"""

from __future__ import annotations

import bisect
import copy
import gc
import json
import random
import signal
import time
import xml.etree.ElementTree as ET
from array import array
from dataclasses import dataclass

import gen

# The kernel's time on the machine the baseline was taken on (2 vCPU Xeon
# at 2.0 GHz, in its fast stretches). It only scales the figures.
REF_KERNEL_S = 0.0012
PERIOD_S = 0.05
NEAR_S = 0.25  # ticks this close to an interval describe its speed

_XML = gen.block_model_bpmn(random.Random(7), 40, "ref")
_DOC = {"0x%040x" % i: i * 7 for i in range(60)}


@dataclass(frozen=True)
class _Flow:
    source: str
    target: str


_FLOWS = tuple(_Flow(f"n{i}", f"n{(i * 7) % 50}") for i in range(50))


def reference_kernel() -> int:
    """A fixed mix of what procforge spends its time on: XML parsing, JSON,
    deepcopy, dict and frozenset work, and linear scans over small
    objects."""
    root = ET.fromstring(_XML)
    n = sum(1 for el in root.iter() if el.get("id"))
    dup = copy.deepcopy(json.loads(json.dumps(_DOC)))
    d, s, fs = {}, 0, frozenset(range(40))
    for i in range(60):
        k = (i * 7919) % 997
        d[k] = d.get(k, 0) + i
        s += len("x%d" % k) + (k in fs) + len(fs | {k})
        s += len(tuple(f for f in _FLOWS if f.target == f"n{k % 50}"))
    return s + n + len(dup)


class SpeedSampler:
    """Times reference_kernel every PERIOD_S seconds while active."""

    def __init__(self):
        self.ends = array("d")
        self.durations = array("d")
        self._old = None

    def _tick(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()  # leave the program's garbage to the program
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def seconds(self, a: float, b: float) -> float:
        """Nominal-speed seconds of the interval [a, b] of perf_counter."""
        inside = sum(self.durations[bisect.bisect_left(self.ends, a):
                                    bisect.bisect_right(self.ends, b)])
        near = sorted(self.durations[bisect.bisect_left(self.ends, a - NEAR_S):
                                     bisect.bisect_right(self.ends, b + NEAR_S)])
        if not near:
            raise RuntimeError("no speed samples around the interval")
        near = near[:max(1, len(near) * 9 // 10)]  # a tick can catch a stall
        return (b - a - inside) * REF_KERNEL_S * len(near) / sum(near)
