"""Times in reference seconds, so that a shared host's speed drops cancel out.

The shared hosts this benchmark runs on change speed by up to 1.8x, in
phases from under a second to minutes long, so a raw pass time says as much
about the host as about the program.  While an untraced pass runs, a
`Sampler` interrupts it every TICK_S of wall time and times a fixed
reference loop for PROBE_S.  A pass's time in reference seconds is its own
time (probes excluded) multiplied by the mean speed of the reference loop
over the pass, in chunks per second, and by REFERENCE_CHUNK_S: what the
pass would take on a host that runs one reference chunk in
REFERENCE_CHUNK_S.  The reference loop runs no endolift code, so only a
change to the program moves these figures.

Because the probes are spread evenly through the pass, inside long cells
too, they see the speed the cells ran at.  On a 2-core shared host, the
spread (IQR / median) of single chain-fill passes was 0.20 in raw wall
time and 0.02 in reference seconds, taken from the same passes.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter, process_time
from typing import List, Tuple

REFERENCE_CHUNK_S = 0.0001
TICK_S = 0.05
PROBE_S = 0.008
SLOWDOWN = 1 + PROBE_S / TICK_S  # wall time of a sampled pass per second of its own
_MODULUS = 3**200 + 7
_STEP = 3**40
_SMALL_MODULUS = 3**15


def _quadratic_step(a: int, b: int) -> int:
    return (a * a + 3 * b * b + 1) % _SMALL_MODULUS


def reference_chunk() -> int:
    """A fixed piece of pure-Python work: big integers, dicts and calls.

    It makes no object the cyclic garbage collector tracks, so its time does
    not depend on how many objects the workload keeps alive, and it leaves
    the collector's counts as they were.
    """
    x, table = 1, {}
    for i in range(300):
        x = (x * _STEP + i) % _MODULUS
        table[i & 255] = x >> (i & 63)
    a, b = 5, 7
    for _ in range(100):
        a, b = _quadratic_step(a, b), _quadratic_step(b, a)
    return a + len(table)


def probe(budget: float) -> Tuple[float, float]:
    """Wall and CPU seconds of one reference chunk, averaged over `budget` s."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        wall0, cpu0, chunks = perf_counter(), process_time(), 0
        while True:
            reference_chunk()
            chunks += 1
            wall = perf_counter() - wall0
            if wall >= budget:
                return wall / chunks, (process_time() - cpu0) / chunks
    finally:
        if collecting:
            gc.enable()


class Sampler:
    """Samples the reference loop's speed every TICK_S while it is entered.

    `probe_wall` and `probe_cpu` add up the time spent in probes, so that a
    caller can take it out of what it measured around them.
    """

    def __init__(self) -> None:
        self.probe_wall = 0.0
        self.probe_cpu = 0.0
        self.wall_speeds: List[float] = []  # reference chunks per wall second
        self.cpu_speeds: List[float] = []  # reference chunks per CPU second
        self._armed = False
        self._previous = None

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.wall_speeds:  # shorter than one tick
            self._sample()

    def _tick(self, signum, frame) -> None:
        if self._armed:
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, TICK_S)

    def _sample(self) -> None:
        wall0, cpu0 = perf_counter(), process_time()
        wall, cpu = probe(PROBE_S)
        self.wall_speeds.append(1.0 / wall)
        self.cpu_speeds.append(1.0 / cpu)
        self.probe_wall += perf_counter() - wall0
        self.probe_cpu += process_time() - cpu0

    def reference_seconds(self, wall: float, cpu: float) -> Tuple[float, float]:
        """`wall` and `cpu` seconds measured while entered, in reference seconds."""
        wall_speed = sum(self.wall_speeds) / len(self.wall_speeds)
        cpu_speed = sum(self.cpu_speeds) / len(self.cpu_speeds)
        return (wall * wall_speed * REFERENCE_CHUNK_S, cpu * cpu_speed * REFERENCE_CHUNK_S)
