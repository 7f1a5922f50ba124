"""Host-speed adjustment of the benchmark's timings.

The reference host (2 vCPUs, fingerprint in README.md) shares its cores
with other tenants, and the same pure-Python loop there runs up to 1.5x
slower for stretches of one to thirty seconds.  The program slows with
it, so raw times from runs a minute apart differ by more than any bound
worth setting.

A *probe* is a fixed pure-Python loop that touches no program code.
The workloads run one between segments of their measured work, outside
the timed intervals, and divide each segment's time by the probes'
slowdown around it relative to :data:`REFERENCE_S`, the probe's time on
a quiet host.  The reported times are therefore seconds at the
reference host's quiet speed.  A change to the program moves them as
it moves raw times; a change of host load mostly does not.  Probes run
only in a process that has a core to itself, so that they see the host
and not the program's other processes.
"""

from __future__ import annotations

import time
from array import array
from typing import Sequence

import numpy as np

#: Iterations of the probe loop.
PROBE_LOOPS = 5_000
#: The probe's time on a quiet reference host, seconds.
REFERENCE_S = 2.7e-4
#: Least time between two probes of :meth:`Pace.tick`, seconds.
PROBE_EVERY_S = 0.025


def probe() -> float:
    """Seconds one run of the probe loop takes."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - started


def slowdown(probes: Sequence[float]) -> float:
    """The host's slowdown from probes taken around one interval."""
    return float(np.median(probes)) / REFERENCE_S


class Pace:
    """A clock that excludes probe time and maps onto reference speed.

    :meth:`now` reads a *virtual* clock that stops while a probe runs.
    :meth:`tick` probes when the last probe is :data:`PROBE_EVERY_S`
    old, or always if ``force``; call it where the measured work can
    pause.  After the measured work, :meth:`reference` maps virtual
    timestamps onto the reference host's time axis: each interval
    between probes is divided by the median of the four probes nearest
    it.
    """

    def __init__(self):
        self.paused = 0.0
        #: Virtual time at each probe's start, and the probe's seconds.
        self.marks = array("d")
        self.probes = array("d")
        self._due = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def tick(self, force: bool = False) -> None:
        started = time.perf_counter()
        if not force and started < self._due:
            return
        took = probe()
        ended = time.perf_counter()
        self.marks.append(started - self.paused)
        self.probes.append(took)
        self.paused += ended - started
        self._due = ended + PROBE_EVERY_S

    def reference(self, times) -> np.ndarray:
        """Virtual timestamps from :meth:`now` on the reference axis.

        Segment ``k`` runs from mark ``k-1`` to mark ``k``; segment 0
        precedes the first mark and the last follows the last mark.
        """
        if not self.probes:
            raise ValueError("no probe was taken")
        probes = np.frombuffer(self.probes, dtype=np.float64)
        marks = np.frombuffer(self.marks, dtype=np.float64)
        count = len(probes)
        slow = np.array([
            slowdown(probes[max(0, k - 2):min(count, k + 2)])
            for k in range(count + 1)
        ])
        at_marks = np.concatenate(
            ([0.0], np.cumsum(np.diff(marks) / slow[1:count])))
        times = np.asarray(times, dtype=np.float64)
        segment = np.searchsorted(marks, times, side="right")
        base = np.maximum(segment - 1, 0)
        return at_marks[base] + (times - marks[base]) / slow[segment]
