"""A clock that takes the host's speed swings out of the timings.

On a shared 2-vCPU virtual machine (Intel Xeon, Python 3.11) the same code
runs up to 1.7x slower for seconds to many minutes at a time, whatever the
benchmark does.  So while a measurement runs, a SIGALRM every
``PERIOD_S`` runs a fixed pure-Python calibration loop (dict, tuple and
sort work, like the solver's) in the measured process and records how
long it took.  Timings then come in two parts:

* :meth:`HostClock.work_ns` is ``perf_counter_ns`` minus the time spent
  in calibration, so the ticks cost the measured code nothing;
* :meth:`HostClock.scale` is ``REF_NS`` over the mean calibration time
  since a snapshot.  A time multiplied by it reads as seconds on a host
  where one calibration takes ``REF_NS``: the same code measured in a slow
  and in a fast spell gives about the same figure, while a change to the
  measured code still moves it in full.

Inside :meth:`HostClock.between_ops`, a tick only marks a calibration as
due and :meth:`HostClock.poll`, called between ops, takes it.  A calibration
run in the middle of an op finds the caches full of the op's data and
reads slower by an amount that itself varies with the host's load; taken
at op boundaries, four runs of one seed on that machine agreed about twice
as closely (wall time within 2-3% rather than 4-6%).  A loop of ops
polls; a single long call (a whole sweep) cannot, and keeps the
in-handler calibrations.

Only this process is touched: its own interval timer and signal handler.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter_ns

PERIOD_S = 0.1
REF_NS = 1_000_000  # about one calibration on that machine in a fast spell
MIN_SAMPLES = 5  # calibrations behind every scale factor, at the least


def calibrate() -> int:
    d: dict = {}
    for i in range(1500):
        t = tuple(sorted((i % 13, i % 7, i % 5), reverse=True))
        d[t] = d.get(t, 0) + 1
    return len(d)


class HostClock:
    def __init__(self):
        self.samples = 0
        self.cal_ns = 0
        self._busy = False
        self._old = None
        self._defer = False
        self._due = False

    def __enter__(self) -> "HostClock":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _tick(self, signum, frame) -> None:
        if self._defer:
            self._due = True
        elif not self._busy:
            self.sample()

    @contextmanager
    def between_ops(self):
        """Defer the ticks' calibrations to :meth:`poll` while inside."""
        self._defer = True
        try:
            yield
        finally:
            self._defer = False
            self.poll()

    def poll(self) -> None:
        """Take the calibration a deferred tick left due."""
        if self._due:
            self._due = False
            self.sample()

    def sample(self) -> None:
        """Time one calibration now; the timer also calls this."""
        self._busy = True
        t = perf_counter_ns()
        calibrate()
        self.cal_ns += perf_counter_ns() - t
        self.samples += 1
        self._busy = False

    def work_ns(self) -> int:
        """Nanoseconds of ``perf_counter_ns`` not spent calibrating."""
        while True:  # retry if a tick lands between the two reads
            cal = self.cal_ns
            now = perf_counter_ns()
            if cal == self.cal_ns:
                return now - cal

    def snapshot(self) -> tuple[int, int]:
        return self.samples, self.cal_ns

    def scale(self, since: tuple[int, int]) -> float:
        """Factor from measured to reference-speed time since ``since``.

        Takes one more calibration first, and more until the span has
        ``MIN_SAMPLES``, so a span shorter than a few timer periods (a
        set-up of tens of ms) is not scaled by a single calibration.
        """
        self.sample()
        while self.samples - since[0] < MIN_SAMPLES:
            self.sample()
        n, ns = self.samples - since[0], self.cal_ns - since[1]
        return REF_NS * n / ns
