"""Host time at a fixed host speed, from a calibration loop run beside the work.

On a shared virtual machine the same code can run 1.6-1.9x slower for
seconds to minutes at a time, and neither wall time nor process CPU time
shows why (the guest sees no steal). A calibration loop of fixed work, timed
next to the measured code, slows down with it. Dividing the measured time by
the loop's time at that moment, and multiplying by CALIBRATION_SECONDS,
gives the time the work would have taken at the speed where the loop takes
CALIBRATION_SECONDS. The loop uses only the standard library and this
module, so no change to fedflow alters it.

- `calibrate()` runs the loop once and returns its seconds; set-up samples
  are each divided by a `calibrate()` run just before them.
- `Sampler` runs the loop every PERIOD_S seconds of wall time, from a timer
  signal, while a long call runs. Samples come evenly in time, so the mean
  of CALIBRATION_SECONDS / sample is the mean speed over the call.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import time

# The loop's time on a 2-vCPU Intel Xeon virtual machine in its fast mode
# (Python 3.11); only a unit, it cancels out of any comparison.
CALIBRATION_SECONDS = 0.0025
PERIOD_S = 0.1

_DOC = json.dumps([
    {"id": f"t{i}", "fn": f"f{i % 7}", "deps": [f"t{j}" for j in range(max(0, i - 3), i)],
     "size": i * 1.5, "tags": {"a": i, "b": str(i)}}
    for i in range(1000)
])


class _Item:
    __slots__ = ("id", "fn", "deps", "size")

    def __init__(self, id, fn, deps, size):
        self.id, self.fn, self.deps, self.size = id, fn, deps, size


def calibrate() -> float:
    """Seconds one pass of the calibration loop takes now: parse a JSON
    document and build an object per record, as `load_scenario` does.

    The cyclic garbage collector is paused for the pass, so that a
    collection of the measured program's heap does not land in it; the pass
    makes no cycles, so it leaves nothing for the collector."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    {d["id"]: _Item(d["id"], d["fn"], tuple(d["deps"]), d["size"]) for d in json.loads(_DOC)}
    seconds = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return seconds


class Sampler:
    """Runs `calibrate()` once on entry and then every PERIOD_S seconds
    until exit. `loop_s` is the time spent in timer-driven passes, which
    the caller subtracts from its wall time."""

    def __init__(self):
        self.samples: list = []
        self.loop_s = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame):
        seconds = calibrate()
        self.samples.append(seconds)
        self.loop_s += seconds

    def __enter__(self):
        self.samples.append(calibrate())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def at_fixed_speed(self, seconds: float) -> float:
        """`seconds` of work, measured while sampling, at the fixed speed."""
        return seconds * statistics.fmean(CALIBRATION_SECONDS / s for s in self.samples)
