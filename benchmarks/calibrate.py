"""Host-speed calibration.

A shared host's speed drifts by tens of percent within minutes, and the
drift moves every workload together. `calibrate()` times a fixed mix of
Python arithmetic and small-object allocation, which is what gaptiles spends
its time on. The benchmark runs it in the workload's own process after each
set-up and each iteration and scales its time metrics by the run's median
calibration, so that runs made minutes apart compare at the same host speed.
A calibration run in a fresh process did not track the workloads' speed, so
it runs in-process; it holds under 1 MB of objects at a time, so it does not
set the peak RSS of any workload.
"""

import time


def calibrate() -> float:
    """Seconds for the fixed calibration mix."""
    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    for _ in range(50):
        table = {}
        for i in range(2_000):
            table[(i, i + 1)] = [i]
    return time.perf_counter() - t0
