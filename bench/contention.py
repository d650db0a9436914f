"""Correction of measured times for CPU contention from other tenants.

On the reference host (a 2-vCPU VM on a shared machine) a vCPU runs at full
speed or, for stretches of seconds to many minutes, runs code 1.5x to 2x
slower while another tenant shares its core.  The guest cannot see this: no
steal time is reported, there are no performance counters, and process CPU
time grows at wall-clock rate in both states.  The same code then takes up to
1.7x longer in one run than in the next, which no run length or median
removes.

So every timed span (a CLI call, a set-up) is bracketed by samples of a fixed
pure-Python loop, timed on the same pinned CPU.  The mean of the samples just
before and just after a span tells how fast the CPU ran the span.  A span's
normalized time is

    seconds * REFERENCE_LOOP_S / mean(samples before and after)

the span's time in loop runs, scaled to seconds at the reference host's full
speed.  A program change that makes a span do more work raises this figure in
proportion; host contention mostly does not.  (Scaling by the fastest sample
of the run instead fails: in a run the host slows from start to end, no
sample is at full speed.)  The raw times are kept next to the normalized ones.
"""

from __future__ import annotations

import statistics
import time

SAMPLES = 10     # loop runs per boundary
# One loop run at full speed on the reference host.  It sets only the scale
# of the normalized times, not their ratios between runs or commits.
REFERENCE_LOOP_S = 0.0105
# Contention slows kinds of code by different amounts: on the reference host
# string-keyed dict updates take 1.95x as long, float dot products over dict
# vectors and sorting 1.6x, and the workloads' calls 1.5x to 1.85x.  The loop
# spends about half its time on each kind, so it slows down about as much as
# the calls do.
_KEYS = 997
_KEY_STEPS = 15000
_VEC_A = {f: 1.0 / (f + 1) for f in range(0, 400, 3)}
_VEC_B = {f: (f + 1) ** 0.5 for f in range(0, 400, 2)}
_VEC_STEPS = 250


def _loop() -> float:
    table = {}
    for i in range(_KEY_STEPS):
        key = "w%d" % (i % _KEYS)
        table[key] = table.get(key, 0) + i
    total = 0.0
    for _ in range(_VEC_STEPS):
        total += sum(v * _VEC_B.get(f, 0.0) for f, v in _VEC_A.items())
        sorted(_VEC_B.items(), key=lambda item: -item[1])
    return total


def sample(n: int = SAMPLES) -> list:
    """Times of `n` runs of the reference loop."""
    out = []
    for _ in range(n):
        start = time.perf_counter()
        _loop()
        out.append(time.perf_counter() - start)
    return out


def normalize(seconds: list, boundaries: list) -> list:
    """Normalized times of consecutive spans; boundaries[i] was sampled just
    before span i and boundaries[i + 1] just after it."""
    return [s * REFERENCE_LOOP_S
            / statistics.fmean(boundaries[i] + boundaries[i + 1])
            for i, s in enumerate(seconds)]
