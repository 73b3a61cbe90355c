"""How fast each CPU ran while a command ran, so wall times can be corrected.

On a shared host another tenant can halve the speed of one of our CPUs, in
spells from a tenth of a second to many minutes, without any of it showing
as steal time.  A fixed pure-Python loop timed on a CPU then takes one of
two times, about 2x apart, and a command run during a slow spell takes up
to 2x longer, in wall and CPU time alike.  Over ten runs the median
throughput of one workload moved by up to 2x from one set to the next.

Run as a script, this file is the probe: pinned to one CPU, it wakes every
`PERIOD_S`, times `reference_loop` once, and keeps (start, duration) in
memory; when its stdin closes it prints the samples and exits.  The probe
takes one to three percent of the CPU it watches, in every run alike.

`Speed` reads the samples of one run.  An interval's factor is the mean
sample on the CPUs the command was pinned to, between its start and its
end, over `REFERENCE_S`; the benchmark divides wall and CPU times by it, so
they read as times on a CPU that runs the loop in `REFERENCE_S`.  Samples
above `OUTLIER` times the run's 5th percentile are clipped to it.  Both
clocks are CLOCK_MONOTONIC (`time.perf_counter`).
"""

from __future__ import annotations

import bisect
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.01
REFERENCE_ITERATIONS = 300
# The unit of corrected time: one reference loop on a quiet CPU of a
# 2-vCPU Xeon VM (Sapphire Rapids) takes about this long.
REFERENCE_S = 130e-6
# A sample this many times the run's 5th percentile was preempted, not slowed.
OUTLIER = 3.0


def reference_loop() -> int:
    table = {}
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        key = "k%d" % (i & 63)
        table[key] = table.get(key, 0) + i
        total += len(key)
    return total


def probe(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start = time.perf_counter()
        reference_loop()
        samples.append((start, time.perf_counter() - start))
    sys.stdout.write("".join(f"{s!r} {d!r}\n" for s, d in samples))


class Probes:
    """One probe process per CPU, from start to `stop()`."""

    def __init__(self, cpus: list[int]):
        self.speed: Speed | None = None
        self.processes = {
            cpu: subprocess.Popen(
                [sys.executable, "-S", str(Path(__file__).resolve()), str(cpu)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for cpu in cpus
        }

    def stop(self) -> Speed:
        """Stop every probe, wait for it, and return what they measured.

        Later calls return the same measurements."""
        if self.speed is not None:
            return self.speed
        samples = {}
        for cpu, process in self.processes.items():
            try:
                out, _ = process.communicate(timeout=30)
            except (subprocess.TimeoutExpired, OSError):
                process.kill()
                process.communicate()
                out = ""
            samples[cpu] = [tuple(map(float, line.split())) for line in out.splitlines()]
        self.processes = {}
        self.speed = Speed(samples)
        return self.speed


class Speed:
    def __init__(self, samples: dict[int, list[tuple[float, float]]]):
        self.samples = samples
        self.starts = {cpu: [s for s, _ in series] for cpu, series in samples.items()}
        self.ceiling = {
            cpu: OUTLIER * sorted(d for _, d in series)[len(series) // 20]
            for cpu, series in samples.items()
            if series
        }

    def loop_s(self, cpu: int, start: float, end: float) -> float | None:
        """Mean sample on `cpu` from `start` to `end` (the nearest ones if none)."""
        series = self.samples.get(cpu)
        if not series:
            return None
        starts = self.starts[cpu]
        low, high = bisect.bisect_left(starts, start), bisect.bisect_right(starts, end)
        window = series[low:high] or series[max(low - 1, 0) : low + 1]
        return statistics.fmean(min(d, self.ceiling[cpu]) for _, d in window)

    def factor(self, cpus, start: float, end: float) -> float:
        """How many times longer than on the reference CPU the interval took."""
        loops = [t for t in (self.loop_s(cpu, start, end) for cpu in cpus) if t is not None]
        return statistics.fmean(loops) / REFERENCE_S if loops else 1.0

    def summary(self) -> dict:
        return {
            str(cpu): {
                "samples": len(series),
                "mean_factor": self.factor([cpu], float("-inf"), float("inf")),
            }
            for cpu, series in self.samples.items()
        }


if __name__ == "__main__":
    probe(int(sys.argv[1]))
