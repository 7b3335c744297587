"""Plumbing shared by the workloads: windows, setup timing, memory,
host fingerprint and the result record.

Every end-to-end metric is a **median over equal windows inside one
run** — never a single window, never a best-of-k.  On a small shared
host one ~4 s window of the same work swings by ±20 % between
processes, while the median of 7-9 windows inside one process swings
by about half that (see ``perfbench/README.md``).
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: The paper's per-step latency budget: 150 Hz.
BUDGET_S = 1.0 / 150.0

#: End-to-end metrics every workload prints, with their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "steps_per_s": "1/s",
}

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Fewest windows an untraced run measures, and each half of a traced
#: run.  Windows last about 3 s: long enough to average over the host's
#: second-scale speed shifts, so the median over 7-9 of them is steady.
MIN_WINDOWS = 7
TRACED_MIN_WINDOWS = 3


@dataclass
class Windows:
    """Per-window samples of one run; metrics are medians over windows."""

    p50_ms: list = field(default_factory=list)
    p90_ms: list = field(default_factory=list)
    rates: list = field(default_factory=list)
    walls_s: list = field(default_factory=list)

    def add_latencies(self, latencies_s) -> None:
        """Fold one window's per-step latencies into its p50/p90."""
        values = np.asarray(latencies_s, dtype=np.float64) * 1e3
        self.p50_ms.append(float(np.percentile(values, 50)))
        self.p90_ms.append(float(np.percentile(values, 90)))

    def add_rate(self, steps: int, seconds: float) -> None:
        """Fold one window's completed steps over its busy seconds."""
        self.rates.append(steps / seconds)
        self.walls_s.append(seconds)

    def metrics(self) -> dict:
        """The latency and throughput end-to-end metrics."""
        return {
            "step_p50_ms": statistics.median(self.p50_ms),
            "step_p90_ms": statistics.median(self.p90_ms),
            "steps_per_s": statistics.median(self.rates),
        }


def between_windows() -> None:
    """Collect garbage outside the timed regions, so no window pays for
    an earlier window's cycles."""
    gc.collect()


def timed_setups(build, repeats: int, inspect=None):
    """Run ``build()`` ``repeats`` times; keep the last, time them all.

    Returns ``(last_result, median_seconds)``.  ``inspect(result)``, if
    given, sees every result outside the timed region.  Earlier results
    are closed when they have a ``close()``, so forked fleets from a
    discarded set-up do not linger.
    """
    seconds = []
    result = None
    for _ in range(repeats):
        if result is not None and hasattr(result, "close"):
            result.close()
        result = None
        between_windows()
        start = time.perf_counter()
        result = build()
        seconds.append(time.perf_counter() - start)
        if inspect is not None:
            inspect(result)
    return result, statistics.median(seconds)


def run_until(seconds: float, min_windows: int, window) -> int:
    """Call ``window()`` until ``seconds`` have passed (and at least
    ``min_windows`` ran); returns the number of windows run."""
    start = time.perf_counter()
    count = 0
    while count < min_windows or time.perf_counter() - start < seconds:
        between_windows()
        window()
        count += 1
    return count


def wait_until(deadline: float) -> None:
    """Sleep most of the way to ``deadline``, then spin the rest, so an
    open-loop frame is sent on time rather than a scheduler tick late."""
    remaining = deadline - time.perf_counter()
    if remaining > 0.002:
        time.sleep(remaining - 0.0015)
    while time.perf_counter() < deadline:
        pass


def peak_rss_mb(child_pids=()) -> float:
    """Peak resident set of this process plus the given live children.

    Children are read from ``/proc/<pid>/status`` (``VmHWM``) while they
    are alive, so each fleet shard's own peak counts, not just the
    largest one ``getrusage`` would report after they exit.
    """
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def blas_name() -> str:
    """The BLAS numpy was built against, as numpy reports it."""
    try:
        config = np.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):
        return "unknown"


def fingerprint(workload: str, seed: int, params: dict) -> dict:
    """Host and input stamp printed with every result."""
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = []
    return {
        "workload": workload,
        "seed": seed,
        "params": params,
        "cores": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict                 # name -> (value, unit)
    attempted: int
    failed: int
    correct: bool
    params: dict
    notes: dict = field(default_factory=dict)
    table: str = ""

    def result_line(self) -> dict:
        """The final-line JSON object the benchmark prints."""
        return {
            "correct": bool(self.correct),
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": float(value), "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


def end_to_end(setup_s: float, rss_mb: float, windows: Windows) -> dict:
    """The end-to-end metric dict, units attached."""
    values = {"setup_s": setup_s, "peak_rss_mb": rss_mb,
              **windows.metrics()}
    return {name: (values[name], unit)
            for name, unit in END_TO_END_UNITS.items()}


def episode_key(result) -> tuple:
    """Exact identity of an episode result (timings excluded)."""
    return (result.after_utility, result.preference, result.presence,
            result.occlusion_rate,
            np.asarray(result.per_step_after).tobytes(),
            np.asarray(result.recommendations).tobytes())
