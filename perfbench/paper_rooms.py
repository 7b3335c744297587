"""``paper_rooms``: the paper's practicality claim at N = 200.

Four paper-scale rooms — timik and smm, each with an MR and a VR
target — stream through the in-process
:class:`~repro.serving.SessionEngine` under a seeded, untrained
:class:`~repro.models.POSHGNN`.  Each measurement *pair* runs

* an **open-loop** window: every room emits frames at
  :data:`RATE_HZ` with staggered phases, regardless of how the engine
  keeps up; a step's latency runs from the frame's due time to the
  ``pump`` return that carries its record, so a stall is charged to
  every frame it delays.  The rate is fixed well below the closed-loop
  capacity, so the latency is service time, not queueing;
* a **closed-loop** window: every room submits each tick, then one
  ``pump`` serves the batch — completed room-steps per second.

A room's session closes at the end of its trajectory and reopens, so
open/close is on the served path.  There is no transport and no churn:
POSHGNN's forward is the largest layer here, which makes this the
no-change control for fleet and churn work.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import repro.datasets as datasets
from repro.core.problem import AfterProblem
from repro.models import POSHGNN
from repro.serving import SessionEngine, stream_episode

from . import harness
from .layers import moves, per_layer_metrics
from .tracing import SpanRecorder, layer_table

#: (dataset, target interface) per room.
ROOMS = (("timik", "mr"), ("timik", "vr"), ("smm", "mr"), ("smm", "vr"))
NUM_USERS = 200
NUM_STEPS = 20                 # a trajectory has NUM_STEPS + 1 frames
RATE_HZ = 40.0                 # open-loop frames per second per room
OPEN_FRAMES = 3 * (NUM_STEPS + 1)    # frames per room per open window
CLOSED_TICKS = 9 * (NUM_STEPS + 1)   # ticks per closed window

PARAMS = {"rooms": [f"{d}/{k}" for d, k in ROOMS], "num_users": NUM_USERS,
          "num_steps": NUM_STEPS, "open_loop_rate_hz_per_room": RATE_HZ,
          "open_frames_per_room": OPEN_FRAMES, "closed_ticks": CLOSED_TICKS,
          "engine": "SessionEngine(max_batch=4, workers=None)",
          "model": "POSHGNN(seed) untrained"}


@dataclass
class Setup:
    """Generated rooms, their problems and the serving engine."""

    problems: list
    model: POSHGNN
    engine: SessionEngine

    def close(self) -> None:
        self.engine.close()


def build(seed: int) -> Setup:
    """Generate the rooms, pick targets, build the model and engine."""
    rng = np.random.default_rng(seed)
    problems = []
    for index, (dataset, kind) in enumerate(ROOMS):
        room = datasets.generate_room(
            dataset, datasets.RoomConfig(num_users=NUM_USERS,
                                         num_steps=NUM_STEPS),
            seed=seed * len(ROOMS) + index)
        pool = np.flatnonzero(room.interfaces_mr if kind == "mr"
                              else ~room.interfaces_mr)
        problems.append(AfterProblem(room=room,
                                     target=int(rng.choice(pool))))
    return Setup(problems=problems, model=POSHGNN(seed=seed),
                 engine=SessionEngine(max_batch=len(ROOMS),
                                      max_queue=64 * len(ROOMS)))


class Server:
    """Drives the rooms' sessions; rotates each one at trajectory end.

    Every episode a session completes is kept for the output check, and
    every ``pump`` return times the steps submitted since the last one.
    """

    def __init__(self, setup: Setup, recorder: SpanRecorder | None = None):
        self.engine = setup.engine
        self.problems = setup.problems
        self.model = setup.model
        self.recorder = recorder
        self.frames = NUM_STEPS + 1
        self.cursor = [0] * len(self.problems)
        self.episode = [0] * len(self.problems)
        self.results = [[] for _ in self.problems]
        self._pending_due: list = []
        self._pending_rooms: set = set()
        self.latencies: list = []     # per served step, since last reset
        self.waits: list = []
        self.steps = 0
        self.shed = 0
        self.pumps = 0
        for index in range(len(self.problems)):
            self._open(index)

    def _id(self, index: int) -> str:
        return f"room{index}/episode{self.episode[index]}"

    def _open(self, index: int) -> None:
        self.engine.open_session(self.problems[index], self.model,
                                 session_id=self._id(index))

    def _rotate(self, index: int) -> None:
        """Close a finished episode (keeping its result) and reopen."""
        if index in self._pending_rooms:
            self.flush()
        session = self.engine.close_session(self._id(index))
        self.results[index].append(session.result())
        self.episode[index] += 1
        self.cursor[index] = 0
        self._open(index)

    def submit(self, index: int, due: float | None = None) -> float:
        """Send a room's next frame; returns its due (or send) time."""
        if self.cursor[index] == self.frames:
            self._rotate(index)
        positions = self.problems[index].room.trajectory.positions
        sent = time.perf_counter()
        self.engine.submit(self._id(index), positions[self.cursor[index]])
        self.cursor[index] += 1
        due = sent if due is None else due
        self._pending_due.append(due)
        self._pending_rooms.add(index)
        return sent - due

    def flush(self) -> None:
        """Pump; log the served steps' latencies and queue waits."""
        start = time.perf_counter()
        records = self.engine.pump()
        done = time.perf_counter()
        if len(records) != len(self._pending_due):
            raise RuntimeError(f"pump returned {len(records)} records for "
                               f"{len(self._pending_due)} submits")
        self.shed += sum(record.shed for record in records)
        self.steps += len(records)
        self.pumps += 1
        self.latencies += [done - due for due in self._pending_due]
        self.waits += [start - due for due in self._pending_due]
        self._pending_due = []
        self._pending_rooms = set()

    # ------------------------------------------------------------------
    def open_window(self) -> dict:
        """One open-loop window; per-step latency, wait and lateness."""
        rooms = len(self.problems)
        period = 1.0 / RATE_HZ
        origin = time.perf_counter() + 0.002
        schedule = sorted((origin + (frame + index / rooms) * period, index)
                          for frame in range(OPEN_FRAMES)
                          for index in range(rooms))
        self.latencies, self.waits, lateness = [], [], []
        position = 0
        while position < len(schedule):
            due = schedule[position][0]
            if self.recorder is not None:
                with self.recorder.span("bench.idle"):
                    harness.wait_until(due)
            else:
                harness.wait_until(due)
            now = time.perf_counter()
            while position < len(schedule) and schedule[position][0] <= now:
                due, index = schedule[position]
                lateness.append(self.submit(index, due))
                position += 1
            self.flush()
        return {"latencies": self.latencies, "waits": self.waits,
                "lateness": lateness}

    def closed_window(self) -> tuple:
        """One closed-loop window; (room-steps, busy seconds)."""
        self.latencies, self.waits = [], []
        start = time.perf_counter()
        for _ in range(CLOSED_TICKS):
            for index in range(len(self.problems)):
                self.submit(index)
            self.flush()
        return CLOSED_TICKS * len(self.problems), \
            time.perf_counter() - start

    # ------------------------------------------------------------------
    def check(self) -> tuple:
        """Compare every completed episode with ``stream_episode``.

        Returns ``(episodes checked, mismatches)``.  Each room's problem
        is identical across its episodes, so one serial reference per
        room covers them all.
        """
        checked = mismatched = 0
        for problem, results in zip(self.problems, self.results):
            reference = harness.episode_key(
                stream_episode(problem, self.model.session_clone()))
            for result in results:
                checked += 1
                mismatched += harness.episode_key(result) != reference
        return checked, mismatched


def _measure(server: Server, seconds: float, min_windows: int,
             recorder=None) -> dict:
    """Alternate open and closed windows for ``seconds``."""
    windows = harness.Windows()
    pooled = {"latencies": [], "waits": [], "lateness": []}

    def timed():
        return recorder.window() if recorder else nullcontext()

    def pair() -> None:
        with timed():
            opened = server.open_window()
        windows.add_latencies(opened["latencies"])
        for key in pooled:
            pooled[key] += opened[key]
        harness.between_windows()
        with timed():
            steps, busy = server.closed_window()
        windows.add_rate(steps, busy)

    count = harness.run_until(seconds, min_windows, pair)
    return {"windows": windows, "pairs": count, **pooled}


def _warm(server: Server) -> None:
    server.open_window()
    server.closed_window()


def run(seed: int, seconds: float, trace: bool, out_dir) -> harness.Outcome:
    """Measure (or trace) ``paper_rooms`` for ``seconds``."""
    if trace:
        return _traced(seed, seconds, out_dir)
    setup, setup_s = harness.timed_setups(lambda: build(seed),
                                          harness.SETUP_REPEATS)
    server = Server(setup)
    _warm(server)
    measured = _measure(server, seconds, harness.MIN_WINDOWS)
    rss = harness.peak_rss_mb()
    checked, mismatched = server.check()
    setup.close()
    latencies = np.asarray(measured["latencies"])
    attempted = server.steps
    failed = server.shed + mismatched
    return harness.Outcome(
        metrics=harness.end_to_end(setup_s, rss, measured["windows"]),
        attempted=attempted, failed=failed,
        correct=mismatched == 0 and checked > 0, params=PARAMS,
        notes={"open_loop_rate_steps_per_s": RATE_HZ * len(ROOMS),
               "within_budget_frac": float(np.mean(
                   latencies <= harness.BUDGET_S)),
               "pairs": measured["pairs"], "episodes_checked": checked})


def _traced(seed: int, seconds: float, out_dir) -> harness.Outcome:
    """Untraced then traced halves; per-layer table and metrics."""
    half = seconds / 2.0
    setup = build(seed)
    server = Server(setup)
    _warm(server)
    plain = _measure(server, half, harness.TRACED_MIN_WINDOWS)
    setup.close()

    recorder = SpanRecorder()
    with recorder:
        with recorder.window():
            setup = build(seed)
        setup_phase = recorder.take()
        server = Server(setup, recorder)
        _warm(server)
        steps_before, pumps_before = server.steps, server.pumps
        traced = _measure(server, half, harness.TRACED_MIN_WINDOWS,
                          recorder)
        phase = recorder.take()
    checked, mismatched = server.check()
    setup.close()
    served = server.steps - steps_before
    pumps = server.pumps - pumps_before
    plain_s = np.median(plain["windows"].walls_s)
    traced_s = np.median(traced["windows"].walls_s)
    extras = {
        "serving.pump.self_ms": phase.stat("serving.pump").self_s * 1e3,
        "serving.batch_size": served / pumps,
        "serving.queue_wait_ms": float(np.median(traced["waits"])) * 1e3,
        "generator_lateness_p90_ms":
            float(np.percentile(traced["lateness"], 90)) * 1e3,
        "leftover_share": phase.leftover_s / phase.wall_s,
        "trace_overhead_frac": traced_s / plain_s - 1.0,
    }
    path = recorder.write_perfetto(out_dir / f"paper_rooms_seed{seed}.json",
                                   "paper_rooms")
    return harness.Outcome(
        metrics=per_layer_metrics(phase, setup_phase, extras),
        attempted=server.steps, failed=server.shed + mismatched,
        correct=mismatched == 0 and checked > 0, params=PARAMS,
        notes={"perfetto": str(path), "pairs": traced["pairs"]},
        table=layer_table(phase, moves()))
