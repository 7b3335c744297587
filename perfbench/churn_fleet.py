"""``churn_fleet``: a churning workload-DSL plan through a 2-shard fleet.

One seeded :class:`~repro.serving.WorkloadSpec` — many small rooms
(6-16 users), Poisson arrivals, join/leave/handoff churn, two scheduled
merges and two splits, rooms closing after a fixed lifespan and new
ones opening — is lowered once and replayed through
``Fleet(num_shards=2)`` by :meth:`~repro.serving.ReplayDriver.run_plan`,
the same plan over several equal passes.  Roster writes happen beside
steps, and router transport and orchestration dominate while the
numeric kernels are small, so fleet, transport and churn changes show
here; ``paper_rooms`` is their no-change control.

A step's latency runs from the router's ``submit`` to the ``pump`` (or
``drain``) return that carries its record; the plan pumps once per tick,
so this is a closed loop over all open rooms.
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.models import POSHGNN
from repro.obs import PERF
from repro.serving import (Fleet, ReplayDriver, SessionEngine,
                           WorkloadGenerator, WorkloadSpec)

from . import harness
from .layers import moves, per_layer_metrics
from .tracing import SHARD_IDLE, SHARD_PREFIX, SpanRecorder, layer_table

NUM_SHARDS = 2
PASSES_PER_WINDOW = 4            # a pass is about 0.7 s

#: The workload-DSL spec; ``seed`` is the benchmark seed.  Rooms start
#: at the cap and closed ones are refilled within a tick or two, so the
#: number of open rooms (the closed loop's load) barely depends on the
#: seed: every seed serves about 720 room-steps per pass.
SPEC = {
    "name": "churn_fleet", "ticks": 60, "dataset": "timik",
    "universe_users": 192, "room_users": [6, 16],
    "rooms_at_start": 12, "max_rooms": 12,
    "arrival": {"kind": "poisson", "rate": 4.0},
    "churn": {"join_rate": 1.0, "leave_rate": 1.0, "handoff_rate": 0.5},
    "lifecycle": {"merge_at": [10, 30, 50], "split_at": [20, 40],
                  "close_after": 16},
}

#: Engine knobs, shared by the fleet's shards and the in-process
#: reference; the queue is sized so nothing is ever shed.
ENGINE = {"max_batch": 32, "max_queue": 4096}

#: Schedule hashes pinned per (spec name, seed): a change to the
#: workload generator changes the traffic, which makes runs before and
#: after it incomparable, so the run fails instead.
PINNED_HASHES = {
    ("churn_fleet", 0): "9f14a3be3780b3672575e401b0171d17",
    ("churn_fleet", 1): "1ce392937e87a2e0a9a84aa682bfc352",
    ("churn_fleet", 2): "6b6a65acf77cd156e96c66899254c196",
    ("churn_fleet", 3): "76c9ff735bd67b4f5d10180f0c8310f1",
    ("churn_fleet", 4): "7d3bf4cf942b4238e0826275a1c88210",
    ("churn_fleet", 5): "755dca5de162d1b1b3d2fadc5dbecbcc",
    ("churn_fleet", 6): "ad86675f9d87f681e756574b319bc892",
    ("churn_fleet", 7): "0e7972d91b69982378cd0fac483d9c93",
    ("churn_fleet", 8): "c2088de1ed4eb0888e821e464449d29e",
    ("churn_fleet", 9): "a6e1ab2053cc0a724c811f2c16c2c9c5",
}

PARAMS = {"spec": SPEC, "num_shards": NUM_SHARDS, "engine": ENGINE,
          "passes_per_window": PASSES_PER_WINDOW,
          "model": "POSHGNN(seed) untrained", "loop": "closed, pump per tick"}


@dataclass
class Setup:
    """The lowered plan, the model and the forked fleet."""

    plan: object
    model: POSHGNN
    fleet: Fleet

    def close(self) -> None:
        self.fleet.close()


def build(seed: int) -> Setup:
    """Lower the spec (universe room + schedule), fork the fleet."""
    spec = WorkloadSpec.from_dict({**SPEC, "seed": seed})
    plan = WorkloadGenerator(spec).schedule()
    return Setup(plan=plan, model=POSHGNN(seed=seed),
                 fleet=Fleet(NUM_SHARDS, **ENGINE))


class TimedStack:
    """The fleet as :meth:`ReplayDriver.run_plan` sees it, plus timing.

    Records each ``submit`` time; a ``pump`` or ``drain`` serves every
    step submitted since the previous one (the queues hold no more), so
    each of those steps' latency is the return time minus its submit.
    """

    def __init__(self, stack):
        self.stack = stack
        self.latencies: list = []
        self.shed = 0
        self._submitted: list = []

    def __getattr__(self, name):
        return getattr(self.stack, name)

    def submit(self, session_id, positions):
        self._submitted.append(time.perf_counter())
        return self.stack.submit(session_id, positions)

    def _served(self, records) -> list:
        done = time.perf_counter()
        if len(records) != len(self._submitted):
            raise RuntimeError(f"{len(records)} records returned for "
                               f"{len(self._submitted)} submits")
        self.latencies += [done - sent for sent in self._submitted]
        self.shed += sum(record.shed for record in records)
        self._submitted = []
        return records

    def pump(self, max_batches=None):
        return self._served(self.stack.pump(max_batches))

    def drain(self):
        return self._served(self.stack.drain())


def outcome_key(outcome) -> tuple:
    """Exact identity of a plan outcome: every episode and ticket."""
    results = tuple(sorted((name, harness.episode_key(result))
                           for name, result in outcome.results.items()))
    tickets = tuple(sorted(
        (name, tuple((ticket.t, ticket.status) for ticket in per_session))
        for name, per_session in outcome.tickets.items()))
    return results, tickets


class Runner:
    """Replays the plan pass after pass; keeps each outcome's key."""

    def __init__(self, setup: Setup):
        self.setup = setup
        self.keys: list = []
        self.steps = 0
        self.shed = 0

    def replay(self) -> tuple:
        """One pass: (latencies, room-steps, wall seconds)."""
        stack = TimedStack(self.setup.fleet)
        start = time.perf_counter()
        outcome = ReplayDriver(stack).run_plan(self.setup.plan,
                                               self.setup.model)
        wall = time.perf_counter() - start
        self.keys.append(outcome_key(outcome))
        self.steps += len(stack.latencies)
        self.shed += stack.shed
        return stack.latencies, len(stack.latencies), wall

    def check(self, seed: int, hashes: list) -> tuple:
        """Every pass against the in-process engine; pinned hash.

        Returns ``(passes checked, mismatches)``.
        """
        with SessionEngine(**ENGINE) as engine:
            reference = outcome_key(ReplayDriver(engine).run_plan(
                self.setup.plan, self.setup.model))
        mismatched = sum(key != reference for key in self.keys)
        pinned = PINNED_HASHES.get((SPEC["name"], seed))
        if len(set(hashes)) != 1 or (pinned is not None
                                     and hashes[0] != pinned):
            mismatched += 1
        return len(self.keys), mismatched


def _measure(runner: Runner, seconds: float, min_windows: int,
             recorder=None):
    """Windows of plan passes for ``seconds``; (windows, count, latencies)."""
    windows = harness.Windows()
    pooled: list = []

    def one_window() -> None:
        latencies, steps, wall = [], 0, 0.0
        for _ in range(PASSES_PER_WINDOW):
            with recorder.window() if recorder else nullcontext():
                pass_latencies, pass_steps, pass_wall = runner.replay()
            latencies += pass_latencies
            steps += pass_steps
            wall += pass_wall
        windows.add_latencies(latencies)
        windows.add_rate(steps, wall)
        pooled.extend(latencies)

    count = harness.run_until(seconds, min_windows, one_window)
    return windows, count, pooled


def _shard_pids() -> list:
    return [child.pid for child in multiprocessing.active_children()]


def run(seed: int, seconds: float, trace: bool, out_dir) -> harness.Outcome:
    """Measure (or trace) ``churn_fleet`` for ``seconds``."""
    if trace:
        return _traced(seed, seconds, out_dir)
    hashes = []
    setup, setup_s = harness.timed_setups(
        lambda: build(seed), harness.SETUP_REPEATS,
        inspect=lambda setup: hashes.append(setup.plan.schedule_hash()))
    try:
        runner = Runner(setup)
        _, steps_per_pass, _ = runner.replay()
        windows, count, latencies = _measure(runner, seconds,
                                             harness.MIN_WINDOWS)
        rss = harness.peak_rss_mb(_shard_pids())
    finally:
        setup.close()
    checked, mismatched = runner.check(seed, hashes)
    return harness.Outcome(
        metrics=harness.end_to_end(setup_s, rss, windows),
        attempted=runner.steps, failed=runner.shed + mismatched,
        correct=mismatched == 0 and checked > 0, params=PARAMS,
        notes={"schedule_hash": hashes[-1],
               "events": len(setup.plan.events), "windows": count,
               "room_steps_per_pass": steps_per_pass,
               "within_budget_frac": float(np.mean(
                   np.asarray(latencies) <= harness.BUDGET_S))})


def _shard_summary(states: list, wall_s: float) -> tuple:
    """Sum shard-side timers; per-shard busy/idle shares."""
    timers: dict = {}
    busy, idle = [], []
    for state in states:
        shard_timers = state["perf"]["timers"]
        for name, payload in shard_timers.items():
            if name.startswith(SHARD_PREFIX):
                calls, total = timers.get(name[len(SHARD_PREFIX):], (0, 0.0))
                timers[name[len(SHARD_PREFIX):]] = (
                    calls + payload["count"], total + payload["total"])
        busy.append(shard_timers.get(f"{SHARD_PREFIX}busy",
                                     {"total": 0.0})["total"] / wall_s)
        idle.append(shard_timers.get(SHARD_PREFIX + SHARD_IDLE,
                                     {"total": 0.0})["total"] / wall_s)
    mean_busy = float(np.mean(busy))
    return timers, {
        "fleet.shard_busy_share": mean_busy,
        "fleet.shard_idle_share": float(np.mean(idle)),
        "fleet.shard_imbalance": max(busy) / mean_busy if mean_busy else 0.0,
    }


def _traced(seed: int, seconds: float, out_dir) -> harness.Outcome:
    """Untraced then traced halves; shard-side timers via PERF."""
    half = seconds / 2.0
    setup = build(seed)
    hashes = [setup.plan.schedule_hash()]
    try:
        runner = Runner(setup)
        runner.replay()
        plain, _, _ = _measure(runner, half, harness.TRACED_MIN_WINDOWS)
    finally:
        setup.close()

    recorder = SpanRecorder()
    with recorder:
        # PERF is on only while the shards fork, so they inherit it and
        # record their wrapped calls; the router keeps it off.
        PERF.reset().enable()
        try:
            with recorder.window():
                setup = build(seed)
        finally:
            PERF.disable()
        setup_phase = recorder.take()
        try:
            runner = Runner(setup)
            runner.replay()
            setup.fleet.collect_obs()            # resets the shards
            steps_before = runner.steps
            start = time.perf_counter()
            traced, count, _ = _measure(runner, half,
                                        harness.TRACED_MIN_WINDOWS, recorder)
            states = setup.fleet.collect_obs()
            shard_wall = time.perf_counter() - start
        finally:
            setup.close()
        phase = recorder.take()
    hashes.append(setup.plan.schedule_hash())
    checked, mismatched = runner.check(seed, hashes)
    steps = runner.steps - steps_before
    timers, shard_extras = _shard_summary(states, shard_wall)
    send = phase.stat("transport.send")
    extras = {
        **shard_extras,
        "transport.msgs_per_step": send.calls / steps,
        "transport.bytes_per_step": send.units / steps,
        "leftover_share": phase.leftover_s / phase.wall_s,
        "trace_overhead_frac": float(np.median(traced.walls_s)
                                     / np.median(plain.walls_s)) - 1.0,
    }
    path = recorder.write_perfetto(out_dir / f"churn_fleet_seed{seed}.json",
                                   "churn_fleet router")
    return harness.Outcome(
        metrics=per_layer_metrics(phase, setup_phase, extras, timers,
                                  shard_wall * NUM_SHARDS),
        attempted=runner.steps, failed=runner.shed + mismatched,
        correct=mismatched == 0 and checked > 0, params=PARAMS,
        notes={"perfetto": str(path), "windows": count,
               "shard_timers": {name: {"calls": calls, "busy_ms": total * 1e3}
                                for name, (calls, total) in timers.items()}},
        table=layer_table(phase, moves()))
