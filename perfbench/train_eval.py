"""``train_eval``: batched-replay training interleaved with cold evaluation.

A :class:`~repro.models.poshgnn.trainer.POSHGNNTrainer` trains POSHGNN on
eight timik rooms at N = 100, all eight stacked into one ``(B, N, ...)``
graph per BPTT window and replayed from the recorded tape after the
first window of each shape.  After every epoch one cold-cache
:func:`~repro.core.evaluation.evaluate_targets` pass (after
``room.clear_caches()``) walks a held-out room for several targets with
the model being trained, so train and eval units interleave and share
whatever drift the host has.  The first, recording epoch belongs to
set-up.

This covers ``repro.nn`` and ``repro.training`` (tape replay, backward,
optimiser) and the offline evaluation walker, none of which serving
touches.  ``step_p50_ms``/``step_p90_ms`` time one training step — one
optimiser update over the stacked batch, from the previous update (or
the epoch start) to this one; ``steps_per_s`` counts evaluated
target-steps per second of the cold evaluation passes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import repro.core.evaluation as evaluation
import repro.datasets as datasets
from repro.core.problem import AfterProblem
from repro.models import POSHGNN
from repro.models.poshgnn.trainer import POSHGNNTrainer

from . import harness
from .layers import moves, per_layer_metrics
from .tracing import SpanRecorder, layer_table

NUM_ROOMS = 8
EVAL_ROOMS = 2
NUM_USERS = 100
NUM_STEPS = 15                 # 16 frames: four equal windows of four
BPTT_WINDOW = 4
EVAL_TARGETS = 8
EPOCHS_PER_WINDOW = 24         # about 3 s
CHECK_TARGETS = 2
LR = 1e-2

PARAMS = {"train_rooms": NUM_ROOMS, "eval_rooms": EVAL_ROOMS,
          "dataset": "timik", "num_users": NUM_USERS,
          "num_steps": NUM_STEPS, "bptt_window": BPTT_WINDOW,
          "batch_rooms": NUM_ROOMS, "replay": True, "lr": LR,
          "eval_targets_per_pass": EVAL_TARGETS,
          "epochs_per_window": EPOCHS_PER_WINDOW}


@dataclass
class Setup:
    """Training problems, held-out eval rooms, model and trainer."""

    problems: list
    eval_rooms: list
    eval_targets: list
    model: POSHGNN
    eval_model: POSHGNN
    trainer: POSHGNNTrainer


def _rooms(seed: int, count: int, offset: int) -> list:
    config = datasets.RoomConfig(num_users=NUM_USERS, num_steps=NUM_STEPS)
    return [datasets.generate_room("timik", config,
                                   seed=seed * 100 + offset + index)
            for index in range(count)]


def _trainer(model: POSHGNN, seed: int, replay: bool) -> POSHGNNTrainer:
    return POSHGNNTrainer(model, lr=LR, epochs=1, bptt_window=BPTT_WINDOW,
                          seed=seed, batch_rooms=NUM_ROOMS, replay=replay)


def build(seed: int) -> Setup:
    """Generate the rooms, build model + trainer, run the first epoch."""
    rng = np.random.default_rng(seed)
    problems = [AfterProblem(room, int(rng.integers(NUM_USERS)))
                for room in _rooms(seed, NUM_ROOMS, 0)]
    eval_rooms = _rooms(seed, EVAL_ROOMS, NUM_ROOMS)
    eval_targets = [sorted(int(t) for t in rng.choice(
        NUM_USERS, size=EVAL_TARGETS, replace=False)) for _ in eval_rooms]
    model = POSHGNN(seed=seed)
    trainer = _trainer(model, seed, replay=True)
    trainer.train(problems)          # the recording epoch
    trainer.epochs = EPOCHS_PER_WINDOW
    # Evaluation walks a frozen copy: the cost of a pass (how many users
    # clear the render threshold) must not drift as training proceeds.
    return Setup(problems, eval_rooms, eval_targets, model,
                 model.session_clone(), trainer)


class Session:
    """Runs windows of interleaved epochs and evaluation passes."""

    def __init__(self, setup: Setup, recorder: SpanRecorder | None = None):
        self.setup = setup
        self.recorder = recorder
        self.marks: list = []
        self.epoch = None            # the open training.epoch span
        self.step_latencies: list = []
        self.eval_steps = 0
        self.eval_s = 0.0
        self.eval_passes = 0
        self.epoch_ms: list = []
        self.train_steps = 0
        optimizer = setup.trainer.optimizer

        def step() -> None:          # class lookup: traced runs patch it
            type(optimizer).step(optimizer)
            self.marks.append(time.perf_counter())

        optimizer.step = step
        setup.trainer.on_epoch_end = self._epoch_end

    def _epoch_end(self, trainer, epoch, history) -> None:
        """Close the epoch's timing, run one cold eval pass, reopen."""
        end = time.perf_counter()
        self.epoch_ms.append((end - self.marks[0]) * 1e3)
        self.step_latencies += list(np.diff(self.marks))
        self.train_steps += len(self.marks) - 1
        self._end_epoch()
        setup = self.setup
        slot = self.eval_passes % len(setup.eval_rooms)
        room = setup.eval_rooms[slot]
        room.clear_caches()
        start = time.perf_counter()
        evaluation.evaluate_targets(room, setup.eval_model,
                                    setup.eval_targets[slot])
        self.eval_s += time.perf_counter() - start
        self.eval_steps += len(setup.eval_targets[slot]) * (NUM_STEPS + 1)
        self.eval_passes += 1
        self._begin_epoch()

    def _begin_epoch(self) -> None:
        if self.recorder is not None:
            self.epoch = self.recorder.begin()
        self.marks = [time.perf_counter()]

    def _end_epoch(self) -> None:
        if self.recorder is not None:
            self.recorder.end("training.epoch", self.epoch)
            self.epoch = None

    def window(self) -> tuple:
        """One window of epochs; (step latencies, eval steps, eval s).

        The span opened after the window's last evaluation pass covers
        only the trainer's return, so it is dropped, not recorded.
        """
        self.step_latencies = []
        self.eval_steps, self.eval_s = 0, 0.0
        self._begin_epoch()
        self.setup.trainer.train(self.setup.problems)
        if self.recorder is not None:
            self.recorder.discard(self.epoch)
            self.epoch = None
        return self.step_latencies, self.eval_steps, self.eval_s


def _measure(session: Session, seconds: float, min_windows: int,
             recorder=None):
    windows = harness.Windows()

    def one_window() -> None:
        if recorder is None:
            latencies, steps, busy = session.window()
        else:
            with recorder.window():
                latencies, steps, busy = session.window()
        windows.add_latencies(latencies)
        windows.add_rate(steps, busy)

    count = harness.run_until(seconds, min_windows, one_window)
    return windows, count


def check(setup: Setup, seed: int) -> tuple:
    """Replay vs eager training and batched vs reference evaluation.

    One epoch from the same seeded model must give byte-equal losses
    and parameters with and without tape replay; one target set must
    give identical episodes from the batched and reference walkers.
    Returns ``(checks run, mismatches)``.
    """
    runs = []
    for replay in (True, False):
        model = POSHGNN(seed=seed)
        history = _trainer(model, seed, replay).train(setup.problems)["loss"]
        runs.append((history, model.state_dict()))
    (loss_a, state_a), (loss_b, state_b) = runs
    mismatched = int(loss_a != loss_b or set(state_a) != set(state_b)
                     or any(state_a[name].tobytes() != state_b[name].tobytes()
                            for name in state_a))
    room = setup.problems[0].room
    targets = list(range(CHECK_TARGETS))
    room.clear_caches()
    batched = evaluation.evaluate_targets(room, model, targets)
    reference = evaluation.evaluate_targets(room, model, targets,
                                            engine="reference")
    mismatched += int([harness.episode_key(e) for e in batched.episodes]
                      != [harness.episode_key(e) for e in reference.episodes])
    return 2, mismatched


def run(seed: int, seconds: float, trace: bool, out_dir) -> harness.Outcome:
    """Measure (or trace) ``train_eval`` for ``seconds``."""
    if trace:
        return _traced(seed, seconds, out_dir)
    setup, setup_s = harness.timed_setups(lambda: build(seed),
                                          harness.SETUP_REPEATS)
    session = Session(setup)
    session.window()                 # warm-up
    windows, count = _measure(session, seconds, harness.MIN_WINDOWS)
    rss = harness.peak_rss_mb()
    checked, mismatched = check(setup, seed)
    return harness.Outcome(
        metrics=harness.end_to_end(setup_s, rss, windows),
        attempted=session.train_steps + session.eval_passes * EVAL_TARGETS,
        failed=mismatched, correct=mismatched == 0, params=PARAMS,
        notes={"windows": count,
               "train_epoch_ms_median": float(np.median(session.epoch_ms)),
               "replay_stats": dict(setup.trainer._runner.stats)})


def _traced(seed: int, seconds: float, out_dir) -> harness.Outcome:
    """Untraced then traced halves; per-layer table and metrics."""
    half = seconds / 2.0
    setup = build(seed)
    session = Session(setup)
    session.window()
    plain, _ = _measure(session, half, harness.TRACED_MIN_WINDOWS)

    recorder = SpanRecorder()
    with recorder:
        with recorder.window():
            setup = build(seed)
        setup_phase = recorder.take()
        session = Session(setup, recorder)
        session.window()
        stats = setup.trainer._runner.stats
        before = dict(stats)
        traced, count = _measure(session, half, harness.TRACED_MIN_WINDOWS,
                                 recorder)
        phase = recorder.take()
    hits = stats["replays"] - before["replays"]
    attempts = hits + sum(stats[key] - before[key]
                          for key in ("records", "fallbacks"))
    checked, mismatched = check(setup, seed)
    extras = {
        "training.epoch.self_ms": phase.stat("training.epoch").self_s * 1e3,
        "nn.replay_hit_ratio": hits / attempts if attempts else 0.0,
        "leftover_share": phase.leftover_s / phase.wall_s,
        "trace_overhead_frac": float(np.median(traced.walls_s)
                                     / np.median(plain.walls_s)) - 1.0,
    }
    path = recorder.write_perfetto(out_dir / f"train_eval_seed{seed}.json",
                                   "train_eval")
    return harness.Outcome(
        metrics=per_layer_metrics(phase, setup_phase, extras),
        attempted=session.train_steps + session.eval_passes * EVAL_TARGETS,
        failed=mismatched, correct=mismatched == 0, params=PARAMS,
        notes={"perfetto": str(path), "windows": count},
        table=layer_table(phase, moves()))
