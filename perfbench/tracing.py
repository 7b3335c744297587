"""Traced runs: spans around the calls into each ``src/repro`` layer.

The traced run wraps the *public* functions each workload reaches —
``BatchedOcclusionConverter.convert_rooms``, ``POSHGNN.recommend``,
``Fleet.submit``, ``PipeChannel.send`` and so on — from this package,
without touching ``src/``.  Every wrapped call becomes one span named
``<layer>.<fn>`` after its module (``geometry``, ``core``, ``models``,
``serving``, ``fleet``, ``transport``, ``buffers``, ``nn``,
``training``, ``datasets``).  Spans are kept in memory, folded into a
per-name table (calls, inclusive busy time, self time), and written
out as a Chrome/Perfetto file with :func:`repro.obs.write_chrome_trace`
when the run ends.

Self time is a span's duration minus the time its child spans cover, so
the self times of all spans add up to the time the top-level spans
cover; the *leftover* is the rest of the timed wall (benchmark driver
code and unwrapped library code), so layer self times + leftover equal
the end-to-end wall exactly.

Forked fleet shards inherit the wrappers (they are installed before the
fork).  In a shard a wrapper cannot reach the router's span list, so it
records with ``PERF.add_time`` under ``bench/<name>`` instead, and
:meth:`repro.serving.Fleet.collect_obs` folds the shard states back.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs import PERF, SpanRecord, write_chrome_trace

#: Every wrapped function: ``(span name, module path, attribute path)``.
#: Module-level functions are patched where their callers look them up
#: (``repro.serving.engine`` imports ``build_room_frames`` by name, so
#: that is the binding the engine sees).
PATCHES = (
    ("geometry.convert_rooms", "repro.geometry.batched",
     "BatchedOcclusionConverter.convert_rooms"),
    ("geometry.convert_dogs", "repro.geometry.batched",
     "BatchedOcclusionConverter.convert_dogs"),
    ("geometry.resolve_rooms_visibility", "repro.serving.engine",
     "resolve_rooms_visibility"),
    ("geometry.resolve_episode_visibility", "repro.core.evaluation",
     "resolve_episode_visibility"),
    ("core.build_room_frames", "repro.serving.engine", "build_room_frames"),
    ("core.build_episode_frames", "repro.core.scene",
     "build_episode_frames"),
    ("core.build_episode_frames", "repro.core.problem",
     "build_episode_frames"),
    ("core.evaluate_targets", "repro.core.evaluation", "evaluate_targets"),
    ("models.recommend", "repro.models.poshgnn.model", "POSHGNN.recommend"),
    ("serving.submit", "repro.serving.engine", "SessionEngine.submit"),
    ("serving.pump", "repro.serving.engine", "SessionEngine.pump"),
    ("serving.open_session", "repro.serving.engine",
     "SessionEngine.open_session"),
    ("serving.close_session", "repro.serving.engine",
     "SessionEngine.close_session"),
    ("serving.churn_session", "repro.serving.engine",
     "SessionEngine.churn_session"),
    ("serving.split_session", "repro.serving.engine",
     "SessionEngine.split_session"),
    ("serving.suspend_session", "repro.serving.engine",
     "SessionEngine.suspend_session"),
    ("serving.adopt_session", "repro.serving.engine",
     "SessionEngine.adopt_session"),
    ("serving.apply_churn", "repro.serving.session",
     "RoomSession.apply_churn"),
    ("fleet.open_session", "repro.serving.fleet", "Fleet.open_session"),
    ("fleet.close_session", "repro.serving.fleet", "Fleet.close_session"),
    ("fleet.submit", "repro.serving.fleet", "Fleet.submit"),
    ("fleet.pump", "repro.serving.fleet", "Fleet.pump"),
    ("fleet.drain", "repro.serving.fleet", "Fleet.drain"),
    ("fleet.churn_session", "repro.serving.fleet", "Fleet.churn_session"),
    ("fleet.merge_sessions", "repro.serving.fleet", "Fleet.merge_sessions"),
    ("fleet.split_session", "repro.serving.fleet", "Fleet.split_session"),
    ("transport.send", "repro.serving.transport", "PipeChannel.send"),
    ("transport.recv", "repro.serving.transport", "PipeChannel.recv"),
    ("buffers.shuttle_put", "repro.buffers.shuttle", "FrameShuttle.put"),
    ("nn.replay", "repro.nn.tape", "ReplayFunction.forward"),
    ("nn.replay", "repro.nn.tape", "ReplayFunction.backward"),
    ("nn.backward", "repro.nn.tensor", "Tensor.backward"),
    ("nn.adam_step", "repro.nn.optim", "Adam.step"),
    ("nn.clip_grad_norm", "repro.training.batched", "clip_grad_norm"),
    ("training.bptt_run", "repro.training.batched", "BatchedBPTTRunner.run"),
    ("datasets.generate_room", "repro.datasets", "generate_room"),
    ("datasets.generate_room", "repro.serving.workload", "generate_room"),
    ("datasets.schedule", "repro.serving.workload",
     "WorkloadGenerator.schedule"),
)

#: Spans whose return value is a byte count worth summing.
BYTE_COUNTERS = frozenset({"transport.send"})

#: The shard-side span a worker spends blocked waiting for a command.
SHARD_IDLE = "transport.recv"

#: PERF name prefix under which forked shards record wrapped calls.
SHARD_PREFIX = "bench/"


@dataclass
class SpanStat:
    """Aggregate of every span recorded under one name."""

    calls: int = 0
    busy_s: float = 0.0      # inclusive duration
    self_s: float = 0.0      # duration minus child spans
    units: int = 0           # summed byte counts (BYTE_COUNTERS only)


@dataclass(eq=False)
class _Open:
    """One span on the stack: its start and the time children covered."""

    start: float
    child_s: float = 0.0


@dataclass
class SpanRecorder:
    """In-memory spans for one process, recorded only while active.

    ``wall_s`` accumulates the duration of every :meth:`window`, the
    denominator of every share in the layer table.
    """

    pid: int = field(default_factory=os.getpid)
    epoch: float = field(default_factory=time.perf_counter)
    active: bool = False
    wall_s: float = 0.0
    stats: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    top_s: float = 0.0       # time covered by depth-0 spans
    _stack: list = field(default_factory=list)
    _originals: list = field(default_factory=list)

    # ------------------------------------------------------------------
    def _enter(self) -> _Open:
        frame = _Open(time.perf_counter())
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: _Open, units: int = 0) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        depth = len(self._stack)
        if depth:
            self._stack[-1].child_s += duration
        else:
            self.top_s += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = SpanStat()
        stat.calls += 1
        stat.busy_s += duration
        stat.self_s += duration - frame.child_s
        stat.units += units
        self.spans.append(SpanRecord(
            name=name, ts_us=(frame.start - self.epoch) * 1e6,
            dur_us=duration * 1e6, pid=self.pid,
            tid=threading.get_ident(), depth=depth))

    def begin(self) -> _Open | None:
        """Open a span by hand, for a region no single call bounds."""
        if not self.active or os.getpid() != self.pid:
            return None
        return self._enter()

    def end(self, name: str, frame: _Open | None) -> None:
        """Close a span opened by :meth:`begin` (no-op for ``None``)."""
        if frame is not None:
            self._exit(name, frame)

    def discard(self, frame: _Open | None) -> None:
        """Drop a span opened by :meth:`begin` without recording it.

        Time its children covered passes to its parent (or to the
        top-level total), so self times plus leftover still equal wall.
        """
        if frame is None:
            return
        depth = next(index for index, open_ in enumerate(self._stack)
                     if open_ is frame)
        del self._stack[depth]
        if depth:
            self._stack[depth - 1].child_s += frame.child_s
        else:
            self.top_s += frame.child_s

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` block as one span (only while active)."""
        frame = self.begin()
        try:
            yield
        finally:
            self.end(name, frame)

    @contextmanager
    def window(self):
        """One timed region: spans record and its wall time counts."""
        self.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - start
            self.active = False

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn):
        """``fn`` wrapped so each call records one span named ``name``."""
        recorder = self
        counts_bytes = name in BYTE_COUNTERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != recorder.pid:
                return _shard_call(recorder, name, fn, args, kwargs)
            if not recorder.active:
                return fn(*args, **kwargs)
            frame = recorder._enter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                recorder._exit(name, frame,
                               int(result or 0) if counts_bytes else 0)

        return traced

    def install(self) -> "SpanRecorder":
        """Patch every :data:`PATCHES` target; undo with :meth:`uninstall`."""
        for name, module_name, path in PATCHES:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attribute] \
                if isinstance(owner, type) else getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(name, original))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "SpanRecorder":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def take(self) -> "Phase":
        """Freeze the aggregates so far and restart them (spans stay).

        The traced run takes its set-up as one phase and its timed
        windows as the next, so set-up shares are over set-up wall.
        """
        phase = Phase(stats=dict(self.stats), wall_s=self.wall_s,
                      top_s=self.top_s)
        self.stats = {}
        self.wall_s = 0.0
        self.top_s = 0.0
        return phase

    def write_perfetto(self, path, label: str) -> str:
        """Write the spans as a Chrome/Perfetto ``trace_event`` file."""
        return write_chrome_trace(path, self.spans,
                                  process_labels={self.pid: label})


@dataclass(frozen=True)
class Phase:
    """Aggregates of one traced phase: per-name stats over its wall."""

    stats: dict
    wall_s: float
    top_s: float

    def stat(self, name: str) -> SpanStat:
        """The aggregate for ``name`` (zeros when it never ran)."""
        return self.stats.get(name, SpanStat())

    @property
    def leftover_s(self) -> float:
        """Timed wall not covered by any top-level span."""
        return self.wall_s - self.top_s


def _shard_call(recorder: SpanRecorder, name: str, fn, args, kwargs):
    """A wrapped call inside a forked shard: time it into PERF.

    Nesting is tracked on the recorder's (fork-inherited) stack so that
    ``bench/busy`` counts each top-level shard call once; the time a
    shard spends blocked in ``PipeChannel.recv`` is idle, not busy.
    """
    frame = recorder._enter()
    try:
        return fn(*args, **kwargs)
    finally:
        duration = time.perf_counter() - frame.start
        recorder._stack.pop()
        if recorder._stack:
            recorder._stack[-1].child_s += duration
        elif name != SHARD_IDLE:
            PERF.add_time(SHARD_PREFIX + "busy", duration)
        PERF.add_time(SHARD_PREFIX + name, duration)


def layer_table(phase: Phase, moves: dict) -> str:
    """Per-layer text table: self/inclusive time, share, what it moves.

    Rows are the recorded span names, heaviest self time first, then
    the explicit leftover; the self-time column sums to the wall.
    """
    wall = phase.wall_s
    lines = [f"{'layer.fn':36s} {'calls':>8s} {'self ms':>10s} "
             f"{'busy ms':>10s} {'self %':>7s}  moves",
             "-" * 100]
    ordered = sorted(phase.stats.items(),
                     key=lambda item: -item[1].self_s)
    for name, stat in ordered:
        lines.append(f"{name:36s} {stat.calls:8d} {stat.self_s * 1e3:10.2f} "
                     f"{stat.busy_s * 1e3:10.2f} "
                     f"{100.0 * stat.self_s / wall:6.2f}%  "
                     f"{moves.get(name, '')}")
    lines.append(f"{'(leftover: driver + unwrapped code)':36s} "
                 f"{'':8s} {phase.leftover_s * 1e3:10.2f} {'':10s} "
                 f"{100.0 * phase.leftover_s / wall:6.2f}%")
    lines.append(f"{'(timed wall)':36s} {'':8s} {wall * 1e3:10.2f}")
    return "\n".join(lines)
