"""Frames are validated at submit, before any admission side effect.

A frame that is not a finite real ``(N, 2)`` array — NaN or infinite
positions, a third coordinate, a flat vector — used to be accepted and
served (a NaN frame yields an all-False render mask).  Now
:class:`~repro.serving.SessionEngine` and :class:`~repro.serving.Fleet`
raise :class:`~repro.serving.InvalidFrameError` and leave no ticket,
queue entry, shed/degrade event or PERF count behind, so the next valid
submit gets exactly the step index and admission decision the rejected
frame would have had.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core import AfterProblem, evaluate_episode
from repro.models.baselines import NearestRecommender
from repro.obs import PERF, EventLog
from repro.serving import Fleet, InvalidFrameError, SessionEngine, \
    validate_frame

from .conftest import make_room
from .test_stream_parity import assert_episodes_identical

NUM_USERS = 8


def corrupt(positions, kind):
    """A bad variant of a valid ``(N, 2)`` frame."""
    frame = np.array(positions, dtype=np.float64)
    if kind == "nan":
        frame[3, 1] = np.nan
    elif kind == "+inf":
        frame[0, 0] = np.inf
    elif kind == "-inf":
        frame[-1, 0] = -np.inf
    elif kind == "(N, 3)":
        frame = np.column_stack([frame, np.zeros(len(frame))])
    elif kind == "(N,)":
        frame = frame[:, 0].copy()
    return frame


BAD_KINDS = ("nan", "+inf", "-inf", "(N, 3)", "(N,)")


class TestValidateFrame:
    def test_valid_frame_passes_as_float64(self):
        frame = validate_frame([[0, 1], [2, 3]])
        assert frame.dtype == np.float64
        np.testing.assert_array_equal(frame, [[0.0, 1.0], [2.0, 3.0]])

    @pytest.mark.parametrize("kind", BAD_KINDS)
    def test_bad_frames_raise_a_value_error(self, kind):
        good = np.zeros((NUM_USERS, 2))
        with pytest.raises(InvalidFrameError):
            validate_frame(corrupt(good, kind))
        assert issubclass(InvalidFrameError, ValueError)

    @pytest.mark.parametrize("frame", [
        np.zeros((4, 2), dtype=bool),
        np.zeros((4, 2), dtype=complex),
        np.array([["a", "b"]] * 4),
    ])
    def test_non_real_dtypes_are_rejected(self, frame):
        with pytest.raises(InvalidFrameError, match="dtype"):
            validate_frame(frame)


class TestEngineRejectsBadFrames:
    @pytest.mark.parametrize("kind", BAD_KINDS)
    def test_rejection_leaves_no_trace(self, kind):
        room = make_room("timik", NUM_USERS, 4, seed=410)
        problem = AfterProblem(room=room, target=0, beta=0.5)
        frames = room.trajectory.positions
        log = EventLog()
        # degrade_at=1: with one frame queued, the rejected frame would
        # have been admitted as degraded — so would the next valid one.
        engine = SessionEngine(max_batch=4, max_queue=8, degrade_at=1,
                               events=log)
        sid = "room"
        engine.open_session(problem, NearestRecommender(), session_id=sid)
        assert engine.submit(sid, frames[0]).status == "queued"
        events_before = list(log.records)
        PERF.reset().enable()
        try:
            with pytest.raises(InvalidFrameError):
                engine.submit(sid, corrupt(frames[1], kind))
            assert PERF.snapshot()["counters"] == {}
            assert not PERF.histograms
        finally:
            PERF.disable().reset()
        assert log.records == events_before
        assert engine.queue_depth == 1

        ticket = engine.submit(sid, frames[1])
        assert (ticket.t, ticket.status) == (1, "degraded")

    def test_rejected_frame_does_not_change_the_episode(self):
        room = make_room("smm", NUM_USERS, 4, seed=411)
        problem = AfterProblem(room=room, target=2, beta=0.5)
        frames = room.trajectory.positions
        engine = SessionEngine(max_batch=4, max_queue=64,
                               events=EventLog())
        sid = "room"
        engine.open_session(problem, NearestRecommender(), session_id=sid)
        for t, positions in enumerate(frames):
            for kind in BAD_KINDS:
                with pytest.raises(InvalidFrameError):
                    engine.submit(sid, corrupt(positions, kind))
            assert engine.submit(sid, positions).t == t
            engine.pump()
        engine.drain()
        streamed = engine.close_session(sid).result()
        assert_episodes_identical(
            evaluate_episode(problem, NearestRecommender()), streamed)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable")
class TestFleetRejectsBadFrames:
    """A bad frame never crosses the pipe, so the router's pipelined
    reply gather stays in lockstep with its sends."""

    @pytest.fixture(scope="class")
    def rooms(self):
        return [make_room("hubs", NUM_USERS, 3, seed=420 + index)
                for index in range(2)]

    def open_pair(self, fleet, rooms):
        """One session on each shard."""
        return [fleet.open_session(
                    AfterProblem(room=room, target=0, beta=0.5),
                    NearestRecommender(), session_id=f"room{index}",
                    shard=index)
                for index, room in enumerate(rooms)]

    @pytest.mark.parametrize("kind", BAD_KINDS)
    def test_submit_and_submit_many_reject_before_sending(self, rooms,
                                                           kind):
        with Fleet(2, max_batch=4, max_queue=64,
                   events=EventLog()) as fleet:
            ids = self.open_pair(fleet, rooms)
            first = [room.trajectory.positions[0] for room in rooms]
            with pytest.raises(InvalidFrameError):
                fleet.submit(ids[1], corrupt(first[1], kind))
            # The bad frame is last: the valid one before it must not
            # have been sent either.
            with pytest.raises(InvalidFrameError):
                fleet.submit_many([(ids[0], first[0]),
                                   (ids[1], corrupt(first[1], kind))])
            assert fleet.queue_depths() == [0, 0]

            tickets = fleet.submit_many(zip(ids, first))
            assert [(t.session_id, t.t, t.status) for t in tickets] == [
                (ids[0], 0, "queued"), (ids[1], 0, "queued")]
            fleet.drain()
            for sid in ids:
                fleet.close_session(sid)

    def test_streamed_results_match_offline_eval(self, rooms):
        with Fleet(2, max_batch=4, max_queue=64,
                   events=EventLog()) as fleet:
            ids = self.open_pair(fleet, rooms)
            for t in range(len(rooms[0].trajectory.positions)):
                frames = [room.trajectory.positions[t] for room in rooms]
                for kind in BAD_KINDS:
                    with pytest.raises(InvalidFrameError):
                        fleet.submit(ids[0], corrupt(frames[0], kind))
                    with pytest.raises(InvalidFrameError):
                        fleet.submit_many(
                            [(ids[0], frames[0]),
                             (ids[1], corrupt(frames[1], kind))])
                assert fleet.submit(ids[0], frames[0]).t == t
                assert fleet.submit_many([(ids[1], frames[1])])[0].t == t
                fleet.drain()
            results = [fleet.close_session(sid) for sid in ids]
        for room, streamed in zip(rooms, results):
            problem = AfterProblem(room=room, target=0, beta=0.5)
            assert_episodes_identical(
                evaluate_episode(problem, NearestRecommender()), streamed)
