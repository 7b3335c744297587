"""Smoke-scale fixtures for the benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest  # noqa: E402

from perfbench import (churn_fleet, harness, paper_rooms,  # noqa: E402
                       train_eval)

#: Module constants shrunk so each workload runs in about a second.
SMOKE = {
    harness: {"SETUP_REPEATS": 1, "MIN_WINDOWS": 2,
              "TRACED_MIN_WINDOWS": 1},
    paper_rooms: {"NUM_USERS": 24, "NUM_STEPS": 4, "OPEN_FRAMES": 5,
                  "CLOSED_TICKS": 5, "RATE_HZ": 200.0},
    churn_fleet: {"PASSES_PER_WINDOW": 1, "SPEC": {
        "name": "churn_smoke", "ticks": 12, "dataset": "timik",
        "universe_users": 40, "room_users": [4, 8],
        "rooms_at_start": 4, "max_rooms": 4,
        "arrival": {"kind": "poisson", "rate": 2.0},
        "churn": {"join_rate": 1.0, "leave_rate": 1.0,
                  "handoff_rate": 0.5},
        "lifecycle": {"merge_at": [3], "split_at": [6],
                      "close_after": 5}}},
    train_eval: {"NUM_ROOMS": 2, "EVAL_ROOMS": 1, "NUM_USERS": 16,
                 "NUM_STEPS": 7, "EVAL_TARGETS": 2, "CHECK_TARGETS": 1,
                 "EPOCHS_PER_WINDOW": 2},
}

WORKLOADS = {"paper_rooms": paper_rooms, "churn_fleet": churn_fleet,
             "train_eval": train_eval}


@pytest.fixture
def smoke(monkeypatch):
    """Shrink every workload (and the harness's repeats) to smoke scale."""
    for module, constants in SMOKE.items():
        for name, value in constants.items():
            monkeypatch.setattr(module, name, value)
    return WORKLOADS
