"""The per-layer metric catalogue of the traced run.

Each entry names a ``<layer>.<fn>`` span (see :mod:`perfbench.tracing`),
the statistics printed for it, and — written down before any
measurement, as the benchmark's contract with later changes — the
end-to-end metric and workload a change to that layer should move.
Every traced run prints every name here (zeros where its workload does
not reach the layer), so the per-layer output has one fixed shape.
"""

from __future__ import annotations

from .tracing import Phase

FULL = ("calls", "busy_ms", "us_per_call", "share")
COARSE = ("calls", "busy_ms", "share")

_PAPER = "step_p50_ms, steps_per_s on paper_rooms"
_EVAL = "steps_per_s on train_eval"
_TRAIN = "step_p50_ms, step_p90_ms on train_eval"
_FLEET = "steps_per_s, step_p50_ms on churn_fleet"
_CHURN = "step_p90_ms on churn_fleet"
_SHARD = "steps_per_s, step_p90_ms on churn_fleet"
_SETUP = "setup_s on every workload"

#: ``<layer>.<fn>`` -> (statistics, what it should move).  ``share`` is
#: busy time over the traced wall of the timed windows (set-up wall for
#: ``datasets``; shard wall times the shard count for shard-side rows).
FUNCTIONS = {
    # paper_rooms: the in-process engine at N = 200
    "geometry.convert_rooms": (FULL, _PAPER),
    "geometry.resolve_rooms_visibility": (FULL, _PAPER),
    "core.build_room_frames": (FULL, _PAPER),
    "models.recommend": (FULL, f"{_PAPER}; {_EVAL}"),
    "serving.pump": (FULL, _PAPER),
    "serving.submit": (FULL, _PAPER),
    "serving.open_session": (COARSE, _PAPER),
    "serving.close_session": (COARSE, _PAPER),
    # train_eval: the offline evaluation walker
    "core.evaluate_targets": (COARSE, _EVAL),
    "geometry.convert_dogs": (FULL, _EVAL),
    "core.build_episode_frames": (FULL, _EVAL),
    "geometry.resolve_episode_visibility": (FULL, _EVAL),
    # train_eval: batched-replay training
    "nn.replay": (FULL, _TRAIN),
    "nn.backward": (FULL, _TRAIN),
    "nn.adam_step": (FULL, _TRAIN),
    "nn.clip_grad_norm": (FULL, _TRAIN),
    "training.bptt_run": (FULL, _TRAIN),
    "training.epoch": (COARSE, _TRAIN),
    # churn_fleet: router side
    "fleet.submit": (FULL, _FLEET),
    "fleet.pump": (FULL, _FLEET),
    "transport.send": (FULL, _FLEET),
    "buffers.shuttle_put": (FULL, _FLEET),
    "fleet.churn_session": (FULL, _CHURN),
    "fleet.merge_sessions": (FULL, _CHURN),
    "fleet.split_session": (FULL, _CHURN),
    "fleet.drain": (COARSE, _CHURN),
    # churn_fleet: shard side, folded back through Fleet.collect_obs
    "serving.shard_pump": (COARSE, _SHARD),
    "serving.apply_churn": (FULL, _SHARD),
    # set-up
    "datasets.generate_room": (COARSE, _SETUP),
    "datasets.schedule": (COARSE, _SETUP),
}

#: Single-valued per-layer metrics: name -> (unit, what it should move).
EXTRAS = {
    "serving.pump.self_ms": ("ms", _PAPER),
    "serving.batch_size": ("rooms", _PAPER),
    "serving.queue_wait_ms": ("ms", _PAPER),
    "generator_lateness_p90_ms": ("ms", "step_p90_ms on paper_rooms"),
    "training.epoch.self_ms": ("ms", _TRAIN),
    "nn.replay_hit_ratio": ("frac", _TRAIN),
    "transport.msgs_per_step": ("msgs", _FLEET),
    "transport.bytes_per_step": ("B", _FLEET),
    "fleet.shard_busy_share": ("frac", _SHARD),
    "fleet.shard_idle_share": ("frac", _SHARD),
    "fleet.shard_imbalance": ("ratio", _SHARD),
    "leftover_share": ("frac", "nothing: benchmark health"),
    "trace_overhead_frac": ("frac", "nothing: benchmark health"),
}

#: Table rows that are not per-layer metrics, and what they are.
TABLE_ONLY = {
    "bench.idle": "open-loop generator waiting for due times, not a layer",
    "transport.recv": "router blocked on shard replies: fleet.pump wait",
    "fleet.open_session": "plan room opens (router side)",
    "fleet.close_session": "plan room closes (router side)",
}

#: Shard-side rows come from PERF timers, not router spans.
SHARD_FUNCTIONS = {"serving.shard_pump": "serving.pump",
                   "serving.apply_churn": "serving.apply_churn"}

_UNITS = {"calls": "count", "busy_ms": "ms", "us_per_call": "us",
          "share": "frac"}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in catalogue order."""
    units = {}
    for name, (stats, _) in FUNCTIONS.items():
        for stat in stats:
            units[f"{name}.{stat}"] = _UNITS[stat]
    for name, (unit, _) in EXTRAS.items():
        units[name] = unit
    return units


def moves() -> dict:
    """Metric-name prefix -> the end-to-end metric it should move."""
    table = {name: target for name, (_, target) in FUNCTIONS.items()}
    table.update({name: target for name, (_, target) in EXTRAS.items()})
    table.update(TABLE_ONLY)
    return table


def _values(calls: int, busy_s: float, wall_s: float) -> dict:
    return {"calls": calls, "busy_ms": busy_s * 1e3,
            "us_per_call": busy_s * 1e6 / calls if calls else 0.0,
            "share": busy_s / wall_s if wall_s > 0 else 0.0}


def per_layer_metrics(measure: Phase, setup: Phase, extras: dict,
                      shard_timers: dict | None = None,
                      shard_wall_s: float = 0.0) -> dict:
    """Assemble every per-layer metric, units attached.

    ``measure``/``setup`` are the traced phases; ``shard_timers`` maps a
    shard-side span name to its summed ``(calls, seconds)`` over all
    shards and ``shard_wall_s`` is that collection window times the
    shard count.  ``extras`` supplies the single-valued metrics a
    workload measures; the rest default to 0.
    """
    units = per_layer_units()
    metrics = {}
    for name, (stats, _) in FUNCTIONS.items():
        if name in SHARD_FUNCTIONS:
            calls, busy_s = (shard_timers or {}).get(
                SHARD_FUNCTIONS[name], (0, 0.0))
            values = _values(calls, busy_s, shard_wall_s)
        else:
            phase = setup if name.startswith("datasets.") else measure
            stat = phase.stat(name)
            values = _values(stat.calls, stat.busy_s, phase.wall_s)
        for key in stats:
            metric = f"{name}.{key}"
            metrics[metric] = (values[key], units[metric])
    unknown = set(extras) - set(EXTRAS)
    if unknown:
        raise KeyError(f"unknown per-layer extras {sorted(unknown)}")
    for name, (unit, _) in EXTRAS.items():
        metrics[name] = (float(extras.get(name, 0.0)), unit)
    return metrics
