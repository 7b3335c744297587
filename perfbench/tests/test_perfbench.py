"""The benchmark's own contract, checked at smoke scale."""

import json
import math
import re

import numpy as np
import pytest
from conftest import ROOT

import repro.core.evaluation as evaluation
from perfbench import churn_fleet, harness, layers, run, tracing
from repro.serving import WorkloadGenerator, WorkloadSpec

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _declared(section: str) -> dict:
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}


def test_benchmark_json_matches_the_catalogues():
    assert _declared("end_to_end") == harness.END_TO_END_UNITS
    assert _declared("per_layer") == layers.per_layer_units()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    for section in ("end_to_end", "per_layer", "workloads"):
        for entry in BENCHMARK[section]:
            assert NAME.match(entry["name"]), entry["name"]
    setup = next(e for e in BENCHMARK["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in BENCHMARK["end_to_end"])


def test_every_per_layer_metric_names_what_it_moves():
    targets = layers.moves()
    for name in layers.FUNCTIONS:
        assert " on " in targets[name], name
    for name in layers.EXTRAS:
        assert targets[name], name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_each_workload_emits_exactly_the_declared_names(smoke, tmp_path,
                                                        workload, trace):
    outcome = smoke[workload].run(seed=3, seconds=0.0, trace=bool(trace),
                                  out_dir=tmp_path)
    line = outcome.result_line()
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: metric["unit"] for name, metric
            in line["metrics"].items()} == declared
    values = [metric["value"] for metric in line["metrics"].values()]
    assert all(math.isfinite(value) for value in values)
    if not trace:
        assert all(value > 0 for value in values)
        # No name may carry another name's measurement.
        assert len(set(values)) == len(values)
    else:
        busy = [line["metrics"][name]["value"] for name in line["metrics"]
                if name.endswith(".busy_ms")]
        nonzero = [value for value in busy if value > 0]
        assert nonzero and len(set(nonzero)) == len(nonzero)
        assert (tmp_path / f"{workload}_seed3.json").exists()


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_layer_times_and_leftover_sum_to_the_wall(smoke, tmp_path,
                                                         monkeypatch,
                                                         workload):
    phases = []
    original = tracing.SpanRecorder.take

    def keep(self):
        phase = original(self)
        phases.append(phase)
        return phase

    monkeypatch.setattr(tracing.SpanRecorder, "take", keep)
    smoke[workload].run(seed=1, seconds=0.0, trace=True, out_dir=tmp_path)
    measure = phases[-1]
    self_total = sum(stat.self_s for stat in measure.stats.values())
    assert measure.wall_s > 0
    assert self_total + measure.leftover_s == pytest.approx(measure.wall_s,
                                                            rel=1e-9)
    assert 0 <= measure.leftover_s < measure.wall_s


def test_span_recorder_self_times_exclude_children():
    recorder = tracing.SpanRecorder()
    inner = recorder.wrap("inner", lambda: sum(range(20000)))
    outer = recorder.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()                      # inactive: not recorded
    with recorder.window():
        outer()
        sum(range(20000))        # leftover
    phase = recorder.take()
    assert phase.stat("outer").calls == 1 and phase.stat("inner").calls == 3
    assert phase.stat("outer").self_s == pytest.approx(
        phase.stat("outer").busy_s - phase.stat("inner").busy_s)
    assert phase.stat("outer").self_s + phase.stat("inner").self_s \
        + phase.leftover_s == pytest.approx(phase.wall_s)
    assert phase.leftover_s > 0


def test_corrupted_paper_rooms_output_fails_the_check(smoke):
    workload = smoke["paper_rooms"]
    server = workload.Server(workload.build(2))
    for _ in range(3):               # two finished episodes per room
        server.closed_window()
    assert server.check() == (8, 0)
    result = server.results[1][0]
    result.recommendations[2] = ~result.recommendations[2]
    assert server.check() == (8, 1)


def test_corrupted_churn_fleet_outcome_fails_the_check(smoke):
    setup = churn_fleet.build(2)
    try:
        runner = churn_fleet.Runner(setup)
        runner.replay()
        runner.replay()
    finally:
        setup.close()
    hashes = [setup.plan.schedule_hash()]
    assert runner.check(2, hashes) == (2, 0)
    results, tickets = runner.keys[1]
    runner.keys[1] = (results, tickets[:-1])
    assert runner.check(2, hashes) == (2, 1)
    assert runner.check(2, hashes + ["0" * 32])[1] == 2


def test_corrupted_evaluation_fails_the_run(smoke, tmp_path, monkeypatch,
                                            capsys):
    fast = evaluation._evaluate_episode_fast

    def skewed(problem, recommender):
        result = fast(problem, recommender)
        result.after_utility += 1e-9
        return result

    monkeypatch.setattr(evaluation, "_evaluate_episode_fast", skewed)
    status = run.main(["--workload", "train_eval", "--seed", "0",
                       "--seconds", "0", "--out", str(tmp_path)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert last["correct"] is False and last["failed"] >= 1


def test_pinned_schedule_hashes_reproduce():
    for (name, seed), expected in churn_fleet.PINNED_HASHES.items():
        assert name == churn_fleet.SPEC["name"]
        spec = WorkloadSpec.from_dict({**churn_fleet.SPEC, "seed": seed})
        assert WorkloadGenerator(spec).schedule().schedule_hash() == expected


def test_windows_take_medians_not_best_of():
    windows = harness.Windows()
    for scale in (1.0, 3.0, 2.0):
        windows.add_latencies(np.array([1.0, 2.0, 3.0]) * scale * 1e-3)
        windows.add_rate(int(100 * scale), 1.0)
    metrics = windows.metrics()
    assert metrics["step_p50_ms"] == pytest.approx(4.0)
    assert metrics["steps_per_s"] == pytest.approx(200.0)
