"""POSHGNN inference-latency scaling (the paper's practicality claim).

The paper reports 5-8 ms per recommendation step at N = 200 (~150 Hz,
"without a significant negative effect on [user] experience" per its
frame-rate citation [57]).  The shape to reproduce: low-millisecond
per-step latency that stays practical as the room grows.
"""

from repro.bench.ablations import run_runtime_scaling

USER_COUNTS = (25, 50, 100, 200)


def test_runtime_scaling(benchmark, bench_config):
    latencies = benchmark.pedantic(run_runtime_scaling,
                                   args=(bench_config, USER_COUNTS),
                                   rounds=1, iterations=1)
    print()
    for count, ms in latencies.items():
        print(f"  N = {count:4d}: {ms:7.3f} ms/step  (~{1000 / ms:.0f} Hz)")

    # Real-time practicality at the paper's own N = 200: well under one
    # 150 Hz frame (6.7 ms).
    assert latencies[USER_COUNTS[-1]] < 6.7
    # Latency grows with room size but stays the same order of magnitude
    # across an 8x N range (dense-matrix GNN propagation).
    assert latencies[USER_COUNTS[-1]] >= latencies[USER_COUNTS[0]] * 0.5
