"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_rooms --seed 1 \
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs an untraced half and a traced half and prints the
per-layer table and metrics instead.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Output checks
run outside the timed windows; a mismatch prints ``"correct": false``
and exits with status 1.  See ``perfbench/README.md``.
"""

import os

# Pin BLAS to one thread before numpy is imported: OpenBLAS otherwise
# starts one thread per core in this process and in every forked shard.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_rooms", "churn_fleet", "train_eval")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="directory for the JSON record and Perfetto "
                             "trace (default: perfbench/out)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    harness = importlib.import_module("perfbench.harness")
    workload = importlib.import_module(f"perfbench.{args.workload}")

    out_dir = Path(args.out) if args.out else ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    outcome = workload.run(seed=args.seed, seconds=args.seconds,
                           trace=bool(args.trace), out_dir=out_dir)
    stamp = harness.fingerprint(args.workload, args.seed, outcome.params)
    result = outcome.result_line()

    if outcome.table:
        print(outcome.table)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in outcome.notes.items():
        print(f"  [{name}] {value}")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    print("fingerprint " + json.dumps(stamp, sort_keys=True))
    record = {"fingerprint": stamp, "notes": outcome.notes, **result}
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
