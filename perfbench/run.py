"""Run one workload of the repository benchmark and print its result as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reach --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same workload untraced, then replays the same inputs
with spans recorded at every layer entry point, prints the per-layer
metrics and writes the spans and the ledger to ``.perfbench_out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("reach", "pattern", "churn")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    import importlib

    workload = importlib.import_module(args.workload)
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    tally = outcome.tally
    attempted = max(1, tally.attempted)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        # A layer the workload never calls reads 0.
        declared = spec["per_layer"]
        values = {metric["name"]: 0.0 for metric in declared}
        unknown = set(outcome.per_layer) - set(values)
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        values.update(outcome.per_layer)
        path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace.json"
        outcome.recorder.dump(path)
        with path.with_name(path.stem + "-ledger.json").open("w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed, "metrics": values}, handle, indent=1)
    else:
        declared = spec["end_to_end"]
        values = dict(outcome.end_to_end, ok_frac=1.0 - tally.failed / attempted)
    result = {
        "correct": tally.failed == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }
    # The daemon pool's shared memory started multiprocessing's resource
    # tracker; stop it and wait for it, so the run leaves no process behind.
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
