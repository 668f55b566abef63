"""Record a baseline of every workload, for before/after comparisons.

Usage, from the root of a checkout:

    python3 bench/record.py --seeds 1 2 3 4 5 6 7 8 9 10 --out bench/BENCH_baseline.json

For each workload it runs `run.py` untraced once per seed, one after another,
and reports each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median), the same for the
pass time in seconds, the output digest of every seed, and the degree table
and failure accounting of the first seed.  One traced run on the first
seed adds the per-layer metrics and each layer's share of the traced wall
time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


def _summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    record = {
        "machine": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, seed, seconds, 0) for seed in args.seeds]
        first_detail, _ = runs[0]
        traced_detail, traced = _run(workload, args.seeds[0], seconds, 1)
        record["workloads"][workload] = {
            "correct": all(r["correct"] for _, r in runs),
            "attempted": [r["attempted"] for _, r in runs],
            "failed": [r["failed"] for _, r in runs],
            "end_to_end": {
                m["name"]: {
                    "unit": m["unit"],
                    "bound": m["bound"],
                    **_summary([r["metrics"][m["name"]]["value"] for _, r in runs]),
                }
                for m in spec["end_to_end"]
            },
            "wall_s": {
                "unit": "s",
                **_summary([d["wall_s"]["value"] for d, _ in runs]),
            },
            "output_digest": {
                str(seed): d["output_digest"] for seed, (d, _) in zip(args.seeds, runs)
            },
            "error.worst_over_eps": [d["error.worst_over_eps"] for d, _ in runs],
            "ops": first_detail["ops"],
            "degree_table": first_detail["degree_table"],
            "per_layer": traced["metrics"],
            "self_time_share": traced_detail["self_time_share"],
        }
        print(workload, json.dumps(
            {k: round(v["spread"], 4) for k, v in record["workloads"][workload]["end_to_end"].items()}
        ), flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
