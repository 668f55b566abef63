"""pdeg benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify-mc --seed 1 --seconds 40 --trace 0

One process imports pdeg from src/ (nothing is installed), generates the
workload's inputs from --seed, then runs passes over the same job list, one
after another on one core, until the next pass would end after --seconds.
Every pass must produce the same output digest.

With --trace 0 the last stdout line reports the end-to-end metrics of
BENCHMARK.json.  wall_norm is the pass time in units of a calibration loop
timed between jobs: the sum over jobs of each job's median, across passes,
of its time over the mean of the calibrations just before and after it.
setup_s is the median of SETUP_REPEATS timed set-ups, each scaled to the
reference machine speed by the calibration just before it.
With --trace 1 passes alternate untraced and traced; the last line reports
per-layer self times and counts (lower medians over traced passes) and
trace.overhead_s, the traced wall time minus the untraced one.  Spans of
the traced passes go to .bench_build/trace-<workload>-<seed>.json.

The line before the last holds what is reported but not gated: the pass
time in seconds (wall_s, summed per-job medians), the unscaled set-up time,
the calibration time, the output digest, failure accounting, the error
ratio, the degree table and, when traced, each layer's share of the traced
wall time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import inputs
import spans
from calibration import REFERENCE_S, calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7

# Per-layer counts: metric name -> (span name, count key).
COUNTERS = {
    "probpoly.construct.calls": ("probpoly.construct", "spans"),
    "probpoly.sample.draws": ("probpoly.sample", "draws"),
    "verify.evaluate.weight_evals": ("verify.evaluate", "weight_evals"),
    "verify.point_eval.points": ("verify.point_eval", "points"),
    "verify.expand.terms": ("verify.expand", "terms"),
    "reductions.certs": ("reductions.build", "certs"),
    "reductions.slots": ("reductions.build", "slots"),
}


def _forget_pdeg() -> None:
    for name in [m for m in sys.modules if m == "pdeg" or m.startswith("pdeg.")]:
        del sys.modules[name]


def _setup(workload: str, seed: int, tiny: bool) -> tuple[dict, float, float]:
    """Import pdeg afresh and generate inputs, several times.

    Returns the inputs, the median set-up time in seconds, and the median
    set-up time scaled to the reference machine speed: each set-up is timed
    right after a calibration and multiplied by REFERENCE_S over that
    calibration's time.
    """
    calibrate()  # the first loop in a process runs cold
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        loop_s = calibrate()
        _forget_pdeg()
        t0 = time.perf_counter()
        importlib.import_module("pdeg")
        data = inputs.WORKLOADS[workload](seed, tiny)
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * REFERENCE_S / loop_s)
    return data, statistics.median(times), statistics.median(scaled)


def _layer_metrics(pass_spans: list[dict]) -> dict[str, float]:
    seconds, counts = spans.layer_totals(pass_spans)
    out = {}
    for layer in spans.LAYERS:
        c = counts.get(layer, {})
        out[layer + ".s"] = seconds.get(layer, 0.0) - c.get("sample_s", 0.0)
    for name, (layer, key) in COUNTERS.items():
        out[name] = counts.get(layer, {}).get(key, 0)
    sampled = counts.get("probpoly.sample", {})
    draws = sampled.get("draws", 0)
    out["probpoly.sample.nodes"] = sampled.get("nodes", 0) / draws if draws else 0.0
    evals = out["verify.evaluate.weight_evals"]
    out["verify.evaluate.ns_per_weight_eval"] = (
        out["verify.evaluate.s"] * 1e9 / evals if evals else 0.0
    )
    out["job.s"] = seconds.get(spans.JOB, 0.0)
    return out


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _robust_wall(runs: list, normalized: bool = False) -> float:
    """Sum over jobs of each job's median time across the given passes.

    A burst of load from outside slows one job of one pass; the per-job
    median drops it, where a median of whole passes would need a majority
    of passes to stay clear of every burst.  Normalized, each job time is
    first divided by the mean of the calibrations just before and after the
    job, which takes out the machine's slower swings in speed (see
    calibration.py).
    """

    def job_time(run, job: str) -> float:
        if normalized:
            return run.job_seconds[job] / run.job_calibration[job]
        return run.job_seconds[job]

    return sum(
        statistics.median(job_time(run, job) for run in runs)
        for job in runs[0].job_seconds
    )


def _max_ratio(rows: list[dict], key: str) -> float:
    return max(r[key] for r in rows if r[key] is not None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="shrink every input (smoke test)"
    )
    args = parser.parse_args(argv)

    if not (SRC / "pdeg" / "__init__.py").is_file():
        print(f"pdeg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = _spec()
    data, setup_raw_s, setup_s = _setup(args.workload, args.seed, args.tiny)
    # Imported only now, so that it binds to the pdeg modules of the last
    # timed import rather than to an import made outside the timing.
    import workloads

    runner = workloads.RUNNERS[args.workload]
    passes = []
    traced_spans = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = spans.Tracer(enabled=traced)
        run = workloads.Pass(tracer)
        t0 = time.perf_counter()
        runner(data, run)
        wall = time.perf_counter() - t0
        passes.append((traced, wall, run))
        if traced:
            traced_spans.append(tracer.spans)
        elapsed = time.perf_counter() - start
        if len(passes) >= 1 + args.trace and elapsed + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first = passes[0][2]
    digests = {run.digest for _, _, run in passes}
    attempted = sum(run.attempted for _, _, run in passes)
    failed = sum(run.failed for _, _, run in passes)
    failures = [msg for _, _, run in passes for msg in run.failures]
    if len(digests) > 1:
        failures.append(f"passes disagree: {len(digests)} distinct output digests")
    untraced = [run for t, _, run in passes if not t]
    wall_s = _robust_wall(untraced)
    rows = first.degree_rows

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_wall_s": [[("traced" if t else "untraced"), w] for t, w, _ in passes],
        "job_wall_s": {
            job: statistics.median(run.job_seconds[job] for run in untraced)
            for job in first.job_seconds
        },
        "wall_s": {"value": wall_s, "unit": "s"},
        "setup_raw_s": {"value": setup_raw_s, "unit": "s"},
        "calibration_s": {
            "value": statistics.median(c for run in untraced for c in run.job_calibration.values()),
            "unit": "s",
        },
        "output_digest": first.digest,
        "ops": {
            "attempted": attempted,
            "failed": failed,
            "rejected": sum(run.rejected for _, _, run in passes),
        },
        "ops_failed_ratio": {"value": failed / attempted, "unit": "ratio", "base": attempted},
        "error.worst_over_eps": (
            {"value": max(first.error_ratios), "unit": "ratio", "reports": len(first.error_ratios)}
            if first.error_ratios
            else None
        ),
        "failures": failures[:20],
        "degree_table": rows,
    }
    if args.trace:
        per_pass = [_layer_metrics(s) for s in traced_spans]
        layer = {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}
        traced_wall = _robust_wall([run for t, _, run in passes if t])
        layer["trace.overhead_s"] = traced_wall - wall_s
        detail["self_time_share"] = {
            name: layer[name + ".s"] / traced_wall for name in (*spans.LAYERS, "job")
        }
        trace_dir = ROOT / ".bench_build"
        trace_dir.mkdir(exist_ok=True)
        trace_file = trace_dir / f"trace-{args.workload}-{args.seed}.json"
        spans.write(trace_file, {"workload": args.workload, "seed": args.seed}, traced_spans)
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
        section, values = "per_layer", layer
    else:
        section, values = "end_to_end", {
            "wall_norm": _robust_wall(untraced, normalized=True),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "degree.declared_over_n": _max_ratio(rows, "declared_over_n"),
            "degree.tracked_over_n": _max_ratio(rows, "tracked_over_n"),
            "degree.tracked_over_pred": _max_ratio(rows, "tracked_over_pred"),
        }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[section]
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
