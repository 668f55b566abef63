"""Smoke test of the benchmark: every workload at a tiny size.

Run from the root of the repository:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import spans  # noqa: E402

# Layers each workload must show spans for; together they are every layer.
EXPECTED_LAYERS = {
    "verify-mc": {
        "probpoly.construct",
        "probpoly.sample",
        "verify.evaluate",
        "bounds.predict",
    },
    "construct-families": {
        "symfun.analyze",
        "bounds.predict",
        "probpoly.construct",
        "probpoly.sample",
        "verify.point_eval",
    },
    "audit-certify": {
        "bounds.predict",
        "probpoly.construct",
        "probpoly.sample",
        "verify.point_eval",
        "verify.expand",
        "verify.exact",
        "reductions.build",
        "reductions.check",
    },
}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _lines(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


def test_workloads_cover_every_layer():
    assert set(EXPECTED_LAYERS) == set(WORKLOADS)
    assert set().union(*EXPECTED_LAYERS.values()) == set(spans.LAYERS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    detail, result = _lines(_run(workload, 0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert detail["ops_failed_ratio"]["value"] == 0
    assert detail["degree_table"]
    again, _ = _lines(_run(workload, 0))
    assert again["output_digest"] == detail["output_digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_has_spans_for_its_layers(workload):
    detail, result = _lines(_run(workload, 1))
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    trace = json.loads((ROOT / detail["trace_file"]).read_text())
    recorded = [s for p in trace["passes"] for s in p]
    assert EXPECTED_LAYERS[workload] <= {s["name"] for s in recorded}
    assert all(s["job"] is not None and s["end"] >= s["start"] for s in recorded)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
