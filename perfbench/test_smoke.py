"""Smoke test of the benchmark itself; not a timing gate.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs at 1% of its size through the untimed and the traced
path; the result line must carry exactly the metrics BENCHMARK.json
declares, with their units, and the output checks must pass.  The
checks themselves are shown to catch wrong outputs.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
SCALE = "0.01"


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_has_every_declared_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", ".out", "__pycache__"))
    proc = _run("wos-report", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def bench_modules():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import workloads
        from bibmet import cli
        yield workloads, cli
    finally:
        del sys.path[:2]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_checks_catch_wrong_outputs(bench_modules, workload, tmp_path):
    workloads, cli = bench_modules
    inputs = workloads.prepare(workload, 7, float(SCALE), BENCH / ".cache", ROOT / "src")
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(inputs.argv(out)) == 0
    assert inputs.check(out) is None

    if workload == "wos-batches":
        export = out / workloads.EXPORT_NAME
        export.write_bytes(export.read_bytes().replace(b"PY 2", b"PY 1", 1))
        assert "differs" in inputs.check(out)
        return
    dist = out / "productivity.csv"
    original = dist.read_text(encoding="utf-8")
    dist.write_text(original.replace("\n1,", "\n1,1", 1), encoding="utf-8")
    assert "sum x*y" in inputs.check(out)
    dist.write_text(original, encoding="utf-8")
    (out / "ks.csv").unlink()
    assert "expected" in inputs.check(out)
