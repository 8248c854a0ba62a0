"""Self-tests of the benchmark.  Run: PYTHONPATH=src python3 -m pytest -q perfbench"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Report:
    estimate: float
    ok: bool


def test_encode_is_exact_and_strict():
    value = checks.encode(
        {"a": math.nan, "b": -math.inf, 3: Fraction(2, 6), "r": Report(0.1 + 0.2, True)}
    )
    assert value == {"a": "nan", "b": "-inf", "3": "1/3", "r": {"estimate": 0.30000000000000004}}
    text = json.dumps(value, allow_nan=False)
    assert json.loads(text)["r"]["estimate"] == 0.1 + 0.2


def test_perturbed_estimate_raises_fail_frac():
    inputs = workloads.bsll_inputs(0)
    refs = checks.load_references("bsll-tail", 0)
    done = workloads.run_pass("bsll-tail", inputs, {})
    assert checks.failures(done.ops, refs) == []
    # one ulp on one frequency: only the bit-for-bit comparison can see it
    report = done.ops[0].result[2]
    report.freq = math.nextafter(report.freq, 1.0)
    failed = checks.failures(done.ops, refs)
    assert failed == [f"{done.ops[0].name}: differs from the recorded reference"]
    assert len(failed) / len(done.ops) > 0
    # a frequency far above its bound fails the independent check as well
    report.freq = 0.9
    assert checks.failures(done.ops, None) == [f"{done.ops[0].name}: independent check failed"]


def test_raising_operation_fails():
    p = checks.Pass()
    p.op("boom", lambda: 1 / 0)
    assert checks.failures(p.ops, {}) == ["boom: raised ZeroDivisionError: division by zero"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.METRICS
    for names in (tracing.BUSY, tracing.IDLE):
        assert set(names) == set(run.WORKLOADS)
        assert all(k in tracing.METRICS for ks in names.values() for k in ks)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bsll-tail", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
