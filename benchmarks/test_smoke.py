"""Smoke test of the benchmark at minimal size.

    python3 -m pytest benchmarks/test_smoke.py -q

Every workload runs shrunk (`run.main(..., small=True)`), untraced and
traced: the result line must carry exactly the metrics BENCHMARK.json
names, each with its unit. A check fed a wrong expected value must count
as a failure and make the run exit nonzero, and the benchmark must fail
without a result line where there is no library source (tried in a
copy of the benchmark under the ignored `.bench_out/`).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_small(capsys, workload: str, trace: int) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], small=True)
    lines = capsys.readouterr().out.splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_printed_with_its_unit(capsys, workload, trace):
    code, result = run_small(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
        assert math.isfinite(m["value"])


def _double(f):
    return lambda *args: 2 * f(*args)


def _plus_one(f):
    return lambda *args: f(*args) + 1


def _farther(f):
    return lambda *args: {k: d + 1 for k, d in f(*args).items()}


@pytest.mark.parametrize("workload, expectation, corrupt", [
    ("sweep_star", "expected_average_crlb", _double),
    ("sweep_chain_budget", "expected_average_crlb", _double),
    ("verify_exhaustive", "cayley_count", _plus_one),
    ("bound_numeric", "hop_distances", _farther),
])
def test_wrong_expected_value_fails_the_run(capsys, monkeypatch, workload,
                                            expectation, corrupt):
    monkeypatch.setattr(workloads, expectation,
                        corrupt(getattr(workloads, expectation)))
    code, result = run_small(capsys, workload, 0)
    assert code == 1
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]


def test_mse_band_rejects_a_biased_estimator():
    wl = workloads.make("sweep_star", small=True)
    wl.setup(3)
    checks = workloads.Checks()
    wl.ratios = [[(1.5 + 0.01 * k, 1.0 + 0.01 * (k % 2)) for k in range(20)]
                 for _ in wl.grid]
    wl.finish(checks)
    # alpha is biased by 50% at every grid point; beta sits on the bound
    assert checks.attempted == 2 * len(wl.grid)
    assert checks.failed == len(wl.grid)


def test_fails_without_library_source():
    bare = HERE.parent / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
