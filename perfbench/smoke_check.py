"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

Run from the repository root:  python3 -m pytest -q perfbench/smoke_check.py

The file name keeps it out of the project's own test run, which collects
``test_*.py``: the benchmark is checked on demand, not with every test run.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

assert run.use_sources(), "the smoke test needs the yexp sources under src/"

import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "sweep": {"rank_max": 4, "periodicity_points": 1, "samples": 4},
    # D19 raises ConvergenceError fast, so the failure taxonomy path is exercised
    "high_rank": {"cases": ["A4", "D19"]},
    "orbits": {"ranks": [4, 5], "points": 1},
    "qtables": {"cases": ["B3", "C3", "D4"]},
}
SEED = 7


def expected(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    result, record = run.measure(workload, SEED, 0, trace, params=TINY[workload], setup_runs=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["gate_violations"]
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected(kind)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert set(TINY) == set(workloads.FULL) == set(run.WORKLOADS)


def test_failure_taxonomy_names_the_raising_function():
    result, record = run.measure("high_rank", SEED, 0, 0, params=TINY["high_rank"], setup_runs=1)
    assert result["failed"] == 1 and result["attempted"] == 2
    assert result["metrics"]["cases_verified"]["value"] == 1
    (case,) = [c for c in record["passes"][0]["cases"] if not c["ok"]]
    assert case["case"] == "D19" and case["exit"] == 2
    assert case["failures"] == [{"layer": "ysys", "function": "newton_fixed_point",
                                 "error": "ConvergenceError",
                                 "message": case["failures"][0]["message"]}]


def test_gate_accepts_the_reference_and_rejects_a_perturbed_exponent_list():
    reference = workloads.load_reference()
    report = dict(reference["B6"])
    assert workloads.gate_case("B6", report, reference) == []
    exps = list(report["exponents"])
    exps[0] += 1
    violations = workloads.gate_case("B6", dict(report, exponents=exps), reference)
    assert len(violations) == 1 and violations[0].startswith("B6.exponents")
    shuffled = report["exponents"][::-1]  # a multiset: order does not matter
    assert workloads.gate_case("B6", dict(report, exponents=shuffled), reference) == []


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_case_killed_at_the_run_limit_is_a_failed_case(monkeypatch):
    monkeypatch.setattr(run, "RUN_LIMIT_S", 3.0)  # A24 needs several seconds
    result, record = run.measure("high_rank", SEED, 0, 1, params={"cases": ["A4", "A24"]},
                                 setup_runs=1)
    cases = record["traced_pass"]["cases"] + record["passes"][0]["cases"]
    killed = [c for c in cases if c.get("killed")]
    assert killed[0]["case"] == "A24"
    assert "the run's 3.0 s limit" in killed[0]["failures"][0]["message"]
    assert all(c["s"] == workloads.CASE_BUDGET_S and not c["ok"] for c in killed)
    assert result["metrics"]["trace.overhead"]["value"] == 0.0  # no case finished in both
