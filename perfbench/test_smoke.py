"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

They run from the root of the checkout, like the benchmark.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from compare import verdict
from workloads import DIGESTS, WORKLOADS, check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_spec_names_match_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s"}
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


def test_every_command_has_a_digest():
    for w in WORKLOADS.values():
        for size in ("full", "tiny"):
            for _, argv in w.commands(size):
                assert " ".join(argv) in DIGESTS


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_with_units(workload):
    result = last_json(run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                                 "--trace", "0", "--size", "tiny"))
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_metrics_and_span_parents():
    spans_file = HERE / "out" / "spans-oracles-7.json"
    spans_file.unlink(missing_ok=True)
    result = last_json(run_bench("--workload", "oracles", "--seed", "7",
                                 "--seconds", "1", "--trace", "1", "--size", "tiny"))
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["metrics"]["cubic.rotations"]["value"] == 24
    assert result["metrics"]["quadratic.gcd.calls"]["value"] > 0
    spans = json.loads(spans_file.read_text())["spans"]
    assert set(spans) == set(WORKLOADS)
    for workload, rows in spans.items():
        ids = {row[0] for row in rows}
        roots = [row for row in rows if row[4] is None]
        assert roots and all(row[1] == "cli.run" for row in roots), workload
        assert all(row[4] in ids for row in rows if row[4] is not None), workload
    tasks = [row for row in spans["oracles"] if row[1] == "parallel.task"]
    maps = {row[0] for row in spans["oracles"] if row[1] == "parallel.map_ordered"}
    assert tasks and all(row[4] in maps for row in tasks)


def test_known_answer_gate_rejects_changed_output():
    argv = ("verify", "--module", "cubic3", "--limit", "1")
    good = ("rotation counts vs 24 * phi-c, |N(den)| <= 1: 1/1 match (scan factor 16)\n"
            "submodule counts vs f-cubic at cubes up to 1: 1/1 match\n")
    assert check_output(argv, good) is None
    assert "digest" in check_output(argv, good.replace("1/1", "0/1", 1))
    assert "no recorded digest" in check_output(argv[:-1] + ("3",), good)


def test_missing_program_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "oracles", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_verdicts():
    def m(values):
        values = sorted(values)
        med = values[len(values) // 2]
        return {"values": values, "median": med, "q1": values[1], "q3": values[-2],
                "spread": (values[-2] - values[1]) / med}
    base = m([1.00, 1.01, 1.02, 0.99, 1.00])
    assert verdict(base, m([1.00, 1.02, 1.01, 0.99, 1.01]), 0.1, "lower") == "same"
    assert verdict(base, m([1.20, 1.22, 1.21, 1.19, 1.21]), 0.1, "lower") == "worse"
    assert verdict(base, m([0.80, 0.82, 0.81, 0.79, 0.81]), 0.1, "lower") == "better"
    assert verdict(base, m([0.80, 0.82, 0.81, 0.79, 0.81]), 0.1, "higher") == "worse"
    assert verdict(base, m([0.5, 1.5, 1.0, 0.6, 1.4]), 0.1, "lower") == "unresolved"
