"""Smoke self-test of the benchmark, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# functions each workload must reach, even at smoke sizes
REACHED = {
    "corpus_hamilton": ["graphs.from_graph6", "spectral.spectral_radius",
                        "certifiers.find_k_tree", "smallgraphs.connected_graphs"],
    "matching_exhaustive": ["verify.bipartite_from_bits", "graphs.min_degree",
                            "graphs.to_graph6", "spectral.spectral_radius",
                            "certifiers.perfect_matching"],
    "ktree_dense": ["graphs.from_graph6", "spectral.spectral_radius",
                    "certifiers.find_k_tree", "families.is_ktree_extremal"],
    "corpus_certify": ["graphs.from_graph6", "certifiers.find_win_violator",
                       "certifiers.find_k_tree", "smallgraphs.connected_graphs"],
}


def bench(workload: str, trace: int) -> dict:
    with subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
             "--seconds", "0", "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
            start_new_session=True) as proc:
        stdout, stderr = proc.communicate(timeout=170)
    assert proc.returncode == 0, stderr
    # every process the run started has ended: none is left in its process group
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(name, trace, section):
    result = bench(f"{name}-smoke", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if trace == 0:
        assert all(value > 0 for value in values.values())
    else:
        for fn in REACHED[name]:
            assert values[f"{fn}.calls"] > 0 and values[f"{fn}.busy_s"] > 0, fn
        assert values["verify.harness.self_s"] > 0


def reviewed(workload, reports, seed=0):
    gate = run.Gate(workload, seed, reports)
    gate.review("in-process", reports)
    return gate


def test_tampered_reports_trip_the_gate():
    workload = workloads.WORKLOADS["matching_exhaustive"]
    reports = workload.run(workload.make_inputs(0))
    gate = reviewed(workload, reports)
    assert gate.failed == 0, gate.problems

    label = "delta1_a0"
    tampered = reports[label].replace('"confirmed": 99', '"confirmed": 98')
    assert tampered != reports[label]
    gate.review("cli", {**reports, label: tampered})
    assert gate.failed == 1
    assert "differs from the in-process report" in gate.problems[-1]

    # the first report is checked against the pins and invariants
    gate = reviewed(workload, {**reports, label: reports[label].replace(
        '"violated": 0', '"violated": 1')})
    assert gate.failed == 1
    assert any("violated" in p for p in gate.problems)
    assert any("pinned" in p for p in gate.problems)

    gate = reviewed(workload, {**reports, label: reports[label].replace(
        '"tol": 1e-10', '"tol": 1e-09')})
    assert gate.failed == 1
    assert gate.problems == [f"matching_exhaustive/{label}: report digest differs from the pin"]

    gate = reviewed(workload, {**reports, label: "{}"})
    assert gate.failed == 1
    assert "unreadable report" in gate.problems[0]


def test_tampered_certificate_trips_the_gate():
    workload = workloads.WORKLOADS["corpus_certify-smoke"]
    reports = workload.run(workload.make_inputs(3))
    assert reviewed(workload, reports, seed=3).failed == 0

    (label, text), = reports.items()
    doc = json.loads(text)
    row = next(r for r in doc["certificates"]
               if r[2] not in (None, "null") and len(json.loads(r[2])["data"]) > 1)
    edges = json.loads(row[2])["data"]
    row[2] = json.dumps({"type": "ktree", "data": [edges[0]] * len(edges)})
    gate = reviewed(workload, {label: json.dumps(doc)}, seed=3)
    assert gate.failed == 1
    assert "invalid 3-tree" in gate.problems[0]


def test_missing_package_exits_nonzero():
    """Without the package's sources the run fails and prints no result."""
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "corpus_hamilton", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
