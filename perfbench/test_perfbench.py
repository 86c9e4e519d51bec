"""Self-checks of the benchmark: output contract, golden digests and
failure accounting, on tiny corpora."""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import harness

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
TINY = 1024


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    result, meta = harness.run(workload, 3, 0, trace, corpus_bytes=TINY, golden={})
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, meta["failures"]
    assert result["attempted"] >= 1
    want = _units(SPEC["per_layer"] if trace else SPEC["end_to_end"])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    json.dumps(result, allow_nan=False)


def test_wrong_golden_digest_counts_as_failure():
    workload = "skewed-huffman"
    golden = {workload: {"corpus_bytes": TINY, "digests": {"3": "0" * 64}}}
    result, meta = harness.run(workload, 3, 0, False, corpus_bytes=TINY, golden=golden)
    assert not result["correct"]
    assert result["failed"] > 0
    assert meta["failed_frac"] > 0


def test_traced_counts_separate_the_workloads():
    def layer(workload):
        result, _ = harness.run(workload, 3, 0, True, corpus_bytes=4096, golden={})
        return {name: m["value"] for name, m in result["metrics"].items()}

    assert layer("skewed-huffman")["codec.folds_per_byte"] == 0
    assert layer("text-static-p3-noar")["codec.valve_per_byte"] > 0
    assert layer("text-adaptive")["codec.folds_per_byte"] > 0


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_default_seed_matches_golden_digest(workload, tmp_path):
    make, flags = harness.WORKLOADS[workload]
    entry = harness.load_golden()[workload]
    assert entry["corpus_bytes"] == harness.CORPUS_BYTES
    data = make(harness.DEFAULT_SEED, harness.CORPUS_BYTES)
    expected = entry["digests"][str(harness.DEFAULT_SEED)]
    res = harness.RoundTrip(tmp_path, flags).run(data, expected)
    assert res["failure"] is None


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        harness.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "text-adaptive",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
