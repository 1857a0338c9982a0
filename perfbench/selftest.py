"""Checks on the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest perfbench/selftest.py``.
The file name keeps it out of the repository's own test run: the counter
test runs every workload's pass and replays twice, a few minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_gives_identical_bytes():
    assert workloads.graph_files(7) == workloads.graph_files(7)
    assert workloads.graph_files(7) != workloads.graph_files(8)


@pytest.mark.parametrize("seed", range(20))
def test_every_seed_gives_the_same_slot_shapes(seed):
    files = workloads.graph_files(seed)
    assert len(files) == workloads.GRAPH_SLOTS
    for data in files:
        obj = json.loads(data)
        edges = [tuple(e) for e in obj["edges"]]
        assert obj["n"] == 8 and obj["terminals"] == [0, 1]
        assert len(set(edges)) == len(edges) == 17
        assert (0, 1) not in edges
        assert all(0 <= u < v < 8 for u, v in edges)


def _counts(metrics: dict) -> dict:
    """The metrics that are counts of work, not times."""
    return {k: v for k, v in metrics.items() if not k.endswith((".s", "_s")) and k != "trace_overhead_ratio"}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counters_repeat_across_passes_and_seeds(name):
    run.use_checkout()
    first, _, _, failed_first, _ = run.measure_layers(run.Workload(name, seed=3))
    second, _, _, failed_second, _ = run.measure_layers(run.Workload(name, seed=4))
    assert failed_first == failed_second == 0
    assert _counts(first) == _counts(second)
    named = {"reliability.candidates", "reliability.survivors", "reliability.keep_ratio", "reliability.useful_ratio"}
    assert named | {"scans.pairs_scanned", "reliability.n_vector.calls"} <= set(_counts(first))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [sys.executable, f"{BENCH.name}/run.py", "--workload", "uniq-dense", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
