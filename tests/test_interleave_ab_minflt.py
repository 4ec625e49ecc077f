"""`tools/interleave_ab.py`'s fault columns: each side's median minor page
faults per op, read around the timed run, on one tree loaded as both
packages."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tool():
    path = ROOT / "tools" / "interleave_ab.py"
    spec = importlib.util.spec_from_file_location("interleave_ab", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    before = set(sys.modules)
    yield module
    for name in set(sys.modules) - before:
        if name.split(".")[0] in ("owcsim_a", "owcsim_b", "workloads"):
            del sys.modules[name]


def test_one_tree_on_both_sides_reports_faults(tool):
    packages = (tool.load_tree(ROOT / "src", "owcsim_a"), tool.load_tree(ROOT / "src", "owcsim_b"))
    workloads = tool.import_workloads(packages[0])
    workload = workloads.SnrDense(1, users=8, points_db=(60.0, 75.0, 90.0, 105.0))
    result = tool.interleave(workloads, workload, packages, inputs=4)
    assert result["digests_equal"] and result["inputs"] == 4
    for side in "ab":
        faults = result[f"{side}_minflt_per_op_p50"]
        assert faults >= 0 and faults == int(faults)


def test_median_per_side_of_the_faults_around_each_run(tool, monkeypatch):
    # Fault counts per op, in run order: the two warm-up ops, then A, B on
    # the first input, B, A on the second and A, B on the third. A faults
    # 0, 4 and 2 times, B 1, 1 and 3 times.
    deltas = [99, 99, 0, 1, 1, 4, 2, 3]
    reads = iter(value for delta in deltas for value in (0, delta))
    monkeypatch.setattr(tool, "minor_faults", lambda: next(reads))
    packages = (tool.load_tree(ROOT / "src", "owcsim_a"),) * 2
    workloads = tool.import_workloads(packages[0])
    workload = workloads.SnrDense(1, users=2, points_db=(60.0, 75.0))
    result = tool.interleave(workloads, workload, packages, inputs=3)
    assert (result["a_minflt_per_op_p50"], result["b_minflt_per_op_p50"]) == (2, 1)
    assert next(reads, None) is None


def test_command_line_prints_both_columns(tool, capsys):
    assert tool.main([str(ROOT / "src"), str(ROOT / "src"), "--inputs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["digests_equal"] and result["a_tree"] == result["b_tree"]
    assert {"a_minflt_per_op_p50", "b_minflt_per_op_p50"} <= set(result)
    assert any(line.startswith("minor page faults per op") for line in lines)
