"""Smoke test of `tools/interleave_ab.py` on tiny workloads: one source tree
loaded as both packages, perfbench's checks between ops, equal digests."""

import importlib.util
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


def test_two_copies_of_one_tree_agree(tool):
    packages = (tool.load_tree(ROOT / "src", "owcsim_a"), tool.load_tree(ROOT / "src", "owcsim_b"))
    assert packages[0].network is not packages[1].network
    assert packages[0].network.__name__ == "owcsim_a.network"
    workloads = tool.import_workloads(packages[0])
    assert "owcsim" not in sys.modules or sys.modules["owcsim"] not in packages
    for workload in (
        workloads.SnrDense(1, users=4, points_db=(60.0, 75.0, 90.0)),
        workloads.WallScale(1, grid_m=3, users=2),
    ):
        result = tool.interleave(workloads, workload, packages, inputs=3)
        assert result["digests_equal"] and result["inputs"] == 3
        assert result["ratio_p50"] > 0.0 and result["a_op_s_p50"] > 0.0
