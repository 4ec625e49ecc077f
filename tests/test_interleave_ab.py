"""Smoke test of `tools/interleave_ab.py` on tiny workloads: one source tree
loaded as both packages, perfbench's checks between ops, equal digests."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

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
        assert result["ratio_q1"] <= result["ratio_p50"] <= result["ratio_q3"]
        assert result["b_faster_frac"] * 3 in (0, 1, 2, 3)


def test_ratio_quartiles_and_faster_share(tool, monkeypatch):
    # Op times from a fake clock, after two warm-up ops: A takes 2 units and
    # B 1, 3, 2 and 4, with B first on the second and fourth inputs. B is
    # faster on one input of four, and the ratios are 0.5, 1.5, 1 and 2.
    package = tool.load_tree(ROOT / "src", "owcsim_a")
    workloads = tool.import_workloads(package)
    workload = workloads.SnrDense(1, users=2, points_db=(60.0, 75.0))
    ends = iter([2, 2, 2, 1, 3, 2, 2, 2, 4, 2, 2, 2, 2, 2])
    clock = iter(tick for end in ends for tick in (0, end))
    monkeypatch.setattr(tool, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    result = tool.interleave(workloads, workload, (package, package), inputs=4)
    assert (result["a_op_s_p50"], result["b_op_s_p50"]) == (2, 2.5)
    assert (result["ratio_q1"], result["ratio_p50"], result["ratio_q3"]) == (0.875, 1.25, 1.625)
    assert result["b_faster_frac"] == 0.25
    one = tool.interleave(workloads, workload, (package, package), inputs=1)
    assert one["ratio_q1"] == one["ratio_p50"] == one["ratio_q3"] == 1.0
    assert one["b_faster_frac"] == 0.0


def test_a_second_load_under_one_name_binds_the_new_tree(tool, tmp_path):
    # Two tiny trees whose modules each name their tree.
    for side in ("first", "second"):
        package = tmp_path / side / "owcsim"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(f"TREE = {side!r}\n")
        for sub in tool.SUBMODULES:
            (package / f"{sub}.py").write_text(f"TREE = {side!r}\n")
    first = tool.load_tree(tmp_path / "first", "owcsim_a")
    second = tool.load_tree(tmp_path / "second", "owcsim_a")
    assert first.TREE == "first" and second.TREE == "second"
    for sub in tool.SUBMODULES:
        assert getattr(second, sub).TREE == "second"
        assert sys.modules[f"owcsim_a.{sub}"] is getattr(second, sub)
