"""Smoke test of `tools/interleave_ab.py --workload paper`: each side's CLI
children run on that side's tree, in a work directory of its own."""

import importlib.util
import shutil
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


def run_paper(tool, srcs, work_root, inputs):
    packages = (tool.load_tree(srcs[0], "owcsim_a"), tool.load_tree(srcs[1], "owcsim_b"))
    workloads = tool.import_workloads(packages[0])
    sides = tool.paper_sides(workloads, 1, srcs, work_root)
    return sides, tool.interleave(workloads, sides[0], packages, inputs, runners=sides)


def test_one_tree_on_both_sides_agrees(tool, tmp_path):
    sides, result = run_paper(tool, (ROOT / "src", ROOT / "src"), tmp_path, inputs=2)
    assert result["workload"] == "paper" and result["inputs"] == 2
    assert result["digests_equal"]
    assert result["a_op_s_p50"] > 0.0 and result["b_op_s_p50"] > 0.0
    assert sides[0].work_dir != sides[1].work_dir
    for side in sides:
        assert side.peak_rss_mb > 0.0
        assert {"fig2.svg", "fig3.svg"} <= {path.name for path in side.work_dir.iterdir()}


def test_digest_covers_the_svg_bytes(tool, tmp_path):
    # B's figures draw the first curve in another colour; its CSVs are the same.
    shutil.copytree(ROOT / "src" / "owcsim", tmp_path / "b" / "owcsim")
    output = tmp_path / "b" / "owcsim" / "output.py"
    output.write_text(output.read_text().replace('"#0072b2"', '"#0072b3"'))
    _, result = run_paper(tool, (ROOT / "src", tmp_path / "b"), tmp_path / "work", inputs=1)
    assert not result["digests_equal"]
