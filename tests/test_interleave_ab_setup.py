"""`tools/interleave_ab.py --workload setup`: perfbench's setup body in a
fresh interpreter per op, each side's child importing that side's tree."""

import importlib.util
import json
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
        if name.split(".")[0] in ("owcsim_a", "owcsim_b", "workloads", "perfbench_run"):
            del sys.modules[name]


@pytest.fixture
def workloads(tool):
    return tool.import_workloads(tool.load_tree(ROOT / "src", "owcsim_a"))


@pytest.fixture
def documents(tool, workloads):
    return tool.setup_documents(workloads, 1)


def test_documents_are_perfbench_setup_documents(documents, workloads):
    assert [name for name, _ in documents] == ["paper", "wall-scale", "snr-dense"]
    assert documents[0][1] == workloads.Paper(1, Path("unused"), ROOT / "src").setup_document()
    assert documents[1][1] == workloads.WallScale(1).setup_document()
    assert documents[2][1] == workloads.SnrDense(1).setup_document()


def test_one_tree_on_both_sides(tool, documents):
    result = tool.interleave_setup((ROOT / "src", ROOT / "src"), documents, inputs=3)
    assert result["workload"] == "setup" and result["inputs"] == 3
    assert result["a_op_s_p50"] > 0.0 and result["b_op_s_p50"] > 0.0
    assert result["ratio_q1"] <= result["ratio_p50"] <= result["ratio_q3"]
    assert result["b_faster_frac"] * 3 in (0, 1, 2, 3)
    assert set(result["ratio_p50_by_document"]) == {"paper", "wall-scale", "snr-dense"}
    assert "digests_equal" not in result


def test_each_side_imports_its_own_tree(tool, documents, tmp_path):
    # B's package sleeps 0.2 s on import, inside the timed body.
    shutil.copytree(ROOT / "src" / "owcsim", tmp_path / "owcsim")
    init = tmp_path / "owcsim" / "__init__.py"
    init.write_text(init.read_text() + "\nimport time\ntime.sleep(0.2)\n")
    result = tool.interleave_setup((ROOT / "src", tmp_path), documents[:1], inputs=1)
    assert result["b_faster_frac"] == 0.0
    assert result["b_op_s_p50"] > result["a_op_s_p50"] + 0.15


def test_sides_alternate_and_ratios_per_document(tool, monkeypatch):
    # A fake child takes 1 s on A and 2 s on B for document "x", 4 s on B
    # for "y"; the warm-up children come first, A then B.
    calls = []

    def probe(code, src, document):
        calls.append((src, document["name"]))
        return 1.0 if src == "a" else {"x": 2.0, "y": 4.0}[document["name"]]

    monkeypatch.setattr(tool, "probe_setup", probe)
    documents = [("x", {"name": "x"}), ("y", {"name": "y"})]
    result = tool.interleave_setup(("a", "b"), documents, inputs=3)
    assert calls == [
        ("a", "x"), ("b", "x"),  # warm-up
        ("a", "x"), ("b", "x"), ("b", "y"), ("a", "y"), ("a", "x"), ("b", "x"),
    ]
    assert result["ratio_p50_by_document"] == {"x": 2.0, "y": 4.0}
    assert (result["a_op_s_p50"], result["b_op_s_p50"], result["ratio_p50"]) == (1.0, 2.0, 2.0)
    assert result["b_faster_frac"] == 0.0


def test_command_line(tool, capsys):
    args = [str(ROOT / "src"), str(ROOT / "src"), "--workload", "setup", "--inputs", "1"]
    assert tool.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["workload"] == "setup" and result["a_tree"] == result["b_tree"]
    assert any(line.startswith("median B/A per setup document") for line in lines)
