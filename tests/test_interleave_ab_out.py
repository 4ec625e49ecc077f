"""`tools/interleave_ab.py --out`: each result line joins a BENCH file's
`interleave_ab.runs`, stamped with the file's trees, and a file of other
trees is refused before any op runs."""

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
    unload(before)


def unload(before):
    """Drop the packages and workloads module a run loaded since `before`."""
    for name in set(sys.modules) - before:
        if name.split(".")[0] in ("owcsim_a", "owcsim_b", "workloads"):
            del sys.modules[name]


@pytest.fixture
def trees(tmp_path):
    """Two copies of the package, the second with one comment added."""
    ignore = shutil.ignore_patterns("__pycache__")
    for side in ("a", "b"):
        shutil.copytree(ROOT / "src" / "owcsim", tmp_path / side / "owcsim", ignore=ignore)
    with (tmp_path / "b" / "owcsim" / "link.py").open("a") as handle:
        handle.write("# one more line\n")
    return tmp_path / "a", tmp_path / "b"


def test_lines_append_to_the_file_beside_its_sets(tool, trees, tmp_path, capsys):
    a, b = trees
    hashes = {"parent": tool.tree_hash(a), "change": tool.tree_hash(b)}
    assert hashes["parent"] != hashes["change"]
    out = tmp_path / "BENCH.json"
    # A file that already holds a pair runner's set, of these trees.
    earlier = {"trees": {side: {"tree_hash": h} for side, h in hashes.items()},
               "runs": {"paper seed 1": []}, "summary": {"paper seed 1": {"pairs": 0}}}
    out.write_text(json.dumps(earlier))
    for seed in (1, 7):
        argv = [str(a), str(b), "--workload", "wall-scale", "--inputs", "1", "--seed", str(seed),
                "--out", str(out)]
        before = set(sys.modules)
        assert tool.main(argv) == 0
        unload(before)  # each run loads both trees afresh
    printed = json.loads(capsys.readouterr().out.splitlines()[-1])
    data = json.loads(out.read_text())
    assert {key: data[key] for key in earlier} == earlier
    lines = data["interleave_ab"]["runs"]
    assert [line["seed"] for line in lines] == [1, 7]
    assert lines[-1] == {**printed, "command": lines[-1]["command"]}
    for line in lines:
        assert (line["a_tree"], line["b_tree"]) == (hashes["parent"], hashes["change"])
        assert line["workload"] == "wall-scale" and line["digests_equal"]
        assert line["command"].startswith("python3 tools/interleave_ab.py PARENT/src CHANGE/src ")
        assert str(tmp_path) not in line["command"]


def test_a_new_file_is_stamped_with_both_trees(tool, trees, tmp_path):
    a, b = trees
    out = tmp_path / "BENCH.json"
    argv = [str(a), str(b), "--workload", "snr-dense", "--inputs", "1", "--out", str(out)]
    assert tool.main(argv) == 0
    data = json.loads(out.read_text())
    assert data["trees"] == {"parent": {"tree_hash": tool.tree_hash(a)},
                             "change": {"tree_hash": tool.tree_hash(b)}}
    assert len(data["interleave_ab"]["runs"]) == 1


@pytest.mark.parametrize("swapped", [False, True], ids=["other-trees", "sides-swapped"])
def test_a_file_of_other_trees_is_refused_before_any_op(tool, trees, tmp_path, monkeypatch,
                                                        swapped):
    a, b = trees
    out = tmp_path / "BENCH.json"
    held = {"parent": tool.tree_hash(b), "change": tool.tree_hash(a)} if swapped else {
        "parent": "0" * 64}
    text = json.dumps({"trees": {side: {"tree_hash": h} for side, h in held.items()}})
    out.write_text(text)

    def no_load(*args):
        raise AssertionError("a tree was loaded")

    monkeypatch.setattr(tool, "load_tree", no_load)
    with pytest.raises(ValueError, match="holds sets of other trees"):
        tool.main([str(a), str(b), "--workload", "wall-scale", "--inputs", "1", "--out", str(out)])
    assert out.read_text() == text
