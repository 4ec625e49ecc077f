"""`tools/bench_pairs.py`: alternating perfbench pairs summarised into a BENCH set.

Each tree here is a stand-in checkout whose `perfbench/run.py` prints a
result line and writes a results file in perfbench's layout, with metric
values fixed by its tree and by how many runs came before it, so the
alternation, the fresh copies and the summary arithmetic are checked
without running perfbench itself.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FAKE_RUN = '''
import json, os, sys
from pathlib import Path

root = Path(__file__).resolve().parents[1]
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
out = root / "perfbench" / "out"
if out.exists() or (root / "src" / "owcsim" / "__pycache__" / "stale.txt").exists():
    sys.exit("not a fresh copy")
config = json.loads((root / "perfbench" / "fake.json").read_text())
if config.get("fail"):
    sys.exit("this run fails")
log = Path(os.environ["BENCH_PAIRS_LOG"])
before = len(log.read_text().splitlines()) if log.exists() else 0
with log.open("a") as handle:
    handle.write(f"{config['name']} {args['--seed']} {root.name}\\n")
value = config["op_s"] + 0.001 * before
out.mkdir()
environment = {
    "compiled": (root / "src" / "owcsim" / "__pycache__").is_dir(),
    "dont_write_bytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
}
ops = [{"digest": digest} for digest in config["digests"]]
results = {"environment": environment, "ops": ops}
(out / f"{args['--workload']}-seed{args['--seed']}-trace0.json").write_text(json.dumps(results))
print("a line for people")
metrics = {
    "op_s_p50": {"value": value, "unit": "s"},
    "setup_s": {"value": 0.25, "unit": "s"},
    "peak_rss_mb": {"value": 40.0 + value, "unit": "MB"},
}
print(json.dumps({"correct": True, "attempted": len(ops), "failed": config["failed"],
                  "metrics": metrics}))
'''


@pytest.fixture
def tool():
    path = ROOT / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_tree(path: Path, name: str, op_s: float, digests: list, failed: int = 0,
              fail: bool = False) -> Path:
    package = path / "src" / "owcsim"
    (package / "__pycache__").mkdir(parents=True)
    (package / "__pycache__" / "stale.txt").write_text("left by an earlier run")
    (package / "__init__.py").write_text(f"TREE = {name!r}\n")
    bench = path / "perfbench"
    (bench / "out").mkdir(parents=True)
    (bench / "run.py").write_text(FAKE_RUN)
    config = {"name": name, "op_s": op_s, "digests": digests, "failed": failed, "fail": fail}
    (bench / "fake.json").write_text(json.dumps(config))
    return path


@pytest.fixture
def trees(tmp_path, monkeypatch):
    monkeypatch.setenv("BENCH_PAIRS_LOG", str(tmp_path / "log.txt"))
    parent = make_tree(tmp_path / "parent-checkout", "parent", 1.0, ["a", "b", "c"])
    change = make_tree(tmp_path / "change", "change", 0.9, ["a", "b", "c", "d"], failed=1)
    return parent, change


def test_pairs_alternate_in_fresh_copies_and_summarise(tool, trees, tmp_path, capsys):
    parent, change = trees
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--workload", "snr-dense", "--seeds", "1", "7",
            "--pairs", "3", "--seconds", "0.5", "--out", str(out)]
    assert tool.main(argv) == 0
    log = [line.split() for line in (tmp_path / "log.txt").read_text().splitlines()]
    # Even-numbered pairs of each seed run the parent first; each run has a
    # copy of its own, whose path is as long as the other tree's.
    order = ["parent", "change", "change", "parent", "parent", "change"]
    assert [(name, int(seed)) for name, seed, _ in log] == [(n, 1) for n in order] + [
        (n, 7) for n in order
    ]
    assert len({copy for *_, copy in log}) == 12
    assert len({len(copy) for *_, copy in log}) == 1

    data = json.loads(out.read_text())
    for side in ("parent", "change"):
        assert data["trees"][side]["tree_hash"] == tool.tree_hash(trees[side == "change"] / "src")
    pairs = data["runs"]["snr-dense seed 1 7"]
    assert [p["first"] for p in pairs] == ["parent", "change", "parent"] * 2
    assert [p["seed"] for p in pairs] == [1, 1, 1, 7, 7, 7]
    assert pairs[0]["parent"] == {
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {"op_s_p50": {"value": 1.0, "unit": "s"},
                    "setup_s": {"value": 0.25, "unit": "s"},
                    "peak_rss_mb": {"value": 41.0, "unit": "MB"}},
    }
    environment = pairs[0]["change_environment"]
    assert environment == {"compiled": False, "dont_write_bytecode": "1"}
    assert all(p["per_op_digests_equal_over_common_ops"] for p in pairs)

    summary = data["summary"]["snr-dense seed 1 7"]
    # Run n reads its tree's value plus 0.001 n: the parent ran 0, 3, 4, 6, 9
    # and 10th, the change 1, 2, 5, 7, 8 and 11th.
    parent_op = sorted(1.0 + 0.001 * n for n in (0, 3, 4, 6, 9, 10))
    change_op = sorted(0.9 + 0.001 * n for n in (1, 2, 5, 7, 8, 11))
    op = summary["op_s_p50"]
    assert op["parent_median"] == pytest.approx((parent_op[2] + parent_op[3]) / 2)
    assert op["change_median"] == pytest.approx((change_op[2] + change_op[3]) / 2)
    # Inclusive quartiles of six values sit at positions 1.25 and 3.75.
    assert op["parent_q1"] == pytest.approx(parent_op[1] + 0.25 * (parent_op[2] - parent_op[1]))
    assert op["change_q3"] == pytest.approx(change_op[3] + 0.75 * (change_op[4] - change_op[3]))
    assert op["rel_change"] == pytest.approx(op["change_median"] / op["parent_median"] - 1.0)
    assert op["pairs_change_lower"] == 6
    assert summary["setup_s"]["pairs_change_lower"] == 0  # equal is not lower
    assert summary["setup_s"]["rel_change"] == 0.0
    assert summary["pairs"] == 6 and summary["per_op_digests_equal"]
    assert (summary["failed_ops"], summary["parent_failed_ops"]) == (6, 0)
    assert summary["mode"] == "source" and summary["seeds"] == [1, 7]
    assert summary["command"].startswith("python3 tools/bench_pairs.py PARENT CHANGE ")
    assert str(tmp_path) not in summary["command"]
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["name"] == "snr-dense seed 1 7"


def test_bytecode_runs_load_a_compiled_copy_and_sets_accumulate(tool, trees, tmp_path):
    parent, change = trees
    out = tmp_path / "BENCH.json"
    base = [str(parent), str(change), "--workload", "paper", "--pairs", "1", "--out", str(out)]
    assert tool.main(base) == 0
    assert tool.main([*base, "--bytecode"]) == 0
    data = json.loads(out.read_text())
    assert list(data["runs"]) == ["paper seed 1", "paper seed 1, bytecode compiled"]
    (pair,) = data["runs"]["paper seed 1, bytecode compiled"]
    assert pair["parent_environment"] == {"compiled": True, "dont_write_bytecode": None}
    assert data["summary"]["paper seed 1, bytecode compiled"]["mode"] == "bytecode"


def test_a_file_of_other_trees_is_refused(tool, trees, tmp_path):
    parent, change = trees
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"trees": {"parent": {"tree_hash": "0" * 64}}}))
    with pytest.raises(ValueError, match="holds sets of other trees"):
        tool.main([str(parent), str(change), "--workload", "paper", "--pairs", "1",
                   "--out", str(out)])
    assert json.loads(out.read_text()) == {"trees": {"parent": {"tree_hash": "0" * 64}}}
    assert not (tmp_path / "log.txt").exists()  # no perfbench run was started


def test_a_failing_run_stops_the_set(tool, tmp_path, monkeypatch):
    monkeypatch.setenv("BENCH_PAIRS_LOG", str(tmp_path / "log.txt"))
    parent = make_tree(tmp_path / "parent", "parent", 1.0, ["a"])
    change = make_tree(tmp_path / "change", "change", 1.0, ["a"], fail=True)
    with pytest.raises(RuntimeError, match="this run fails"):
        tool.main([str(parent), str(change), "--workload", "paper", "--pairs", "1",
                   "--out", str(tmp_path / "BENCH.json")])
    assert not (tmp_path / "BENCH.json").exists()


@pytest.mark.parametrize(
    "a, b, agree",
    [
        (["x", "y"], ["x", "y", "z"], True),  # ops past the shorter run are skipped
        (["x", None, "z"], ["x", "q", "z"], True),  # a failed op is skipped
        (["x", "y"], ["x", "q"], False),
        ([], ["x"], True),
    ],
)
def test_digests_agree_over_the_ops_both_runs_completed(tool, a, b, agree):
    assert tool.digests_agree(a, b) is agree


def test_one_pair_is_its_own_quartiles(tool):
    assert tool.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert tool.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
