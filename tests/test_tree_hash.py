"""`tools/interleave_ab.py`'s `tree_hash`: the content stamp of an A/B's trees."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    path = ROOT / "tools" / "interleave_ab.py"
    spec = importlib.util.spec_from_file_location("interleave_ab", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def copy_tree(dest: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src" / "owcsim", dest / "owcsim", ignore=ignore)
    return dest


def test_copies_hash_equal_and_a_one_byte_edit_does_not(tmp_path):
    tree_hash = load_tool().tree_hash
    a, b = copy_tree(tmp_path / "a"), copy_tree(tmp_path / "b")
    (b / "owcsim" / "notes.txt").write_text("not python")  # only *.py is hashed
    assert tree_hash(a) == tree_hash(b) == tree_hash(ROOT / "src")
    assert len(tree_hash(a)) == 64
    link = b / "owcsim" / "link.py"
    data = link.read_bytes()
    link.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
    assert tree_hash(b) != tree_hash(a)
    link.write_bytes(data)
    assert tree_hash(b) == tree_hash(a)
    # A renamed file changes the hash, though no byte does.
    link.rename(b / "owcsim" / "link2.py")
    assert tree_hash(b) != tree_hash(a)
