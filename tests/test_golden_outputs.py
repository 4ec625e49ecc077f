"""The six default CLI outputs at --seed 1, pinned by sha256.

A change that moves any of these bytes must update the constant here and say
in CHANGES.md what physical or formatting reason moved it. A refactor or a
speed change must leave all six untouched.

The `none` rows of fig2.csv and fig3.csv are pinned apart: without a mirror
wall every user holds one beam at most, so a change to how mirror-served
links are powered must leave them as they were.
"""

import hashlib

import pytest

from owcsim.cli import EXIT_OK, run_command

GOLDEN_SHA256 = {
    "simulate.csv": "28c9efd968d0df54835dc85903087badbea1ed23890f628158b0d1706e2f69a2",
    "fig2.csv": "849c4e3eaddc9d19ef7934d5f1ab0880b9d46bb094e6f7af328d5a41ed4180bc",
    "fig2.svg": "56ebd7462bdecb22b920a395d456e6a41f324dea88dd82cfe775cc158fb5f3e4",
    "fig2_report.json": "b88d8599014de02d8e5a33884cb8a46756cf79ce277186dad612b25571dd6da5",
    "fig3.csv": "85fa07353e7733141d5d8375802ad3ec9276bae8c8bfbbd01e9700ebde12882a",
    "fig3.svg": "0804b4973acc4b57470548fb802b13f9b57abba2df52df4e054f6a3bcb414f9d",
}
NONE_ROWS_SHA256 = "60f97c3c03e0d63287bc632de45dfcf040559021cc80429312e62bf4c529c942"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    for command in ("simulate", "sweep-snr", "sweep-users"):
        assert run_command(command, out_dir=str(out), seed=1) == EXIT_OK
    return out


def test_writes_exactly_the_six_outputs(outputs):
    assert sorted(path.name for path in outputs.iterdir()) == sorted(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_output_bytes_match_golden_digest(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]


def test_rows_without_mirror_wall_match_golden_digest(outputs):
    rows = [
        line
        for name in ("fig2.csv", "fig3.csv")
        for line in (outputs / name).read_bytes().splitlines(keepends=True)
        if line.split(b",")[1:2] == [b"none"]
    ]
    assert len(rows) == 13 + 8
    assert hashlib.sha256(b"".join(rows)).hexdigest() == NONE_ROWS_SHA256
