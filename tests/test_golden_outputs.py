"""The six default CLI outputs at --seed 1, pinned by sha256.

A change that moves any of these bytes must update the constant here and say
in CHANGES.md what physical or formatting reason moved it. A refactor or a
speed change must leave all six untouched.
"""

import hashlib

import pytest

from owcsim.cli import EXIT_OK, run_command

GOLDEN_SHA256 = {
    "simulate.csv": "5f9a134f50f082bf2fc92fecdb66e4a4254bcaef268452f22cbe9fa89018dfde",
    "fig2.csv": "b9dd518fd0d90b904a5dc4a9c4048787bb42c062f17744ef057aba38531fe178",
    "fig2.svg": "7129685a9623fb5f3579c12f6efabc74c3f665430b9846d825bf3a52bf77954f",
    "fig2_report.json": "2f3aec72ec87db8239833ce1a4f92163938a362f2ae0690d7262182b0d901d4a",
    "fig3.csv": "5ef6277715882acb4d426e165f9f54686fb5224faf5684c063cbc8c19064f7b4",
    "fig3.svg": "aec0d6decfe03faf5cf6d9ddfb2bf4dd3fcb8348e96befa02e7aa560292aecfa",
}


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
