"""Config boundary: every key set to hostile values either runs cleanly or
fails with exit 1 and a message naming the key.

Scenario keys go through `simulate`; `sweep.*` keys go through both sweeps
on a two-point grid. No input may raise out of `run_command`. Keys removed
from the schema are unknown keys, so a document that sets one fails naming it.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owcsim.cli import EXIT_OK, EXIT_VALIDATION, run_command
from owcsim.config import SCHEMA
from owcsim.output import read_result_csv

POOL = [None, True, "x", [], [None], {}, -1, 0, 0.5, 1e308, -1e308, 1e-308]
SMALL_SWEEP = {
    "sweep": {"snr_points_db": [70.0, 80.0], "k_values": [1, 2, 3]},
    "output": {"svg": False},
}
CSV = {"simulate": "simulate.csv", "sweep-snr": "fig2.csv", "sweep-users": "fig3.csv"}
REMOVED_KEYS = ["adt.vcsels_per_branch", "power.split"]


def check_mutation(mutations: dict, commands: tuple[str, ...] | None = None) -> None:
    """Run the commands the mutated keys feed, or the given ones, and check
    each outcome."""
    sweeps = any(path.startswith("sweep.") for path in mutations)
    document = json.loads(json.dumps(SMALL_SWEEP if sweeps or commands else {}))
    for path, value in mutations.items():
        *sections, key = path.split(".")
        node = document
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(document), encoding="utf-8")
        if commands is None:
            commands = ("sweep-snr", "sweep-users") if sweeps else ("simulate",)
        for command in commands:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run_command(command, config_path=str(config), out_dir=tmp)
            if code == EXIT_OK:
                table = read_result_csv(Path(tmp) / CSV[command])
                rates = [r for row in table.rows for r in (row.sum_rate_bps, *row.user_rates_bps)]
                assert rates and all(math.isfinite(r) for r in rates), (command, document)
            else:
                assert code == EXIT_VALIDATION, (command, document, err.getvalue())
                assert any(path in err.getvalue() for path in mutations), (
                    command,
                    document,
                    err.getvalue(),
                )


@pytest.mark.parametrize("value", POOL, ids=json.dumps)
@pytest.mark.parametrize("path", list(SCHEMA) + REMOVED_KEYS)
def test_every_key_against_the_pool(path, value):
    check_mutation({path: value})


def test_least_divergent_beam_runs_with_mirror_gain_over_one():
    # The widest waist at the shortest wavelength spreads least: on the
    # 10x10 wall of `sweep-snr`, user 0's 72 mirrors sum to h_nlos 1.46,
    # one fraction of its own beam each.
    mutations = {"adt.beam_waist_m": 2e-5, "adt.wavelength_m": 3.5e-7}
    check_mutation(mutations, ("simulate", "sweep-snr"))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.dictionaries(
        st.sampled_from(list(SCHEMA)), st.sampled_from(POOL), min_size=1, max_size=3
    )
)
def test_mutated_default_documents(mutations):
    check_mutation(mutations)
