"""A Scenario's users: `positions`, `blocked` and one `receiver`.

The users are held as three hashable fields and one read-only (users, 3)
array that validation builds; the `UserSpec` tuple is a view built only when
something reads `Scenario.users`, which no run path does.
"""

import json
import random
from dataclasses import replace

import numpy as np
import pytest

import owcsim.network
from owcsim.cli import run_command
from owcsim.config import effective_config, parse_config
from owcsim.geometry import Vec3
from owcsim.network import (
    UserSpec,
    default_adr_branches,
    evaluate_scenario,
    place_users_uniform,
    simulate_scenario,
    sweep_snr,
    sweep_users,
)
from owcsim.schema import CHECKED_DEFAULTS


def wall_scale_document(seed, grid_m=30, users=16):
    rng = random.Random(seed)
    positions = [[rng.uniform(0.05, 4.95), rng.uniform(0.05, 4.95), 0.0] for _ in range(users)]
    return {"irs": {"grid_m": grid_m}, "users": {"k": users, "positions": positions}}


DOCUMENTS = [
    {},
    {"users": {"k": 6, "blocked": [1, 4]}, "seed": 9},
    {"irs": {"enabled": False}, "users": {"fov_deg": 40.0, "branch_elevation_deg": 45.0}},
    *(wall_scale_document(seed) for seed in (1, 2, 3)),
]
IDS = ["default", "blocked", "no-wall", "wall-scale-1", "wall-scale-2", "wall-scale-3"]


def user_specs(document):
    """The users as a `UserSpec` each, built from the document the way
    `config` built them before a Scenario held them as fields."""
    users = document.get("users", {})

    def value(key):
        return users.get(key, CHECKED_DEFAULTS[f"users.{key}"])

    if "positions" in users:
        points = [Vec3(*map(float, p)) for p in users["positions"]]
    else:
        seed = document.get("seed", CHECKED_DEFAULTS["seed"])
        points = place_users_uniform(
            value("k"), CHECKED_DEFAULTS["room.dims"], seed, CHECKED_DEFAULTS["room.receiver_z"]
        )
    receiver = default_adr_branches(
        value("branch_azimuths_deg"), value("branch_elevation_deg"), value("fov_deg"),
        value("pd_area_m2"),
    )
    blocked = set(value("blocked"))
    return tuple(UserSpec(p, i in blocked, receiver) for i, p in enumerate(points))


@pytest.mark.parametrize("document", DOCUMENTS, ids=IDS)
def test_users_view_equals_the_user_specs_of_the_document(document):
    scenario = parse_config(document)[0]
    assert "users" not in vars(scenario)
    assert scenario.users == user_specs(document)
    assert scenario.users is scenario.users  # built once, on first read
    assert scenario.positions == tuple(u.position.as_tuple() for u in scenario.users)
    assert scenario.blocked == tuple(u.blocked for u in scenario.users)
    assert all(u.branches is scenario.receiver for u in scenario.users)


@pytest.mark.parametrize("document", DOCUMENTS[:3], ids=IDS[:3])
def test_fields_are_tuples_of_floats_and_bools(document):
    scenario = parse_config(document)[0]
    assert all(len(p) == 3 and all(type(c) is float for c in p) for p in scenario.positions)
    assert all(type(b) is bool for b in scenario.blocked)
    assert hash(scenario) == hash(replace(scenario)) and scenario == replace(scenario)


def test_positions_are_held_once_as_a_read_only_array():
    s = parse_config({"users": {"k": 6}})[0]
    assert s._xyz.shape == (6, 3) and s._xyz.dtype == np.float64
    assert s._xyz.tolist() == [list(p) for p in s.positions]
    with pytest.raises(ValueError):
        s._xyz[0, 0] = 1.0
    assert "_xyz" not in repr(s)


@pytest.mark.parametrize("blocked", [(), (False,) * 3, (False,) * 5])
def test_blocked_flags_must_match_the_positions(blocked):
    s = parse_config({})[0]
    message = r"^users\.blocked must hold one flag per entry of users\.positions$"
    with pytest.raises(ValueError, match=message):
        replace(s, blocked=blocked)


def test_no_run_path_builds_a_user_spec(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("a run built a UserSpec")

    monkeypatch.setattr(owcsim.network, "UserSpec", refuse)
    documents = [{}, {"irs": {"enabled": False}}, {"users": {"blocked": [0, 1, 2, 3]}},
                 {"power": {"max_mirrors_per_user": 2}, "irs": {"grid_m": 6}}]
    for document in documents:
        runs = [
            lambda s: sweep_snr(s, [60.0, 90.0]), evaluate_scenario, simulate_scenario,
            lambda s: sweep_users(s, [1, 3]) if s.irs is not None else None,
        ]
        for run in runs:
            scenario = parse_config(document)[0]
            run(scenario)
            assert "users" not in vars(scenario)
    for command in ("simulate", "sweep-snr", "sweep-users"):
        assert run_command(command, out_dir=str(tmp_path)) == 0
    capsys.readouterr()


def test_first_users_slice_all_three_fields():
    s = parse_config({"users": {"k": 6, "blocked": [1, 4]}})[0]
    assert len(s.users) == 6  # cached on s, and not carried into a prefix
    prefix = s._first_users(3)
    assert prefix.positions == s.positions[:3]
    assert prefix.blocked == (False, True, False)
    assert prefix.receiver is s.receiver
    assert prefix._xyz.tolist() == s._xyz[:3].tolist() and not prefix._xyz.flags.writeable
    assert "users" not in vars(prefix)
    assert prefix.users == s.users[:3]


def test_replaced_positions_rebuild_every_table():
    s = parse_config(wall_scale_document(4, grid_m=8, users=5))[0]
    cached = ("users", "direct_table", "serving_branches", "mirror_table")
    for name in cached:
        getattr(s, name)
    moved = tuple(reversed(s.positions))
    other = replace(s, positions=moved)
    assert not set(cached) & set(vars(other))
    assert other._xyz.tolist() == [list(p) for p in moved]
    # Each user's rows depend on that user and the wall alone, so reversing
    # the users reverses every table.
    for got, want in zip((*other.direct_table, *other.mirror_table),
                         (*s.direct_table, *s.mirror_table), strict=True):
        assert got.tobytes() == want[::-1].tobytes()
    assert other.serving_branches == s.serving_branches[::-1]
    assert other.users == s.users[::-1]


def test_blocked_users_survive_the_effective_config_round_trip():
    scenario, sweep, output = parse_config({"users": {"k": 5, "blocked": [4, 0, 2]}})
    assert scenario.blocked == (True, False, True, False, True)
    document = json.loads(json.dumps(effective_config(scenario, sweep, output)))
    assert document["users"]["blocked"] == [0, 2, 4]
    reloaded = parse_config(document)[0]
    assert reloaded == scenario and reloaded.blocked == scenario.blocked
    assert reloaded.direct_table[0].tobytes() == scenario.direct_table[0].tobytes()
    assert not reloaded.direct_table[0][[0, 2, 4]].any()  # no branch sees a blocked user
