"""The mirror wall stored as columns, and the Scenario's mirror-path table.

`IrsPanel` keeps its mirrors once, as `MirrorColumns`; `elements` is built
from them on first use for the scalar reference. `Scenario.mirror_table`
holds the gains and receiver branches of one `irs_gain_table` call over every
user, and the evaluation reads it instead of running any scalar gain code.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import owcsim.channel
import owcsim.geometry
import owcsim.network
from owcsim.config import build_default_scenario, parse_config
from owcsim.channel import AdrBranch, MirrorColumns, coordinates, irs_gain_table
from owcsim.geometry import Orientation, Vec3
from owcsim.network import (
    Assignment,
    IrsPanel,
    assign_mirrors,
    build_irs_panel,
    evaluate_scenario,
    evaluate_user,
    irs_gain_matrix,
    scenario_assignment,
    simulate_scenario,
    sweep_snr,
    sweep_users,
)
from owcsim.reference import MirrorElement, serving_branch_index

from test_gain_kernel import scalar_path as pair_path
from test_gain_kernel import wall_scale_document

ROOM = (12.0, 9.0, 5.0)
WALLS = ("x_min", "x_max", "y_min", "y_max")
INWARD = {
    "x_min": Vec3(1.0, 0.0, 0.0),
    "x_max": Vec3(-1.0, 0.0, 0.0),
    "y_min": Vec3(0.0, 1.0, 0.0),
    "y_max": Vec3(0.0, -1.0, 0.0),
}


def loop_centers(room, wall, grid_m, width, height, center_height, center_along):
    """Mirror centres as the element-by-element tiling loop placed them."""
    plane = {"x_min": 0.0, "x_max": room[0], "y_min": 0.0, "y_max": room[1]}[wall]
    centers = []
    for row in range(grid_m):
        z = center_height + (row - (grid_m - 1) / 2.0) * height
        for col in range(grid_m):
            along = center_along + (col - (grid_m - 1) / 2.0) * width
            centers.append((along, plane, z) if wall.startswith("y") else (plane, along, z))
    return centers


def hexes(values):
    return [tuple(float(v).hex() for v in point) for point in values]


def flat(columns):
    """Each field of `columns` as one (mirrors,) array, in row-major order."""
    return [np.broadcast_to(field, columns.shape).ravel() for field in columns.fields()]


class TestColumns:
    @pytest.mark.parametrize("wall", WALLS)
    @pytest.mark.parametrize("grid_m", [1, 2, 5, 30])
    def test_centres_equal_the_tiling_loop_bitwise(self, wall, grid_m):
        args = (0.137, 0.093, 2.11, 4.3717)  # width, height, centre height, off-centre along
        panel = build_irs_panel(ROOM, wall, grid_m, args[0], args[1], 0.93, args[2], args[3])
        want = loop_centers(ROOM, wall, grid_m, *args)
        c = panel.columns
        cx, cy, cz, width, height, reflectivity = flat(c)
        assert len(c) == grid_m**2
        assert hexes(zip(cx.tolist(), cy.tolist(), cz.tolist())) == hexes(want)
        assert hexes(m.center.as_tuple() for m in panel.elements) == hexes(want)
        assert width.tolist() == [0.137] * grid_m**2
        assert height.tolist() == [0.093] * grid_m**2
        assert reflectivity.tolist() == [0.93] * grid_m**2
        assert all(m.normal == INWARD[wall] for m in panel.elements)
        assert {(m.width, m.height, m.reflectivity) for m in panel.elements} == {
            (0.137, 0.093, 0.93)
        }

    def test_columns_are_read_only(self):
        c = build_irs_panel(ROOM, grid_m=3).columns
        for array in c.fields():
            with pytest.raises(ValueError):
                array[...] = 1.0

    def test_elements_are_built_once(self):
        panel = build_irs_panel(ROOM, grid_m=4)
        assert panel.elements is panel.elements
        assert all(isinstance(m, MirrorElement) for m in panel.elements)

    def test_replace_rebuilds_the_columns(self):
        panel = build_irs_panel(ROOM, grid_m=2)
        moved = replace(panel, reflectivity=0.5, grid_m=3)
        assert len(moved.columns) == 9
        assert flat(moved.columns)[5].tolist() == [0.5] * 9
        assert len(moved.elements) == 9


# Branches at three elevations, so `_reachable` takes three edges.
MIXED = tuple(
    AdrBranch(Orientation(azimuth, elevation), 40.0, 2.0e-5)
    for azimuth, elevation in ((0.0, 60.0), (90.0, 30.0), (180.0, 60.0), (270.0, 90.0))
)


def grid_and_flat(s, receiver, call):
    """`call` of the scene's users and serving branches on its wall as the
    panel's grid columns and as `MirrorColumns.of` its elements."""
    ap = coordinates(s.adt.branch_positions())[list(s.serving_branches)]
    return [
        call(ap, columns, s._xyz, receiver)
        for columns in (s.irs.columns, MirrorColumns.of(s.irs.elements))
    ]


def table(ap, columns, users, receiver, s):
    return irs_gain_table(ap, columns, users, receiver, s.adt.beam_waist, s.adt.beam_wavelength)


def kept(ap, columns, users, receiver):
    fov = receiver[0].fov_half_angle_rad()
    return owcsim.channel._reachable(columns, users.T.copy(), receiver, fov)


GRID_SCENES = [
    *(({"irs": {"grid_m": m, "wall": w}, "users": {"k": 8, "fov_deg": 50.0}}, f"{w}-{m}")
      for w in WALLS for m in (1, 2, 5, 30)),
    *((wall_scale_document(seed), f"wall-scale-{seed}") for seed in (1, 7, 42)),
]


class TestGridForm:
    """A panel's grid columns and the same mirrors as a flat list run the
    same code, and give the same tables bitwise."""

    @pytest.mark.parametrize("doc", [d for d, _ in GRID_SCENES], ids=[i for _, i in GRID_SCENES])
    @pytest.mark.parametrize("mixed", [False, True], ids=["receiver", "mixed-elevations"])
    def test_tables_and_kept_pairs_equal_the_flat_form(self, doc, mixed):
        s = build_default_scenario(doc)
        receiver = MIXED if mixed else s.receiver
        grid, flat_form = grid_and_flat(s, receiver, lambda *a: table(*a, s))
        for got, want in zip(grid, flat_form):
            assert got.shape == want.shape == (len(s.positions), s.irs.grid_m**2)
            assert got.tobytes() == want.tobytes()
        grid_kept, flat_kept = grid_and_flat(s, receiver, kept)
        assert grid_kept.tolist() == flat_kept.tolist()
        assert np.isin(np.flatnonzero(grid[0]), grid_kept).all()
        if s.irs.grid_m >= 5:
            assert (grid[0] > 0.0).any()

    @pytest.mark.parametrize("doc", [d for d, _ in GRID_SCENES], ids=[i for _, i in GRID_SCENES])
    @pytest.mark.parametrize("receiver", [None, MIXED], ids=["receiver", "mixed-elevations"])
    def test_kept_pairs_equal_the_test_branch_by_branch(self, doc, receiver):
        # Each pair's leg compared with every branch's edge in turn, on flat
        # columns, as the stage was first written.
        s = build_default_scenario(doc)
        receiver = receiver or s.receiver
        cx, cy, cz = flat(s.irs.columns)[:3]
        (px, py, pz), fov = s._xyz.T[:, :, None], receiver[0].fov_half_angle_rad()
        lx, ly, lz = px - cx, py - cy, pz - cz
        bound = (owcsim.channel._REACH - math.cos(fov)) * np.sqrt(lx * lx + ly * ly + lz * lz)
        seen = np.zeros(lx.shape, dtype=bool)
        for bx, by, bz in (branch.normal().as_tuple() for branch in receiver):
            seen |= lx * bx + ly * by < bound - lz * bz
        grid_kept, flat_kept = grid_and_flat(s, receiver, kept)
        assert grid_kept.tolist() == flat_kept.tolist() == np.flatnonzero(seen).tolist()

    @pytest.mark.parametrize("wall", WALLS)
    def test_take_equals_the_flat_gather_and_keeps_shared_fields_0d(self, wall):
        c = build_irs_panel(ROOM, wall, 7, 0.2, 0.1, 0.9, 2.0).columns
        j = np.array([0, 6, 7, 13, 48, 48, 20, 35])
        taken = c.take(j)
        for got, field, column in zip(taken.fields(), c.fields(), flat(c)):
            assert np.broadcast_to(got, j.shape).tobytes() == column[j].tobytes()
            assert got.ndim == (0 if field.ndim == 0 else 1)
        assert [field.ndim for field in c.fields()].count(0) == 4
        assert len(taken) == len(j)

    def test_take_of_a_flat_list_gathers_every_field(self):
        s = build_default_scenario({"irs": {"grid_m": 3}})
        c = MirrorColumns.of(s.irs.elements)
        j = np.array([8, 0, 4])
        for got, column in zip(c.take(j).fields(), flat(s.irs.columns)):
            assert got.tobytes() == column[j].tobytes()

    @pytest.mark.parametrize("pairs", [1, 7, 1000])
    def test_small_stage_one_blocks_give_the_same_tables(self, monkeypatch, pairs):
        # Blocks of one user, or of several with a partial last block.
        s = build_default_scenario(wall_scale_document(3, users=11))
        whole = grid_and_flat(s, s.receiver, lambda *a: (table(*a, s), kept(*a)))
        monkeypatch.setattr(owcsim.channel, "_REACH_PAIRS", pairs)
        for got, want in zip(grid_and_flat(s, s.receiver, lambda *a: (table(*a, s), kept(*a))),
                             whole):
            assert got[1].tolist() == want[1].tolist()
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got[0], want[0]))


class TestCachesOutsideEquality:
    def test_panel(self):
        a = build_irs_panel(ROOM, grid_m=5)
        b = build_irs_panel(ROOM, grid_m=5)
        a.elements
        assert "columns" not in vars(b)  # built on first read
        assert a == b and hash(a) == hash(b)
        assert "columns=" not in repr(a) and "elements=" not in repr(a)
        assert a != build_irs_panel(ROOM, grid_m=5, reflectivity=0.9)

    def test_scenario(self):
        a = build_default_scenario({"irs": {"grid_m": 10}})
        b = build_default_scenario({"irs": {"grid_m": 10}})
        a.mirror_table, a.direct_table, a.irs.elements
        assert a == b and hash(a) == hash(b)
        assert "mirror_table=" not in repr(a) and "direct_table=" not in repr(a)


class TestPanelChecks:
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"reflectivity": 1.5}, r"irs\.reflectivity must be a number in \[0, 1\], got 1.5"),
            ({"reflectivity": -0.1}, r"irs\.reflectivity must be a number in \[0, 1\], got -0.1"),
            (
                {"element_width": 0.0},
                r"irs\.element_width_m must be a number in \[0\.001, 10\], got 0\.0",
            ),
            (
                {"element_height": -0.1},
                r"irs\.element_height_m must be a number in \[0\.001, 10\], got -0\.1",
            ),
            ({"grid_m": 0}, r"irs\.grid_m must be an integer in \[1, 100\], got 0"),
            ({"wall": "z_max"}, "irs.wall must be one of"),
        ],
    )
    def test_build_and_direct_construction_reject_alike(self, changes, message):
        kwargs = {
            "wall": "y_max",
            "grid_m": 5,
            "element_width": 0.15,
            "element_height": 0.10,
            "reflectivity": 0.95,
        }
        kwargs.update(changes)
        with pytest.raises(ValueError, match=message):
            build_irs_panel(ROOM, **kwargs)
        with pytest.raises(ValueError, match=message):
            IrsPanel(
                kwargs["wall"],
                kwargs["grid_m"],
                (kwargs["element_width"], kwargs["element_height"]),
                kwargs["reflectivity"],
                Vec3(6.0, 9.0, 1.5),
            )

    def test_reflectivity_bounds_are_accepted(self):
        for reflectivity in (0.0, 1.0):
            assert build_irs_panel(ROOM, reflectivity=reflectivity).reflectivity == reflectivity


def scalar_path(scenario, user_index, mirror_index):
    """Steer, then `irs_gain`, from the user's serving transmitter branch."""
    user = scenario.users[user_index]
    ap = scenario.adt.branch_positions()[serving_branch_index(scenario, user_index)]
    return pair_path(
        ap, scenario.irs.elements[mirror_index], user.position, user.branches,
        scenario.adt.beam_waist, scenario.adt.beam_wavelength,
    )


class TestMirrorTable:
    @pytest.mark.parametrize(
        "doc",
        [
            {"irs": {"grid_m": 10}},
            {"irs": {"grid_m": 6, "wall": "x_min"}, "users": {"k": 6, "fov_deg": 60.0}},
            {"irs": {"grid_m": 4}, "users": {"blocked": [0, 2]}},
        ],
        ids=["default-10x10", "x-wall-wide-fov", "blocked"],
    )
    def test_receivers_equal_the_scalar_path(self, doc):
        s = build_default_scenario(doc)
        gain, receiver = s.mirror_table
        assert gain.shape == receiver.shape == (len(s.users), len(s.irs.columns))
        assert (receiver >= 0).any()
        for i in range(len(s.users)):
            for j in range(len(s.irs.columns)):
                want_gain, want_receiver = scalar_path(s, i, j)
                assert (gain[i, j] > 0.0) == (want_gain > 0.0)
                assert receiver[i, j] == want_receiver, (i, j)

    def test_nlos_branch_is_the_scalar_receiver_of_the_best_mirror(self):
        s = build_default_scenario({"irs": {"grid_m": 10}})
        assignment = scenario_assignment(s)
        results = evaluate_scenario(s)
        gains = irs_gain_matrix(s)
        held = 0
        for i, mirrors in enumerate(assignment.per_user):
            want = None
            if mirrors:
                best = max(mirrors, key=lambda m: (gains[i, m], -m))
                want = scalar_path(s, i, best)[1]
                held += 1
            assert results[i].serving_branch_nlos == want
        assert held >= 2

    def test_nlos_branch_tie_goes_to_the_first_assigned_mirror(self):
        s = build_default_scenario({"irs": {"grid_m": 2}, "users": {"k": 1}})
        table = (np.array([[0.0, 0.3, 0.1, 0.3]]), np.array([[-1, 2, 0, 3]]))
        vars(s)["mirror_table"] = table
        gain = evaluate_user(s, Assignment([-1, 0, 0, 0], 1), 0)
        assert gain.serving_branch_nlos == 2
        assert gain.h_nlos == 0.3 + 0.1 + 0.3

    def test_ties_go_to_the_lowest_index_and_a_zero_column_to_nobody(self):
        # Users 0 and 2 tie on mirror 1, user 2's mirrors 3 and 5 tie, mirror
        # 0 is zero for everyone, and user 1 holds nothing.
        s = build_default_scenario({"irs": {"grid_m": 2}, "users": {"k": 3}})
        gains = np.array([[0.0, 0.4, 0.0, 0.1, 0.0, 0.0],
                          [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                          [0.0, 0.4, 0.2, 0.3, 0.1, 0.3]])
        assignment = assign_mirrors(s, gains)
        assert assignment.owner.tolist() == [-1, 0, 2, 2, 2, 2]
        # The largest gain of the wall, on the unheld mirror 0, is read by nobody.
        gains[:, 0] = 0.9
        vars(s)["mirror_table"] = (gains, np.array([[0, 1, 2, 3, 0, 1]] * 3))
        results = [evaluate_user(s, assignment, i) for i in range(3)]
        assert [r.serving_branch_nlos for r in results] == [1, None, 3]
        assert [r.h_nlos for r in results] == [0.4, 0.0, 0.2 + 0.3 + 0.1 + 0.3]

    def test_no_wall_gives_empty_read_only_tables(self):
        s = build_default_scenario({"irs": {"enabled": False}})
        gain, receiver = s.mirror_table
        assert gain.shape == receiver.shape == (4, 0)
        assert not gain.flags.writeable and not receiver.flags.writeable

    def test_gain_matrix_is_read_only(self):
        s = build_default_scenario(None)
        matrix = irs_gain_matrix(s)
        assert matrix is s.mirror_table[0]
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0
        with pytest.raises(ValueError):
            s.mirror_table[1][0, 0] = 0

    def test_prefix_slices_equal_a_fresh_table(self):
        s = build_default_scenario({"irs": {"grid_m": 7}, "users": {"k": 6}})
        for k in (1, 4, 6):
            sliced = s._first_users(k).mirror_table
            fresh = replace(s, positions=s.positions[:k], blocked=s.blocked[:k]).mirror_table
            assert all(np.array_equal(a, b) for a, b in zip(sliced, fresh))


def _count_scalar_code(monkeypatch):
    """Count every scalar gain call and every `MirrorElement` built."""
    calls = dict.fromkeys(
        ("irs_gain", "los_gain", "steer_mirror", "serving_branch_index", "MirrorElement"), 0
    )
    targets = (
        (owcsim.channel, "irs_gain"),
        (owcsim.channel, "los_gain"),
        (owcsim.geometry, "steer_mirror"),
        (owcsim.network, "irs_gain"),
        (owcsim.network, "los_gain"),
        (owcsim.network, "steer_mirror"),
        (owcsim.network, "serving_branch_index"),
        (MirrorElement, "__post_init__"),
    )
    for owner, attr in targets:
        original = getattr(owner, attr)
        name = "MirrorElement" if owner is MirrorElement else attr

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    return calls


class TestNoScalarGainCode:
    def test_parse_config_builds_no_mirror_element(self, monkeypatch):
        calls = _count_scalar_code(monkeypatch)
        scenario = parse_config({"irs": {"grid_m": 30}, "users": {"k": 16}})[0]
        assert calls["MirrorElement"] == 0
        assert len(scenario.irs.elements) == 900
        assert calls["MirrorElement"] == 900

    def test_evaluation_runs_none(self, monkeypatch):
        calls = _count_scalar_code(monkeypatch)
        s = build_default_scenario({"irs": {"grid_m": 10}})
        results = evaluate_scenario(s)
        assert any(r.serving_branch_nlos is not None for r in results)
        sweep_snr(s, [60.0, 90.0, 120.0])
        sweep_users(s, [1, 3, 4])
        simulate_scenario(s)
        assert calls == dict.fromkeys(calls, 0)
