"""The direct-path table against the scalar reference path.

`los_gain_table` must give, for every (user, transmitter branch) pair,
bitwise what `los_gain` gives with the aimed beam `serving_branch_index`
builds: the same float (compared with `==`, not a tolerance), the same
receiver branch (-1 for None) and the same error. `Scenario.serving_branches`
must equal `serving_branch_index` for every user.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from owcsim.beam import GaussianBeam
from owcsim.channel import AdrBranch, los_gain, los_gain_table
from owcsim.config import build_default_scenario
from owcsim.geometry import GeometryError, Orientation, Vec3, incidence_angle
from owcsim.network import UserSpec, default_adr_branches, serving_branch_index

WAIST = 5e-6
WAVELENGTH = 1.55e-6
ROOM = (5.0, 5.0, 3.0)


def scalar_table(aps, positions, branch_sets, blocked, waist, wavelength, room=None):
    """`los_gain` per pair, looping users then branches as the scenario does."""
    gains, receivers = [], []
    for pos, branches, is_blocked in zip(positions, branch_sets, blocked):
        row_gain, row_receiver = [], []
        for ap in aps:
            beam = GaussianBeam(waist, wavelength, 1.0, ap, (pos - ap).normalized())
            gain, index = los_gain(ap, pos, branches, beam, is_blocked, room_dims=room)
            row_gain.append(gain)
            row_receiver.append(-1 if index is None else index)
        gains.append(row_gain)
        receivers.append(row_receiver)
    return gains, receivers


def assert_kernel_matches(aps, positions, branch_sets, blocked, waist=WAIST,
                          wavelength=WAVELENGTH, room=None):
    gain, receiver = los_gain_table(aps, positions, branch_sets, blocked, waist, wavelength, room)
    want_gain, want_receiver = scalar_table(
        aps, positions, branch_sets, blocked, waist, wavelength, room
    )
    assert gain.shape == receiver.shape == (len(positions), len(aps))
    assert gain.dtype == np.float64 and receiver.dtype.kind == "i"
    assert gain.tolist() == want_gain
    assert receiver.tolist() == want_receiver
    return gain, receiver


def assert_scenario_matches(scenario):
    """The scenario's cached table and serving branches against the scalar path."""
    users = scenario.users
    gain, receiver = scenario.direct_table
    want_gain, want_receiver = scalar_table(
        scenario.adt.branch_positions(),
        [u.position for u in users],
        [u.branches for u in users],
        [u.blocked for u in users],
        scenario.adt.beam_waist,
        scenario.adt.beam_wavelength,
        scenario.room_dims,
    )
    assert gain.tolist() == want_gain
    assert receiver.tolist() == want_receiver
    assert scenario.serving_branches == tuple(
        serving_branch_index(scenario, i) for i in range(len(users))
    )
    return gain, receiver


def degrees_landing_on(angle):
    """A FOV in degrees whose radians are exactly `angle`, or None."""
    fov_deg = math.degrees(angle)
    while math.radians(fov_deg) < angle:
        fov_deg = math.nextafter(fov_deg, 90.0)
    while math.radians(fov_deg) > angle:
        fov_deg = math.nextafter(fov_deg, 0.0)
    return fov_deg if math.radians(fov_deg) == angle else None


def raised(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return type(info.value), str(info.value)


def random_document(rng: random.Random) -> dict:
    dims = [rng.uniform(3.0, 8.0), rng.uniform(3.0, 8.0), rng.uniform(2.5, 4.0)]
    k = rng.randint(1, 16)
    return {
        "room": {"dims": dims},
        "adt": {
            "center": [rng.uniform(1.0, dims[0] - 1.0), rng.uniform(1.0, dims[1] - 1.0),
                       rng.uniform(dims[2] - 0.5, dims[2])],
            "beam_waist_m": rng.uniform(1e-6, 2e-5),
            "wavelength_m": rng.uniform(3.5e-7, 2e-6),
            "side_offset_m": rng.uniform(0.0, 1.0),
            "side_elevation_deg": rng.uniform(0.0, 90.0),
        },
        "irs": {"enabled": rng.random() < 0.5},
        "users": {
            "k": k,
            "positions": [[rng.uniform(0.05, dims[0] - 0.05), rng.uniform(0.05, dims[1] - 0.05),
                           rng.choice([0.0, rng.uniform(0.0, 1.5)])] for _ in range(k)],
            "blocked": sorted(rng.sample(range(k), rng.randint(0, k // 3))),
            "fov_deg": rng.uniform(5.0, 90.0),
            "branch_azimuths_deg": [rng.uniform(0.0, 359.9) for _ in range(rng.randint(1, 6))],
            "branch_elevation_deg": rng.uniform(0.0, 90.0),
            "pd_area_m2": rng.uniform(1e-6, 1e-4),
        },
    }


class TestRandomScenarios:
    def test_random_rooms_beams_and_receivers(self):
        rng = random.Random(2025)
        nonzero = 0
        for _ in range(40):
            s = build_default_scenario(random_document(rng))
            # Transmitter branches at random azimuths and elevations too.
            orientations = (Orientation(0.0, 90.0),) + tuple(
                Orientation(rng.uniform(0.0, 359.9), rng.uniform(0.0, 90.0))
                for _ in range(rng.randint(0, 6))
            )
            s = replace(s, adt=replace(s.adt, branch_orientations=orientations))
            gain, _ = assert_scenario_matches(s)
            nonzero += int((gain > 0.0).sum())
        assert nonzero > 100

    def test_default_scenario_and_every_wall_variant(self):
        for irs in ({"enabled": False}, {"grid_m": 5}, {"grid_m": 10, "wall": "x_min"}):
            assert_scenario_matches(build_default_scenario(
                {"users": {"k": 16, "blocked": [3, 7]}, "irs": irs}
            ))

    def test_one_user(self):
        s = build_default_scenario({"users": {"k": 1, "positions": [[1.3, 3.1, 0.0]]}})
        gain, receiver = assert_scenario_matches(s)
        assert gain.shape == receiver.shape == (1, 5)
        assert (gain > 0.0).any()

    def test_receiver_branch_sets_differ_per_user(self):
        base = build_default_scenario({"users": {"k": 6}})
        branch_sets = (
            default_adr_branches(),
            default_adr_branches((45.0,), elevation_deg=30.0, fov_deg=60.0),
            default_adr_branches((0.0, 120.0, 240.0), elevation_deg=75.0, fov_deg=40.0),
            default_adr_branches((10.0, 100.0), elevation_deg=10.0, fov_deg=89.0, pd_area=7e-5),
            default_adr_branches(),  # equal to the first set, a different tuple
            default_adr_branches((45.0,), elevation_deg=30.0, fov_deg=60.0),
        )
        users = tuple(
            UserSpec(user.position, i == 5, branches)
            for i, (user, branches) in enumerate(zip(base.users, branch_sets))
        )
        gain, _ = assert_scenario_matches(replace(base, users=users))
        assert (gain[:5] > 0.0).any(axis=1).sum() >= 3


class TestEdgeCases:
    AP = Vec3(2.5, 2.5, 3.0)

    @pytest.mark.parametrize(
        "user",
        [
            Vec3(1.7, 3.9, 0.0),
            Vec3(1.2, 0.9, 0.0),
            Vec3(0.4, 2.2, 0.0),
            # At these arrivals numpy's arccos gives one ulp less than libm's
            # acos (numpy 2.4, x86-64), so only `math.acos` gates them alike.
            Vec3(3.98, 2.59, 0.0),
            Vec3(2.52, 2.43, 0.0),
            Vec3(1.17, 3.21, 0.0),
        ],
    )
    def test_arrival_exactly_on_fov_boundary_and_one_ulp_outside(self, user):
        probe = AdrBranch(Orientation(100.0, 70.0), 45.0, 2e-5, 0.4)
        angle = incidence_angle((user - self.AP).normalized(), probe.normal())
        on_edge = degrees_landing_on(angle)
        beyond_edge = degrees_landing_on(math.nextafter(angle, 0.0))
        assert on_edge is not None and beyond_edge is not None
        gain, receiver = assert_kernel_matches(
            [self.AP],
            [user, user],
            [
                (replace(probe, fov_half_angle_deg=on_edge),),
                (replace(probe, fov_half_angle_deg=beyond_edge),),
            ],
            [False, False],
        )
        assert gain[0, 0] > 0.0 and receiver[0, 0] == 0  # the boundary is inside
        assert gain[1, 0] == 0.0 and receiver[1, 0] == -1

    def test_acos_runs_only_within_1e_9_of_the_fov_cosine(self, monkeypatch):
        user = Vec3(3.98, 2.59, 0.0)
        probe = AdrBranch(Orientation(100.0, 70.0), 45.0, 2e-5, 0.4)
        angle = incidence_angle((user - self.AP).normalized(), probe.normal())
        on_edge = (replace(probe, fov_half_angle_deg=degrees_landing_on(angle)),)
        branch_sets = [default_adr_branches()] * 4 + [on_edge]
        positions = [u.position for u in build_default_scenario(None).users] + [user]
        arguments = []

        def counted_acos(x, _acos=math.acos):
            arguments.append(x)
            return _acos(x)

        monkeypatch.setattr(math, "acos", counted_acos)
        los_gain_table([self.AP], positions, branch_sets, [False] * 5, WAIST, WAVELENGTH)
        # Of 4 x 4 + 1 (user, receiver branch) arrivals, only the one on the edge.
        assert len(arguments) == 1

    def test_equal_receiver_branches_tie_to_the_lowest_index(self):
        twin = AdrBranch(Orientation(0.0, 90.0), 80.0, 2e-5, 0.4)
        user = Vec3(2.4, 2.6, 0.0)
        _, receiver = assert_kernel_matches([self.AP], [user], [(twin, twin, twin)], [False])
        assert receiver.tolist() == [[0]]

    def test_equal_transmitter_branches_tie_to_the_lowest_index(self):
        s = build_default_scenario({"users": {"k": 3}, "adt": {"side_offset_m": 0.0}})
        # Every branch sits at the centre, so all five gains are equal.
        gain, _ = assert_scenario_matches(s)
        assert (gain == gain[:, :1]).all()
        seen = (gain > 0.0).any(axis=1)
        assert seen.any()
        assert all(b == 0 for b, ok in zip(s.serving_branches, seen) if ok)

    def test_blocked_users_have_zero_rows(self):
        s = build_default_scenario({"users": {"k": 8, "blocked": [0, 3, 7]}})
        gain, receiver = assert_scenario_matches(s)
        assert not gain[[0, 3, 7]].any()
        assert (receiver[[0, 3, 7]] == -1).all()
        assert (gain[[1, 2, 4, 5, 6]] > 0.0).any(axis=1).all()

    @pytest.mark.parametrize("blocked", [[], [1]])
    def test_user_on_a_transmitter_branch_raises(self, blocked):
        # Side branch 1 sits 0.3 m along +x from the centre (2.5, 2.5, 3.0).
        s = build_default_scenario(
            {"users": {"k": 2, "positions": [[1.0, 1.0, 0.0], [2.8, 2.5, 3.0]],
                       "blocked": blocked}}
        )
        assert s.adt.branch_positions()[1] == s.users[1].position
        want = raised(serving_branch_index, s, 1)
        assert want == (GeometryError, "zero-length vector has no direction")
        assert raised(lambda: s.serving_branches) == want
        assert raised(lambda: s.direct_table) == want
        assert serving_branch_index(s, 0) in range(5)  # the other user is fine

    def test_errors_follow_the_scalar_order(self):
        aps = [self.AP, Vec3(2.8, 2.5, 3.0)]
        branches = [default_adr_branches()] * 3
        cases = [
            # user 0 outside the room, user 1 on branch 1: the room error first
            [Vec3(6.0, 1.0, 0.0), Vec3(2.8, 2.5, 3.0), Vec3(1.0, 1.0, 0.0)],
            # user 1 outside the room and on branch 0: its beam fails first
            [Vec3(1.0, 1.0, 0.0), Vec3(2.5, 2.5, 3.0), Vec3(9.0, 1.0, 0.0)],
            # user 1 outside the room and on branch 1: the room check comes first,
            # as the scalar path checks the room after building branch 0's beam
            [Vec3(1.0, 1.0, 0.0), Vec3(2.8, 2.5, 3.0), Vec3(1.0, 1.0, 0.0)],
        ]
        room_for = [ROOM, (5.0, 5.0, 2.9), (5.0, 5.0, 2.9)]
        for positions, room in zip(cases, room_for):
            blocked = [False, True, False]
            args = (aps, positions, branches, blocked, WAIST, WAVELENGTH, room)
            assert raised(los_gain_table, *args) == raised(scalar_table, *args)
        assert "out of bounds" in raised(los_gain_table, aps, cases[0], branches,
                                         [False] * 3, WAIST, WAVELENGTH, ROOM)[1]

    def test_subnormal_separation_fails_as_the_aimed_beam_does(self):
        # 1e-160 squared is subnormal: the normalised direction is not unit.
        aps = [Vec3(0.0, 0.0, 0.0)]
        args = (aps, [Vec3(1e-160, 0.0, 0.0)], [default_adr_branches()], [True],
                WAIST, WAVELENGTH)
        want = raised(scalar_table, *args)
        assert want == (ValueError, "beam axis must be a unit vector")
        assert raised(los_gain_table, *args) == want

    @pytest.mark.parametrize("irs", [{"enabled": False}, {"grid_m": 5}, {"wall": "x_min"}])
    def test_users_no_branch_sees_take_the_fallback(self, irs):
        # Narrow receivers pointing at the floor corner see no transmitter.
        s = build_default_scenario(
            {"irs": irs, "users": {"k": 6, "fov_deg": 0.5, "branch_elevation_deg": 5.0,
                                   "blocked": [2]}}
        )
        gain, receiver = assert_scenario_matches(s)
        assert not gain.any() and (receiver == -1).all()
        # Nearest the panel centre is one branch for all; nearest the user is not.
        assert (len(set(s.serving_branches)) == 1) == (s.irs is not None)

    def test_only_blocked_users_take_the_fallback(self):
        s = build_default_scenario({"users": {"k": 5, "blocked": [0, 1, 2, 3, 4]}})
        for variant in (s, replace(s, irs=None)):
            assert_scenario_matches(variant)


class TestScenarioCache:
    def test_table_is_read_only_and_not_compared(self):
        s = build_default_scenario({"users": {"k": 6}})
        fresh = replace(s)
        gain, receiver = s.direct_table
        assert s.direct_table[0] is gain  # computed once
        for array in (gain, receiver):
            assert array.flags.writeable is False
            with pytest.raises(ValueError):
                array[0, 0] = 1
        assert fresh._direct is None  # replace() starts without the cache
        assert s == fresh and hash(s) == hash(fresh)
        assert "_direct" not in repr(s)

    def test_replaced_users_get_a_new_table(self):
        s = build_default_scenario({"users": {"k": 4}})
        moved = UserSpec(Vec3(0.3, 4.7, 0.0), False, s.users[0].branches)
        other = replace(s, users=(moved,) + s.users[1:])
        assert other.direct_table[0][1:].tolist() == s.direct_table[0][1:].tolist()
        assert_scenario_matches(other)

    def test_branch_positions_cached_and_recomputed_on_replace(self):
        s = build_default_scenario(None)
        adt = s.adt
        assert adt.branch_positions() is adt.branch_positions()
        for offset in (0.3, 0.0, 0.75):
            spec = replace(adt, side_offset=offset)
            want = [spec.center_pos] + [
                spec.center_pos
                + Vec3(math.cos(math.radians(o.azimuth_deg)),
                       math.sin(math.radians(o.azimuth_deg)), 0.0).scaled(offset)
                for o in spec.branch_orientations[1:]
            ]
            assert spec.branch_positions() == tuple(want)
        assert replace(adt) == adt and hash(replace(adt)) == hash(adt)
        assert "_positions" not in repr(adt)
        moved = replace(adt, center_pos=Vec3(1.0, 2.0, 3.0))
        assert moved.branch_positions()[0] == Vec3(1.0, 2.0, 3.0)
