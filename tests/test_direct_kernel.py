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
from owcsim.channel import AdrBranch, los_gain_table
from owcsim.config import build_default_scenario
from owcsim.geometry import GeometryError, Orientation, Vec3
from owcsim.network import (
    UserSpec,
    default_adr_branches,
    evaluate_scenario,
)
from owcsim.reference import incidence_angle, los_gain, serving_branch_index

WAIST = 5e-6
WAVELENGTH = 1.55e-6


def scalar_table(aps, positions, branch_sets, blocked, waist, wavelength):
    """`los_gain` per pair, looping users then branches as the scenario does."""
    gains, receivers = [], []
    for pos, branches, is_blocked in zip(positions, branch_sets, blocked):
        row_gain, row_receiver = [], []
        for ap in aps:
            beam = GaussianBeam(waist, wavelength, 1.0, ap, (pos - ap).normalized())
            gain, index = los_gain(ap, pos, branches, beam, is_blocked)
            row_gain.append(gain)
            row_receiver.append(-1 if index is None else index)
        gains.append(row_gain)
        receivers.append(row_receiver)
    return gains, receivers


def assert_kernel_matches(aps, positions, branch_sets, blocked, waist=WAIST,
                          wavelength=WAVELENGTH):
    gain, receiver = los_gain_table(aps, positions, branch_sets, blocked, waist, wavelength)
    want_gain, want_receiver = scalar_table(aps, positions, branch_sets, blocked, waist, wavelength)
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
            assert_scenario_matches(s)
            # 1 to 7 transmitter branches: the centre, then apertures at random
            # azimuths and distances up to twice the side offset.
            center, reach = s.adt.center_pos, 2.0 * s.adt.side_offset
            aps = [center] + [
                center + Vec3(math.cos(az), math.sin(az), 0.0).scaled(rng.uniform(0.0, reach))
                for az in (rng.uniform(0.0, 2.0 * math.pi) for _ in range(rng.randint(0, 6)))
            ]
            users = s.users
            gain, _ = assert_kernel_matches(
                aps,
                [u.position for u in users],
                [u.branches for u in users],
                [u.blocked for u in users],
                s.adt.beam_waist,
                s.adt.beam_wavelength,
            )
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
        probe = AdrBranch(Orientation(100.0, 70.0), 45.0, 2e-5)
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
        probe = AdrBranch(Orientation(100.0, 70.0), 45.0, 2e-5)
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

    # The odd branches' larger photodiodes see a narrower cone.
    TWO_SIZES = tuple(
        replace(branch, pd_area=7e-5, fov_half_angle_deg=30.0) if r % 2 else branch
        for r, branch in enumerate(default_adr_branches(fov_deg=60.0))
    )

    def test_photodiodes_of_two_sizes_match_the_reference(self):
        users = build_default_scenario({"users": {"k": 12}}).users
        _, receiver = assert_kernel_matches(
            build_default_scenario(None).adt.branch_positions(),
            [u.position for u in users],
            [self.TWO_SIZES] * len(users),
            [False] * len(users),
        )
        # Both sizes serve some pair: the small photodiodes sit on even branches.
        assert {r % 2 for r in receiver.ravel().tolist() if r >= 0} == {0, 1}

    @pytest.mark.parametrize("branches", [default_adr_branches(), TWO_SIZES], ids=["one", "two"])
    def test_expm1_runs_once_per_distinct_photodiode_radius(self, monkeypatch, branches):
        aps = build_default_scenario(None).adt.branch_positions()
        positions = [u.position for u in build_default_scenario({"users": {"k": 6}}).users]
        radii = {branch.aperture_radius() for branch in branches}
        calls = []

        def counted_expm1(x, _expm1=math.expm1):
            calls.append(x)
            return _expm1(x)

        monkeypatch.setattr(math, "expm1", counted_expm1)
        los_gain_table(aps, positions, [branches] * 6, [False] * 6, WAIST, WAVELENGTH)
        assert len(calls) == len(positions) * len(aps) * len(radii)

    def test_equal_receiver_branches_tie_to_the_lowest_index(self):
        twin = AdrBranch(Orientation(0.0, 90.0), 80.0, 2e-5)
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
        document = {"users": {"k": 2, "positions": [[1.0, 1.0, 0.0], [2.8, 2.5, 3.0]],
                              "blocked": blocked}}
        with pytest.raises(ValueError) as info:
            build_default_scenario(document)
        assert str(info.value).startswith(
            "users.positions[1] is at the aperture of transmitter branch 1 "
            "(adt.center, adt.side_offset_m)"
        )
        # One ulp away, the user has a direction, and both users are scored.
        document["users"]["positions"][1][0] = math.nextafter(2.8, 3.0)
        s = build_default_scenario(document)
        assert_scenario_matches(s)
        assert serving_branch_index(s, 0) in range(5)

    def test_errors_follow_the_scalar_order(self):
        # Branches 0 and 1 are 1e-160 m apart: a user on one is a subnormal
        # distance from the other, whose aimed beam fails with another message.
        near = Vec3(1e-160, 0.0, 0.0)
        branches = [default_adr_branches()] * 3
        zero_length = (GeometryError, "zero-length vector has no direction")
        not_unit = (ValueError, "beam axis must be a unit vector")
        cases = [
            # user 1 meets branch 0 first: its separation underflows
            ([Vec3(0.0, 0.0, 0.0), near, self.AP], [self.AP.scaled(0.5), near, near], not_unit),
            # the same user with the branches swapped: it sits on branch 0
            ([near, Vec3(0.0, 0.0, 0.0), self.AP], [self.AP.scaled(0.5), near, near], zero_length),
            # users before branches: user 1's branch 2 fails before user 2's branch 0
            ([self.AP, Vec3(2.8, 2.5, 3.0), Vec3(0.0, 0.0, 0.0)],
             [self.AP.scaled(0.5), near, self.AP], not_unit),
        ]
        for aps, positions, want in cases:
            args = (aps, positions, branches, [False, True, False], WAIST, WAVELENGTH)
            assert raised(scalar_table, *args) == want
            assert raised(los_gain_table, *args) == want

    def test_subnormal_separation_fails_as_the_aimed_beam_does(self):
        # 1e-160 squared is subnormal: the normalised direction is not unit.
        aps = [Vec3(0.0, 0.0, 0.0)]
        args = (aps, [Vec3(1e-160, 0.0, 0.0)], [default_adr_branches()], [True],
                WAIST, WAVELENGTH)
        want = raised(scalar_table, *args)
        assert want == (ValueError, "beam axis must be a unit vector")
        assert raised(los_gain_table, *args) == want

    def test_scenario_names_a_user_a_subnormal_distance_from_an_aperture(self):
        document = {"adt": {"center": [0, 0, 0], "side_offset_m": 0}, "irs": {"enabled": False},
                    "users": {"k": 1, "positions": [[1e-160, 0, 0]]}}
        with pytest.raises(ValueError) as info:
            build_default_scenario(document)
        assert str(info.value).startswith(
            "users.positions[0] is at the aperture of transmitter branch 0 "
            "(adt.center, adt.side_offset_m), or too near it"
        )

    def test_scenario_rejects_exactly_the_users_the_aimed_beam_rejects(self):
        # The aperture sits d above a user whose receivers face straight up, so
        # the user sees it. Near d = 1.9e-158, whether d*d keeps enough bits to
        # normalise the beam axis flips from one double to the next.
        boundary = 1.904747777992336e-158
        rng = random.Random(5)
        distances = [boundary, math.nextafter(boundary, 1.0), 1e-160, 1e-150]
        distances += [boundary * rng.uniform(0.9, 1.1) for _ in range(40)]
        scored = []
        for d in distances:
            ap = Vec3(0.0, 0.0, d)
            axis = (Vec3(0.0, 0.0, 0.0) - ap).normalized()
            document = {"adt": {"center": [0, 0, d], "side_offset_m": 0},
                        "irs": {"enabled": False},
                        "users": {"k": 1, "positions": [[0, 0, 0]], "branch_elevation_deg": 90}}
            if axis.is_unit():
                GaussianBeam(WAIST, WAVELENGTH, 1.0, ap, axis)
                s = build_default_scenario(document)
                gain, _ = assert_scenario_matches(s)
                assert (gain > 0.9).all()
                assert evaluate_scenario(s)[0].rate > 0.0
                scored.append(d)
            else:
                with pytest.raises(ValueError, match="beam axis must be a unit vector"):
                    GaussianBeam(WAIST, WAVELENGTH, 1.0, ap, axis)
                with pytest.raises(ValueError, match=r"^users\.positions\[0\] is at the aperture"):
                    build_default_scenario(document)
        # The boundary is rejected and the next double up is scored; the
        # distances drawn around it land on both sides.
        assert boundary not in scored and distances[1] in scored
        assert 1e-160 not in scored and 1e-150 in scored
        assert 0 < sum(d in scored for d in distances[4:]) < 40

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
        assert "direct_table" not in vars(fresh)  # replace() starts without the cache
        assert s == fresh and hash(s) == hash(fresh)
        assert "direct_table" not in repr(s)

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
                + Vec3(math.cos(math.radians(az)), math.sin(math.radians(az)), 0.0).scaled(offset)
                for az in (0.0, 90.0, 180.0, 270.0)
            ]
            assert spec.branch_positions() == tuple(want)
        assert "_positions" not in vars(replace(adt))
        assert replace(adt) == adt and hash(replace(adt)) == hash(adt)
        assert "_positions" not in repr(adt)
        moved = replace(adt, center_pos=Vec3(1.0, 2.0, 3.0))
        assert moved.branch_positions()[0] == Vec3(1.0, 2.0, 3.0)
