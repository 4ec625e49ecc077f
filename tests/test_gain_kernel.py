"""The vectorised mirror-gain kernel against the scalar reference path.

`irs_gain_table` must give, for every (user, mirror) pair, what
`steer_mirror` followed by `irs_gain` gives for that one pair: nonzero gains
to 1e-12 relative and zeros in exactly the same places. A user's row must
not depend on which other users share the call or its blocks, and erf runs
only on pairs some receiver branch sees whose intercept may be below the
photodiode's capture.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import owcsim.channel
from owcsim.beam import GaussianBeam
from owcsim.channel import AdrBranch, MirrorColumns, irs_gain_table
from owcsim.config import build_default_scenario
from owcsim.geometry import GeometryError, Orientation, Vec3
from owcsim.network import (
    UserSpec,
    default_adr_branches,
    irs_gain_matrix,
)
from owcsim.reference import (
    MirrorElement,
    incidence_angle,
    irs_gain,
    serving_branch_index,
    specular_reflect,
    steer_mirror,
)

RTOL = 1e-12
WAIST = 5e-6
WAVELENGTH = 1.55e-6
UP = Vec3(0.0, 0.0, 1.0)


def scalar_path(ap, mirror, user, branches, waist=WAIST, wavelength=WAVELENGTH):
    """Steer, then `irs_gain`: the gain and the receiver branch, -1 for None."""
    try:
        normal = steer_mirror(ap, mirror.center, user)
    except GeometryError:
        return 0.0, -1
    beam = GaussianBeam(waist, wavelength, 1.0, ap, UP)
    gain, index = irs_gain(ap, replace(mirror, normal=normal), user, branches, beam)
    return gain, -1 if index is None else index


def scalar_gain(ap, mirror, user, branches, waist=WAIST, wavelength=WAVELENGTH):
    return scalar_path(ap, mirror, user, branches, waist, wavelength)[0]


def assert_close(got, want, where):
    if want == 0.0 or got == 0.0:
        assert got == want, f"{where}: kernel {got!r}, scalar {want!r}"
    else:
        assert abs(got - want) <= RTOL * want, f"{where}: kernel {got!r}, scalar {want!r}"


def assert_table_matches(aps, mirrors, users, branch_sets, waist=WAIST, wavelength=WAVELENGTH):
    """Every (user, mirror) pair of one `irs_gain_table` call against the
    scalar path, user i served from `aps[i]`."""
    gain, receiver = irs_gain_table(
        aps, MirrorColumns.of(mirrors), users, branch_sets, waist, wavelength
    )
    assert gain.shape == receiver.shape == (len(users), len(mirrors))
    assert gain.dtype == np.float64 and receiver.dtype.kind == "i"
    for i, (ap, user, branches) in enumerate(zip(aps, users, branch_sets)):
        paths = [scalar_path(ap, m, user, branches, waist, wavelength) for m in mirrors]
        for j, (got, (want, _)) in enumerate(zip(gain[i].tolist(), paths)):
            assert_close(got, want, f"({i}, {j})")
        assert receiver[i].tolist() == [index for _, index in paths]
    return gain, receiver


def assert_row_matches(ap, mirrors, user, branches, waist=WAIST, wavelength=WAVELENGTH):
    """A one-user call: its single row against the scalar path."""
    gain, receiver = assert_table_matches([ap], mirrors, [user], [branches], waist, wavelength)
    return gain[0], receiver[0]


def assert_rows_are_independent(aps, mirrors, users, branch_sets):
    """Each row of a many-user call equals, bitwise, a one-user call."""
    columns = MirrorColumns.of(mirrors)
    gain, receiver = irs_gain_table(aps, columns, users, branch_sets, WAIST, WAVELENGTH)
    for i, (ap, user, branches) in enumerate(zip(aps, users, branch_sets)):
        row, row_receiver = irs_gain_table([ap], columns, [user], [branches], WAIST, WAVELENGTH)
        assert gain[i].tobytes() == row[0].tobytes()
        assert receiver[i].tolist() == row_receiver[0].tolist()


def assert_matrix_matches(scenario):
    matrix = irs_gain_matrix(scenario)
    assert matrix.shape == (len(scenario.users), len(scenario.irs.elements))
    positions = scenario.adt.branch_positions()
    for i, user in enumerate(scenario.users):
        ap = positions[serving_branch_index(scenario, i)]
        for j, mirror in enumerate(scenario.irs.elements):
            want = scalar_gain(
                ap, mirror, user.position, user.branches,
                scenario.adt.beam_waist, scenario.adt.beam_wavelength,
            )
            assert_close(float(matrix[i, j]), want, f"({i}, {j})")
    return matrix


def wall_mirror(center, normal=Vec3(0.0, -1.0, 0.0), size=(0.15, 0.10), reflectivity=0.95):
    return MirrorElement(center, normal, size[0], size[1], reflectivity)


def one_branch(elevation=90.0, fov=90.0, azimuth=0.0):
    return (AdrBranch(Orientation(azimuth, elevation), fov, 2e-5),)


class TestRandomScenarios:
    def test_random_rooms_and_walls(self):
        rng = random.Random(2024)
        for _ in range(12):
            dims = [rng.uniform(3.0, 8.0), rng.uniform(3.0, 8.0), rng.uniform(2.5, 4.0)]
            grid = rng.randint(1, 7)
            width, height = rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.3)
            k = rng.randint(1, 5)
            doc = {
                "room": {"dims": dims},
                "adt": {
                    "center": [rng.uniform(1.0, dims[0] - 1.0),
                               rng.uniform(1.0, dims[1] - 1.0), dims[2]],
                    "beam_waist_m": rng.uniform(2e-6, 2e-5),
                    "wavelength_m": rng.uniform(4e-7, 2e-6),
                },
                "irs": {
                    "wall": rng.choice(["x_min", "x_max", "y_min", "y_max"]),
                    "grid_m": grid,
                    "element_width_m": width,
                    "element_height_m": height,
                    "center_height_m": rng.uniform(grid * height / 2 + 0.01,
                                                   dims[2] - grid * height / 2 - 0.01),
                    "reflectivity": rng.uniform(0.5, 1.0),
                },
                "users": {
                    "k": k,
                    "positions": [[rng.uniform(0.05, dims[0] - 0.05),
                                   rng.uniform(0.05, dims[1] - 0.05), 0.0]
                                  for _ in range(k)],
                    "fov_deg": rng.uniform(20.0, 80.0),
                },
            }
            matrix = assert_matrix_matches(build_default_scenario(doc))
            assert matrix.dtype == float

    def test_every_transmitter_branch_not_only_the_serving_one(self):
        s = build_default_scenario({"irs": {"grid_m": 6}})
        for ap in s.adt.branch_positions():
            assert_table_matches(
                [ap] * len(s.users), s.irs.elements,
                [user.position for user in s.users], [user.branches for user in s.users],
            )

    def test_single_mirror_grid(self):
        s = build_default_scenario({"irs": {"grid_m": 1}})
        matrix = assert_matrix_matches(s)
        assert matrix.shape == (4, 1)
        assert (matrix > 0.0).any()

    def test_zero_reflectivity_gives_zero_gains(self):
        s = build_default_scenario({"irs": {"reflectivity": 0.0}})
        matrix = assert_matrix_matches(s)
        assert not matrix.any()

    def test_small_mirrors_where_the_intercept_binds(self):
        # Millimetre mirrors catch less of the beam than a large photodiode
        # would, so min(intercept, captured) takes the intercept.
        s = build_default_scenario(
            {
                "irs": {"grid_m": 4, "element_width_m": 2e-3, "element_height_m": 1e-3},
                "users": {"pd_area_m2": 1e-4, "fov_deg": 80.0},
            }
        )
        assert (assert_matrix_matches(s) > 0.0).any()

    def test_narrow_beam_on_large_mirrors_where_the_intercept_binds(self):
        # A 20 um waist at 350 nm is a few cm wide at the wall, so both erf
        # arguments exceed 1, and a 0.5 m^2 photodiode still captures more
        # of the beam than the mirror intercepts.
        mirrors = build_default_scenario({"irs": {"grid_m": 5}}).irs.elements
        users = floor_users(random.Random(13), 3)
        receiver = (AdrBranch(Orientation(0.0, 90.0), 80.0, 0.5),)
        gain, _ = assert_table_matches(
            [Vec3(2.5, 2.5, 3.0)] * 3, mirrors, users, [receiver] * 3,
            waist=2e-5, wavelength=3.5e-7,
        )
        assert (gain > 0.0).all()

    @pytest.mark.parametrize("areas", [(2e-5, 0.5), (0.5, 2e-5)])
    def test_one_receiver_with_photodiodes_of_two_sizes(self, areas):
        # Only the large photodiode's capture exceeds the intercept: the erf
        # test must take the largest capture, and each branch its own gain.
        s = build_default_scenario({"irs": {"grid_m": 5}})
        receiver = tuple(AdrBranch(Orientation(0.0, 90.0), 80.0, area) for area in areas)
        users = floor_users(random.Random(5), 3)
        gain, index = assert_table_matches(
            [s.adt.branch_positions()[0]] * 3, s.irs.elements, users, [receiver] * 3
        )
        assert (index >= 0).any()
        assert (index[index >= 0] == areas.index(0.5)).all()

    def test_receiver_branch_sets_differ_per_user(self):
        base = build_default_scenario({"irs": {"grid_m": 5}})
        branch_sets = (
            default_adr_branches(),
            default_adr_branches((45.0,), elevation_deg=30.0, fov_deg=60.0),
            default_adr_branches((0.0, 120.0, 240.0), elevation_deg=75.0, fov_deg=40.0),
            default_adr_branches((10.0, 100.0), elevation_deg=10.0, fov_deg=89.0),
        )
        users = tuple(
            UserSpec(user.position, False, branches)
            for user, branches in zip(base.users, branch_sets)
        )
        assert_matrix_matches(replace(base, users=users))


class TestEdgeGeometry:
    def test_arrival_exactly_on_fov_boundary(self):
        ap, user = Vec3(2.5, 2.5, 3.0), Vec3(1.7, 3.9, 0.0)
        mirror = wall_mirror(Vec3(2.3, 5.0, 1.5))
        normal = steer_mirror(ap, mirror.center, user)
        arrival = specular_reflect((mirror.center - ap).normalized(), normal)
        probe = one_branch(elevation=70.0, fov=45.0, azimuth=100.0)[0]
        angle = incidence_angle(arrival, probe.normal())
        # Find a FOV in degrees whose radians land exactly on the angle.
        fov_deg = math.degrees(angle)
        while math.radians(fov_deg) < angle:
            fov_deg = math.nextafter(fov_deg, 90.0)
        while math.radians(fov_deg) > angle:
            fov_deg = math.nextafter(fov_deg, 0.0)
        assert math.radians(fov_deg) == angle
        on_edge = (replace(probe, fov_half_angle_deg=fov_deg),)
        row, _ = assert_row_matches(ap, [mirror], user, on_edge)
        assert row[0] > 0.0  # the boundary is inside the field of view
        just_outside = (replace(probe, fov_half_angle_deg=math.nextafter(fov_deg, 0.0)),)
        row, _ = assert_row_matches(ap, [mirror], user, just_outside)
        assert row[0] == 0.0

    def test_user_and_transmitter_behind_the_mirror_plane(self):
        # The wall faces -y into the room; both ends sit on its far side.
        mirrors = [wall_mirror(Vec3(2.0 + 0.2 * j, 5.0, 1.5)) for j in range(5)]
        for ap, user in (
            (Vec3(2.5, 2.5, 3.0), Vec3(2.2, 6.0, 0.5)),
            (Vec3(2.5, 6.5, 3.0), Vec3(2.2, 3.0, 0.0)),
            (Vec3(2.5, 6.5, 3.0), Vec3(2.2, 7.0, 0.0)),
        ):
            assert_row_matches(ap, mirrors, user, default_adr_branches(fov_deg=89.0))

    def test_degenerate_steering(self):
        # Transmitter, mirror and user in a line: u_out == u_in, gain 0.
        ap, center = Vec3(1.0, 1.0, 3.0), Vec3(2.0, 2.0, 2.0)
        mirrors = [wall_mirror(center)]
        for offset in (0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6):
            user = Vec3(3.0 + offset, 3.0, 1.0)
            assert_row_matches(ap, mirrors, user, one_branch())
        row, _ = assert_row_matches(ap, mirrors, Vec3(3.0, 3.0, 1.0), one_branch())
        assert row[0] == 0.0

    def test_zero_projected_height_scores_zero(self):
        # The transmitter 1e-8 m in front of the wall, straight above the
        # mirror: the beam meets it edge-on, so its height projects to 0 and
        # the reference scores 0, though every gate passes. Further off the
        # wall the same pair scores.
        center = Vec3(2.0, 5.0, 1.5)
        for offset, scores in ((1e-8, False), (1e-6, True)):
            ap, user = Vec3(2.0, 5.0 - offset, 3.0), Vec3(2.0, 5.0 - offset, 0.0)
            row, _ = assert_row_matches(ap, [wall_mirror(center)], user, one_branch(fov=10.0))
            assert (row[0] > 0.0) == scores

    def test_zero_length_leg(self):
        center = Vec3(2.0, 5.0, 1.5)
        mirrors = [wall_mirror(center), wall_mirror(Vec3(2.15, 5.0, 1.5))]
        row, _ = assert_row_matches(Vec3(2.5, 2.5, 3.0), mirrors, center, one_branch())
        assert row[0] == 0.0
        row, _ = assert_row_matches(center, mirrors, Vec3(2.5, 2.5, 0.0), one_branch())
        assert row[0] == 0.0

    def test_near_horizontal_steered_normal(self):
        # A ceiling mirror between a transmitter and a user at equal height
        # is steered to face straight down: mirror_plane_axes falls back to +x.
        center = Vec3(2.0, 2.0, 3.0)
        mirrors = [MirrorElement(center, Vec3(0.0, 0.0, -1.0), 0.15, 0.10, 0.95)]
        ap = Vec3(1.0, 2.0, 1.0)
        flat = []
        for tilt in (0.0, 1e-10, 3e-5, 6e-5, 8e-5, 1e-4, 1e-3):
            user = Vec3(3.0, 2.0 + tilt, 1.0)
            row, _ = assert_row_matches(ap, mirrors, user, one_branch())
            assert row[0] > 0.0
            flat.append(abs(steer_mirror(ap, center, user).z) > 1.0 - 1e-9)
        assert True in flat and False in flat

    def test_empty_wall(self):
        users = [Vec3(1.0, 1.0, 0.0), Vec3(2.0, 3.0, 0.0), Vec3(4.0, 1.0, 0.0)]
        gain, receiver = irs_gain_table([Vec3(2.5, 2.5, 3.0)] * 3, MirrorColumns.of([]), users,
                                        [one_branch()] * 3, WAIST, WAVELENGTH)
        assert gain.shape == receiver.shape == (3, 0)


def floor_users(rng, k, dims=(5.0, 5.0)):
    return [Vec3(rng.uniform(0.05, dims[0] - 0.05), rng.uniform(0.05, dims[1] - 0.05), 0.0)
            for _ in range(k)]


class TestManyUsers:
    """One call over many users: rows mixed by receiver branches and blocks."""

    WIDE = default_adr_branches(fov_deg=50.0)
    TILTED = default_adr_branches((270.0, 90.0), elevation_deg=30.0, fov_deg=60.0)

    def test_two_receiver_branch_tuples_in_one_call(self):
        s = build_default_scenario({"irs": {"grid_m": 6}})
        positions = s.adt.branch_positions()
        users = floor_users(random.Random(7), 7)
        aps = [positions[i % len(positions)] for i in range(len(users))]
        branch_sets = [self.WIDE if i % 3 else self.TILTED for i in range(len(users))]
        gain, receiver = assert_table_matches(aps, s.irs.elements, users, branch_sets)
        # The tilted pair serves only through its second branch, which faces
        # the wall; the four wide branches also serve through the first.
        assert set(receiver[::3].ravel().tolist()) == {1}
        assert (receiver[4] == 0).any()
        assert_rows_are_independent(aps, s.irs.elements, users, branch_sets)

    def test_user_outside_every_field_of_view(self):
        # An upward branch with a 10 degree field of view, 4 m from a wall
        # whose mirrors sit 1.5 m up, sees no reflection arrive.
        mirrors = build_default_scenario({"irs": {"grid_m": 5}}).irs.elements
        ap, users = Vec3(2.5, 2.5, 3.0), [Vec3(2.5, 1.0, 0.0), Vec3(2.0, 3.5, 0.0)]
        gain, receiver = assert_table_matches(
            [ap, ap], mirrors, users, [one_branch(elevation=90.0, fov=10.0), self.WIDE]
        )
        assert not gain[0].any() and (receiver[0] == -1).all()
        assert gain[1].any()
        for mirror in mirrors:  # gated by the field of view alone
            steer_mirror(ap, mirror.center, users[0])

    def test_one_user(self):
        s = build_default_scenario({"irs": {"grid_m": 3}})
        user = s.users[0]
        gain, receiver = assert_table_matches(
            [s.adt.branch_positions()[0]], s.irs.elements, [user.position], [user.branches]
        )
        assert gain.shape == receiver.shape == (1, 9)
        assert gain.any()

    def test_table_spanning_several_blocks(self):
        mirrors = build_default_scenario({"irs": {"grid_m": 20}}).irs.elements
        users = floor_users(random.Random(11), 23)
        per_block = owcsim.channel._BLOCK_PAIRS // len(mirrors)
        assert len(users) * len(mirrors) > 2 * owcsim.channel._BLOCK_PAIRS
        assert per_block >= 1 and len(users) % per_block
        aps = [Vec3(2.5 + 0.3 * (i % 2), 2.5, 3.0) for i in range(len(users))]
        branch_sets = [self.WIDE if i % 2 else self.TILTED for i in range(len(users))]
        assert_table_matches(aps, mirrors, users, branch_sets)
        assert_rows_are_independent(aps, mirrors, users, branch_sets)

    def counted_erf_table(self, monkeypatch, pd_area):
        """The erf arguments and the table of one call over floor users; one
        at the centre of mirror 5 (a zero-length leg); one in line with the
        transmitter and mirror 0 (degenerate steering); and one whose only
        branch sees no reflection arrive (gated pairs). Every photodiode has
        area `pd_area`, and the table is checked against the scalar path."""
        mirrors = build_default_scenario({"irs": {"grid_m": 10}}).irs.elements
        ap, first = Vec3(2.5, 2.5, 3.0), mirrors[0].center
        users = [
            *floor_users(random.Random(3), 4),
            mirrors[5].center,
            first + (first - ap),
            Vec3(2.5, 1.0, 0.0),
        ]
        branch_sets = [default_adr_branches(pd_area=pd_area)] * 6 + [
            (AdrBranch(Orientation(0.0, 90.0), 10.0, pd_area),)
        ]
        aps = [ap] * len(users)
        arguments = []

        def counted_erf(x, _erf=math.erf):
            arguments.append(x)
            return _erf(x)

        with monkeypatch.context() as patch:
            patch.setattr(math, "erf", counted_erf)
            gain, receiver = irs_gain_table(
                aps, MirrorColumns.of(mirrors), users, branch_sets, WAIST, WAVELENGTH
            )
        scored = assert_table_matches(aps, mirrors, users, branch_sets)
        assert gain.tobytes() == scored[0].tobytes()
        assert receiver.tobytes() == scored[1].tobytes()
        served = int((receiver >= 0).sum())
        assert (gain[receiver >= 0] > 0.0).all()
        assert 0 < served < gain.size // 2
        assert gain[4, 5] == gain[5, 0] == 0.0 and not gain[6].any()
        return arguments, served

    def test_erf_runs_only_on_pairs_a_receiver_sees(self, monkeypatch):
        # A 2e-5 m^2 photodiode captures far less of each beam than a
        # 0.15 x 0.10 m mirror intercepts, so min(intercept, captured) is the
        # capture on every served pair, and the erf bound shows it for all.
        arguments, served = self.counted_erf_table(monkeypatch, 2e-5)
        assert len(arguments) == 0

    def test_erf_runs_on_every_served_pair_where_the_intercept_binds(self, monkeypatch):
        # A 0.5 m^2 photodiode captures more than the mirror intercepts, so
        # each served pair needs both of its erfs, and a pair scored 0 none.
        arguments, served = self.counted_erf_table(monkeypatch, 0.5)
        assert len(arguments) == 2 * served


ERF_1 = math.erf(1.0)


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
@example(0.0)
@example(5e-324)
@example(math.nextafter(1.0, 0.0))
@example(1.0)
@example(math.nextafter(1.0, 2.0))
@example(1e-8)
@example(30.0)
def test_erf_bound_holds_in_floating_point(a):
    # The kernel skips erf where erf(1) min(a, 1), which bounds erf(a) from
    # below as erf is concave on [0, inf), already clears every capture.
    assert ERF_1 * min(a, 1.0) <= math.erf(a)


def test_matrix_without_wall_is_empty():
    s = build_default_scenario({"irs": {"enabled": False}})
    assert irs_gain_matrix(s).shape == (4, 0)

