"""The vectorised mirror-gain kernel against the scalar reference path.

`irs_gain_table` must give, for every (user, mirror) pair, what
`steer_mirror` followed by `irs_gain` gives for that one pair: nonzero gains
to 1e-12 relative and zeros in exactly the same places. Every user of one
call carries one receiver. A user's row must not depend on which other users
share the call or its blocks, and erf runs only on pairs some receiver branch
sees whose intercept may be below the photodiode's capture. The mirror axes
are built only for pairs the incidence cosine does not settle, and the
tables of fixed scenes keep the bits they had before that bound. The
prefilter drops only pairs the exact pass would score 0, so the tables are
bitwise those of a call that keeps every pair.
"""

import hashlib
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
from owcsim.network import default_adr_branches, irs_gain_matrix
from owcsim.reference import (
    MirrorElement,
    incidence_angle,
    irs_gain,
    mirror_plane_axes,
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


def assert_table_matches(aps, mirrors, users, receiver, waist=WAIST, wavelength=WAVELENGTH):
    """Every (user, mirror) pair of one `irs_gain_table` call against the
    scalar path, user i served from `aps[i]`."""
    gain, index = irs_gain_table(aps, MirrorColumns.of(mirrors), users, receiver, waist, wavelength)
    assert gain.shape == index.shape == (len(users), len(mirrors))
    assert gain.dtype == np.float64 and index.dtype.kind == "i"
    for i, (ap, user) in enumerate(zip(aps, users)):
        paths = [scalar_path(ap, m, user, receiver, waist, wavelength) for m in mirrors]
        for j, (got, (want, _)) in enumerate(zip(gain[i].tolist(), paths)):
            assert_close(got, want, f"({i}, {j})")
        assert index[i].tolist() == [branch for _, branch in paths]
    return gain, index


def assert_row_matches(ap, mirrors, user, receiver, waist=WAIST, wavelength=WAVELENGTH):
    """A one-user call: its single row against the scalar path."""
    gain, index = assert_table_matches([ap], mirrors, [user], receiver, waist, wavelength)
    return gain[0], index[0]


def assert_rows_are_independent(aps, mirrors, users, receiver):
    """Each row of a many-user call equals, bitwise, a one-user call."""
    columns = MirrorColumns.of(mirrors)
    gain, index = irs_gain_table(aps, columns, users, receiver, WAIST, WAVELENGTH)
    for i, (ap, user) in enumerate(zip(aps, users)):
        row, row_index = irs_gain_table([ap], columns, [user], receiver, WAIST, WAVELENGTH)
        assert gain[i].tobytes() == row[0].tobytes()
        assert index[i].tolist() == row_index[0].tolist()


def assert_matrix_matches(scenario):
    matrix = irs_gain_matrix(scenario)
    assert matrix.shape == (len(scenario.users), len(scenario.irs.elements))
    positions = scenario.adt.branch_positions()
    for i, user in enumerate(scenario.users):
        ap = positions[serving_branch_index(scenario, i)]
        for j, mirror in enumerate(scenario.irs.elements):
            want = scalar_gain(
                ap, mirror, user.position, scenario.receiver,
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
                [user.position for user in s.users], s.receiver,
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
            [Vec3(2.5, 2.5, 3.0)] * 3, mirrors, users, receiver,
            waist=2e-5, wavelength=3.5e-7,
        )
        assert (gain > 0.0).all()


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
                                        one_branch(), WAIST, WAVELENGTH)
        assert gain.shape == receiver.shape == (3, 0)

    @pytest.mark.parametrize(
        "field, value", [("pd_area", 0.5), ("fov_half_angle_deg", 30.0)]
    )
    def test_receiver_of_two_photodiodes_raises(self, field, value):
        # Scored with branch 0's photodiode, branch 1 would be silently wrong.
        mirrors = MirrorColumns.of([wall_mirror(Vec3(2.0, 5.0, 1.5))])
        receiver = list(default_adr_branches())
        receiver[1] = replace(receiver[1], **{field: value})
        ap, user = Vec3(2.5, 2.5, 3.0), Vec3(2.0, 2.0, 0.0)
        for branches in (receiver, ()):  # and a receiver of no branch
            with pytest.raises(ValueError, match="^receiver needs one or more branches sharing"):
                irs_gain_table([ap], mirrors, [user], branches, WAIST, WAVELENGTH)


def floor_users(rng, k, dims=(5.0, 5.0)):
    return [Vec3(rng.uniform(0.05, dims[0] - 0.05), rng.uniform(0.05, dims[1] - 0.05), 0.0)
            for _ in range(k)]


class TestManyUsers:
    """One call over many users: rows over receivers and blocks."""

    WIDE = default_adr_branches(fov_deg=50.0)
    TILTED = default_adr_branches((270.0, 90.0), elevation_deg=30.0, fov_deg=60.0)

    def test_user_outside_every_field_of_view(self):
        # An upward branch with a 10 degree field of view, 4 m from a wall
        # whose mirrors sit 1.5 m up, sees no reflection arrive.
        mirrors = build_default_scenario({"irs": {"grid_m": 5}}).irs.elements
        ap, users = Vec3(2.5, 2.5, 3.0), [Vec3(2.5, 1.0, 0.0), Vec3(2.0, 3.5, 0.0)]
        gain, receiver = assert_table_matches(
            [ap], mirrors, users[:1], one_branch(elevation=90.0, fov=10.0)
        )
        assert not gain.any() and (receiver == -1).all()
        gain, _ = assert_table_matches([ap], mirrors, users[1:], self.WIDE)
        assert gain.any()
        for mirror in mirrors:  # gated by the field of view alone
            steer_mirror(ap, mirror.center, users[0])

    def test_one_user(self):
        s = build_default_scenario({"irs": {"grid_m": 3}})
        user = s.users[0]
        gain, receiver = assert_table_matches(
            [s.adt.branch_positions()[0]], s.irs.elements, [user.position], s.receiver
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
        served = []
        for receiver in (self.WIDE, self.TILTED):
            _, index = assert_table_matches(aps, mirrors, users, receiver)
            assert_rows_are_independent(aps, mirrors, users, receiver)
            served.append(set(index.ravel().tolist()) - {-1})
        # The tilted pair serves only through its second branch, which faces
        # the wall; the four wide branches also serve through the first.
        assert served[1] == {1} and 0 in served[0]

    def counted_erf_table(self, monkeypatch, pd_area):
        """The erf arguments and the table of two calls: one over floor
        users, one at the centre of mirror 5 (a zero-length leg) and one in
        line with the transmitter and mirror 0 (degenerate steering); and one
        over a user whose only branch sees no reflection arrive (gated pairs).
        Every photodiode has area `pd_area`, and each call's table is checked
        against the scalar path."""
        mirrors = build_default_scenario({"irs": {"grid_m": 10}}).irs.elements
        ap, first = Vec3(2.5, 2.5, 3.0), mirrors[0].center
        users = [
            *floor_users(random.Random(3), 4),
            mirrors[5].center,
            first + (first - ap),
            Vec3(2.5, 1.0, 0.0),
        ]
        calls = [
            (users[:6], default_adr_branches(pd_area=pd_area)),
            (users[6:], (AdrBranch(Orientation(0.0, 90.0), 10.0, pd_area),)),
        ]
        arguments = []

        def counted_erf(x, _erf=math.erf):
            arguments.append(x)
            return _erf(x)

        with monkeypatch.context() as patch:
            patch.setattr(math, "erf", counted_erf)
            tables = [
                irs_gain_table([ap] * len(group), MirrorColumns.of(mirrors), group, receiver,
                               WAIST, WAVELENGTH)
                for group, receiver in calls
            ]
        scored = [assert_table_matches([ap] * len(group), mirrors, group, receiver)
                  for group, receiver in calls]
        gain, receiver = (np.vstack(arrays) for arrays in zip(*tables))
        assert gain.tobytes() == np.vstack([table[0] for table in scored]).tobytes()
        assert receiver.tobytes() == np.vstack([table[1] for table in scored]).tobytes()
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


def columns(width, height):
    """One mirror at the origin, as `MirrorColumns`."""
    return MirrorColumns(*(np.array([value]) for value in (0.0, 0.0, 0.0, width, height, 0.95)))


def unit(x, y, z):
    """(x, y, z) scaled by the reciprocal of its length, as the kernel scales."""
    inv = 1.0 / math.sqrt(x * x + y * y + z * z)
    return x * inv, y * inv, z * inv


GUARD, TILT_GUARD = owcsim.channel._COSINE_GUARD, owcsim.channel._TILT_GUARD
# log10 of the least tangent of a normal's tilt from vertical, at the tilt guard.
STEEPEST = math.log10(math.sqrt(1.0 - TILT_GUARD**2) / TILT_GUARD)


@settings(max_examples=3000, deadline=None, derandomize=True, database=None)
@given(
    st.floats(-3.0, 1.0),
    st.booleans(),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(0.0, -math.log10(GUARD)),
    st.one_of(st.sampled_from([0.0, math.pi / 2]), st.floats(0.0, 2.0 * math.pi)),
    st.floats(1e-3, 10.0),
    st.floats(1e-3, 10.0),
)
@example(-3.0, True, 0.0, 0.0, math.pi / 2, 0.15, 0.10)  # n steepest, u along h
@example(-3.0, False, 1.0, 0.0, 0.0, 0.15, 0.10)  # u along w
@example(1.0, True, 0.3, 0.0, 0.0, 0.15, 0.10)  # a nearly vertical mirror
@example(1.0, True, 0.3, 0.0, math.pi / 2, 0.15, 0.10)
@example(-0.5, False, 2.0, 2.0, 0.0, 0.15, 0.10)  # normal incidence
# Falls short by 1.4e-10 relative if the tilt guard is loosened to 1 - 1e-12.
@example(0.177734375, False, 0.0, 0.0, math.pi / 2, 1.0, 1.0)
def test_projected_size_is_at_least_size_times_incidence_cosine(
    steeper, up, azimuth, larger, turn, width, height
):
    # The kernel settles a pair from width c and height c, c = |n.u| read from
    # the reflection, where they clear the capture with a 1e-9 margin; that
    # holds only if the projected sizes it skips are that large in floating
    # point too, for every normal n and cosine c the guards let through. The
    # guards keep the rounding to a tenth of that margin. Both are drawn on
    # log scales that crowd the guards, where rounding costs most: n's tilt
    # from vertical has a tangent of 10 ** (STEEPEST + 10 ** steeper), and
    # u is at cosine GUARD x 10 ** larger to n, turned from the mirror's
    # width axis towards its height axis, along either of which one
    # projected size is at its least.
    across = 10.0 ** (STEEPEST + 10.0**steeper)
    n = unit(across * math.cos(azimuth), across * math.sin(azimuth), 1.0 if up else -1.0)
    w, h = (axis.as_tuple() for axis in mirror_plane_axes(Vec3(*n)))
    cosine = min(1.0, GUARD * 10.0**larger)
    along = math.sqrt(1.0 - cosine * cosine)
    u = unit(*(-cosine * n[k] + along * (math.cos(turn) * w[k] + math.sin(turn) * h[k])
               for k in range(3)))
    twice = 2.0 * (u[0] * n[0] + u[1] * n[1] + u[2] * n[2])
    c = 0.5 * abs(twice)
    width_eff, height_eff = owcsim.channel._projected_sizes(
        columns(width, height), *(np.array([[value]]) for value in (*n, *u))
    )
    assert width_eff[0, 0] >= width * c * (1.0 - 1e-10)
    assert height_eff[0, 0] >= height * c * (1.0 - 1e-10)


class TestCosineBound:
    """Pairs the incidence cosine settles skip the mirror axes, and only those."""

    def full_path_calls(self, monkeypatch):
        calls = []
        original = owcsim.channel._projected_sizes

        def counted(*args):
            calls.append(args[1].shape)
            return original(*args)

        monkeypatch.setattr(owcsim.channel, "_projected_sizes", counted)
        return calls

    def test_benchmark_and_default_walls_never_build_the_mirror_axes(self, monkeypatch):
        # The default 2e-5 m^2 photodiode captures so little of each beam
        # that the cosine bound clears it on every live pair.
        calls = self.full_path_calls(monkeypatch)
        for document in ({}, {"irs": {"grid_m": 10}}, wall_scale_document(0),
                         wall_scale_document(1)):
            s = build_default_scenario(document)
            assert (s.mirror_table[0] > 0.0).sum() > len(s.users)
        assert calls == []

    def test_near_grazing_pairs_build_the_mirror_axes(self, monkeypatch):
        # Transmitter, mirror and user nearly in a line: the beam is turned
        # by a few degrees or less, so |n.u| is near the guard. A 1 mm waist
        # at 350 nm stays about 1 mm wide over the 3.5 m path, and a 1e-10 m^2
        # photodiode captures little of it, so the cosine bound would clear
        # the capture on each pair. Still, at or below the guard a pair must
        # take the full path, and every pair matches the reference.
        ap, center = Vec3(1.0, 1.0, 3.0), Vec3(2.0, 2.0, 2.0)
        receiver = (AdrBranch(Orientation(0.0, 90.0), 90.0, 1e-10),)
        incoming = (center - ap).normalized()
        below = []
        for offset in (1e-3, 1e-2, 3e-2, 4e-2, 4.2e-2, 4.3e-2, 5e-2, 0.1):
            user = Vec3(3.0 + offset, 3.0, 1.0)
            normal = steer_mirror(ap, center, user)
            cosine = abs(normal.x * incoming.x + normal.y * incoming.y + normal.z * incoming.z)
            below.append(cosine <= GUARD)
            calls = self.full_path_calls(monkeypatch)
            row, _ = assert_row_matches(ap, [wall_mirror(center)], user, receiver,
                                        waist=1e-3, wavelength=3.5e-7)
            assert row[0] > 0.0
            if below[-1]:
                assert len(calls) == 1, (offset, cosine)
        assert True in below and False in below

    def test_near_vertical_normals_build_the_mirror_axes(self, monkeypatch):
        # A ceiling mirror between a transmitter and a user at equal height
        # is steered to face nearly straight down, where mirror_plane_axes
        # projects +z onto a nearly flat plane and its axes lose bits. The
        # cosine bound clears the capture on each pair, yet with |n_z| at
        # or above the tilt guard a pair must take the full path.
        center = Vec3(2.0, 2.0, 3.0)
        mirror = MirrorElement(center, Vec3(0.0, 0.0, -1.0), 0.15, 0.10, 0.95)
        ap = Vec3(1.0, 2.0, 1.0)
        steep = []
        for tilt in (0.0, 1e-4, 1e-3, 1e-2, 2e-2, 3e-2, 5e-2, 0.1):
            user = Vec3(3.0, 2.0 + tilt, 1.0)
            steep.append(abs(steer_mirror(ap, center, user).z) >= TILT_GUARD)
            calls = self.full_path_calls(monkeypatch)
            row, _ = assert_row_matches(ap, [mirror], user, one_branch())
            assert row[0] > 0.0
            if steep[-1]:
                assert len(calls) == 1, tilt
        assert True in steep and False in steep


class TestPrefilter:
    """`_reachable` hands the exact pass only the pairs some branch may see."""

    @staticmethod
    def kept_pairs(monkeypatch):
        """The flat indices of every `_reachable` call, in call order."""
        kept = []
        original = owcsim.channel._reachable

        def recorded(*args):
            kept.append(original(*args))
            return kept[-1]

        monkeypatch.setattr(owcsim.channel, "_reachable", recorded)
        return kept

    def test_wall_scale_keeps_few_pairs_and_every_scored_one(self, monkeypatch):
        kept = self.kept_pairs(monkeypatch)
        for seed in range(5):
            gain, receiver = build_default_scenario(wall_scale_document(seed)).mirror_table
            assert len(kept[-1]) <= 0.3 * gain.size
            assert np.isin(np.flatnonzero(gain), kept[-1]).all()
            assert np.isin(np.flatnonzero(receiver >= 0), kept[-1]).all()
            assert (gain > 0.0).sum() > len(gain)

    def test_arrivals_at_the_fov_edge_are_kept_and_gated_by_acos(self, monkeypatch):
        # TestEdgeGeometry's pair, whose arrival lies exactly on a field of
        # view; a few ulps either side of that edge, the cosine is within
        # 1e-9 of cos(fov), so the exact pass must take acos, as the
        # reference does, and the prefilter must not have dropped the pair.
        ap, user = Vec3(2.5, 2.5, 3.0), Vec3(1.7, 3.9, 0.0)
        mirror = wall_mirror(Vec3(2.3, 5.0, 1.5))
        arrival = specular_reflect((mirror.center - ap).normalized(),
                                   steer_mirror(ap, mirror.center, user))
        probe = one_branch(elevation=70.0, fov=45.0, azimuth=100.0)[0]
        angle = incidence_angle(arrival, probe.normal())
        fov_deg = math.degrees(angle)
        while math.radians(fov_deg) > angle:
            fov_deg = math.nextafter(fov_deg, 0.0)
        kept = self.kept_pairs(monkeypatch)
        angles = []

        def counted_acos(x, _acos=math.acos):
            angles.append(x)
            return _acos(x)

        monkeypatch.setattr(math, "acos", counted_acos)
        scored = set()
        for ulps in range(-3, 4):
            fov = fov_deg
            for _ in range(abs(ulps)):
                fov = math.nextafter(fov, 90.0 if ulps > 0 else 0.0)
            receiver = (replace(probe, fov_half_angle_deg=fov),)
            calls = len(angles)
            gain, _ = irs_gain_table([ap], MirrorColumns.of([mirror]), [user], receiver,
                                     WAIST, WAVELENGTH)
            assert kept[-1].tolist() == [0]
            assert len(angles) > calls
            assert_close(float(gain[0, 0]), scalar_gain(ap, mirror, user, receiver), fov)
            scored.add(gain[0, 0] > 0.0)
        assert scored == {True, False}

    def test_small_blocks_give_the_same_tables(self, monkeypatch):
        # 7 pairs per block: every user of the 5x5 wall is a stage-1 block
        # of its own, and the exact pass runs over many chunks.
        s = build_default_scenario({"irs": {"grid_m": 5}})
        args = ([s.adt.branch_positions()[b] for b in s.serving_branches], s.irs.columns,
                [user.position for user in s.users], s.receiver, s.adt.beam_waist,
                s.adt.beam_wavelength)
        whole = irs_gain_table(*args)
        chunks = []
        original = owcsim.channel._irs_gain_pairs

        def recorded(ap, *rest):
            chunks.append(ap.shape[1])
            return original(ap, *rest)

        monkeypatch.setattr(owcsim.channel, "_BLOCK_PAIRS", 7)
        monkeypatch.setattr(owcsim.channel, "_irs_gain_pairs", recorded)
        small = irs_gain_table(*args)
        assert len(chunks) > 2 and max(chunks) == 7 and (whole[0] > 0.0).any()
        for got, want in zip(small, whole):
            assert got.tobytes() == want.tobytes()


def log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


point = st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(0.0, 3.0))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    mirrors=st.lists(st.tuples(point, log_uniform(1e-3, 1.0), log_uniform(1e-3, 1.0)),
                     min_size=1, max_size=6),
    ap=point,
    users=st.lists(point, max_size=4),
    grazing=st.lists(st.tuples(st.integers(0, 5), st.floats(0.1, 2.0), log_uniform(1e-12, 0.1)),
                     max_size=3),
    branches=st.lists(st.tuples(st.floats(0.0, 360.0), st.floats(0.0, 90.0)),
                      min_size=1, max_size=4),
    fov=st.floats(0.1, 90.0),
    pd_area=log_uniform(1e-10, 1.0),
    waist=log_uniform(1e-6, 1e-3),
)
# Transmitter, mirror and user in a line, and a user on the mirror centre.
@example(mirrors=[((2.0, 5.0, 1.5), 0.15, 0.1)], ap=(2.5, 2.5, 3.0), users=[(2.0, 5.0, 1.5)],
         grazing=[(0, 1.0, 1e-12), (0, 0.5, 1e-9)], branches=[(0.0, 90.0)], fov=90.0,
         pd_area=2e-5, waist=5e-6)
# Horizontal and upward branches mixed, at the narrowest field of view.
@example(mirrors=[((1.0, 5.0, 2.0), 0.15, 0.1), ((4.0, 5.0, 0.5), 0.15, 0.1)],
         ap=(2.5, 2.5, 3.0), users=[(1.0, 1.0, 0.0), (4.0, 4.0, 1.0)], grazing=[(1, 0.3, 1e-6)],
         branches=[(90.0, 0.0), (270.0, 90.0), (0.0, 45.0)], fov=0.1, pd_area=1.0,
         waist=1e-3)
def test_prefilter_drops_only_pairs_the_exact_pass_scores_zero(
    mirrors, ap, users, grazing, branches, fov, pd_area, waist
):
    # With _REACH = 2 the prefilter keeps every pair (each l.b is below
    # (2 - cos fov) |l|), so the exact pass scores the whole table; the
    # default margin must give the same table bitwise. Grazing users sit
    # nearly in line with the transmitter and a mirror, beyond it, where
    # steering is nearly degenerate and rounding in the reflection is worst.
    elements = [wall_mirror(Vec3(*center), size=size) for center, *size in mirrors]
    people = [Vec3(*p) for p in users]
    for m, reach, offset in grazing:
        center = elements[m % len(elements)].center
        people.append(center + (center - Vec3(*ap)).scaled(reach) + Vec3(offset, -offset, offset))
    receiver = tuple(AdrBranch(Orientation(az, el), fov, pd_area) for az, el in branches)
    args = ([Vec3(*ap)] * len(people), MirrorColumns.of(elements), people, receiver,
            waist, WAVELENGTH)
    table = irs_gain_table(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owcsim.channel, "_REACH", 2.0)
        every = irs_gain_table(*args)
    for got, want in zip(table, every):
        assert got.tobytes() == want.tobytes()


def wall_scale_document(seed, users=16):
    """A 30x30 wall with 16 seeded floor users, as the benchmark draws them."""
    positions = [[p.x, p.y, p.z] for p in floor_users(random.Random(seed), users)]
    return {"irs": {"grid_m": 30}, "users": {"k": users, "positions": positions}}


def many_users_binding_table():
    """TestManyUsers' floor users, zero-length leg and degenerate steering,
    with 0.5 m^2 photodiodes: the intercept binds on every served pair."""
    mirrors = build_default_scenario({"irs": {"grid_m": 10}}).irs.elements
    ap, first = Vec3(2.5, 2.5, 3.0), mirrors[0].center
    users = [*floor_users(random.Random(3), 4), mirrors[5].center, first + (first - ap)]
    return irs_gain_table([ap] * len(users), MirrorColumns.of(mirrors), users,
                          default_adr_branches(pd_area=0.5), WAIST, WAVELENGTH)


def narrow_beam_table():
    """TestRandomScenarios' 20 um waist at 350 nm on 0.15 x 0.10 m mirrors."""
    mirrors = build_default_scenario({"irs": {"grid_m": 5}}).irs.elements
    receiver = (AdrBranch(Orientation(0.0, 90.0), 80.0, 0.5),)
    return irs_gain_table([Vec3(2.5, 2.5, 3.0)] * 3, MirrorColumns.of(mirrors),
                          floor_users(random.Random(13), 3), receiver, 2e-5, 3.5e-7)


class TestPinnedBits:
    """sha256 of both arrays of the mirror table, gains then serving receiver
    branches, taken before the cosine bound: every later edit of the kernel
    must keep them bitwise."""

    TABLES = {
        **{
            f"wall-scale-{seed}": lambda seed=seed: build_default_scenario(
                wall_scale_document(seed)
            ).mirror_table
            for seed in range(3)
        },
        "binding-many-users": many_users_binding_table,
        "binding-millimetre-mirrors": lambda: build_default_scenario(
            {
                "irs": {"grid_m": 4, "element_width_m": 2e-3, "element_height_m": 1e-3},
                "users": {"pd_area_m2": 1e-4, "fov_deg": 80.0},
            }
        ).mirror_table,
        "binding-narrow-beam": narrow_beam_table,
    }
    DIGESTS = {
        "binding-many-users": [
            "ecb6b7ccd1a70f8cc3c81ecc369f65af2c4879287b3229805432a715954b4e0d",
            "5973a55ff1339ed2932dfcfaece73ea2a1414594e5da64a5a4165fa1eae208a9",
        ],
        "binding-millimetre-mirrors": [
            "acd7ffb7a36ad68a36127072c373ede8dd3286fde296f324ec1bac90f3863458",
            "fbc0678489e82e0194c1842962a275a38a68fc3acaa2365c66e1142bc0f213ac",
        ],
        "binding-narrow-beam": [
            "dcbe963b14e9b31d7878cecc9575f8840c02c5d9216c31437b83552edc9c99f6",
            "bd50e12c55dda3ee443c1cb6d71c7bcf6351c4ec96f7bc8d6adec015d1192eea",
        ],
        "wall-scale-0": [
            "0acf5b9cd0ad2ac5dca6aab09f7bd8eb9ad2a8a5362b7e755404181909733f88",
            "f8027ef4464d2b2adb587331bed5a8d481701a129ff9f57fe3d9f652211297e4",
        ],
        "wall-scale-1": [
            "e7c5e1682a85bb4ed06f1f5bd9c6b56b0ae53aef779f844c80d17e7939e72824",
            "282d76ebe17027c5b2f7b8fe248fcac6b23570283e853aefd754baecbdd66152",
        ],
        "wall-scale-2": [
            "307cbd73c5516e9a89549c7f7befed356b0efa53d757344a637ca72aa7886076",
            "2a9a3a1401d1e8627c22cc41d93abcf24d0ca86d0e1a9fd768e6f1c6da03873f",
        ],
    }

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_mirror_table_bits_are_pinned(self, name):
        gain, receiver = self.TABLES[name]()
        assert gain.dtype == np.float64 and receiver.dtype == np.int64
        assert (gain > 0.0).any()
        digests = [hashlib.sha256(array.tobytes()).hexdigest() for array in (gain, receiver)]
        assert digests == self.DIGESTS[name]


def test_matrix_without_wall_is_empty():
    s = build_default_scenario({"irs": {"enabled": False}})
    assert irs_gain_matrix(s).shape == (4, 0)

