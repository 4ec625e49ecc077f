import math
import random

import pytest

from owcsim import checks
from owcsim.beam import GaussianBeam, power_through_circle, waist_at
from owcsim.channel import AdrBranch, ChannelGain, irs_gain, los_gain, total_gain
from owcsim.geometry import MirrorElement, Orientation, Vec3, steer_mirror

from oracles import (
    beam_radius,
    branch_normal,
    incidence_deg,
    mirror_path_gain_oracle,
    vsub,
    vunit,
)

PD_AREA = 2.0e-5
FOUR_BRANCHES = tuple(
    AdrBranch(Orientation(az, 60.0), 25.0, PD_AREA, 0.4) for az in (0, 90, 180, 270)
)
WIDE_BRANCHES = tuple(
    AdrBranch(Orientation(az, 60.0), 89.0, PD_AREA, 0.4) for az in (0, 90, 180, 270)
)


def aimed_beam(origin: Vec3, target: Vec3, w0=5e-6, wavelength=1550e-9) -> GaussianBeam:
    return GaussianBeam(w0, wavelength, 1.0, origin, (target - origin).normalized())


def los_oracle(ap, user, branches):
    """Brute force over every branch with raw formulas."""
    d = math.dist(ap, user)
    w_d = beam_radius(5e-6, 1550e-9, d)
    arrival = vunit(vsub(user, ap))
    best, best_idx = 0.0, None
    for idx, branch in enumerate(branches):
        n = branch_normal(branch.orientation.azimuth_deg, branch.orientation.elevation_deg)
        if incidence_deg(arrival, n) > branch.fov_half_angle_deg:
            continue
        r0 = math.sqrt(branch.pd_area / math.pi)
        captured = 1.0 - math.exp(-2.0 * r0 * r0 / (w_d * w_d))
        if captured > best:
            best, best_idx = captured, idx
    return best, best_idx


class TestAdrBranch:
    def test_validation(self):
        with pytest.raises(ValueError, match="pd_area"):
            AdrBranch(Orientation(0, 60), 25.0, 0.0, 0.4)
        with pytest.raises(ValueError, match="responsivity"):
            AdrBranch(Orientation(0, 60), 25.0, PD_AREA, 0.0)
        with pytest.raises(ValueError, match="fov_half_angle_deg"):
            AdrBranch(Orientation(0, 60), 0.0, PD_AREA, 0.4)
        with pytest.raises(ValueError, match="fov_half_angle_deg"):
            AdrBranch(Orientation(0, 60), 90.5, PD_AREA, 0.4)

    def test_normal_points_up(self):
        n = FOUR_BRANCHES[0].normal()
        assert n.z > 0
        assert n.is_unit()

    def test_aperture_radius(self):
        assert abs(FOUR_BRANCHES[0].aperture_radius() - math.sqrt(PD_AREA / math.pi)) < 1e-15


class TestChannelGain:
    def test_sum_enforced_exactly(self):
        ChannelGain(0.2, 0.1, 0.2 + 0.1, 0, 1)
        with pytest.raises(ValueError, match="exactly"):
            ChannelGain(0.2, 0.1, 0.3000001, 0, 1)

    def test_bounds(self):
        with pytest.raises(ValueError, match="h_los"):
            ChannelGain(1.2, 0.0, 1.2, 0, None)
        with pytest.raises(ValueError, match="h_nlos"):
            ChannelGain(0.0, -0.1, -0.1, None, 0)


class TestLosGain:
    def test_blocked_is_zero(self):
        ap, user = Vec3(2.5, 2.5, 3.0), Vec3(2.5, 2.5, 0.0)
        gain, branch = los_gain(ap, user, FOUR_BRANCHES, aimed_beam(ap, user), blocked=True)
        assert gain == 0.0 and branch is None

    def test_out_of_bounds_user(self):
        ap, user = Vec3(2.0, 2.0, 3.0), Vec3(4.5, 1.0, 0.0)
        with pytest.raises(ValueError, match="position out of bounds"):
            los_gain(ap, user, FOUR_BRANCHES, aimed_beam(ap, user), False, room_dims=(4.0, 4.0, 3.0))

    def test_vertical_path_gated_out_by_every_branch(self):
        # straight-down arrival meets every 60-deg branch at 30 deg > 25 deg FOV
        ap, user = Vec3(2.5, 2.5, 3.0), Vec3(2.5, 2.5, 0.0)
        gain, branch = los_gain(ap, user, FOUR_BRANCHES, aimed_beam(ap, user), False)
        assert gain == 0.0 and branch is None

    def test_side_branch_reaches_centre_user(self):
        # a branch displaced 0.3 m sees the centre user at 24.29 deg incidence
        ap, user = Vec3(2.8, 2.5, 3.0), Vec3(2.5, 2.5, 0.0)
        gain, branch = los_gain(ap, user, FOUR_BRANCHES, aimed_beam(ap, user), False)
        expected, expected_idx = los_oracle((2.8, 2.5, 3.0), (2.5, 2.5, 0.0), FOUR_BRANCHES)
        assert expected > 0.0
        assert branch == expected_idx == 0
        assert abs(gain - expected) < 1e-15

    def test_matches_branch_brute_force(self):
        rng = random.Random(21)
        room = (5.0, 5.0, 3.0)
        for _ in range(200):
            ap = Vec3(rng.uniform(1, 4), rng.uniform(1, 4), 3.0)
            user = Vec3(rng.uniform(0, 5), rng.uniform(0, 5), 0.0)
            gain, branch = los_gain(
                ap, user, FOUR_BRANCHES, aimed_beam(ap, user), False, room_dims=room
            )
            expected, expected_idx = los_oracle(ap.as_tuple(), user.as_tuple(), FOUR_BRANCHES)
            assert branch == expected_idx
            assert abs(gain - expected) < 1e-12

    def test_gain_in_unit_interval(self):
        rng = random.Random(22)
        for _ in range(200):
            ap = Vec3(rng.uniform(0, 5), rng.uniform(0, 5), 3.0)
            user = Vec3(rng.uniform(0, 5), rng.uniform(0, 5), 0.0)
            gain, _ = los_gain(ap, user, WIDE_BRANCHES, aimed_beam(ap, user), False)
            assert 0.0 <= gain <= 1.0


def steered_mirror(ap: Vec3, center: Vec3, user: Vec3, width=0.15, height=0.10, rho=0.95):
    normal = steer_mirror(ap, center, user)
    return MirrorElement(center, normal, width, height, rho)


class TestIrsGain:
    def test_dark_mirror(self):
        ap, center, user = Vec3(2.5, 2.5, 3.0), Vec3(2.5, 5.0, 1.5), Vec3(2.5, 4.2, 0.0)
        mirror = steered_mirror(ap, center, user, rho=0.0)
        gain, branch = irs_gain(ap, mirror, user, FOUR_BRANCHES, aimed_beam(ap, center))
        assert gain == 0.0 and branch is None

    def test_large_mirror_limit(self):
        # a mirror capturing the whole beam leaves rho * circle capture at d1 + d2
        ap, center, user = Vec3(2.5, 2.5, 3.0), Vec3(2.5, 5.0, 1.5), Vec3(2.5, 4.2, 0.0)
        mirror = steered_mirror(ap, center, user, width=1e6, height=1e6, rho=0.8)
        beam = aimed_beam(ap, center)
        gain, _ = irs_gain(ap, mirror, user, WIDE_BRANCHES, beam)
        d_total = ap.distance_to(center) + center.distance_to(user)
        expected = 0.8 * power_through_circle(
            GaussianBeam(5e-6, 1550e-9, 1.0, ap, beam.axis), math.sqrt(PD_AREA / math.pi), d_total
        )
        assert abs(gain - expected) < 1e-15

    def test_user_behind_mirror_plane(self):
        ap = Vec3(2.5, 2.5, 3.0)
        center = Vec3(2.5, 5.0, 1.5)
        mirror = MirrorElement(center, Vec3(0.0, -1.0, 0.0), 0.15, 0.10, 0.95)
        behind = Vec3(2.5, 5.0, 0.2)  # on the mirror plane: no forward component
        gain, branch = irs_gain(ap, mirror, behind, FOUR_BRANCHES, aimed_beam(ap, center))
        assert gain == 0.0 and branch is None

    def test_gated_out_everywhere_is_zero(self):
        # centre-floor user: reflected arrival reaches every branch beyond 25 deg
        ap, center, user = Vec3(2.5, 2.5, 3.0), Vec3(2.5, 5.0, 1.5), Vec3(2.5, 2.5, 0.0)
        mirror = steered_mirror(ap, center, user)
        gain, branch = irs_gain(ap, mirror, user, FOUR_BRANCHES, aimed_beam(ap, center))
        assert gain == 0.0 and branch is None

    @pytest.mark.parametrize(
        "user,fov_deg",
        [
            (Vec3(2.5, 4.2, 0.0), 25.0),
            (Vec3(1.8, 4.0, 0.0), 25.0),
            (Vec3(2.5, 2.5, 0.0), 40.0),
            (Vec3(3.4, 3.6, 0.0), 35.0),
        ],
    )
    def test_matches_two_bounce_quadrature_oracle(self, user, fov_deg):
        ap, center = Vec3(2.5, 2.5, 3.0), Vec3(2.5, 5.0, 1.5)
        branches = tuple(
            AdrBranch(Orientation(az, 60.0), fov_deg, PD_AREA, 0.4)
            for az in (0, 90, 180, 270)
        )
        mirror = steered_mirror(ap, center, user)
        gain, _ = irs_gain(ap, mirror, user, branches, aimed_beam(ap, center))
        expected = mirror_path_gain_oracle(
            ap.as_tuple(),
            center.as_tuple(),
            user.as_tuple(),
            0.15,
            0.10,
            0.95,
            5e-6,
            1550e-9,
            PD_AREA,
            [(az, 60.0) for az in (0, 90, 180, 270)],
            fov_deg,
        )
        assert expected > 0.0, "oracle case must exercise a nonzero path"
        assert abs(gain - expected) / expected < 1e-6

    def test_centre_user_oracle_agreement_even_when_gated(self):
        # the narrow-FOV centre-user case is zero on both routes
        ap, center, user = Vec3(2.5, 2.5, 3.0), Vec3(2.5, 5.0, 1.5), Vec3(2.5, 2.5, 0.0)
        mirror = steered_mirror(ap, center, user)
        gain, _ = irs_gain(ap, mirror, user, FOUR_BRANCHES, aimed_beam(ap, center))
        expected = mirror_path_gain_oracle(
            ap.as_tuple(), center.as_tuple(), user.as_tuple(),
            0.15, 0.10, 0.95, 5e-6, 1550e-9, PD_AREA,
            [(az, 60.0) for az in (0, 90, 180, 270)], 25.0,
        )
        assert gain == expected == 0.0

    def test_single_mirror_gain_below_reflectivity(self):
        rng = random.Random(23)
        ap = Vec3(2.5, 2.5, 3.0)
        for _ in range(200):
            center = Vec3(rng.uniform(0.5, 4.5), 5.0, rng.uniform(0.8, 2.2))
            user = Vec3(rng.uniform(0.5, 4.5), rng.uniform(0.5, 4.5), 0.0)
            mirror = steered_mirror(ap, center, user)
            gain, _ = irs_gain(ap, mirror, user, WIDE_BRANCHES, aimed_beam(ap, center))
            assert 0.0 <= gain <= 0.95

    def test_image_source_equivalence(self):
        checks.image_source(random.Random(24), 100)


class TestTotalGain:
    def test_no_mirror_path(self):
        g = total_gain(0.5, [])
        assert g.q == 0.5 and g.h_nlos == 0.0

    def test_blocked_direct_with_one_mirror(self):
        g = total_gain(0.0, [0.3])
        assert g.q == 0.3 and g.h_los == 0.0

    def test_additivity(self):
        g = total_gain(1e-4, [5e-5, 5e-5])
        assert g.q == 2e-4

    def test_contribution_bounds_enforced(self):
        with pytest.raises(ValueError, match="contribution"):
            total_gain(0.1, [0.2, 1.5])
        with pytest.raises(ValueError, match="h_los"):
            total_gain(-0.1, [])

    def test_bound_holds_per_beam_not_on_the_sum(self):
        # Each mirror's contribution is a fraction of its own beam.
        g = total_gain(0.0, [0.6, 0.6, 0.6])
        assert g.h_nlos == 0.6 + 0.6 + 0.6 and g.q == g.h_nlos
        with pytest.raises(ValueError, match="contribution 0"):
            total_gain(0.0, [1.2])

    def test_removing_contribution_never_increases_q(self):
        rng = random.Random(25)
        for _ in range(200):
            contributions = [rng.uniform(0, 0.01) for _ in range(rng.randint(0, 6))]
            h_los = rng.uniform(0, 0.01)
            full = total_gain(h_los, contributions).q
            for drop in range(len(contributions)):
                reduced = contributions[:drop] + contributions[drop + 1 :]
                assert total_gain(h_los, reduced).q <= full + 1e-18

    def test_contributions_add_in_order(self):
        # In order, 1.0 + 1e-16 rounds back to 1.0 twice; a compensated sum
        # (the builtin `sum` from Python 3.12 on) gives 1.0000000000000002.
        assert total_gain(0.0, [1.0, 1e-16, 1e-16]).h_nlos == 1.0

    def test_branches_recorded(self):
        g = total_gain(0.1, [0.05], los_branch=2, nlos_branch=1)
        assert g.serving_branch_los == 2
        assert g.serving_branch_nlos == 1
