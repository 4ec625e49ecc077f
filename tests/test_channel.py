import math
import random

import numpy as np
import pytest

from owcsim import checks
from owcsim.beam import GaussianBeam, power_through_circle, waist_at
from owcsim.channel import AdrBranch, ChannelGain
from owcsim.config import build_default_scenario
from owcsim.geometry import Orientation, Vec3
from owcsim.network import (
    Assignment,
    assign_mirrors,
    evaluate_scenario,
    evaluate_user,
    irs_gain_matrix,
    scenario_assignment,
)
from owcsim.reference import MirrorElement, irs_gain, los_gain, steer_mirror

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
    AdrBranch(Orientation(az, 60.0), 25.0, PD_AREA) for az in (0, 90, 180, 270)
)
WIDE_BRANCHES = tuple(
    AdrBranch(Orientation(az, 60.0), 89.0, PD_AREA) for az in (0, 90, 180, 270)
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
            AdrBranch(Orientation(0, 60), 25.0, 0.0)
        with pytest.raises(ValueError, match="fov_half_angle_deg"):
            AdrBranch(Orientation(0, 60), 0.0, PD_AREA)
        with pytest.raises(ValueError, match="fov_half_angle_deg"):
            AdrBranch(Orientation(0, 60), 90.5, PD_AREA)

    def test_normal_points_up(self):
        n = FOUR_BRANCHES[0].normal()
        assert n.z > 0
        assert abs(n.norm() - 1.0) <= 1e-12

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
        for _ in range(200):
            ap = Vec3(rng.uniform(1, 4), rng.uniform(1, 4), 3.0)
            user = Vec3(rng.uniform(0, 5), rng.uniform(0, 5), 0.0)
            gain, branch = los_gain(ap, user, FOUR_BRANCHES, aimed_beam(ap, user), False)
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
            AdrBranch(Orientation(az, 60.0), fov_deg, PD_AREA)
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


# The wide, short-wavelength beam spreads least: some users' mirrors sum past 1.
NARROW_SPREAD = {"adt": {"beam_waist_m": 2e-5, "wavelength_m": 3.5e-7}, "irs": {"grid_m": 10}}


class TestTotalGain:
    """The total gain q = h_los + h_nlos of each user's `ChannelGain`, as the
    network builds it: one fraction of its own beam per held mirror, added in
    mirror order."""

    def test_no_mirror_path(self):
        results = evaluate_scenario(build_default_scenario({"irs": {"enabled": False}}))
        assert any(r.gain.h_los > 0.0 for r in results)
        for result in results:
            g = result.gain
            assert g.q == g.h_los and g.h_nlos == 0.0 and g.serving_branch_nlos is None

    def test_blocked_direct_with_one_mirror(self):
        s = build_default_scenario(
            {"users": {"k": 1, "positions": [[2.5, 4.2, 0.0]], "blocked": [0]},
             "power": {"max_mirrors_per_user": 1}}
        )
        g = evaluate_scenario(s)[0].gain
        assert g.q == g.h_nlos > 0.0 and g.h_los == 0.0 and g.serving_branch_los is None

    def test_additivity(self):
        s = build_default_scenario({"irs": {"grid_m": 10}})
        gains, assignment = irs_gain_matrix(s), scenario_assignment(s)
        results = evaluate_scenario(s)
        assert any(r.gain.h_los > 0.0 and r.gain.h_nlos > 0.0 for r in results)
        for i, (result, held) in enumerate(zip(results, assignment.per_user)):
            h_nlos = 0.0
            for m in held:
                h_nlos += gains[i, m]
            assert result.gain.h_nlos == h_nlos
            assert result.gain.q == result.gain.h_los + h_nlos

    def test_contribution_bounds_enforced(self):
        s = build_default_scenario({"irs": {"grid_m": 10}})
        gains = irs_gain_matrix(s)
        # Each mirror passes at most its reflectivity of its own beam.
        assert gains.min() >= 0.0 and gains.max() <= s.irs.reflectivity
        negative = np.array(gains)
        negative[1, 2] = -0.1
        with pytest.raises(ValueError, match="nonnegative"):
            assign_mirrors(s, negative)
        with pytest.raises(ValueError, match="h_los"):
            ChannelGain(-0.1, 0.0, -0.1, None, None)

    def test_bound_holds_per_beam_not_on_the_sum(self):
        s = build_default_scenario(NARROW_SPREAD)
        assert irs_gain_matrix(s).max() <= 1.0
        assert max(r.gain.h_nlos for r in evaluate_scenario(s)) > 1.0

    def test_removing_contribution_never_increases_q(self):
        s = build_default_scenario(NARROW_SPREAD)
        per_user = scenario_assignment(s).per_user
        checked = 0
        for i, held in enumerate(per_user):
            full = evaluate_user(s, Assignment(per_user), i).gain.q
            for drop in range(min(len(held), 6)):
                reduced = held[:drop] + held[drop + 1 :]
                fewer = Assignment(per_user[:i] + (reduced,) + per_user[i + 1 :])
                assert evaluate_user(s, fewer, i).gain.q <= full + 1e-18
                checked += 1
        assert checked > 6

    def test_contributions_add_in_order(self):
        # In order, 1.0 + 1e-16 rounds back to 1.0 twice; a compensated sum
        # (the builtin `sum` from Python 3.12 on) gives 1.0000000000000002.
        s = build_default_scenario(
            {"users": {"k": 1, "positions": [[2.5, 4.2, 0.0]]}, "irs": {"grid_m": 2}}
        )
        planted = (np.array([[1.0, 1e-16, 1e-16, 0.0]]), np.zeros((1, 4), dtype=int))
        vars(s)["mirror_table"] = planted
        assert evaluate_user(s, Assignment(((0, 1, 2),)), 0).gain.h_nlos == 1.0

    def test_branches_recorded(self):
        s = build_default_scenario({"irs": {"grid_m": 10}})
        direct, mirror = s.direct_table[1], s.mirror_table[1]
        gains, assignment = irs_gain_matrix(s), scenario_assignment(s)
        for i, result in enumerate(evaluate_scenario(s)):
            los = direct[i, s.serving_branches[i]]
            assert result.gain.serving_branch_los == (None if los < 0 else los)
            held = assignment.per_user[i]
            best = max(held, key=lambda m: (gains[i, m], -m)) if held else None
            nlos = None if best is None else mirror[i, best]
            assert result.gain.serving_branch_nlos == nlos
