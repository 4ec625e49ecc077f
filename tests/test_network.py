import hashlib
import math
import random
import re
import sys
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

import owcsim.network
from owcsim import checks
from owcsim.config import (
    DEFAULT_SNR_POINTS_DB,
    OutputSpec,
    SweepSpec,
    build_default_scenario,
    parse_config,
)
from owcsim.geometry import Vec3
from owcsim.link import (
    NoiseParams,
    achievable_rate,
    noise_variance,
    sinr,
    sum_rate,
    thermal_noise_variance,
)
from owcsim.network import (
    _WALLS,
    Assignment,
    IrsPanel,
    UserSpec,
    assign_mirrors,
    build_irs_panel,
    default_adr_branches,
    evaluate_scenario,
    evaluate_user,
    irs_gain_matrix,
    place_users_uniform,
    power_for_transmit_snr,
    scenario_assignment,
    simulate_scenario,
    sweep_snr,
    sweep_users,
    transmit_snr_db,
    with_irs_grid,
    without_irs,
)

from owcsim.output import ResultRow, ResultTable
from owcsim.reference import serving_branch_index
from owcsim.schema import SCHEMA

from oracles import best_matching_value, user_gain_oracle

ROOM = (5.0, 5.0, 3.0)


class TestBuildDefaultScenario:
    def test_defaults(self):
        s = build_default_scenario(None)
        assert s.room_dims == ROOM
        assert s.adt.center_pos == Vec3(2.5, 2.5, 3.0)
        assert s.adt.side_offset == 0.3
        # The centre, then 0.3 m along +x, +y, -x and -y (cos 90 deg is 6e-17).
        positions = [p.as_tuple() for p in s.adt.branch_positions()]
        want = [(2.5, 2.5, 3.0), (2.8, 2.5, 3.0), (2.5, 2.8, 3.0), (2.2, 2.5, 3.0), (2.5, 2.2, 3.0)]
        assert len(positions) == 5
        assert np.allclose(positions, want, rtol=0.0, atol=1e-15)
        assert s.adt.beam_waist == 5e-6
        assert s.adt.beam_wavelength == 1.55e-6
        assert s.irs is not None
        assert s.irs.grid_m == 5
        assert s.irs.wall == "y_max"
        assert s.irs.panel_center == Vec3(2.5, 5.0, 1.5)
        assert s.irs.reflectivity == 0.95
        assert s.irs.element_size == (0.15, 0.10)
        assert len(s.users) == 4
        for user in s.users:
            assert user.position.z == 0.0
            assert len(user.branches) == 4
            assert user.branches[0].pd_area == 2.0e-5
            assert user.branches[0].fov_half_angle_deg == 25.0
            assert {b.orientation.azimuth_deg for b in user.branches} == {0, 90, 180, 270}
            assert all(b.orientation.elevation_deg == 60.0 for b in user.branches)
        assert s.responsivity == 0.4
        assert s.noise.bandwidth_b == 1.5e9
        assert s.p_tot == 0.01

    def test_responsivity_must_be_positive(self):
        s = build_default_scenario(None)
        for value in (0.0, -0.4, math.nan):
            message = r"users\.responsivity_a_per_w must be a number in \[0\.01, 1\.5\], got"
            with pytest.raises(ValueError, match=message):
                replace(s, responsivity=value)

    def test_override_user_count(self):
        s = build_default_scenario({"users": {"k": 8}})
        assert len(s.users) == 8
        for user in s.users:
            assert 0.0 <= user.position.x <= 5.0
            assert 0.0 <= user.position.y <= 5.0

    def test_override_out_of_room_user(self):
        with pytest.raises(ValueError, match="position out of bounds"):
            build_default_scenario(
                {
                    "room": {"dims": [4.0, 4.0, 3.0]},
                    "users": {"k": 1, "positions": [[4.5, 1.0, 0.0]]},
                }
            )

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ValueError, match="unknown config key: noise.bandwidt"):
            build_default_scenario({"noise": {"bandwidt": 1.0}})

    def test_invalid_bandwidth_names_field(self):
        with pytest.raises(ValueError, match="noise.bandwidth_b"):
            build_default_scenario({"noise": {"bandwidth_b": -1}})

    def test_irs_grid_override(self):
        s = build_default_scenario({"irs": {"grid_m": 10}})
        assert s.irs.grid_m == 10
        assert len(s.irs.elements) == 100

    def test_irs_disabled(self):
        s = build_default_scenario({"irs": {"enabled": False}})
        assert s.irs is None

    def test_power_above_cap_rejected(self):
        with pytest.raises(ValueError, match="eye_safety_cap"):
            build_default_scenario({"power": {"p_tot_w": 2.0, "eye_safety_cap_w": 1.0}})

    def test_blocked_indices_validated(self):
        s = build_default_scenario({"users": {"blocked": [1, 3]}})
        assert [u.blocked for u in s.users] == [False, True, False, True]
        with pytest.raises(ValueError, match="users.blocked"):
            build_default_scenario({"users": {"blocked": [9]}})


def _row(key: str):
    """The `Number` or `Integer` that checks a key's value, or its entries'."""
    check = SCHEMA[key][1]
    check = getattr(check, "check", check)  # a Nullable's own check
    return getattr(check, "item", check)  # a ListOf's entry check


def _below(key: str) -> float:
    return math.nextafter(_row(key).lo, -math.inf)


def _above(key: str) -> float:
    return math.nextafter(_row(key).hi, math.inf)


def _with_receiver(s, **fields):
    branches = default_adr_branches(**fields)
    return replace(s, users=tuple(replace(user, branches=branches) for user in s.users))


class TestLibraryBuiltValuesAreFinite:
    """A value built in code, where no config check ran, is held to its key's
    SCHEMA row, NaN included, and the error is the document's own. Before,
    a NaN waist gave all-zero rates, NaN noise gave NaN rates, and a NaN cap
    switched the eye-safety cap off."""

    # Per key: how a value reaches the type that holds it, and one finite value
    # outside the row (one nextafter past a bound, the next integer past it, or
    # a choice the row does not offer).
    CHANGES = {
        "adt.beam_waist_m": lambda s, v: replace(s.adt, beam_waist=v),
        "adt.wavelength_m": lambda s, v: replace(s.adt, beam_wavelength=v),
        "adt.side_offset_m": lambda s, v: replace(s.adt, side_offset=v),
        "irs.wall": lambda s, v: replace(s.irs, wall=v),
        "irs.grid_m": lambda s, v: replace(s.irs, grid_m=v),
        "irs.element_width_m": lambda s, v: replace(s.irs, element_size=(v, 0.1)),
        "irs.element_height_m": lambda s, v: replace(s.irs, element_size=(0.15, v)),
        "irs.reflectivity": lambda s, v: replace(s.irs, reflectivity=v),
        "noise.rin_db_per_hz": lambda s, v: replace(s.noise, rin_db_per_hz=v),
        "noise.noise_current_density": lambda s, v: replace(s.noise, noise_current_density=v),
        "noise.tia_noise_figure_db": lambda s, v: replace(s.noise, tia_noise_figure_db=v),
        "noise.bandwidth_b": lambda s, v: replace(s.noise, bandwidth_b=v),
        "power.p_tot_w": lambda s, v: replace(s, p_tot=v),
        "power.eye_safety_cap_w": lambda s, v: replace(s, eye_safety_cap=v),
        "power.max_mirrors_per_user": lambda s, v: replace(s, max_mirrors_per_user=v),
        "room.dims": lambda s, v: replace(s, room_dims=(5.0, v, 3.0)),
        "seed": lambda s, v: replace(s, rng_seed=v),
        "users.k": lambda s, v: replace(s, users=s.users[:1] * v),
        "users.responsivity_a_per_w": lambda s, v: replace(s, responsivity=v),
        "users.pd_area_m2": lambda s, v: _with_receiver(s, pd_area=v),
        "users.fov_deg": lambda s, v: _with_receiver(s, fov_deg=v),
        "sweep.snr_points_db": lambda s, v: SweepSpec(snr_points_db=(v,)),
        "sweep.k_values": lambda s, v: SweepSpec(k_values=(v,)),
        "output.svg": lambda s, v: OutputSpec(svg=v),
    }
    OUTSIDE = {
        "adt.beam_waist_m": _below("adt.beam_waist_m"),
        "adt.wavelength_m": _above("adt.wavelength_m"),
        "adt.side_offset_m": _above("adt.side_offset_m"),
        "irs.wall": "z_max",
        "irs.grid_m": _row("irs.grid_m").hi + 1,
        "irs.element_width_m": _above("irs.element_width_m"),
        "irs.element_height_m": _below("irs.element_height_m"),
        "irs.reflectivity": _above("irs.reflectivity"),
        "noise.rin_db_per_hz": _above("noise.rin_db_per_hz"),
        "noise.noise_current_density": _below("noise.noise_current_density"),
        "noise.tia_noise_figure_db": _above("noise.tia_noise_figure_db"),
        "noise.bandwidth_b": _above("noise.bandwidth_b"),
        "power.p_tot_w": _below("power.p_tot_w"),
        "power.eye_safety_cap_w": _above("power.eye_safety_cap_w"),
        "power.max_mirrors_per_user": _row("power.max_mirrors_per_user").lo - 1,
        "room.dims": _below("room.dims"),
        "seed": _row("seed").lo - 1,
        "users.k": _row("users.k").lo - 1,
        "users.responsivity_a_per_w": _above("users.responsivity_a_per_w"),
        "users.pd_area_m2": _above("users.pd_area_m2"),
        # Below the row, not above: AdrBranch refuses more than 90 deg itself.
        "users.fov_deg": _below("users.fov_deg"),
        "sweep.snr_points_db": _above("sweep.snr_points_db"),
        "sweep.k_values": _row("sweep.k_values").lo - 1,
        "output.svg": 1,
    }
    # How a document writes each key's value, where that is not the value itself.
    IN_DOCUMENT = {
        "room.dims": lambda v: [5.0, v, 3.0],
        "sweep.snr_points_db": lambda v: [v],
        "sweep.k_values": lambda v: [v],
    }

    # A user count is never a float, and the kernel's AdrBranch refuses a NaN
    # photodiode area or field of view before any row is read.
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "key", sorted(set(CHANGES) - {"users.k", "users.pd_area_m2", "users.fov_deg"})
    )
    def test_nonfinite_value_rejected_naming_its_key(self, key, value):
        with pytest.raises(ValueError, match=re.escape(key)):
            self.CHANGES[key](build_default_scenario(None), value)

    @pytest.mark.parametrize("key", sorted(CHANGES))
    def test_a_value_outside_its_row_gets_the_document_message(self, key):
        value = self.OUTSIDE[key]
        with pytest.raises(ValueError) as built:
            self.CHANGES[key](build_default_scenario(None), value)
        section, _, name = key.rpartition(".")
        written = self.IN_DOCUMENT.get(key, lambda v: v)(value)
        with pytest.raises(ValueError) as parsed:
            parse_config({section: {name: written}} if section else {name: written})
        assert str(built.value) == str(parsed.value)
        assert str(built.value).startswith(key)

    def test_noise_figure_below_zero_rejected(self):
        message = r"^noise\.tia_noise_figure_db must be a number in \[0, 30\], got -1\.0$"
        with pytest.raises(ValueError, match=message):
            NoiseParams(tia_noise_figure_db=-1.0)

    @pytest.mark.parametrize(
        "fields, first",
        [
            ({"noise_current_density": 1e150}, "noise_current_density"),  # density^2 overflows
            ({"tia_noise_figure_db": 3100.0}, "tia_noise_figure_db"),  # 10 ** 310 overflows
            ({"noise_current_density": 1e10, "bandwidth_b": 1e300}, "noise_current_density"),
            ({"noise_current_density": 0.0}, "noise_current_density"),  # no floor at all
            ({"noise_current_density": 1e-170}, "noise_current_density"),  # density^2 underflows
        ],
        ids=["density", "noise-figure", "bandwidth", "zero-density", "underflow"],
    )
    def test_thermal_floor_zero_or_past_the_float_range_rejected_naming_its_keys(
        self, fields, first
    ):
        # Each of these floors is refused by the first row its fields leave.
        key = f"noise.{first}"
        message = f"{key} must be a {SCHEMA[key][1]}, got {fields[first]!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            NoiseParams(**fields)

    def test_thermal_floor_is_positive_and_finite_at_every_corner_of_the_noise_rows(self):
        # density^2 x bandwidth x 10^(NF/10) is monotone in each key, so its
        # corners bound it over the rows, and NoiseParams needs no check of
        # its own. The bounds are read from SCHEMA: a row edit reruns this.
        keys = ("noise_current_density", "tia_noise_figure_db", "bandwidth_b")
        corners = product(*((_row(f"noise.{key}").lo, _row(f"noise.{key}").hi) for key in keys))
        floors = [thermal_noise_variance(NoiseParams(**dict(zip(keys, c)))) for c in corners]
        assert len(floors) == 8
        assert all(0.0 < floor < math.inf for floor in floors), floors


class TestIrsPanel:
    def test_five_by_five_extent(self):
        panel = build_irs_panel(ROOM, grid_m=5)
        assert len(panel.elements) == 25
        xs = sorted({m.center.x for m in panel.elements})
        zs = sorted({m.center.z for m in panel.elements})
        assert xs[0] == pytest.approx(2.5 - 2 * 0.15)
        assert xs[-1] == pytest.approx(2.5 + 2 * 0.15)
        assert zs[0] == pytest.approx(1.5 - 2 * 0.10)
        assert zs[-1] == pytest.approx(1.5 + 2 * 0.10)
        assert all(m.center.y == 5.0 for m in panel.elements)
        assert all(m.normal == Vec3(0.0, -1.0, 0.0) for m in panel.elements)

    def test_ten_by_ten_tiles_1500_by_1000_mm(self):
        panel = build_irs_panel(ROOM, grid_m=10)
        xs = [m.center.x for m in panel.elements]
        zs = [m.center.z for m in panel.elements]
        assert max(xs) - min(xs) == pytest.approx(1.5 - 0.15)
        assert max(zs) - min(zs) == pytest.approx(1.0 - 0.10)

    def test_no_overlap(self):
        panel = build_irs_panel(ROOM, grid_m=5)
        centers = {(round(m.center.x, 9), round(m.center.z, 9)) for m in panel.elements}
        assert len(centers) == 25

    def test_oversized_panel_rejected(self):
        # 40 x 0.15 m is wider than the 5 m wall, however the panel reaches the scenario.
        message = "exceeds the wall extent along its width: irs.grid_m"
        with pytest.raises(ValueError, match=message):
            with_irs_grid(build_default_scenario(None), 40)
        with pytest.raises(ValueError, match=message):
            build_default_scenario({"irs": {"grid_m": 40}})

    @pytest.mark.parametrize(
        "panel, message",
        [
            # Mirror centres from x = -1.175 m to 6.175 m in a 5 m room.
            (
                IrsPanel("y_max", 50, (0.15, 0.10), 0.95, Vec3(2.5, 5.0, 1.5)),
                r"along its width: irs\.grid_m x irs\.element_width_m",
            ),
            (
                IrsPanel("x_min", 5, (0.15, 0.10), 0.95, Vec3(0.0, 2.5, 2.9)),
                r"along its height: irs\.grid_m x irs\.element_height_m",
            ),
            (
                IrsPanel("y_max", 5, (0.15, 0.10), 0.95, Vec3(2.5, 3.0, 1.5)),
                r"off the plane of its wall: irs\.wall y_max",
            ),
            (
                IrsPanel("y_max", 5, (0.15, 0.10), 0.95, Vec3(math.nan, 5.0, 1.5)),
                r"along its width: irs\.grid_m",
            ),
        ],
    )
    def test_scenario_rejects_a_panel_that_leaves_its_wall(self, panel, message):
        with pytest.raises(ValueError, match=message):
            replace(build_default_scenario(None), irs=panel)

    @pytest.mark.parametrize("wall", sorted(_WALLS))
    def test_every_wall_takes_its_own_plane_only(self, wall):
        s = build_default_scenario(None)
        panel = build_irs_panel(ROOM, wall, 3)
        assert replace(s, irs=panel).irs is panel
        for step in (0.1, -0.1):
            moved = replace(panel, panel_center=panel.panel_center + _WALLS[wall][0].scaled(step))
            with pytest.raises(ValueError, match="off the plane of its wall"):
                replace(s, irs=moved)

    def test_a_panel_flush_with_the_wall_edges_fits(self):
        # build_irs_panel's fit arithmetic: half a panel is grid_m * size / 2.
        s = build_default_scenario(None)
        for along, height in ((0.375, 0.25), (5.0 - 0.375, 3.0 - 0.25)):
            panel = build_irs_panel(ROOM, "y_min", 5, center_height=height, center_along=along)
            assert replace(s, irs=panel).irs.center_along == along

    def test_other_walls(self):
        panel = build_irs_panel(ROOM, wall="x_min", grid_m=3)
        assert all(m.center.x == 0.0 for m in panel.elements)
        assert all(m.normal == Vec3(1.0, 0.0, 0.0) for m in panel.elements)


class TestPlaceUsers:
    def test_deterministic(self):
        a = place_users_uniform(6, ROOM, seed=42)
        b = place_users_uniform(6, ROOM, seed=42)
        assert a == b

    def test_prefix_stable(self):
        for seed in (9, 0, 2**32, 2**200 + 7):
            longest = place_users_uniform(40, ROOM, seed)
            for k in (1, 2, 3, 8, 17, 39):
                short = place_users_uniform(k, ROOM, seed)
                assert place_users_uniform(k + 1, ROOM, seed)[:k] == short == longest[:k]

    def test_single_user_in_bounds(self):
        (pos,) = place_users_uniform(1, ROOM, seed=0)
        assert 0.0 <= pos.x <= 5.0 and 0.0 <= pos.y <= 5.0 and pos.z == 0.0

    def test_mean_near_room_centre(self):
        # mean of 10^4 uniforms on [0, 5]: sigma_mean = (5/sqrt(12))/100
        positions = place_users_uniform(10_000, ROOM, seed=123)
        three_sigma = 3.0 * (5.0 / math.sqrt(12.0)) / 100.0
        mean_x = sum(p.x for p in positions) / len(positions)
        mean_y = sum(p.y for p in positions) / len(positions)
        assert abs(mean_x - 2.5) < three_sigma
        assert abs(mean_y - 2.5) < three_sigma

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            place_users_uniform(0, ROOM, seed=1)

    @pytest.mark.parametrize("seed", [*range(200), 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 7])
    def test_equals_numpy_default_rng_scaled_by_the_room(self, seed):
        room = (4.0, 7.5, 3.0)
        for k in (1, 4, 8, 1000):
            draws = np.random.default_rng(seed).random((k, 2)).tolist()
            want = [Vec3(u * room[0], v * room[1], 0.8) for u, v in draws]
            assert place_users_uniform(k, room, seed, 0.8) == want

    @pytest.mark.parametrize(
        "seed", [np.int64(5), np.uint32(2**32 - 1), np.uint64(2**64 - 1), np.int8(0)]
    )
    def test_numpy_integer_seed_equals_the_python_int(self, seed):
        assert place_users_uniform(6, ROOM, seed) == place_users_uniform(6, ROOM, int(seed))

    @pytest.mark.parametrize("seed", [-1, -(2**64), np.int64(-3)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            place_users_uniform(2, ROOM, seed)

    @pytest.mark.parametrize("seed", [None, 7.0, np.float64(7.0), "7", [7]])
    def test_non_integer_seed_rejected(self, seed):
        # No OS entropy: an unseeded placement could not be reproduced.
        with pytest.raises(TypeError):
            place_users_uniform(2, ROOM, seed)


class TestAssignMirrors:
    def scenario_with_users(self, k):
        return build_default_scenario({"users": {"k": k}})

    def test_worked_two_by_two(self):
        s = self.scenario_with_users(2)
        assignment = assign_mirrors(s, [[2.0, 1.0], [1.0, 3.0]], max_per_user=1)
        assert assignment.per_user == ((0,), (1,))
        total = 2.0 + 3.0
        assert best_matching_value([[2.0, 1.0], [1.0, 3.0]]) == total

    def test_all_zero_gains(self):
        s = self.scenario_with_users(2)
        assignment = assign_mirrors(s, [[0.0, 0.0], [0.0, 0.0]], max_per_user=1)
        assert assignment.per_user == ((), ())

    def test_single_user_unlimited_takes_every_positive_mirror(self):
        s = self.scenario_with_users(1)
        assignment = assign_mirrors(s, [[0.5, 0.0, 0.2, 0.9]], max_per_user=None)
        assert assignment.per_user == ((0, 2, 3),)

    def test_dimension_mismatch(self):
        s = self.scenario_with_users(2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            assign_mirrors(s, [[1.0, 2.0]], max_per_user=1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            assign_mirrors(s, [[1.0, 2.0], [1.0]], max_per_user=1)

    def test_negative_gain_rejected(self):
        s = self.scenario_with_users(1)
        with pytest.raises(ValueError, match="nonnegative"):
            assign_mirrors(s, [[-0.1]], max_per_user=1)

    def test_disjoint_and_capped_on_random_instances(self):
        rng = random.Random(41)
        for _ in range(100):
            n_users = rng.randint(1, 4)
            n_mirrors = rng.randint(1, 8)
            cap = rng.choice([1, 2, None])
            s = self.scenario_with_users(n_users)
            gains = [[rng.random() for _ in range(n_mirrors)] for _ in range(n_users)]
            assignment = assign_mirrors(s, gains, max_per_user=cap)
            flat = [m for row in assignment.per_user for m in row]
            assert len(flat) == len(set(flat))
            if cap is not None:
                assert all(len(row) <= cap for row in assignment.per_user)

    def test_greedy_at_least_half_of_optimum(self):
        rng = random.Random(42)
        for _ in range(200):
            n_users = rng.randint(1, 4)
            n_mirrors = rng.randint(1, 8)
            s = self.scenario_with_users(n_users)
            gains = [[rng.random() for _ in range(n_mirrors)] for _ in range(n_users)]
            assignment = assign_mirrors(s, gains, max_per_user=1)
            greedy = sum(gains[u][m] for u, row in enumerate(assignment.per_user) for m in row)
            optimum = best_matching_value(gains)
            assert greedy >= 0.5 * optimum - 1e-12

    def test_nan_gain_rejected(self):
        s = self.scenario_with_users(2)
        with pytest.raises(ValueError, match=r"nonnegative, got nan at \(1, 0\)"):
            assign_mirrors(s, np.array([[0.5, 0.2], [math.nan, 0.1]]))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_gain_rejected(self, bad):
        s = self.scenario_with_users(2)
        with pytest.raises(ValueError, match=rf"nonnegative, got {bad} at \(0, 0\)"):
            assign_mirrors(s, [[bad, 0.1], [0.2, 0.3]])
        with pytest.raises(ValueError, match=rf"nonnegative, got {bad} at \(0, 0\)"):
            assign_mirrors(s, [[bad, 0.1], [0.2, 0.3]], max_per_user=1)

    def test_three_dimensional_gains_rejected(self):
        s = self.scenario_with_users(2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            assign_mirrors(s, np.zeros((2, 3, 2)))

    def test_list_and_array_inputs_agree_with_planted_ties(self):
        rng = random.Random(43)
        for _ in range(200):
            n_users = rng.randint(1, 5)
            n_mirrors = rng.randint(0, 9)
            levels = [0.0, 0.25, 0.5, rng.random()]  # few values, so many ties
            gains = [[rng.choice(levels) for _ in range(n_mirrors)] for _ in range(n_users)]
            cap = rng.choice([1, 2, 3, None])
            s = self.scenario_with_users(n_users)
            from_list = assign_mirrors(s, gains, max_per_user=cap)
            from_array = assign_mirrors(s, np.array(gains).reshape(n_users, n_mirrors), cap)
            assert from_list == from_array
            # Ties go to the lowest (user, mirror): replay the greedy by hand.
            entries = sorted(
                (-g, u, m) for u, row in enumerate(gains) for m, g in enumerate(row) if g > 0.0
            )
            taken, expected = set(), [[] for _ in gains]
            for _, u, m in entries:
                if m not in taken and (cap is None or len(expected[u]) < cap):
                    taken.add(m)
                    expected[u].append(m)
            assert from_list.per_user == tuple(tuple(sorted(m)) for m in expected)

    def test_uncapped_equals_greedy_with_a_cap_of_every_mirror(self):
        # Gains from {0, 0.25, 0.5} force ties, and one column is all zero.
        rng = random.Random(44)
        for _ in range(300):
            n_users, n_mirrors = rng.randint(1, 6), rng.randint(1, 12)
            gains = np.array(
                [[rng.choice((0.0, 0.25, 0.5)) for _ in range(n_mirrors)] for _ in range(n_users)]
            )
            gains[:, rng.randrange(n_mirrors)] = 0.0
            s = self.scenario_with_users(n_users)
            uncapped = assign_mirrors(s, gains, max_per_user=None)
            greedy = assign_mirrors(s, gains, max_per_user=n_mirrors)
            assert uncapped == greedy
            assert uncapped.owner.tolist() == greedy.owner.tolist()

    def test_owner_vector_matches_per_user(self):
        s = self.scenario_with_users(3)
        gains = [[0.5, 0.0, 0.25, 0.5], [0.5, 0.0, 0.5, 0.25], [0.0, 0.0, 0.0, 0.5]]
        for cap in (None, 1, 2):
            assignment = assign_mirrors(s, gains, max_per_user=cap)
            owner = assignment.owner.tolist()
            assert len(owner) == 4 and owner[1] == -1
            assert assignment.per_user == tuple(
                tuple(m for m in range(4) if owner[m] == u) for u in range(3)
            )
            assert not assignment.owner.flags.writeable
        assert assign_mirrors(s, gains).per_user == ((0, 3), (2,), ())

    def test_constructed_assignment_copies_its_owner_vector(self):
        given = np.array([-1, 0, 2, -1, 0])
        assignment = Assignment(given, 3)
        given[0] = 1
        assert assignment.owner.tolist() == [-1, 0, 2, -1, 0]
        assert assignment.owner.dtype == np.intp and not assignment.owner.flags.writeable
        assert assignment.per_user == ((1, 4), (), (2,))
        assert Assignment([], 2).per_user == ((), ())
        assert assignment == Assignment([-1, 0, 2, -1, 0], 3)
        assert assignment != Assignment([-1, 0, 2, -1, 0], 4)
        assert assignment != Assignment([-1, 0, 2, -1, 1], 3)

    @pytest.mark.parametrize(
        "owner, users, first",
        [([0, 3, -1, 5], 3, "owner[1] must be a user in [-1, 3), got 3"),
         ([0, -1, -2], 2, "owner[2] must be a user in [-1, 2), got -2"),
         ([0], 0, "owner[0] must be a user in [-1, 0), got 0")],
    )
    def test_owner_outside_the_users_rejected_naming_the_first_mirror(self, owner, users, first):
        with pytest.raises(ValueError, match=re.escape(first)):
            Assignment(owner, users)

    @pytest.mark.parametrize(
        "owner, users", [([0.0, 1.0], 2), ([[0, 1]], 2), ([True, False], 2), ([0], -1)]
    )
    def test_owner_not_an_integer_vector_rejected(self, owner, users):
        with pytest.raises(ValueError, match="owner must be an integer vector"):
            Assignment(owner, users)

    def test_evaluation_rejects_an_assignment_of_another_wall(self):
        s = build_default_scenario({"users": {"k": 2}})
        with pytest.raises(ValueError, match="must cover 25 mirrors and 2 users"):
            evaluate_user(s, Assignment([0, 1], 2), 0)
        with pytest.raises(ValueError, match="must cover 25 mirrors and 2 users"):
            evaluate_user(s, Assignment([-1] * 25, 3), 0)


def _wall_scale_scene(seed, grid_m=30, users=16):
    rng = random.Random(seed)
    positions = [[rng.uniform(0.05, 4.95), rng.uniform(0.05, 4.95), 0.0] for _ in range(users)]
    return build_default_scenario(
        {"irs": {"grid_m": grid_m}, "users": {"k": users, "positions": positions}}
    )


class TestOwnerVectorGains:
    """Column argmax plus one bincount against the per-mirror loop."""

    SCENES = [("default-5x5", 5, None), ("default-10x10", 10, None)] + [
        (f"30x30-seed{seed}", 30, seed) for seed in range(40)
    ]

    @pytest.mark.parametrize("name, grid_m, seed", SCENES, ids=[scene[0] for scene in SCENES])
    def test_gains_equal_the_per_mirror_oracle_bitwise(self, name, grid_m, seed):
        if seed is None:
            s = build_default_scenario({"irs": {"grid_m": grid_m}})
        else:
            s = _wall_scale_scene(seed, grid_m)
        gains = irs_gain_matrix(s)
        assignment = scenario_assignment(s)
        # Each mirror's best user, the lowest index on a tie; a zero column to nobody.
        assert assignment == assign_mirrors(s, gains, max_per_user=gains.shape[1])
        results = evaluate_scenario(s)
        held = 0
        for i, g in enumerate(results):
            got = (g.h_los, g.h_nlos, g.q, g.serving_branch_los, g.serving_branch_nlos)
            assert got == user_gain_oracle(s, assignment.per_user, i), i
            assert evaluate_user(s, assignment, i) == g
            held += bool(assignment.per_user[i])
        assert held >= 1


class TestPerUserOnRead:
    """`Assignment.per_user` is built only when read, and reads as before."""

    # sha256 of `repr(per_user)` on 30x30-wall, 16-user scenes, taken from the
    # assignment that built `per_user` eagerly; 20 caps every user's mirrors.
    DIGESTS = {
        (0, None): "c7d7c47e34e296d145e1a8c1a8cae7c0b75f5fe747a0002113c18d0309aed850",
        (0, 20): "58964701467d8cdffde195ea31d2bbdb746afc39b9d17d6d1618ae71fa9a1e60",
        (1, None): "3159edeacaca56abc85adbc477c0cbfd4bf05bfc5ec03412d62eaadc9f5fec01",
        (1, 20): "541961f403c4a79e9fee751a1efb3b2c5fbe73b7f478044b120a33802dbf450d",
        (2, None): "8446d90d306cc52552ae3f993b80e803bec3b5e5781daddf735f50822d22d9a8",
        (2, 20): "c47b163ac79f70f6096fa400c957c00b5ddfb9b40296f0fb4f481243f30f9221",
    }

    @pytest.mark.parametrize("seed, cap", sorted(DIGESTS, key=str))
    def test_wall_scale_per_user_is_unchanged(self, seed, cap):
        s = replace(_wall_scale_scene(seed), max_mirrors_per_user=cap)
        per_user = scenario_assignment(s).per_user
        assert hashlib.sha256(repr(per_user).encode()).hexdigest() == self.DIGESTS[seed, cap]
        assert all(type(m) is int for row in per_user for m in row)

    @pytest.mark.parametrize(
        "run",
        [
            evaluate_scenario,
            simulate_scenario,
            lambda s: sweep_snr(s, [70.0, 90.0]),
            lambda s: sweep_users(s, [1, 3]),
        ],
        ids=["evaluate_scenario", "simulate_scenario", "sweep_snr", "sweep_users"],
    )
    @pytest.mark.parametrize("cap", [None, 2])
    def test_evaluation_builds_no_per_user(self, monkeypatch, run, cap):
        built = []
        original = owcsim.network.assign_mirrors

        def capture(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(owcsim.network, "assign_mirrors", capture)
        run(build_default_scenario({"power": {"max_mirrors_per_user": cap}}))
        assert built and any((a.owner >= 0).any() for a in built)
        assert all("per_user" not in vars(a) for a in built)


class TestEvaluateUser:
    def test_blocked_user_without_mirrors_has_zero_rate(self):
        s = build_default_scenario(
            {"users": {"k": 1, "positions": [[2.5, 2.5, 0.0]], "blocked": [0]},
             "irs": {"enabled": False}}
        )
        result = evaluate_user(s, Assignment([], 1), 0)
        assert result.rate == 0.0
        assert result.sinr == 0.0
        assert result.q == 0.0

    def test_blocked_user_with_one_mirror_recovers(self):
        # wall-adjacent blocked user: one reflected path alone carries the link
        s = build_default_scenario(
            {
                "users": {"k": 1, "positions": [[2.5, 4.2, 0.0]], "blocked": [0]},
                "power": {"max_mirrors_per_user": 1},
            }
        )
        results = evaluate_scenario(s)
        assert results[0].h_los == 0.0
        assert results[0].h_nlos > 0.0
        assert results[0].rate > 0.0

    def test_centre_user_rate_matches_hand_chain(self):
        # served by a side branch 0.3 m off centre: d = sqrt(9.09) m, and the
        # hand-evaluated chain gives 1.9887382175e9 bit/s at 10 mW
        s = build_default_scenario(
            {"users": {"k": 1, "positions": [[2.5, 2.5, 0.0]]}, "irs": {"enabled": False}}
        )
        result = evaluate_user(s, Assignment([], 1), 0)
        assert abs(result.q - 1.4384386899e-4) / 1.4384386899e-4 < 1e-9
        assert abs(result.rate - 1.9887382175e9) / 1.9887382175e9 < 1e-9
        assert abs(result.rate - 2.0e9) / 2.0e9 < 0.02

    def test_rate_zero_iff_sinr_zero(self):
        s = build_default_scenario(None)
        for result in evaluate_scenario(s):
            assert (result.rate == 0.0) == (result.sinr == 0.0)

    def test_received_power_is_q_times_p_tot(self):
        # Every beam carries p_tot, so the power behind the noise is the
        # power behind the signal (R q p_tot)^2, for mirror-served users too.
        s = build_default_scenario({"irs": {"grid_m": 10}})
        results = evaluate_scenario(s)
        assert any(r.h_nlos > 0.0 for r in results)
        for result in results:
            assert result.received_optical_power == result.q * s.p_tot

    def test_standalone_call_matches_scenario_evaluation(self):
        s = build_default_scenario({"irs": {"grid_m": 10}})
        assignment = scenario_assignment(s)
        results = evaluate_scenario(s)
        for i in range(len(s.users)):
            assert evaluate_user(s, assignment, i) == results[i]

    def test_evaluate_scenario_runs_each_kernel_and_no_scalar_direct_path(self, monkeypatch):
        # Both gain tables, receiver branches included, come from the
        # vectorised kernels; no scalar reference runs.
        calls = _count_calls(monkeypatch)
        s = build_default_scenario({"irs": {"grid_m": 10}})
        results = evaluate_scenario(s)
        assert len(s.users) == 4
        assert any(r.h_nlos > 0.0 for r in results)
        assert any(r.h_los > 0.0 for r in results)
        assert calls["aimed_los_gain_table"] == 1
        assert calls["irs_gain_table"] == 1
        assert calls["serving_branch_index"] == calls["los_gain"] == 0
        assert calls["irs_gain"] == 0

    @pytest.mark.parametrize("ks", [[1], [1, 2, 3, 4, 5, 6, 7, 8], [3, 12, 5]])
    def test_sweeps_run_the_direct_kernel_at_most_once_per_variant(self, monkeypatch, ks):
        calls = _count_calls(monkeypatch)
        s = build_default_scenario(None)
        sweep_users(s, ks)
        assert calls["aimed_los_gain_table"] <= 2
        assert calls["serving_branch_index"] == calls["los_gain"] == 0
        calls.update(dict.fromkeys(calls, 0))
        sweep_snr(s, [60.0, 90.0], ("none", "5x5", "10x10"))
        assert calls["aimed_los_gain_table"] <= 3
        assert calls["serving_branch_index"] == calls["los_gain"] == 0


def _count_calls(monkeypatch):
    """Count calls to the gain kernels and the scalar reference path."""
    calls = dict.fromkeys(
        ("aimed_los_gain_table", "irs_gain_table", "los_gain", "irs_gain", "serving_branch_index"),
        0,
    )
    for name in calls:
        original = getattr(owcsim.network, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owcsim.network, name, counted)
    return calls


class TestStructure:
    def test_removing_panel_equals_none_variant(self):
        checks.no_irs_equivalence()

    def test_with_irs_grid_preserves_panel_geometry(self):
        s = build_default_scenario(None)
        bigger = with_irs_grid(s, 10)
        assert bigger.irs.grid_m == 10
        assert bigger.irs.panel_center == s.irs.panel_center
        assert bigger.irs.element_size == s.irs.element_size

    def test_a_variant_equal_to_its_scenario_is_that_scenario(self):
        walled = build_default_scenario({"irs": {"grid_m": 10}})
        bare = build_default_scenario({"irs": {"enabled": False}})
        assert with_irs_grid(walled, 10) is walled
        assert without_irs(bare) is bare
        assert with_irs_grid(walled, 5) is not walled
        assert without_irs(walled) == replace(walled, irs=None)
        assert with_irs_grid(bare, 10) == replace(bare, irs=walled.irs)

    @pytest.mark.parametrize("document", [{"irs": {"grid_m": 10}}, {"irs": {"enabled": False}}])
    def test_sweep_snr_of_a_shared_variant_equals_rebuilt_variants(self, monkeypatch, document):
        s = build_default_scenario(document)
        s.mirror_table  # the variant that is `s` reads these cached tables
        points = [60.0, 75.5, 90.0, 61.0]
        shared = sweep_snr(s, points)

        def rebuilt_grid(scenario, grid_m):
            base = scenario.irs or build_irs_panel(scenario.room_dims)
            return replace(scenario, irs=replace(base, grid_m=grid_m))

        monkeypatch.setattr(owcsim.network, "without_irs", lambda sc: replace(sc, irs=None))
        monkeypatch.setattr(owcsim.network, "with_irs_grid", rebuilt_grid)
        assert shared == sweep_snr(replace(s), points)

    def test_serving_branches_cached_per_scenario(self):
        s = build_default_scenario({"users": {"k": 4}})
        fresh = replace(s)
        assert s.serving_branches == tuple(
            serving_branch_index(s, i) for i in range(len(s.users))
        )
        assert s == fresh and hash(s) == hash(fresh)  # the cache is not compared
        moved = UserSpec(Vec3(0.3, 4.7, 0.0), False, s.users[0].branches)
        other = replace(s, users=(moved,) + s.users[1:])
        assert other.serving_branches[1:] == s.serving_branches[1:]
        assert other.serving_branches[0] == serving_branch_index(other, 0)

    def test_gain_matrix_shape_and_range(self):
        s = build_default_scenario(None)
        matrix = irs_gain_matrix(s)
        assert isinstance(matrix, np.ndarray) and matrix.dtype == np.float64
        assert len(matrix) == 4
        assert all(len(row) == 25 for row in matrix)
        assert all(0.0 <= g <= 0.95 for row in matrix for g in row)

    def test_transmit_snr_round_trip(self):
        s = build_default_scenario(None)
        for db in (0.0, 45.0, 90.0, 120.0):
            p = power_for_transmit_snr(s.noise, 0.4, db)
            assert transmit_snr_db(s.noise, 0.4, p) == pytest.approx(db, abs=1e-9)

    def test_transmit_powers_of_a_grid_equal_each_point_bitwise(self):
        # The per-point formula, with `math`, is the reference for the array form.
        s = build_default_scenario(None)
        floor = thermal_noise_variance(s.noise)
        points = [60.0 + 0.05 * i for i in range(1201)] + [-30.0, 0.0, 47.3, 180.0]
        powers = power_for_transmit_snr(s.noise, 0.4, points)
        want = [math.sqrt(10.0 ** (db / 10.0) * floor) / 0.4 for db in points]
        assert powers.dtype == np.float64 and powers.tolist() == want
        assert [power_for_transmit_snr(s.noise, 0.4, db) for db in points[:50]] == want[:50]
        assert type(power_for_transmit_snr(s.noise, 0.4, 80.0)) is float


class TestSweepSnr:
    POINTS = [float(db) for db in range(60, 121, 5)]

    def test_monotone_in_power_per_variant(self):
        s = build_default_scenario(None)
        table = sweep_snr(s, self.POINTS)
        for variant in ("none", "5x5", "10x10"):
            series = table.series(variant)
            values = [y for _, y in series]
            assert values == sorted(values)

    def test_variant_ordering_at_every_point(self):
        s = build_default_scenario(None)
        table = sweep_snr(s, self.POINTS)
        none = dict(table.series("none"))
        five = dict(table.series("5x5"))
        ten = dict(table.series("10x10"))
        for db in self.POINTS:
            assert ten[db] >= five[db] >= none[db]

    def test_deterministic(self):
        checks.determinism(None, len(self.POINTS))  # the same 60..120 dB grid

    @pytest.mark.parametrize(
        "document",
        [
            {"seed": 1},
            {"seed": 2},
            {"seed": 3},
            {"irs": {"wall": "x_min", "grid_m": 10, "center_along_m": 2.0}},
        ],
    )
    def test_full_sweep_holds_every_one_variant_sweep(self, document):
        # Each variant's rows are computed on their own, so one variant's
        # sweep is a filter of the full table, bit for bit.
        s = build_default_scenario(document)
        full = sweep_snr(s, self.POINTS)
        for label in ("none", "5x5", "10x10"):
            rows = [row for row in full.rows if row.variant == label]
            assert len(rows) == len(self.POINTS)
            assert sweep_snr(s, self.POINTS, variants=(label,)) == ResultTable.from_rows(rows)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            sweep_snr(build_default_scenario(None), [])

    def test_empty_or_zero_user_counts_rejected(self):
        s = build_default_scenario(None)
        with pytest.raises(ValueError, match="k_values must be nonempty"):
            sweep_users(s, [])
        with pytest.raises(ValueError, match=r"k_values\[0\] must be an integer >= 1, got 0"):
            sweep_users(s, [0])

    def test_responsivity_cancels_on_the_snr_axis(self):
        # The transmit-SNR axis and the rate path read the same R, and R P is
        # fixed by the SNR, so the rates do not depend on R.
        points = [60.0, 80.0, 100.0, 115.0]
        tables = [
            sweep_snr(build_default_scenario({"users": {"responsivity_a_per_w": r}}), points)
            for r in (0.4, 0.5, 1.2)
        ]
        for table in tables[1:]:
            for row, base in zip(table.rows, tables[0].rows):
                assert (row.sweep_var, row.variant) == (base.sweep_var, base.variant)
                assert row.user_rates_bps == pytest.approx(base.user_rates_bps, rel=1e-12, abs=0)

    def test_power_beyond_cap_rejected(self):
        s = build_default_scenario(None)  # cap 1.0 W; 130 dB needs ~2.4 W
        with pytest.raises(ValueError, match="eye_safety_cap"):
            sweep_snr(s, [130.0])

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
    def test_non_finite_point_named_before_the_cap(self, bad):
        # 160 dB, at index 1, is over the cap; the input itself is named first.
        s = build_default_scenario(None)
        with pytest.raises(ValueError) as err:
            sweep_snr(s, [70.0, 160.0, bad, 80.0, bad])
        assert str(err.value) == f"snr_points_db[2] must be finite, got {bad}"

    def test_point_whose_power_ratio_overflows_is_named(self):
        # 10 ** (dB / 10) overflows a float above about 3082.5 dB; the input
        # is named, as a non-finite one is, before the cap is checked.
        s = build_default_scenario(None)
        for points, index in (([70.0, 4000.0], 1), ([3082.5, 160.0, 3082.6, 5000.0], 2)):
            with pytest.raises(ValueError) as err:
                sweep_snr(s, points)
            assert str(err.value).startswith(f"snr_points_db[{index}] must be at most")
            assert str(err.value).endswith(f"got {points[index]}")
        with pytest.raises(ValueError, match=r"^snr_db must be at most .* got 4000\.0$"):
            power_for_transmit_snr(s.noise, s.responsivity, 4000.0)
        with pytest.raises(ValueError, match=r"^snr_points_db\[0\] must be at most"):
            power_for_transmit_snr(s.noise, s.responsivity, [1e300])
        assert math.isfinite(power_for_transmit_snr(s.noise, s.responsivity, 3082.5))


def _point_links(variant, gains, p_tot):
    """Every user's (received power, noise variance, SNR, rate) at one
    per-beam power, one scalar link call chain per user: the per-point path
    the array path must reproduce bit for bit."""
    links = []
    for q in gains:
        received = q * p_tot
        sigma2 = noise_variance(variant.noise, received, variant.responsivity)
        gamma = sinr(q, p_tot, variant.responsivity, sigma2)
        links.append((received, sigma2, gamma, achievable_rate(gamma, variant.noise.bandwidth_b)))
    return links


def _user_gains(variant):
    """Every user's total gain q, from the per-user oracle."""
    assignment = assign_mirrors(variant, irs_gain_matrix(variant), variant.max_mirrors_per_user)
    return [user_gain_oracle(variant, assignment.per_user, i)[2] for i in range(len(variant.users))]


def _per_point_sweep_snr(scenario, points, variants):
    rows = []
    for label in variants:
        variant = owcsim.network._variant_scenario(scenario, label)
        gains = _user_gains(variant)
        for db in points:
            p_tot = power_for_transmit_snr(variant.noise, scenario.responsivity, db)
            if p_tot > variant.eye_safety_cap:
                raise ValueError(
                    f"per-beam power {p_tot:.6g} W at {db:g} dB exceeds "
                    f"power.eye_safety_cap_w {variant.eye_safety_cap:.6g} W"
                )
            rates = [link[3] for link in _point_links(variant, gains, p_tot)]
            rows.append(ResultRow(float(db), label, sum_rate(rates), tuple(rates)))
    return ResultTable.from_rows(rows)


class TestSweepSnrArrayPath:
    """`sweep_snr` runs each user once over the whole grid of transmit powers."""

    VARIANTS = ("none", "5x5", "10x10")
    DENSE_POINTS = [60.0 + 0.05 * i for i in range(1201)]

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"users": {"blocked": [1, 2]}},
            {"power": {"max_mirrors_per_user": 2}},
        ],
        ids=["default", "blocked", "two-mirrors"],
    )
    def test_equals_per_point_composition(self, doc):
        s = build_default_scenario(doc)
        points = list(DEFAULT_SNR_POINTS_DB) + [61.3, 97.25]
        assert sweep_snr(s, points, self.VARIANTS) == _per_point_sweep_snr(
            s, points, self.VARIANTS
        )

    def test_single_point_evaluation_equals_composition(self):
        # evaluate_scenario runs the same path on a one-element power array;
        # users hold 72, 0, 28 and 0 mirrors on the 10x10 wall.
        base = build_default_scenario({"irs": {"grid_m": 10}})
        assert [len(m) for m in scenario_assignment(base).per_user] == [72, 0, 28, 0]
        gains = _user_gains(base)
        for p_tot in (0.01, 0.0123, 0.07, 0.31, 0.77, 1.0):
            s = replace(base, p_tot=p_tot)
            results = evaluate_scenario(s)
            assert [
                (r.received_optical_power, r.noise_variance, r.sinr, r.rate) for r in results
            ] == _point_links(s, gains, p_tot)

    def test_blocked_user_without_beams(self):
        s = build_default_scenario({"users": {"blocked": [1]}, "irs": {"enabled": False}})
        table = sweep_snr(s, DEFAULT_SNR_POINTS_DB, ("none",))
        assert table == _per_point_sweep_snr(s, DEFAULT_SNR_POINTS_DB, ("none",))
        assert all(row.user_rates_bps[1] == 0.0 for row in table.rows)
        assert all(row.user_rates_bps[0] > 0.0 for row in table.rows)

    def test_dense_grid_many_users_without_wall(self):
        rng = random.Random(64)
        positions = [[rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0), 0.0] for _ in range(64)]
        s = build_default_scenario(
            {"irs": {"enabled": False}, "users": {"k": 64, "positions": positions}}
        )
        table = sweep_snr(s, self.DENSE_POINTS, ("none",))
        assert len(table.rows) == 1201
        assert table == _per_point_sweep_snr(s, self.DENSE_POINTS, ("none",))

    @pytest.mark.parametrize(
        "points, first",
        [([125.0, 160.0], "125"), ([160.0, 125.0], "160"), ([100.0, 150.0, 125.0], "150")],
    )
    def test_cap_error_names_first_point_over_the_cap(self, points, first):
        # Every beam carries the point's transmit power, whatever the wall:
        # 100 dB needs 0.077 W, 125 dB 1.37 W, over the 1 W cap. The error
        # names the first over-cap point in the order given.
        s = build_default_scenario(None)
        with pytest.raises(ValueError, match="eye_safety_cap") as expected:
            _per_point_sweep_snr(s, points, ("10x10",))
        with pytest.raises(ValueError, match="eye_safety_cap") as got:
            sweep_snr(s, points, ("10x10",))
        assert str(got.value) == str(expected.value)
        assert f" at {first} dB " in str(got.value)

    def test_cap_error_differs_by_point_order(self):
        s = build_default_scenario(None)
        messages = set()
        for points in ([125.0, 160.0], [160.0, 125.0]):
            with pytest.raises(ValueError, match="eye_safety_cap") as err:
                sweep_snr(s, points, ("10x10",))
            messages.add(str(err.value))
        assert len(messages) == 2  # 125 dB named first, then 160 dB

    def test_link_calls_once_per_variant_and_user(self, monkeypatch):
        calls = {"noise_variance": 0, "sinr": 0, "achievable_rate": 0}
        for name in calls:
            original = getattr(owcsim.network, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owcsim.network, name, counted)
        s = build_default_scenario(None)
        counts = []
        for points in (DEFAULT_SNR_POINTS_DB[:2], self.DENSE_POINTS[:50]):
            for name in calls:
                calls[name] = 0
            sweep_snr(s, points, self.VARIANTS)
            assert calls["achievable_rate"] <= len(self.VARIANTS) * len(s.users)
            counts.append(dict(calls))
        assert counts[0] == counts[1]


class TestGridMemo:
    """`sweep_snr` prices a repeated SNR grid once: `_grid_powers` keeps the
    per-beam powers of the last grid, keyed by the bits of the points, the
    noise and the responsivity, and every call still checks its own points
    and its own eye-safety cap."""

    POINTS = [60.0 + 0.25 * i for i in range(161)]  # 60 to 100 dB

    @pytest.fixture(autouse=True)
    def cleared(self):
        owcsim.network._grid_powers.cache_clear()
        yield
        owcsim.network._grid_powers.cache_clear()

    @staticmethod
    def memo():
        return owcsim.network._grid_powers.cache_info()

    def test_hit_gives_the_misses_table_bitwise(self):
        s = build_default_scenario(None)
        miss = sweep_snr(s, self.POINTS)
        hit = sweep_snr(s, self.POINTS)
        assert (self.memo().misses, self.memo().hits) == (1, 1)
        assert hit == miss
        assert hit.user_rates_bps.tobytes() == miss.user_rates_bps.tobytes()
        assert hit.sum_rate_bps.tobytes() == miss.sum_rate_bps.tobytes()

    def test_grid_priced_once_until_grid_noise_or_responsivity_changes(self, monkeypatch):
        calls = []
        original = owcsim.network.power_for_transmit_snr

        def counted(noise, responsivity, points):
            calls.append((noise, responsivity, len(points)))
            return original(noise, responsivity, points)

        monkeypatch.setattr(owcsim.network, "power_for_transmit_snr", counted)
        s = build_default_scenario(None)
        for _ in range(3):
            sweep_snr(s, self.POINTS, ("none",))
        sweep_snr(build_default_scenario({"seed": 3}), self.POINTS, ("none",))  # new users
        assert calls == [(s.noise, s.responsivity, len(self.POINTS))]
        noisier = replace(s, noise=replace(s.noise, bandwidth_b=2.0e9))
        keys = [
            (s, self.POINTS[:-1]),
            (noisier, self.POINTS),
            (replace(s, responsivity=0.5), self.POINTS),
        ]
        for scenario, points in keys:
            for _ in range(2):
                sweep_snr(scenario, points, ("none",))
        assert calls[1:] == [(sc.noise, sc.responsivity, len(p)) for sc, p in keys]

    def test_determinism_check_prices_each_sweep_itself(self, monkeypatch):
        calls = []
        original = owcsim.network.power_for_transmit_snr

        def counted(noise, responsivity, points):
            calls.append(len(points))
            return original(noise, responsivity, points)

        monkeypatch.setattr(owcsim.network, "power_for_transmit_snr", counted)
        checks.determinism(None, 3)
        assert calls == [3, 3]

    def test_kept_powers_reject_writes(self):
        s = build_default_scenario(None)
        column = np.array(self.POINTS).tobytes()
        power = owcsim.network._grid_powers(column, s.noise, s.responsivity)
        assert owcsim.network._grid_powers(column, s.noise, s.responsivity) is power
        want = power_for_transmit_snr(s.noise, s.responsivity, self.POINTS)
        assert power.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            power[0] = 1.0

    def test_cap_checked_against_each_scenario_after_a_hit(self):
        # 0.05 W is reached at about 96 dB; the default 1 W cap holds the grid.
        low = build_default_scenario({"power": {"eye_safety_cap_w": 0.05}})
        with pytest.raises(ValueError, match="eye_safety_cap") as miss:
            sweep_snr(low, self.POINTS, ("none",))
        sweep_snr(build_default_scenario(None), self.POINTS, ("none",))
        with pytest.raises(ValueError, match="eye_safety_cap") as hit:
            sweep_snr(low, self.POINTS, ("none",))
        assert self.memo().hits == 2 and str(hit.value) == str(miss.value)

    @pytest.mark.parametrize(
        "points, message",
        [
            ([70.0, math.nan], r"^snr_points_db\[1\] must be finite, got nan$"),
            ([70.0, 4000.0, 80.0], r"^snr_points_db\[1\] must be at most .* got 4000\.0$"),
        ],
    )
    def test_point_errors_repeat_and_are_not_kept(self, points, message):
        s = build_default_scenario(None)
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                sweep_snr(s, points)
        assert self.memo().currsize == 0

    @pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zero_grids_keep_their_own_sweep_values(self, zeros):
        s = build_default_scenario(None)
        for zero in zeros:
            table = sweep_snr(s, [zero, 60.0], ("none",))
            assert np.signbit(table.sweep_var).tolist() == [math.copysign(1.0, zero) < 0, False]
        assert (self.memo().misses, self.memo().hits) == (2, 0)

    def test_grid_containers_give_equal_tables(self):
        s = build_default_scenario(None)
        grids = (
            self.POINTS,
            tuple(self.POINTS),
            np.array(self.POINTS),
            (db for db in self.POINTS),
        )
        tables = [sweep_snr(s, grid, ("none",)) for grid in grids]
        assert all(table == tables[0] for table in tables[1:])
        assert self.memo().currsize == 1

    def test_a_new_grid_evicts_the_last_one(self):
        s = build_default_scenario(None)
        for db in (60.0, 61.0, 60.0):
            sweep_snr(s, [db], ("none",))
        assert (self.memo().currsize, self.memo().misses, self.memo().hits) == (1, 3, 0)


class TestRateChunks:
    """`_rate_table` runs each case's rate path over chunks of about
    `_RATE_ELEMENTS` (user, point) elements, at least one point each, and
    the table is bitwise the same whatever the budget."""

    VARIANTS = ("none", "5x5", "10x10")
    BUDGETS = (1, 256, 16384)

    @staticmethod
    def scenario(users):
        rng = random.Random(users)
        positions = [[rng.uniform(0.1, 4.9), rng.uniform(0.1, 4.9), 0.0] for _ in range(users)]
        return build_default_scenario({"users": {"k": users, "positions": positions}})

    @staticmethod
    def record_chunks(monkeypatch):
        """Every rate-path call's (users, points) shape, and each `_gains` call."""
        calls = {"_link": [], "_gains": []}
        for name in calls:
            original = getattr(owcsim.network, name)

            def recorded(scenario, *args, _original=original, _name=name):
                calls[_name].append(
                    len(scenario.users) if _name == "_gains" else (len(args[0]), len(args[1]))
                )
                return _original(scenario, *args)

            monkeypatch.setattr(owcsim.network, name, recorded)
        return calls

    @pytest.mark.parametrize("points", [13, 1025, 1201])
    @pytest.mark.parametrize("users", [1, 7, 64])
    def test_sweep_snr_equal_for_every_budget(self, monkeypatch, users, points):
        # 1025 points leave a one-point tail chunk at 64 users and the default
        # budget (4 x 256 + 1), 1201 a 177-point one; 13 points at 64 users
        # and 256 elements leave one too (3 x 4 + 1). A budget of 1 gives
        # every point its own one-column chunk.
        s = self.scenario(users)
        grid = [60.0 + 60.0 * i / (points - 1) for i in range(points)]
        monkeypatch.setattr(owcsim.network, "_RATE_ELEMENTS", sys.maxsize)
        whole = sweep_snr(s, grid, self.VARIANTS)
        for budget in self.BUDGETS:
            monkeypatch.setattr(owcsim.network, "_RATE_ELEMENTS", budget)
            assert sweep_snr(s, grid, self.VARIANTS) == whole, budget

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("users, points", [(1, 13), (7, 1201), (64, 13), (64, 1025)])
    def test_chunks_cover_the_grid_in_order(self, monkeypatch, budget, users, points):
        monkeypatch.setattr(owcsim.network, "_RATE_ELEMENTS", budget)
        calls = self.record_chunks(monkeypatch)
        sweep_snr(self.scenario(users), [70.0] * points, ("none",))
        step = max(1, budget // users)
        widths = [shape[1] for shape in calls["_link"]]
        assert calls["_gains"] == [users]  # once per case, not per chunk
        assert {shape[0] for shape in calls["_link"]} == {users}
        assert sum(widths) == points
        assert widths[:-1] == [step] * (len(widths) - 1)
        assert 1 <= widths[-1] <= step

    def test_more_users_than_the_budget(self, monkeypatch):
        s = self.scenario(64)
        grid = [60.0 + 0.05 * i for i in range(201)]
        whole = sweep_snr(s, grid, self.VARIANTS)
        monkeypatch.setattr(owcsim.network, "_RATE_ELEMENTS", 16)
        calls = self.record_chunks(monkeypatch)
        assert sweep_snr(s, grid, self.VARIANTS) == whole
        # One point per chunk: the budget is under one column of users.
        assert [shape[1] for shape in calls["_link"]] == [1] * 201 * 3

    @pytest.mark.parametrize("budget", [1, 256, sys.maxsize])
    def test_sweep_users_equal_for_every_budget(self, monkeypatch, budget):
        s = build_default_scenario(None)
        ks = [1, 3, 8, 20, 64]
        whole = sweep_users(s, ks)
        monkeypatch.setattr(owcsim.network, "_RATE_ELEMENTS", budget)
        calls = self.record_chunks(monkeypatch)
        assert sweep_users(s, ks) == whole
        # One point per case: each case is one chunk.
        assert calls["_link"] == [(k, 1) for k in ks for _ in range(2)]


class TestSweepSnrRowOrder:
    """Duplicate and unsorted SNR points: the block path keeps the per-point
    path's rows, in (variant, sweep_var) order, stable for duplicates."""

    VARIANTS = ("none", "5x5", "10x10")

    @pytest.mark.parametrize(
        "points",
        [[90.0, 70.0, 90.0, 60.0, 70.0], [100.0, 65.0, 80.0, 62.5], [75.0, 75.0, 75.0]],
        ids=["duplicates", "unsorted", "all-equal"],
    )
    @pytest.mark.parametrize("doc", [{}, {"users": {"blocked": [1]}}], ids=["default", "blocked"])
    def test_equals_per_point_composition(self, doc, points):
        s = build_default_scenario(doc)
        table = sweep_snr(s, points, self.VARIANTS)
        expected = _per_point_sweep_snr(s, points, self.VARIANTS)
        assert table == expected
        assert [(r.variant, r.sweep_var) for r in table.rows] == [
            (r.variant, r.sweep_var) for r in expected.rows
        ]
        assert [(r.variant, r.sweep_var) for r in table.rows] == sorted(
            (label, db) for label in self.VARIANTS for db in points
        )

    def test_blocked_user_holds_no_beam_in_any_variant(self):
        s = build_default_scenario({"users": {"blocked": [1]}})
        points = [100.0, 65.0, 100.0, 80.0]
        for label in self.VARIANTS:
            variant = owcsim.network._variant_scenario(s, label)
            assignment = scenario_assignment(variant)
            assert assignment.per_user[1] == ()
            assert evaluate_user(variant, assignment, 1).q == 0.0
            assert user_gain_oracle(variant, assignment.per_user, 1)[2] == 0.0
        table = sweep_snr(s, points, self.VARIANTS)
        assert table == _per_point_sweep_snr(s, points, self.VARIANTS)
        assert table.user_rates_bps[:, 1].tolist() == [0.0] * len(table)
        assert (table.user_rates_bps[:, [0, 2, 3]] > 0.0).all()


class TestSweepUsers:
    def test_irs_dominates_and_curves_nondecreasing(self):
        s = build_default_scenario(None)
        table = sweep_users(s, range(1, 9))
        none = dict(table.series("none"))
        irs = dict(table.series("5x5"))
        ks = sorted(none)
        assert ks == [float(k) for k in range(1, 9)]
        for k in ks:
            assert irs[k] > none[k]
        for a, b in zip(ks, ks[1:]):
            assert none[b] >= none[a]
            assert irs[b] >= irs[a]

    def test_row_sums_add_users_in_order(self):
        # Each K is a one-point case, a (K, 1) rate block, which numpy's
        # reduce would sum pairwise; the sum must be the loop over the row's
        # rates, left to right, at every K.
        table = sweep_users(build_default_scenario(None), range(1, 65))
        assert len(table) == 128
        for row in table.rows:
            total = 0.0
            for rate in row.user_rates_bps:
                total = total + rate
            assert row.sum_rate_bps == total, (row.variant, row.sweep_var)

    def test_nested_users_between_k_values(self):
        s = build_default_scenario(None)
        table = sweep_users(s, [3, 4])
        rows = {(r.variant, r.sweep_var): r for r in table.rows}
        small = rows[("none", 3.0)].user_rates_bps
        large = rows[("none", 4.0)].user_rates_bps
        assert large[:3] == small  # same users, same rates, one more appended

    def test_equals_per_k_rebuild(self):
        # Rows sliced from one K_max evaluation equal a fresh evaluation per K.
        for doc, ks in (
            (None, range(1, 9)),
            ({"irs": {"grid_m": 10}, "power": {"max_mirrors_per_user": 6}}, [7, 2, 12, 5]),
            ({"irs": {"wall": "x_min"}, "seed": 5}, [3, 1, 6]),
        ):
            s = build_default_scenario(doc)
            positions = place_users_uniform(max(ks), s.room_dims, s.rng_seed, s.receiver_z)
            rows = []
            for k in ks:
                users = tuple(UserSpec(positions[i], False, s.users[0].branches) for i in range(k))
                for label, variant in (
                    ("none", replace(s, irs=None, users=users)),
                    (s.irs.label(), replace(s, users=users)),
                ):
                    rates = [result.rate for result in evaluate_scenario(variant)]
                    rows.append(ResultRow(float(k), label, sum_rate(rates), tuple(rates)))
            assert sweep_users(s, ks) == ResultTable.from_rows(rows)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            sweep_users(build_default_scenario(None), [0, 1])

    def test_no_wall_rejected_naming_irs_enabled(self):
        # The sweep compares the configured wall against none; with the wall
        # turned off it has no curve to draw, not the default 5x5 wall's.
        s = build_default_scenario({"irs": {"enabled": False}})
        with pytest.raises(ValueError, match=r"irs\.enabled must be true"):
            sweep_users(s, [1, 2])

    @pytest.mark.parametrize(
        "ks, index", [([2.5, True], 0), ([2, True], 1), ([1, 2.0], 1), ([3, "2"], 1)]
    )
    def test_non_integral_or_bool_k_rejected_naming_it(self, ks, index):
        # int() would have run K = 2 for 2.5 and K = 1 for True.
        with pytest.raises(ValueError, match=rf"^k_values\[{index}\] must be an integer >= 1"):
            sweep_users(build_default_scenario(None), ks)

    def test_numpy_integer_k_accepted(self):
        s = build_default_scenario(None)
        assert sweep_users(s, np.array([1, 3])) == sweep_users(s, [1, 3])


class TestSimulate:
    def test_single_variant_row(self):
        s = build_default_scenario(None)
        table = simulate_scenario(s)
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.variant == "5x5"
        assert len(row.user_rates_bps) == 4
        assert row.sum_rate_bps == pytest.approx(sum(row.user_rates_bps), rel=1e-12)


def _from_block_table(cases, sweep_var, p_tot):
    """A `_rate_table` call's table assembled the way `ResultTable.from_block`
    does it: every case's rates in case-major rows, then sorted and copied."""
    users = [len(variant.users) for _, variant in cases]
    block = np.zeros((len(cases) * len(p_tot), max(users)))
    sums, labels = [], []
    for c, (label, variant) in enumerate(cases):
        q = owcsim.network._gains(variant, scenario_assignment(variant))[2][:, None]
        rates = owcsim.network._link(variant, q, p_tot)[3]
        block[c * len(p_tot) : (c + 1) * len(p_tot), : users[c]] = rates.T
        sums.append(sum_rate(rates))
        labels += [label] * len(p_tot)
    counts = np.repeat(users, len(p_tot))
    return ResultTable.from_block(sweep_var, labels, block, np.concatenate(sums), counts)


class TestTableWrittenInPlace:
    """`_rate_table` writes each chunk into its final row: every sweep's table
    equals the one `ResultTable.from_block` sorts from case-major rows."""

    @staticmethod
    def assert_equals_from_block(monkeypatch, run):
        calls = []
        original = owcsim.network._rate_table

        def recorded(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(owcsim.network, "_rate_table", recorded)
        table = run()
        assert len(calls) == 1
        assert table == _from_block_table(*calls[0])
        assert table.variant == tuple(sorted(table.variant))
        for array in table._arrays():
            assert array.flags.writeable is False
        return table

    @pytest.mark.parametrize("budget", [8, 16384])
    @pytest.mark.parametrize("variants", [("none",), ("10x10", "none", "5x5")])
    @pytest.mark.parametrize(
        "points",
        [[60.0, 70.0, 80.0, 90.0], [90.0, 80.0, 70.0, 60.0], [75.0, 60.0, 95.0, 80.0, 65.0],
         [80.0, 60.0, 80.0, 70.0, 60.0]],
        ids=["ascending", "descending", "shuffled", "duplicated"],
    )
    def test_sweep_snr(self, monkeypatch, points, variants, budget):
        # A budget of 8 elements runs the 4 users two points at a time.
        monkeypatch.setattr(owcsim.network, "_RATE_ELEMENTS", budget)
        s = build_default_scenario({"users": {"blocked": [2]}})
        table = self.assert_equals_from_block(
            monkeypatch, lambda: sweep_snr(s, points, variants)
        )
        assert [(r.variant, r.sweep_var) for r in table.rows] == sorted(
            (label, db) for label in variants for db in points
        )

    @pytest.mark.parametrize("ks", [[3, 12, 5], [1], [8, 6, 1], [4, 4, 2]])
    def test_sweep_users(self, monkeypatch, ks):
        s = build_default_scenario({"irs": {"grid_m": 10}})
        table = self.assert_equals_from_block(monkeypatch, lambda: sweep_users(s, ks))
        assert table.user_counts.tolist() == sorted(ks) * 2

    @pytest.mark.parametrize("doc", [None, {"irs": {"enabled": False}}])
    def test_simulate_scenario(self, monkeypatch, doc):
        s = build_default_scenario(doc)
        self.assert_equals_from_block(monkeypatch, lambda: simulate_scenario(s))
