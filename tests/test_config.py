import dataclasses
import inspect
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from owcsim.channel import AdrBranch
from owcsim.config import (
    DEFAULT_K_VALUES,
    DEFAULT_SNR_POINTS_DB,
    OutputSpec,
    SweepSpec,
    build_default_scenario,
    effective_config,
    load_config,
    parse_config,
    write_config,
)
from owcsim.geometry import Orientation
from owcsim.link import NoiseParams
from owcsim.network import (
    AdtSpec,
    UserSpec,
    build_irs_panel,
    default_adr_branches,
    simulate_scenario,
    sweep_snr,
    sweep_users,
    with_irs_grid,
)
from owcsim.schema import CHECKED_DEFAULTS, POINT, SCHEMA, ListOf, Nullable

SCHEMA_DOC = Path(__file__).resolve().parents[1] / "docs" / "config_schema.md"


def doc_rows() -> dict[str, tuple[str, str]]:
    """Dotted key -> (accepts, default) cells of every table row in the schema doc."""
    rows, prefix = {}, ""
    for line in SCHEMA_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            heading = line[3:].strip()
            prefix = "" if heading == "Top level" else heading.strip("`") + "."
        elif line.startswith("| `"):
            key, accepts, default = (cell.strip().strip("`") for cell in line.split("|")[1:4])
            rows[prefix + key] = (accepts, default)
    return rows


def flat_keys(document: dict, prefix: str = "") -> list[str]:
    keys = []
    for key, value in document.items():
        if isinstance(value, dict):
            keys += flat_keys(value, f"{prefix}{key}.")
        else:
            keys.append(prefix + key)
    return keys


class TestParseConfig:
    def test_empty_document_is_the_default_scenario(self):
        scenario, sweep, output = parse_config({})
        assert scenario == build_default_scenario(None)
        assert sweep.snr_points_db == DEFAULT_SNR_POINTS_DB
        assert sweep.k_values == DEFAULT_K_VALUES
        assert output.svg is True

    def test_irs_grid_override(self):
        scenario, _, _ = parse_config({"irs": {"grid_m": 10}})
        assert scenario.irs.grid_m == 10

    def test_bad_bandwidth_names_path(self):
        with pytest.raises(ValueError, match="noise.bandwidth_b"):
            parse_config({"noise": {"bandwidth_b": -1}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown config key: lasers"):
            parse_config({"lasers": {}})

    def test_unknown_sweep_key(self):
        with pytest.raises(ValueError, match="unknown config key: sweep.steps"):
            parse_config({"sweep": {"steps": 3}})

    def test_seed_override_changes_placement(self):
        a, _, _ = parse_config({}, seed=1)
        b, _, _ = parse_config({}, seed=2)
        assert a.rng_seed == 1 and b.rng_seed == 2
        assert a.users != b.users

    def test_sweep_values(self):
        _, sweep, _ = parse_config({"sweep": {"snr_points_db": [10, 20], "k_values": [2, 4]}})
        assert sweep.snr_points_db == (10.0, 20.0)
        assert sweep.k_values == (2, 4)

    def test_non_object_root_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            parse_config([1, 2, 3])

    @pytest.mark.parametrize(
        "document, message",
        [
            (
                {"users": {"k": 3, "positions": [[1, 1, 0], [2, 2, 0], [3, "x", 0]]}},
                "users.positions[2][1] must be a number in [0, 1000], got 'x'",
            ),
            (
                {"room": {"dims": [0.01, 5, 3]}},
                "room.dims[0] must be a number in [0.1, 1000], got 0.01",
            ),
            (
                {"sweep": {"k_values": [1, 2, 3, 0]}},
                "sweep.k_values[3] must be an integer in [1, 1000], got 0",
            ),
        ],
    )
    def test_list_entry_error_names_its_index(self, document, message):
        # Entries are checked under the list's path and named only on failure.
        with pytest.raises(ValueError) as err:
            parse_config(document)
        assert str(err.value) == message
        assert err.value.__context__ is None


class TestLoadConfig:
    def test_round_trip_reproduces_scenario(self, tmp_path):
        scenario, sweep, output = parse_config({"users": {"k": 3}, "irs": {"grid_m": 10}})
        document = effective_config(scenario, sweep, output)
        path = tmp_path / "effective.json"
        write_config(document, path)
        reloaded, sweep2, output2 = load_config(path)
        assert reloaded == scenario
        assert sweep2 == sweep
        assert output2 == output

    def test_round_trip_without_panel(self, tmp_path):
        scenario, sweep, output = parse_config({"irs": {"enabled": False}})
        path = tmp_path / "effective.json"
        write_config(effective_config(scenario, sweep, output), path)
        reloaded, _, _ = load_config(path)
        assert reloaded == scenario

    @staticmethod
    def assert_receiver_refused(user: int, receiver: tuple) -> None:
        """A default scenario with user `user` on `receiver` does not build,
        naming that user; with the user restored, it builds and dumps."""
        scenario = build_default_scenario(None)
        users = list(scenario.users)
        users[user] = dataclasses.replace(users[user], branches=receiver)
        with pytest.raises(ValueError) as err:
            dataclasses.replace(scenario, users=tuple(users))
        assert str(err.value) == (
            f"users[{user}] holds a receiver a config cannot write: users.branch_azimuths_deg, "
            "users.branch_elevation_deg, users.fov_deg and users.pd_area_m2 set one "
            "receiver of one or more branches for every user"
        )
        users[user] = scenario.users[user]
        assert effective_config(dataclasses.replace(scenario, users=tuple(users)))

    @pytest.mark.parametrize(
        "user, fov_of_branch", [(1, (60.0,) * 4), (0, (25.0, 25.0, 40.0, 25.0))]
    )
    def test_receivers_a_config_cannot_write_are_refused(self, user, fov_of_branch):
        # The document has one receiver for every user, and a scenario keeps
        # the same rule: user 1 cannot hold a 60 deg field of view while user
        # 0 holds 25, and one fov_deg cannot hold branches that differ.
        receiver = tuple(
            dataclasses.replace(branch, fov_half_angle_deg=fov)
            for branch, fov in zip(default_adr_branches(), fov_of_branch)
        )
        self.assert_receiver_refused(user, receiver)

    @pytest.mark.parametrize("user", [0, 2])
    @pytest.mark.parametrize("receiver", [
        (),
        default_adr_branches()[:1] + default_adr_branches((90.0, 180.0), elevation_deg=30.0),
    ], ids=["empty", "two-elevations"])
    def test_receivers_without_one_branch_kind_are_refused(self, user, receiver):
        # No branch at all, or one users.branch_elevation_deg that cannot hold both.
        self.assert_receiver_refused(user, receiver)

    @pytest.mark.parametrize(
        "fov_deg, pd_area, k_values, key",
        [
            (0.05, 2e-5, (1, 2), "users.fov_deg must be"),
            (25.0, 0.5, (1, 2), "users.pd_area_m2 must be"),
            (25.0, 2e-5, (0, 2), "sweep.k_values[0] must be"),
        ],
    )
    def test_values_a_config_cannot_hold_are_refused_by_key(
        self, fov_deg, pd_area, k_values, key
    ):
        # A library-built scenario or sweep is held to SCHEMA's rows when it is
        # built, so no dump is reached, and no written document fails to load.
        scenario = build_default_scenario(None)
        receiver = default_adr_branches(fov_deg=fov_deg, pd_area=pd_area)
        users = tuple(dataclasses.replace(user, branches=receiver) for user in scenario.users)
        with pytest.raises(ValueError, match="^" + re.escape(key)):
            effective_config(
                dataclasses.replace(scenario, users=users), SweepSpec(k_values=k_values)
            )

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="config parse error"):
            load_config(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "absent.json")

    def test_explicit_positions_round_trip(self, tmp_path):
        doc = {
            "users": {
                "k": 2,
                "positions": [[1.0, 2.0, 0.0], [3.5, 0.25, 0.0]],
                "blocked": [1],
            }
        }
        scenario, sweep, output = parse_config(doc)
        assert scenario.users[1].blocked
        path = tmp_path / "cfg.json"
        write_config(effective_config(scenario, sweep, output), path)
        reloaded, _, _ = load_config(path)
        assert reloaded == scenario


class TestSpecValidation:
    def test_output_spec_default(self):
        assert OutputSpec().svg is True

    def test_effective_config_is_json_serialisable(self):
        scenario, sweep, output = parse_config({})
        json.dumps(effective_config(scenario, sweep, output))


class TestSchemaTable:
    def test_doc_keys_equal_schema(self):
        assert sorted(doc_rows()) == sorted(SCHEMA)

    def test_doc_ranges_and_defaults_equal_schema(self):
        for path, (accepts, default) in doc_rows().items():
            assert accepts == str(SCHEMA[path][1]), path
            assert json.loads(default) == SCHEMA[path][0], path

    def test_effective_config_emits_every_schema_key(self):
        scenario, sweep, output = parse_config({"irs": {"enabled": True}})
        assert sorted(flat_keys(effective_config(scenario, sweep, output))) == sorted(SCHEMA)

    def test_nonfinite_numbers_rejected_in_memory(self):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="adt.beam_waist_m"):
                parse_config({"adt": {"beam_waist_m": value}})

    def test_defaults_are_checked_once_into_immutable_values(self):
        # parse_config reads these for every key a document leaves out.
        assert list(CHECKED_DEFAULTS) == list(SCHEMA)
        for path, (default, check) in SCHEMA.items():
            checked = CHECKED_DEFAULTS[path]
            assert checked == check(path, default), path
            assert type(checked) is type(check(path, default)), path
            hash(checked)  # a list, such as a raw default, raises TypeError

    def test_first_bad_key_in_schema_order_is_named(self):
        # Only the keys a document sets are checked, still in SCHEMA order.
        document = {"users": {"fov_deg": 0.0}, "room": {"dims": [1.0, 2.0]}}
        with pytest.raises(ValueError, match=r"^room\.dims must be"):
            parse_config(document)

    def test_dotted_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key: room.dims"):
            parse_config({"room.dims": [5.0, 5.0, 3.0]})


def nested(flat: dict) -> dict:
    """The config document that sets each dotted path of `flat`."""
    document: dict = {}
    for path, value in flat.items():
        section, _, key = path.rpartition(".")
        (document.setdefault(section, {}) if section else document)[key] = value
    return document


class TestDisabledWall:
    IRS_KEYS = [path for path in SCHEMA if path.startswith("irs.") and path != "irs.enabled"]

    @pytest.mark.parametrize("path", IRS_KEYS)
    def test_other_irs_keys_need_the_wall(self, path):
        # Even the default value: a disabled wall reads none of them.
        with pytest.raises(ValueError, match=re.escape(f"{path} needs irs.enabled true")):
            parse_config(nested({"irs.enabled": False, path: SCHEMA[path][0]}))
        parse_config(nested({"irs.enabled": True, path: SCHEMA[path][0]}))

    def test_first_key_given_is_named(self):
        document = {"irs": {"enabled": False, "reflectivity": 0.5, "wall": "x_min"}}
        with pytest.raises(ValueError, match=r"^irs\.reflectivity needs irs\.enabled true"):
            parse_config(document)

    def test_a_bad_value_is_named_before_the_disabled_wall(self):
        with pytest.raises(ValueError, match=r"^irs\.grid_m must be"):
            parse_config({"irs": {"enabled": False, "grid_m": 0}})


class TestLibraryDefaults:
    """The builders' own defaults equal SCHEMA's: the sweeps' wall variants
    and direct library callers fall back on them."""

    @staticmethod
    def defaults(function) -> dict:
        return {
            name: parameter.default
            for name, parameter in inspect.signature(function).parameters.items()
            if parameter.default is not inspect.Parameter.empty
        }

    def test_build_irs_panel(self):
        assert self.defaults(build_irs_panel) == {
            "wall": SCHEMA["irs.wall"][0],
            "grid_m": SCHEMA["irs.grid_m"][0],
            "element_width": SCHEMA["irs.element_width_m"][0],
            "element_height": SCHEMA["irs.element_height_m"][0],
            "reflectivity": SCHEMA["irs.reflectivity"][0],
            "center_height": SCHEMA["irs.center_height_m"][0],
            "center_along": SCHEMA["irs.center_along_m"][0],
        }
        # A sweep's wall variant of a scenario without a wall is the default wall.
        bare = parse_config({"irs": {"enabled": False}})[0]
        assert with_irs_grid(bare, SCHEMA["irs.grid_m"][0]).irs == parse_config({})[0].irs

    def test_default_adr_branches(self):
        defaults = self.defaults(default_adr_branches)
        defaults["azimuths_deg"] = list(defaults["azimuths_deg"])
        assert defaults == {
            "azimuths_deg": SCHEMA["users.branch_azimuths_deg"][0],
            "elevation_deg": SCHEMA["users.branch_elevation_deg"][0],
            "fov_deg": SCHEMA["users.fov_deg"][0],
            "pd_area": SCHEMA["users.pd_area_m2"][0],
        }
        assert default_adr_branches() == parse_config({})[0].users[0].branches

    def test_noise_params(self):
        fields = {f.name: f.default for f in dataclasses.fields(NoiseParams)}
        assert fields == {
            name: SCHEMA[f"noise.{name}"][0]
            for name in ("rin_db_per_hz", "noise_current_density", "tia_noise_figure_db",
                         "bandwidth_b")
        }
        assert NoiseParams() == parse_config({})[0].noise

    def test_adt_side_offset(self):
        fields = {f.name: f.default for f in dataclasses.fields(AdtSpec)}
        assert fields["side_offset"] == SCHEMA["adt.side_offset_m"][0]


# A valid value other than the default for every key.
NON_DEFAULT = {
    "seed": 8,
    "room.dims": [6.0, 5.0, 3.0],
    "room.receiver_z": 0.8,
    "adt.center": [2.0, 2.5, 3.0],
    "adt.side_offset_m": 0.6,
    "adt.beam_waist_m": 8e-6,
    "adt.wavelength_m": 1.3e-6,
    "irs.enabled": False,
    "irs.wall": "x_min",
    "irs.grid_m": 6,
    "irs.element_width_m": 0.12,
    "irs.element_height_m": 0.12,
    "irs.reflectivity": 0.5,
    "irs.center_height_m": 1.2,
    "irs.center_along_m": 2.0,
    "users.k": 5,
    "users.positions": [[1.0, 1.0, 0.0], [4.0, 1.0, 0.0], [1.0, 4.0, 0.0], [4.0, 4.0, 0.0]],
    "users.blocked": [0],
    "users.pd_area_m2": 4e-5,
    "users.responsivity_a_per_w": 0.6,
    "users.branch_azimuths_deg": [45.0, 135.0, 225.0, 315.0],
    "users.branch_elevation_deg": 50.0,
    "users.fov_deg": 40.0,
    "noise.rin_db_per_hz": -140.0,
    "noise.noise_current_density": 1e-11,
    "noise.tia_noise_figure_db": 8.0,
    "noise.bandwidth_b": 1e9,
    "power.p_tot_w": 0.02,
    "power.eye_safety_cap_w": 0.005,
    "power.max_mirrors_per_user": 1,
    "sweep.snr_points_db": [70.0, 90.0],
    "sweep.k_values": [2, 5],
    "output.svg": False,
}


def outcomes(document: dict) -> tuple | str:
    """The simulate, sweep_snr and sweep_users tables (or each one's error)
    and the OutputSpec of a document, or its parse error."""
    try:
        scenario, sweep, output = parse_config(document)
    except ValueError as exc:
        return str(exc)
    runs = (
        lambda: simulate_scenario(scenario),
        lambda: sweep_snr(scenario, sweep.snr_points_db),
        lambda: sweep_users(scenario, sweep.k_values),
    )
    results = []
    for run in runs:
        try:
            results.append(run())
        except ValueError as exc:
            results.append(str(exc))
    return (*results, output)


class TestEverySettingActs:
    """No key is inert: a valid non-default value changes a table or the
    output spec, or is rejected naming the key."""

    @pytest.fixture(scope="class")
    def default_outcomes(self):
        return outcomes({})

    def test_every_key_has_a_valid_non_default_value(self):
        assert sorted(NON_DEFAULT) == sorted(SCHEMA)
        for path, value in NON_DEFAULT.items():
            default, check = SCHEMA[path]
            assert check(path, value) != check(path, default), path

    @pytest.mark.parametrize("path", list(SCHEMA))
    def test_setting_acts(self, path, default_outcomes):
        got = outcomes(nested({path: NON_DEFAULT[path]}))
        if isinstance(got, str):
            assert path in got
        else:
            assert got != default_outcomes, path


# A receiver branch drawn from SCHEMA's ranges: azimuth, then an index into
# the (elevation, field of view, photodiode area) kinds of one draw.
BRANCH_KINDS = st.lists(
    st.tuples(st.floats(0.0, 90.0), st.floats(0.1, 90.0), st.floats(1e-8, 1e-4)),
    min_size=1, max_size=2,
)
BRANCHES = st.lists(
    st.tuples(st.floats(0.0, 360.0, exclude_max=True), st.integers(0, 1)), max_size=4
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    kinds=BRANCH_KINDS,
    receivers=st.lists(BRANCHES, min_size=1, max_size=2),
    users=st.lists(st.tuples(st.integers(0, 1), st.booleans()), min_size=1, max_size=4),
)
def test_every_scenario_that_builds_reloads_from_its_effective_config(kinds, receivers, users):
    # Users pick one of up to two receivers, whose branches pick one of up to
    # two kinds: a scenario builds only on one receiver of one kind, and then
    # its dump, through JSON, reloads to an equal scenario.
    def receiver(branches):
        return tuple(
            AdrBranch(Orientation(azimuth, elevation), fov, area)
            for azimuth, k in branches
            for elevation, fov, area in [kinds[k % len(kinds)]]
        )

    base = build_default_scenario(None)
    held = tuple(
        UserSpec(spec.position, blocked, receiver(receivers[pick % len(receivers)]))
        for spec, (pick, blocked) in zip(base.users, users)
    )
    one_receiver = len({spec.branches for spec in held}) == 1
    one_kind = len({
        (b.orientation.elevation_deg, b.fov_half_angle_deg, b.pd_area) for b in held[0].branches
    }) == 1
    if not (one_receiver and one_kind):
        with pytest.raises(ValueError, match=r"^users\[\d\] holds a receiver a config cannot"):
            dataclasses.replace(base, users=held)
        return
    scenario = dataclasses.replace(base, users=held)
    document = json.loads(json.dumps(effective_config(scenario)))
    assert parse_config(document)[0] == scenario


def checked(check, value) -> str:
    """What a check makes of a value: the repr of its result, so ints and
    floats and the sign of zero count, or its error's type and message."""
    try:
        return repr(check("users.positions", value))
    except ValueError as exc:
        return f"ValueError: {exc}"


COORDINATE = st.one_of(
    st.floats(0.0, 1000.0),
    st.integers(-2, 1002),
    st.floats(),  # NaN, the infinities, out of range
    st.sampled_from([True, False, None, "x", "1", 10**400, -(10**400), 2**53 + 1, -0.0,
                     1000.0, math.nextafter(1000.0, math.inf), -5e-324, [1.0], (2,)]),
)
GOOD_POINT = st.lists(st.floats(0.0, 1000.0) | st.integers(0, 1000), min_size=3, max_size=3)
POINT_LIKE = st.one_of(
    GOOD_POINT,
    GOOD_POINT.map(tuple),
    st.lists(COORDINATE, min_size=2, max_size=4),
    st.tuples(COORDINATE, COORDINATE, COORDINATE),
    COORDINATE,
    st.dictionaries(st.text(max_size=1), st.integers(0, 5), min_size=3, max_size=3),
)
POSITIONS = st.one_of(
    st.lists(GOOD_POINT, min_size=1, max_size=6),
    st.lists(POINT_LIKE, max_size=6),
    st.lists(POINT_LIKE, min_size=1, max_size=3).map(tuple),
    COORDINATE,
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(value=POSITIONS)
@example(value=[[1.0, 2.0, 0.0], [3, 4, 0], [1, "x", 0]])
@example(value=[[1.0, 2.0, 0.0], [True, 4.0, 0.0]])
@example(value=[[1.0, 2.0, 0.0], [1.0, 2.0]])
@example(value=[[0.5, 0.5, 10**400]])
@example(value=[[0.5, math.nan, 0.0]])
@example(value=[])
def test_positions_check_gives_the_walks_result_and_message(value):
    # The array fast path either agrees with the entry-by-entry walk or
    # hands the value to it.
    assert checked(SCHEMA["users.positions"][1], value) == checked(
        Nullable(ListOf(POINT)), value
    )


def test_positions_error_names_the_coordinate():
    document = {"users": {"k": 3, "positions": [[1.0, 2.0, 0.0], [3, 4, 0], [1, "x", 0]]}}
    with pytest.raises(ValueError) as err:
        parse_config(document)
    assert str(err.value) == "users.positions[2][1] must be a number in [0, 1000], got 'x'"
