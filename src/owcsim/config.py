"""JSON configuration: the schema table, validation, and the effective-config dump.

A config document is a JSON object with sections room, adt, irs, users,
noise, power, sweep, and output plus a top-level seed. SCHEMA has one row
per dotted key path: the key's default and the check that parses it (type,
finite, range). Missing keys take the defaults, unknown keys are rejected
with their full path, and every error names the key it is about. This
module owns the document format; `network` works on the built Scenario.
docs/config_schema.md documents the same table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from .geometry import Vec3
from .link import NoiseParams
from .network import (
    AdtSpec,
    Scenario,
    UserSpec,
    build_irs_panel,
    default_adr_branches,
    place_users_uniform,
)

# Each check is a plain class: a dataclass would generate and exec its methods at import.
Check = Callable[[str, object], object]


class Number:
    """A finite int or float in [lo, hi], or [lo, hi) when hi_open."""

    def __init__(self, lo: float, hi: float, hi_open: bool = False) -> None:
        self.lo, self.hi, self.hi_open = lo, hi, hi_open

    def __call__(self, path: str, value: object) -> float:
        # Both bounds are finite, so NaN and the infinities fail the range test.
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not self.lo <= value <= self.hi
            or (self.hi_open and value == self.hi)
        ):
            raise ValueError(f"{path} must be a {self}, got {value!r}")
        return float(value)

    def __str__(self) -> str:
        return f"number in [{self.lo:g}, {self.hi:g}{')' if self.hi_open else ']'}"


class Integer:
    """An int (not a bool) in [lo, hi], or >= lo when hi is None."""

    def __init__(self, lo: int, hi: int | None = None) -> None:
        self.lo, self.hi = lo, hi

    def __call__(self, path: str, value: object) -> int:
        if (
            isinstance(value, bool)
            or not isinstance(value, int)
            or value < self.lo
            or (self.hi is not None and value > self.hi)
        ):
            raise ValueError(f"{path} must be an {self}, got {value!r}")
        return value

    def __str__(self) -> str:
        return f"integer >= {self.lo}" if self.hi is None else f"integer in [{self.lo}, {self.hi}]"


class OneOf:
    def __init__(self, options: tuple[object, ...]) -> None:
        self.options = options

    def __call__(self, path: str, value: object) -> object:
        # Compare types too: 1 == True, yet 1 is no JSON boolean.
        if not any(type(value) is type(o) and value == o for o in self.options):
            raise ValueError(f"{path} must be {self}, got {value!r}")
        return value

    def __str__(self) -> str:
        return "one of " + ", ".join(json.dumps(option) for option in self.options)


class ListOf:
    """A JSON list of at least min_len items, or of exactly `length` items
    when it is set, each parsed by `item`."""

    def __init__(self, item: Check, min_len: int = 1, length: int | None = None) -> None:
        self.item, self.min_len, self.length = item, min_len, length

    def __call__(self, path: str, value: object) -> tuple:
        if (
            not isinstance(value, (list, tuple))
            or len(value) < self.min_len
            or (self.length is not None and len(value) != self.length)
        ):
            raise ValueError(f"{path} must be a {self}")
        try:
            return tuple(self.item(path, entry) for entry in value)
        except ValueError:
            pass
        # An entry's path is built only once some entry fails: the rerun names
        # each entry, outside the handler, so its error chains nothing.
        return tuple(self.item(f"{path}[{i}]", entry) for i, entry in enumerate(value))

    def __str__(self) -> str:
        if self.length is not None:
            return f"{self.length}-item list of ({self.item})"
        return f"{'nonempty list' if self.min_len else 'list'} of ({self.item})"


class Nullable:
    def __init__(self, check: Check) -> None:
        self.check = check

    def __call__(self, path: str, value: object) -> object:
        return None if value is None else self.check(path, value)

    def __str__(self) -> str:
        return f"{self.check} or null"


FLAG = OneOf((True, False))
LENGTH = Number(0.0, 1000.0)  # m: a coordinate inside the room
POINT = ListOf(LENGTH, length=3)

# One row per key: dotted path -> (default, check). The physical ranges keep
# every derived quantity finite, e.g. 10**(dB / 10) for the noise figures.
SCHEMA: dict[str, tuple[object, Check]] = {
    "seed": (7, Integer(0)),
    "room.dims": ([5.0, 5.0, 3.0], ListOf(Number(0.1, 1000.0), length=3)),
    "room.receiver_z": (0.0, LENGTH),
    "adt.center": (None, Nullable(POINT)),
    "adt.side_offset_m": (0.3, Number(0.0, 10.0)),
    "adt.beam_waist_m": (5.0e-6, Number(1e-6, 2e-5)),
    "adt.wavelength_m": (1.55e-6, Number(3.5e-7, 2e-6)),
    "irs.enabled": (True, FLAG),
    "irs.wall": ("y_max", OneOf(("x_min", "x_max", "y_min", "y_max"))),
    "irs.grid_m": (5, Integer(1, 100)),
    "irs.element_width_m": (0.15, Number(1e-3, 10.0)),
    "irs.element_height_m": (0.10, Number(1e-3, 10.0)),
    "irs.reflectivity": (0.95, Number(0.0, 1.0)),
    "irs.center_height_m": (1.5, LENGTH),
    "irs.center_along_m": (None, Nullable(LENGTH)),
    "users.k": (4, Integer(1, 1000)),
    "users.positions": (None, Nullable(ListOf(POINT))),
    "users.blocked": ([], ListOf(Integer(0), min_len=0)),
    "users.pd_area_m2": (2.0e-5, Number(1e-8, 1e-4)),
    "users.responsivity_a_per_w": (0.4, Number(0.01, 1.5)),
    "users.branch_azimuths_deg": (
        [0.0, 90.0, 180.0, 270.0],
        ListOf(Number(0.0, 360.0, hi_open=True)),
    ),
    "users.branch_elevation_deg": (60.0, Number(0.0, 90.0)),
    "users.fov_deg": (25.0, Number(0.1, 90.0)),
    "noise.rin_db_per_hz": (-155.0, Number(-200.0, -100.0)),
    "noise.noise_current_density": (4.47e-12, Number(1e-14, 1e-9)),
    "noise.tia_noise_figure_db": (5.0, Number(0.0, 30.0)),
    "noise.bandwidth_b": (1.5e9, Number(1e3, 1e12)),
    "power.p_tot_w": (0.01, Number(1e-6, 100.0)),
    "power.eye_safety_cap_w": (1.0, Number(1e-6, 100.0)),
    "power.max_mirrors_per_user": (None, Nullable(Integer(1))),
    "sweep.snr_points_db": (
        [float(db) for db in range(60, 121, 5)],
        ListOf(Number(-50.0, 200.0)),
    ),
    "sweep.k_values": (list(range(1, 9)), ListOf(Integer(1, 1000))),
    "output.svg": (True, FLAG),
}

_SECTIONS = {path.split(".")[0] for path in SCHEMA if "." in path}

DEFAULT_SNR_POINTS_DB = tuple(SCHEMA["sweep.snr_points_db"][0])
DEFAULT_K_VALUES = tuple(SCHEMA["sweep.k_values"][0])


@dataclass(frozen=True)
class SweepSpec:
    snr_points_db: tuple[float, ...] = DEFAULT_SNR_POINTS_DB
    k_values: tuple[int, ...] = DEFAULT_K_VALUES


@dataclass(frozen=True)
class OutputSpec:
    svg: bool = SCHEMA["output.svg"][0]


def load_config(path: str | Path, seed: int | None = None) -> tuple[Scenario, SweepSpec, OutputSpec]:
    """Parse and validate a JSON config file into a ready-to-run triple.

    `seed` overrides the document's seed before user placement happens.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config parse error in {path}: {exc}") from exc
    return parse_config(document, seed=seed)


def parse_config(
    document: object, seed: int | None = None
) -> tuple[Scenario, SweepSpec, OutputSpec]:
    """Validate an in-memory config document; see load_config."""
    given = _flatten(document)
    if seed is not None:
        given["seed"] = seed
    values = {
        path: check(path, given.get(path, default)) for path, (default, check) in SCHEMA.items()
    }
    if not values["irs.enabled"]:
        for path in given:
            if path.startswith("irs.") and path != "irs.enabled":
                raise ValueError(f"{path} needs irs.enabled true: there is no mirror wall to set")
    sweep = SweepSpec(values["sweep.snr_points_db"], values["sweep.k_values"])
    return _scenario(values), sweep, OutputSpec(values["output.svg"])


def build_default_scenario(overrides: Mapping | None = None) -> Scenario:
    """Default indoor scenario with a partial config document merged over it."""
    return parse_config(overrides or {})[0]


def _flatten(document: object) -> dict[str, object]:
    """Dotted path -> value for every key the document sets."""
    if not isinstance(document, Mapping):
        raise ValueError("config root must be a JSON object")
    flat: dict[str, object] = {}
    for key, value in document.items():
        if key in _SECTIONS:
            if not isinstance(value, Mapping):
                raise ValueError(f"{key} must be an object")
            flat.update((f"{key}.{sub}", entry) for sub, entry in value.items())
        elif key in SCHEMA and "." not in key:
            flat[key] = value
        else:
            raise ValueError(f"unknown config key: {key}")
    for path in flat:
        if path not in SCHEMA:
            raise ValueError(f"unknown config key: {path}")
    return flat


def _scenario(values: Mapping[str, object]) -> Scenario:
    """Build the Scenario from checked values; cross-key rules raise here
    or in the dataclass checks, naming every key involved."""
    dims = values["room.dims"]
    receiver_z = values["room.receiver_z"]
    center = values["adt.center"] or (dims[0] / 2.0, dims[1] / 2.0, dims[2])
    adt = AdtSpec(
        center_pos=Vec3(*center),
        beam_waist=values["adt.beam_waist_m"],
        beam_wavelength=values["adt.wavelength_m"],
        side_offset=values["adt.side_offset_m"],
    )

    irs = None
    if values["irs.enabled"]:
        irs = build_irs_panel(
            dims,
            wall=values["irs.wall"],
            grid_m=values["irs.grid_m"],
            element_width=values["irs.element_width_m"],
            element_height=values["irs.element_height_m"],
            reflectivity=values["irs.reflectivity"],
            center_height=values["irs.center_height_m"],
            center_along=values["irs.center_along_m"],
        )

    k = values["users.k"]
    positions = values["users.positions"]
    if positions is None:
        points = place_users_uniform(k, dims, values["seed"], receiver_z)
    elif len(positions) != k:
        raise ValueError(
            f"users.k ({k}) must match the number of users.positions ({len(positions)})"
        )
    else:
        points = [Vec3(*p) for p in positions]
    blocked = set(values["users.blocked"])
    if blocked and max(blocked) >= k:
        raise ValueError(
            f"users.blocked entries must be user indices below users.k ({k}), got {max(blocked)}"
        )
    branches = default_adr_branches(
        azimuths_deg=values["users.branch_azimuths_deg"],
        elevation_deg=values["users.branch_elevation_deg"],
        fov_deg=values["users.fov_deg"],
        pd_area=values["users.pd_area_m2"],
    )

    return Scenario(
        room_dims=dims,
        receiver_z=receiver_z,
        adt=adt,
        irs=irs,
        users=tuple(UserSpec(p, i in blocked, branches) for i, p in enumerate(points)),
        responsivity=values["users.responsivity_a_per_w"],
        noise=NoiseParams(
            rin_db_per_hz=values["noise.rin_db_per_hz"],
            noise_current_density=values["noise.noise_current_density"],
            tia_noise_figure_db=values["noise.tia_noise_figure_db"],
            bandwidth_b=values["noise.bandwidth_b"],
        ),
        p_tot=values["power.p_tot_w"],
        eye_safety_cap=values["power.eye_safety_cap_w"],
        max_mirrors_per_user=values["power.max_mirrors_per_user"],
        rng_seed=values["seed"],
    )


def effective_config(
    scenario: Scenario, sweep: SweepSpec | None = None, output: OutputSpec | None = None
) -> dict:
    """Full config document that reproduces the scenario exactly.

    Every SCHEMA key appears, except the panel keys of a disabled mirror
    wall. User positions are dumped explicitly, so reloading the result
    rebuilds an identical Scenario regardless of how the original was
    placed. The scenario's one receiver is written as the four `users.*`
    receiver keys. A value outside its `SCHEMA` check raises ValueError,
    naming its key.
    """
    sweep = sweep or SweepSpec()
    output = output or OutputSpec()
    adt, panel = scenario.adt, scenario.irs
    branch = scenario.receiver[0]
    values: dict[str, object] = {
        "seed": scenario.rng_seed,
        "room.dims": list(scenario.room_dims),
        "room.receiver_z": scenario.receiver_z,
        "adt.center": list(adt.center_pos.as_tuple()),
        "adt.side_offset_m": adt.side_offset,
        "adt.beam_waist_m": adt.beam_waist,
        "adt.wavelength_m": adt.beam_wavelength,
        "irs.enabled": panel is not None,
        "users.k": len(scenario.users),
        "users.positions": [list(u.position.as_tuple()) for u in scenario.users],
        "users.blocked": [i for i, u in enumerate(scenario.users) if u.blocked],
        "users.pd_area_m2": branch.pd_area,
        "users.responsivity_a_per_w": scenario.responsivity,
        "users.branch_azimuths_deg": [b.orientation.azimuth_deg for b in scenario.receiver],
        "users.branch_elevation_deg": branch.orientation.elevation_deg,
        "users.fov_deg": branch.fov_half_angle_deg,
        "noise.rin_db_per_hz": scenario.noise.rin_db_per_hz,
        "noise.noise_current_density": scenario.noise.noise_current_density,
        "noise.tia_noise_figure_db": scenario.noise.tia_noise_figure_db,
        "noise.bandwidth_b": scenario.noise.bandwidth_b,
        "power.p_tot_w": scenario.p_tot,
        "power.eye_safety_cap_w": scenario.eye_safety_cap,
        "power.max_mirrors_per_user": scenario.max_mirrors_per_user,
        "sweep.snr_points_db": list(sweep.snr_points_db),
        "sweep.k_values": list(sweep.k_values),
        "output.svg": output.svg,
    }
    if panel is not None:
        values.update(
            {
                "irs.wall": panel.wall,
                "irs.grid_m": panel.grid_m,
                "irs.element_width_m": panel.element_size[0],
                "irs.element_height_m": panel.element_size[1],
                "irs.reflectivity": panel.reflectivity,
                "irs.center_height_m": panel.panel_center.z,
                "irs.center_along_m": panel.center_along,
            }
        )
    document: dict = {}
    for path, value in values.items():
        # A library-built scenario may hold what no document can, and the
        # dump must reload: the error names the key now, not at reload.
        SCHEMA[path][1](path, value)
        section, _, key = path.rpartition(".")
        (document.setdefault(section, {}) if section else document)[key] = value
    return document


def write_config(document: Mapping, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
