"""JSON configuration: validation and the effective-config dump.

A config document is a JSON object with sections room, adt, irs, users,
noise, power, sweep, and output plus a top-level seed: one key per row of
`schema.SCHEMA`. Missing keys take the defaults, which are checked once, at
import; a parse checks the document's own keys, converting their types and
naming any list entry at fault. Unknown keys are rejected with their full
path. The built types hold their fields to the same rows, so every dump
reloads; users pass as the row's position tuples, blocked flags and one
receiver. This module owns the document format; `network` works on the
built Scenario. docs/config_schema.md documents the same table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .geometry import Vec3
from .link import NoiseParams
from .network import (
    AdtSpec,
    Scenario,
    build_irs_panel,
    default_adr_branches,
    place_users_uniform,
)
from .schema import CHECKED_DEFAULTS, SCHEMA, check_fields

_SECTIONS = {path.split(".")[0] for path in SCHEMA if "." in path}

DEFAULT_SNR_POINTS_DB = CHECKED_DEFAULTS["sweep.snr_points_db"]
DEFAULT_K_VALUES = CHECKED_DEFAULTS["sweep.k_values"]


@dataclass(frozen=True)
class SweepSpec:
    snr_points_db: tuple[float, ...] = DEFAULT_SNR_POINTS_DB
    k_values: tuple[int, ...] = DEFAULT_K_VALUES

    def __post_init__(self) -> None:
        check_fields(*((f"sweep.{name}", value) for name, value in vars(self).items()))


@dataclass(frozen=True)
class OutputSpec:
    svg: bool = CHECKED_DEFAULTS["output.svg"]

    def __post_init__(self) -> None:
        check_fields(("output.svg", self.svg))


def load_config(
    path: str | Path, seed: int | None = None
) -> tuple[Scenario, SweepSpec, OutputSpec]:
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
    # Only the keys the document sets are checked, in SCHEMA order, so the
    # first bad key named is the same as when every key was checked.
    values = {
        path: check(path, given[path]) if path in given else CHECKED_DEFAULTS[path]
        for path, (_, check) in SCHEMA.items()
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
        placed = place_users_uniform(k, dims, values["seed"], receiver_z)
        positions = tuple(map(Vec3.as_tuple, placed))
    elif len(positions) != k:
        raise ValueError(
            f"users.k ({k}) must match the number of users.positions ({len(positions)})"
        )
    blocked = set(values["users.blocked"])
    if blocked and max(blocked) >= k:
        raise ValueError(
            f"users.blocked entries must be user indices below users.k ({k}), got {max(blocked)}"
        )

    return Scenario(
        room_dims=dims,
        receiver_z=receiver_z,
        adt=adt,
        irs=irs,
        positions=positions,
        blocked=tuple(i in blocked for i in range(k)),
        receiver=default_adr_branches(
            azimuths_deg=values["users.branch_azimuths_deg"],
            elevation_deg=values["users.branch_elevation_deg"],
            fov_deg=values["users.fov_deg"],
            pd_area=values["users.pd_area_m2"],
        ),
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
    receiver keys. Each value was checked against its `SCHEMA` row when its
    object was built, so the document reloads.
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
        "users.k": len(scenario.positions),
        "users.positions": [list(p) for p in scenario.positions],
        "users.blocked": [i for i, b in enumerate(scenario.blocked) if b],
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
        section, _, key = path.rpartition(".")
        (document.setdefault(section, {}) if section else document)[key] = value
    return document


def write_config(document: Mapping, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
