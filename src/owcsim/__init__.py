"""Link-level simulator for indoor laser optical wireless networks assisted
by a wall of steerable specular mirrors.

`import owcsim` loads no submodule: each public name below imports its own
module on first read (PEP 562), so `python -m owcsim` and `import owcsim.cli`
compile only what their run uses.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "GaussianBeam",
            "intensity",
            "power_through_circle",
            "power_through_rectangle",
            "rayleigh_range",
            "waist_at",
        ),
        "beam",
    ),
    **dict.fromkeys(
        ("AdrBranch", "ChannelGain", "MirrorColumns", "irs_gain_table", "los_gain_table"),
        "channel",
    ),
    **dict.fromkeys(
        (
            "OutputSpec",
            "SweepSpec",
            "build_default_scenario",
            "effective_config",
            "load_config",
            "parse_config",
        ),
        "config",
    ),
    **dict.fromkeys(
        ("GeometryError", "Orientation", "Vec3", "direction_from_orientation"), "geometry"
    ),
    **dict.fromkeys(
        (
            "LinkResult",
            "NoiseParams",
            "achievable_rate",
            "noise_variance",
            "sinr",
            "sum_rate",
            "thermal_noise_variance",
        ),
        "link",
    ),
    **dict.fromkeys(
        (
            "AdtSpec",
            "Assignment",
            "IrsPanel",
            "Scenario",
            "UserSpec",
            "assign_mirrors",
            "build_irs_panel",
            "evaluate_scenario",
            "evaluate_user",
            "irs_gain_matrix",
            "place_users_uniform",
            "power_for_transmit_snr",
            "scenario_assignment",
            "simulate_scenario",
            "sweep_snr",
            "sweep_users",
            "transmit_snr_db",
            "with_irs_grid",
            "without_irs",
        ),
        "network",
    ),
    **dict.fromkeys(
        ("ResultRow", "ResultTable", "read_result_csv", "render_line_plot", "write_csv"),
        "output",
    ),
    **dict.fromkeys(
        (
            "MirrorElement",
            "fov_gate",
            "incidence_angle",
            "irs_gain",
            "los_gain",
            "mirror_plane_axes",
            "specular_reflect",
            "steer_mirror",
        ),
        "reference",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
