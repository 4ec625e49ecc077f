"""The scalar reference path: one gain, one mirror, one pair at a time.

Evaluation never runs this module; the numpy kernels in `channel`
(`los_gain_table`, `irs_gain_table`) and the Scenario's tables do. It is the
definition those kernels are tested against, step for step, and what
`owcsim selftest` (`owcsim.checks`) exercises. Everything here works on
`Vec3` values and `beam.GaussianBeam`:

- mirror geometry: `MirrorElement`, `specular_reflect`, `steer_mirror`,
  `incidence_angle`, `fov_gate` and `mirror_plane_axes`;
- gains: `los_gain` scores one (transmitter branch, user) pair, and
  `irs_gain` one (transmitter branch, mirror, user) triple, taking a mirror
  already steered for it;
- `serving_branch_index`, the transmitter branch serving one user, which
  `Scenario.serving_branches` reads from the direct table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .beam import GaussianBeam, power_through_circle, power_through_rectangle
from .channel import AdrBranch
from .geometry import GeometryError, Vec3
from .network import Scenario, _fallback_branch


@dataclass(frozen=True)
class MirrorElement:
    """One rotational mirror: centre, unit normal, rectangle size, reflectivity.

    The normal must face into the room; panel construction guarantees that
    and steering preserves it (the steered normal is the bisector of two
    into-the-room directions).
    """

    center: Vec3
    normal: Vec3
    width: float
    height: float
    reflectivity: float

    def __post_init__(self) -> None:
        if not self.normal.is_unit():
            raise ValueError("mirror normal must be a unit vector")
        if self.width <= 0.0 or self.height <= 0.0:
            raise ValueError("mirror width and height must be positive")
        if not 0.0 <= self.reflectivity <= 1.0:
            raise ValueError(
                f"mirror reflectivity must be in [0, 1], got {self.reflectivity}"
            )


def specular_reflect(incident: Vec3, normal: Vec3) -> Vec3:
    """Mirror-law reflection r = i - 2 (i . n) n for unit i and n."""
    _require_unit(incident, "incident")
    _require_unit(normal, "normal")
    return incident - normal.scaled(2.0 * incident.dot(normal))


def steer_mirror(ap_pos: Vec3, mirror_center: Vec3, user_pos: Vec3) -> Vec3:
    """Mirror normal that bounces the ray ap -> mirror onto mirror -> user.

    The normal is the unit bisector (u_out - u_in) / |u_out - u_in|, which
    satisfies the reflection law exactly. The forward pass-through case
    u_out == u_in has no finite-mirror solution and raises.
    """
    u_in = (mirror_center - ap_pos).normalized()
    u_out = (user_pos - mirror_center).normalized()
    diff = u_out - u_in
    if diff.norm() < 1e-9:
        raise GeometryError("degenerate steering geometry")
    return diff.normalized()


def incidence_angle(ray_dir: Vec3, surface_normal: Vec3) -> float:
    """Angle in radians between an arriving ray and the surface normal."""
    _require_unit(ray_dir, "ray_dir")
    _require_unit(surface_normal, "surface_normal")
    cosine = -ray_dir.dot(surface_normal)
    return math.acos(max(-1.0, min(1.0, cosine)))


def fov_gate(incidence_rad: float, fov_half_angle_rad: float) -> int:
    """1 when the arrival is inside the field of view, boundary inclusive."""
    return 1 if incidence_rad <= fov_half_angle_rad else 0


def mirror_plane_axes(normal: Vec3) -> tuple[Vec3, Vec3]:
    """Orthonormal (width_axis, height_axis) spanning the mirror plane.

    The height axis follows the projection of +z onto the plane so that a
    wall-mounted mirror keeps "height" roughly vertical; near-horizontal
    mirrors fall back to projecting +x instead.
    """
    reference = Vec3(0.0, 0.0, 1.0)
    if abs(normal.dot(reference)) > 1.0 - 1e-9:
        reference = Vec3(1.0, 0.0, 0.0)
    height_axis = (reference - normal.scaled(reference.dot(normal))).normalized()
    width_axis = height_axis.cross(normal)
    return width_axis, height_axis


def _require_unit(v: Vec3, name: str) -> None:
    if not v.is_unit():
        raise ValueError(f"{name} must be a unit vector")


def los_gain(
    ap_branch_pos: Vec3,
    user_pos: Vec3,
    user_branches: Sequence[AdrBranch],
    beam: GaussianBeam,
    blocked: bool,
) -> tuple[float, int | None]:
    """Best-branch direct-path gain and the index of the serving branch.

    The beam is aimed at the user, so the photodiode sits on the beam axis
    and the captured fraction follows the circular-aperture form, gated by
    each branch's field of view. Returns (0.0, None) when the path is
    blocked or no branch sees the arrival direction.
    """
    if blocked:
        return 0.0, None
    separation = ap_branch_pos.distance_to(user_pos)
    arrival = (user_pos - ap_branch_pos).normalized()
    unit_beam = replace(beam, power_pt=1.0)
    return _best_branch(unit_beam, separation, arrival, user_branches)


def irs_gain(
    ap_branch_pos: Vec3,
    mirror: MirrorElement,
    user_pos: Vec3,
    user_branches: Sequence[AdrBranch],
    beam: GaussianBeam,
) -> tuple[float, int | None]:
    """Best-branch mirror-path gain for a beam aimed at the mirror centre.

    The intercept fraction is the power captured by the mirror rectangle
    projected onto the transverse plane at the mirror range. The reflected
    field is the same beam continued to the folded distance d1 + d2, and the
    photodiode capture is clipped so it never exceeds what the mirror
    intercepted. The mirror is expected to be steered for this geometry so
    the reflected axis passes through the user.
    """
    to_mirror = mirror.center - ap_branch_pos
    mirror_range = to_mirror.norm()
    u_in = to_mirror.normalized()
    leg_out = user_pos - mirror.center
    # Either endpoint behind the mirror plane cannot couple through it.
    if leg_out.dot(mirror.normal) <= 0.0:
        return 0.0, None
    if (ap_branch_pos - mirror.center).dot(mirror.normal) <= 0.0:
        return 0.0, None
    arrival = specular_reflect(u_in, mirror.normal)
    width_axis, height_axis = mirror_plane_axes(mirror.normal)
    width_eff = mirror.width * _projected_scale(width_axis, u_in)
    height_eff = mirror.height * _projected_scale(height_axis, u_in)
    if width_eff <= 0.0 or height_eff <= 0.0:
        return 0.0, None
    unit_beam = replace(beam, power_pt=1.0)
    intercept = power_through_rectangle(unit_beam, width_eff, height_eff, mirror_range)
    total_range = mirror_range + leg_out.norm()

    best_gain = 0.0
    best_index: int | None = None
    for index, branch in enumerate(user_branches):
        if not fov_gate(incidence_angle(arrival, branch.normal()), branch.fov_half_angle_rad()):
            continue
        captured = power_through_circle(unit_beam, branch.aperture_radius(), total_range)
        gain = mirror.reflectivity * min(intercept, captured)
        if gain > best_gain:
            best_gain, best_index = gain, index
    return best_gain, best_index


def _best_branch(
    unit_beam: GaussianBeam,
    total_distance: float,
    arrival: Vec3,
    branches: Sequence[AdrBranch],
) -> tuple[float, int | None]:
    best_gain = 0.0
    best_index: int | None = None
    for index, branch in enumerate(branches):
        if not fov_gate(incidence_angle(arrival, branch.normal()), branch.fov_half_angle_rad()):
            continue
        captured = power_through_circle(unit_beam, branch.aperture_radius(), total_distance)
        if captured > best_gain:
            best_gain, best_index = captured, index
    return best_gain, best_index


def _projected_scale(axis: Vec3, beam_dir: Vec3) -> float:
    along = axis.dot(beam_dir)
    return math.sqrt(max(0.0, 1.0 - along * along))


def serving_branch_index(scenario: Scenario, user_index: int) -> int:
    """Transmitter branch serving this user.

    The branch with the best unblocked direct gain wins; when every branch
    is blocked or gated out, fall back to the branch best placed for the
    mirror wall (or nearest the user when there is none).
    """
    user = scenario.users[user_index]
    positions = scenario.adt.branch_positions()
    best_index: int | None = None
    best_gain = 0.0
    for index, pos in enumerate(positions):
        axis = (user.position - pos).normalized()
        beam = GaussianBeam(scenario.adt.beam_waist, scenario.adt.beam_wavelength, 1.0, pos, axis)
        gain, _ = los_gain(pos, user.position, user.branches, beam, user.blocked)
        if gain > best_gain:
            best_gain, best_index = gain, index
    if best_index is not None:
        return best_index
    return _fallback_branch(scenario, user_index)
