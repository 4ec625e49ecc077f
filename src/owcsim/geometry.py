"""3-D vectors, pointing conventions, and specular mirror geometry.

Frame: origin at a floor corner, x-y spanning the floor, z up. Azimuth is
measured in the floor plane from +x toward +y; elevation is measured from
the floor plane toward zenith. All operations here are pure functions on
immutable values and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class GeometryError(ValueError):
    """Degenerate geometric configuration (zero vectors, impossible steering)."""


@dataclass(frozen=True)
class Vec3:
    """Point in metres, or a direction (unit norm by convention)."""

    x: float
    y: float
    z: float

    def __add__(self, other: Vec3) -> Vec3:
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: Vec3) -> Vec3:
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def scaled(self, factor: float) -> Vec3:
        return Vec3(self.x * factor, self.y * factor, self.z * factor)

    def dot(self, other: Vec3) -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: Vec3) -> Vec3:
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def normalized(self) -> Vec3:
        n = self.norm()
        if n == 0.0:
            raise GeometryError("zero-length vector has no direction")
        return self.scaled(1.0 / n)

    def distance_to(self, other: Vec3) -> float:
        return (other - self).norm()

    def is_unit(self) -> bool:
        """Unit norm to within 1e-9."""
        return abs(self.norm() - 1.0) <= 1e-9

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class Orientation:
    """Pointing given as azimuth in [0, 360) deg and elevation in [0, 90] deg."""

    azimuth_deg: float
    elevation_deg: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.azimuth_deg < 360.0:
            raise ValueError(
                f"azimuth_deg must be in [0, 360), got {self.azimuth_deg}"
            )
        if not 0.0 <= self.elevation_deg <= 90.0:
            raise ValueError(
                f"elevation_deg must be in [0, 90], got {self.elevation_deg}"
            )


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


def direction_from_orientation(orientation: Orientation) -> Vec3:
    """Unit pointing direction, tilted `elevation_deg` above the horizon."""
    az = math.radians(orientation.azimuth_deg)
    el = math.radians(orientation.elevation_deg)
    return Vec3(math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el))


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
