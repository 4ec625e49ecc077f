"""3-D vectors and pointing conventions.

Frame: origin at a floor corner, x-y spanning the floor, z up. Azimuth is
measured in the floor plane from +x toward +y; elevation is measured from
the floor plane toward zenith. All operations here are pure functions on
immutable values and safe to call concurrently. The scalar mirror geometry
(`MirrorElement`, `specular_reflect`, `steer_mirror` and the rest) is part
of the reference path in `owcsim.reference`; the kernels in `channel` steer
and reflect whole arrays of mirrors at once.
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


def direction_from_orientation(orientation: Orientation) -> Vec3:
    """Unit pointing direction, tilted `elevation_deg` above the horizon."""
    az = math.radians(orientation.azimuth_deg)
    el = math.radians(orientation.elevation_deg)
    return Vec3(math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el))


# perfbench (tracing.py, workloads.py) still looks `steer_mirror` up on this
# module; ROADMAP item 1 deletes this forwarder.
def __getattr__(name: str):
    if name == "steer_mirror":
        from . import reference

        return reference.steer_mirror
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
