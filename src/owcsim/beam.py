"""Gaussian beam propagation and aperture capture.

The beam radius grows with distance d as

    w(d) = w0 * sqrt(1 + (lambda * d / (pi * w0^2))^2)

and the transverse intensity profile at that distance is

    I(r, d) = 2 P / (pi * w(d)^2) * exp(-2 r^2 / w(d)^2)

so the power collected by beam-centred circular apertures and by
rectangular apertures (with arbitrary transverse offset) has closed forms
in exp and erf. Tilted rectangles such as steered mirrors are handled by
callers through projection onto the transverse plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Vec3


@dataclass(frozen=True)
class GaussianBeam:
    """One laser beam: source radius, wavelength, carried power, and pose."""

    waist_w0: float  # 1/e^2 intensity radius at the source, m
    wavelength: float  # m
    power_pt: float  # optical power carried, W
    origin: Vec3
    axis: Vec3  # unit propagation direction

    def __post_init__(self) -> None:
        if self.waist_w0 <= 0.0:
            raise ValueError(f"waist_w0 must be positive, got {self.waist_w0}")
        if self.wavelength <= 0.0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if self.power_pt < 0.0:
            raise ValueError(f"power_pt must be nonnegative, got {self.power_pt}")
        if not self.axis.is_unit(1e-9):
            raise ValueError("beam axis must be a unit vector")


def rayleigh_range(beam: GaussianBeam) -> float:
    """Distance over which the beam radius grows by sqrt(2)."""
    return math.pi * beam.waist_w0**2 / beam.wavelength


def waist_at(beam: GaussianBeam, distance: float) -> float:
    """Beam radius after propagating `distance` metres; monotone, >= w0."""
    if distance < 0.0:
        raise ValueError(f"distance must be nonnegative, got {distance}")
    spread = beam.wavelength * distance / (math.pi * beam.waist_w0**2)
    return beam.waist_w0 * math.sqrt(1.0 + spread * spread)


def intensity(beam: GaussianBeam, radial_offset: float, distance: float) -> float:
    """Transverse intensity in W/m^2 at radius r in the plane `distance` out."""
    if radial_offset < 0.0:
        raise ValueError(f"radial_offset must be nonnegative, got {radial_offset}")
    w_d = waist_at(beam, distance)
    peak = 2.0 * beam.power_pt / (math.pi * w_d * w_d)
    return peak * math.exp(-2.0 * radial_offset * radial_offset / (w_d * w_d))


def power_through_circle(beam: GaussianBeam, radius: float, distance: float) -> float:
    """Power through a beam-centred circular aperture perpendicular to the axis.

    Closed form P * (1 - exp(-2 r0^2 / w(d)^2)); bounded by the beam power.
    It is evaluated as -P * expm1(-2 r0^2 / w(d)^2), which keeps full relative
    accuracy for apertures much smaller than the beam.
    """
    if radius < 0.0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    w_d = waist_at(beam, distance)
    return beam.power_pt * -math.expm1(-2.0 * radius * radius / (w_d * w_d))


def power_through_rectangle(
    beam: GaussianBeam,
    width: float,
    height: float,
    distance: float,
    offset: tuple[float, float] = (0.0, 0.0),
) -> float:
    """Power through a rectangular aperture perpendicular to the beam axis.

    The Gaussian factorises in Cartesian coordinates, so the double integral
    is the product of two one-dimensional erf differences. `offset` is the
    displacement of the aperture centre from the beam axis in the transverse
    plane, in metres along the rectangle's own axes.
    """
    if width <= 0.0 or height <= 0.0:
        raise ValueError("aperture width and height must be positive")
    w_d = waist_at(beam, distance)
    off_u, off_v = offset
    return (
        0.25
        * beam.power_pt
        * _erf_span(off_u, 0.5 * width, w_d)
        * _erf_span(off_v, 0.5 * height, w_d)
    )


def _erf_span(center: float, half: float, w_d: float) -> float:
    scale = math.sqrt(2.0) / w_d
    return math.erf(scale * (center + half)) - math.erf(scale * (center - half))
