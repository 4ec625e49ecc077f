import math
import random

import pytest

from owcsim.beam import (
    GaussianBeam,
    intensity,
    power_through_circle,
    power_through_rectangle,
    rayleigh_range,
    waist_at,
)
from owcsim.geometry import Vec3

from oracles import circle_power_quadrature, rectangle_power_quadrature

UP = Vec3(0.0, 0.0, 1.0)


def beam(w0=5e-6, wavelength=1550e-9, power=1.0) -> GaussianBeam:
    return GaussianBeam(w0, wavelength, power, Vec3(0, 0, 0), UP)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class TestWaist:
    def test_at_source(self):
        assert waist_at(beam(), 0.0) == 5e-6

    def test_three_metres(self):
        # hand-evaluated: spread ratio 5.920564e4, radius 0.2960281942 m
        assert rel_err(waist_at(beam(), 3.0), 0.2960281942) < 1e-9
        assert abs(waist_at(beam(), 3.0) - 0.29603) < 1e-5

    def test_rayleigh_range_growth(self):
        b = beam()
        zr = rayleigh_range(b)
        assert rel_err(waist_at(b, zr), 5e-6 * math.sqrt(2.0)) < 1e-12

    def test_monotone_nondecreasing(self):
        b = beam()
        last = 0.0
        for d in [x * 0.05 for x in range(200)]:
            w = waist_at(b, d)
            assert w >= last
            assert w >= b.waist_w0
            last = w

    def test_asymptotically_linear(self):
        b = beam()
        d = 1e3 * rayleigh_range(b)
        assert rel_err(waist_at(b, d) / d, b.wavelength / (math.pi * b.waist_w0)) < 1e-6

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            waist_at(beam(), -0.1)


class TestIntensity:
    def test_on_axis_peak(self):
        b = beam()
        w = waist_at(b, 2.0)
        assert rel_err(intensity(b, 0.0, 2.0), 2.0 / (math.pi * w * w)) < 1e-12

    def test_one_radius_off_axis(self):
        b = beam()
        peak = intensity(b, 0.0, 2.0)
        assert rel_err(intensity(b, waist_at(b, 2.0), 2.0), peak * math.exp(-2)) < 1e-12

    def test_decreases_in_radius(self):
        b = beam()
        w = waist_at(b, 1.0)
        values = [intensity(b, f * w, 1.0) for f in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values, reverse=True)

    def test_total_power_by_quadrature(self):
        b = beam(power=0.73)
        for d in (0.0, 1.0, 3.0):
            total = circle_power_quadrature(
                b.waist_w0, b.wavelength, b.power_pt, 10.0 * waist_at(b, d), d
            )
            assert abs(total - b.power_pt) < 1e-6 * b.power_pt


class TestPowerThroughCircle:
    def test_zero_radius(self):
        assert power_through_circle(beam(), 0.0, 1.0) == 0.0

    def test_characteristic_radius(self):
        # r0 = w / sqrt(2) captures 1 - 1/e of the power
        b = beam()
        r0 = waist_at(b, 2.0) / math.sqrt(2.0)
        assert rel_err(power_through_circle(b, r0, 2.0), 1.0 - math.exp(-1)) < 1e-12

    def test_photodiode_at_three_metres(self):
        # 20 mm^2 detector at 3 m: hand-evaluated capture 1.4528220319e-4
        b = beam()
        r0 = math.sqrt(20e-6 / math.pi)
        assert rel_err(power_through_circle(b, r0, 3.0), 1.4528220319e-4) < 1e-9

    def test_tiny_aperture_matches_series(self):
        # x = 2 r0^2 / w^2 << 1: the capture P (1 - e^-x) is P (x - x^2/2) to
        # within x^2/6 relative, far below 1e-15 here; 1 - exp(-x) would lose
        # about 1e-16 / x of it to cancellation.
        b = beam(power=0.8)
        w = waist_at(b, 3.0)
        for x in (1e-14, 1e-11, 1e-8):
            r0 = w * math.sqrt(x / 2.0)
            x = 2.0 * r0 * r0 / (w * w)
            series = b.power_pt * (x - x * x / 2.0)
            assert rel_err(power_through_circle(b, r0, 3.0), series) < 1e-15

    def test_wide_aperture_captures_everything(self):
        b = beam(power=0.42)
        for d in (0.0, 1.0, 4.0):
            captured = power_through_circle(b, 10.0 * waist_at(b, d), d)
            assert abs(captured - b.power_pt) <= 1e-12 * b.power_pt

    def test_increasing_in_radius(self):
        b = beam()
        w = waist_at(b, 3.0)
        captures = [power_through_circle(b, f * w, 3.0) for f in (0.1, 0.5, 1.0, 2.0)]
        assert captures == sorted(captures)

    def test_matches_quadrature_on_random_tuples(self):
        rng = random.Random(11)
        for _ in range(50):
            w0 = rng.uniform(1e-6, 1e-3)
            wavelength = rng.uniform(4e-7, 2e-6)
            d = rng.uniform(0.0, 10.0)
            b = beam(w0, wavelength, rng.uniform(0.1, 2.0))
            r0 = rng.uniform(0.05, 4.0) * waist_at(b, d)
            closed = power_through_circle(b, r0, d)
            quad = circle_power_quadrature(w0, wavelength, b.power_pt, r0, d)
            assert rel_err(closed, quad) < 1e-6


class TestPowerThroughRectangle:
    def test_unbounded_aperture(self):
        b = beam(power=0.9)
        assert rel_err(power_through_rectangle(b, math.inf, math.inf, 2.0), 0.9) < 1e-12

    def test_centered_square_identity(self):
        # square with half-side s captures P * erf(sqrt(2) s / w)^2
        b = beam()
        w = waist_at(b, 3.0)
        for s in (0.2 * w, w, 2.5 * w):
            closed = power_through_rectangle(b, 2 * s, 2 * s, 3.0)
            expected = math.erf(math.sqrt(2.0) * s / w) ** 2
            assert rel_err(closed, expected) < 1e-12
            quad = rectangle_power_quadrature(b.waist_w0, b.wavelength, 1.0, 2 * s, 2 * s, 3.0)
            assert rel_err(closed, quad) < 1e-6

    def test_mirror_sized_aperture_at_three_metres(self):
        b = beam()
        closed = power_through_rectangle(b, 0.15, 0.10, 3.0)
        quad = rectangle_power_quadrature(b.waist_w0, b.wavelength, 1.0, 0.15, 0.10, 3.0)
        assert rel_err(closed, quad) < 1e-6
        # hand-evaluated erf product for this geometry
        assert rel_err(closed, 1.0252720834e-01) < 1e-9

    def test_matches_quadrature_on_random_rectangles(self):
        rng = random.Random(12)
        for _ in range(50):
            w0 = rng.uniform(1e-6, 1e-4)
            wavelength = rng.uniform(4e-7, 2e-6)
            d = rng.uniform(0.1, 8.0)
            b = beam(w0, wavelength, rng.uniform(0.1, 2.0))
            w_d = waist_at(b, d)
            width = rng.uniform(0.05, 5.0) * w_d
            height = rng.uniform(0.05, 5.0) * w_d
            offset = (rng.uniform(-1.0, 1.0) * w_d, rng.uniform(-1.0, 1.0) * w_d)
            closed = power_through_rectangle(b, width, height, d, offset)
            quad = rectangle_power_quadrature(
                w0, wavelength, b.power_pt, width, height, d, offset
            )
            assert rel_err(closed, quad) < 1e-6

    def test_offset_reduces_capture(self):
        b = beam()
        w = waist_at(b, 3.0)
        centered = power_through_rectangle(b, w, w, 3.0)
        shifted = power_through_rectangle(b, w, w, 3.0, offset=(2 * w, 0.0))
        assert shifted < centered

    def test_aperture_inclusion_ordering(self):
        # inscribed square <= circle <= circumscribed square
        rng = random.Random(13)
        b = beam()
        for _ in range(100):
            d = rng.uniform(0.2, 6.0)
            r = rng.uniform(0.05, 3.0) * waist_at(b, d)
            inscribed = power_through_rectangle(b, r * math.sqrt(2), r * math.sqrt(2), d)
            circle = power_through_circle(b, r, d)
            circumscribed = power_through_rectangle(b, 2 * r, 2 * r, d)
            assert inscribed <= circle <= circumscribed

    def test_bounded_by_beam_power(self):
        rng = random.Random(14)
        b = beam(power=0.37)
        for _ in range(100):
            d = rng.uniform(0.0, 10.0)
            value = power_through_rectangle(
                b, rng.uniform(1e-4, 10.0), rng.uniform(1e-4, 10.0), d
            )
            assert 0.0 <= value <= b.power_pt + 1e-15


class TestValidation:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="waist_w0"):
            GaussianBeam(0.0, 1e-6, 1.0, Vec3(0, 0, 0), UP)
        with pytest.raises(ValueError, match="wavelength"):
            GaussianBeam(1e-6, -1e-6, 1.0, Vec3(0, 0, 0), UP)
        with pytest.raises(ValueError, match="power_pt"):
            GaussianBeam(1e-6, 1e-6, -0.1, Vec3(0, 0, 0), UP)
        with pytest.raises(ValueError, match="axis"):
            GaussianBeam(1e-6, 1e-6, 1.0, Vec3(0, 0, 0), Vec3(0, 0, 2))
