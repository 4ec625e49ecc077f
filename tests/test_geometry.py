import math
import random

import pytest

from owcsim import checks
from owcsim.checks import rand_unit
from owcsim.geometry import GeometryError, Orientation, Vec3, direction_from_orientation
from owcsim.reference import (
    MirrorElement,
    fov_gate,
    incidence_angle,
    mirror_plane_axes,
    specular_reflect,
    steer_mirror,
)


class TestVec3:
    def test_arithmetic(self):
        a, b = Vec3(1, 2, 3), Vec3(-1, 0.5, 2)
        assert (a + b).as_tuple() == (0, 2.5, 5)
        assert (a - b).as_tuple() == (2, 1.5, 1)
        assert a.scaled(2).as_tuple() == (2, 4, 6)
        assert a.dot(b) == 1 * -1 + 2 * 0.5 + 3 * 2

    def test_cross_is_orthogonal(self):
        rng = random.Random(0)
        for _ in range(100):
            a, b = rand_unit(rng), rand_unit(rng)
            c = a.cross(b)
            assert abs(c.dot(a)) < 1e-12
            assert abs(c.dot(b)) < 1e-12

    def test_normalized_unit(self):
        v = Vec3(3, -4, 12).normalized()
        assert v.is_unit()
        assert abs(v.norm() - 1.0) <= 1e-12
        assert not Vec3(1.0 + 2e-9, 0.0, 0.0).is_unit()

    def test_zero_vector_has_no_direction(self):
        with pytest.raises(GeometryError):
            Vec3(0, 0, 0).normalized()


class TestOrientation:
    def test_ranges_enforced(self):
        Orientation(0.0, 0.0)
        Orientation(359.999, 90.0)
        with pytest.raises(ValueError, match="azimuth_deg"):
            Orientation(360.0, 10.0)
        with pytest.raises(ValueError, match="azimuth_deg"):
            Orientation(-1.0, 10.0)
        with pytest.raises(ValueError, match="elevation_deg"):
            Orientation(0.0, 90.5)


class TestDirectionFromOrientation:
    def test_straight_up(self):
        d = direction_from_orientation(Orientation(0.0, 90.0))
        assert abs(d.x) < 1e-12 and abs(d.y) < 1e-12
        assert abs(d.z - 1.0) < 1e-12

    def test_up_at_60_deg_along_x(self):
        # cos 60 = 1/2, sin 60 = sqrt(3)/2
        d = direction_from_orientation(Orientation(0.0, 60.0))
        assert abs(d.x - 0.5) < 1e-12
        assert abs(d.y) < 1e-12
        assert abs(d.z - math.sqrt(3) / 2) < 1e-12

    def test_up_at_60_deg(self):
        d = direction_from_orientation(Orientation(90.0, 60.0))
        assert abs(d.x) < 1e-12
        assert abs(d.y - 0.5) < 1e-12
        assert abs(d.z - math.sqrt(3) / 2) < 1e-12

    def test_always_unit(self):
        rng = random.Random(1)
        for _ in range(200):
            o = Orientation(rng.uniform(0, 360), rng.uniform(0, 90))
            assert abs(direction_from_orientation(o).norm() - 1.0) <= 1e-12

    def test_round_trip(self):
        rng = random.Random(2)
        for _ in range(200):
            az = rng.uniform(0, 360)
            el = rng.uniform(0.01, 89.99)
            d = direction_from_orientation(Orientation(az, el))
            el_back = math.degrees(math.asin(d.z))
            az_back = math.degrees(math.atan2(d.y, d.x)) % 360.0
            assert abs(el_back - el) < 1e-9
            assert min(abs(az_back - az), 360 - abs(az_back - az)) < 1e-9


class TestSpecularReflect:
    def test_retroreflection_at_normal_incidence(self):
        r = specular_reflect(Vec3(0, 0, -1), Vec3(0, 0, 1))
        assert (r - Vec3(0, 0, 1)).norm() < 1e-15

    def test_45_degree_reflection(self):
        s = 1 / math.sqrt(2)
        r = specular_reflect(Vec3(s, 0, -s), Vec3(0, 0, 1))
        assert (r - Vec3(s, 0, s)).norm() < 1e-15

    def test_hand_applied_formula(self):
        r = specular_reflect(Vec3(0.6, 0.0, -0.8), Vec3(0, 0, 1))
        assert (r - Vec3(0.6, 0.0, 0.8)).norm() < 1e-15

    def test_involution_and_norm(self):
        checks.reflection(random.Random(3), 1000)

    def test_flips_normal_component_keeps_tangential(self):
        rng = random.Random(4)
        for _ in range(1000):
            v, n = rand_unit(rng), rand_unit(rng)
            r = specular_reflect(v, n)
            assert abs(r.dot(n) + v.dot(n)) < 1e-12
            tang_v = v - n.scaled(v.dot(n))
            tang_r = r - n.scaled(r.dot(n))
            assert (tang_v - tang_r).norm() < 1e-12

    def test_reflection_law_angles(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rand_unit(rng)
            v = rand_unit(rng)
            if v.dot(n) >= -1e-3:
                v = v.scaled(-1.0) if v.dot(n) > 0 else rand_unit(rng)
            if v.dot(n) >= 0:
                continue
            r = specular_reflect(v, n)
            angle_in = incidence_angle(v, n)
            angle_out = math.acos(max(-1.0, min(1.0, r.dot(n))))
            assert abs(angle_in - angle_out) < 1e-12

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            specular_reflect(Vec3(0, 0, -2), Vec3(0, 0, 1))


class TestSteerMirror:
    def test_retroreflection_bisector(self):
        # ap below, user below: u_in = (0,1,0), u_out = (0,-1,0)
        n = steer_mirror(Vec3(0, -1, 0), Vec3(0, 0, 0), Vec3(0, -1, 0))
        assert (n - Vec3(0, -1, 0)).norm() < 1e-12

    def test_wall_geometry_satisfies_reflection_law(self):
        ap = Vec3(2.5, 2.5, 3.0)
        mirror = Vec3(2.5, 5.0, 1.5)
        user = Vec3(2.5, 0.0, 0.5)
        n = steer_mirror(ap, mirror, user)
        assert abs(n.x) < 1e-12  # geometry confined to the y-z plane
        u_in = (mirror - ap).normalized()
        u_out = (user - mirror).normalized()
        assert (specular_reflect(u_in, n) - u_out).norm() < 1e-9

    def test_degenerate_pass_through(self):
        with pytest.raises(GeometryError, match="degenerate steering geometry"):
            steer_mirror(Vec3(0, 0, 0), Vec3(0, 0, 1), Vec3(0, 0, 2))

    def test_random_triples_reflect_exactly(self):
        checks.steering(random.Random(6), 200)


class TestIncidenceAndGate:
    def test_normal_incidence(self):
        assert incidence_angle(Vec3(0, 0, -1), Vec3(0, 0, 1)) == 0.0

    def test_45_degrees(self):
        s = 1 / math.sqrt(2)
        assert abs(incidence_angle(Vec3(s, 0, -s), Vec3(0, 0, 1)) - math.pi / 4) < 1e-12

    def test_from_behind_is_pi(self):
        assert abs(incidence_angle(Vec3(0, 0, 1), Vec3(0, 0, 1)) - math.pi) < 1e-12

    def test_gate_inside(self):
        assert fov_gate(math.radians(20), math.radians(25)) == 1

    def test_gate_boundary_inclusive(self):
        assert fov_gate(math.radians(25), math.radians(25)) == 1

    def test_gate_outside(self):
        assert fov_gate(math.radians(30), math.radians(25)) == 0


class TestMirrorElement:
    def test_validation(self):
        MirrorElement(Vec3(0, 0, 0), Vec3(0, 0, 1), 0.15, 0.10, 0.95)
        with pytest.raises(ValueError, match="unit"):
            MirrorElement(Vec3(0, 0, 0), Vec3(0, 0, 2), 0.15, 0.10, 0.95)
        with pytest.raises(ValueError, match="positive"):
            MirrorElement(Vec3(0, 0, 0), Vec3(0, 0, 1), 0.0, 0.10, 0.95)
        with pytest.raises(ValueError, match="reflectivity"):
            MirrorElement(Vec3(0, 0, 0), Vec3(0, 0, 1), 0.15, 0.10, 1.5)

    def test_plane_axes_orthonormal(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rand_unit(rng)
            w_axis, h_axis = mirror_plane_axes(n)
            assert abs(w_axis.norm() - 1.0) <= 1e-12
            assert abs(h_axis.norm() - 1.0) <= 1e-12
            assert abs(w_axis.dot(n)) < 1e-12
            assert abs(h_axis.dot(n)) < 1e-12
            assert abs(w_axis.dot(h_axis)) < 1e-12

    def test_plane_axes_vertical_normal_fallback(self):
        w_axis, h_axis = mirror_plane_axes(Vec3(0, 0, 1))
        assert abs(w_axis.dot(h_axis)) < 1e-12
