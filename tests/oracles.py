"""Independent numerical oracles used across the test suite.

Everything here is written from first principles on plain floats and tuples
(no owcsim imports), so agreement with the package is a genuine two-route
check: closed forms against quadrature, greedy search against enumeration.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from typing import Callable, Sequence


def simpson(f: Callable[[float], float], a: float, b: float, n: int = 2048) -> float:
    """Composite Simpson rule with n (even) intervals."""
    if n % 2:
        n += 1
    h = (b - a) / n
    total = f(a) + f(b)
    for i in range(1, n):
        total += f(a + i * h) * (4 if i % 2 else 2)
    return total * h / 3.0


def beam_radius(w0: float, wavelength: float, distance: float) -> float:
    spread = wavelength * distance / (math.pi * w0 * w0)
    return w0 * math.sqrt(1.0 + spread * spread)


def beam_intensity(
    w0: float, wavelength: float, power: float, radial: float, distance: float
) -> float:
    w_d = beam_radius(w0, wavelength, distance)
    return (2.0 * power / (math.pi * w_d * w_d)) * math.exp(
        -2.0 * radial * radial / (w_d * w_d)
    )


def circle_power_quadrature(
    w0: float, wavelength: float, power: float, radius: float, distance: float, n: int = 4096
) -> float:
    """2 pi * integral_0^r0 I(r) r dr by Simpson quadrature."""

    def integrand(r: float) -> float:
        return beam_intensity(w0, wavelength, power, r, distance) * r

    return 2.0 * math.pi * simpson(integrand, 0.0, radius, n)


def rectangle_power_quadrature(
    w0: float,
    wavelength: float,
    power: float,
    width: float,
    height: float,
    distance: float,
    offset: tuple[float, float] = (0.0, 0.0),
    n: int = 256,
) -> float:
    """2-D Simpson quadrature of the transverse intensity over a rectangle."""
    off_u, off_v = offset

    def row(v: float) -> float:
        def integrand(u: float) -> float:
            return beam_intensity(
                w0, wavelength, power, math.hypot(u, v), distance
            )

        return simpson(integrand, off_u - width / 2.0, off_u + width / 2.0, n)

    return simpson(row, off_v - height / 2.0, off_v + height / 2.0, n)


def best_matching_value(gains: Sequence[Sequence[float]]) -> float:
    """Exhaustive optimum of a one-mirror-per-user assignment.

    Enumerates every injective mapping of users onto mirrors (all sizes up
    to min(U, M)); gains are nonnegative so maximal-size matchings dominate,
    but smaller ones are covered anyway.
    """
    n_users = len(gains)
    n_mirrors = len(gains[0]) if gains else 0
    best = 0.0
    size = min(n_users, n_mirrors)
    for r in range(size + 1):
        for users in combinations(range(n_users), r):
            for mirrors in permutations(range(n_mirrors), r):
                best = max(best, sum(gains[u][m] for u, m in zip(users, mirrors)))
    return best


def user_gain_oracle(scenario, per_user, user_index: int):
    """One user's gains by the per-mirror loop, read from a scenario's tables.

    Returns (h_los, h_nlos, q, LoS receiver branch, NLoS receiver branch),
    a branch None where there is none. h_los is the direct gain at the
    serving transmitter branch; h_nlos adds the held mirrors' gains one by
    one, in the order `per_user` lists them; the NLoS receiver branch is the
    best held mirror's, the first listed on a tie. The scenario is read only
    through `serving_branches`, `direct_table` and `mirror_table`.
    """
    branch = scenario.serving_branches[user_index]
    gain, receiver = scenario.direct_table
    h_los = float(gain[user_index, branch])
    los_branch = int(receiver[user_index, branch])
    mirror_gain, mirror_receiver = scenario.mirror_table
    mirrors = per_user[user_index]
    nlos = [float(mirror_gain[user_index, m]) for m in mirrors]
    h_nlos = 0.0
    for contribution in nlos:
        h_nlos += contribution
    nlos_branch = -1
    if mirrors:
        nlos_branch = int(mirror_receiver[user_index, mirrors[nlos.index(max(nlos))]])
    return (
        h_los,
        h_nlos,
        h_los + h_nlos,
        None if los_branch < 0 else los_branch,
        None if nlos_branch < 0 else nlos_branch,
    )


# --- raw 3-vector helpers (tuples, deliberately not owcsim.Vec3) -----------


def vsub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def vadd(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def vscale(a, s):
    return (a[0] * s, a[1] * s, a[2] * s)


def vdot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def vcross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def vnorm(a):
    return math.sqrt(vdot(a, a))


def vunit(a):
    n = vnorm(a)
    return (a[0] / n, a[1] / n, a[2] / n)


def reflect(v, n):
    return vsub(v, vscale(n, 2.0 * vdot(v, n)))


def branch_normal(azimuth_deg: float, elevation_deg: float):
    az, el = math.radians(azimuth_deg), math.radians(elevation_deg)
    return (math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el))


def incidence_deg(arrival, normal) -> float:
    cosine = max(-1.0, min(1.0, -vdot(arrival, normal)))
    return math.degrees(math.acos(cosine))


def mirror_path_gain_oracle(
    ap,
    mirror_center,
    user,
    mirror_width: float,
    mirror_height: float,
    reflectivity: float,
    w0: float,
    wavelength: float,
    pd_area: float,
    branch_angles: Sequence[tuple[float, float]],
    fov_deg: float,
) -> float:
    """Two-bounce reflected-path gain by quadrature and image-source math.

    The mirror is steered for the (ap, mirror, user) triple. The intercepted
    fraction integrates the beam intensity over the projected mirror
    rectangle by 2-D Simpson; every intercepted ray folds specularly, which
    is equivalent to continuing the beam from the mirror image of the
    source, so the photodiode capture integrates the same beam at the
    image-source distance by radial quadrature. Select-best gating across
    the receiver branches matches the model's combining rule.
    """
    u_in = vunit(vsub(mirror_center, ap))
    u_out = vunit(vsub(user, mirror_center))
    bisector = vsub(u_out, u_in)
    normal = vunit(bisector)

    # Projection convention: height axis follows +z projected onto the plane.
    zref = (0.0, 0.0, 1.0)
    height_axis = vunit(vsub(zref, vscale(normal, vdot(zref, normal))))
    width_axis = vcross(height_axis, normal)
    d1 = vnorm(vsub(mirror_center, ap))
    w_eff = mirror_width * math.sqrt(max(0.0, 1.0 - vdot(width_axis, u_in) ** 2))
    h_eff = mirror_height * math.sqrt(max(0.0, 1.0 - vdot(height_axis, u_in) ** 2))
    intercept = rectangle_power_quadrature(w0, wavelength, 1.0, w_eff, h_eff, d1)

    # Image of the source across the steered mirror plane.
    ap_to_center = vsub(mirror_center, ap)
    ap_image = vadd(ap, vscale(normal, 2.0 * vdot(ap_to_center, normal)))
    image_distance = vnorm(vsub(user, ap_image))
    r0 = math.sqrt(pd_area / math.pi)
    captured = circle_power_quadrature(w0, wavelength, 1.0, r0, image_distance)

    arrival = reflect(u_in, normal)
    best = 0.0
    for az, el in branch_angles:
        if incidence_deg(arrival, branch_normal(az, el)) <= fov_deg:
            best = max(best, reflectivity * min(intercept, captured))
    return best
