"""Invariant checks: the one copy behind `owcsim selftest` and the test suite.

Each check takes a seeded `random.Random` and a draw count, and raises on
the first violated invariant. `CHECKS` lists them in the order `selftest`
prints them, with the seed and the (reduced) draw count selftest uses; the
acceptance suite and the unit tests call the same functions on their own
seeds and depths. Checks with fixed inputs ignore the rng.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from itertools import permutations

from .beam import GaussianBeam, power_through_circle, power_through_rectangle, waist_at
from .config import build_default_scenario
from .geometry import Vec3
from .network import (
    assign_mirrors,
    default_adr_branches,
    evaluate_scenario,
    power_for_transmit_snr,
    sweep_snr,
    without_irs,
)
from .reference import (
    MirrorElement,
    incidence_angle,
    irs_gain,
    los_gain,
    specular_reflect,
    steer_mirror,
)


def _expect(holds: bool, message: str) -> None:
    """Fail the running check; unlike `assert`, this also runs under `python -O`."""
    if not holds:
        raise AssertionError(message)


def rand_unit(rng: random.Random) -> Vec3:
    """A random unit vector, by rejection from the unit ball."""
    while True:
        v = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        if 1e-3 < v.norm() <= 1.0:
            return v.normalized()


def reflection(rng: random.Random, draws: int) -> None:
    """Reflection keeps the norm, is an involution, and obeys the angle law."""
    for _ in range(draws):
        v, n = rand_unit(rng), rand_unit(rng)
        r = specular_reflect(v, n)
        _expect(abs(r.norm() - 1.0) < 1e-12, "reflection changed the norm")
        _expect((specular_reflect(r, n) - v).norm() < 1e-12, "reflection is not an involution")
        if v.dot(n) < -1e-6:
            angle_out = math.acos(max(-1.0, min(1.0, r.dot(n))))
            _expect(abs(incidence_angle(v, n) - angle_out) < 1e-12, "angle law violated")


def steering(rng: random.Random, draws: int) -> None:
    """A steered mirror reflects the access-point ray exactly onto the user."""
    for _ in range(draws):
        ap = Vec3(rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(2.0, 3.0))
        center = Vec3(rng.uniform(0, 5), 5.0, rng.uniform(0.5, 2.5))
        user = Vec3(rng.uniform(0, 5), rng.uniform(0, 4.5), 0.0)
        normal = steer_mirror(ap, center, user)
        u_in = (center - ap).normalized()
        u_out = (user - center).normalized()
        miss = (specular_reflect(u_in, normal) - u_out).norm()
        _expect(miss < 1e-9, "steered normal violates the reflection law")


def beam_energy(rng: random.Random | None = None, draws: int = 0) -> None:
    """An aperture ten beam radii wide captures the whole beam (fixed distances)."""
    beam = GaussianBeam(5e-6, 1.55e-6, 1.0, Vec3(0, 0, 0), Vec3(0, 0, 1))
    for d in (0.0, 0.5, 3.0, 10.0):
        captured = power_through_circle(beam, 10.0 * waist_at(beam, d), d)
        _expect(abs(captured - 1.0) < 1e-12, "wide aperture must capture the whole beam")


def aperture_inclusion(rng: random.Random, draws: int) -> None:
    """Inscribed square <= circle <= circumscribed square, in captured power."""
    beam = GaussianBeam(5e-6, 1.55e-6, 1.0, Vec3(0, 0, 0), Vec3(0, 0, 1))
    for _ in range(draws):
        d = rng.uniform(0.5, 6.0)
        r = rng.uniform(0.001, 0.5)
        inscribed = power_through_rectangle(beam, 2 * r / math.sqrt(2), 2 * r / math.sqrt(2), d)
        circle = power_through_circle(beam, r, d)
        circumscribed = power_through_rectangle(beam, 2 * r, 2 * r, d)
        _expect(inscribed <= circle <= circumscribed, "aperture inclusion violated")


def image_source(rng: random.Random, draws: int) -> None:
    """The path via a steered mirror equals the direct path from the image source."""
    branches = default_adr_branches(fov_deg=89.0)
    for _ in range(draws):
        ap = Vec3(rng.uniform(1, 4), rng.uniform(1, 4), 3.0)
        center = Vec3(rng.uniform(1, 4), 5.0, rng.uniform(1.0, 2.0))
        user = Vec3(rng.uniform(1, 4), rng.uniform(0.5, 4.0), 0.0)
        normal = steer_mirror(ap, center, user)
        mirror = MirrorElement(center, normal, 1e9, 1e9, 1.0)
        beam = GaussianBeam(5e-6, 1.55e-6, 1.0, ap, (center - ap).normalized())
        folded, _ = irs_gain(ap, mirror, user, branches, beam)
        image = ap + normal.scaled(2.0 * (center - ap).dot(normal))
        image_beam = GaussianBeam(5e-6, 1.55e-6, 1.0, image, (user - image).normalized())
        direct, _ = los_gain(image, user, branches, image_beam, False)
        same = math.isclose(folded, direct, rel_tol=1e-9, abs_tol=1e-12)
        _expect(same, "image-source equivalence violated")


def assignment(rng: random.Random, draws: int) -> None:
    """Greedy on 3 users x 5 mirrors, one each: disjoint, capped, >= 1/2 optimum.
    Uncapped, on gains with ties and zeros: each mirror goes to its best
    user, the lowest index on a tie, and a zero column to nobody."""
    scenario = build_default_scenario({"users": {"k": 3}})
    for _ in range(draws):
        gains = [[rng.random() for _ in range(5)] for _ in range(3)]
        held = assign_mirrors(scenario, gains, max_per_user=1).per_user
        flat = [m for mirrors in held for m in mirrors]
        _expect(len(flat) == len(set(flat)), "a mirror is held by two users")
        _expect(all(len(mirrors) <= 1 for mirrors in held), "a user holds more than max_per_user")
        greedy = sum(gains[u][m] for u, mirrors in enumerate(held) for m in mirrors)
        best = max(
            sum(gains[u][m] for u, m in enumerate(chosen)) for chosen in permutations(range(5), 3)
        )
        _expect(greedy >= 0.5 * best - 1e-12, "greedy fell below half the optimum")

        gains = [[rng.choice((0.0, 0.25, 0.5)) for _ in range(5)] for _ in range(3)]
        owner = [max(range(3), key=lambda u: (gains[u][m], -u)) for m in range(5)]
        argmax = tuple(
            tuple(m for m in range(5) if owner[m] == u and gains[u][m] > 0.0) for u in range(3)
        )
        uncapped = assign_mirrors(scenario, gains, max_per_user=None).per_user
        _expect(uncapped == argmax, "uncapped assignment is not the column argmax")


def no_irs_equivalence(rng: random.Random | None = None, draws: int = 0) -> None:
    """Evaluating the default scenario without its panel at 80 dB equals the
    sweep's "none" variant, bit for bit (fixed inputs)."""
    scenario = build_default_scenario(None)
    power = power_for_transmit_snr(scenario.noise, scenario.responsivity, 80.0)
    direct = [r.rate for r in evaluate_scenario(replace(without_irs(scenario), p_tot=power))]
    table = sweep_snr(scenario, [80.0], variants=("none",))
    same = list(table.rows[0].user_rates_bps) == direct
    _expect(same, "disabled panel must equal the no-IRS sweep variant")


def determinism(rng: random.Random | None, draws: int) -> None:
    """Two default sweeps over the first `draws` points of 60, 65, ... dB are equal."""
    scenario = build_default_scenario(None)
    points = [60.0 + 5.0 * i for i in range(draws)]
    same = sweep_snr(scenario, points) == sweep_snr(scenario, points)
    _expect(same, "sweep tables must be bit-identical across runs")


# (printed name, check function name, seed, selftest draws). `run` looks each
# function up by name when it runs, so a test can replace one.
CHECKS = (
    ("reflection involution and norm", "reflection", 101, 200),
    ("mirror steering reflection law", "steering", 102, 200),
    ("beam energy conservation", "beam_energy", None, 0),
    ("aperture inclusion monotonicity", "aperture_inclusion", 103, 50),
    ("image-source equivalence", "image_source", 104, 50),
    ("assignment disjointness and bound", "assignment", 105, 25),
    ("no-IRS structural equivalence", "no_irs_equivalence", None, 0),
    ("sweep determinism", "determinism", None, 2),
)


def run() -> int:
    """Run every check, print one `ok`/`FAIL` line each and a summary line,
    and return the number that failed. An exception of any type is a
    failure of its check alone; the remaining checks still run."""
    failures = 0
    for name, func, seed, draws in CHECKS:
        try:
            globals()[func](random.Random(seed), draws)
        except Exception as exc:
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    if failures:
        print(f"selftest: {failures} of {len(CHECKS)} checks failed")
    else:
        print(f"selftest: all {len(CHECKS)} checks passed")
    return failures
