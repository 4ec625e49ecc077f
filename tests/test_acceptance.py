"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line once its assertions hold, so running
`pytest tests/test_acceptance.py -v -s` gives a one-line-per-criterion
report. Criterion 5 runs the `owcsim.checks` functions that `owcsim
selftest` runs at reduced depth; criteria 4 and 7 keep independent oracles
in `oracles.py`, and criterion 8 goes through the CLI and compares CSV bytes.
"""

import json
import math
import random
import time

from owcsim import checks
from owcsim.beam import GaussianBeam, power_through_circle, power_through_rectangle, waist_at
from owcsim.cli import EXIT_OK, run_command
from owcsim.geometry import Vec3
from owcsim.link import NoiseParams, achievable_rate, noise_variance, sinr
from owcsim.config import build_default_scenario
from owcsim.network import assign_mirrors, sweep_snr, sweep_users

from oracles import best_matching_value, circle_power_quadrature, rectangle_power_quadrature

SNR_POINTS = [float(db) for db in range(60, 121, 5)]  # 13 points
SEEDS = list(range(10))
UP = Vec3(0.0, 0.0, 1.0)


def test_criterion_1_variant_ordering_across_sweep():
    """More mirrors never reduce the sum rate, at every point, for 10 seeds."""
    start = time.perf_counter()
    for seed in SEEDS:
        scenario = build_default_scenario({"seed": seed})
        table = sweep_snr(scenario, SNR_POINTS)
        none = dict(table.series("none"))
        five = dict(table.series("5x5"))
        ten = dict(table.series("10x10"))
        for db in SNR_POINTS:
            assert ten[db] >= five[db] >= none[db], (seed, db)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"sweep suite took {elapsed:.2f}s"
    print(
        f"PASS 1: 10x10 >= 5x5 >= none at all {len(SNR_POINTS)} points for "
        f"{len(SEEDS)} seeds ({elapsed:.2f}s)"
    )


def test_criterion_2_mid_sweep_gain_magnitudes():
    """Mid-sweep sum-rate gains land in the accepted bands (10-seed mean)."""
    mid = SNR_POINTS[len(SNR_POINTS) // 2]
    gains_vs_none = []
    gains_vs_five = []
    for seed in SEEDS:
        scenario = build_default_scenario({"seed": seed})
        table = sweep_snr(scenario, SNR_POINTS)
        none = dict(table.series("none"))[mid]
        five = dict(table.series("5x5"))[mid]
        ten = dict(table.series("10x10"))[mid]
        assert none > 0.0 and five > 0.0
        gains_vs_none.append(100.0 * (ten / none - 1.0))
        gains_vs_five.append(100.0 * (ten / five - 1.0))
    mean_vs_none = sum(gains_vs_none) / len(gains_vs_none)
    mean_vs_five = sum(gains_vs_five) / len(gains_vs_five)
    report = {
        "mid_sweep_snr_db": mid,
        "seeds": SEEDS,
        "snr_points_db": SNR_POINTS,
        "scenario": "defaults (4 users, 10 mW, mirror wall y_max at 1.5 m)",
        "measured_gain_10x10_vs_none_pct": round(mean_vs_none, 2),
        "measured_gain_10x10_vs_5x5_pct": round(mean_vs_five, 2),
        "accepted_band_vs_none_pct": [40.0, 110.0],
        "accepted_band_vs_5x5_pct": [10.0, 45.0],
    }
    print("PASS 2: run report " + json.dumps(report))
    assert 40.0 <= mean_vs_none <= 110.0, mean_vs_none
    assert 10.0 <= mean_vs_five <= 45.0, mean_vs_five


def test_criterion_3_user_sweep_trends():
    """Mirror wall strictly wins at every K; both curves nondecreasing."""
    start = time.perf_counter()
    scenario = build_default_scenario(None)
    table = sweep_users(scenario, range(1, 9))
    none = dict(table.series("none"))
    irs = dict(table.series("5x5"))
    ks = [float(k) for k in range(1, 9)]
    for k in ks:
        assert irs[k] > none[k], f"K={k}"
    for a, b in zip(ks, ks[1:]):
        assert none[b] >= none[a], f"no-IRS decreased at K={b}"
        assert irs[b] >= irs[a], f"with-IRS decreased at K={b}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"user sweep took {elapsed:.2f}s"
    print(f"PASS 3: with-IRS > no-IRS for K=1..8, both curves nondecreasing ({elapsed:.2f}s)")


def test_criterion_4_beam_physics_oracles():
    """Closed forms match independent quadrature to 1e-6 relative."""
    rng = random.Random(2024)
    for _ in range(50):
        w0 = rng.uniform(1e-6, 1e-3)
        wavelength = rng.uniform(4e-7, 2e-6)
        d = rng.uniform(0.0, 10.0)
        power = rng.uniform(0.1, 2.0)
        beam = GaussianBeam(w0, wavelength, power, Vec3(0, 0, 0), UP)
        r0 = rng.uniform(0.05, 4.0) * waist_at(beam, d)
        closed = power_through_circle(beam, r0, d)
        quad = circle_power_quadrature(w0, wavelength, power, r0, d)
        assert abs(closed - quad) / quad < 1e-6
    for _ in range(50):
        w0 = rng.uniform(1e-6, 1e-4)
        wavelength = rng.uniform(4e-7, 2e-6)
        d = rng.uniform(0.1, 8.0)
        power = rng.uniform(0.1, 2.0)
        beam = GaussianBeam(w0, wavelength, power, Vec3(0, 0, 0), UP)
        w_d = waist_at(beam, d)
        width = rng.uniform(0.05, 5.0) * w_d
        height = rng.uniform(0.05, 5.0) * w_d
        closed = power_through_rectangle(beam, width, height, d)
        quad = rectangle_power_quadrature(w0, wavelength, power, width, height, d)
        assert abs(closed - quad) / quad < 1e-6
    print("PASS 4: circle and rectangle captures match quadrature to 1e-6 (50 + 50 draws)")


def test_criterion_5_geometry_property_suite():
    """Reflection, steering, and image-source properties on random draws."""
    rng = random.Random(2025)
    checks.reflection(rng, 200)
    checks.steering(rng, 200)
    checks.image_source(rng, 100)
    print("PASS 5: reflection/steering/image-source properties hold (>= 100 draws each)")


def test_criterion_6_link_math_spot_checks():
    """Rate doubling point is exact; the hand-derived chain lands within 0.5%."""
    bandwidth = 1.5e9
    rate_at_doubling = achievable_rate(2.0 * math.pi / math.e, bandwidth)
    assert abs(rate_at_doubling - bandwidth) <= 1e-12 * bandwidth

    params = NoiseParams()
    q = power_through_circle(
        GaussianBeam(5e-6, 1550e-9, 1.0, Vec3(0, 0, 0), UP),
        math.sqrt(2e-5 / math.pi),
        3.0,
    )
    assert abs(q - 1.4528e-4) / 1.4528e-4 < 5e-3
    sigma2 = noise_variance(params, q * 0.01, 0.4)
    assert abs(sigma2 - 9.506e-14) / 9.506e-14 < 5e-3
    gamma = sinr(q, 0.01, 0.4, sigma2)
    assert abs(gamma - 3.553) / 3.553 < 5e-3
    rate = achievable_rate(gamma, params.bandwidth_b)
    assert abs(rate - 2.005e9) / 2.005e9 < 5e-3
    print(
        "PASS 6: rate(2*pi/e) == B exactly; chain q=%.5e sigma2=%.4e gamma=%.4f "
        "rate=%.5e within 0.5%% of the documented values" % (q, sigma2, gamma, rate)
    )


def test_criterion_7_assignment_oracle():
    """Greedy earns at least half the exhaustive optimum; worked case is optimal."""
    rng = random.Random(2026)
    scenario_cache = {}
    for _ in range(200):
        n_users = rng.randint(1, 4)
        n_mirrors = rng.randint(1, 8)
        if n_users not in scenario_cache:
            scenario_cache[n_users] = build_default_scenario({"users": {"k": n_users}})
        scenario = scenario_cache[n_users]
        gains = [[rng.random() for _ in range(n_mirrors)] for _ in range(n_users)]
        assignment = assign_mirrors(scenario, gains, max_per_user=1)
        greedy = sum(gains[u][m] for u, row in enumerate(assignment.per_user) for m in row)
        optimum = best_matching_value(gains)
        assert greedy >= 0.5 * optimum - 1e-12

    scenario = build_default_scenario({"users": {"k": 2}})
    worked = [[2.0, 1.0], [1.0, 3.0]]
    assignment = assign_mirrors(scenario, worked, max_per_user=1)
    greedy = sum(worked[u][m] for u, row in enumerate(assignment.per_user) for m in row)
    assert greedy == best_matching_value(worked) == 5.0
    print("PASS 7: greedy >= 1/2 optimum on 200 instances; worked 2x2 equals optimum")


def test_criterion_8_byte_identical_sweep_runs(tmp_path):
    """Two sweep runs with one config and seed emit byte-identical CSVs."""
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"seed": 3, "sweep": {"snr_points_db": SNR_POINTS}}), encoding="utf-8"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_command("sweep-snr", config_path=str(config), out_dir=str(out_a)) == EXIT_OK
    assert run_command("sweep-snr", config_path=str(config), out_dir=str(out_b)) == EXIT_OK
    bytes_a = (out_a / "fig2.csv").read_bytes()
    bytes_b = (out_b / "fig2.csv").read_bytes()
    assert bytes_a == bytes_b
    print(f"PASS 8: repeated sweep runs are byte-identical ({len(bytes_a)} bytes)")
