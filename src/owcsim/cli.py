"""Command-line entry point: simulate, sweep-snr, sweep-users, selftest.

Exit codes: 0 success, 1 validation failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path

from .beam import GaussianBeam, power_through_circle, power_through_rectangle, waist_at
from .channel import irs_gain, los_gain
from .config import (
    OutputSpec,
    SweepSpec,
    build_default_scenario,
    effective_config,
    load_config,
    parse_config,
)
from .geometry import Vec3, specular_reflect, steer_mirror
from .network import (
    Scenario,
    assign_mirrors,
    evaluate_scenario,
    simulate_scenario,
    sweep_snr,
    sweep_users,
    with_irs_grid,
    without_irs,
)
from .output import ResultTable, render_line_plot, write_csv

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

VARIANT_CHOICES = ("none", "5x5", "10x10", "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="owcsim",
        description=(
            "Link-level simulator for indoor laser optical wireless networks "
            "with a steerable mirror wall"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("simulate", "evaluate the configured scenario once"),
        ("sweep-snr", "sum rate vs transmit SNR for no-IRS, 5x5, and 10x10"),
        ("sweep-users", "sum rate vs user count, with and without the mirror wall"),
        ("selftest", "run the built-in invariant checks"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", type=str, default=None, help="JSON config path")
        cmd.add_argument("--out", type=str, default=".", help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument(
            "--variant",
            type=str,
            choices=VARIANT_CHOICES,
            default=None,
            help="mirror-wall variant selection",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run_command(
        args.command,
        config_path=args.config,
        out_dir=args.out,
        seed=args.seed,
        variant=args.variant,
    )


def run_command(
    command: str,
    config_path: str | None = None,
    out_dir: str = ".",
    seed: int | None = None,
    variant: str | None = None,
) -> int:
    """Dispatch one command and map failures onto process exit codes."""
    try:
        if command == "selftest":
            return _run_selftest()
        scenario, sweep, output = _load(config_path, seed)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if command == "simulate":
            _run_simulate(scenario, output, out, variant)
        elif command == "sweep-snr":
            _run_sweep_snr(scenario, sweep, output, out, variant)
        elif command == "sweep-users":
            _run_sweep_users(scenario, sweep, output, out, variant)
        else:
            raise ValueError(f"unknown command: {command}")
        return EXIT_OK
    except OSError as exc:
        print(f"owcsim: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"owcsim: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def _load(
    config_path: str | None, seed: int | None
) -> tuple[Scenario, SweepSpec, OutputSpec]:
    if config_path is None:
        return parse_config({}, seed=seed)
    return load_config(config_path, seed=seed)


def _apply_variant(scenario: Scenario, variant: str | None) -> Scenario:
    if variant in (None, "all"):
        return scenario
    if variant == "none":
        return without_irs(scenario)
    return with_irs_grid(scenario, int(variant.split("x")[0]))


def _run_simulate(
    scenario: Scenario, output: OutputSpec, out: Path, variant: str | None
) -> None:
    if variant == "all":
        raise ValueError("simulate accepts --variant none|5x5|10x10, not all")
    table = simulate_scenario(_apply_variant(scenario, variant))
    path = out / "simulate.csv"
    write_csv(table, path)
    row = table.rows[0]
    print(
        f"simulate: variant={row.variant} transmit_snr={row.sweep_var:.2f} dB "
        f"sum_rate={row.sum_rate_bps:.4e} bit/s -> {path}"
    )


def _run_sweep_snr(
    scenario: Scenario,
    sweep: SweepSpec,
    output: OutputSpec,
    out: Path,
    variant: str | None,
) -> None:
    variants = ("none", "5x5", "10x10") if variant in (None, "all") else (variant,)
    table = sweep_snr(scenario, sweep.snr_points_db, variants=variants)
    csv_path = out / "fig2.csv"
    write_csv(table, csv_path)
    written = [str(csv_path)]
    if output.svg:
        svg_path = out / "fig2.svg"
        render_line_plot(
            table,
            "Sum rate vs transmit SNR",
            "transmit SNR [dB]",
            "sum rate [bit/s]",
            svg_path,
        )
        written.append(str(svg_path))
    if set(variants) == {"none", "5x5", "10x10"}:
        report_path = out / "fig2_report.json"
        _write_snr_report(scenario, sweep, table, report_path)
        written.append(str(report_path))
    print(f"sweep-snr: {len(table.rows)} rows -> {', '.join(written)}")


def _write_snr_report(
    scenario: Scenario, sweep: SweepSpec, table: ResultTable, path: Path
) -> None:
    mid = sorted(sweep.snr_points_db)[len(sweep.snr_points_db) // 2]
    sums = {
        label: dict(table.series(label))[mid] for label in ("none", "5x5", "10x10")
    }
    report = {
        "mid_sweep_snr_db": mid,
        "mid_sweep_sum_rate_bps": sums,
        "gain_10x10_vs_none_pct": 100.0 * (sums["10x10"] / sums["none"] - 1.0)
        if sums["none"] > 0.0
        else None,
        "gain_10x10_vs_5x5_pct": 100.0 * (sums["10x10"] / sums["5x5"] - 1.0)
        if sums["5x5"] > 0.0
        else None,
        "effective_config": effective_config(scenario, sweep),
    }
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _run_sweep_users(
    scenario: Scenario,
    sweep: SweepSpec,
    output: OutputSpec,
    out: Path,
    variant: str | None,
) -> None:
    if variant in ("none", "all"):
        raise ValueError("sweep-users accepts --variant 5x5|10x10 for the mirror wall")
    if variant is not None:
        scenario = with_irs_grid(scenario, int(variant.split("x")[0]))
    table = sweep_users(scenario, sweep.k_values)
    csv_path = out / "fig3.csv"
    write_csv(table, csv_path)
    written = [str(csv_path)]
    if output.svg:
        svg_path = out / "fig3.svg"
        render_line_plot(
            table,
            "Sum rate vs number of users",
            "number of users",
            "sum rate [bit/s]",
            svg_path,
        )
        written.append(str(svg_path))
    print(f"sweep-users: {len(table.rows)} rows -> {', '.join(written)}")


# ---------------------------------------------------------------------------
# Selftest: quick invariant checks, printed one per line


def _run_selftest() -> int:
    checks = (
        ("reflection involution and norm", _check_reflection),
        ("mirror steering reflection law", _check_steering),
        ("beam energy conservation", _check_beam_energy),
        ("aperture inclusion monotonicity", _check_aperture_inclusion),
        ("image-source equivalence", _check_image_source),
        ("assignment disjointness and bound", _check_assignment),
        ("no-IRS structural equivalence", _check_no_irs_equivalence),
        ("sweep determinism", _check_determinism),
    )
    failures = 0
    for name, check in checks:
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    if failures:
        print(f"selftest: {failures} of {len(checks)} checks failed")
        return EXIT_VALIDATION
    print(f"selftest: all {len(checks)} checks passed")
    return EXIT_OK


def _rand_unit(rng: random.Random) -> Vec3:
    while True:
        v = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        if 1e-3 < v.norm() <= 1.0:
            return v.normalized()


def _check_reflection() -> None:
    rng = random.Random(101)
    for _ in range(200):
        v, n = _rand_unit(rng), _rand_unit(rng)
        r = specular_reflect(v, n)
        assert abs(r.norm() - 1.0) < 1e-12, "reflection changed the norm"
        back = specular_reflect(r, n)
        assert (back - v).norm() < 1e-12, "reflection is not an involution"


def _check_steering() -> None:
    rng = random.Random(102)
    for _ in range(200):
        ap = Vec3(rng.uniform(0, 5), rng.uniform(0, 5), 3.0)
        mirror = Vec3(rng.uniform(0, 5), 5.0, rng.uniform(0.5, 2.5))
        user = Vec3(rng.uniform(0, 5), rng.uniform(0, 4.5), 0.0)
        normal = steer_mirror(ap, mirror, user)
        u_in = (mirror - ap).normalized()
        u_out = (user - mirror).normalized()
        assert (specular_reflect(u_in, normal) - u_out).norm() < 1e-9, (
            "steered normal violates the reflection law"
        )


def _check_beam_energy() -> None:
    beam = GaussianBeam(5e-6, 1.55e-6, 1.0, Vec3(0, 0, 0), Vec3(0, 0, 1))
    for d in (0.0, 0.5, 3.0, 10.0):
        w = waist_at(beam, d)
        assert power_through_circle(beam, 10.0 * w, d) <= 1.0 + 1e-12
        assert abs(power_through_circle(beam, 10.0 * w, d) - 1.0) < 1e-12, (
            "wide aperture must capture the whole beam"
        )


def _check_aperture_inclusion() -> None:
    rng = random.Random(103)
    beam = GaussianBeam(5e-6, 1.55e-6, 1.0, Vec3(0, 0, 0), Vec3(0, 0, 1))
    for _ in range(50):
        d = rng.uniform(0.5, 6.0)
        r = rng.uniform(0.001, 0.5)
        inscribed = power_through_rectangle(beam, 2 * r / math.sqrt(2), 2 * r / math.sqrt(2), d)
        circle = power_through_circle(beam, r, d)
        circumscribed = power_through_rectangle(beam, 2 * r, 2 * r, d)
        assert inscribed <= circle <= circumscribed, "aperture inclusion violated"


def _check_image_source() -> None:
    from .network import default_adr_branches

    rng = random.Random(104)
    branches = default_adr_branches(fov_deg=89.0)
    for _ in range(50):
        ap = Vec3(rng.uniform(1, 4), rng.uniform(1, 4), 3.0)
        center = Vec3(rng.uniform(1, 4), 5.0, rng.uniform(1.0, 2.0))
        user = Vec3(rng.uniform(1, 4), rng.uniform(0.5, 4.0), 0.0)
        normal = steer_mirror(ap, center, user)
        from .geometry import MirrorElement

        mirror = MirrorElement(center, normal, 1e9, 1e9, 1.0)
        beam = GaussianBeam(5e-6, 1.55e-6, 1.0, ap, (center - ap).normalized())
        via_mirror, _ = irs_gain(ap, mirror, user, branches, beam)
        offset = normal.scaled(2.0 * (center - ap).dot(normal))
        ap_image = ap + offset
        beam_image = GaussianBeam(5e-6, 1.55e-6, 1.0, ap_image, (user - ap_image).normalized())
        direct, _ = los_gain(ap_image, user, branches, beam_image, blocked=False)
        assert abs(via_mirror - direct) < 1e-9, "image-source equivalence violated"


def _check_assignment() -> None:
    from itertools import permutations

    rng = random.Random(105)
    scenario = build_default_scenario({"users": {"k": 3}})
    for _ in range(25):
        gains = [[rng.random() for _ in range(5)] for _ in range(3)]
        assignment = assign_mirrors(scenario, gains, max_per_user=1)
        greedy_total = sum(
            gains[u][m] for u, mirrors in enumerate(assignment.per_user) for m in mirrors
        )
        best = 0.0
        mirrors = range(5)
        for chosen in permutations(mirrors, 3):
            best = max(best, sum(gains[u][m] for u, m in enumerate(chosen)))
        assert greedy_total >= 0.5 * best - 1e-12, "greedy fell below half the optimum"


def _check_no_irs_equivalence() -> None:
    from dataclasses import replace

    from .network import power_for_transmit_snr

    scenario = build_default_scenario(None)
    power = power_for_transmit_snr(scenario.noise, 0.4, 80.0)
    bare = replace(without_irs(scenario), p_tot=power)
    direct = [r.rate for r in evaluate_scenario(bare)]
    table = sweep_snr(scenario, [80.0], variants=("none",))
    assert list(table.rows[0].user_rates_bps) == direct, (
        "disabled panel must equal the no-IRS sweep variant"
    )


def _check_determinism() -> None:
    scenario = build_default_scenario(None)
    first = sweep_snr(scenario, [70.0, 80.0])
    second = sweep_snr(scenario, [70.0, 80.0])
    assert first == second, "sweep tables must be bit-identical across runs"


if __name__ == "__main__":
    sys.exit(main())
