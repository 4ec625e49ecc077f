"""Command-line entry point: simulate, sweep-snr, sweep-users, selftest.

Exit codes: 0 success, 1 validation failure (or a failed selftest check),
2 I/O failure; usage errors exit 2 from argparse. `selftest` takes no flags
(`run_command` rejects any option set for it, as a validation failure) and
runs `owcsim.checks`, which only that command imports.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import OutputSpec, SweepSpec, effective_config, load_config, parse_config
from .network import Scenario, simulate_scenario, sweep_snr, sweep_users
from .output import ResultTable, render_line_plot, write_csv

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


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
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", dest="config_path", metavar="CONFIG", help="JSON config path")
        cmd.add_argument("--out", dest="out_dir", metavar="OUT", default=".", help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_parser("selftest", help="run the built-in invariant checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    return run_command(**vars(build_parser().parse_args(argv)))


def run_command(
    command: str, config_path: str | None = None, out_dir: str = ".", seed: int | None = None
) -> int:
    """Dispatch one command and map failures onto process exit codes."""
    try:
        if command == "selftest":
            given = [
                name
                for name, value, default in (
                    ("config_path", config_path, None),
                    ("out_dir", out_dir, "."),
                    ("seed", seed, None),
                )
                if value != default
            ]
            if given:
                raise ValueError(f"selftest takes no options, got {', '.join(given)}")
            return _run_selftest()
        if config_path is None:
            scenario, sweep, output = parse_config({}, seed=seed)
        else:
            scenario, sweep, output = load_config(config_path, seed=seed)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if command == "simulate":
            _run_simulate(scenario, out)
        elif command == "sweep-snr":
            _run_sweep_snr(scenario, sweep, output, out)
        elif command == "sweep-users":
            _run_sweep_users(scenario, sweep, output, out)
        else:
            raise ValueError(f"unknown command: {command}")
        return EXIT_OK
    except OSError as exc:
        print(f"owcsim: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"owcsim: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def _run_simulate(scenario: Scenario, out: Path) -> None:
    table = simulate_scenario(scenario)
    path = out / "simulate.csv"
    write_csv(table, path)
    print(
        f"simulate: variant={table.variant[0]} transmit_snr={table.sweep_var[0]:.2f} dB "
        f"sum_rate={table.sum_rate_bps[0]:.4e} bit/s -> {path}"
    )


def _run_sweep_snr(
    scenario: Scenario, sweep: SweepSpec, output: OutputSpec, out: Path
) -> None:
    table = sweep_snr(scenario, sweep.snr_points_db)
    written = _write_figure(
        table, "fig2", output, out, "Sum rate vs transmit SNR", "transmit SNR [dB]"
    )
    report_path = out / "fig2_report.json"
    _write_snr_report(scenario, sweep, output, table, report_path)
    written.append(str(report_path))
    print(f"sweep-snr: {len(table)} rows -> {', '.join(written)}")


def _write_snr_report(
    scenario: Scenario, sweep: SweepSpec, output: OutputSpec, table: ResultTable, path: Path
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
        "effective_config": effective_config(scenario, sweep, output),
    }
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _run_sweep_users(
    scenario: Scenario, sweep: SweepSpec, output: OutputSpec, out: Path
) -> None:
    table = sweep_users(scenario, sweep.k_values)
    written = _write_figure(
        table, "fig3", output, out, "Sum rate vs number of users", "number of users"
    )
    print(f"sweep-users: {len(table)} rows -> {', '.join(written)}")


def _write_figure(
    table: ResultTable, stem: str, output: OutputSpec, out: Path, title: str, x_label: str
) -> list[str]:
    """Write `<stem>.csv`, and `<stem>.svg` of sum rate against `x_label` unless
    `output.svg` is off; return the paths written. `write_csv` and
    `render_line_plot` are looked up in this module, path last, as the
    benchmark's tracer wraps them there."""
    csv_path = out / f"{stem}.csv"
    write_csv(table, csv_path)
    written = [str(csv_path)]
    if output.svg:
        svg_path = out / f"{stem}.svg"
        render_line_plot(table, title, x_label, "sum rate [bit/s]", svg_path)
        written.append(str(svg_path))
    return written


def _run_selftest() -> int:
    from . import checks  # loaded here only, so the other commands never compile it

    return EXIT_VALIDATION if checks.run() else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
