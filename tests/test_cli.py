import json
import subprocess
import sys
from pathlib import Path
from unittest.mock import Mock

import pytest

from owcsim import checks
from owcsim.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main, run_command
from owcsim.output import read_result_csv


def write_json(path, document) -> str:
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


SELFTEST_NAMES = (
    "reflection involution and norm",
    "mirror steering reflection law",
    "beam energy conservation",
    "aperture inclusion monotonicity",
    "image-source equivalence",
    "assignment disjointness and bound",
    "no-IRS structural equivalence",
    "sweep determinism",
)

SMALL_SWEEP = {"sweep": {"snr_points_db": [70.0, 90.0], "k_values": [1, 2, 3]}}


class TestSimulate:
    def test_writes_csv(self, tmp_path, capsys):
        code = run_command("simulate", out_dir=str(tmp_path / "out"))
        assert code == EXIT_OK
        table = read_result_csv(tmp_path / "out" / "simulate.csv")
        assert len(table.rows) == 1
        assert table.rows[0].variant == "5x5"
        assert "simulate:" in capsys.readouterr().out

    def test_variant_none(self, tmp_path):
        code = run_command("simulate", out_dir=str(tmp_path), variant="none")
        assert code == EXIT_OK
        table = read_result_csv(tmp_path / "simulate.csv")
        assert table.rows[0].variant == "none"

    def test_variant_all_rejected(self, tmp_path):
        assert run_command("simulate", out_dir=str(tmp_path), variant="all") == EXIT_VALIDATION


class TestSweepSnr:
    def test_emits_csv_svg_and_report(self, tmp_path):
        config = write_json(tmp_path / "cfg.json", SMALL_SWEEP)
        out = tmp_path / "out"
        code = run_command("sweep-snr", config_path=config, out_dir=str(out))
        assert code == EXIT_OK
        table = read_result_csv(out / "fig2.csv")
        assert {r.variant for r in table.rows} == {"none", "5x5", "10x10"}
        assert len(table.rows) == 6  # 3 variants x 2 points
        assert (out / "fig2.svg").exists()
        report = json.loads((out / "fig2_report.json").read_text())
        assert "gain_10x10_vs_none_pct" in report
        assert "effective_config" in report

    def test_single_variant_skips_report(self, tmp_path):
        config = write_json(tmp_path / "cfg.json", SMALL_SWEEP)
        out = tmp_path / "out"
        code = run_command("sweep-snr", config_path=config, out_dir=str(out), variant="5x5")
        assert code == EXIT_OK
        table = read_result_csv(out / "fig2.csv")
        assert {r.variant for r in table.rows} == {"5x5"}
        assert not (out / "fig2_report.json").exists()

    def test_svg_disabled(self, tmp_path):
        config = write_json(tmp_path / "cfg.json", {**SMALL_SWEEP, "output": {"svg": False}})
        out = tmp_path / "out"
        assert run_command("sweep-snr", config_path=config, out_dir=str(out)) == EXIT_OK
        assert not (out / "fig2.svg").exists()

    def test_byte_identical_reruns(self, tmp_path):
        config = write_json(tmp_path / "cfg.json", SMALL_SWEEP)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_command("sweep-snr", config_path=config, out_dir=str(out_a)) == EXIT_OK
        assert run_command("sweep-snr", config_path=config, out_dir=str(out_b)) == EXIT_OK
        assert (out_a / "fig2.csv").read_bytes() == (out_b / "fig2.csv").read_bytes()


class TestSweepUsers:
    def test_emits_csv_and_svg(self, tmp_path):
        config = write_json(tmp_path / "cfg.json", SMALL_SWEEP)
        out = tmp_path / "out"
        code = run_command("sweep-users", config_path=config, out_dir=str(out))
        assert code == EXIT_OK
        table = read_result_csv(out / "fig3.csv")
        assert {r.variant for r in table.rows} == {"none", "5x5"}
        assert len(table.rows) == 6  # 2 variants x 3 user counts
        assert (out / "fig3.svg").exists()

    def test_variant_selects_grid(self, tmp_path):
        config = write_json(tmp_path / "cfg.json", SMALL_SWEEP)
        out = tmp_path / "out"
        code = run_command("sweep-users", config_path=config, out_dir=str(out), variant="10x10")
        assert code == EXIT_OK
        table = read_result_csv(out / "fig3.csv")
        assert {r.variant for r in table.rows} == {"none", "10x10"}

    def test_variant_none_rejected(self, tmp_path):
        assert (
            run_command("sweep-users", out_dir=str(tmp_path), variant="none")
            == EXIT_VALIDATION
        )


class TestExitCodes:
    def test_missing_config_is_io_error(self, tmp_path, capsys):
        code = run_command("simulate", config_path=str(tmp_path / "nope.json"), out_dir=str(tmp_path))
        assert code == EXIT_IO
        assert "I/O error" in capsys.readouterr().err

    def test_invalid_config_is_validation_error(self, tmp_path, capsys):
        config = write_json(tmp_path / "bad.json", {"noise": {"bandwidth_b": -1}})
        code = run_command("simulate", config_path=config, out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        assert "noise.bandwidth_b" in capsys.readouterr().err

    def test_malformed_json_is_validation_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops", encoding="utf-8")
        assert run_command("simulate", config_path=str(path), out_dir=str(tmp_path)) == EXIT_VALIDATION

    def test_selftest_passes(self, capsys):
        assert run_command("selftest") == EXIT_OK
        expected = [f"ok   {name}" for name in SELFTEST_NAMES] + ["selftest: all 8 checks passed"]
        assert capsys.readouterr().out.splitlines() == expected

    def test_selftest_reports_every_failing_check(self, monkeypatch, capsys):
        monkeypatch.setattr(checks, "reflection", Mock(side_effect=AssertionError("bent")))
        monkeypatch.setattr(checks, "assignment", Mock(side_effect=ValueError("bad gains")))
        assert run_command("selftest") == EXIT_VALIDATION
        expected = [f"ok   {name}" for name in SELFTEST_NAMES]
        expected[0] = "FAIL reflection involution and norm: AssertionError: bent"
        expected[5] = "FAIL assignment disjointness and bound: ValueError: bad gains"
        assert capsys.readouterr().out.splitlines() == expected + ["selftest: 2 of 8 checks failed"]

    @pytest.mark.parametrize(
        "options, named",
        [
            ({"config_path": "cfg.json"}, "config_path"),
            ({"out_dir": "results"}, "out_dir"),
            ({"seed": 0}, "seed"),
            ({"variant": "none"}, "variant"),
            ({"seed": 3, "variant": "all"}, "seed, variant"),
        ],
    )
    def test_selftest_rejects_options(self, monkeypatch, capsys, options, named):
        ran = Mock(return_value=0)
        monkeypatch.setattr(checks, "run", ran)
        assert run_command("selftest", **options) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"owcsim: selftest takes no options, got {named}\n"
        ran.assert_not_called()

    def test_selftest_accepts_options_left_at_their_defaults(self, monkeypatch):
        monkeypatch.setattr(checks, "run", Mock(return_value=0))
        assert run_command("selftest", None, ".", None, None) == EXIT_OK

    def test_checks_load_only_for_selftest(self):
        src = str(Path(checks.__file__).resolve().parents[1])
        probe = f"import sys; sys.path.insert(0, {src!r}); import owcsim, owcsim.cli; "
        done = subprocess.run(
            [sys.executable, "-c", probe + "print('owcsim.checks' in sys.modules)"],
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "False"


class TestMain:
    def test_main_selftest(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        capsys.readouterr()

    def test_selftest_rejects_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_main_seed_override(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path), "--seed", "3"]) == EXIT_OK
        table = read_result_csv(tmp_path / "simulate.csv")
        assert len(table.rows) == 1
