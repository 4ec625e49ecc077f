import json
import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import Mock

import pytest

from owcsim import checks
from owcsim.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main, run_command
from owcsim.config import parse_config
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
        config = write_json(tmp_path / "cfg.json", {"irs": {"enabled": False}})
        code = run_command("simulate", config_path=config, out_dir=str(tmp_path))
        assert code == EXIT_OK
        table = read_result_csv(tmp_path / "simulate.csv")
        assert table.rows[0].variant == "none"


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

    def test_svg_disabled(self, tmp_path):
        # Both sweeps write their figure through one writer, which reads output.svg.
        config = write_json(tmp_path / "cfg.json", {**SMALL_SWEEP, "output": {"svg": False}})
        out = tmp_path / "out"
        for command, stem in (("sweep-snr", "fig2"), ("sweep-users", "fig3")):
            assert run_command(command, config_path=config, out_dir=str(out)) == EXIT_OK
            assert (out / f"{stem}.csv").exists()
            assert not (out / f"{stem}.svg").exists()

    @pytest.mark.parametrize("svg", [True, False])
    def test_report_reloads_to_the_run(self, tmp_path, svg):
        # The report's effective_config is the run's whole config, output.svg included.
        document = {**SMALL_SWEEP, "seed": 3, "output": {"svg": svg}}
        out = tmp_path / "out"
        config = write_json(tmp_path / "cfg.json", document)
        assert run_command("sweep-snr", config_path=config, out_dir=str(out)) == EXIT_OK
        report = json.loads((out / "fig2_report.json").read_text())
        assert parse_config(report["effective_config"]) == parse_config(document)

    def test_wall_that_does_not_fit_names_its_variant(self, tmp_path, capsys):
        # 5 x 0.6 m fits the 5 m wall; the sweep's fixed 10x10 variant does not.
        config = write_json(tmp_path / "cfg.json", {"irs": {"element_width_m": 0.6}})
        assert run_command("simulate", config_path=config, out_dir=str(tmp_path)) == EXIT_OK
        capsys.readouterr()
        code = run_command("sweep-snr", config_path=config, out_dir=str(tmp_path / "out"))
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("owcsim: variant 10x10: irs panel exceeds the wall extent")
        assert "irs.element_width_m" in err

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
        config = write_json(tmp_path / "cfg.json", {**SMALL_SWEEP, "irs": {"grid_m": 10}})
        out = tmp_path / "out"
        code = run_command("sweep-users", config_path=config, out_dir=str(out))
        assert code == EXIT_OK
        table = read_result_csv(out / "fig3.csv")
        assert {r.variant for r in table.rows} == {"none", "10x10"}

    def test_no_wall_exits_1_naming_irs_enabled(self, tmp_path, capsys):
        config = write_json(tmp_path / "cfg.json", {**SMALL_SWEEP, "irs": {"enabled": False}})
        out = tmp_path / "out"
        code = main(["sweep-users", "--config", config, "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "irs.enabled" in capsys.readouterr().err
        assert not (out / "fig3.csv").exists() and not (out / "fig3.svg").exists()


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
            ({"seed": 3, "out_dir": "results"}, "out_dir, seed"),
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
        assert run_command("selftest", None, ".", None) == EXIT_OK

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

    @pytest.mark.parametrize("command", ["sweep-snr", "sweep-users", "simulate", None])
    def test_a_run_never_imports_numpy_random(self, command, tmp_path):
        # Seeded placement draws numpy's stream without `numpy.random`, whose
        # import would cost a CLI run more than its own compute. Nor does a
        # run load the scalar reference, the beam closed forms it alone uses,
        # or the selftest checks.
        src = str(Path(checks.__file__).resolve().parents[1])
        if command is None:
            run = "import owcsim; owcsim.parse_config({}); code = 0"
        else:
            run = (
                f"import runpy; sys.argv = ['owcsim', {command!r}, '--out', {str(tmp_path)!r}]\n"
                "try:\n    runpy.run_module('owcsim', run_name='__main__')\n"
                "except SystemExit as stop:\n    code = stop.code"
            )
        probe = f"import sys; sys.path.insert(0, {src!r})\n{run}\n"
        unused = ("numpy.random", "owcsim.reference", "owcsim.beam", "owcsim.checks")
        done = subprocess.run(
            [sys.executable, "-c", probe + f"print(code, *(m in sys.modules for m in {unused}))"],
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.splitlines()[-1].split() == ["0"] + ["False"] * len(unused)


def run_python(code: str) -> subprocess.CompletedProcess:
    """`code` in a fresh interpreter that imports owcsim from this source tree."""
    src = str(Path(checks.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{code}"],
        capture_output=True,
        text=True,
        check=True,
    )


class TestLazyPackage:
    def test_import_owcsim_loads_no_submodule(self):
        done = run_python("import owcsim; print(sorted(m for m in sys.modules if 'owcsim' in m))")
        assert done.stdout.split() == ["['owcsim']"]

    def test_every_exported_name_resolves(self):
        import owcsim

        assert owcsim.__all__ and len(set(owcsim.__all__)) == len(owcsim.__all__)
        for name in owcsim.__all__:
            value = getattr(owcsim, name)
            assert getattr(value, "__name__", name) == name
            assert name in dir(owcsim)
        with pytest.raises(AttributeError, match="no_such_name"):
            owcsim.no_such_name

    def test_scalar_reference_names_still_resolve_on_their_old_modules(self):
        import owcsim.channel
        import owcsim.geometry
        import owcsim.network
        from owcsim import beam, reference

        for module, name, owner in (
            (owcsim.channel, "irs_gain", reference),
            (owcsim.channel, "los_gain", reference),
            (owcsim.channel, "power_through_rectangle", beam),
            (owcsim.channel, "power_through_circle", beam),
            (owcsim.geometry, "steer_mirror", reference),
            (owcsim.network, "irs_gain", reference),
            (owcsim.network, "los_gain", reference),
            (owcsim.network, "steer_mirror", reference),
            (owcsim.network, "serving_branch_index", reference),
        ):
            assert getattr(module, name) is getattr(owner, name)
        with pytest.raises(AttributeError):
            owcsim.geometry.MirrorElement


class TestProcessEntry:
    """`python -m owcsim` in a fresh process: the entry imports with the
    collector off, freezes that heap, and runs the CLI with it back on."""

    def python_m(self, *args: str) -> subprocess.CompletedProcess:
        src = str(Path(checks.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, "-m", "owcsim", *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )

    def test_sweep_snr_writes_what_run_command_writes(self, tmp_path, capsys):
        config = write_json(tmp_path / "cfg.json", SMALL_SWEEP)
        child, here = tmp_path / "child", tmp_path / "here"
        done = self.python_m("sweep-snr", "--config", config, "--out", str(child))
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.startswith("sweep-snr: 6 rows -> ")
        assert done.stderr == ""
        assert run_command("sweep-snr", config_path=config, out_dir=str(here)) == EXIT_OK
        assert done.stdout == capsys.readouterr().out.replace(str(here), str(child))
        names = sorted(path.name for path in here.iterdir())
        assert names == ["fig2.csv", "fig2.svg", "fig2_report.json"]
        assert sorted(path.name for path in child.iterdir()) == names
        for name in names:
            assert (child / name).read_bytes() == (here / name).read_bytes(), name

    def test_unknown_config_key_exits_1_naming_it(self, tmp_path):
        config = write_json(tmp_path / "cfg.json", {"irs": {"bogus": 1}})
        done = self.python_m("sweep-snr", "--config", config, "--out", str(tmp_path / "out"))
        assert done.returncode == EXIT_VALIDATION
        assert "irs.bogus" in done.stderr
        assert "Traceback" not in done.stderr

    def test_out_under_a_regular_file_exits_2(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        done = self.python_m("sweep-snr", "--out", str(blocker / "out"))
        assert done.returncode == EXIT_IO
        assert "I/O error" in done.stderr
        assert "Traceback" not in done.stderr

    def test_the_run_starts_with_the_collector_on_and_the_import_heap_frozen(self):
        # `main` imports `cli.main` when it runs, so a stand-in reports the
        # collector's state at the moment the command would start.
        done = run_python(
            "import gc, owcsim.__main__ as entry, owcsim.cli\n"
            "owcsim.cli.main = lambda: print(gc.isenabled(), gc.get_freeze_count() > 0) or 3\n"
            "print(gc.isenabled(), gc.get_freeze_count())\n"
            "print(entry.main())"
        )
        assert done.stdout.split() == ["True", "0", "True", "True", "3"]

    def test_main_and_run_command_leave_the_collector_alone(self, tmp_path, capsys):
        import gc

        frozen = gc.get_freeze_count()
        assert main(["simulate", "--out", str(tmp_path)]) == EXIT_OK
        assert run_command("simulate", out_dir=str(tmp_path)) == EXIT_OK
        assert gc.isenabled() and gc.get_freeze_count() == frozen
        capsys.readouterr()


class TestMain:
    def test_main_selftest(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        capsys.readouterr()

    def test_selftest_rejects_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep-snr", "sweep-users"])
    def test_variant_flag_is_a_usage_error(self, command, tmp_path, capsys):
        # The config alone sets the wall: irs.enabled and irs.grid_m.
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path), "--variant", "none"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --variant none" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_main_seed_override(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path), "--seed", "3"]) == EXIT_OK
        table = read_result_csv(tmp_path / "simulate.csv")
        assert len(table.rows) == 1
