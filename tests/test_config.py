import json
from pathlib import Path

import pytest

from owcsim.config import (
    DEFAULT_K_VALUES,
    DEFAULT_SNR_POINTS_DB,
    SCHEMA,
    OutputSpec,
    SweepSpec,
    build_default_scenario,
    effective_config,
    load_config,
    parse_config,
    write_config,
)

SCHEMA_DOC = Path(__file__).resolve().parents[1] / "docs" / "config_schema.md"


def doc_rows() -> dict[str, tuple[str, str]]:
    """Dotted key -> (accepts, default) cells of every table row in the schema doc."""
    rows, prefix = {}, ""
    for line in SCHEMA_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            heading = line[3:].strip()
            prefix = "" if heading == "Top level" else heading.strip("`") + "."
        elif line.startswith("| `"):
            key, accepts, default = (cell.strip().strip("`") for cell in line.split("|")[1:4])
            rows[prefix + key] = (accepts, default)
    return rows


def flat_keys(document: dict, prefix: str = "") -> list[str]:
    keys = []
    for key, value in document.items():
        if isinstance(value, dict):
            keys += flat_keys(value, f"{prefix}{key}.")
        else:
            keys.append(prefix + key)
    return keys


class TestParseConfig:
    def test_empty_document_is_the_default_scenario(self):
        scenario, sweep, output = parse_config({})
        assert scenario == build_default_scenario(None)
        assert sweep.snr_points_db == DEFAULT_SNR_POINTS_DB
        assert sweep.k_values == DEFAULT_K_VALUES
        assert output.svg is True

    def test_irs_grid_override(self):
        scenario, _, _ = parse_config({"irs": {"grid_m": 10}})
        assert scenario.irs.grid_m == 10

    def test_bad_bandwidth_names_path(self):
        with pytest.raises(ValueError, match="noise.bandwidth_b"):
            parse_config({"noise": {"bandwidth_b": -1}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown config key: lasers"):
            parse_config({"lasers": {}})

    def test_unknown_sweep_key(self):
        with pytest.raises(ValueError, match="unknown config key: sweep.steps"):
            parse_config({"sweep": {"steps": 3}})

    def test_seed_override_changes_placement(self):
        a, _, _ = parse_config({}, seed=1)
        b, _, _ = parse_config({}, seed=2)
        assert a.rng_seed == 1 and b.rng_seed == 2
        assert a.users != b.users

    def test_sweep_values(self):
        _, sweep, _ = parse_config({"sweep": {"snr_points_db": [10, 20], "k_values": [2, 4]}})
        assert sweep.snr_points_db == (10.0, 20.0)
        assert sweep.k_values == (2, 4)

    def test_non_object_root_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            parse_config([1, 2, 3])


class TestLoadConfig:
    def test_round_trip_reproduces_scenario(self, tmp_path):
        scenario, sweep, output = parse_config({"users": {"k": 3}, "irs": {"grid_m": 10}})
        document = effective_config(scenario, sweep, output)
        path = tmp_path / "effective.json"
        write_config(document, path)
        reloaded, sweep2, output2 = load_config(path)
        assert reloaded == scenario
        assert sweep2 == sweep
        assert output2 == output

    def test_round_trip_without_panel(self, tmp_path):
        scenario, sweep, output = parse_config({"irs": {"enabled": False}})
        path = tmp_path / "effective.json"
        write_config(effective_config(scenario, sweep, output), path)
        reloaded, _, _ = load_config(path)
        assert reloaded == scenario

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="config parse error"):
            load_config(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "absent.json")

    def test_explicit_positions_round_trip(self, tmp_path):
        doc = {
            "users": {
                "k": 2,
                "positions": [[1.0, 2.0, 0.0], [3.5, 0.25, 0.0]],
                "blocked": [1],
            }
        }
        scenario, sweep, output = parse_config(doc)
        assert scenario.users[1].blocked
        path = tmp_path / "cfg.json"
        write_config(effective_config(scenario, sweep, output), path)
        reloaded, _, _ = load_config(path)
        assert reloaded == scenario


class TestSpecValidation:
    def test_sweep_spec_rejects_empty(self):
        with pytest.raises(ValueError):
            SweepSpec(snr_points_db=())
        with pytest.raises(ValueError):
            SweepSpec(k_values=(0,))

    def test_output_spec_default(self):
        assert OutputSpec().svg is True

    def test_effective_config_is_json_serialisable(self):
        scenario, sweep, output = parse_config({})
        json.dumps(effective_config(scenario, sweep, output))


class TestSchemaTable:
    def test_doc_keys_equal_schema(self):
        assert sorted(doc_rows()) == sorted(SCHEMA)

    def test_doc_ranges_and_defaults_equal_schema(self):
        for path, (accepts, default) in doc_rows().items():
            assert accepts == str(SCHEMA[path][1]), path
            assert json.loads(default) == SCHEMA[path][0], path

    def test_effective_config_emits_every_schema_key(self):
        scenario, sweep, output = parse_config({"irs": {"enabled": True}})
        assert sorted(flat_keys(effective_config(scenario, sweep, output))) == sorted(SCHEMA)

    def test_nonfinite_numbers_rejected_in_memory(self):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="adt.beam_waist_m"):
                parse_config({"adt": {"beam_waist_m": value}})

    def test_dotted_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key: room.dims"):
            parse_config({"room.dims": [5.0, 5.0, 3.0]})
