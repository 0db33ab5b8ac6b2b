"""End-to-end command-line runs in temporary directories."""

import csv
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from test_network import PAIR, TOPOLOGIES

import gpiodac.cli
from gpiodac.cli import OUTPUT_DIR_ENV, json_text, load_config, main, report_doc, write_atomic
from gpiodac.devices import Polarity
from gpiodac.metrics import summary
from gpiodac.network import DacConfig, transfer_curve

GOLDEN = Path(__file__).parent / "golden"
TWO_RESISTOR_FLAGS = ["--vth", "1.15", "--ron", "40.0", "--vdd", "3.3", "--n-bits", "4"]
FOUR_RESISTOR_FLAGS = ["--vth", "1.15", "--vdd", "3.3", "--it", "0.2", "--split", "1.0"]
PARAMS = {"schema": 1, "vth_v": 1.15, "ron_ohm": 40.0, "vdd_v": 3.3,
          "linear_range_v": [1.15, 2.15], "run": {"command": "extract"}}

BASE_CONFIG = {
    "schema": 1,
    "output_dir": "out",
    "dac": {
        "n_bits": 4,
        "vdd": 3.3,
        "encoding": "binary",
        "devices": {"vth": 1.15, "ron_midrange": 40.0},
        "topology": {"kind": "standalone"},
    },
    "timing": {
        "t_rise_s": 30e-9,
        "t_fall_s": 30e-9,
        "skew_max_s": 5e-9,
        "sample_period_s": 50e-9,
    },
    "hdl": {
        "module_name": "dac4",
        "clock_hz": 100_000_000,
        "staircase_step_cycles": 50_000,
        "pin_assignments": [f"A{j + 1}" for j in range(15)],
        "clock_pin": "J3",
    },
}


def explicit_devices(**polarities) -> dict:
    """Explicit pmos/nmos device section, with optional polarity keys."""
    devices = {slot: {"vth": 1.15, "k": 0.0116} for slot in ("pmos", "nmos")}
    for slot, value in polarities.items():
        devices[slot]["polarity"] = value
    return devices


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    return tmp_path


def write_config(tmp_path: Path, overrides: dict | None = None) -> Path:
    doc = json.loads(json.dumps(BASE_CONFIG))
    for dotted, value in (overrides or {}).items():
        node = doc
        *parents, last = dotted.split(".")
        for key in parents:
            node = node.setdefault(key, {})
        if value is None:
            node.pop(last, None)
        else:
            node[last] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


class TestSimulate:
    def test_outputs_and_format(self, workdir):
        cfg = write_config(workdir)
        assert main(["simulate", "-c", str(cfg)]) == 0
        with (workdir / "out" / "transfer.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 16
        assert list(rows[0]) == [
            "code", "vdac_v", "vd_v", "vs_v", "itotal_a",
            "i_pullup_a", "i_pulldown_a", "region_p", "region_n", "kcl_residual_a",
        ]
        assert float(rows[8]["itotal_a"]) == pytest.approx(0.30, rel=0.2)
        assert rows[8]["region_p"] == "triode"
        report = json.loads((workdir / "out" / "report.json").read_text())
        assert report["schema"] == 1
        assert report["report"]["monotonic"] is True
        assert report["sizing"] is None
        record = json.loads((workdir / "out" / "run_record.json").read_text())
        assert record["command"] == "simulate"
        assert set(record["outputs"]) == {"transfer.csv", "report.json"}

    def test_byte_determinism(self, workdir):
        cfg = write_config(workdir)
        assert main(["simulate", "-c", str(cfg), "-o", "a"]) == 0
        assert main(["simulate", "-c", str(cfg), "-o", "b"]) == 0
        for name in ("transfer.csv", "report.json"):
            assert (workdir / "a" / name).read_bytes() == (workdir / "b" / name).read_bytes()

    def test_env_var_output_dir(self, workdir, monkeypatch):
        cfg = write_config(workdir)
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(workdir / "env_out"))
        assert main(["simulate", "-c", str(cfg)]) == 0
        assert (workdir / "env_out" / "transfer.csv").exists()

    @pytest.mark.parametrize(
        "golden, output, topology",
        [
            ("transfer_dac4_standalone.csv", "transfer.csv", None),
            ("report_dac4_standalone.json", "report.json", None),
            ("transfer_dac4_four_resistor.csv", "transfer.csv",
             {"kind": "four_resistor", "rsp": 10.0, "rsn": 2.0, "rpp": 5.0, "rpn": 7.0}),
        ],
    )
    def test_output_matches_golden(self, workdir, golden, output, topology):
        cfg = write_config(workdir, {"dac.topology": topology} if topology else {})
        assert main(["simulate", "-c", str(cfg)]) == 0
        want = (Path(__file__).parent / "golden" / golden).read_bytes()
        assert (workdir / "out" / output).read_bytes() == want

    def test_gnuplot_script_emission(self, workdir):
        cfg = write_config(workdir)
        assert main(["simulate", "-c", str(cfg), "--gnuplot"]) == 0
        script = (workdir / "out" / "transfer.gp").read_text()
        assert "plot 'transfer.csv'" in script
        record = json.loads((workdir / "out" / "run_record.json").read_text())
        assert "transfer.gp" in record["outputs"]


class TestExtractRoundTrip:
    def test_simulate_then_extract(self, workdir):
        cfg = write_config(workdir)
        assert main(["simulate", "-c", str(cfg)]) == 0
        curve = workdir / "out" / "transfer.csv"
        assert main(["extract", "--curve", str(curve), "--vdd", "3.3", "-o", "out"]) == 0
        params = json.loads((workdir / "out" / "params.json").read_text())
        assert params["vth_v"] == pytest.approx(1.15, rel=0.1)
        assert params["ron_ohm"] == pytest.approx(40.0, rel=0.1)

    def test_extract_feeds_size(self, workdir):
        cfg = write_config(workdir)
        main(["simulate", "-c", str(cfg)])
        main(["extract", "--curve", str(workdir / "out" / "transfer.csv"),
              "--vdd", "3.3", "-o", "out"])
        assert main(["size", "two-resistor", "--params", str(workdir / "out" / "params.json"),
                     "--n-bits", "4", "-o", "sized"]) == 0
        report = json.loads((workdir / "sized" / "report.json").read_text())
        assert report["sizing"]["topology"]["rpp_ohm"] == pytest.approx(2.32, rel=0.15)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_vdd_is_exit_2_naming_the_flag(self, workdir, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--curve", "missing.csv", "--vdd", value, "-o", "out"])
        assert exc.value.code == 2
        assert f"argument --vdd: must be a finite number, got '{value}'" in capsys.readouterr().err

    def test_missing_column_is_config_error(self, workdir):
        bad = workdir / "bad.csv"
        bad.write_text("code,vdac_v\n0,0.0\n")
        assert main(["extract", "--curve", str(bad), "--vdd", "3.3", "-o", "out"]) == 2

    def test_output_matches_golden(self, workdir):
        curve = workdir / "transfer.csv"
        curve.write_bytes((GOLDEN / "transfer_dac4_standalone.csv").read_bytes())
        assert main(["extract", "--curve", str(curve), "--vdd", "3.3", "-o", "out"]) == 0
        want = (GOLDEN / "params_dac4_standalone.json").read_bytes()
        assert (workdir / "out" / "params.json").read_bytes() == want

    @pytest.mark.parametrize(
        "row, column, cell, message",
        [
            (3, "code", "x", "must be an integer, got 'x'"),
            (3, "code", "2.0", "must be an integer, got '2.0'"),
            (9, "vdac_v", "nan", "must be a finite number, got 'nan'"),
            (17, "i_pullup_a", "inf", "must be a finite number, got 'inf'"),
            (2, "vdac_v", "", "must be a finite number, got ''"),
        ],
    )
    def test_bad_cell_is_config_error_naming_file_row_and_column(
        self, workdir, capsys, row, column, cell, message
    ):
        with (GOLDEN / "transfer_dac4_standalone.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))
        rows[row - 1][rows[0].index(column)] = cell  # row 1 is the header
        curve = workdir / "bad.csv"
        with curve.open("w", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
        assert main(["extract", "--curve", str(curve), "--vdd", "3.3", "-o", "out"]) == 2
        err = capsys.readouterr().err
        assert err == f"gpiodac: error: config: curve {curve} row {row}, column {column}: {message}\n"
        assert not (workdir / "out" / "params.json").exists()


class TestSize:
    def test_two_resistor_reference_values(self, workdir):
        assert main(["size", "two-resistor", *TWO_RESISTOR_FLAGS, "-o", "out"]) == 0
        doc = json.loads((workdir / "out" / "report.json").read_text())
        sizing = doc["sizing"]
        assert sizing["alpha_g"] == pytest.approx(17.25, rel=1e-9)
        assert sizing["topology"]["rpp_ohm"] == pytest.approx(2.32, rel=0.05)
        assert doc["report"] is None

    def test_four_resistor_reference_values(self, workdir):
        assert main(["size", "four-resistor", *FOUR_RESISTOR_FLAGS, "-o", "out"]) == 0
        sizing = json.loads((workdir / "out" / "report.json").read_text())["sizing"]
        assert sizing["rs_bounds_ohm"] == pytest.approx([5.0, 10.75], abs=1e-9)
        assert sizing["topology"]["rpp_ohm"] == pytest.approx(5.75, abs=1e-9)
        assert sizing["topology"]["rsn_ohm"] == 0.0

    def test_infeasible_is_exit_4(self, workdir):
        code = main([
            "size", "four-resistor",
            "--vth", "1.15", "--vdd", "3.3", "--it", "0.2", "--rs-total", "100.0",
            "-o", "out",
        ])
        assert code == 4

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("flag", ["--vth", "--ron", "--vdd", "--it", "--split", "--rs-total"])
    def test_non_finite_flag_is_exit_2_naming_the_flag(self, workdir, capsys, flag, value):
        flags = {"--vth": "1.15", "--vdd": "3.3", "--it": "0.2", flag: value}
        with pytest.raises(SystemExit) as exc:
            main(["size", "four-resistor", *(t for kv in flags.items() for t in kv), "-o", "out"])
        assert exc.value.code == 2
        assert f"argument {flag}: must be a finite number, got '{value}'" in capsys.readouterr().err
        assert not (workdir / "out" / "report.json").exists()

    def test_missing_arguments_is_exit_2(self, workdir):
        assert main(["size", "two-resistor", "-o", "out"]) == 2

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("report_size_two_resistor.json", ["two-resistor", *TWO_RESISTOR_FLAGS]),
            ("report_size_four_resistor.json", ["four-resistor", *FOUR_RESISTOR_FLAGS]),
        ],
    )
    def test_output_matches_golden(self, workdir, golden, argv):
        assert main(["size", *argv, "-o", "out"]) == 0
        assert (workdir / "out" / "report.json").read_bytes() == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize("value", ["-3", "0", "17", "4.0", "x"])
    def test_n_bits_outside_1_to_16_is_exit_2_naming_the_flag(self, workdir, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["size", "two-resistor", *TWO_RESISTOR_FLAGS, "--n-bits", value, "-o", "out"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --n-bits: must be an integer in 1..16, got '{value}'" in err
        assert not (workdir / "out" / "report.json").exists()

    def test_n_bits_16_is_accepted(self, workdir):
        assert main(["size", "two-resistor", *TWO_RESISTOR_FLAGS, "--n-bits", "16", "-o", "out"]) == 0


class TestSweep:
    def test_sweep_csv(self, workdir):
        cfg = write_config(workdir, {
            "dac.topology": {"kind": "four_resistor", "rsp": 10.0, "rsn": 0.0,
                              "rpp": 5.0, "rpn": 5.0},
        })
        assert main(["sweep", "-c", str(cfg), "--rp", "5,7.5,10"]) == 0
        with (workdir / "out" / "sweep.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3
        assert [r["rp_ohm"] for r in rows] == ["5", "7.5", "10"]
        assert all(r["status"] == "ok" for r in rows)
        assert float(rows[0]["imax_amp"]) > float(rows[2]["imax_amp"])

    def test_output_matches_golden(self, workdir):
        cfg = write_config(workdir, {
            "dac.topology": {"kind": "four_resistor", "rsp": 10.0, "rsn": 0.0,
                              "rpp": 5.0, "rpn": 5.0},
        })
        assert main(["sweep", "-c", str(cfg), "--rp", "5,6,7,8,9,10"]) == 0
        want = (GOLDEN / "sweep_dac4_four_resistor.csv").read_bytes()
        assert (workdir / "out" / "sweep.csv").read_bytes() == want

    def test_bad_rp_list(self, workdir):
        cfg = write_config(workdir)
        assert main(["sweep", "-c", str(cfg), "--rp", "5,banana"]) == 2

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_rp_is_exit_2_naming_the_flag(self, workdir, capsys, value):
        cfg = write_config(workdir, {
            "dac.topology": {"kind": "two_resistor", "rpp": 5.0, "rpn": 5.0},
        })
        assert main(["sweep", "-c", str(cfg), "--rp", f"5,{value}"]) == 2
        err = capsys.readouterr().err
        assert err == f"gpiodac: error: config: argument --rp: must be a finite number, got '{value}'\n"
        assert not (workdir / "out" / "sweep.csv").exists()


class TestTransient:
    def test_staircase_waveform(self, workdir):
        cfg = write_config(workdir)
        assert main(["transient", "-c", str(cfg)]) == 0
        with (workdir / "out" / "waveform.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0]) == ["time_s", "volts"]
        assert len(rows) > 16  # intermediate skew states present
        times = [float(r["time_s"]) for r in rows]
        assert times == sorted(times)

    def test_explicit_codes_and_seed(self, workdir):
        cfg = write_config(workdir)
        assert main(["transient", "-c", str(cfg), "--codes", "7,8", "--seed", "3"]) == 0
        assert (workdir / "out" / "waveform.csv").exists()

    def test_random_skew_without_seed_is_exit_2_naming_key_and_flag(self, workdir, capsys):
        # an unseeded draw would give a different waveform.csv on every run
        cfg = write_config(workdir, {"transient": {"skew_mode": "random"}})
        assert main(["transient", "-c", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "gpiodac: error: config: transient.skew_mode 'random' needs --seed\n"
        assert not (workdir / "out" / "waveform.csv").exists()

    def test_random_skew_with_seed_is_the_seeded_golden(self, workdir):
        cfg = write_config(workdir, {"transient": {"skew_mode": "random"}})
        assert main(["transient", "-c", str(cfg), "--seed", "7"]) == 0
        golden = GOLDEN / "waveform_dac4_seed7.csv"
        assert (workdir / "out" / "waveform.csv").read_bytes() == golden.read_bytes()

    def test_missing_timing_section(self, workdir):
        cfg = write_config(workdir, {"timing": None})
        assert main(["transient", "-c", str(cfg)]) == 2

    @pytest.mark.parametrize("value", ["-1", "2.5", "x"])
    def test_bad_seed_is_exit_2_naming_the_flag(self, workdir, capsys, value):
        cfg = write_config(workdir)
        with pytest.raises(SystemExit) as exc:
            main(["transient", "-c", str(cfg), "--seed", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --seed: must be a non-negative integer, got '{value}'" in err
        assert not (workdir / "out" / "waveform.csv").exists()

    def test_seed_0_is_accepted(self, workdir):
        cfg = write_config(workdir)
        assert main(["transient", "-c", str(cfg), "--seed", "0"]) == 0

    @pytest.mark.parametrize("name, extra", [("deterministic", []), ("seed7", ["--seed", "7"])])
    def test_waveform_matches_golden(self, workdir, name, extra):
        cfg = write_config(workdir)
        assert main(["transient", "-c", str(cfg)] + extra) == 0
        golden = Path(__file__).parent / "golden" / f"waveform_dac4_{name}.csv"
        assert (workdir / "out" / "waveform.csv").read_bytes() == golden.read_bytes()


class TestHdl:
    def test_three_files_and_determinism(self, workdir):
        cfg = write_config(workdir)
        assert main(["hdl", "-c", str(cfg), "-o", "a"]) == 0
        names = ["dac4.v", "dac4.pcf", "dac4_manifest.json"]
        for name in names:
            assert (workdir / "a" / name).exists()
        assert main(["hdl", "-c", str(cfg), "-o", "b"]) == 0
        for name in names:
            assert (workdir / "a" / name).read_bytes() == (workdir / "b" / name).read_bytes()

    def test_staircase_variant(self, workdir):
        cfg = write_config(workdir)
        assert main(["hdl", "-c", str(cfg), "--staircase"]) == 0
        text = (workdir / "out" / "dac4.v").read_text()
        assert "step_ctr" in text

    def test_thermometer_encoding_flows_from_dac_section(self, workdir):
        cfg = write_config(workdir, {"dac.encoding": "thermometer"})
        assert main(["hdl", "-c", str(cfg)]) == 0
        assert "(code > 4'd14)" in (workdir / "out" / "dac4.v").read_text()


class TestConfigErrors:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"schema": 2},
            {"dac.n_bits": None},
            {"dac.bogus_key": 1},
            {"dac.devices": {"vth": 1.15}},
            {"dac.topology": {"kind": "three_resistor"}},
            {"dac.vdd": "high"},
        ],
    )
    def test_exit_2_with_named_key(self, workdir, overrides, capsys):
        cfg = write_config(workdir, overrides)
        assert main(["simulate", "-c", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gpiodac: error: config:")
        assert err.count("\n") == 1  # single-line category + message

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("dac.vdd", float("nan"), "dac.vdd"),
            ("dac.vdd", float("inf"), "dac.vdd"),
            ("dac.topology", {"kind": "two_resistor", "rpp": float("-inf"), "rpn": 1.0},
             "dac.topology.rpp"),
            ("dac.devices", {"vth": float("nan"), "ron_midrange": 40.0}, "dac.devices.vth"),
            ("timing.skew_max_s", float("nan"), "timing.skew_max_s"),
            ("timing.sample_period_s", 10**400, "timing.sample_period_s"),
        ],
    )
    def test_non_finite_number_exits_2_naming_the_key(self, workdir, capsys, key, value, named):
        cfg = write_config(workdir, {key: value})  # json.dumps writes NaN and Infinity literals
        assert main(["transient", "-c", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gpiodac: error: config: {named} must be a finite number, got ")
        assert err.count("\n") == 1
        assert not (workdir / "out" / "waveform.csv").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("transient", {"codes": 5}, "transient.codes must be a string, got 5"),
            ("transient", {"codes": [7, 8]}, "transient.codes must be a string, got [7, 8]"),
            ("transient", {"skew_mode": "chaotic"},
             "transient.skew_mode must be 'deterministic' or 'random', got 'chaotic'"),
            ("transient", [], "config.transient must be an object, got []"),
            ("timing.load_capacitance_f", 1e-12, "unknown key timing.load_capacitance_f"),
            ("timing.sample_period_s", None, "missing key timing.sample_period_s"),
            ("dac.n_bits", 4.0, "dac.n_bits must be an integer, got 4.0"),
            ("dac.n_bits", 17, "dac: n_bits must be in 1..16, got 17"),
            ("dac.encoding", "gray", "dac.encoding must be 'binary' or 'thermometer', got 'gray'"),
            ("dac.topology",
             {"kind": "four_resistor", "rsp": 1, "rsn": 0, "rpp": 1, "rpn": 1,
              "parallel_attach": "ground"},
             "dac.topology.parallel_attach must be 'supply' or 'inner', got 'ground'"),
            ("dac.topology", {"kind": "two_resistor", "rpp": 0.0, "rpn": 1.0},
             "dac.topology: parallel resistors must be > 0"),
            ("dac.devices", {"pmos": {"vth": 1.15, "k": -1.0}, "nmos": {"vth": 1.15, "k": 0.01}},
             "dac.devices.pmos: k must be finite and > 0, got -1.0"),
            ("hdl.pin_assignments", ["A1", 2], "hdl.pin_assignments must be a list of strings"),
            ("hdl.pin_assignments", ["A1"], "hdl: need exactly 15 pin assignments, got 1"),
            ("hdl.clock_hz", True, "hdl.clock_hz must be an integer, got True"),
            ("schema", True, "config.schema must be 1, got True"),
            ("output_dir", 5, "config.output_dir must be a string, got 5"),
        ],
    )
    def test_bad_value_exits_2_naming_the_key(self, workdir, capsys, key, value, message):
        cfg = write_config(workdir, {key: value})
        assert main(["transient", "-c", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gpiodac: error: config: {message}")
        assert err.count("\n") == 1
        assert not (workdir / "out" / "waveform.csv").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("vdd_v", float("inf"), "params.vdd_v must be a finite number, got inf"),
            ("vth_v", float("nan"), "params.vth_v must be a finite number, got nan"),
            ("vth_v", "1.15", "params.vth_v must be a finite number, got '1.15'"),
            ("linear_range_v", [1.15, 2.15, 9],
             "params.linear_range_v must be a pair of finite numbers, got [1.15, 2.15, 9]"),
            ("linear_range_v", 1.15, "params.linear_range_v must be a pair of finite numbers"),
            ("ron_ohm", None, "missing key params.ron_ohm"),
            ("ron", 40.0, "unknown key params.ron"),
            ("schema", 2, "params.schema must be 1, got 2"),
        ],
    )
    def test_bad_params_file_exits_2_naming_the_key(self, workdir, capsys, key, value, message):
        doc = {**PARAMS, key: value}
        if value is None:
            del doc[key]
        params = workdir / "params.json"
        params.write_text(json.dumps(doc))  # json.dumps writes NaN and Infinity literals
        assert main(["size", "two-resistor", "--params", str(params), "-o", "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gpiodac: error: config: {message}")
        assert err.count("\n") == 1
        assert not (workdir / "out" / "report.json").exists()

    def test_params_file_without_schema_and_run_is_accepted(self, workdir):
        params = workdir / "params.json"
        params.write_text(json.dumps({k: v for k, v in PARAMS.items() if k not in ("schema", "run")}))
        assert main(["size", "two-resistor", "--params", str(params), "-o", "out"]) == 0

    def test_params_root_must_be_an_object(self, workdir, capsys):
        params = workdir / "params.json"
        params.write_text("[1.15, 40.0]")
        assert main(["size", "two-resistor", "--params", str(params), "-o", "out"]) == 2
        assert capsys.readouterr().err.startswith("gpiodac: error: config: params must be an object")

    def test_readme_config_example_loads(self, workdir):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = re.search(r"### Config schema.*?```json\n(.*?)```", readme, re.S).group(1)
        cfg = workdir / "readme.json"
        cfg.write_text(example)
        loaded = load_config(cfg)
        assert loaded.hdl.pin_assignments[14] == (14, "J16")
        assert (loaded.transient_codes, loaded.transient_skew_mode) == ("staircase", "deterministic")
        assert main(["hdl", "-c", str(cfg), "-o", "out"]) == 0

    def test_readme_params_example_feeds_size(self, workdir):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = re.search(r"writes `params.json`.*?```json\n(.*?)```", readme, re.S).group(1)
        params = workdir / "params.json"
        params.write_text(example)
        assert main(["size", "two-resistor", "--params", str(params), "-o", "out"]) == 0

    def test_missing_file(self, workdir):
        assert main(["simulate", "-c", "nope.json"]) == 2

    def test_explicit_devices_take_polarity_from_their_slot(self, workdir):
        cfg = write_config(workdir, {"dac.devices": explicit_devices()})
        pair = load_config(cfg).dac.devices
        assert (pair.pmos.polarity, pair.nmos.polarity) == (Polarity.PMOS, Polarity.NMOS)
        cfg = write_config(workdir, {"dac.devices": explicit_devices(pmos="pmos", nmos="nmos")})
        assert main(["simulate", "-c", str(cfg)]) == 0

    @pytest.mark.parametrize(
        "slot, polarities",
        [
            ("pmos", {"pmos": "nmos"}),
            ("nmos", {"nmos": "pmos"}),
            ("pmos", {"pmos": "pnp"}),
            ("nmos", {"nmos": 1}),
        ],
    )
    def test_bad_polarity_exits_2_naming_the_key(self, workdir, capsys, slot, polarities):
        cfg = write_config(workdir, {"dac.devices": explicit_devices(**polarities)})
        assert main(["simulate", "-c", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gpiodac: error: config: dac.devices.{slot}.polarity must be ")
        assert err.count("\n") == 1
        assert not (workdir / "out" / "transfer.csv").exists()

    def test_unknown_key_names_location(self, workdir):
        from gpiodac.cli import ConfigError

        cfg = write_config(workdir, {"dac.topology.rpp": 1.0})
        with pytest.raises(ConfigError, match=r"dac\.topology\.rpp"):
            load_config(cfg)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_json_text_refuses_non_finite_numbers(self, value):
        # Strict JSON has no NaN or Infinity; a report must never carry them.
        with pytest.raises(ValueError, match="not JSON compliant"):
            json_text({"ron_ohm": value})
        with pytest.raises(ValueError, match="not JSON compliant"):
            json_text({"dnl_lsb": [0.25, value, -0.5]})


def stdlib_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


class TestJsonText:
    """json_text writes what the stdlib's indented encoder writes, byte for byte."""

    @pytest.mark.parametrize("topology", TOPOLOGIES.values(), ids=TOPOLOGIES.keys())
    def test_12_bit_report(self, topology):
        curve = transfer_curve(DacConfig(n_bits=12, vdd=3.3, devices=PAIR, topology=topology))
        doc = report_doc(summary(curve), None, "0" * 64, "simulate")
        assert json_text(doc) == stdlib_json(doc)

    def test_every_document_the_cli_writes(self, workdir, monkeypatch):
        docs = []

        def recorded(doc):
            docs.append(doc)
            return stdlib_json(doc)

        cfg = write_config(workdir)
        monkeypatch.setattr(gpiodac.cli, "json_text", recorded)
        assert main(["simulate", "-c", str(cfg)]) == 0
        assert main(["extract", "--curve", "out/transfer.csv", "--vdd", "3.3"]) == 0
        assert main(["size", "two-resistor", "--params", "out/params.json"]) == 0
        assert main(["size", "four-resistor", *FOUR_RESISTOR_FLAGS]) == 0
        # report, record, params, record, size report, record, size report, record
        assert len(docs) == 8 and "timestamp" in docs[1] and "vth_v" in docs[2]
        assert docs[4]["sizing"]["alpha_g"] and docs[6]["sizing"]["rs_bounds_ohm"]
        for doc in docs:
            assert json_text(doc) == stdlib_json(doc)

    def test_edge_cases(self):
        doc = {
            "empty": [[], {}, ()],
            "floats": [[0.5, -1.25], [[1e-300]], (2.0,)],
            "mixed": [1, 2.5, True, False, None, 3],
            "tuple": (1.0, "a", (None, 2)),
            "numpy": [np.float64(0.1), np.float64(-2.5e-7), 1.0],
            "extremes": [-0.0, 5e-324, 1e308, -1e308],
            "scalars": {"zero": -0.0, "tiny": 5e-324, "huge": 1e308, "big_int": 10**30},
            "text": ["ohm \u03a9 \u00b5A \U0001f600", 'quote " and \\ backslash', "a, b", ", "],
            "\u00b5 key, \"quoted\"": None,
            "nested": {"b": {"a": [{}], "c": ()}, "a": [[[]]]},
        }
        assert json_text(doc) == stdlib_json(doc)
        for value in doc.values():
            assert json_text(value) == stdlib_json(value)

    @pytest.mark.parametrize("doc", [{1: "int key"}, {"a": 1, 2: "mixed keys"}, {True: [1.0]},
                                     [np.int64(3)], {"a": object()}, [np.bool_(True)],
                                     {"a": [1.0, float("nan")]}, {"a": ["x", float("-inf")]}])
    def test_what_it_leaves_to_the_stdlib(self, doc):
        def outcome(encode):
            try:
                return encode(doc)
            except (TypeError, ValueError) as exc:
                return type(exc), str(exc)

        assert outcome(json_text) == outcome(stdlib_json)

    def test_circular_document_is_refused_as_the_stdlib_refuses_it(self):
        doc = {"a": []}
        doc["a"].append(doc)
        with pytest.raises(ValueError, match="Circular reference detected"):
            json_text(doc)


class TestAtomicity:
    def test_failed_write_leaves_no_declared_file(self, workdir, monkeypatch):
        target = workdir / "out" / "file.txt"

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            write_atomic(target, "payload")
        assert not target.exists()
        leftovers = list((workdir / "out").glob("*.tmp"))
        assert leftovers == []  # temp file cleaned up on failure

    def test_io_failure_is_exit_5(self, workdir):
        cfg = write_config(workdir)
        blocker = workdir / "blocked"
        blocker.write_text("i am a file, not a directory")
        assert main(["simulate", "-c", str(cfg), "-o", str(blocker)]) == 5

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_written_file_has_the_mode_open_gives_under_the_umask(self, workdir, umask, mode):
        target = workdir / "out" / "file.txt"
        old = os.umask(umask)
        try:
            write_atomic(target, "payload\nline two\n")
            with open(workdir / "plain.txt", "w"):
                pass
        finally:
            os.umask(old)
        assert target.stat().st_mode & 0o777 == mode
        assert (workdir / "plain.txt").stat().st_mode & 0o777 == mode
        assert target.read_text() == "payload\nline two\n"
        assert os.umask(old) == old  # the process umask is left as it was

    def test_declared_outputs_are_not_private(self, workdir):
        cfg = write_config(workdir)
        old = os.umask(0o022)
        try:
            assert main(["hdl", "-c", str(cfg), "-o", "out"]) == 0
        finally:
            os.umask(old)
        modes = {p.name: p.stat().st_mode & 0o777 for p in (workdir / "out").iterdir()}
        assert modes == dict.fromkeys(["dac4.v", "dac4.pcf", "dac4_manifest.json",
                                       "run_record.json"], 0o644)
