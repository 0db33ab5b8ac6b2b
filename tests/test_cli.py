"""End-to-end command-line runs in temporary directories."""

import csv
import json
import os
from pathlib import Path

import pytest

from gpiodac.cli import OUTPUT_DIR_ENV, json_text, load_config, main, write_atomic
from gpiodac.devices import Polarity

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


class TestSize:
    def test_two_resistor_reference_values(self, workdir):
        assert main([
            "size", "two-resistor",
            "--vth", "1.15", "--ron", "40.0", "--vdd", "3.3", "--n-bits", "4",
            "-o", "out",
        ]) == 0
        doc = json.loads((workdir / "out" / "report.json").read_text())
        sizing = doc["sizing"]
        assert sizing["alpha_g"] == pytest.approx(17.25, rel=1e-9)
        assert sizing["topology"]["rpp_ohm"] == pytest.approx(2.32, rel=0.05)
        assert doc["report"] is None

    def test_four_resistor_reference_values(self, workdir):
        assert main([
            "size", "four-resistor",
            "--vth", "1.15", "--vdd", "3.3", "--it", "0.2", "--split", "1.0",
            "-o", "out",
        ]) == 0
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

    def test_bad_rp_list(self, workdir):
        cfg = write_config(workdir)
        assert main(["sweep", "-c", str(cfg), "--rp", "5,banana"]) == 2


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

    def test_missing_timing_section(self, workdir):
        cfg = write_config(workdir, {"timing": None})
        assert main(["transient", "-c", str(cfg)]) == 2

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
