"""End-to-end command-line runs in temporary directories."""

import csv
import json
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from test_network import PAIR, TOPOLOGIES

import gpiodac.cli
import gpiodac.network
from gpiodac.cli import (
    OUTPUT_DIR_ENV,
    TRANSFER_COLUMNS,
    csv_text,
    json_text,
    load_config,
    main,
    report_doc,
    write_atomic,
)
from gpiodac.config import DacConfig, DevicePair, MosfetParams, Network, ParallelAttach
from gpiodac.explorer import SWEEP_COLUMNS
from gpiodac.metrics import summary
from gpiodac.network import transfer_curve
from gpiodac.sizing import SizingResult

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


def explicit_devices() -> dict:
    """Explicit pmos/nmos device section."""
    return {slot: {"vth": 1.15, "k": 0.0116} for slot in ("pmos", "nmos")}


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
        gpiodac.network._last = None  # the second run solves again
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
            # Supply rails with rsn > 0: vs is solved on its own node inside every vd step.
            ("transfer_dac4_four_resistor_supply.csv", "transfer.csv",
             {"kind": "four_resistor", "rsp": 10.0, "rsn": 2.0, "rpp": 5.0, "rpn": 7.0,
              "parallel_attach": "supply"}),
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

    def test_missing_curve_is_exit_2_naming_it(self, workdir, capsys):
        assert main(["extract", "--curve", "missing.csv", "--vdd", "3.3", "-o", "out"]) == 2
        assert capsys.readouterr().err == (
            "gpiodac: error: config: cannot read curve missing.csv: "
            "[Errno 2] No such file or directory: 'missing.csv'\n"
        )
        assert not (workdir / "out").exists()

    def test_header_only_curve_is_exit_4(self, workdir, capsys):
        (workdir / "curve.csv").write_text(",".join(TRANSFER_COLUMNS) + "\n")
        assert main(["extract", "--curve", "curve.csv", "--vdd", "3.3", "-o", "out"]) == 4
        assert capsys.readouterr().err == "gpiodac: error: sizing: curve CSV has no rows\n"
        assert not (workdir / "out").exists()

    def test_missing_column_is_config_error(self, workdir):
        bad = workdir / "bad.csv"
        bad.write_text("code,vdac_v\n0,0.0\n")
        assert main(["extract", "--curve", str(bad), "--vdd", "3.3", "-o", "out"]) == 2

    def test_the_five_columns_it_reads_give_the_golden_params(self, workdir):
        with (GOLDEN / "transfer_dac4_standalone.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        read = ["code", "vdac_v", "i_pullup_a", "region_p", "region_n"]
        curve = workdir / "measured.csv"
        curve.write_text(csv_text(read, [[row[c] for c in read] for row in rows]))
        assert main(["extract", "--curve", str(curve), "--vdd", "3.3", "-o", "out"]) == 0
        got = json.loads((workdir / "out" / "params.json").read_text())
        want = json.loads((GOLDEN / "params_dac4_standalone.json").read_text())
        for key in ("vth_v", "ron_ohm", "vdd_v", "linear_range_v"):
            assert got[key] == want[key], key

    def test_a_curve_without_a_column_it_reads_is_exit_2_naming_it(self, workdir, capsys):
        with (GOLDEN / "transfer_dac4_standalone.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        kept = [c for c in TRANSFER_COLUMNS if c != "region_n"]
        curve = workdir / "curve.csv"
        curve.write_text(csv_text(kept, [[row[c] for c in kept] for row in rows]))
        assert main(["extract", "--curve", str(curve), "--vdd", "3.3", "-o", "out"]) == 2
        assert capsys.readouterr().err == (
            f"gpiodac: error: config: curve CSV {curve} lacks columns: region_n\n"
        )
        assert not (workdir / "out").exists()

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


    def test_vth_at_three_quarters_vdd_is_exit_4_naming_it(self, workdir, capsys):
        # The run's span is -2 V, so vth = 3 V = 3/4 vdd, where the resistance formula has no
        # conductance left to invert.
        curve = workdir / "curve.csv"
        curve.write_text(",".join(TRANSFER_COLUMNS) + "\n"
                         "0,2.5,4,0,0.01,0.01,0.01,triode,triode,0\n"
                         "1,0.5,4,0,0.01,0.01,0.01,triode,triode,0\n")
        assert main(["extract", "--curve", str(curve), "--vdd", "4", "-o", "out"]) == 4
        err = capsys.readouterr().err
        assert err == "gpiodac: error: sizing: vth must be within (0, vdd/2), got vth=3.0, vdd=4.0\n"
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("keep, message", [
        (lambda rows: rows[::-1], "code 14 follows code 15"),
        (lambda rows: [r for r in rows if r[0] != "9"], "code 10 follows code 8"),
    ], ids=["reversed", "gapped"])
    def test_codes_out_of_place_are_exit_4_naming_the_first(self, workdir, capsys, keep, message):
        # Read in order, the reversed golden gives vth = 2.16 V and the gapped one 1.067 V.
        with (GOLDEN / "transfer_dac4_standalone.csv").open(newline="") as handle:
            header, *rows = csv.reader(handle)
        curve = workdir / "curve.csv"
        with curve.open("w", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows([header, *keep(rows)])
        assert main(["extract", "--curve", str(curve), "--vdd", "3.3", "-o", "out"]) == 4
        assert capsys.readouterr().err == (
            f"gpiodac: error: sizing: codes must be consecutive and ascending: {message}\n"
        )
        assert not (workdir / "out").exists()

    def test_infinite_ron_is_exit_4(self, workdir, capsys):
        # Row 9 holds code 7, the in-run code nearest mid-scale; its subnormal current makes
        # 1 / (k * (vov - vdd/4)) overflow to inf.
        with (GOLDEN / "transfer_dac4_standalone.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))
        rows[8][rows[0].index("i_pullup_a")] = "1e-320"
        curve = workdir / "curve.csv"
        with curve.open("w", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
        assert main(["extract", "--curve", str(curve), "--vdd", "3.3", "-o", "out"]) == 4
        assert capsys.readouterr().err == "gpiodac: error: sizing: ron must be finite and > 0, got inf\n"
        assert not (workdir / "out").exists()


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

    def test_target_current_too_small_for_float_range_is_exit_4_naming_it(self, workdir, capsys):
        assert main(["size", "four-resistor", "--vth", "1.15", "--vdd", "3.3", "--it", "1e-320",
                     "-o", "out"]) == 4
        assert capsys.readouterr().err == (
            "gpiodac: error: sizing: it_target 1e-320 A is too small: "
            "the series bound (vdd - vth)/it_target overflows\n"
        )
        assert not (workdir / "out").exists()

    def test_target_current_too_large_for_float_range_is_exit_4_naming_it(self, workdir, capsys):
        # rsp = 1.575e-308 and rpp = rpn = 1.15e-308 ohm, whose conductances times vdd overflow.
        assert main(["size", "four-resistor", "--vth", "1.15", "--vdd", "3.3", "--it", "1e308",
                     "-o", "out"]) == 4
        assert capsys.readouterr().err == (
            "gpiodac: error: sizing: it_target 1e+308 A with split 1 sizes rsp = 1.575e-308 ohm, "
            "and vdd / rsp is not finite\n"
        )
        assert not (workdir / "out").exists()

    def test_zero_split_is_exit_4_naming_the_supply_series_resistor(self, workdir, capsys):
        # split = 0 sizes rsp = 0; only rsn = 0 has a meaning (the shared ground rail).
        assert main(["size", "four-resistor", "--vth", "1.15", "--vdd", "3.3", "--it", "0.2",
                     "--split", "0", "-o", "out"]) == 4
        assert capsys.readouterr().err == (
            "gpiodac: error: sizing: it_target 0.2 A with split 0 sizes rsp = 0 ohm, "
            "and vdd / rsp is not finite\n"
        )
        assert not (workdir / "out").exists()

    def test_on_resistance_too_small_for_float_range_is_exit_4_naming_it(self, workdir, capsys):
        # rp = ron / alpha_g = 5.8e-322 ohm, whose conductance times vdd overflows.
        assert main(["size", "two-resistor", "--vth", "1.15", "--vdd", "3.3", "--ron", "1e-320",
                     "-o", "out"]) == 4
        assert capsys.readouterr().err == (
            "gpiodac: error: sizing: ron = 1e-320 ohm is too small: it sizes rpp = rpn = "
            "5.781e-322 ohm, and vdd / rp is not finite\n"
        )
        assert not (workdir / "out").exists()

    def test_on_resistance_too_large_for_float_range_is_exit_4_naming_it(self, workdir, capsys):
        # rp = ron / alpha_g = 1e300 / 4.5e-300 overflows to inf, which report.json cannot hold.
        assert main(["size", "two-resistor", "--vth", "1e-300", "--vdd", "3.3", "--ron", "1e300",
                     "-o", "out"]) == 4
        assert capsys.readouterr().err == "gpiodac: error: sizing: rpp = inf is not finite\n"
        assert not (workdir / "out").exists()

    def test_stretch_factor_underflow_is_exit_4_naming_it(self, workdir, capsys):
        # alpha_g = d_max * vth / (vdd - 2*vth) = 5e-324 / 3.3 rounds to 0, the divisor of rp.
        assert main(["size", "two-resistor", "--vth", "5e-324", "--vdd", "3.3", "--ron", "40",
                     "--n-bits", "1", "-o", "out"]) == 4
        assert capsys.readouterr().err == (
            "gpiodac: error: sizing: vth = 4.941e-324 V is too small: "
            "alpha_g = d_max * vth / (vdd - 2*vth) underflows to 0\n"
        )
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("flag", ["--vth", "--ron", "--vdd", "--it", "--split", "--rs-total"])
    def test_non_finite_flag_is_exit_2_naming_the_flag(self, workdir, capsys, flag, value):
        # --ron is two-resistor's; every other flag is four-resistor's.
        mode, third = ("two-resistor", "--ron") if flag == "--ron" else ("four-resistor", "--it")
        flags = {"--vth": "1.15", "--vdd": "3.3", third: "0.2", flag: value}
        with pytest.raises(SystemExit) as exc:
            main(["size", mode, *(t for kv in flags.items() for t in kv), "-o", "out"])
        assert exc.value.code == 2
        assert f"argument {flag}: must be a finite number, got '{value}'" in capsys.readouterr().err
        assert not (workdir / "out" / "report.json").exists()

    @pytest.mark.parametrize("mode", ["two-resistor", "four-resistor"])
    @pytest.mark.parametrize("flags", [[], ["--vth", "1.15"], ["--vdd", "3.3"]])
    def test_missing_arguments_is_exit_2(self, workdir, capsys, mode, flags):
        assert main(["size", mode, *flags, "-o", "out"]) == 2
        assert capsys.readouterr().err == (
            "gpiodac: error: config: either --params or both --vth and --vdd are required\n"
        )
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize(
        "mode, flag, message",
        [
            ("two-resistor", "--it", "two-resistor sizing needs --ron (or --params)"),
            ("four-resistor", "--ron", "four-resistor sizing needs --it"),
        ],
    )
    def test_a_mode_without_its_flag_is_exit_2_naming_it(self, workdir, capsys, mode, flag, message):
        assert main(["size", mode, "--vth", "1.15", "--vdd", "3.3", "-o", "out"]) == 2
        assert capsys.readouterr().err == f"gpiodac: error: config: {message}\n"
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize(
        "mode, flag, value",
        [
            ("two-resistor", "--it", "5"),
            ("two-resistor", "--split", "0.3"),
            ("two-resistor", "--rs-total", "10"),
            ("four-resistor", "--ron", "7"),
            ("four-resistor", "--n-bits", "9"),
        ],
    )
    def test_a_flag_the_mode_does_not_read_is_exit_2_naming_it(
        self, workdir, capsys, mode, flag, value
    ):
        flags = TWO_RESISTOR_FLAGS if mode == "two-resistor" else FOUR_RESISTOR_FLAGS
        with pytest.raises(SystemExit) as exc:
            main(["size", mode, *flags, flag, value, "-o", "out"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: gpiodac size {mode} [-h]")
        last = err.splitlines()[-1]
        assert last == f"gpiodac size {mode}: error: unrecognized arguments: {flag} {value}"
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize(
        "mode, flag",
        [("two-resistor", "--vth"), ("two-resistor", "--vdd"), ("two-resistor", "--ron"),
         ("four-resistor", "--vth"), ("four-resistor", "--vdd")],
    )
    def test_params_with_a_flag_is_exit_2_naming_it(self, workdir, capsys, mode, flag):
        params = workdir / "params.json"
        params.write_text(json.dumps(PARAMS))
        extra = ["--it", "0.2"] if mode == "four-resistor" else []
        assert main(["size", mode, "--params", str(params), flag, "1.15", *extra, "-o", "out"]) == 2
        err = capsys.readouterr().err
        assert err == f"gpiodac: error: config: --params and {flag} cannot be combined\n"
        assert not (workdir / "out").exists()

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


def sized_kind_doc(topology: Network) -> dict:
    """The topology block report.json gives a sizing of this network."""
    sizing = SizingResult(topology, predicted_dynamic_range=(0.0, 1.0))
    return report_doc(None, sizing, "digest", "size")["sizing"]["topology"]


class TestNetworkKinds:
    """A config kind is shorthand for a Network; report.json names a network's kind by the
    resistors it has."""

    @pytest.mark.parametrize("topology", [
        {"kind": "standalone"},
        {"kind": "two_resistor", "rpp": 5.0, "rpn": 7.0},
        {"kind": "four_resistor", "rsp": 10.0, "rsn": 2.0, "rpp": 5.0, "rpn": 7.0,
         "parallel_attach": "inner"},
        {"kind": "four_resistor", "rsp": 10.0, "rsn": 0.0, "rpp": 5.0, "rpn": 7.0,
         "parallel_attach": "supply"},
    ], ids=["standalone", "two_resistor", "four_resistor_inner", "four_resistor_supply"])
    def test_a_config_kind_parses_to_a_network_reported_as_that_kind(self, workdir, topology):
        network = load_config(write_config(workdir, {"dac.topology": topology})).dac.topology
        ohms = {f"{key}_ohm": value for key, value in topology.items() if key.startswith("r")}
        assert type(network) is Network
        assert network.parallel_attach is ParallelAttach(topology.get("parallel_attach", "inner"))
        assert sized_kind_doc(network) == {"kind": topology["kind"], **ohms}

    def test_a_four_resistor_config_without_series_resistors_is_the_two_resistor_network(
        self, workdir
    ):
        topology = {"kind": "four_resistor", "rsp": 0.0, "rsn": 0.0, "rpp": 5.0, "rpn": 7.0}
        network = load_config(write_config(workdir, {"dac.topology": topology})).dac.topology
        assert network == Network(rpp=5.0, rpn=7.0)
        assert sized_kind_doc(network) == {"kind": "two_resistor", "rpp_ohm": 5.0, "rpn_ohm": 7.0}

    def test_a_network_without_parallel_resistors_is_reported_standalone(self):
        assert sized_kind_doc(Network(rsp=10.0, rsn=2.0)) == {"kind": "standalone"}

    def test_series_rsn_without_rsp_exits_2_naming_it(self, workdir, capsys):
        topology = {"kind": "four_resistor", "rsp": 0.0, "rsn": 2.0, "rpp": 5.0, "rpn": 7.0}
        assert main(["simulate", "-c", str(write_config(workdir, {"dac.topology": topology}))]) == 2
        assert capsys.readouterr().err == (
            "gpiodac: error: config: dac.topology: rsn = 2.0 needs rsp > 0, got rsp = 0.0\n"
        )


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

    def test_a_standalone_config_sweeps_as_a_two_resistor_one(self, workdir):
        assert main(["sweep", "-c", str(write_config(workdir)), "--rp", "5,2.35"]) == 0
        two = write_config(workdir, {"dac.topology": {"kind": "two_resistor", "rpp": 9.0, "rpn": 9.0}})
        assert main(["sweep", "-c", str(two), "--rp", "5,2.35", "-o", "two"]) == 0
        standalone = (workdir / "out" / "sweep.csv").read_bytes()
        assert standalone == (workdir / "two" / "sweep.csv").read_bytes()
        assert standalone.count(b",ok\n") == 2

    def test_bad_rp_list(self, workdir):
        cfg = write_config(workdir)
        assert main(["sweep", "-c", str(cfg), "--rp", "5,banana"]) == 2

    def test_an_rp_list_without_values_is_exit_2(self, workdir, capsys):
        cfg = write_config(workdir)
        assert main(["sweep", "-c", str(cfg), "--rp", ","]) == 2
        assert capsys.readouterr().err == "gpiodac: error: config: --rp list is empty\n"
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_rp_is_exit_2_naming_the_flag(self, workdir, capsys, value):
        cfg = write_config(workdir, {
            "dac.topology": {"kind": "two_resistor", "rpp": 5.0, "rpn": 5.0},
        })
        assert main(["sweep", "-c", str(cfg), "--rp", f"5,{value}"]) == 2
        err = capsys.readouterr().err
        assert err == f"gpiodac: error: config: argument --rp: must be a finite number, got '{value}'\n"
        assert not (workdir / "out" / "sweep.csv").exists()

    def test_an_rp_not_above_0_is_exit_2_naming_rpp(self, workdir, capsys):
        cfg = write_config(workdir, {
            "dac.topology": {"kind": "two_resistor", "rpp": 5.0, "rpn": 5.0},
        })
        assert main(["sweep", "-c", str(cfg), "--rp", "7,-1"]) == 2
        assert capsys.readouterr().err == (
            "gpiodac: error: config: parallel resistors must be > 0, got rpp=-1.0, rpn=-1.0\n"
        )
        assert not (workdir / "out").exists()

    def test_a_failing_point_is_an_error_row(self, workdir):
        cfg = write_config(workdir, {
            "dac.n_bits": 5,
            "dac.devices": {"pmos": {"vth": 1.05, "k": 0.012}, "nmos": {"vth": 1.2, "k": 0.010}},
            "dac.topology": {"kind": "four_resistor", "rsp": 10.0, "rsn": 2.0,
                              "rpp": 5.0, "rpn": 7.0},
            "hdl": None,
        })
        assert main(["sweep", "-c", str(cfg), "--rp", "7,2.35"]) == 0
        header, ok, failed = (workdir / "out" / "sweep.csv").read_text().splitlines()
        assert header == ",".join(SWEEP_COLUMNS)
        assert ok.endswith(",true,ok")
        assert failed == "2.35,12,,,,,,error: zero full-scale span: vdac(d_max) equals vdac(0)"


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

    @pytest.mark.parametrize("codes", ["", ",", " "])
    def test_a_code_list_without_codes_is_exit_2(self, workdir, capsys, codes):
        # An empty --codes is a list of no codes, not a request for the staircase.
        cfg = write_config(workdir)
        assert main(["transient", "-c", str(cfg), "--codes", codes]) == 2
        captured = capsys.readouterr()
        assert captured.err == "gpiodac: error: config: need at least one code\n"
        assert captured.out == ""
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("codes", ["99999999999999999999", "3,-99999999999999999999"])
    def test_a_code_beyond_int64_is_exit_2_naming_it(self, workdir, capsys, codes):
        cfg = write_config(workdir)
        assert main(["transient", "-c", str(cfg), "--codes", codes]) == 2
        captured = capsys.readouterr()
        bad = codes.split(",")[-1]
        assert captured.err == f"gpiodac: error: config: code {bad} out of range 0..15\n"
        assert captured.out == ""
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("section", [{}, {"codes": "7,8"}, {"codes": "staircase"},
                                         {"codes": 5}, {"skew_mode": "random"}, []])
    @pytest.mark.parametrize("argv", [["transient"], ["transient", "--seed", "7"], ["simulate"]])
    def test_transient_section_is_refused_as_unknown(self, workdir, capsys, section, argv):
        # --codes and --seed alone choose what transient replays, so the section would change nothing.
        cfg = write_config(workdir, {"transient": section})
        assert main([*argv, "-c", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "gpiodac: error: config: unknown key config.transient\n"
        assert captured.out == ""
        assert not (workdir / "out").exists()

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

    @pytest.mark.parametrize("staircase", [[], ["--staircase"]], ids=["decode", "staircase"])
    def test_clock_beyond_float_range_is_exit_2_naming_it(self, workdir, capsys, staircase):
        cfg = write_config(workdir, {"hdl.clock_hz": 10**400})  # a 401-digit JSON integer
        assert main(["hdl", "-c", str(cfg), *staircase]) == 2
        err = capsys.readouterr().err
        assert err == "gpiodac: error: config: hdl: clock_hz must be >= 1 and within float range\n"
        assert not (workdir / "out").exists()

    def test_a_config_without_an_hdl_section_is_exit_2(self, workdir, capsys):
        cfg = write_config(workdir, {"hdl": None})
        assert main(["hdl", "-c", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "gpiodac: error: config: hdl needs an hdl section in the config\n"
        )
        assert not (workdir / "out").exists()

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
        "topology, message",
        [
            # Once a traceback: json_text refused the NaN columns.
            ({"kind": "four_resistor", "rsp": 1e-320, "rsn": 1e-320, "rpp": 5.0, "rpn": 7.0},
             "dac: rsp = 1e-320 ohm is too small: vdd / rsp is not finite"),
            # Once exit 4 after numpy warnings.
            ({"kind": "two_resistor", "rpp": 1e-308, "rpn": 1e-308},
             "dac: rpp = 1e-308 ohm is too small: vdd / rpp is not finite"),
            ({"kind": "four_resistor", "rsp": 10.0, "rsn": 2.0, "rpp": 5.0, "rpn": 1e-309},
             "dac: rpn = 1e-309 ohm is too small: vdd / rpn is not finite"),
        ],
    )
    def test_resistance_beyond_float_range_exits_2_naming_the_key(
        self, workdir, capsys, topology, message
    ):
        cfg = write_config(workdir, {"dac.topology": topology})
        assert main(["simulate", "-c", str(cfg)]) == 2
        assert capsys.readouterr().err == f"gpiodac: error: config: {message}\n"
        assert not (workdir / "out").exists()

    def test_overflowing_solve_prints_only_its_error_line(self, workdir, capsys):
        devices = {slot: {"vth": 1.15, "k": 1e-300} for slot in ("pmos", "nmos")}
        topology = {"kind": "four_resistor", "rsp": 1e-300, "rsn": 1e-300, "rpp": 1e-300,
                    "rpn": 1e-300}
        cfg = write_config(workdir, {"dac.devices": devices, "dac.topology": topology})
        with warnings.catch_warnings():
            # Print every warning to stderr, as a run outside the test runner does.
            warnings.simplefilter("always")
            warnings.showwarning = lambda *args, **kwargs: sys.stderr.write(
                warnings.formatwarning(*args[:4]))
            status = main(["simulate", "-c", str(cfg)])
        err = capsys.readouterr().err
        assert status == 4
        assert err.count("\n") == 1 and err.startswith("gpiodac: error: ")
        assert not (workdir / "out").exists()

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
        assert loaded.hdl.pin_assignments[14] == "J16"
        assert main(["hdl", "-c", str(cfg), "-o", "out"]) == 0

    def test_readme_params_example_feeds_size(self, workdir):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = re.search(r"writes `params.json`.*?```json\n(.*?)```", readme, re.S).group(1)
        params = workdir / "params.json"
        params.write_text(example)
        assert main(["size", "two-resistor", "--params", str(params), "-o", "out"]) == 0

    def test_missing_file(self, workdir):
        assert main(["simulate", "-c", "nope.json"]) == 2

    def test_explicit_devices_take_their_role_from_their_slot(self, workdir):
        cfg = write_config(workdir, {"dac.devices": explicit_devices()})
        unit = MosfetParams(1.15, 0.0116)
        assert load_config(cfg).dac.devices == DevicePair(pmos=unit, nmos=unit)
        assert main(["simulate", "-c", str(cfg)]) == 0

    @pytest.mark.parametrize("slot, value", [("pmos", "pmos"), ("nmos", "nmos"), ("pmos", "nmos"),
                                             ("nmos", 1)])
    def test_polarity_key_is_refused_as_unknown(self, workdir, capsys, slot, value):
        # A device's role is its slot, so a polarity key would change nothing.
        devices = explicit_devices()
        devices[slot]["polarity"] = value
        cfg = write_config(workdir, {"dac.devices": devices})
        assert main(["simulate", "-c", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"gpiodac: error: config: unknown key dac.devices.{slot}.polarity\n"
        assert captured.out == ""
        assert not (workdir / "out").exists()

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

    def test_the_process_umask_is_never_changed(self, workdir, monkeypatch):
        # Flipping it, even for an instant, lets another thread create a file 0666.
        def umask(mask):
            raise AssertionError("write_atomic must not set the process umask")

        monkeypatch.setattr(os, "umask", umask)
        target = workdir / "out" / "file.txt"
        write_atomic(target, "payload")
        assert target.read_text() == "payload"
        assert [p.name for p in target.parent.iterdir()] == ["file.txt"]

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


# Each subcommand: (flags of a run that succeeds, the files it declares in the order the
# wrote line lists them, its gnuplot scripts with --gnuplot, flags of a run that fails).
RUNS = {
    "simulate": (["-c", "config.json"], ["transfer.csv", "report.json"], ["transfer.gp"],
                 ["-c", "missing.json"]),
    "extract": (["--curve", "curve/transfer.csv", "--vdd", "3.3"], ["params.json"], None,
                ["--curve", "missing.csv", "--vdd", "3.3"]),
    "size": (["two-resistor", *TWO_RESISTOR_FLAGS], ["report.json"], None,
             ["four-resistor", "--vth", "1.15", "--vdd", "3.3"]),
    "sweep": (["-c", "sweep.json", "--rp", "5,6"], ["sweep.csv"], ["sweep.gp"],
              ["-c", "sweep.json", "--rp", "5,nan"]),
    "transient": (["-c", "config.json", "--codes", "7,8"], ["waveform.csv"], ["waveform.gp"],
                  ["-c", "config.json", "--codes", "1,99"]),
    "hdl": (["-c", "config.json"], ["dac4.v", "dac4.pcf", "dac4_manifest.json"], None,
            ["-c", "no_hdl.json"]),
}


class TestRunner:
    @pytest.fixture
    def inputs(self, workdir):
        """config.json, a two-resistor sweep.json, a no_hdl.json and curve/transfer.csv."""
        write_config(workdir)
        two_resistor = {"kind": "two_resistor", "rpp": 5.0, "rpn": 5.0}
        sweep = {**BASE_CONFIG, "dac": {**BASE_CONFIG["dac"], "topology": two_resistor}}
        (workdir / "sweep.json").write_text(json.dumps(sweep))
        no_hdl = {key: value for key, value in BASE_CONFIG.items() if key != "hdl"}
        (workdir / "no_hdl.json").write_text(json.dumps(no_hdl))
        assert main(["simulate", "-c", "config.json", "-o", "curve"]) == 0
        return workdir

    @pytest.mark.parametrize("name", RUNS)
    def test_one_wrote_line_one_record_and_nothing_on_failure(self, inputs, capsys, name):
        flags, declared, scripts, failing = RUNS[name]
        capsys.readouterr()
        runs = [("plain", [], [])] + ([("plot", ["--gnuplot"], scripts)] if scripts else [])
        for out, extra, written_scripts in runs:
            assert main([name, *flags, "-o", out, *extra]) == 0
            assert capsys.readouterr().out == f"wrote {', '.join(f'{out}/{f}' for f in declared)}\n"
            record = json.loads((inputs / out / "run_record.json").read_text())
            assert record["command"] == name
            assert record["outputs"] == sorted(declared + written_scripts)
            written = sorted(path.name for path in (inputs / out).iterdir())
            assert written == sorted([*declared, *written_scripts, "run_record.json"])
        assert main([name, *failing, "-o", "failed"]) == 2
        assert capsys.readouterr().out == ""
        assert not (inputs / "failed").exists()

    @pytest.mark.parametrize("name", RUNS)
    def test_a_flag_the_command_does_not_take_is_refused_with_its_usage(self, workdir, capsys,
                                                                       name):
        flags = RUNS[name][0]
        prog = f"gpiodac {name} {flags[0]}" if name == "size" else f"gpiodac {name}"
        with pytest.raises(SystemExit) as exc:
            main([name, *flags, "--bogus", "-o", "refused"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {prog} [-h]")
        assert err.splitlines()[-1] == f"{prog}: error: unrecognized arguments: --bogus"
        assert not (workdir / "refused").exists()
