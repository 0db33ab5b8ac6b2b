"""Command-line front end and file I/O.

Subcommands: simulate, extract, size, sweep, transient, hdl. Experiments are
described by a JSON config file (schema below); a few flags override config
keys. Declared outputs are written atomically (temp file + rename) and are
byte-deterministic for a given config and tool version; the per-run record
(with its timestamp) lives in a separate run_record.json.

Exit codes: 0 ok, 2 config error, 3 solver failure, 4 sizing/extraction
infeasible, 5 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .devices import DeviceError, DevicePair, MosfetParams, Polarity, calibrated_pair
from .explorer import SWEEP_COLUMNS, sweep_parallel, sweep_rows
from .hdlgen import (
    GenerationError,
    HdlSpec,
    default_pin_assignments,
    generate_dac,
    generate_staircase,
    manifest_text,
)
from .metrics import LinearityReport, MetricsError, summary
from .network import (
    DacConfig,
    Encoding,
    FourResistor,
    ParallelAttach,
    SolverError,
    Standalone,
    TransferCurve,
    TwoResistor,
    transfer_curve,
)
from .sizing import (
    ExtractedParams,
    ExtractionError,
    SizingError,
    SizingResult,
    extract_from_table,
    size_four_resistor,
    size_two_resistor,
)
from .transient import TimingParams, export_rows, parse_code_list, synthesize

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "GPIODAC_OUTPUT_DIR"

TRANSFER_COLUMNS = (
    "code",
    "vdac_v",
    "vd_v",
    "vs_v",
    "itotal_a",
    "i_pullup_a",
    "i_pulldown_a",
    "region_p",
    "region_n",
    "kcl_residual_a",
)
WAVEFORM_COLUMNS = ("time_s", "volts")


class ConfigError(ValueError):
    """Bad config document; the message names the offending key."""


# ---------------------------------------------------------------------------
# Config parsing


def _require_keys(obj: dict, where: str, required: Sequence[str], optional: Sequence[str]) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key {where}.{key}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing key {where}.{key}")


def _number(obj: dict, where: str, key: str, default: float | None = None) -> float:
    if key not in obj:
        if default is None:
            raise ConfigError(f"missing key {where}.{key}")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    # JSON's NaN and Infinity literals, and integers too large for a float, are not numbers here.
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}.{key} must be a finite number, got {value!r}")
    return number


def _integer(obj: dict, where: str, key: str, default: int | None = None) -> int:
    if key not in obj:
        if default is None:
            raise ConfigError(f"missing key {where}.{key}")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    return value


def _parse_device(obj: Any, where: str, polarity: Polarity) -> MosfetParams:
    """One explicit device; its slot fixes the polarity, so the optional key must agree."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    _require_keys(obj, where, required=("vth", "k"), optional=("polarity",))
    given = obj.get("polarity", polarity.value)
    if given != polarity.value:
        raise ConfigError(f"{where}.polarity must be {polarity.value!r}, got {given!r}")
    return MosfetParams(polarity, _number(obj, where, "vth"), _number(obj, where, "k"))


def _parse_devices(obj: Any, where: str, vdd: float) -> DevicePair:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    if "pmos" in obj or "nmos" in obj:
        _require_keys(obj, where, required=("pmos", "nmos"), optional=())
        pmos = _parse_device(obj["pmos"], f"{where}.pmos", Polarity.PMOS)
        nmos = _parse_device(obj["nmos"], f"{where}.nmos", Polarity.NMOS)
        return DevicePair(pmos=pmos, nmos=nmos)
    # symmetric shorthand: threshold plus mid-scale unit resistance
    _require_keys(obj, where, required=("vth", "ron_midrange"), optional=())
    try:
        return calibrated_pair(
            vdd, _number(obj, where, "vth"), _number(obj, where, "ron_midrange")
        )
    except DeviceError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_topology(obj: Any, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    kind = obj.get("kind")
    try:
        if kind == "standalone":
            _require_keys(obj, where, required=("kind",), optional=())
            return Standalone()
        if kind == "two_resistor":
            _require_keys(obj, where, required=("kind", "rpp", "rpn"), optional=())
            return TwoResistor(_number(obj, where, "rpp"), _number(obj, where, "rpn"))
        if kind == "four_resistor":
            _require_keys(
                obj,
                where,
                required=("kind", "rsp", "rsn", "rpp", "rpn"),
                optional=("parallel_attach",),
            )
            attach = ParallelAttach(obj.get("parallel_attach", "inner"))
            return FourResistor(
                _number(obj, where, "rsp"),
                _number(obj, where, "rsn"),
                _number(obj, where, "rpp"),
                _number(obj, where, "rpn"),
                attach,
            )
    except (ValueError, ConfigError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(
        f"{where}.kind must be standalone, two_resistor or four_resistor, got {kind!r}"
    )


def _parse_dac(obj: Any, where: str) -> DacConfig:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    _require_keys(
        obj,
        where,
        required=("n_bits", "vdd", "devices", "topology"),
        optional=("encoding",),
    )
    vdd = _number(obj, where, "vdd")
    try:
        encoding = Encoding(obj.get("encoding", "binary"))
    except ValueError as exc:
        raise ConfigError(f"{where}.encoding: {exc}") from exc
    try:
        return DacConfig(
            n_bits=_integer(obj, where, "n_bits"),
            vdd=vdd,
            devices=_parse_devices(obj["devices"], f"{where}.devices", vdd),
            topology=_parse_topology(obj["topology"], f"{where}.topology"),
            encoding=encoding,
        )
    except (ValueError, DeviceError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_timing(obj: Any, where: str) -> TimingParams:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    _require_keys(
        obj,
        where,
        required=("sample_period_s",),
        optional=("t_rise_s", "t_fall_s", "skew_max_s", "load_capacitance_f"),
    )
    try:
        return TimingParams(
            t_rise=_number(obj, where, "t_rise_s", 30e-9),
            t_fall=_number(obj, where, "t_fall_s", 30e-9),
            skew_max=_number(obj, where, "skew_max_s", 5e-9),
            sample_period=_number(obj, where, "sample_period_s"),
            load_capacitance=_number(obj, where, "load_capacitance_f", 0.0),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_hdl(obj: Any, where: str, dac: DacConfig) -> HdlSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    _require_keys(
        obj,
        where,
        required=("module_name", "clock_hz"),
        optional=("staircase_step_cycles", "pin_assignments", "clock_pin"),
    )
    module_name = obj["module_name"]
    if not isinstance(module_name, str):
        raise ConfigError(f"{where}.module_name must be a string")
    pins_obj = obj.get("pin_assignments")
    if pins_obj is None:
        pins = default_pin_assignments(dac.n_bits)
    else:
        if not isinstance(pins_obj, list) or not all(isinstance(p, str) for p in pins_obj):
            raise ConfigError(f"{where}.pin_assignments must be a list of package pin names")
        pins = tuple((i, name) for i, name in enumerate(pins_obj))
    clock_pin = obj.get("clock_pin", "CLK")
    if not isinstance(clock_pin, str):
        raise ConfigError(f"{where}.clock_pin must be a string")
    try:
        return HdlSpec(
            n_bits=dac.n_bits,
            encoding=dac.encoding,
            module_name=module_name,
            clock_hz=_integer(obj, where, "clock_hz"),
            staircase_step_cycles=_integer(obj, where, "staircase_step_cycles", 1),
            pin_assignments=pins,
            clock_pin=clock_pin,
        )
    except GenerationError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class ProjectConfig:
    dac: DacConfig
    timing: TimingParams | None
    hdl: HdlSpec | None
    transient_codes: str
    transient_skew_mode: str
    output_dir: str
    digest: str
    raw: dict


def load_config(path: str | Path) -> ProjectConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    _require_keys(
        doc,
        "config",
        required=("schema", "dac"),
        optional=("timing", "hdl", "transient", "output_dir"),
    )
    schema = _integer(doc, "config", "schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"config.schema must be {SCHEMA_VERSION}, got {schema}")
    dac = _parse_dac(doc["dac"], "dac")
    timing = _parse_timing(doc["timing"], "timing") if "timing" in doc else None
    hdl = _parse_hdl(doc["hdl"], "hdl", dac) if "hdl" in doc else None

    codes_spec = "staircase"
    skew_mode = "deterministic"
    if "transient" in doc:
        tr = doc["transient"]
        if not isinstance(tr, dict):
            raise ConfigError("transient must be an object")
        _require_keys(tr, "transient", required=(), optional=("codes", "skew_mode"))
        codes_spec = tr.get("codes", codes_spec)
        skew_mode = tr.get("skew_mode", skew_mode)
        if skew_mode not in ("deterministic", "random"):
            raise ConfigError(f"transient.skew_mode must be deterministic or random, got {skew_mode!r}")

    output_dir = doc.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string")

    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return ProjectConfig(
        dac=dac,
        timing=timing,
        hdl=hdl,
        transient_codes=codes_spec,
        transient_skew_mode=skew_mode,
        output_dir=output_dir,
        digest=digest,
        raw=doc,
    )


# ---------------------------------------------------------------------------
# Output writers


def write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _fmt(value: Any) -> Any:
    if isinstance(value, float):
        return format(value, ".12g")
    return value


def csv_text(columns: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def json_text(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def transfer_csv(curve: TransferCurve) -> str:
    """The curve as CSV text, formatted column by column as csv_text formats rows."""
    columns = curve.columns
    n = len(columns["code"])

    def text(name: str) -> list[str]:
        values = columns[name]
        if name == "code":
            return list(map(str, values.tolist()))
        if name.startswith("region_"):
            return [region.value for region in values.tolist()]
        if np.ndim(values) == 0:  # a rail shared by every code
            return [format(values, ".12g")] * n
        return list(map(format, values.tolist(), repeat(".12g", n)))

    fields = ("code", "vdac", "vd", "vs", "i_total", "i_per_pullup", "i_per_pulldown",
              "region_p", "region_n", "kcl_residual")
    lines = map(",".join, zip(*map(text, fields)))
    return "\n".join((",".join(TRANSFER_COLUMNS), *lines)) + "\n"


def report_doc(
    report: LinearityReport | None,
    sizing: SizingResult | None,
    digest: str,
    command: str,
) -> dict:
    doc: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "run": {"command": command, "config_digest": digest, "tool_version": __version__},
        "report": None,
        "sizing": None,
    }
    if report is not None:
        doc["report"] = {
            "dnl_lsb": list(report.dnl),
            "inl_lsb": list(report.inl),
            "dnl_max_abs_lsb": report.dnl_max_abs,
            "inl_max_abs_lsb": report.inl_max_abs,
            "dynamic_range_v": report.dynamic_range,
            "monotonic": report.monotonic,
            "i_max_a": report.i_max,
            "i_at_midrange_a": report.i_at_midrange,
            "lsb_ref_v": report.lsb_ref,
            "inl_reference": report.inl_reference,
        }
    if sizing is not None:
        topo = sizing.topology
        topo_doc: dict[str, Any] = {}
        if isinstance(topo, TwoResistor):
            topo_doc = {"kind": "two_resistor", "rpp_ohm": topo.rpp, "rpn_ohm": topo.rpn}
        elif isinstance(topo, FourResistor):
            topo_doc = {
                "kind": "four_resistor",
                "rsp_ohm": topo.rsp,
                "rsn_ohm": topo.rsn,
                "rpp_ohm": topo.rpp,
                "rpn_ohm": topo.rpn,
            }
        doc["sizing"] = {
            "topology": topo_doc,
            "alpha_g": sizing.alpha_g,
            "it_bounds_a": list(sizing.it_bounds) if sizing.it_bounds else None,
            "rs_bounds_ohm": list(sizing.rs_bounds) if sizing.rs_bounds else None,
            "predicted_dynamic_range_v": list(sizing.predicted_dynamic_range),
            "strong_inversion_ok": sizing.strong_inversion_ok,
            "notes": list(sizing.notes),
        }
    return doc


def write_run_record(out_dir: Path, command: str, digest: str, outputs: list[str]) -> None:
    record = {
        "command": command,
        "config_digest": digest,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": sorted(outputs),
    }
    write_atomic(out_dir / "run_record.json", json_text(record))


def _out_dir(args: argparse.Namespace, cfg: ProjectConfig | None) -> Path:
    if args.output_dir:
        return Path(args.output_dir)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return Path(cfg.output_dir if cfg else "out")


GNUPLOT_SCRIPTS = {
    "transfer.csv": (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set xlabel 'code'\n"
        "set ylabel 'V'\n"
        "set y2label 'A'\n"
        "set y2tics\n"
        "plot 'transfer.csv' using 1:2 with steps title 'vdac [V]', \\\n"
        "     'transfer.csv' using 1:5 axes x1y2 with linespoints title 'i_total [A]'\n"
    ),
    "waveform.csv": (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set xlabel 'time [s]'\n"
        "set ylabel 'V'\n"
        "plot 'waveform.csv' using 1:2 with steps title 'vdac'\n"
    ),
    "sweep.csv": (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set xlabel 'rp [ohm]'\n"
        "plot 'sweep.csv' using 1:3 with linespoints title 'DNL max [LSB]', \\\n"
        "     'sweep.csv' using 1:4 with linespoints title 'INL max [LSB]', \\\n"
        "     'sweep.csv' using 1:5 with linespoints title 'DR [V]', \\\n"
        "     'sweep.csv' using 1:6 with linespoints title 'i_max [A]'\n"
    ),
}


def _maybe_gnuplot(args: argparse.Namespace, out: Path, csv_name: str, outputs: list[str]) -> None:
    if getattr(args, "gnuplot", False):
        name = csv_name.replace(".csv", ".gp")
        write_atomic(out / name, GNUPLOT_SCRIPTS[csv_name])
        outputs.append(name)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    curve = transfer_curve(cfg.dac)
    report = summary(curve)
    write_atomic(out / "transfer.csv", transfer_csv(curve))
    write_atomic(out / "report.json", json_text(report_doc(report, None, cfg.digest, "simulate")))
    outputs = ["transfer.csv", "report.json"]
    _maybe_gnuplot(args, out, "transfer.csv", outputs)
    write_run_record(out, "simulate", cfg.digest, outputs)
    print(f"wrote {out / 'transfer.csv'} and {out / 'report.json'}")
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    path = Path(args.curve)
    try:
        with path.open(newline="") as handle:
            reader = csv.DictReader(handle)
            missing = [c for c in TRANSFER_COLUMNS if c not in (reader.fieldnames or [])]
            if missing:
                raise ConfigError(f"curve CSV {path} lacks columns: {', '.join(missing)}")
            rows = list(reader)
    except OSError as exc:
        raise ConfigError(f"cannot read curve {path}: {exc}") from exc
    if not rows:
        raise ExtractionError("curve CSV has no rows")
    params = extract_from_table(
        codes=[int(r["code"]) for r in rows],
        vdac=[float(r["vdac_v"]) for r in rows],
        i_per_pullup=[float(r["i_pullup_a"]) for r in rows],
        region_p=[r["region_p"] for r in rows],
        region_n=[r["region_n"] for r in rows],
        vdd=args.vdd,
    )
    out = _out_dir(args, None)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    doc = {
        "schema": SCHEMA_VERSION,
        "vth_v": params.vth,
        "ron_ohm": params.ron,
        "vdd_v": params.vdd,
        "linear_range_v": list(params.linear_range),
        "run": {"command": "extract", "config_digest": digest, "tool_version": __version__},
    }
    write_atomic(out / "params.json", json_text(doc))
    write_run_record(out, "extract", digest, ["params.json"])
    print(f"wrote {out / 'params.json'}")
    return 0


def _load_extracted(args: argparse.Namespace) -> ExtractedParams:
    if args.params:
        try:
            doc = json.loads(Path(args.params).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read params {args.params}: {exc}") from exc
        try:
            return ExtractedParams(
                vth=float(doc["vth_v"]),
                ron=float(doc["ron_ohm"]),
                vdd=float(doc["vdd_v"]),
                linear_range=tuple(doc["linear_range_v"]),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"params file {args.params} malformed: {exc}") from exc
    if args.vth is None or args.vdd is None:
        raise ConfigError("either --params or both --vth and --vdd are required")
    ron = args.ron if args.ron is not None else 1.0
    return ExtractedParams(
        vth=args.vth, ron=ron, vdd=args.vdd, linear_range=(args.vth, args.vdd - args.vth)
    )


def _cmd_size(args: argparse.Namespace) -> int:
    params = _load_extracted(args)
    if args.mode == "two-resistor":
        if args.ron is None and not args.params:
            raise ConfigError("two-resistor sizing needs --ron (or --params)")
        d_max = (1 << args.n_bits) - 1
        result = size_two_resistor(params, d_max)
    else:
        if args.it is None:
            raise ConfigError("four-resistor sizing needs --it")
        result = size_four_resistor(
            params, it_target=args.it, split=args.split, rs_total=args.rs_total
        )
    out = _out_dir(args, None)
    digest = hashlib.sha256(
        json.dumps(
            {
                "mode": args.mode,
                "vth": params.vth,
                "ron": params.ron,
                "vdd": params.vdd,
                "n_bits": args.n_bits,
                "it": args.it,
                "split": args.split,
                "rs_total": args.rs_total,
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()
    write_atomic(out / "report.json", json_text(report_doc(None, result, digest, "size")))
    write_run_record(out, "size", digest, ["report.json"])
    print(f"wrote {out / 'report.json'}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    try:
        rp_values = [float(tok) for tok in args.rp.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --rp list {args.rp!r}: {exc}") from exc
    if not rp_values:
        raise ConfigError("--rp list is empty")
    try:
        points = sweep_parallel(cfg.dac, rp_values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _out_dir(args, cfg)
    write_atomic(out / "sweep.csv", csv_text(SWEEP_COLUMNS, sweep_rows(points)))
    outputs = ["sweep.csv"]
    _maybe_gnuplot(args, out, "sweep.csv", outputs)
    write_run_record(out, "sweep", cfg.digest, outputs)
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def _cmd_transient(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if cfg.timing is None:
        raise ConfigError("transient needs a timing section in the config")
    codes_spec = args.codes if args.codes else cfg.transient_codes
    try:
        codes = parse_code_list(codes_spec, cfg.dac.n_bits)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    skew_mode = "random" if args.seed is not None else cfg.transient_skew_mode
    try:
        wave = synthesize(cfg.dac, codes, cfg.timing, skew_mode=skew_mode, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _out_dir(args, cfg)
    write_atomic(out / "waveform.csv", csv_text(WAVEFORM_COLUMNS, list(export_rows(wave))))
    outputs = ["waveform.csv"]
    _maybe_gnuplot(args, out, "waveform.csv", outputs)
    write_run_record(out, "transient", cfg.digest, outputs)
    print(f"wrote {out / 'waveform.csv'}")
    return 0


def _cmd_hdl(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if cfg.hdl is None:
        raise ConfigError("hdl needs an hdl section in the config")
    artifact = generate_staircase(cfg.hdl) if args.staircase else generate_dac(cfg.hdl)
    out = _out_dir(args, cfg)
    name = cfg.hdl.module_name
    files = {
        f"{name}.v": artifact.rtl_text,
        f"{name}.pcf": artifact.constraints_text,
        f"{name}_manifest.json": manifest_text(artifact),
    }
    for fname, text in files.items():
        write_atomic(out / fname, text)
    write_run_record(out, "hdl", cfg.digest, list(files))
    print(f"wrote {', '.join(str(out / f) for f in files)}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


def _finite_float(text: str) -> float:
    """argparse type of the float flags: a number that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpiodac",
        description="GPIO-based FPGA DAC design toolkit",
    )
    parser.add_argument("--version", action="version", version=f"gpiodac {__version__}")
    subs = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p: argparse.ArgumentParser, config: bool = True, plot: bool = False) -> None:
        if config:
            p.add_argument("-c", "--config", required=True, help="JSON config file")
        p.add_argument("-o", "--output-dir", default=None,
                       help=f"output directory (overrides config and ${OUTPUT_DIR_ENV})")
        if plot:
            p.add_argument("--gnuplot", action="store_true",
                           help="also write a gnuplot script next to the CSV")

    sim = subs.add_parser("simulate", help="static transfer curve and linearity report")
    add_common(sim, plot=True)
    sim.set_defaults(func=_cmd_simulate)

    ext = subs.add_parser("extract", help="device parameters from a transfer-curve CSV")
    ext.add_argument("--curve", required=True, help="transfer.csv to read")
    ext.add_argument("--vdd", type=_finite_float, required=True,
                     help="supply voltage of the measurement")
    add_common(ext, config=False)
    ext.set_defaults(func=_cmd_extract)

    size = subs.add_parser("size", help="correction-resistor sizing")
    size.add_argument("mode", choices=("two-resistor", "four-resistor"))
    size.add_argument("--params", default=None, help="params.json from extract")
    size.add_argument("--vth", type=_finite_float, default=None, help="threshold voltage [V]")
    size.add_argument("--ron", type=_finite_float, default=None,
                      help="unit resistance at mid-scale [ohm]")
    size.add_argument("--vdd", type=_finite_float, default=None, help="supply voltage [V]")
    size.add_argument("--n-bits", type=int, default=4, help="resolution for two-resistor sizing")
    size.add_argument("--it", type=_finite_float, default=None, help="target total current [A]")
    size.add_argument("--split", type=_finite_float, default=1.0,
                      help="fraction of series resistance on the supply side")
    size.add_argument("--rs-total", type=_finite_float, default=None,
                      help="explicit series total [ohm] instead of the midpoint rule")
    add_common(size, config=False)
    size.set_defaults(func=_cmd_size)

    sweep = subs.add_parser("sweep", help="parallel-resistor trade-off sweep")
    add_common(sweep, plot=True)
    sweep.add_argument("--rp", required=True, help="comma-separated parallel resistances [ohm]")
    sweep.set_defaults(func=_cmd_sweep)

    trans = subs.add_parser("transient", help="code-sequence replay with pin skew")
    add_common(trans, plot=True)
    trans.add_argument("--codes", default=None,
                       help="comma-separated codes or 'staircase' (default from config)")
    trans.add_argument("--seed", type=int, default=None,
                       help="seed for random per-pin skew (switches skew mode to random)")
    trans.set_defaults(func=_cmd_transient)

    hdl = subs.add_parser("hdl", help="Verilog + PCF + manifest generation")
    add_common(hdl)
    hdl.add_argument("--staircase", action="store_true",
                     help="emit the free-running staircase module instead of the decode")
    hdl.set_defaults(func=_cmd_hdl)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"gpiodac: error: config: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"gpiodac: error: solver: {exc}", file=sys.stderr)
        return 3
    except (SizingError, ExtractionError) as exc:
        print(f"gpiodac: error: sizing: {exc}", file=sys.stderr)
        return 4
    except MetricsError as exc:
        print(f"gpiodac: error: metrics: {exc}", file=sys.stderr)
        return 4
    except GenerationError as exc:
        print(f"gpiodac: error: hdl: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"gpiodac: error: io: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
