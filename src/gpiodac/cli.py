"""Command-line front end and file I/O.

Subcommands: simulate, extract, size, sweep, transient, hdl. Experiments are
described by a JSON config file (schema below); -o overrides its output_dir.
Declared outputs are written atomically (temp file + rename) and are
byte-deterministic for a given config and tool version; the per-run record
(with its timestamp) lives in a separate run_record.json.

Exit codes: 0 ok, 2 config error, 4 sizing/extraction infeasible, 5 I/O
error.
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
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from . import __version__
# Only the config layer loads here: it parses the config and holds every error main reports.
# Each handler imports the layers it runs, so extract, size and hdl start without numpy.
from .config import (
    MAX_BITS,
    DacConfig,
    DevicePair,
    Encoding,
    FourResistor,
    HdlSpec,
    MetricsError,
    MosfetParams,
    ParallelAttach,
    SizingError,
    Standalone,
    TimingParams,
    TwoResistor,
    calibrated_pair,
    default_pin_assignments,
)

if TYPE_CHECKING:
    from .metrics import LinearityReport
    from .network import TransferCurve
    from .sizing import ExtractedParams, SizingResult

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "GPIODAC_OUTPUT_DIR"

# transfer.csv: (column, TransferCurve column it is written from), in file order.
_TRANSFER_KEYS = (
    ("code", "code"), ("vdac_v", "vdac"), ("vd_v", "vd"), ("vs_v", "vs"),
    ("itotal_a", "i_total"), ("i_pullup_a", "i_per_pullup"), ("i_pulldown_a", "i_per_pulldown"),
    ("region_p", "region_p"), ("region_n", "region_n"), ("kcl_residual_a", "kcl_residual"),
)
TRANSFER_COLUMNS = tuple(column for column, _ in _TRANSFER_KEYS)
WAVEFORM_COLUMNS = ("time_s", "volts")


class ConfigError(ValueError):
    """Bad config document; the message names the offending key."""


# ---------------------------------------------------------------------------
# Config parsing
#
# Every JSON input is checked against a section spec: key -> (kind, default).
# A kind is one of the names below, a tuple of allowed values, or an Enum
# class whose values are allowed (parsed to its member).

REQUIRED = object()  # the default of a key that must be given
NUMBER, INTEGER, TEXT = "a finite number", "an integer", "a string"
TEXTS, OBJECT, PAIR = "a list of strings", "an object", "a pair of finite numbers"


def _is_number(value: Any) -> bool:
    # JSON's NaN and Infinity literals, and integers too large for a float, are not numbers here:
    # NaN compares false, and an int compares with the largest float exactly.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max


_KINDS = {
    NUMBER: _is_number,
    INTEGER: lambda v: isinstance(v, int) and not isinstance(v, bool),
    TEXT: lambda v: isinstance(v, str),
    TEXTS: lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
    OBJECT: lambda v: isinstance(v, dict),
    PAIR: lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)),
}

_CONFIG = {
    "schema": ((SCHEMA_VERSION,), REQUIRED),
    "dac": (OBJECT, REQUIRED),
    "timing": (OBJECT, None),
    "hdl": (OBJECT, None),
    "output_dir": (TEXT, "out"),
}
_DAC = {
    "n_bits": (INTEGER, REQUIRED),
    "vdd": (NUMBER, REQUIRED),
    "encoding": (Encoding, Encoding.BINARY),
    "devices": (OBJECT, REQUIRED),
    "topology": (OBJECT, REQUIRED),
}
# dac.devices is the symmetric shorthand, or one explicit device per slot.
_SHORTHAND = {"vth": (NUMBER, REQUIRED), "ron_midrange": (NUMBER, REQUIRED)}
_SLOTS = {"pmos": (OBJECT, REQUIRED), "nmos": (OBJECT, REQUIRED)}
_DEVICE = {"vth": (NUMBER, REQUIRED), "k": (NUMBER, REQUIRED)}
# dac.topology.kind -> (class, its keys); report.json names the resistors with an _ohm suffix.
_OHMS = (NUMBER, REQUIRED)
_TOPOLOGIES = {
    "standalone": (Standalone, {}),
    "two_resistor": (TwoResistor, {"rpp": _OHMS, "rpn": _OHMS}),
    "four_resistor": (FourResistor, {
        "rsp": _OHMS, "rsn": _OHMS, "rpp": _OHMS, "rpn": _OHMS,
        "parallel_attach": (ParallelAttach, ParallelAttach.INNER_RAILS),
    }),
}
# Each timing key is a TimingParams field with its unit suffix.
_TIMING = {
    "t_rise_s": (NUMBER, 30e-9),
    "t_fall_s": (NUMBER, 30e-9),
    "skew_max_s": (NUMBER, 5e-9),
    "sample_period_s": (NUMBER, REQUIRED),
}
_HDL = {
    "module_name": (TEXT, REQUIRED),
    "clock_hz": (INTEGER, REQUIRED),
    "staircase_step_cycles": (INTEGER, 1),
    "pin_assignments": (TEXTS, None),
    "clock_pin": (TEXT, "CLK"),
}
# params.json, as extract writes it and size --params reads it: each
# ExtractedParams field with its unit suffix, plus the run record.
_PARAM_FIELDS = {
    "vth_v": (NUMBER, REQUIRED),
    "ron_ohm": (NUMBER, REQUIRED),
    "vdd_v": (NUMBER, REQUIRED),
    "linear_range_v": (PAIR, REQUIRED),
}
_PARAMS = {"schema": ((SCHEMA_VERSION,), SCHEMA_VERSION), "run": (OBJECT, None), **_PARAM_FIELDS}


def _field(key: str) -> str:
    """The attribute a JSON key names: the key without its unit suffix (vth_v -> vth)."""
    return key.rpartition("_")[0]


def _check(value: Any, key: str, kind: Any) -> Any:
    """value as kind parses it (numbers to float); a ConfigError naming key if it is not of kind."""
    if isinstance(kind, str):
        ok, want = _KINDS[kind](value), kind
    else:
        allowed = [getattr(a, "value", a) for a in kind]
        ok = any(value == a and type(value) is type(a) for a in allowed)
        want = " or ".join(map(repr, allowed))
    if not ok:
        raise ConfigError(f"{key} must be {want}, got {value!r}")
    if kind == NUMBER:
        return float(value)
    if kind == PAIR:
        return tuple(map(float, value))
    return kind(value) if isinstance(kind, type) else value


def _section(obj: Any, where: str, spec: dict) -> dict:
    """The values of an object checked against spec, with defaults for the keys it lacks."""
    _check(obj, where, OBJECT)
    for key in obj:
        if key not in spec:
            raise ConfigError(f"unknown key {where}.{key}")
    values = {}
    for key, (kind, default) in spec.items():
        if key in obj:
            values[key] = _check(obj[key], f"{where}.{key}", kind)
        elif default is REQUIRED:
            raise ConfigError(f"missing key {where}.{key}")
        else:
            values[key] = default
    return values


def _build(where: str, ctor: Any, *args: Any, **kwargs: Any) -> Any:
    """ctor(*args, **kwargs), its ValueError for bad values a ConfigError naming the section."""
    try:
        return ctor(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read_json(path: str | Path, what: str) -> Any:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _parse_devices(obj: dict, where: str, vdd: float) -> DevicePair:
    if "pmos" not in obj and "nmos" not in obj:
        values = _section(obj, where, _SHORTHAND)
        return _build(where, calibrated_pair, vdd, values["vth"], values["ron_midrange"])
    slots = _section(obj, where, _SLOTS)
    devices = {}
    for name in _SLOTS:
        slot = f"{where}.{name}"
        values = _section(slots[name], slot, _DEVICE)
        devices[name] = _build(slot, MosfetParams, values["vth"], values["k"])
    return DevicePair(**devices)


def _parse_topology(obj: dict, where: str):
    kind = _check(obj.get("kind"), f"{where}.kind", tuple(_TOPOLOGIES))
    cls, spec = _TOPOLOGIES[kind]
    values = _section(obj, where, {"kind": (TEXT, REQUIRED), **spec})
    del values["kind"]
    return _build(where, cls, **values)


def _parse_dac(obj: Any) -> DacConfig:
    values = _section(obj, "dac", _DAC)
    values["devices"] = _parse_devices(values["devices"], "dac.devices", values["vdd"])
    values["topology"] = _parse_topology(values["topology"], "dac.topology")
    return _build("dac", DacConfig, **values)


def _parse_hdl(obj: Any, dac: DacConfig) -> HdlSpec:
    values = _section(obj, "hdl", _HDL)
    pins = values["pin_assignments"]
    values["pin_assignments"] = (
        default_pin_assignments(dac.n_bits) if pins is None else tuple(pins)
    )
    return _build("hdl", HdlSpec, n_bits=dac.n_bits, encoding=dac.encoding, **values)


@dataclass(frozen=True)
class ProjectConfig:
    dac: DacConfig
    timing: TimingParams | None
    hdl: HdlSpec | None
    output_dir: str
    digest: str


def load_config(path: str | Path) -> ProjectConfig:
    doc = _read_json(path, "config")
    top = _section(doc, "config", _CONFIG)
    dac = _parse_dac(top["dac"])
    timing = None
    if top["timing"] is not None:
        values = _section(top["timing"], "timing", _TIMING)
        timing = _build("timing", TimingParams, **{_field(k): v for k, v in values.items()})
    hdl = None if top["hdl"] is None else _parse_hdl(top["hdl"], dac)
    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return ProjectConfig(
        dac=dac,
        timing=timing,
        hdl=hdl,
        output_dir=top["output_dir"],
        digest=digest,
    )


# ---------------------------------------------------------------------------
# Output writers


def write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # A fresh name next to path; created 0666, the kernel takes the umask off as open() would.
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def csv_text(columns: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format(v, ".12g") if isinstance(v, float) else v for v in row])
    return buf.getvalue()


class _Unhandled(Exception):
    """A value _json_lines leaves to the stdlib encoder."""


def json_text(doc: Any) -> str:
    """json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + newline, byte for byte.

    With an indent, json.dumps runs its pure-Python encoder; _json_lines lays
    out the same text and formats with the C encoder instead. A document it
    does not handle (a non-str key, an unknown type, a cycle, a non-finite
    float) goes to the stdlib as a whole, which encodes it or raises as
    json.dumps does.
    """
    try:
        return _json_lines(doc, "\n") + "\n"
    except (_Unhandled, ValueError, RecursionError):
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _json_lines(value: Any, newline: str) -> str:
    """value as json_text lays it out, nested under newline (a newline and its indent)."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        if {*map(type, value)} == {float}:
            # One C-encoder call; its ", " separators are exact, since no float repr holds one.
            body = json.dumps(value, allow_nan=False)[1:-1].replace(", ", "," + inner)
        else:
            body = ("," + inner).join([_json_lines(v, inner) for v in value])
        return "[" + inner + body + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(key, str) for key in value):
            raise _Unhandled
        inner = newline + "  "
        items = [json.dumps(key) + ": " + _json_lines(value[key], inner) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if value is None or isinstance(value, (str, int, float)):
        return json.dumps(value, allow_nan=False)
    raise _Unhandled


def transfer_csv(curve: TransferCurve) -> str:
    """The curve as CSV text as csv_text formats it, by one % template."""
    columns = curve.columns
    template, values = [], []
    for _, name in _TRANSFER_KEYS:
        column = columns[name]
        if name.startswith("region_"):
            template.append("%s")
            values.append(map(attrgetter("_value_"), column.tolist()))  # Enum's .value, in C
        else:
            template.append("%d" if name == "code" else "%.12g")
            values.append(column.tolist())
    row = ",".join(template) + "\n"
    return ",".join(TRANSFER_COLUMNS) + "\n" + "".join(map(row.__mod__, zip(*values)))


# report.json's report and sizing blocks: (JSON key, attribute) of the
# LinearityReport and SizingResult each is read from.
_REPORT_KEYS = (
    ("dnl_lsb", "dnl"), ("inl_lsb", "inl"), ("dnl_max_abs_lsb", "dnl_max_abs"),
    ("inl_max_abs_lsb", "inl_max_abs"), ("dynamic_range_v", "dynamic_range"),
    ("monotonic", "monotonic"), ("i_max_a", "i_max"), ("i_at_midrange_a", "i_at_midrange"),
    ("lsb_ref_v", "lsb_ref"), ("inl_reference", "inl_reference"),
)
_SIZING_KEYS = (
    ("alpha_g", "alpha_g"), ("it_bounds_a", "it_bounds"), ("rs_bounds_ohm", "rs_bounds"),
    ("predicted_dynamic_range_v", "predicted_dynamic_range"),
    ("strong_inversion_ok", "strong_inversion_ok"), ("notes", "notes"),
)


def report_doc(
    report: LinearityReport | None,
    sizing: SizingResult | None,
    digest: str,
    command: str,
) -> dict:
    doc: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "run": _run(command, digest),
        "report": None,
        "sizing": None,
    }
    if report is not None:
        doc["report"] = {key: getattr(report, attr) for key, attr in _REPORT_KEYS}
    if sizing is not None:
        topo = sizing.topology
        kind = next(k for k, (cls, _) in _TOPOLOGIES.items() if type(topo) is cls)
        ohms = [key for key, spec in _TOPOLOGIES[kind][1].items() if spec == _OHMS]
        doc["sizing"] = {
            "topology": {"kind": kind, **{f"{key}_ohm": getattr(topo, key) for key in ohms}},
            **{key: getattr(sizing, attr) for key, attr in _SIZING_KEYS},
        }
    return doc


def _run(command: str, digest: str) -> dict:
    return {"command": command, "config_digest": digest, "tool_version": __version__}


_GNUPLOT_HEAD = "set datafile separator ','\nset key autotitle columnhead\n"
GNUPLOT_SCRIPTS = {
    "transfer.csv": _GNUPLOT_HEAD + (
        "set xlabel 'code'\n"
        "set ylabel 'V'\n"
        "set y2label 'A'\n"
        "set y2tics\n"
        "plot 'transfer.csv' using 1:2 with steps title 'vdac [V]', \\\n"
        "     'transfer.csv' using 1:5 axes x1y2 with linespoints title 'i_total [A]'\n"
    ),
    "waveform.csv": _GNUPLOT_HEAD + (
        "set xlabel 'time [s]'\n"
        "set ylabel 'V'\n"
        "plot 'waveform.csv' using 1:2 with steps title 'vdac'\n"
    ),
    "sweep.csv": _GNUPLOT_HEAD + (
        "set xlabel 'rp [ohm]'\n"
        "plot 'sweep.csv' using 1:3 with linespoints title 'DNL max [LSB]', \\\n"
        "     'sweep.csv' using 1:4 with linespoints title 'INL max [LSB]', \\\n"
        "     'sweep.csv' using 1:5 with linespoints title 'DR [V]', \\\n"
        "     'sweep.csv' using 1:6 with linespoints title 'i_max [A]'\n"
    ),
}


def _write_outputs(args: argparse.Namespace, out: Path, digest: str, files: dict[str, str]) -> None:
    """Each declared file, then the plot script of its CSV if --gnuplot asks, then the run record."""
    if getattr(args, "gnuplot", False):
        plots = {name.replace(".csv", ".gp"): GNUPLOT_SCRIPTS[name]
                 for name in files if name in GNUPLOT_SCRIPTS}
        files = {**files, **plots}
    for name, text in files.items():
        write_atomic(out / name, text)
    record = {
        **_run(args.cmd, digest),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": sorted(files),
    }
    write_atomic(out / "run_record.json", json_text(record))


# ---------------------------------------------------------------------------
# Subcommands
#
# Each handler takes the parsed flags and the loaded config (None for extract
# and size) and returns the digest of its inputs and its declared files,
# name -> text; main writes them.


def _cmd_simulate(args: argparse.Namespace, cfg: ProjectConfig) -> tuple[str, dict[str, str]]:
    from .metrics import summary  # each handler imports the layers it runs
    from .network import transfer_curve

    curve = transfer_curve(cfg.dac)
    report = report_doc(summary(curve), None, cfg.digest, "simulate")
    return cfg.digest, {"transfer.csv": transfer_csv(curve), "report.json": json_text(report)}


def _cmd_extract(args: argparse.Namespace, cfg: None) -> tuple[str, dict[str, str]]:
    from .sizing import extract_from_table  # as in simulate

    path = Path(args.curve)
    read = ("code", "vdac_v", "i_pullup_a", "region_p", "region_n")  # all extraction needs
    try:
        with path.open(newline="") as handle:
            reader = csv.DictReader(handle)
            missing = [c for c in read if c not in (reader.fieldnames or [])]
            if missing:
                raise ConfigError(f"curve CSV {path} lacks columns: {', '.join(missing)}")
            rows = list(reader)
    except OSError as exc:
        raise ConfigError(f"cannot read curve {path}: {exc}") from exc
    if not rows:
        raise SizingError("curve CSV has no rows")
    params = extract_from_table(
        codes=_curve_cells(path, rows, "code", _integer_text),
        vdac=_curve_cells(path, rows, "vdac_v", _finite_float),
        i_per_pullup=_curve_cells(path, rows, "i_pullup_a", _finite_float),
        region_p=[r["region_p"] for r in rows],
        region_n=[r["region_n"] for r in rows],
        vdd=args.vdd,
    )
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    doc = {
        "schema": SCHEMA_VERSION,
        **{key: getattr(params, _field(key)) for key in _PARAM_FIELDS},
        "run": _run("extract", digest),
    }
    return digest, {"params.json": json_text(doc)}


def _curve_cells(path: Path, rows: list[dict], column: str, parse: Any) -> list:
    """One column of a curve CSV parsed cell by cell; a bad cell is a ConfigError naming it."""
    values = []
    for row, cells in enumerate(rows, start=2):  # row 1 is the header
        try:
            values.append(parse(cells[column]))
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"curve {path} row {row}, column {column}: {exc}") from exc
    return values


def _load_extracted(args: argparse.Namespace) -> ExtractedParams:
    from .sizing import ExtractedParams  # as in simulate

    if args.params:
        for flag in ("vth", "vdd", "ron"):
            if getattr(args, flag) is not None:
                raise ConfigError(f"--params and --{flag} cannot be combined")
        values = _section(_read_json(args.params, "params"), "params", _PARAMS)
        return ExtractedParams(**{_field(key): values[key] for key in _PARAM_FIELDS})
    if args.vth is None or args.vdd is None:
        raise ConfigError("either --params or both --vth and --vdd are required")
    ron = args.ron if args.ron is not None else 1.0
    return ExtractedParams(
        vth=args.vth, ron=ron, vdd=args.vdd, linear_range=(args.vth, args.vdd - args.vth)
    )


def _cmd_size(args: argparse.Namespace, cfg: None) -> tuple[str, dict[str, str]]:
    from .sizing import size_four_resistor, size_two_resistor  # as in simulate

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
    knobs = {key: getattr(params, key) for key in ("vth", "ron", "vdd")}
    knobs.update({key: getattr(args, key) for key in ("mode", "n_bits", "it", "split", "rs_total")})
    digest = hashlib.sha256(json.dumps(knobs, sort_keys=True).encode()).hexdigest()
    return digest, {"report.json": json_text(report_doc(None, result, digest, "size"))}


def _cmd_sweep(args: argparse.Namespace, cfg: ProjectConfig) -> tuple[str, dict[str, str]]:
    from .explorer import SWEEP_COLUMNS, sweep_parallel, sweep_rows  # as in simulate

    try:
        rp_values = [_finite_float(tok) for tok in args.rp.split(",") if tok.strip()]
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"argument --rp: {exc}") from exc
    if not rp_values:
        raise ConfigError("--rp list is empty")
    try:
        points = sweep_parallel(cfg.dac, rp_values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg.digest, {"sweep.csv": csv_text(SWEEP_COLUMNS, sweep_rows(points))}


def _cmd_transient(args: argparse.Namespace, cfg: ProjectConfig) -> tuple[str, dict[str, str]]:
    from .transient import parse_code_list, synthesize  # as in simulate

    if cfg.timing is None:
        raise ConfigError("transient needs a timing section in the config")
    skew_mode = "deterministic" if args.seed is None else "random"  # the seed picks random skew
    try:
        codes = parse_code_list(args.codes, cfg.dac.n_bits)
        wave = synthesize(cfg.dac, codes, cfg.timing, skew_mode=skew_mode, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg.digest, {"waveform.csv": csv_text(WAVEFORM_COLUMNS, zip(wave.times, wave.values))}


def _cmd_hdl(args: argparse.Namespace, cfg: ProjectConfig) -> tuple[str, dict[str, str]]:
    from .hdlgen import generate_dac, generate_staircase  # as in simulate

    if cfg.hdl is None:
        raise ConfigError("hdl needs an hdl section in the config")
    artifact = generate_staircase(cfg.hdl) if args.staircase else generate_dac(cfg.hdl)
    name = cfg.hdl.module_name
    return cfg.digest, {
        f"{name}.v": artifact.rtl_text,
        f"{name}.pcf": artifact.constraints_text,
        f"{name}_manifest.json": json_text(artifact.manifest),
    }


# ---------------------------------------------------------------------------
# Entry point


def _text_type(parse: Any, ok: Any, want: str) -> Any:
    """An argparse type: parse(text), refused as 'must be <want>' unless ok(value)."""

    def convert(text: str) -> Any:
        try:
            value = parse(text)
            if ok(value):
                return value
        except (TypeError, ValueError):
            pass
        raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")

    return convert


_finite_float = _text_type(float, math.isfinite, "a finite number")
_integer_text = _text_type(int, lambda n: True, "an integer")
_n_bits = _text_type(int, lambda n: 1 <= n <= MAX_BITS, f"an integer in 1..{MAX_BITS}")
_seed = _text_type(int, lambda n: n >= 0, "a non-negative integer")


# name -> (handler, help, reads a config, has --gnuplot), in the order gpiodac -h lists them.
_COMMANDS = {
    "simulate": (_cmd_simulate, "static transfer curve and linearity report", True, True),
    "extract": (_cmd_extract, "device parameters from a transfer-curve CSV", False, False),
    "size": (_cmd_size, "correction-resistor sizing", False, False),
    "sweep": (_cmd_sweep, "parallel-resistor trade-off sweep", True, True),
    "transient": (_cmd_transient, "code-sequence replay with pin skew", True, True),
    "hdl": (_cmd_hdl, "Verilog + PCF + manifest generation", True, False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpiodac", description="GPIO-based FPGA DAC design toolkit")
    parser.add_argument("--version", action="version", version=f"gpiodac {__version__}")
    subs = parser.add_subparsers(dest="cmd", required=True)
    cmd = {name: subs.add_parser(name, help=row[1]) for name, row in _COMMANDS.items()}

    # Usage lines show flags as added: extract's and size's own come before the shared ones.
    cmd["extract"].add_argument("--curve", required=True, help="transfer.csv to read")
    cmd["extract"].add_argument("--vdd", type=_finite_float, required=True,
                                help="supply voltage of the measurement")
    # Each size mode takes only the flags it reads. The size digest also names the other
    # mode's knobs, at the defaults set here.
    modes = cmd["size"].add_subparsers(dest="mode", required=True)
    two, four = sizes = [modes.add_parser(mode) for mode in ("two-resistor", "four-resistor")]
    for size in sizes:
        size.add_argument("--params", help="params.json from extract")
        size.add_argument("--vth", type=_finite_float, help="threshold voltage [V]")
        size.add_argument("--vdd", type=_finite_float, help="supply voltage [V]")
    two.add_argument("--ron", type=_finite_float, help="unit resistance at mid-scale [ohm]")
    two.add_argument("--n-bits", type=_n_bits, default=4, help="resolution of the DAC")
    two.set_defaults(it=None, split=1.0, rs_total=None)
    four.add_argument("--it", type=_finite_float, help="target total current [A]")
    four.add_argument("--split", type=_finite_float, default=1.0,
                      help="fraction of series resistance on the supply side")
    four.add_argument("--rs-total", type=_finite_float,
                      help="explicit series total [ohm] instead of the midpoint rule")
    four.set_defaults(ron=None, n_bits=4)

    for name, (_, _, reads_config, plot) in _COMMANDS.items():
        for leaf in sizes if name == "size" else [cmd[name]]:
            leaf.set_defaults(parser=leaf)  # main reports a flag it does not take with its usage
            if reads_config:
                leaf.add_argument("-c", "--config", required=True, help="JSON config file")
            leaf.add_argument("-o", "--output-dir", default=None,
                              help=f"output directory (overrides config and ${OUTPUT_DIR_ENV})")
            if plot:
                leaf.add_argument("--gnuplot", action="store_true",
                                  help="also write a gnuplot script next to the CSV")

    cmd["sweep"].add_argument("--rp", required=True, help="comma-separated parallel resistances [ohm]")
    trans = cmd["transient"]
    trans.add_argument("--codes", default="staircase",
                       help="comma-separated codes or 'staircase' (default: staircase)")
    trans.add_argument("--seed", type=_seed, default=None,
                       help="seed for random per-pin skew (default: deterministic skew)")
    cmd["hdl"].add_argument("--staircase", action="store_true",
                            help="emit the free-running staircase module instead of the decode")
    return parser


# (exception type, stderr label, exit status); the first that matches wins.
_FAILURES = (
    (ConfigError, "config", 2),
    (SizingError, "sizing", 4),
    (MetricsError, "metrics", 4),
    (OSError, "io", 5),
)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand: load its config, run its handler, write its files and a run record."""
    args, extras = build_parser().parse_known_args(argv)
    if extras:
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    handler, _, reads_config, _ = _COMMANDS[args.cmd]
    try:
        cfg = load_config(args.config) if reads_config else None
        digest, files = handler(args, cfg)
        config_dir = cfg.output_dir if cfg else "out"
        out = Path(args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or config_dir)
        _write_outputs(args, out, digest, files)
    except tuple(kind for kind, _, _ in _FAILURES) as exc:
        label, status = next((l, s) for kind, l, s in _FAILURES if isinstance(exc, kind))
        print(f"gpiodac: error: {label}: {exc}", file=sys.stderr)
        return status
    print("wrote " + ", ".join(str(out / name) for name in files))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
