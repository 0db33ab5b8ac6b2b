"""The three benchmark workloads: inputs from a seed, one timed pass, correctness checks.

Every workload calls gpiodac's public functions only. A workload object has:

* ``build(seed, workdir)``: the inputs, a pure function of the seed;
* ``run_pass(inputs, pass_no, tracer)``: one pass of the timed body,
  returning a ``PassResult`` (one ``Op`` per operation, timed by a ``Clock``,
  units of work, outputs to check); ``tracer`` is None in an untraced pass;
* ``check(inputs, outputs, oracle)``: the correctness gate, run outside the
  timed region, returning ``{op index: reason}`` for every operation whose
  output is wrong;
* ``digest(inputs, outputs)``: one comparable value per operation, so later
  passes can be held to the first pass's outputs.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import gpiodac
from gpiodac import cli, explorer
from hostref import REF_LOOP_S, reference_s
from tracing import merge_spans

VDD = 3.3
# Agreement with the nested-bisection oracle, as in the acceptance suite.
ORACLE_TOL_V = 1e-6
# complement_check on a mirror-symmetric config is solver noise (~1e-15 V).
COMPLEMENT_TOL_V = 1e-9


@dataclass
class Op:
    kind: str
    latency_s: float
    error: str | None = None  # why it failed: exception name, exit code, ...
    infeasible: int = 0  # outcomes the tool reported as infeasible; not failures
    detail: str = ""
    ref_s: float = REF_LOOP_S  # mean host-speed reference before and after it


@dataclass
class PassResult:
    ops: list[Op]
    units: int
    outputs: object = None
    extra: dict = field(default_factory=dict)


class Workload:
    name = ""
    unit = ""
    min_passes = 1  # least passes per run; op_tail_ms pools their op latencies


class Clock:
    """Times a pass's operations, each between two timings of the host-speed reference.

    The reference timed after one operation is also the one before the next.
    """

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self._ref = reference_s()

    def time(self, kind: str, fn):
        """Run one operation, append its Op; return its result or None if it raised."""
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - any raise on legal input is a failed op
            op = Op(kind, time.perf_counter() - start, type(exc).__name__,
                    detail=traceback.format_exc(limit=3))
            result = None
        else:
            op = Op(kind, time.perf_counter() - start)
        ref = reference_s()
        op.ref_s, self._ref = (self._ref + ref) / 2, ref
        self.ops.append(op)
        return result


def _jittered_pair(rng: np.random.Generator):
    """The calibrated device with vth in [1.05, 1.25] V and ron in [30, 50] ohm."""
    return gpiodac.calibrated_pair(
        VDD, float(rng.uniform(1.05, 1.25)), float(rng.uniform(30.0, 50.0))
    )


def _oracle_mismatch(oracle, config, code: int, got: tuple[float, ...], tol: float) -> str | None:
    want = oracle.oracle_solve(config, code)
    gap = max(abs(a - b) for a, b in zip(got, want))
    if gap > tol:
        return f"code {code}: solver {got} vs oracle {want} (gap {gap:.3e} V)"
    return None


def _range_error(levels, vdd: float) -> str | None:
    levels = np.asarray(levels)
    if levels.min() < 0.0 or levels.max() > vdd:
        return f"vdac outside [0, {vdd}]: min {levels.min()!r}, max {levels.max()!r}"
    return None


# ---------------------------------------------------------------------------
# flow-12b: the README design flow at 12 bits


@dataclass(frozen=True)
class FlowInputs:
    standalone: gpiodac.DacConfig
    sweep_bits: int
    rp_values: tuple[float, ...]
    it_target: float
    out_dir: Path


class Flow12b(Workload):
    """Unit of work: operating points. Op: one step of the flow.

    ``sweep_parallel`` is one call, so the sweep is one operation: a latency
    per sweep point cannot be observed from outside the package.
    """

    name = "flow-12b"
    unit = "operating_points"
    min_passes = 3  # 21 op latencies for op_tail_ms
    OPS = ("curve_standalone", "extract_and_size", "curve_two_resistor", "curve_four_resistor",
           "saturation_window", "sweep_parallel", "write_outputs")

    def build(self, seed: int, workdir: Path) -> FlowInputs:
        rng = np.random.default_rng([seed, 1])
        base = gpiodac.DacConfig(n_bits=12, vdd=VDD, devices=_jittered_pair(rng))
        return FlowInputs(base, 10, (5.0, 6.0, 7.0, 8.0, 9.0, 10.0), 0.2, workdir / "flow")

    def run_pass(self, inp: FlowInputs, index: int, tracer) -> PassResult:
        clock = Clock()
        out: dict = {}
        base = inp.standalone

        def extract_and_size():
            params = gpiodac.extract_parameters(out["c0"])
            return (gpiodac.size_two_resistor(params, base.d_max),
                    gpiodac.size_four_resistor(params, it_target=inp.it_target))

        def curve_and_summary(config):
            curve = gpiodac.transfer_curve(config)
            return curve, gpiodac.summary(curve)

        def cfg(sized: int):
            return replace(base, topology=out["sized"][sized].topology)

        def write_outputs() -> Path:
            target = inp.out_dir / f"pass{index}"
            curve4, report4 = out["c4"]
            cli.write_atomic(target / "transfer.csv", cli.transfer_csv(curve4))
            cli.write_atomic(
                target / "report.json",
                cli.json_text(cli.report_doc(report4, out["sized"][1], self.name, "simulate")),
            )
            cli.write_atomic(
                target / "sweep.csv",
                cli.csv_text(explorer.SWEEP_COLUMNS, explorer.sweep_rows(out["points"])),
            )
            return target

        steps = {
            "c0": lambda: gpiodac.transfer_curve(base),
            "sized": extract_and_size,
            "c2": lambda: curve_and_summary(cfg(0)),
            "c4": lambda: curve_and_summary(cfg(1)),
            "flags": lambda: gpiodac.check_saturation_window(cfg(1)),
            "points": lambda: gpiodac.sweep_parallel(replace(cfg(1), n_bits=inp.sweep_bits),
                                                     inp.rp_values),
            "files": write_outputs,
        }
        for kind, (key, fn) in zip(self.OPS, steps.items()):
            if out.get("broken"):
                clock.ops.append(Op(kind, 0.0, "Skipped", detail="an earlier step failed"))
                continue
            if tracer is not None:
                tracer.op = len(clock.ops)
            out[key] = clock.time(kind, fn)
            out["broken"] = clock.ops[-1].error is not None
        if not out["broken"]:
            statuses = [p.status for p in out["points"]]
            sweep = clock.ops[self.OPS.index("sweep_parallel")]
            sweep.infeasible = sum("zero full-scale span" in s for s in statuses)
            if len(statuses) - sweep.infeasible - statuses.count("ok"):
                sweep.error = "SweepPointError"
            sweep.detail = "; ".join(statuses)
        units = 4 * (base.d_max + 1) + (len(inp.rp_values) << inp.sweep_bits)
        return PassResult(clock.ops, units, out)

    def check(self, inp: FlowInputs, out: dict, oracle) -> dict[int, str]:
        bad: dict[int, str] = {}
        if out.get("broken"):
            return bad  # the failed steps are already failed operations
        base = inp.standalone
        codes = sorted({round(x) for x in np.linspace(0, base.d_max, 33)})
        curves = {0: out["c0"], 2: out["c2"][0], 3: out["c4"][0]}
        for op, curve in curves.items():
            reason = _range_error(curve.vdac, VDD)
            for code in codes:
                if reason:
                    break
                row = curve.rows[code]
                reason = _oracle_mismatch(
                    oracle, curve.config, code, (row.vdac, row.vd, row.vs), ORACLE_TOL_V
                )
            if reason is None and op in (0, 2):  # standalone and rpp == rpn are symmetric
                gap = gpiodac.complement_check(curve)
                if gap > COMPLEMENT_TOL_V:
                    reason = f"complement_check {gap:.3e} V on a symmetric config"
            if reason:
                bad[op] = reason
        # The window flags must follow from the four-resistor curve's own rows.
        curve4 = out["c4"][0]
        vth_p, vth_n = base.devices.pmos.vth, base.devices.nmos.vth
        want = [
            (r.vd - r.vs >= max(vth_n, vth_p)) and r.vdac >= r.vd - vth_n and r.vdac <= r.vs + vth_p
            for r in curve4.rows
        ]
        if list(out["flags"]) != want:
            bad[4] = "saturation flags disagree with the four-resistor curve"
        for point in out["points"]:
            if point.report is not None and not math.isfinite(point.report.inl_max_abs):
                bad[5] = f"sweep point rp={point.rp}: non-finite INL"
        lines = (out["files"] / "transfer.csv").read_text().count("\n")
        if lines != base.d_max + 2:
            bad[6] = f"transfer.csv has {lines} lines, expected {base.d_max + 2}"
        return bad

    def digest(self, inp: FlowInputs, out: dict) -> list:
        if out.get("broken"):
            return [None] * len(self.OPS)
        return [
            out["c0"].vdac.tobytes(),
            out["sized"],
            out["c2"][0].vdac.tobytes(),
            out["c4"][0].vdac.tobytes(),
            tuple(out["flags"]),
            tuple((p.status, p.report) for p in out["points"]),
            tuple((out["files"] / name).read_bytes()
                  for name in ("transfer.csv", "report.json", "sweep.csv")),
        ]


# ---------------------------------------------------------------------------
# transient-11b: staircase replay with pin skew


@dataclass(frozen=True)
class TransientInputs:
    replays: tuple[tuple[str, gpiodac.DacConfig, str, int | None], ...]
    codes: tuple[int, ...]
    timing: gpiodac.TimingParams


class Transient11b(Workload):
    """Unit of work: waveform events. Op: one replay (synthesize + detect_glitches)."""

    name = "transient-11b"
    unit = "waveform_events"
    min_passes = 3
    BAND_LSB = 0.5
    N_BITS = 11

    def build(self, seed: int, workdir: Path) -> TransientInputs:
        rng = np.random.default_rng([seed, 3])
        pair = _jittered_pair(rng)
        replays = []
        for encoding in (gpiodac.Encoding.BINARY, gpiodac.Encoding.THERMOMETER):
            config = gpiodac.DacConfig(self.N_BITS, VDD, pair, encoding=encoding)
            replays.append((f"{encoding.value}_deterministic", config, "deterministic", None))
            replays.append((f"{encoding.value}_random", config, "random", int(rng.integers(1, 2**31))))
        timing = gpiodac.TimingParams(t_rise=30e-9, t_fall=30e-9, skew_max=5e-9, sample_period=50e-9)
        return TransientInputs(tuple(replays), tuple(gpiodac.staircase_codes(self.N_BITS)), timing)

    def run_pass(self, inp: TransientInputs, index: int, tracer) -> PassResult:
        clock = Clock()
        results = []
        for k, (kind, config, mode, seed) in enumerate(inp.replays):
            if tracer is not None:
                tracer.op = k

            def replay():
                wave = gpiodac.synthesize(config, inp.codes, inp.timing, skew_mode=mode, seed=seed)
                return wave, gpiodac.detect_glitches(wave, self.BAND_LSB)

            results.append(clock.time(kind, replay))
        units = sum(len(r[0].times) - 1 for r in results if r is not None)
        return PassResult(clock.ops, units, results)

    def check(self, inp: TransientInputs, results, oracle) -> dict[int, str]:
        bad: dict[int, str] = {}
        period = inp.timing.sample_period
        carry = 1 << (self.N_BITS - 1)
        sample_codes = list(range(0, len(inp.codes), 128)) + [len(inp.codes) - 1]
        for k, ((_, config, mode, _), result) in enumerate(zip(inp.replays, results)):
            if result is None:
                continue
            wave, glitches = result
            reason = _range_error(wave.values, VDD)
            times = wave.times
            for step in sample_codes if reason is None else ():
                last = step + 1 == len(inp.codes)
                end = len(times) if last else bisect.bisect_left(times, (step + 1) * period)
                settled = wave.values[end - 1]
                want = oracle.oracle_solve(config, inp.codes[step])[0]
                if abs(settled - want) > ORACLE_TOL_V:
                    reason = f"settled level of code {inp.codes[step]}: {settled} vs oracle {want}"
                    break
            t0, t1 = carry * period, (carry + 1) * period
            at_carry = [g for g in glitches if t0 <= g[0] < t1 and g[1] > 1.0]
            if reason is None and config.encoding is gpiodac.Encoding.THERMOMETER and glitches:
                reason = f"thermometer decoding glitched {len(glitches)} times"
            if reason is None and config.encoding is gpiodac.Encoding.BINARY:
                if not at_carry:
                    reason = "binary decoding shows no excursion above 1 LSB at the major carry"
                elif mode == "deterministic":
                    lo, hi = bisect.bisect_left(times, t0), bisect.bisect_left(times, t1)
                    floor = min(wave.values[lo - 1], wave.values[hi - 1])
                    if min(wave.values[lo:hi]) >= floor - wave.lsb_ref:
                        reason = "binary decoding shows no dip below 1 LSB at the major carry"
            if reason:
                bad[k] = reason
        return bad

    def digest(self, inp: TransientInputs, results) -> list:
        return [None if r is None else (r[0].times, r[0].values, tuple(r[1])) for r in results]


# ---------------------------------------------------------------------------
# cli-4b: every README subcommand as a fresh process

REFERENCE_CONFIG = {
    "schema": 1,
    "output_dir": "out",
    "dac": {
        "n_bits": 4,
        "vdd": VDD,
        "encoding": "binary",
        "devices": {"vth": 1.15, "ron_midrange": 40.0},
        "topology": {"kind": "standalone"},
    },
    "timing": {"t_rise_s": 3e-8, "t_fall_s": 3e-8, "skew_max_s": 5e-9, "sample_period_s": 5e-8},
    "hdl": {
        "module_name": "dac4_binary",
        "clock_hz": 100_000_000,
        "staircase_step_cycles": 50_000,
        "pin_assignments": [f"A{j + 1}" for j in range(15)],
        "clock_pin": "J3",
    },
}
SWEEP_TOPOLOGY = {"kind": "four_resistor", "rsp": 10.0, "rsn": 0.0, "rpp": 5.0, "rpn": 5.0}
# Declared outputs whose bytes equal the repository's golden files.
GOLDEN_OUTPUTS = {
    ("hdl", "dac4_binary.v"): "dac4_binary.v",
    ("hdl", "dac4_binary.pcf"): "dac4_binary.pcf",
    ("hdl", "dac4_binary_manifest.json"): "dac4_binary_manifest.json",
    ("hdl_staircase", "stair4.v"): "stair4.v",
}


@dataclass(frozen=True)
class CliInputs:
    root: Path
    workdir: Path
    commands: tuple[tuple[str, tuple[str, ...]], ...]


class Cli4b(Workload):
    """Unit of work: commands. Op: one subcommand in a fresh interpreter."""

    name = "cli-4b"
    unit = "commands"
    min_passes = 8
    TRACE_LAUNCHER = Path(__file__).resolve().parent / "trace_cli.py"

    def build(self, seed: int, workdir: Path) -> CliInputs:
        rng = np.random.default_rng([seed, 4])
        workdir.mkdir(parents=True, exist_ok=True)
        ref = REFERENCE_CONFIG
        docs = {
            "config.json": ref,
            "config_sweep.json": {**ref, "dac": {**ref["dac"], "topology": SWEEP_TOPOLOGY}},
            "config_stair.json": {**ref, "hdl": {**ref["hdl"], "module_name": "stair4"}},
        }
        for name, doc in docs.items():
            (workdir / name).write_text(cli.json_text(doc))
        cfg = str(workdir / "config.json")
        commands = (
            ("simulate", ("simulate", "-c", cfg, "-o", "{out}/simulate")),
            ("extract", ("extract", "--curve", "{out}/simulate/transfer.csv", "--vdd", "3.3",
                         "-o", "{out}/extract")),
            ("size_two_resistor", ("size", "two-resistor", "--params", "{out}/extract/params.json",
                                   "--n-bits", "4", "-o", "{out}/size_two_resistor")),
            ("size_four_resistor", ("size", "four-resistor", "--vth", "1.15", "--vdd", "3.3",
                                    "--it", "0.2", "--split", "1.0", "-o", "{out}/size_four_resistor")),
            ("sweep", ("sweep", "-c", str(workdir / "config_sweep.json"), "--rp", "5,6,7,8,9,10",
                       "-o", "{out}/sweep")),
            ("transient_seed", ("transient", "-c", cfg, "--seed", str(int(rng.integers(1, 2**31))),
                                "-o", "{out}/transient_seed")),
            ("hdl", ("hdl", "-c", cfg, "-o", "{out}/hdl")),
            ("hdl_staircase", ("hdl", "-c", str(workdir / "config_stair.json"), "--staircase",
                               "-o", "{out}/hdl_staircase")),
        )
        root = Path(gpiodac.__file__).resolve().parents[2]
        return CliInputs(root, workdir, commands)

    def run_pass(self, inp: CliInputs, index: int, tracer) -> PassResult:
        out = inp.workdir / f"pass{index}"
        env = {k: v for k, v in os.environ.items() if k != cli.OUTPUT_DIR_ENV}
        env["PYTHONPATH"] = str(inp.root / "src")
        clock = Clock()
        peak_kb = 0
        for k, (kind, template) in enumerate(inp.commands):
            argv = [a.replace("{out}", str(out)) for a in template]
            spans_file = out / f"spans_{kind}.json"
            if tracer is None:
                cmd = [sys.executable, "-m", "gpiodac.cli", *argv]
            else:
                out.mkdir(parents=True, exist_ok=True)
                cmd = [sys.executable, str(self.TRACE_LAUNCHER), str(spans_file), str(k), *argv]

            def command():
                proc = subprocess.Popen(cmd, cwd=inp.workdir, env=env,
                                        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
                stderr = proc.stderr.read()
                proc.stderr.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, stderr, usage

            done = clock.time(kind, command)
            if done is None:
                continue
            code, stderr, usage = done
            peak_kb = max(peak_kb, usage.ru_maxrss)
            op = clock.ops[-1]
            op.error = None if code in (0, 4) else f"exit{code}"
            op.infeasible = int(code == 4)
            op.detail = stderr.decode(errors="replace")[-500:]
            if tracer is not None and spans_file.exists():
                doc = json.loads(spans_file.read_text())
                spans_file.unlink()
                tracer.spans[:] = merge_spans([tracer.spans, doc["spans"]])
                for key, n in doc["counts"].items():
                    tracer.counts[key] = tracer.counts.get(key, 0) + n
        return PassResult(clock.ops, len(clock.ops), {"dir": out}, {"peak_rss_kb": peak_kb})

    @staticmethod
    def _files(inp: CliInputs, outputs: dict) -> dict[str, dict[str, bytes]]:
        """Declared outputs of each command (run_record.json excluded), read once."""
        if "files" not in outputs:
            outputs["files"] = {
                kind: {
                    str(p.relative_to(outputs["dir"] / kind)): p.read_bytes()
                    for p in sorted((outputs["dir"] / kind).rglob("*"))
                    if p.is_file() and p.name != "run_record.json"
                }
                for kind, _ in inp.commands
            }
        return outputs["files"]

    def check(self, inp: CliInputs, outputs: dict, oracle) -> dict[int, str]:
        files = self._files(inp, outputs)
        bad: dict[int, str] = {}
        index = {kind: k for k, (kind, _) in enumerate(inp.commands)}
        golden = inp.root / "tests" / "golden"
        for (kind, name), golden_name in GOLDEN_OUTPUTS.items():
            if files[kind].get(name) != (golden / golden_name).read_bytes():
                bad[index[kind]] = f"{name} differs from tests/golden/{golden_name}"
        rows = files["simulate"].get("transfer.csv", b"").decode().splitlines()[1:]
        reason = None
        if len(rows) != 16:
            reason = f"transfer.csv has {len(rows)} rows, expected 16"
        else:
            config = gpiodac.DacConfig(4, VDD, gpiodac.calibrated_pair(VDD, 1.15, 40.0))
            cols = [r.split(",") for r in rows]
            levels = [float(c[1]) for c in cols]
            reason = _range_error(levels, VDD)
            for c in cols if reason is None else ():
                reason = _oracle_mismatch(oracle, config, int(c[0]),
                                          (float(c[1]), float(c[2]), float(c[3])), ORACLE_TOL_V)
                if reason:
                    break
            if reason is None:
                gap = max(abs(a - (VDD - b)) for a, b in zip(levels[::-1], levels))
                if gap > COMPLEMENT_TOL_V:
                    reason = f"complement gap {gap:.3e} V on the symmetric reference"
        if reason:
            bad[index["simulate"]] = reason
        sweep = files["sweep"].get("sweep.csv", b"").decode().splitlines()[1:]
        if len(sweep) != 6 or not all(r.endswith(",ok") for r in sweep):
            bad[index["sweep"]] = f"sweep.csv rows not all ok: {sweep}"
        for kind, produced in files.items():
            if not produced and index[kind] not in bad:
                bad[index[kind]] = "no declared output written"
        return bad

    def digest(self, inp: CliInputs, outputs: dict) -> list:
        files = self._files(inp, outputs)
        return [tuple(sorted(files[kind].items())) for kind, _ in inp.commands]


WORKLOADS = {w.name: w for w in (Flow12b(), Transient11b(), Cli4b())}
