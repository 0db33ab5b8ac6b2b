"""Synthesizable Verilog and iCE40 PCF constraints for the GPIO DAC.

The hardware side of the toolkit: an N-bit decode module driving 2^N - 1
shorted output pins (binary-weighted or thermometer), an optional staircase
pattern generator for bench characterization, and the matching pin-constraint
file for the open iCE40 toolchain. Outputs are registered in a single flop
stage so the pins switch as simultaneously as placement allows, which is the
cheapest defense against decode glitches at high sample rates.

All generated text is a pure function of the HdlSpec: same inputs, same bytes.
Both modules come from one scaffold; one pin rule gives each pin's group and decode.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

from .config import Encoding

_VERILOG_KEYWORDS = frozenset(
    """always and assign begin buf case casex casez default defparam else end
    endcase endfunction endmodule endtask for function if initial inout input
    integer localparam module negedge not or output parameter posedge reg
    repeat task tri wand while wire wor xor""".split()
)


class GenerationError(ValueError):
    """Invalid HdlSpec; raised before any text is produced."""


@dataclass(frozen=True)
class HdlSpec:
    n_bits: int
    encoding: Encoding
    module_name: str
    clock_hz: int
    staircase_step_cycles: int
    pin_assignments: tuple[tuple[int, str], ...]
    clock_pin: str

    def __post_init__(self) -> None:
        if self.n_bits < 1:
            raise GenerationError(f"n_bits must be >= 1, got {self.n_bits}")
        if self.clock_hz < 1:
            raise GenerationError(f"clock_hz must be >= 1, got {self.clock_hz}")
        if self.staircase_step_cycles < 1:
            raise GenerationError(
                f"staircase_step_cycles must be >= 1, got {self.staircase_step_cycles}"
            )
        _check_identifier(self.module_name)
        if len(self.pin_assignments) != self.d_max:
            raise GenerationError(
                f"need exactly {self.d_max} pin assignments, got {len(self.pin_assignments)}"
            )
        indices = [i for i, _ in self.pin_assignments]
        if sorted(indices) != list(range(self.d_max)):
            raise GenerationError("logical pin indices must cover 0..d_max-1 exactly once")
        pins = [p for _, p in self.pin_assignments] + [self.clock_pin]
        if len(set(pins)) != len(pins):
            raise GenerationError("package pins must be unique (clock included)")

    @property
    def d_max(self) -> int:
        return (1 << self.n_bits) - 1


@dataclass
class HdlArtifact:
    rtl_text: str
    constraints_text: str
    manifest: dict


_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*\Z")


def _check_identifier(name: str) -> None:
    if not _IDENTIFIER_RE.fullmatch(name) or name in _VERILOG_KEYWORDS:
        raise GenerationError(f"{name!r} is not a valid HDL identifier")


def _pin_rule(index: int, n_bits: int, encoding: Encoding) -> tuple[str, str]:
    """(decode group, decode expression) of a logical pin.

    Binary: bit i owns the 2^i pins from 2^i - 1, so pin j's bit is
    (j + 1).bit_length() - 1. Thermometer: pin j is its own cell, on while code > j.
    """
    if not 0 <= index < (1 << n_bits) - 1:
        raise GenerationError(f"pin index {index} out of range")
    if encoding is Encoding.THERMOMETER:
        return f"cell{index}", f"(code > {n_bits}'d{index})"
    bit = (index + 1).bit_length() - 1
    return f"bit{bit}", f"code[{bit}]"


def pin_group(index: int, n_bits: int, encoding: Encoding) -> str:
    """Which decode group a logical pin belongs to."""
    return _pin_rule(index, n_bits, encoding)[0]


def generate_constraints(spec: HdlSpec) -> str:
    """PCF text: one set_io line per DAC pin in logical order, then the clock."""
    lines = [
        f"set_io dac_out[{index}] {pkg}" for index, pkg in sorted(spec.pin_assignments)
    ]
    lines.append(f"set_io clk {spec.clock_pin}")
    return "\n".join(lines) + "\n"


def _module(spec: HdlSpec, headline: str, note: str, has_code_port: bool,
            body: list[str]) -> HdlArtifact:
    """A module and its pin manifest: two title lines, ports, body, the registered decode."""
    code = [("input  wire", f"[{spec.n_bits - 1}:0]", "code")] if has_code_port else []
    ports = [("input  wire", "", "clk"), *code, ("output reg ", f"[{spec.d_max - 1}:0]", "dac_out")]
    width = max(len(rng) for _, rng, _ in ports)
    lines = [f"// {spec.module_name}: {headline}", f"// {note}", f"module {spec.module_name} ("]
    lines.append(",\n".join(f"    {kind} {rng:<{width}} {name}" for kind, rng, name in ports))
    lines += [");", "", *body, "    always @(posedge clk) begin"]
    pins = {}
    for index, pkg in sorted(spec.pin_assignments):
        group, expr = _pin_rule(index, spec.n_bits, spec.encoding)
        lines.append(f"        dac_out[{index}] <= {expr};")
        pins[str(index)] = {"group": group, "package_pin": pkg, "port": f"dac_out[{index}]"}
    lines += ["    end", "", "endmodule"]
    manifest = {
        "module": spec.module_name,
        "n_bits": spec.n_bits,
        "encoding": spec.encoding.value,
        "clock": {"port": "clk", "package_pin": spec.clock_pin, "hz": spec.clock_hz},
        "has_code_port": has_code_port,
        "pins": pins,
    }
    return HdlArtifact("\n".join(lines) + "\n", generate_constraints(spec), manifest)


def generate_dac(spec: HdlSpec) -> HdlArtifact:
    """Decode module: code bus in, 2^N - 1 registered unit pins out."""
    headline = f"{spec.n_bits}-bit GPIO DAC decode ({spec.encoding.value})"
    note = f"drives {spec.d_max} shorted unit pins; outputs registered in one stage"
    return _module(spec, headline, note, has_code_port=True, body=[])


def generate_staircase(spec: HdlSpec) -> HdlArtifact:
    """Self-contained staircase generator: free-running code ramp into the decode."""
    step = spec.staircase_step_cycles
    ctr_bits = max(1, (step - 1).bit_length())
    headline = f"staircase source for a {spec.n_bits}-bit GPIO DAC ({spec.encoding.value})"
    note = f"code advances every {step} clock cycle(s)"
    counter = [
        f"    reg [{ctr_bits - 1}:0] step_ctr = 0;",
        f"    reg [{spec.n_bits - 1}:0] code = 0;",
        "",
        "    always @(posedge clk) begin",
        f"        if (step_ctr == {ctr_bits}'d{step - 1}) begin",
        f"            step_ctr <= {ctr_bits}'d0;",
        "            code <= code + 1'b1;",
        "        end else begin",
        "            step_ctr <= step_ctr + 1'b1;",
        "        end",
        "    end",
        "",
    ]
    return _module(spec, headline, note, has_code_port=False, body=counter)


def manifest_text(artifact: HdlArtifact) -> str:
    """Deterministic JSON rendering of the pin manifest."""
    return json.dumps(artifact.manifest, indent=2, sort_keys=True) + "\n"


def step_cycles_for(clock_hz: int, step_seconds: float) -> int:
    """Clock cycles per staircase step for a wanted dwell time."""
    if clock_hz < 1 or not 0.0 < clock_hz * step_seconds < math.inf:  # NaN fails it too
        raise GenerationError("clock_hz must be >= 1 and step_seconds finite and > 0")
    return max(1, round(clock_hz * step_seconds))


def default_pin_assignments(n_bits: int) -> tuple[tuple[int, str], ...]:
    """Placeholder package pins (IOB_0...); replace with real board pins."""
    d_max = (1 << n_bits) - 1
    return tuple((j, f"IOB_{j}") for j in range(d_max))
