"""Synthesizable Verilog and iCE40 PCF constraints for the GPIO DAC.

The hardware side of the toolkit: an N-bit decode module driving 2^N - 1
shorted output pins (binary-weighted or thermometer), an optional staircase
pattern generator for bench characterization, and the matching pin-constraint
file for the open iCE40 toolchain. Outputs are registered in a single flop
stage so the pins switch as simultaneously as placement allows, which is the
cheapest defense against decode glitches at high sample rates.

All generated text is a pure function of the HdlSpec: same inputs, same bytes.
"""

from __future__ import annotations

import json
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
        d_max = (1 << self.n_bits) - 1
        if len(self.pin_assignments) != d_max:
            raise GenerationError(
                f"need exactly {d_max} pin assignments, got {len(self.pin_assignments)}"
            )
        indices = [i for i, _ in self.pin_assignments]
        if sorted(indices) != list(range(d_max)):
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


def pin_group(index: int, n_bits: int, encoding: Encoding) -> str:
    """Which decode group a logical pin belongs to."""
    if encoding is Encoding.THERMOMETER:
        return f"cell{index}"
    start = 0
    for bit in range(n_bits):
        size = 1 << bit
        if index < start + size:
            return f"bit{bit}"
        start += size
    raise GenerationError(f"pin index {index} out of range")


def _decode_lines(spec: HdlSpec, indent: str) -> list[str]:
    lines = []
    if spec.encoding is Encoding.THERMOMETER:
        for j in range(spec.d_max):
            lines.append(f"{indent}dac_out[{j}] <= (code > {spec.n_bits}'d{j});")
    else:
        j = 0
        for bit in range(spec.n_bits):
            for _ in range(1 << bit):
                lines.append(f"{indent}dac_out[{j}] <= code[{bit}];")
                j += 1
    return lines


def _manifest(spec: HdlSpec, has_code_port: bool) -> dict:
    pins = {}
    for index, pkg in sorted(spec.pin_assignments):
        pins[str(index)] = {
            "group": pin_group(index, spec.n_bits, spec.encoding),
            "package_pin": pkg,
            "port": f"dac_out[{index}]",
        }
    return {
        "module": spec.module_name,
        "n_bits": spec.n_bits,
        "encoding": spec.encoding.value,
        "clock": {"port": "clk", "package_pin": spec.clock_pin, "hz": spec.clock_hz},
        "has_code_port": has_code_port,
        "pins": pins,
    }


def generate_constraints(spec: HdlSpec) -> str:
    """PCF text: one set_io line per DAC pin in logical order, then the clock."""
    lines = [
        f"set_io dac_out[{index}] {pkg}" for index, pkg in sorted(spec.pin_assignments)
    ]
    lines.append(f"set_io clk {spec.clock_pin}")
    return "\n".join(lines) + "\n"


def generate_dac(spec: HdlSpec) -> HdlArtifact:
    """Decode module: code bus in, 2^N - 1 registered unit pins out."""
    d_max = spec.d_max
    enc = spec.encoding.value
    rng_code = f"[{spec.n_bits - 1}:0]"
    rng_out = f"[{d_max - 1}:0]"
    width = max(len(rng_code), len(rng_out))
    lines = [
        f"// {spec.module_name}: {spec.n_bits}-bit GPIO DAC decode ({enc})",
        f"// drives {d_max} shorted unit pins; outputs registered in one stage",
        f"module {spec.module_name} (",
        f"    input  wire {'':<{width}} clk,",
        f"    input  wire {rng_code:<{width}} code,",
        f"    output reg  {rng_out:<{width}} dac_out",
        ");",
        "",
        "    always @(posedge clk) begin",
    ]
    lines += _decode_lines(spec, indent=" " * 8)
    lines += [
        "    end",
        "",
        "endmodule",
    ]
    return HdlArtifact(
        rtl_text="\n".join(lines) + "\n",
        constraints_text=generate_constraints(spec),
        manifest=_manifest(spec, has_code_port=True),
    )


def generate_staircase(spec: HdlSpec) -> HdlArtifact:
    """Self-contained staircase generator: free-running code ramp into the decode."""
    d_max = spec.d_max
    step = spec.staircase_step_cycles
    ctr_bits = max(1, (step - 1).bit_length())
    enc = spec.encoding.value
    rng_out = f"[{d_max - 1}:0]"
    width = len(rng_out)
    lines = [
        f"// {spec.module_name}: staircase source for a {spec.n_bits}-bit GPIO DAC ({enc})",
        f"// code advances every {step} clock cycle(s)",
        f"module {spec.module_name} (",
        f"    input  wire {'':<{width}} clk,",
        f"    output reg  {rng_out:<{width}} dac_out",
        ");",
        "",
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
        "    always @(posedge clk) begin",
    ]
    lines += _decode_lines(spec, indent=" " * 8)
    lines += [
        "    end",
        "",
        "endmodule",
    ]
    return HdlArtifact(
        rtl_text="\n".join(lines) + "\n",
        constraints_text=generate_constraints(spec),
        manifest=_manifest(spec, has_code_port=False),
    )


def manifest_text(artifact: HdlArtifact) -> str:
    """Deterministic JSON rendering of the pin manifest."""
    return json.dumps(artifact.manifest, indent=2, sort_keys=True) + "\n"


def step_cycles_for(clock_hz: int, step_seconds: float) -> int:
    """Clock cycles per staircase step for a wanted dwell time."""
    if clock_hz < 1 or step_seconds <= 0.0:
        raise GenerationError("clock_hz must be >= 1 and step_seconds > 0")
    return max(1, round(clock_hz * step_seconds))


def default_pin_assignments(n_bits: int) -> tuple[tuple[int, str], ...]:
    """Placeholder package pins (IOB_0...); replace with real board pins."""
    d_max = (1 << n_bits) - 1
    return tuple((j, f"IOB_{j}") for j in range(d_max))
