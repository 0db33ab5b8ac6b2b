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

from dataclasses import dataclass

from .config import Encoding, HdlSpec


@dataclass
class HdlArtifact:
    rtl_text: str
    constraints_text: str
    manifest: dict


def _pin_rule(index: int, n_bits: int, encoding: Encoding) -> tuple[str, str]:
    """(decode group, decode expression) of a logical pin.

    Binary: bit i owns the 2^i pins from 2^i - 1, so pin j's bit is
    (j + 1).bit_length() - 1. Thermometer: pin j is its own cell, on while code > j.
    """
    if encoding is Encoding.THERMOMETER:
        return f"cell{index}", f"(code > {n_bits}'d{index})"
    bit = (index + 1).bit_length() - 1
    return f"bit{bit}", f"code[{bit}]"


def _module(spec: HdlSpec, headline: str, note: str, has_code_port: bool,
            body: list[str]) -> HdlArtifact:
    """A module, its PCF and its pin manifest.

    The module: two title lines, ports, body, the registered decode. The PCF:
    one set_io line per DAC pin in logical order, then the clock.
    """
    code = [("input  wire", f"[{spec.n_bits - 1}:0]", "code")] if has_code_port else []
    ports = [("input  wire", "", "clk"), *code, ("output reg ", f"[{spec.d_max - 1}:0]", "dac_out")]
    width = max(len(rng) for _, rng, _ in ports)
    lines = [f"// {spec.module_name}: {headline}", f"// {note}", f"module {spec.module_name} ("]
    lines.append(",\n".join(f"    {kind} {rng:<{width}} {name}" for kind, rng, name in ports))
    lines += [");", "", *body, "    always @(posedge clk) begin"]
    pcf, pins = [], {}
    for index, pkg in enumerate(spec.pin_assignments):
        group, expr = _pin_rule(index, spec.n_bits, spec.encoding)
        lines.append(f"        dac_out[{index}] <= {expr};")
        pcf.append(f"set_io dac_out[{index}] {pkg}")
        pins[str(index)] = {"group": group, "package_pin": pkg, "port": f"dac_out[{index}]"}
    lines += ["    end", "", "endmodule"]
    pcf.append(f"set_io clk {spec.clock_pin}")
    manifest = {
        "module": spec.module_name,
        "n_bits": spec.n_bits,
        "encoding": spec.encoding.value,
        "clock": {"port": "clk", "package_pin": spec.clock_pin, "hz": spec.clock_hz},
        "has_code_port": has_code_port,
        "pins": pins,
    }
    return HdlArtifact("\n".join(lines) + "\n", "\n".join(pcf) + "\n", manifest)


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

