"""HDL generation: golden files, decode truth tables, constraint format."""

import re
import sys
from pathlib import Path

import pytest

from gpiodac.hdlgen import (
    GenerationError,
    HdlSpec,
    default_pin_assignments,
    generate_constraints,
    generate_dac,
    generate_staircase,
    manifest_text,
    pin_group,
    step_cycles_for,
)
from gpiodac.network import Encoding
from gpiodac.transient import pin_states

GOLDEN = Path(__file__).parent / "golden"

_ASSIGN_RE = re.compile(r"dac_out\[(\d+)\]\s*<=\s*(.+);")


def decode_table(rtl_text: str, n_bits: int) -> dict[int, set[int]]:
    """Text-level extraction: asserted pin set per code, from the generated RTL.

    Understands the two emitted assignment forms: `code[i]` (binary group) and
    `(code > N'dJ)` (thermometer compare).
    """
    rules = {}
    for match in _ASSIGN_RE.finditer(rtl_text):
        pin = int(match.group(1))
        expr = match.group(2).strip()
        bit = re.fullmatch(r"code\[(\d+)\]", expr)
        cmp_ = re.fullmatch(rf"\(code > {n_bits}'d(\d+)\)", expr)
        if bit:
            b = int(bit.group(1))
            rules[pin] = lambda code, b=b: bool(code & (1 << b))
        elif cmp_:
            j = int(cmp_.group(1))
            rules[pin] = lambda code, j=j: code > j
        else:
            raise AssertionError(f"unrecognized decode expression: {expr}")
    table = {}
    for code in range(1 << n_bits):
        table[code] = {pin for pin, rule in rules.items() if rule(code)}
    return table


def spec_for(name: str, encoding: Encoding, n_bits: int = 4) -> HdlSpec:
    d_max = (1 << n_bits) - 1
    return HdlSpec(
        n_bits=n_bits,
        encoding=encoding,
        module_name=name,
        clock_hz=100_000_000,
        staircase_step_cycles=50_000,
        pin_assignments=tuple((j, f"A{j + 1}") for j in range(d_max)),
        clock_pin="J3",
    )


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "name,encoding",
        [("dac4_binary", Encoding.BINARY), ("dac4_thermo", Encoding.THERMOMETER)],
    )
    def test_byte_exact(self, name, encoding):
        art = generate_dac(spec_for(name, encoding))
        assert art.rtl_text == (GOLDEN / f"{name}.v").read_text()
        assert art.constraints_text == (GOLDEN / f"{name}.pcf").read_text()
        assert manifest_text(art) == (GOLDEN / f"{name}_manifest.json").read_text()

    def test_staircase_byte_exact(self):
        art = generate_staircase(spec_for("stair4", Encoding.BINARY))
        assert art.rtl_text == (GOLDEN / "stair4.v").read_text()

    def test_regeneration_is_deterministic(self):
        a = generate_dac(spec_for("dac4_binary", Encoding.BINARY))
        b = generate_dac(spec_for("dac4_binary", Encoding.BINARY))
        assert a.rtl_text == b.rtl_text
        assert a.constraints_text == b.constraints_text
        assert manifest_text(a) == manifest_text(b)


class TestDecodeTables:
    @pytest.mark.parametrize("n_bits", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_asserted_pin_count_equals_code(self, n_bits, encoding):
        # the static solver models code m as m active pull-ups; the RTL must
        # assert exactly that many pins for every code
        art = generate_dac(spec_for("dut", encoding, n_bits))
        table = decode_table(art.rtl_text, n_bits)
        for code in range(1 << n_bits):
            assert len(table[code]) == code

    def test_binary_groups(self):
        art = generate_dac(spec_for("dut", Encoding.BINARY))
        table = decode_table(art.rtl_text, 4)
        assert table[0b1010] == {1, 2} | set(range(7, 15))
        assert table[0b0101] == {0} | set(range(3, 7))

    def test_thermometer_prefix_sets(self):
        art = generate_dac(spec_for("dut", Encoding.THERMOMETER))
        table = decode_table(art.rtl_text, 4)
        assert table[5] == set(range(5))

    @pytest.mark.parametrize("n_bits", [1, 3, 5])
    def test_thermometer_monotone_subsets(self, n_bits):
        art = generate_dac(spec_for("dut", Encoding.THERMOMETER, n_bits))
        table = decode_table(art.rtl_text, n_bits)
        for code in range((1 << n_bits) - 1):
            assert table[code] <= table[code + 1]

    @pytest.mark.parametrize("n_bits", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_rtl_asserts_the_pins_the_transient_model_switches(self, n_bits, encoding):
        # the glitch model replays transient.pin_states; the hardware must drive the same pins
        table = decode_table(generate_dac(spec_for("dut", encoding, n_bits)).rtl_text, n_bits)
        for code in range(1 << n_bits):
            states = pin_states(code, n_bits, encoding)
            assert table[code] == {pin for pin, on in enumerate(states) if on}

    def test_staircase_carries_the_same_decode(self):
        dac = generate_dac(spec_for("dut", Encoding.BINARY))
        stair = generate_staircase(spec_for("dut", Encoding.BINARY))
        assert decode_table(stair.rtl_text, 4) == decode_table(dac.rtl_text, 4)


class TestConstraints:
    def test_line_format(self):
        text = generate_constraints(spec_for("dut", Encoding.BINARY))
        lines = text.splitlines()
        assert lines[0] == "set_io dac_out[0] A1"
        assert lines[-1] == "set_io clk J3"
        assert len(lines) == 15 + 1

    def test_every_constrained_port_is_in_the_rtl(self):
        art = generate_dac(spec_for("dut", Encoding.BINARY))
        for line in art.constraints_text.splitlines():
            port = line.split()[1]
            base = port.split("[")[0]
            assert base in art.rtl_text

    def test_trailing_newline_and_uniform_endings(self):
        art = generate_dac(spec_for("dut", Encoding.BINARY))
        for text in (art.rtl_text, art.constraints_text, manifest_text(art)):
            assert text.endswith("\n") and not text.endswith("\n\n")
            assert "\r" not in text


class TestValidation:
    def test_bad_module_name(self):
        with pytest.raises(GenerationError):
            spec_for("4dac", Encoding.BINARY)
        with pytest.raises(GenerationError):
            spec_for("module", Encoding.BINARY)

    def test_duplicate_package_pins(self):
        with pytest.raises(GenerationError):
            HdlSpec(
                n_bits=2,
                encoding=Encoding.BINARY,
                module_name="dut",
                clock_hz=1,
                staircase_step_cycles=1,
                pin_assignments=((0, "A1"), (1, "A1"), (2, "A3")),
                clock_pin="J3",
            )

    def test_wrong_pin_count(self):
        with pytest.raises(GenerationError):
            HdlSpec(
                n_bits=2,
                encoding=Encoding.BINARY,
                module_name="dut",
                clock_hz=1,
                staircase_step_cycles=1,
                pin_assignments=((0, "A1"),),
                clock_pin="J3",
            )

    @pytest.mark.parametrize("clock_hz, message", [
        (0, "clock_hz must be >= 1, got 0"),
        (int(sys.float_info.max) + 1, "clock_hz must be >= 1 and within float range"),
        (10**400, "clock_hz must be >= 1 and within float range"),
    ])
    def test_clock_out_of_range_is_refused(self, clock_hz, message):
        # The manifest's hz and step_cycles_for both need the clock as a float.
        with pytest.raises(GenerationError) as info:
            HdlSpec(n_bits=1, encoding=Encoding.BINARY, module_name="dut", clock_hz=clock_hz,
                    staircase_step_cycles=1, pin_assignments=((0, "A1"),), clock_pin="J3")
        assert str(info.value) == message

    def test_largest_float_clock_is_accepted(self):
        clock_hz = int(sys.float_info.max)
        spec = HdlSpec(n_bits=1, encoding=Encoding.BINARY, module_name="dut", clock_hz=clock_hz,
                       staircase_step_cycles=1, pin_assignments=((0, "A1"),), clock_pin="J3")
        assert generate_dac(spec).manifest["clock"]["hz"] == clock_hz

    def test_pin_groups(self):
        assert pin_group(0, 4, Encoding.BINARY) == "bit0"
        assert pin_group(2, 4, Encoding.BINARY) == "bit1"
        assert pin_group(14, 4, Encoding.BINARY) == "bit3"
        assert pin_group(3, 4, Encoding.THERMOMETER) == "cell3"
        for encoding in Encoding:
            for index in (-1, 15, 99):
                with pytest.raises(GenerationError, match=f"pin index {index} out of range"):
                    pin_group(index, 4, encoding)


class TestHelpers:
    def test_bench_dwell_time(self):
        # 100 MHz clock, 500 us dwell: 50000 cycles per staircase step
        assert step_cycles_for(100_000_000, 500e-6) == 50_000

    def test_full_rate_stepping(self):
        assert step_cycles_for(20_000_000, 1 / 20e6) == 1

    @pytest.mark.parametrize("step_seconds", [float("nan"), float("inf"), 0.0, -1e-6, 1e307])
    def test_step_seconds_must_give_a_finite_positive_count(self, step_seconds):
        # 1e307 s is finite, but its cycle count at 100 Hz overflows to inf
        with pytest.raises(GenerationError, match="step_seconds finite and > 0"):
            step_cycles_for(100, step_seconds)

    def test_clock_beyond_float_range_is_refused(self):
        # 10**400 has no float value, so the cycle count cannot be formed from it
        with pytest.raises(GenerationError, match="clock_hz must be >= 1"):
            step_cycles_for(10**400, 1e-9)

    def test_one_bit_staircase_is_a_square_wave(self):
        spec = HdlSpec(
            n_bits=1,
            encoding=Encoding.BINARY,
            module_name="sq",
            clock_hz=1000,
            staircase_step_cycles=1,
            pin_assignments=((0, "A1"),),
            clock_pin="J3",
        )
        art = generate_staircase(spec)
        table = decode_table(art.rtl_text, 1)
        assert table == {0: set(), 1: {0}}

    def test_default_pins_are_unique(self):
        pins = default_pin_assignments(4)
        assert len({p for _, p in pins}) == 15
