"""HDL generation: golden files, decode truth tables, constraint format."""

import re
import sys
from pathlib import Path

import numpy as np
import pytest

from gpiodac.cli import json_text
from gpiodac.config import MAX_BITS, Encoding, HdlSpec, default_pin_assignments
from gpiodac.hdlgen import generate_dac, generate_staircase
from oracles import per_pin_states

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
        pin_assignments=tuple(f"A{j + 1}" for j in range(d_max)),
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
        assert json_text(art.manifest) == (GOLDEN / f"{name}_manifest.json").read_text()

    def test_staircase_byte_exact(self):
        art = generate_staircase(spec_for("stair4", Encoding.BINARY))
        assert art.rtl_text == (GOLDEN / "stair4.v").read_text()

    def test_regeneration_is_deterministic(self):
        a = generate_dac(spec_for("dac4_binary", Encoding.BINARY))
        b = generate_dac(spec_for("dac4_binary", Encoding.BINARY))
        assert a.rtl_text == b.rtl_text
        assert a.constraints_text == b.constraints_text
        assert a.manifest == b.manifest


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

    @pytest.mark.parametrize("n_bits", [1, 2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_rtl_asserts_the_pins_the_transient_model_switches(self, n_bits, encoding):
        # the glitch model is checked against the pin rule of oracles.per_pin_states; the
        # hardware must drive the same pins
        table = decode_table(generate_dac(spec_for("dut", encoding, n_bits)).rtl_text, n_bits)
        for code in range(1 << n_bits):
            states = per_pin_states(code, n_bits, encoding)
            assert table[code] == {pin for pin, on in enumerate(states) if on}

    def test_staircase_carries_the_same_decode(self):
        dac = generate_dac(spec_for("dut", Encoding.BINARY))
        stair = generate_staircase(spec_for("dut", Encoding.BINARY))
        assert decode_table(stair.rtl_text, 4) == decode_table(dac.rtl_text, 4)


class TestConstraints:
    def test_line_format(self):
        text = generate_dac(spec_for("dut", Encoding.BINARY)).constraints_text
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
        for text in (art.rtl_text, art.constraints_text, json_text(art.manifest)):
            assert text.endswith("\n") and not text.endswith("\n\n")
            assert "\r" not in text


class TestValidation:
    def test_bad_module_name(self):
        with pytest.raises(ValueError, match=r"^'4dac' is not a valid HDL identifier$"):
            spec_for("4dac", Encoding.BINARY)
        with pytest.raises(ValueError, match=r"^'module' is not a valid HDL identifier$"):
            spec_for("module", Encoding.BINARY)

    def test_duplicate_package_pins(self):
        with pytest.raises(ValueError, match=r"^package pins must be unique \(clock included\)$"):
            HdlSpec(
                n_bits=2,
                encoding=Encoding.BINARY,
                module_name="dut",
                clock_hz=1,
                staircase_step_cycles=1,
                pin_assignments=("A1", "A1", "A3"),
                clock_pin="J3",
            )

    def test_wrong_pin_count(self):
        with pytest.raises(ValueError, match=r"^need exactly 3 pin assignments, got 1$"):
            HdlSpec(
                n_bits=2,
                encoding=Encoding.BINARY,
                module_name="dut",
                clock_hz=1,
                staircase_step_cycles=1,
                pin_assignments=("A1",),
                clock_pin="J3",
            )

    @pytest.mark.parametrize("clock_hz, message", [
        (0, "clock_hz must be >= 1, got 0"),
        (int(sys.float_info.max) + 1, "clock_hz must be >= 1 and within float range"),
        (10**400, "clock_hz must be >= 1 and within float range"),
    ])
    def test_clock_out_of_range_is_refused(self, clock_hz, message):
        # The manifest's hz needs the clock as a float.
        with pytest.raises(ValueError) as info:
            HdlSpec(n_bits=1, encoding=Encoding.BINARY, module_name="dut", clock_hz=clock_hz,
                    staircase_step_cycles=1, pin_assignments=("A1",), clock_pin="J3")
        assert str(info.value) == message

    @pytest.mark.parametrize("field", ["n_bits", "clock_hz", "staircase_step_cycles"])
    @pytest.mark.parametrize("value, rule", [(4.0, "an integer"), (2.5, "an integer"),
                                             (True, "an integer"), ("4", "an integer"),
                                             (None, "an integer"), (0, ">= 1"), (-3, ">= 1")])
    def test_an_integer_field_that_is_not_an_integer_from_1_is_refused_naming_it(self, field,
                                                                                 value, rule):
        fields = {"n_bits": 4, "clock_hz": 100_000_000, "staircase_step_cycles": 50_000,
                  field: value}
        with pytest.raises(ValueError) as info:
            HdlSpec(encoding=Encoding.BINARY, module_name="dut", clock_pin="J3",
                    pin_assignments=tuple(f"A{j + 1}" for j in range(15)), **fields)
        assert str(info.value) == f"{field} must be {rule}, got {value!r}"

    def test_a_bit_width_beyond_max_bits_is_refused(self):
        # As DacConfig refuses it: 17 bits would be 131,071 pins and a decode line for each.
        with pytest.raises(ValueError) as info:
            HdlSpec(n_bits=MAX_BITS + 1, encoding=Encoding.BINARY, module_name="dut",
                    clock_hz=1, staircase_step_cycles=1,
                    pin_assignments=default_pin_assignments(MAX_BITS + 1), clock_pin="J3")
        assert str(info.value) == f"n_bits must be in 1..{MAX_BITS}, got {MAX_BITS + 1}"

    def test_numpy_integer_fields_give_the_int_artifacts(self):
        want = spec_for("dut", Encoding.BINARY)
        spec = HdlSpec(n_bits=np.int64(4), encoding=Encoding.BINARY, module_name="dut",
                       clock_hz=np.uint32(100_000_000), staircase_step_cycles=np.int32(50_000),
                       pin_assignments=want.pin_assignments, clock_pin="J3")
        assert {type(spec.n_bits), type(spec.clock_hz), type(spec.staircase_step_cycles)} == {int}
        for generate in (generate_dac, generate_staircase):
            got, ref = generate(spec), generate(want)
            assert (got.rtl_text, json_text(got.manifest)) == (ref.rtl_text, json_text(ref.manifest))

    def test_largest_float_clock_is_accepted(self):
        clock_hz = int(sys.float_info.max)
        spec = HdlSpec(n_bits=1, encoding=Encoding.BINARY, module_name="dut", clock_hz=clock_hz,
                       staircase_step_cycles=1, pin_assignments=("A1",), clock_pin="J3")
        assert generate_dac(spec).manifest["clock"]["hz"] == clock_hz

    def test_pin_groups(self):
        def group(index, encoding):
            return generate_dac(spec_for("dut", encoding)).manifest["pins"][str(index)]["group"]

        assert group(0, Encoding.BINARY) == "bit0"
        assert group(2, Encoding.BINARY) == "bit1"
        assert group(14, Encoding.BINARY) == "bit3"
        assert group(3, Encoding.THERMOMETER) == "cell3"



class TestHelpers:
    def test_one_bit_staircase_is_a_square_wave(self):
        spec = HdlSpec(
            n_bits=1,
            encoding=Encoding.BINARY,
            module_name="sq",
            clock_hz=1000,
            staircase_step_cycles=1,
            pin_assignments=("A1",),
            clock_pin="J3",
        )
        art = generate_staircase(spec)
        table = decode_table(art.rtl_text, 1)
        assert table == {0: set(), 1: {0}}

    @pytest.mark.parametrize("step", [1, 2, 3, 50_000, 65_536, 65_537])
    def test_staircase_counter_wraps_after_step_cycles(self, step):
        # the code advances when the counter reads step - 1, held in the narrowest register
        spec = HdlSpec(n_bits=2, encoding=Encoding.BINARY, module_name="st", clock_hz=1000,
                       staircase_step_cycles=step,
                       pin_assignments=("A1", "A2", "A3"), clock_pin="J3")
        rtl = generate_staircase(spec).rtl_text
        top = int(re.search(r"reg \[(\d+):0\] step_ctr = 0;", rtl).group(1))
        width, last = map(int, re.search(r"step_ctr == (\d+)'d(\d+)\)", rtl).groups())
        assert width == top + 1
        assert last == step - 1 < 1 << width
        assert width == 1 or last >= 1 << (width - 1)

    def test_default_pins_are_unique(self):
        pins = default_pin_assignments(4)
        assert len(set(pins)) == 15
