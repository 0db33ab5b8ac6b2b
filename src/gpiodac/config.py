"""Validated design inputs: devices, resistor networks, DAC configs, timing, the HDL spec and the
errors they and the layers built on them raise.

This layer imports no numpy, so parsing a config and reporting its failures
need nothing else, and the commands that only read a config or a curve and
write text (``extract``, ``size`` and ``hdl``) start without the numeric stack.
``devices``, ``network``, ``transient``, ``metrics``, ``sizing`` and ``hdlgen``
import from here the names they use; each has this one home.

Device parameters are source-referenced magnitudes. A unit device's role is the
``DevicePair`` slot it fills: ``pmos`` pulls up, ``nmos`` pulls down.
``LinearSwitch`` is the ideal counterpart of a MOSFET unit (a fixed
on-conductance with no threshold).
"""

from __future__ import annotations

import enum
import math
import numbers
import re
import sys
from dataclasses import dataclass
from typing import Union


class OperatingRegion(enum.Enum):
    CUTOFF = "cutoff"
    TRIODE = "triode"
    SATURATION = "saturation"


def _check_positive(name: str, value: float) -> None:
    # Written so that NaN fails it as well as infinities and values <= 0.
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class MosfetParams:
    """Square-law device: threshold magnitude [V] and transconductance [A/V^2]."""

    vth: float
    k: float

    def __post_init__(self) -> None:
        for name in ("vth", "k"):
            _check_positive(name, getattr(self, name))


@dataclass(frozen=True)
class LinearSwitch:
    """Constant-conductance unit cell; conducts g*vds whenever it is driven."""

    g: float

    def __post_init__(self) -> None:
        _check_positive("g", self.g)


UnitDevice = Union[MosfetParams, LinearSwitch]


@dataclass(frozen=True)
class DevicePair:
    """Pull-up and pull-down unit devices of one GPIO driver.

    Asymmetric pairs are legal; they are what produce the conductance-mismatch
    error term in the transfer function.
    """

    pmos: UnitDevice
    nmos: UnitDevice


def calibrated_pair(vdd: float, vth: float, ron_midrange: float) -> DevicePair:
    """Symmetric device pair whose mid-scale secant resistance equals ron_midrange.

    Inverts the triode law at vds = vdd/2 with vgs = vdd:
    k = 1 / (ron * (vdd - vth - vdd/4)). Requires vth < vdd/2 so the mid-scale
    point actually sits in the triode region.
    """
    if not 0.0 < vth < 0.5 * vdd:
        raise ValueError(f"calibration needs 0 < vth < vdd/2, got vth={vth}, vdd={vdd}")
    if ron_midrange <= 0.0:
        raise ValueError(f"ron_midrange must be > 0, got {ron_midrange}")
    k = 1.0 / (ron_midrange * (vdd - vth - 0.25 * vdd))
    return DevicePair(pmos=MosfetParams(vth, k), nmos=MosfetParams(vth, k))


class Encoding(enum.Enum):
    BINARY = "binary"
    THERMOMETER = "thermometer"


class ParallelAttach(enum.Enum):
    """Where the parallel resistors tie on the far side: the supply rails
    (VDD/GND) or the derated inner rails (vd/vs)."""

    SUPPLY_RAILS = "supply"
    INNER_RAILS = "inner"


@dataclass(frozen=True)
class Network:
    """The external resistors of the shorted-GPIO DAC; each one left at its default is absent.

    rsp and rsn are the series resistors from the supply rails to the local
    rails vd and vs, absent at 0 (rsn = 0 models a board whose ground rail is
    shared). rpp and rpn are the parallel resistors from the output to the
    supply side and to the ground side, absent at inf; parallel_attach is what
    they tie to there. Network() is the standalone DAC, Network(rpp=rp, rpn=rp)
    its two-resistor correction, and all four resistors its four-resistor one.
    """

    rsp: float = 0.0
    rsn: float = 0.0
    rpp: float = math.inf
    rpn: float = math.inf
    parallel_attach: ParallelAttach = ParallelAttach.INNER_RAILS

    def __post_init__(self) -> None:
        for name in ("rsp", "rsn"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be >= 0 (0 is no resistor), got {value}")
        # The rails are solved in the current through rsp, which rsn then carries too.
        if self.rsn > 0.0 and not self.rsp > 0.0:
            raise ValueError(f"rsn = {self.rsn} needs rsp > 0, got rsp = {self.rsp}")
        if not (self.rpp > 0.0 and self.rpn > 0.0):
            raise ValueError(f"parallel resistors must be > 0, got rpp={self.rpp}, rpn={self.rpn}")

    @property
    def has_series(self) -> bool:
        return self.rsp > 0.0

    @property
    def has_parallel(self) -> bool:
        return self.rpp < math.inf or self.rpn < math.inf


MAX_BITS = 16  # 2^16 - 1 unit cells is the practical full-sweep ceiling


def _is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; a bool is not."""
    # numpy registers its integer types as Integral, so this layer needs no numpy to accept them.
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def _integer(name: str, value) -> int:
    """value as an int; a ValueError naming name unless _is_integer(value)."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _nonfinite_conductance(vdd: float, resistances) -> tuple[str, float] | None:
    """The first (name, r) of resistances whose vdd / r is not finite, or None.

    rsn = 0 passes: it is the shared ground rail, not a resistor.
    """
    for name, r in resistances:
        if not (r > 0.0 and vdd / r < math.inf) and not (name == "rsn" and r == 0.0):
            return name, r
    return None


@dataclass(frozen=True)
class DacConfig:
    n_bits: int
    vdd: float
    devices: DevicePair
    topology: Network = Network()
    encoding: Encoding = Encoding.BINARY

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_bits", _integer("n_bits", self.n_bits))
        if not 1 <= self.n_bits <= MAX_BITS:
            raise ValueError(f"n_bits must be in 1..{MAX_BITS}, got {self.n_bits}")
        _check_positive("vdd", self.vdd)
        # An int vdd would start the rails' solve in an int array, which truncates what it holds.
        object.__setattr__(self, "vdd", float(self.vdd))
        resistances = [(name, float(r)) for name in ("rsp", "rsn", "rpp", "rpn")
                       if (r := getattr(self.topology, name))]  # an absent series resistor is 0
        bad = _nonfinite_conductance(self.vdd, resistances)
        if bad is not None:
            raise ValueError(f"{bad[0]} = {bad[1]} ohm is too small: vdd / {bad[0]} is not finite")

    @property
    def d_max(self) -> int:
        return (1 << self.n_bits) - 1


@dataclass(frozen=True)
class TimingParams:
    t_rise: float
    t_fall: float
    skew_max: float
    sample_period: float

    def __post_init__(self) -> None:
        for name in ("t_rise", "t_fall", "skew_max", "sample_period"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.sample_period <= max(self.t_rise, self.t_fall):
            raise ValueError(
                "sample_period must exceed max(t_rise, t_fall) for settled sampling"
            )


class MetricsError(ValueError):
    """Degenerate curve, e.g. zero full-scale span."""


class SizingError(ValueError):
    """The curve does not expose the features extraction needs, or the requested correction
    is infeasible; the message names the constraint."""


_VERILOG_KEYWORDS = frozenset(
    """always and assign begin buf case casex casez default defparam else end
    endcase endfunction endmodule endtask for function if initial inout input
    integer localparam module negedge not or output parameter posedge reg
    repeat task tri wand while wire wor xor""".split()
)
_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*\Z")


@dataclass(frozen=True)
class HdlSpec:
    n_bits: int
    encoding: Encoding
    module_name: str
    clock_hz: int
    staircase_step_cycles: int
    pin_assignments: tuple[str, ...]  # the package pin of each DAC pin, in logical order
    clock_pin: str

    def __post_init__(self) -> None:
        for name in ("n_bits", "clock_hz", "staircase_step_cycles"):
            value = _integer(name, getattr(self, name))
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, value)
        if self.n_bits > MAX_BITS:  # refused as DacConfig refuses it, before 2^n_bits pins
            raise ValueError(f"n_bits must be in 1..{MAX_BITS}, got {self.n_bits}")
        if self.clock_hz > sys.float_info.max:  # the manifest's hz is read as a float
            raise ValueError("clock_hz must be >= 1 and within float range")
        name = self.module_name
        if not _IDENTIFIER_RE.fullmatch(name) or name in _VERILOG_KEYWORDS:
            raise ValueError(f"{name!r} is not a valid HDL identifier")
        if len(self.pin_assignments) != self.d_max:
            raise ValueError(
                f"need exactly {self.d_max} pin assignments, got {len(self.pin_assignments)}"
            )
        pins = [*self.pin_assignments, self.clock_pin]
        if len(set(pins)) != len(pins):
            raise ValueError("package pins must be unique (clock included)")

    @property
    def d_max(self) -> int:
        return (1 << self.n_bits) - 1


def default_pin_assignments(n_bits: int) -> tuple[str, ...]:
    """Placeholder package pins (IOB_0...); replace with real board pins."""
    return tuple(f"IOB_{j}" for j in range((1 << n_bits) - 1))
