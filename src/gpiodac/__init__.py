"""GPIO-based FPGA DAC design toolkit.

Simulates the shorted-GPIO DAC from a first-order transistor model, sizes the
external linearization resistors, quantifies DNL/INL/current trade-offs,
replays code sequences through a pin-skew glitch model, and emits
synthesizable Verilog plus iCE40 pin constraints for a physical build.

The public names load on first use (PEP 562), each from the module that
defines it, so ``import gpiodac`` imports no numpy and reading a config type
or an HDL generator imports only the layers it needs.
"""

import importlib

__version__ = "0.1.0"

# Defining module -> the public names it exports.
_EXPORTS = {
    "config": (
        "DacConfig", "DevicePair", "Encoding", "FourResistor", "HdlSpec", "LinearSwitch",
        "MetricsError", "MosfetParams", "OperatingRegion", "ParallelAttach", "SizingError",
        "Standalone", "TimingParams", "Topology", "TwoResistor", "calibrated_pair",
    ),
    "network": (
        "NodeSolution", "TransferCurve", "complement_check", "solve_units", "transfer_curve",
    ),
    "metrics": ("LinearityReport", "summary"),
    "sizing": (
        "ExtractedParams", "SizingResult", "check_saturation_window", "extract_parameters",
        "size_four_resistor", "size_two_resistor",
    ),
    "transient": ("Waveform", "detect_glitches", "staircase_codes", "synthesize"),
    "hdlgen": ("HdlArtifact", "generate_dac", "generate_staircase"),
    "explorer": ("SweepPoint", "sweep_parallel"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
