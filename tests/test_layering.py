"""Import layering: which gpiodac modules, and whether numpy, each entry point loads.

hdl and size only read a config and write text, so they must start without
numpy; the commands that solve load only the layers they run. Each check runs
in a fresh interpreter, since this process has long since imported everything.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import FOUR_RESISTOR_FLAGS, GOLDEN, PARAMS, write_config

import gpiodac

SRC = Path(__file__).resolve().parents[1] / "src"
NUMPY_FREE = {"gpiodac", "gpiodac.cli", "gpiodac.config", "gpiodac.hdlgen", "gpiodac.sizing"}
SWEEP_TOPOLOGY = {"kind": "four_resistor", "rsp": 10.0, "rsn": 0.0, "rpp": 5.0, "rpn": 5.0}

# Run the body, then print its status and the sorted gpiodac modules (and numpy, if loaded).
_PROBE = """
import json, sys
status = 0
{body}
loaded = sorted(m for m in sys.modules if m == "numpy" or m.split(".")[0] == "gpiodac")
print(json.dumps([status, loaded]))
"""
_MAIN = """
from gpiodac.cli import main
try:
    status = main(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
"""


def probe(body: str, *argv: str, cwd: Path | None = None) -> tuple[int, set[str]]:
    """(status, modules) of a fresh interpreter that ran body with argv."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("GPIODAC_OUTPUT_DIR", None)
    done = subprocess.run([sys.executable, "-c", _PROBE.format(body=body), *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    status, loaded = json.loads(done.stdout.strip().splitlines()[-1])
    return status, set(loaded)


@pytest.mark.parametrize(
    "body, modules",
    [
        ("import gpiodac", {"gpiodac"}),
        ("import gpiodac.cli", NUMPY_FREE),
        ("import gpiodac; gpiodac.DacConfig", {"gpiodac", "gpiodac.config"}),
        ("import gpiodac; gpiodac.calibrated_pair", {"gpiodac", "gpiodac.config"}),
        ("import gpiodac; gpiodac.size_four_resistor",
         {"gpiodac", "gpiodac.config", "gpiodac.sizing"}),
        ("import gpiodac; gpiodac.generate_dac", {"gpiodac", "gpiodac.config", "gpiodac.hdlgen"}),
    ],
)
def test_imports_load_no_numpy(body, modules):
    assert probe(body) == (0, modules)


CONFIG, OUT = ("-c", "config.json"), ("-o", "out")
SOLVE = {"devices", "network", "numpy"}
# name -> (argv, config overrides, modules besides NUMPY_FREE, {output: golden}).
COMMANDS = {
    "hdl": (["hdl", *CONFIG, *OUT], {"hdl.module_name": "dac4_binary"}, set(),
            {f"dac4_binary{s}": f"dac4_binary{s}" for s in (".v", ".pcf", "_manifest.json")}),
    "hdl_staircase": (["hdl", *CONFIG, "--staircase", *OUT], {"hdl.module_name": "stair4"}, set(),
                      {"stair4.v": "stair4.v"}),
    "size_two_resistor": (["size", "two-resistor", "--params", "params.json", *OUT], {}, set(), {}),
    "size_four_resistor": (["size", "four-resistor", *FOUR_RESISTOR_FLAGS, *OUT], {}, set(),
                           {"report.json": "report_size_four_resistor.json"}),
    "version": (["--version"], {}, set(), {}),
    "simulate": (["simulate", *CONFIG, *OUT], {}, SOLVE | {"metrics"},
                 {"transfer.csv": "transfer_dac4_standalone.csv",
                  "report.json": "report_dac4_standalone.json"}),
    "extract": (["extract", "--curve", "transfer.csv", "--vdd", "3.3", *OUT], {}, {"numpy"},
                {"params.json": "params_dac4_standalone.json"}),
    "sweep": (["sweep", *CONFIG, "--rp", "5,6,7,8,9,10", *OUT], {"dac.topology": SWEEP_TOPOLOGY},
              SOLVE | {"explorer", "metrics"}, {"sweep.csv": "sweep_dac4_four_resistor.csv"}),
    "transient": (["transient", *CONFIG, "--seed", "7", *OUT], {}, SOLVE | {"transient"},
                  {"waveform.csv": "waveform_dac4_seed7.csv"}),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_each_command_loads_only_its_layers_and_writes_its_goldens(tmp_path, name):
    argv, overrides, extra, goldens = COMMANDS[name]
    write_config(tmp_path, overrides)
    (tmp_path / "params.json").write_text(json.dumps(PARAMS))
    (tmp_path / "transfer.csv").write_bytes((GOLDEN / "transfer_dac4_standalone.csv").read_bytes())
    status, modules = probe(_MAIN, *argv, cwd=tmp_path)
    assert status == 0
    assert modules == NUMPY_FREE | {m if m == "numpy" else f"gpiodac.{m}" for m in extra}
    for output, golden in goldens.items():
        assert (tmp_path / "out" / output).read_bytes() == (GOLDEN / golden).read_bytes(), output


class TestLazyExports:
    def test_each_name_is_the_object_its_defining_module_holds(self):
        for name in gpiodac.__all__:
            module = importlib.import_module(f"gpiodac.{gpiodac._MODULE_OF[name]}")
            value = getattr(gpiodac, name)
            assert value is getattr(module, name), name
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, name

    def test_moved_types_keep_one_definition_under_their_old_modules(self):
        from gpiodac import config, devices, metrics, network, transient

        old_homes = {
            devices: ("Polarity", "OperatingRegion", "DeviceError", "MosfetParams", "LinearSwitch",
                      "DevicePair", "UnitDevice", "calibrated_pair"),
            network: ("Encoding", "ParallelAttach", "Standalone", "TwoResistor", "FourResistor",
                      "Topology", "MAX_BITS", "DacConfig", "SolverError"),
            transient: ("TimingParams",),
            metrics: ("MetricsError",),
        }
        for module, names in old_homes.items():
            for name in names:
                assert getattr(module, name) is getattr(config, name), f"{module.__name__}.{name}"

    def test_dir_covers_all(self):
        assert set(gpiodac.__all__) <= set(dir(gpiodac))
        assert gpiodac.__all__ == sorted(set(gpiodac.__all__))

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from gpiodac import *", namespace)
        assert set(gpiodac.__all__) <= set(namespace)

    def test_unknown_name_is_an_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="'nope'"):
            gpiodac.nope

    def test_from_import_still_loads_submodules(self):
        body = ("from gpiodac import cli, explorer\n"
                "names = (cli.__name__, explorer.__name__)\n"
                "status = int(names != ('gpiodac.cli', 'gpiodac.explorer'))")
        status, modules = probe(body)
        assert status == 0
        assert {"gpiodac.cli", "gpiodac.explorer"} <= modules
