"""Import layering: which gpiodac modules, and whether numpy, each entry point loads.

extract, size and hdl only read a config or a curve and write text, so they
must start, and run, without numpy; every command loads only the layers it
runs. Each check runs in a fresh interpreter, since this process has long
since imported everything.
"""

import ast
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
NUMPY_FREE = {"gpiodac", "gpiodac.cli", "gpiodac.config"}
# Public names retired with no replacement under their name: each duplicated a remaining path.
RETIRED = ("SwitchModel", "ideal_output", "switch_model_output", "error_factor_output",
           "two_resistor_output", "stretched_output", "drain_current", "on_resistance",
           "midrange_resistance", "SolverError", "solve_code", "dnl", "inl", "pin_states",
           "pin_group", "step_cycles_for", "manifest_text", "generate_constraints", "solve_columns",
           "Polarity", "classify_region", "DeviceError", "ExtractionError", "GenerationError",
           "Standalone", "TwoResistor", "FourResistor", "Topology")
# Every gpiodac module; devices exports no public name, so it is not in _EXPORTS.
LAYERS = ("cli", "devices", *gpiodac._EXPORTS)
SWEEP_TOPOLOGY = {"kind": "four_resistor", "rsp": 10.0, "rsn": 0.0, "rpp": 5.0, "rpn": 5.0}

# Run the body, then print its status and the sorted gpiodac modules (and numpy, if loaded).
_PROBE = """
import json, sys
status = 0
{body}
loaded = sorted(m for m, module in sys.modules.items()
                if module is not None and (m == "numpy" or m.split(".")[0] == "gpiodac"))
print(json.dumps([status, loaded]))
"""
_MAIN = """
from gpiodac.cli import main
try:
    status = main(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
"""
# A None entry in sys.modules makes every import of numpy fail.
_MAIN_WITHOUT_NUMPY = 'sys.modules["numpy"] = None\n' + _MAIN


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
    "hdl": (["hdl", *CONFIG, *OUT], {"hdl.module_name": "dac4_binary"}, {"hdlgen"},
            {f"dac4_binary{s}": f"dac4_binary{s}" for s in (".v", ".pcf", "_manifest.json")}),
    "hdl_staircase": (["hdl", *CONFIG, "--staircase", *OUT], {"hdl.module_name": "stair4"},
                      {"hdlgen"}, {"stair4.v": "stair4.v"}),
    # params.json holds the knobs of test_cli.TWO_RESISTOR_FLAGS, so the report is their golden.
    "size_two_resistor": (["size", "two-resistor", "--params", "params.json", *OUT], {},
                          {"sizing"}, {"report.json": "report_size_two_resistor.json"}),
    "size_four_resistor": (["size", "four-resistor", *FOUR_RESISTOR_FLAGS, *OUT], {}, {"sizing"},
                           {"report.json": "report_size_four_resistor.json"}),
    "version": (["--version"], {}, set(), {}),
    "simulate": (["simulate", *CONFIG, *OUT], {}, SOLVE | {"metrics"},
                 {"transfer.csv": "transfer_dac4_standalone.csv",
                  "report.json": "report_dac4_standalone.json"}),
    "extract": (["extract", "--curve", "transfer.csv", "--vdd", "3.3", *OUT], {}, {"sizing"},
                {"params.json": "params_dac4_standalone.json"}),
    "sweep": (["sweep", *CONFIG, "--rp", "5,6,7,8,9,10", *OUT], {"dac.topology": SWEEP_TOPOLOGY},
              SOLVE | {"explorer", "metrics"}, {"sweep.csv": "sweep_dac4_four_resistor.csv"}),
    "transient": (["transient", *CONFIG, "--seed", "7", *OUT], {}, SOLVE | {"transient"},
                  {"waveform.csv": "waveform_dac4_seed7.csv"}),
}


def run_command(tmp_path: Path, name: str, body: str) -> set[str]:
    """The modules a fresh interpreter loads running COMMANDS[name] after body; it must exit 0
    and write its goldens."""
    argv, overrides, _, goldens = COMMANDS[name]
    write_config(tmp_path, overrides)
    (tmp_path / "params.json").write_text(json.dumps(PARAMS))
    (tmp_path / "transfer.csv").write_bytes((GOLDEN / "transfer_dac4_standalone.csv").read_bytes())
    status, modules = probe(body, *argv, cwd=tmp_path)
    assert status == 0
    for output, golden in goldens.items():
        assert (tmp_path / "out" / output).read_bytes() == (GOLDEN / golden).read_bytes(), output
    return modules


@pytest.mark.parametrize("name", COMMANDS)
def test_each_command_loads_only_its_layers_and_writes_its_goldens(tmp_path, name):
    extra = COMMANDS[name][2]
    modules = run_command(tmp_path, name, _MAIN)
    assert modules == NUMPY_FREE | {m if m == "numpy" else f"gpiodac.{m}" for m in extra}


NUMPY_FREE_COMMANDS = [name for name in COMMANDS if "numpy" not in COMMANDS[name][2]]


@pytest.mark.parametrize("name", NUMPY_FREE_COMMANDS)
def test_numpy_free_commands_run_where_numpy_cannot_be_imported(tmp_path, name):
    assert "numpy" not in run_command(tmp_path, name, _MAIN_WITHOUT_NUMPY)


@pytest.mark.parametrize("name", NUMPY_FREE_COMMANDS)
def test_numpy_free_commands_do_not_load_tempfile(tmp_path, name):
    # Made unimportable rather than looked for: site customisation may have loaded it already.
    run_command(tmp_path, name, 'sys.modules["tempfile"] = None\n' + _MAIN)


class TestLazyExports:
    def test_each_name_is_the_object_its_defining_module_holds(self):
        for name in gpiodac.__all__:
            module = importlib.import_module(f"gpiodac.{gpiodac._MODULE_OF[name]}")
            value = getattr(gpiodac, name)
            assert value is getattr(module, name), name
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, name

    def test_config_names_have_one_home(self):
        from gpiodac import config, devices, hdlgen, network

        # Imports that once only re-exported a config name, each gone from its old module.
        dropped = {
            devices: ("DevicePair", "MosfetParams", "Polarity", "calibrated_pair"),
            network: ("MAX_BITS", "Encoding", "LinearSwitch", "Topology"),
            hdlgen: ("GenerationError", "default_pin_assignments"),
        }
        for module, names in dropped.items():
            for name in names:
                assert not hasattr(module, name), f"{module.__name__}.{name}"
        # A config name a layer still imports, because it uses it, is the config object.
        for module in LAYERS:
            mod = importlib.import_module(f"gpiodac.{module}")
            for name, value in vars(config).items():
                if module != "config" and not name.startswith("__") and hasattr(mod, name):
                    assert getattr(mod, name) is value, f"{mod.__name__}.{name}"

    def test_all_has_35_names(self):
        assert len(gpiodac.__all__) == 35

    def test_readme_documents_every_public_name(self):
        readme = (SRC.parent / "README.md").read_text()
        assert [name for name in gpiodac.__all__ if f"`{name}" not in readme] == []

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

    @pytest.mark.parametrize("name", RETIRED)
    def test_retired_name_is_defined_nowhere(self, name):
        with pytest.raises(AttributeError, match=f"'{name}'"):
            getattr(gpiodac, name)
        for module in LAYERS:
            assert not hasattr(importlib.import_module(f"gpiodac.{module}"), name), module

    def test_analytic_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError, match="gpiodac.analytic"):
            importlib.import_module("gpiodac.analytic")

    def test_from_import_still_loads_submodules(self):
        body = ("from gpiodac import cli, explorer\n"
                "names = (cli.__name__, explorer.__name__)\n"
                "status = int(names != ('gpiodac.cli', 'gpiodac.explorer'))")
        status, modules = probe(body)
        assert status == 0
        assert {"gpiodac.cli", "gpiodac.explorer"} <= modules


@pytest.mark.parametrize("path", sorted((SRC / "gpiodac").glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # An import that is never read only re-exports a name that has its home elsewhere.
    tree = ast.parse(path.read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in imports
        if getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
