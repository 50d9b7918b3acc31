"""Start-up contract: lazy package exports, PyYAML only for --config, OpenSSL
only for the table's hash, cell spelling.

Each command runs in a fresh interpreter, so what it imports is part of its
cost.  ``import splitgas`` loads no submodule; a name is imported on first
access and then resolves to the same object the eager package gave.
"""

import ast
import hashlib
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import splitgas
from splitgas.tables import ResultTable, _fmt

# The package surface: each public name and the module whose attribute it is.
# The mode sums have one name each, in modes.
EXPORTS = {
    "errors": "ConfigError ConvergenceError DetectionError SplitGasError",
    "params": "RB87 PhysicalParams Regime SpeciesPreset TrapConfig dephasing_times "
              "derive_params multimode_condition peak_density_from_atom_number "
              "squeezing_limit squeezing_map",
    "modes": "pointwise_variance variance_field",
    "homogeneous": "PlaneWaveModeSet build_modes covariance_rate phase_covariance "
                   "prethermal_variance recurrence_time thermal_variance variance_rate",
    "trapped": "DensityProfile LegendreModeSet build_trapped_modes mode_frequency "
               "quasi1d_profile",
    "observables": "contrast_evaluator contrast_trace extract_front fit_velocity "
                   "pcf prethermal_pcf recurrence_scan",
    "oracle": "EnsembleSpec EnsembleStats estimate_pcf sample_realization",
}
HOME = {name: module for module, names in EXPORTS.items() for name in names.split()}
SUBMODULES = "errors homogeneous modes observables oracle params trapped".split()


def _child_modules(code: str, tmp_path) -> dict:
    """Run ``code`` in a fresh interpreter; report whether numpy and OpenSSL's
    ``_hashlib`` loaded, and which splitgas/yaml modules."""
    child = (
        "import json, sys\n"
        f"{code}\n"
        "mods = sorted(m for m in sys.modules if m.split('.')[0] in ('splitgas', 'yaml'))\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules,\n"
        "                  'openssl': '_hashlib' in sys.modules, 'modules': mods}))\n"
    )
    env = dict(os.environ)
    src = str(Path(splitgas.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", child], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _command_modules(argv, tmp_path) -> list:
    code = ("from splitgas.cli import main\n"
            f"assert main({[*argv, '--out', 'out.csv']!r}) == 0")
    return _child_modules(code, tmp_path)["modules"]


def test_bare_import_loads_no_submodule(tmp_path):
    loaded = _child_modules("import splitgas", tmp_path)
    assert loaded == {"numpy": False, "openssl": False, "modules": ["splitgas"]}


def test_presets_load_no_openssl_until_the_table_is_hashed(tmp_path):
    # _hashlib maps OpenSSL (~3.6 MB of RSS); only Scenario.sha256 needs it,
    # when the table is written, after a command's arrays are freed
    loaded = _child_modules("from splitgas.cli import main\n"
                            "from splitgas.scenario import preset_scenario\n"
                            "preset_scenario('fig5')", tmp_path)
    assert loaded["numpy"] and "splitgas.scenario" in loaded["modules"]
    assert not loaded["openssl"]


def _load_time_imports(node):
    """Modules that the imports run at load name: those outside function bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom):
            yield child.module or ""
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _load_time_imports(child)


def test_no_module_imports_hashlib_at_load():
    for path in sorted(Path(splitgas.__file__).parent.glob("*.py")):
        assert "hashlib" not in set(_load_time_imports(ast.parse(path.read_text()))), path.name


@pytest.mark.parametrize("name,digest", [
    ("fig3", "6a549e32a07a42a6e398b3a2df9a2db18e9515775e0958f441f5f475f39526d7"),
    ("fig5", "61a2d215d45c56f60cc7a90e30f33e9d1f0923a83bb71eea17929579ab07db7c"),
])
def test_config_hash_is_the_sorted_json_of_the_document(name, digest):
    from splitgas.scenario import preset_scenario

    sc = preset_scenario(name)
    expected = hashlib.sha256(json.dumps(sc.raw, sort_keys=True).encode()).hexdigest()
    assert sc.sha256() == expected == digest


@pytest.mark.parametrize("argv", [["params", "--preset", "fig4"],
                                  ["squeezing-map", "--preset", "fig1"]])
def test_light_commands_import_only_what_they_run(argv, tmp_path):
    loaded = _command_modules(argv, tmp_path)
    assert set(loaded) <= {"splitgas", "splitgas.cli", "splitgas.errors",
                           "splitgas.params", "splitgas.scenario", "splitgas.tables"}
    assert "splitgas.cli" in loaded


def test_pcf_preset_imports_no_yaml_and_no_oracle(tmp_path):
    loaded = _command_modules(["pcf", "--preset", "fig3"], tmp_path)
    assert "splitgas.observables" in loaded
    assert not any(m == "yaml" or m.startswith("yaml.") for m in loaded)
    assert "splitgas.oracle" not in loaded


def test_public_names_resolve_to_their_defining_modules():
    public = [n for n in dir(splitgas) if not n.startswith("_")]
    assert public == sorted([*HOME, *SUBMODULES])
    assert len(HOME) == 41
    for name, module in HOME.items():
        home = importlib.import_module(f"splitgas.{module}")
        assert getattr(splitgas, name) is getattr(home, name), name
    for module in SUBMODULES:
        assert getattr(splitgas, module) is sys.modules[f"splitgas.{module}"]


def test_geometry_modules_bind_no_mode_sum_of_modes():
    from splitgas import homogeneous, modes, trapped

    generic = {id(value) for name, value in vars(modes).items()
               if inspect.isfunction(value) and value.__module__ == modes.__name__}
    for module in (homogeneous, trapped):
        aliases = [name for name, value in vars(module).items()
                   if inspect.isfunction(value) and id(value) in generic]
        assert aliases == [], module.__name__


def test_no_two_exports_name_one_function():
    seen = {}
    for name in splitgas.__all__:
        value = getattr(splitgas, name)
        if inspect.isfunction(value):
            assert id(value) not in seen, (name, seen.get(id(value)))
            seen[id(value)] = name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from splitgas import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert bound == {*HOME, *SUBMODULES}
    assert all(namespace[name] is getattr(splitgas, name) for name in HOME)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        splitgas.no_such_name
    assert not hasattr(splitgas, "no_such_name")


@pytest.mark.parametrize("cell,text", [
    (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
    (-0.0, "-0"), (1e-300, "1e-300"), (np.float32("nan"), "nan"),
    (np.float32(-np.inf), "-inf"), (np.float32(1 / 3), "0.333333343267"),
    (np.float64(1 / 3), "0.333333333333"), (np.float64(-0.0), "-0"),
    (7, "7"), (np.int64(7), "7"), (123456789012345.0, "1.23456789012e+14"),
])
def test_cell_spelling(cell, text):
    assert _fmt(cell) == text


def test_csv_and_json_cells():
    table = ResultTable(["a", "b", "c"], [[np.float64(np.nan), np.float32(np.inf), 2]])
    assert table.to_csv().splitlines()[-1] == "nan,inf,2"
    assert json.loads(table.to_json())["rows"] == [[None, None, 2.0]]
