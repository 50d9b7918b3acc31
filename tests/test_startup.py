"""Start-up contract: lazy package exports, PyYAML only for --config, numpy.random
only on the oracle's first draw, OpenSSL in no command, cell spelling.

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
              "squeezing_limit",
    "modes": "covariance_rate pcf phase_covariance pointwise_variance variance_field",
    "homogeneous": "PlaneWaveModeSet build_modes prethermal_variance recurrence_time",
    "trapped": "DensityProfile LegendreModeSet build_trapped_modes mode_frequency "
               "quasi1d_profile",
    "observables": "contrast_evaluator extract_front fit_velocity prethermal_pcf "
                   "recurrence_scan",
    "oracle": "EnsembleSpec EnsembleStats estimate_pcf",
}
HOME = {name: module for module, names in EXPORTS.items() for name in names.split()}
SUBMODULES = "errors homogeneous modes observables oracle params trapped".split()


def _run_child(code: str, tmp_path) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout; its stdout."""
    env = dict(os.environ)
    src = str(Path(splitgas.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def _child_modules(code: str, tmp_path) -> dict:
    """Run ``code`` in a fresh interpreter; report whether numpy, numpy.random
    and OpenSSL's ``_hashlib`` loaded, and which splitgas/yaml modules.

    A ``None`` entry for ``_hashlib`` (the oracle's import-time block) left
    in ``sys.modules`` fails the run."""
    child = (
        "import json, sys\n"
        f"{code}\n"
        "mods = sorted(m for m in sys.modules if m.split('.')[0] in ('splitgas', 'yaml'))\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules,\n"
        "                  'random': 'numpy.random' in sys.modules,\n"
        "                  'openssl': sys.modules.get('_hashlib') is not None,\n"
        "                  'placeholder': sys.modules.get('_hashlib', 0) is None,\n"
        "                  'modules': mods}))\n"
    )
    record = json.loads(_run_child(child, tmp_path).splitlines()[-1])
    assert not record.pop("placeholder"), "a None _hashlib entry was left in sys.modules"
    return record


def _command_modules(argv, tmp_path) -> dict:
    code = ("from splitgas.cli import main\n"
            f"assert main({[*argv, '--out', 'out.csv']!r}) == 0")
    return _child_modules(code, tmp_path)


def test_bare_import_loads_no_submodule(tmp_path):
    loaded = _child_modules("import splitgas", tmp_path)
    assert loaded == {"numpy": False, "random": False, "openssl": False,
                      "modules": ["splitgas"]}


@pytest.mark.parametrize("command,preset", [("params", "fig4"), ("pcf", "fig3"),
                                            ("front", "fig3"), ("contrast", "fig3"),
                                            ("oracle", "fig4"), ("oracle", "fig3")])
def test_no_command_loads_openssl(command, preset, tmp_path):
    # _hashlib maps OpenSSL (about 3.4 MB of RSS).  The table's config_sha256 comes
    # from the interpreter's built-in SHA-256, and the oracle imports numpy.random
    # (whose secrets imports hmac and hashlib) with _hashlib blocked
    seed = ["--seed", "1"] if command == "oracle" else []
    loaded = _command_modules([command, "--preset", preset, *seed], tmp_path)
    assert loaded["numpy"] and "splitgas.scenario" in loaded["modules"]
    assert loaded["random"] == (command == "oracle")
    assert not loaded["openssl"]


def test_importing_the_oracle_and_every_export_loads_no_numpy_random(tmp_path):
    # numpy.random costs 10-16 ms of start-up; the oracle imports it on its first draw
    loaded = _child_modules(
        "import splitgas.oracle\n"
        "assert 'numpy.random' not in sys.modules\n"
        "import splitgas\n"
        "for name in splitgas.__all__:\n"
        "    getattr(splitgas, name)\n", tmp_path)
    assert loaded["numpy"] and not loaded["random"] and not loaded["openssl"]
    assert "splitgas.oracle" in loaded["modules"]


# A child draws a small ensemble through the library; the test then imports
# what a later part of the session may want
_DRAW = """
import sys
from splitgas import EnsembleSpec, build_modes, derive_params, estimate_pcf
from splitgas.scenario import preset_scenario
sc = preset_scenario('fig3')
modes = build_modes(derive_params(sc.config), sc.config.system_length)
estimate_pcf(EnsembleSpec(8, 3), modes, [1e-6, 5e-6], [1e-3])
assert 'numpy.random' in sys.modules
"""


def test_a_later_import_of_hashlib_gets_openssl_and_seed_sequences_get_entropy(tmp_path):
    out = _run_child(_DRAW + (
        "assert not {'hashlib', 'hmac', '_hashlib'} & sys.modules.keys()\n"
        "import hashlib, hmac\n"
        "import numpy as np\n"
        "assert sys.modules.get('_hashlib') is not None\n"
        "assert hasattr(hashlib, 'pbkdf2_hmac')\n"
        "print(hmac.new(b'splitgas', b'oracle', 'sha256').hexdigest())\n"
        "print(np.random.SeedSequence().entropy != np.random.SeedSequence().entropy)\n"
    ), tmp_path)
    digest, fresh = out.split()
    assert digest == "4d4ed0f5c4f299a56b906bb29c601ae3eef37152bbc45da177ac269ca7bcf0fc"
    assert fresh == "True"


def test_hashlib_imported_first_is_kept_and_the_table_is_unchanged(tmp_path):
    argv = ["oracle", "--preset", "fig4", "--seed", "1", "--out"]
    _run_child("from splitgas.cli import main\n"
               f"assert main({[*argv, 'plain.csv']!r}) == 0\n", tmp_path)
    _run_child(
        "import hashlib, sys\n"
        "before = dict(sys.modules)\n"
        "from splitgas.cli import main\n"
        f"assert main({[*argv, 'first.csv']!r}) == 0\n"
        "assert 'numpy.random' in sys.modules\n"
        "assert all(sys.modules.get(m) is before[m] for m in before), "
        "[m for m in before if sys.modules.get(m) is not before[m]]\n", tmp_path)
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


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


DIGESTS = [
    ("fig3", "6a549e32a07a42a6e398b3a2df9a2db18e9515775e0958f441f5f475f39526d7"),
    ("fig5", "61a2d215d45c56f60cc7a90e30f33e9d1f0923a83bb71eea17929579ab07db7c"),
]


@pytest.mark.parametrize("name,digest", DIGESTS)
def test_config_hash_is_the_sorted_json_of_the_document(name, digest):
    from splitgas.scenario import preset_scenario

    sc = preset_scenario(name)
    expected = hashlib.sha256(json.dumps(sc.raw, sort_keys=True).encode()).hexdigest()
    assert sc.sha256() == expected == digest


@pytest.mark.parametrize("blocked", [(), ("_sha2",), ("_sha2", "_sha256")],
                         ids=["builtin", "no_sha2", "hashlib"])
@pytest.mark.parametrize("name,digest", DIGESTS)
def test_config_hash_is_the_same_on_every_import_branch(name, digest, blocked, monkeypatch):
    # _sha2 is CPython >= 3.12's built-in module, _sha256 that of 3.10-3.11;
    # a None entry in sys.modules makes its import fail
    from splitgas.scenario import _sha256, preset_scenario

    for module in blocked:
        monkeypatch.setitem(sys.modules, module, None)
    constructor = _sha256()
    if not blocked:
        assert constructor.__module__ in ("_sha2", "_sha256")
    if "_sha256" in blocked:
        assert constructor is hashlib.sha256
    assert preset_scenario(name).sha256() == digest


@pytest.mark.parametrize("argv", [["params", "--preset", "fig4"],
                                  ["squeezing-map", "--preset", "fig1"]])
def test_light_commands_import_only_what_they_run(argv, tmp_path):
    loaded = _command_modules(argv, tmp_path)["modules"]
    assert set(loaded) <= {"splitgas", "splitgas.cli", "splitgas.errors",
                           "splitgas.params", "splitgas.scenario", "splitgas.tables"}
    assert "splitgas.cli" in loaded


def test_pcf_preset_imports_no_yaml_and_no_oracle(tmp_path):
    # pcf reads the correlation function from modes; observables stays unloaded
    loaded = _command_modules(["pcf", "--preset", "fig3"], tmp_path)["modules"]
    assert "splitgas.modes" in loaded and "splitgas.observables" not in loaded
    assert not any(m == "yaml" or m.startswith("yaml.") for m in loaded)
    assert "splitgas.oracle" not in loaded


@pytest.mark.parametrize("argv", [["pcf", "--preset", "fig4"], ["front", "--preset", "fig5"],
                                  ["contrast", "--preset", "fig8"],
                                  ["recurrence", "--preset", "fig7"],
                                  ["oracle", "--preset", "fig4", "--seed", "1"]])
def test_trapped_commands_never_load_the_box(argv, tmp_path):
    # the box's module is plane waves and their own statistics; a cloud asks its
    # basis (radius, pair rows, generic sums in modes) and never the box class
    loaded = _command_modules(argv, tmp_path)["modules"]
    assert "splitgas.trapped" in loaded and "splitgas.homogeneous" not in loaded


def test_public_names_resolve_to_their_defining_modules():
    public = [n for n in dir(splitgas) if not n.startswith("_")]
    assert public == sorted([*HOME, *SUBMODULES])
    assert len(HOME) == 36
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


def _trig_of_mode_k(tree) -> set:
    """Qualified names of the functions that call cos or sin on an expression that
    reads a ``.k``, or a local name assigned from one."""
    def reads_k(node, tainted):
        return any(isinstance(n, ast.Attribute) and n.attr == "k"
                   or isinstance(n, ast.Name) and n.id in tainted for n in ast.walk(node))

    found = set()

    def visit(node, scope, tainted):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}{child.name}.", set())
                continue
            if isinstance(child, ast.Assign) and reads_k(child.value, tainted):
                tainted |= {n.id for t in child.targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)}
            if isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in ("cos", "sin") and any(reads_k(a, tainted) for a in child.args):
                    found.add(scope.rstrip("."))
            visit(child, scope, tainted)

    visit(tree, "", set())
    return found


def test_mode_functions_are_written_only_in_pair_functions():
    # the box's one table of mode functions: no other sum restates cos/sin(k z)
    found = set()
    for path in Path(splitgas.__file__).parent.glob("*.py"):
        found |= _trig_of_mode_k(ast.parse(path.read_text()))
    assert found == {"PlaneWaveModeSet.pair_functions"}


def _lapack_calls(tree) -> set:
    """Each call to polyfit, lstsq or anything under linalg, and each import of linalg."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func).split(".")
            if name[-1] in ("polyfit", "lstsq") or "linalg" in name:
                found.add(ast.unparse(node.func))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            if any("linalg" in name.split(".") for name in names):
                found.add(ast.unparse(node))
    return found


def test_no_module_calls_lapack():
    # a LAPACK call makes its kernels resident: np.polyfit in the velocity fit
    # cost every front command about 1.1 MB of peak RSS
    for path in Path(splitgas.__file__).parent.glob("*.py"):
        assert _lapack_calls(ast.parse(path.read_text())) == set(), path.name


def test_lapack_guard_sees_each_spelling():
    source = ("np.polyfit(t, z, 1)\nnumpy.linalg.lstsq(a, b)\nnp.linalg.norm(x)\n"
              "from numpy.linalg import solve\nimport numpy.linalg\nfrom numpy import linalg\n"
              "linalg.eigh(a)\nnp.dot(a, b)\n")
    assert _lapack_calls(ast.parse(source)) == {
        "np.polyfit", "numpy.linalg.lstsq", "np.linalg.norm", "from numpy.linalg import solve",
        "import numpy.linalg", "from numpy import linalg", "linalg.eigh"}


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
