"""Scenario parsing, unit conversion and result-table round trips."""

import re

import numpy as np
import pytest
from scipy.constants import pi

from splitgas.errors import ConfigError
from splitgas.scenario import load_scenario, preset_scenario
from splitgas.tables import ResultTable, read_table, validate_table, write_table


def _write(tmp_path, text):
    path = tmp_path / "s.yaml"
    path.write_text(text)
    return str(path)


BASE = """\
trap:
  species: rb87
  nu_perp_hz: 1400.0
  nu_long_hz: 7.0
  regime: thomas_fermi
  atom_number_total: 7000
"""


def test_units_convert_on_ingestion(tmp_path):
    sc = load_scenario(_write(tmp_path, BASE + """\
grids:
  zbar_um: [0.0, 5.0, 10.0]
  times_ms: {start: 0.0, stop: 10.0, num: 11}
truncation:
  j_max: 80
analysis:
  length_um: 120.0
  fit_window_ms: [1.0, 8.0]
"""))
    assert sc.config.omega_perp == pytest.approx(2 * pi * 1400.0, rel=1e-15)
    assert sc.config.omega_long == pytest.approx(2 * pi * 7.0, rel=1e-15)
    np.testing.assert_allclose(sc.zbar, np.array([0, 5e-6, 10e-6]))
    assert sc.times[-1] == pytest.approx(10e-3)
    assert sc.j_max == 80
    assert sc.length == pytest.approx(120e-6)
    assert sc.fit_window == (1e-3, 8e-3)


def test_species_override(tmp_path):
    sc = load_scenario(_write(tmp_path, BASE.replace(
        "species: rb87", "species: rb87\n  scattering_length_nm: 2.6")))
    assert sc.config.scattering_length == pytest.approx(2.6e-9)


def test_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError, match="trap.nu_perp_hz"):
        load_scenario(_write(tmp_path, BASE.replace("1400.0", "-3")))
    with pytest.raises(ConfigError, match="trap.regime"):
        load_scenario(_write(tmp_path, BASE.replace("thomas_fermi", "spherical")))
    with pytest.raises(ConfigError, match="unknown key"):
        load_scenario(_write(tmp_path, BASE + "extra_section: {}\n"))
    with pytest.raises(ConfigError, match="grids.zbar_um"):
        load_scenario(_write(tmp_path, BASE + "grids:\n  zbar_um: {start: 5, stop: 1, num: 3}\n"))
    with pytest.raises(ConfigError, match="species"):
        load_scenario(_write(tmp_path, BASE.replace("rb87", "na23")))
    with pytest.raises(ConfigError):
        load_scenario(str(tmp_path / "missing.yaml"))


def test_scenario_hash_tracks_content(tmp_path):
    a = load_scenario(_write(tmp_path, BASE))
    b = load_scenario(_write(tmp_path, BASE))
    c = load_scenario(_write(tmp_path, BASE.replace("7000", "7001")))
    assert a.sha256() == b.sha256()
    assert a.sha256() != c.sha256()


def test_preset_round_trip():
    sc = preset_scenario("fig8")
    assert sc.config.regime.value == "thomas_fermi"
    assert [round(x * 1e6) for x in sc.contrast_lengths] == [5, 20, 50, 90]
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_scenario("fig9")


def test_table_round_trip(tmp_path):
    table = ResultTable(
        columns=["a_um", "b"],
        rows=[[1.0, 2.5], [3.25e-7, -4.0]],
        provenance=[("splitgas", "0.1.0"), ("command", "test")],
    )
    path = str(tmp_path / "t.csv")
    write_table(table, path, json_mirror=True)
    provenance, columns, rows = read_table(path)
    assert dict(provenance)["command"] == "test"
    assert columns == ["a_um", "b"]
    assert rows[1][0] == pytest.approx(3.25e-7, rel=1e-12)
    validate_table(path)
    import json

    mirror = json.loads(open(path + ".json").read())
    assert mirror["columns"] == ["a_um", "b"]


@pytest.mark.parametrize("row,message", [
    ("3,abc", "row 1, column 'b': 'abc' is not a number"),
    ("3,4,x", "row 1, column 2: 'x' is not a number"),
])
def test_unparsable_cell_names_path_row_and_column(tmp_path, row, message):
    path = tmp_path / "t.csv"
    path.write_text(f"# columns: 2\n# rows: 2\na,b\n1,2\n{row}\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
        validate_table(str(path))


def test_table_width_mismatch():
    with pytest.raises(ConfigError):
        ResultTable(columns=["a"], rows=[[1.0, 2.0]])


def test_duplicate_table_names_rejected():
    with pytest.raises(ConfigError, match="duplicate column 'a'"):
        ResultTable(columns=["a", "b", "a"], rows=[[1.0, 2.0, 3.0]])
    with pytest.raises(ConfigError, match="duplicate provenance key 'seed'"):
        ResultTable(columns=["a"], rows=[[1.0]],
                    provenance=[("seed", "1"), ("command", "x"), ("seed", "2")])


def test_schema_names_every_scenario_field_once():
    from dataclasses import fields

    from splitgas.scenario import _SECTIONS, Scenario

    named = [attr for schema in _SECTIONS.values() for attr, _ in schema.values()]
    assert sorted(named) == sorted(
        f.name for f in fields(Scenario) if f.name not in ("raw", "config"))


def test_empty_optional_section_allowed(tmp_path):
    sc = load_scenario(_write(tmp_path, BASE + "truncation:\n  # j_max: 80\ngrids:\n"))
    # the empty grids section leaves the default time grid, 0 to 10 ms in 1 ms steps
    assert sc.j_max is None and np.array_equal(sc.times, np.linspace(0.0, 10.0, 11) * 1e-3)
    with pytest.raises(ConfigError, match="grids: expected a mapping"):
        load_scenario(_write(tmp_path, BASE + "grids: []\n"))
    with pytest.raises(ConfigError, match="trap: expected a mapping"):
        load_scenario(_write(tmp_path, "trap:\ngrids:\n  times_ms: [1]\n"))
