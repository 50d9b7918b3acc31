"""Command line front end: schemas, exit codes, determinism, round-trips."""

import numpy as np
import pytest

from splitgas.cli import main
from splitgas.errors import ConfigError, ConvergenceError
from splitgas.tables import read_table, validate_table

REF_TRAPPED = """\
trap:
  species: rb87
  nu_perp_hz: 1400.0
  nu_long_hz: 7.0
  regime: thomas_fermi
  atom_number_total: 7000
"""

REF_HOMOG = """\
trap:
  species: rb87
  nu_perp_hz: 1400.0
  regime: homogeneous
  peak_density_per_um: 46.0
  system_length_um: 100.0
grids:
  zbar_um: {start: 0.0, stop: 30.0, num: 61}
  times_ms: [0.0, 5.0, 10.0]
"""


@pytest.fixture
def trapped_file(tmp_path):
    path = tmp_path / "trapped.yaml"
    path.write_text(REF_TRAPPED)
    return str(path)


@pytest.fixture
def homog_file(tmp_path):
    path = tmp_path / "homog.yaml"
    path.write_text(REF_HOMOG)
    return str(path)


def _cell(path, name, row=0):
    _, columns, rows = read_table(path)
    return rows[row][columns.index(name)]


def _prov(path):
    provenance, _, _ = read_table(path)
    return dict(provenance)


def test_params_reference_row(trapped_file, tmp_path):
    out = str(tmp_path / "params.csv")
    assert main(["params", "--config", trapped_file, "--out", out]) == 0
    validate_table(out)
    assert _cell(out, "c_mm_per_s") == pytest.approx(1.8, rel=0.03)
    assert _cell(out, "R_um") == pytest.approx(56.0, rel=0.02)
    assert _cell(out, "n_peak_per_um") == pytest.approx(46.0, rel=0.03)
    assert _cell(out, "multimode_1d") == 1.0


def test_schema_error_names_key(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("trap:\n  nu_perp_hz: 1400.0\n  regime: homogeneous\n"
                   "  peak_density_per_um: 46.0\n  system_length_um: 100.0\n")
    code = main(["params", "--config", str(bad)])
    assert code == 2
    assert "trap.mass_kg" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    bad = tmp_path / "bad2.yaml"
    bad.write_text(REF_TRAPPED + "grids:\n  zbar_microns: [1, 2]\n")
    assert main(["params", "--config", str(bad)]) == 2
    assert "grids.zbar_microns" in capsys.readouterr().err


def test_config_xor_preset(trapped_file, capsys):
    assert main(["params"]) == 2
    assert main(["params", "--config", trapped_file, "--preset", "fig4"]) == 2


def test_byte_identical_reruns(trapped_file, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert main(["params", "--config", trapped_file, "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_pcf_homogeneous(homog_file, tmp_path):
    out = str(tmp_path / "pcf.csv")
    assert main(["pcf", "--config", homog_file, "--out", out]) == 0
    _, columns, rows = read_table(out)
    assert columns[0] == "zbar_um"
    arr = np.asarray(rows)
    # t = 0 column is identically 1
    np.testing.assert_allclose(arr[:, columns.index("C_t0ms")], 1.0, atol=1e-12)
    # inner region at t = 5 ms: exponential with the prethermal length
    c5 = arr[:, columns.index("C_t5ms")]
    zb = arr[:, 0]
    l0_um = 15.9754
    inner = (zb > 3.0) & (zb < 2 * 1.7536 * 5 - 3.0)  # inside the cone
    np.testing.assert_allclose(c5[inner], np.exp(-zb[inner] / l0_um), rtol=0.05)
    # outer region: long-range plateau, flat in zbar
    outer = zb > 2 * 1.7536 * 5 + 4.0
    assert c5[outer].std() / c5[outer].mean() < 0.03


def test_pcf_trapped_vanishes_at_edge(trapped_file, tmp_path):
    out = str(tmp_path / "pcf_t.csv")
    assert main(["pcf", "--config", trapped_file, "--times", "5", "10",
                 "--out", out]) == 0
    _, columns, rows = read_table(out)
    arr = np.asarray(rows)
    c10 = arr[:, columns.index("C_t10ms")]
    assert c10[-1] < 0.05          # dead coherence at the cloud edge
    assert arr[0, columns.index("C_t5ms")] == pytest.approx(1.0, abs=1e-9)


def test_pcf_grid_outside_cloud(tmp_path, capsys):
    bad = tmp_path / "outside.yaml"
    bad.write_text(REF_TRAPPED + "grids:\n  zbar_um: [0.0, 30.0, 90.0]\n")
    assert main(["pcf", "--config", str(bad)]) == 2
    assert "cloud" in capsys.readouterr().err


def test_front_homogeneous_velocity(homog_file, tmp_path):
    out = str(tmp_path / "front.csv")
    assert main(["front", "--config", homog_file, "--out", out]) == 0
    prov = _prov(out)
    v = float(prov["velocity_mm_per_s"])
    c_mm = 1.75365  # sound speed at 46 atoms/um
    assert v == pytest.approx(2 * c_mm, rel=0.02)


def test_front_without_spreading_is_a_detection_failure(tmp_path, capsys):
    # a single plane-wave mode carries no front: every detection sits at the
    # same point and the fitted slope is rounding dust (-3.7e-13 mm/s)
    path = tmp_path / "pmax1.yaml"
    path.write_text(REF_HOMOG + "truncation:\n  p_max: 1\n")
    out = tmp_path / "front.csv"
    assert main(["front", "--config", str(path), "--out", str(out)]) == 4
    assert "fitted front velocity -3.7" in capsys.readouterr().err
    assert not out.exists()


def test_front_moving_less_than_a_grid_step_is_a_detection_failure(
        homog_file, monkeypatch, capsys):
    import splitgas.observables as observables
    from splitgas.observables import FrontTrace

    def creeping_front(field):
        ts = field.times
        dz = field.positions[1] - field.positions[0]
        return FrontTrace(times=ts, positions=20e-6 + 0.5 * dz * ts / ts[-1],
                          method="mixed_derivative")

    monkeypatch.setattr(observables, "extract_front", creeping_front)
    assert main(["front", "--config", homog_file]) == 4
    err = capsys.readouterr().err
    assert "fitted front velocity 0.00" in err and "less than one grid step" in err


def test_front_atom_number_scan(tmp_path):
    doc = REF_TRAPPED + "analysis:\n  scan_atom_numbers: [3000, 6000, 9000]\n"
    cfg = tmp_path / "scan.yaml"
    cfg.write_text(doc)
    out = str(tmp_path / "scan.csv")
    assert main(["front", "--config", str(cfg), "--out", out]) == 0
    prov = _prov(out)
    v = [float(prov[f"velocity_N{n}_mm_per_s"]) for n in (3000, 6000, 9000)]
    assert v[0] < v[1] < v[2]      # faster fronts at higher atom number
    _, columns, rows = read_table(out)
    assert "R_half_um" in columns
    arr = np.asarray(rows)
    assert set(np.unique(arr[:, columns.index("atom_number")])) == {3000.0, 6000.0, 9000.0}


def test_front_regime_comparison(tmp_path):
    doc = REF_TRAPPED + "analysis:\n  compare_regimes: true\n"
    cfg = tmp_path / "cmp.yaml"
    cfg.write_text(doc)
    out = str(tmp_path / "cmp.csv")
    assert main(["front", "--config", str(cfg), "--out", out]) == 0
    vh = _cell(out, "velocity_homogeneous_mm_per_s")
    vt = _cell(out, "velocity_thomas_fermi_mm_per_s")
    vq = _cell(out, "velocity_quasi_1d_mm_per_s")
    assert vq < vt < vh
    gap = (vt - vq) / vt
    assert 0.05 <= gap <= 0.15


def test_front_scan_with_regime_comparison_refused(tmp_path, monkeypatch, capsys):
    # the comparison table would silently drop the scan
    monkeypatch.setattr("splitgas.cli._modes", lambda *args: pytest.fail("mode basis built"))
    cfg = tmp_path / "both.yaml"
    cfg.write_text(REF_TRAPPED + "analysis:\n  scan_atom_numbers: [3000, 6000]\n"
                   "  compare_regimes: true\n")
    assert main(["front", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "analysis.scan_atom_numbers" in err and "analysis.compare_regimes" in err


def test_recurrence_homogeneous_exact(homog_file, tmp_path):
    out = str(tmp_path / "rec.csv")
    assert main(["recurrence", "--config", homog_file, "--t-max", "90",
                 "--out", out]) == 0
    prov = _prov(out)
    top = dict(item.split("=") for item in prov["recurrence_1"].split())
    t_rev_ms = 100.0 / (2 * 1.75365)  # L / 2c in ms
    k = round(float(top["t_ms"]) / t_rev_ms)
    assert abs(float(top["t_ms"]) - k * t_rev_ms) < 0.5
    assert float(top["strength"]) == pytest.approx(1.0, abs=1e-9)


def test_recurrence_trapped_202ms(trapped_file, tmp_path):
    out = str(tmp_path / "rec_t.csv")
    assert main(["recurrence", "--config", trapped_file, "--out", out]) == 0
    prov = _prov(out)
    top = dict(item.split("=") for item in prov["recurrence_1"].split())
    assert float(top["t_ms"]) == pytest.approx(202.0, abs=5.0)
    assert float(top["strength"]) < 0.999


def test_recurrence_detection_failure(trapped_file, capsys):
    # nothing rephases in the first 3 ms: exit code 4
    assert main(["recurrence", "--config", trapped_file, "--t-max", "3"]) == 4
    assert "detection failure" in capsys.readouterr().err


def test_contrast_length_ordering(trapped_file, tmp_path):
    doc = REF_TRAPPED + "analysis:\n  contrast_lengths_um: [5.0, 20.0, 50.0, 90.0]\n"
    cfg = tmp_path / "con.yaml"
    cfg.write_text(doc)
    out = str(tmp_path / "con.csv")
    assert main(["contrast", "--config", str(cfg), "--t-max", "12",
                 "--out", out]) == 0
    _, columns, rows = read_table(out)
    arr = np.asarray(rows)
    i10 = int(np.argmin(np.abs(arr[:, 0] - 10.0)))
    c2 = [arr[i10, columns.index(f"C2_L{v}um")] for v in ("5", "20", "50", "90")]
    assert all(a > b for a, b in zip(c2, c2[1:]))
    assert np.all(arr[0, 1:] == 1.0)


def test_squeezing_map_table(tmp_path):
    doc = ("trap:\n  species: rb87\n  nu_perp_hz: 1400.0\n  regime: homogeneous\n"
           "  peak_density_per_um: 46.0\n  system_length_um: 100.0\n"
           "squeezing_map:\n  nu_perp_hz: {start: 500.0, stop: 2500.0, num: 5}\n"
           "  length_um: {start: 50.0, stop: 250.0, num: 5}\n")
    cfg = tmp_path / "map.yaml"
    cfg.write_text(doc)
    out = str(tmp_path / "map.csv")
    assert main(["squeezing-map", "--config", str(cfg), "--out", out]) == 0
    _, columns, rows = read_table(out)
    arr = np.asarray(rows)
    assert arr.shape == (25, 4)
    db = arr[:, 3].reshape(5, 5)
    assert np.all(np.diff(db, axis=0) < 0)
    assert np.all(np.diff(db, axis=1) < 0)
    # the reference cell matches the scalar operation bit for bit
    from scipy.constants import pi

    from splitgas import RB87, squeezing_limit

    lim, db_ref = squeezing_limit(2 * pi * 1400.0, 100e-6, RB87.mass,
                                  RB87.scattering_length)
    doc2 = doc.replace("start: 500.0, stop: 2500.0", "start: 1400.0, stop: 2800.0") \
              .replace("start: 50.0, stop: 250.0", "start: 100.0, stop: 500.0")
    cfg2 = tmp_path / "map2.yaml"
    cfg2.write_text(doc2)
    out2 = str(tmp_path / "map2.csv")
    assert main(["squeezing-map", "--config", str(cfg2), "--out", out2]) == 0
    _, cols2, rows2 = read_table(out2)
    first = rows2[0]
    assert first[cols2.index("xi2_lim_db")] == float(format(db_ref, ".12g"))


def test_oracle_command(trapped_file, tmp_path):
    out = str(tmp_path / "oracle.csv")
    assert main(["oracle", "--config", trapped_file, "--realizations", "3000",
                 "--seed", "99", "--out", out]) == 0
    _, columns, rows = read_table(out)
    arr = np.asarray(rows)
    zscores = arr[:, columns.index("z_score")]
    assert np.mean(np.abs(zscores) < 3.0) >= 0.95
    # reruns with the same seed are byte-identical
    out2 = str(tmp_path / "oracle2.csv")
    assert main(["oracle", "--config", trapped_file, "--realizations", "3000",
                 "--seed", "99", "--out", out2]) == 0
    a = open(out).read().splitlines()
    b = open(out2).read().splitlines()
    assert a[3:] == b[3:]   # identical data (config hash line included)


def test_oracle_needs_two_realizations(trapped_file, capsys):
    assert main(["oracle", "--config", trapped_file, "--realizations", "1"]) == 2
    assert "at least 2 realizations" in capsys.readouterr().err


def test_json_mirror(trapped_file, tmp_path):
    out = tmp_path / "p.csv"
    assert main(["params", "--config", trapped_file, "--out", str(out),
                 "--json"]) == 0
    import json

    payload = json.loads((tmp_path / "p.csv.json").read_text())
    assert payload["provenance"]["command"] == "params"
    assert len(payload["rows"]) == 1
    assert main(["params", "--config", trapped_file, "--json"]) == 2  # needs --out


def test_validator_catches_corruption(trapped_file, tmp_path):
    out = tmp_path / "v.csv"
    assert main(["params", "--config", trapped_file, "--out", str(out)]) == 0
    text = out.read_text().splitlines()
    text[-1] = text[-1] + ",1.0"   # extra cell
    out.write_text("\n".join(text) + "\n")
    with pytest.raises(ConfigError):
        validate_table(str(out))


def test_exit_code_convergence(monkeypatch, trapped_file):
    import splitgas.cli as cli

    def boom(sc):
        raise ConvergenceError("stub")

    monkeypatch.setitem(cli._COMMANDS, "params", (boom, "", ()))
    assert main(["params", "--config", trapped_file]) == 3


def test_presets_run(tmp_path):
    # every preset parses, validates and serves at least the params command
    from splitgas.scenario import PRESET_NAMES, preset_scenario

    assert PRESET_NAMES == tuple(f"fig{i}" for i in range(1, 9))
    for name in PRESET_NAMES:
        preset_scenario(name)
    out = str(tmp_path / "fig4.csv")
    assert main(["params", "--preset", "fig4", "--out", out]) == 0


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_oracle_seed_out_of_range(trapped_file, monkeypatch, capsys, seed):
    monkeypatch.setattr("splitgas.cli._modes", lambda *args: pytest.fail("mode basis built"))
    assert main(["oracle", "--config", trapped_file, "--realizations", "10",
                 "--seed", seed]) == 2
    assert f"--seed: expected an integer in [0, 2**64), got {seed}" in capsys.readouterr().err


def test_oracle_zero_realizations_rejected(trapped_file, capsys):
    # 0 is an explicit request, not a fallback to the scenario's count
    assert main(["oracle", "--config", trapped_file, "--realizations", "0"]) == 2
    assert "at least 2 realizations" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["contrast", "recurrence"])
@pytest.mark.parametrize("t_max", ["0", "-5"])
def test_nonpositive_t_max_rejected(trapped_file, capsys, command, t_max):
    assert main([command, "--config", trapped_file, "--t-max", t_max]) == 2
    assert "--t-max" in capsys.readouterr().err


def test_oracle_trust_provenance(trapped_file, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert main(["oracle", "--config", trapped_file, "--realizations", "400",
                     "--seed", "7", "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    prov = _prov(str(paths[0]))
    _, columns, rows = read_table(str(paths[0]))
    zscores = np.abs(np.asarray(rows)[:, columns.index("z_score")])
    frac = float(prov["z_abs_lt3_frac"])
    assert 0.0 <= frac <= 1.0
    assert frac == pytest.approx(np.mean(zscores < 3.0))
    assert float(prov["max_abs_z"]) == pytest.approx(zscores.max(), rel=1e-11)
    assert 0.0 <= float(prov["max_imag_z"]) < 10.0


def test_splitgas_threads_caps_blas_pool(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import splitgas

    if not Path("/proc/self/status").exists():
        pytest.skip("thread count is read from /proc/self/status")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    env["SPLITGAS_THREADS"] = "1"
    src = str(Path(splitgas.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = (
        "import splitgas, numpy as np\n"
        "a = np.random.default_rng(0).standard_normal((300, 300))\n"
        "(a @ a).sum()\n"
        "for line in open('/proc/self/status'):\n"
        "    if line.startswith('Threads:'):\n"
        "        print(line.split()[1])\n"
    )
    out = subprocess.run([sys.executable, "-c", child], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == ["1"]


@pytest.mark.parametrize("density,length,key", [
    (".nan", "100.0", "trap.peak_density_per_um"),
    ("46.0", ".inf", "trap.system_length_um"),
    ("1" + "0" * 400, "100.0", "trap.peak_density_per_um"),   # beyond the float range
])
def test_nonfinite_trap_number_rejected(tmp_path, capsys, density, length, key):
    path = tmp_path / "nonfinite.yaml"
    path.write_text("trap:\n  species: rb87\n  nu_perp_hz: 1400.0\n"
                    "  regime: homogeneous\n"
                    f"  peak_density_per_um: {density}\n  system_length_um: {length}\n")
    assert main(["params", "--config", str(path)]) == 2
    assert key in capsys.readouterr().err


def test_infinite_t_max_rejected(tmp_path, capsys):
    path = tmp_path / "tmax.yaml"
    path.write_text(REF_TRAPPED + "analysis:\n  t_max_ms: .inf\n")
    assert main(["contrast", "--config", str(path)]) == 2
    assert "analysis.t_max_ms" in capsys.readouterr().err


def test_json_mirror_is_strict(homog_file, tmp_path):
    import json

    out = tmp_path / "h.csv"
    assert main(["params", "--config", homog_file, "--out", str(out), "--json"]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    payload = json.loads((tmp_path / "h.csv.json").read_text(), parse_constant=reject)
    row = payload["rows"][0]
    assert row[payload["columns"].index("R_um")] is None   # homogeneous: no radius
    assert row[payload["columns"].index("c_mm_per_s")] == pytest.approx(1.75, rel=0.02)


@pytest.mark.parametrize("command", ["contrast", "recurrence"])
def test_contrast_window_longer_than_box_rejected(tmp_path, capsys, command):
    # a window wider than the periodic box would wrap around it
    path = tmp_path / "wide.yaml"
    path.write_text(REF_HOMOG + "analysis:\n  contrast_lengths_um: [150.0]\n")
    assert main([command, "--config", str(path), "--t-max", "5"]) == 2
    err = capsys.readouterr().err
    assert "150 um" in err and "100 um" in err


def test_contrast_tables_identical_across_threads_and_reruns(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import splitgas

    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    src = str(Path(splitgas.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in (["contrast", "--preset", "fig8", "--t-max", "20"],
                 ["recurrence", "--preset", "fig7"]):
        tables = []
        for run, threads in enumerate(["1", "2", "1"]):
            out = tmp_path / f"{argv[0]}-{run}.csv"
            subprocess.run([sys.executable, "-m", "splitgas.cli", *argv, "--out", str(out)],
                           env={**env, "SPLITGAS_THREADS": threads}, cwd=tmp_path,
                           timeout=300, check=True)
            tables.append(out.read_bytes())
        assert tables[0] == tables[1] == tables[2], argv


@pytest.mark.parametrize("preset", ["fig3", "fig4"])
@pytest.mark.parametrize("times", [["-3", "2"], ["1", "nan"], ["1", "inf"]])
def test_bad_times_flag_rejected(capsys, preset, times):
    assert main(["pcf", "--preset", preset, "--times", *times]) == 2
    assert "--times" in capsys.readouterr().err


@pytest.mark.parametrize("base", [REF_HOMOG.split("grids:")[0], REF_TRAPPED])
@pytest.mark.parametrize("command,section", [("pcf", "grids"), ("oracle", "oracle")])
def test_negative_scenario_times_rejected(tmp_path, capsys, base, command, section):
    path = tmp_path / "negative.yaml"
    path.write_text(base + f"{section}:\n  times_ms: [-3, 2]\n")
    assert main([command, "--config", str(path)]) == 2
    assert f"{section}.times_ms" in capsys.readouterr().err


@pytest.mark.parametrize("command,section", [("pcf", "grids"), ("oracle", "oracle")])
def test_separation_beyond_box_rejected(tmp_path, capsys, command, section):
    # a separation longer than the periodic box would wrap around it
    path = tmp_path / "far.yaml"
    path.write_text(REF_HOMOG.split("grids:")[0]
                    + f"{section}:\n  zbar_um: [0, 10, 100, 150, 5000]\n")
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "5000 um" in err and "periodic box (100 um)" in err


@pytest.mark.parametrize("argv", [
    ["params"], ["pcf"], ["front"], ["contrast", "--t-max", "20"],
    ["oracle", "--realizations", "500", "--seed", "1"],
])
def test_annotated_reference_scenario_runs(tmp_path, argv):
    # its truncation section holds only comments, which YAML reads as null
    from pathlib import Path

    reference = Path(__file__).resolve().parents[1] / "scenarios" / "reference.yaml"
    out = str(tmp_path / "ref.csv")
    assert main([*argv, "--config", str(reference), "--out", out]) == 0
    validate_table(out)


def test_json_without_out_refused_before_the_command(monkeypatch, trapped_file, capsys):
    import splitgas.cli as cli

    calls = []
    monkeypatch.setitem(cli._COMMANDS, "params", (lambda sc: calls.append(sc), "", ()))
    assert main(["params", "--config", trapped_file, "--json"]) == 2
    assert calls == []
    assert "--json requires --out" in capsys.readouterr().err


def test_allocation_failure_exits_2_quoting_numpy(monkeypatch, capsys):
    import splitgas.cli as cli

    # the command is replaced, so nothing oversized is really allocated
    def oversized(sc):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape "
                          "(100000000000,) and data type float64")

    monkeypatch.setitem(cli._COMMANDS, "pcf", (oversized, "", ()))
    assert main(["pcf", "--preset", "fig3"]) == 2
    err = capsys.readouterr().err
    assert "too large to allocate" in err
    assert "Unable to allocate 745. GiB" in err


def test_pcf_provenance_keys(tmp_path):
    out = str(tmp_path / "pcf.csv")
    assert main(["pcf", "--preset", "fig3", "--out", out]) == 0
    assert [k for k, _ in read_table(out)[0]] == [
        "splitgas", "command", "config_sha256", "regime", "truncation", "zprime_um",
        "truncation_doubling_rel", "columns", "rows"]


def test_scan_atom_numbers_name_distinct_velocities(tmp_path, capsys):
    path = tmp_path / "scan.yaml"
    out = str(tmp_path / "scan.csv")
    path.write_text(REF_TRAPPED + "analysis:\n  scan_atom_numbers: [3000.2, 3000.7]\n")
    assert main(["front", "--config", str(path), "--out", out]) == 0
    keys = [k for k, _ in read_table(out)[0] if k.startswith("velocity_N")]
    assert keys == ["velocity_N3000.2_mm_per_s", "velocity_N3000.7_mm_per_s"]
    # the same atom number twice would name one velocity twice
    path.write_text(REF_TRAPPED + "analysis:\n  scan_atom_numbers: [3000, 3000.0]\n")
    assert main(["front", "--config", str(path)]) == 2
    assert "velocity_N3000_mm_per_s" in capsys.readouterr().err


def test_duplicate_contrast_length_rejected(tmp_path, capsys):
    path = tmp_path / "twice.yaml"
    path.write_text(REF_TRAPPED + "analysis:\n  contrast_lengths_um: [20, 20]\n")
    assert main(["contrast", "--config", str(path), "--t-max", "2"]) == 2
    err = capsys.readouterr().err
    assert "duplicate column" in err and "C2_L20um" in err


def test_times_printing_alike_rejected(capsys):
    assert main(["pcf", "--preset", "fig3", "--times", "5", "5.0000001"]) == 2
    assert "--times: 5.0000001 repeats 5.0 (duplicate column 'C_t5ms')" in capsys.readouterr().err


def test_duplicate_contrast_length_refused_before_any_window(tmp_path, monkeypatch, capsys):
    from splitgas import observables

    calls = []
    monkeypatch.setattr(observables, "contrast_trace",
                        lambda *args, **kwargs: calls.append(args))
    path = tmp_path / "twice.yaml"
    path.write_text(REF_TRAPPED + "analysis:\n  contrast_lengths_um: [90, 90.0]\n")
    assert main(["contrast", "--config", str(path)]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert "analysis.contrast_lengths_um: 90.0 repeats 90" in err
    assert "C2_L90um" in err


def test_duplicate_atom_number_refused_at_load(tmp_path):
    from splitgas.scenario import load_scenario

    path = tmp_path / "scan.yaml"
    path.write_text(REF_TRAPPED + "analysis:\n  scan_atom_numbers: [3000.2, 3000.7]\n")
    assert load_scenario(str(path)).scan_atom_numbers == [3000.2, 3000.7]
    path.write_text(REF_TRAPPED + "analysis:\n  scan_atom_numbers: [3000, 6000, 3000.0]\n")
    with pytest.raises(ConfigError, match=r"analysis\.scan_atom_numbers: 3000\.0 repeats 3000"):
        load_scenario(str(path))


def test_directory_as_scenario_file(tmp_path, capsys):
    assert main(["params", "--config", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"cannot read scenario file {tmp_path}" in err


def test_scenario_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.yaml"
    path.write_bytes(b"\xff\xfe" + REF_TRAPPED.encode("utf-16-le"))
    assert main(["params", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"scenario file {path} is not UTF-8 text" in err


def test_missing_scenario_file_message(tmp_path, capsys):
    assert main(["params", "--config", str(tmp_path / "absent.yaml")]) == 2
    assert "scenario file not found:" in capsys.readouterr().err


@pytest.mark.parametrize("key,line", [
    ("trap.nu_long_hz", "  nu_long_hz: false\n"),
    ("trap.system_length_um", "  system_length_um: false\n"),
])
def test_trap_number_refuses_boolean(tmp_path, capsys, key, line):
    # false == 0, but it must not read as "no trap" or "no length"
    path = tmp_path / "bool.yaml"
    path.write_text(REF_TRAPPED + line)
    assert main(["params", "--config", str(path)]) == 2
    assert f"{key}: expected a number, got False" in capsys.readouterr().err


_BOX = REF_HOMOG.split("grids:")[0] + "grids:\n  zbar_um: {start: 0.0, stop: 30.0, num: 61}\n"

# (command, scenario, flags, the scenario with the flags' values as its keys)
FLAG_CASES = [
    ("pcf", _BOX, ["--times", "10", "1", "5"], _BOX + "  times_ms: [10, 1, 5]\n"),
    ("contrast", REF_TRAPPED, ["--t-max", "4"], REF_TRAPPED + "analysis:\n  t_max_ms: 4\n"),
    ("oracle", REF_HOMOG, ["--realizations", "200", "--seed", "7"],
     REF_HOMOG + "oracle:\n  realizations: 200\n  seed: 7\n"),
]


@pytest.mark.parametrize("command,doc,flags,keyed_doc", FLAG_CASES,
                         ids=[case[2][0] for case in FLAG_CASES])
def test_flag_rows_equal_scenario_key_rows(tmp_path, command, doc, flags, keyed_doc):
    plain, keyed = tmp_path / "plain.yaml", tmp_path / "keyed.yaml"
    plain.write_text(doc)
    keyed.write_text(keyed_doc)
    tables = []
    for argv in ([command, "--config", str(plain), *flags],
                 [command, "--config", str(keyed)]):
        out = str(tmp_path / f"{len(tables)}.csv")
        assert main([*argv, "--out", out]) == 0
        tables.append(read_table(out)[1:])
    assert tables[0] == tables[1]
    if command == "pcf":    # an unsorted list runs in time order either way
        assert tables[0][0][1:] == ["C_t1ms", "C_t5ms", "C_t10ms"]


@pytest.mark.parametrize("command,flag,value,section,key,yaml_value", [
    ("pcf", "--times", ["1", "nan"], "grids", "times_ms", "[1.0, .nan]"),
    ("pcf", "--times", ["-3", "2"], "grids", "times_ms", "[-3.0, 2.0]"),
    ("contrast", "--t-max", ["nan"], "analysis", "t_max_ms", ".nan"),
    ("recurrence", "--t-max", ["0"], "analysis", "t_max_ms", "0.0"),
    ("oracle", "--realizations", ["0"], "oracle", "realizations", "0"),
    ("oracle", "--seed", ["-1"], "oracle", "seed", "-1"),
    ("oracle", "--seed", [str(2**64)], "oracle", "seed", str(2**64)),
    ("pcf", "--times", ["5", "5.0000001"], "grids", "times_ms", "[5, 5.0000001]"),
])
def test_bad_flag_reads_as_its_key(tmp_path, trapped_file, monkeypatch, capsys, command,
                                   flag, value, section, key, yaml_value):
    # every bad value is refused at load, before the mode basis is built
    monkeypatch.setattr("splitgas.cli._modes", lambda *args: pytest.fail("mode basis built"))
    assert main([command, "--config", trapped_file, flag, *value]) == 2
    from_flag = capsys.readouterr().err
    path = tmp_path / "keyed.yaml"
    path.write_text(REF_TRAPPED + f"{section}:\n  {key}: {yaml_value}\n")
    assert main([command, "--config", str(path)]) == 2
    from_key = capsys.readouterr().err
    assert f"{section}.{key}" in from_key
    assert from_flag == from_key.replace(f"{section}.{key}", flag)


def test_every_flag_overrides_a_scenario_key():
    import inspect

    import splitgas.cli as cli
    from splitgas.scenario import _SECTIONS

    overrides = {flag[2:].replace("-", "_"): (section, key)
                 for flag, (section, key, _) in cli._FLAGS.items()}
    subparsers = cli._build_parser()._subparsers._group_actions[0].choices
    for name, sub in subparsers.items():
        for action in sub._actions:
            if action.dest in ("help", "config", "preset", "out", "json"):
                continue
            assert action.dest in overrides, (name, action.option_strings)
            section, key = overrides[action.dest]
            assert key in _SECTIONS[section], (section, key)
    for name, fn in vars(cli).items():
        if name.startswith("_cmd_"):
            assert list(inspect.signature(fn).parameters) == ["sc"], name
