"""The runtime path imports only numpy and PyYAML.

scipy is the reference here: the numpy peaks and prominences and the
Gaussian smoother must reproduce scipy.signal.find_peaks and
scipy.ndimage.gaussian_filter1d bit for bit, and the closed-form quasi-1D
normalisation must agree with a quadrature of the returned density.  The
front detector keeps each row's tallest peak where find_peaks ranks by
prominence; the two row-loop references below keep scipy's most prominent
peak, and the detector matches them on the cone and trapped fields they
build, where both rules detect the same peaks.  A subprocess runs every command and
checks that scipy was never imported.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.ndimage import gaussian_filter1d
from scipy.signal import find_peaks

import splitgas
from splitgas.modes import variance_field
from splitgas.observables import (
    DEFAULT_PROMINENCE_REL,
    _gaussian_smooth,
    _peaks,
    _prominences,
    _refine_peak,
    extract_front,
)
from splitgas.params import derive_params
from splitgas.trapped import _quasi1d_density, quasi1d_profile


def _random_rows(seed, count):
    """Rows of length 3..400; every third one rounded so it has plateaus."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        x = rng.standard_normal(int(rng.integers(3, 401)))
        if i % 3 == 0:
            x = np.round(x * rng.integers(1, 4))
        if i % 5 == 0:
            x = np.cumsum(x)      # long monotone stretches and far-away higher peaks
        yield rng, x


def _peak_prominences(x):
    """Every peak of every row of ``x`` and its prominence, as ``find_peaks`` lists them.

    Each peak gets its own copy of its row, so one ``_prominences`` call
    takes all of them, as the front detector's calls take a block of rows.
    """
    row, idx = _peaks(x)
    return row, idx, _prominences(x[row], idx)


def test_peak_prominences_match_reference():
    for _, x in _random_rows(1, 1000):
        peaks, props = find_peaks(x, prominence=(None, None))
        row, idx, prom = _peak_prominences(x[None, :])
        assert np.array_equal(idx, peaks)
        assert np.array_equal(prom, props["prominences"])
        assert not row.any()


def test_prominence_threshold_matches_reference():
    for rng, x in _random_rows(2, 1000):
        _, props = find_peaks(x, prominence=(None, None))
        proms = props["prominences"]
        if proms.size:
            p = float(rng.choice(proms))
            # exactly at a prominence, and one ulp to either side of it
            thresholds = [p, np.nextafter(p, -np.inf), np.nextafter(p, np.inf)]
        else:
            thresholds = [0.0]
        thresholds.append(float(rng.uniform(0.0, 3.0)))
        _, peaks, prom = _peak_prominences(x[None, :])
        for thr in thresholds:
            # the filter recurrence_scan and extract_front apply
            assert np.array_equal(peaks[prom >= thr], find_peaks(x, prominence=thr)[0])


def test_peak_prominences_rows_are_independent():
    rng = np.random.default_rng(3)
    x = np.round(rng.standard_normal((40, 120)) * 2.0)
    x[5] = 1.0                     # a flat row has no peaks
    x[7, :60] = 9.0                # a plateau touching the row start
    row, idx, prom = _peak_prominences(x)
    assert np.all(np.diff(row) >= 0)
    for i in range(x.shape[0]):
        peaks, props = find_peaks(x[i], prominence=(None, None))
        assert np.array_equal(idx[row == i], peaks)
        assert np.array_equal(prom[row == i], props["prominences"])


def test_gaussian_smooth_matches_reference():
    for rng, x in _random_rows(4, 1000):
        sigma = float(rng.uniform(0.3, 12.0))   # the kernel is wider than some rows
        expected = gaussian_filter1d(x, sigma, mode="nearest")
        assert np.array_equal(_gaussian_smooth(x, sigma), expected)


def test_gaussian_smooth_along_rows_matches_reference():
    x = np.random.default_rng(5).standard_normal((30, 200))
    for sigma in (0.3, 2.7, 4.0, 12.0):
        expected = gaussian_filter1d(x, sigma, axis=1, mode="nearest")
        assert np.array_equal(_gaussian_smooth(x, sigma), expected)


def _front_row_loop(field):
    """The mixed-derivative detector as one reference call per time row."""
    z, ts = field.positions, field.times
    dz = float(z[1] - z[0])
    sigma = field.modes.xi_h
    imax = int(np.searchsorted(z, float(z[-1]), side="right"))
    guard = max(3, int(round(3.0 * sigma / dz)))
    values = field.rows()
    floor = 1e-9 * float(np.abs(values).max() or 1.0) / (float(ts[1] - ts[0]) * dz)
    M = np.gradient(np.gradient(values, ts, axis=0), z, axis=1)
    M = gaussian_filter1d(M, sigma / dz, axis=1, mode="nearest")
    positions, times, dropped = [], [], 0
    for i in range(ts.size):
        row = np.abs(M[i, :imax])
        seg = row[guard:-guard]
        rng = float(seg.max() - seg.min())
        if rng <= floor:
            dropped += 1
            continue
        peaks, props = find_peaks(seg, prominence=DEFAULT_PROMINENCE_REL * rng)
        if peaks.size == 0:
            dropped += 1
            continue
        best = int(peaks[np.argmax(props["prominences"])]) + guard
        positions.append(z[best] + _refine_peak(row, best, dz))
        times.append(ts[i])
    return np.asarray(times), np.asarray(positions), dropped


def test_batched_front_matches_row_loop(cone_modes, cone_params):
    xi_h = cone_params.xi_h
    z = np.arange(0.0, 120e-6, xi_h / 4.0)
    times = np.linspace(0.0, 20e-3, 60)    # t = 0 is featureless and dropped
    field = variance_field(cone_modes, z, times)
    trace = extract_front(field)
    ref_times, ref_positions, dropped = _front_row_loop(field)
    assert len(trace) > 40
    assert np.array_equal(trace.times, ref_times)
    assert np.array_equal(trace.positions, ref_positions)
    assert trace.diagnostics["dropped"] == dropped >= 1


def test_front_row_blocks_match_whole_grid_reference(trapped_modes, monkeypatch):
    """Row blocks and the cut of the smoothed columns leave every detection bit-equal.

    The trapped search stops at 0.9 R, left of the grid end, so the detector
    smooths only the columns it needs; the reference smooths whole rows.
    """
    from splitgas import observables
    from splitgas.observables import EDGE_SEARCH_FRACTION

    z = np.arange(0.0, 0.985 * trapped_modes.radius, trapped_modes.xi_h / 4.0)
    ts = np.linspace(0.2e-3, 10e-3, 150)
    field = variance_field(trapped_modes, z, ts)
    monkeypatch.setattr(observables, "_FRONT_BLOCK_BYTES", 16 * 8 * z.size)   # 16 rows
    trace = extract_front(field)

    dz = float(z[1] - z[0])
    sigma = field.modes.xi_h / dz
    imax = int(np.searchsorted(z, EDGE_SEARCH_FRACTION * field.modes.radius, side="right"))
    assert imax + int(4.0 * sigma + 0.5) < z.size
    guard = max(3, int(round(3.0 * sigma)))
    M = np.gradient(np.gradient(field.rows(), ts, axis=0), z, axis=1)
    rows = np.abs(gaussian_filter1d(M, sigma, axis=1, mode="nearest")[:, :imax])
    times, positions = [], []
    for i, row in enumerate(rows):
        seg = row[guard:-guard]
        rng = float(seg.max() - seg.min())
        peaks, props = find_peaks(seg, prominence=DEFAULT_PROMINENCE_REL * rng)
        if peaks.size:
            best = int(peaks[np.argmax(props["prominences"])]) + guard
            positions.append(z[best] + _refine_peak(row, best, dz))
            times.append(ts[i])
    assert len(times) > 100
    assert np.array_equal(trace.times, times)
    assert np.array_equal(trace.positions, positions)


@pytest.mark.parametrize("change", [
    {},
    {"scattering_length": 5.2e-12},                       # nearly Thomas-Fermi
    {"atom_number_total": None, "peak_density_per_gas": 80e6},
    {"atom_number_total": 4e5},                           # strongly quasi-1D
])
def test_quasi1d_closed_form_normalisation(quasi1d_config, change):
    # the profile at the bisected mu holds N/2 atoms, or with a peak density given
    # the Thomas-Fermi count (4/3) n_peak R of that density
    cfg = dataclasses.replace(quasi1d_config, **change)
    params = derive_params(cfg)
    prof = quasi1d_profile(params)
    if cfg.atom_number_total is not None:
        target = cfg.atom_number_total / 2.0
    else:
        target = (4.0 / 3.0) * cfg.peak_density_per_gas * params.R
    total, _ = quad(lambda z: _quasi1d_density(z, prof.mu, cfg), -prof.radius, prof.radius,
                    epsabs=0.0, epsrel=1e-13, limit=200)
    assert total == pytest.approx(target, rel=1e-10, abs=0.0)


CONFIGS = {
    "trapped.yaml": """\
trap: {species: rb87, nu_perp_hz: 1400.0, nu_long_hz: 7.0, regime: thomas_fermi,
       atom_number_total: 7000}
grids: {zbar_um: {start: 0.0, stop: 20.0, num: 21}, times_ms: [1.0, 5.0]}
analysis: {compare_regimes: true}
oracle: {realizations: 300, zbar_um: [2.0, 8.0], times_ms: [1.0, 4.0]}
""",
    "homog.yaml": """\
trap: {species: rb87, nu_perp_hz: 1400.0, regime: homogeneous,
       peak_density_per_um: 46.0, system_length_um: 100.0}
grids: {zbar_um: {start: 0.0, stop: 30.0, num: 31}, times_ms: [0.0, 5.0]}
analysis: {t_max_ms: 40.0, contrast_lengths_um: [20.0]}
oracle: {realizations: 300, zbar_um: [3.0, 9.0], times_ms: [1.0, 4.0]}
squeezing_map:
  nu_perp_hz: {start: 500.0, stop: 2000.0, num: 4}
  length_um: {start: 20.0, stop: 80.0, num: 3}
""",
}

COMMANDS = [
    ("params", "trapped.yaml"), ("squeezing-map", "homog.yaml"),
    ("pcf", "homog.yaml"), ("pcf", "trapped.yaml"), ("front", "trapped.yaml"),
    ("recurrence", "homog.yaml"), ("contrast", "homog.yaml"),
    ("oracle", "homog.yaml"), ("oracle", "trapped.yaml"),
]


def test_commands_never_import_scipy(tmp_path):
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    argvs = [[cmd, "--config", cfg, "--out", f"{i}.csv"]
             for i, (cmd, cfg) in enumerate(COMMANDS)]
    child = (
        "import json, sys\n"
        "from splitgas.cli import main\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        "mods = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(json.dumps({'codes': codes, 'scipy': mods}))\n"
    )
    env = dict(os.environ)
    src = str(Path(splitgas.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", child], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(COMMANDS), out.stderr
    assert result["scipy"] == []
