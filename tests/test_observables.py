"""Correlation maps, front detection, contrast integrals, recurrences."""

import math

import numpy as np
import pytest
from scipy.constants import pi
from scipy.integrate import quad

from splitgas import (
    ConfigError,
    DetectionError,
    build_modes,
    build_trapped_modes,
    contrast_evaluator,
    extract_front,
    fit_velocity,
    observables,
    pcf,
    recurrence_scan,
    recurrence_time,
)
from splitgas.modes import VarianceField, variance_field
from splitgas.observables import (
    _CONTRAST_PANEL_ROWS,
    _FRONT_BLOCK_BYTES,
    _REFINE_BRACKET_S,
    FrontTrace,
    _time_derivative_blocks,
    prethermal_pcf,
)

from reference import ArrayField, dense_contrast, grid_basis, window_contrast


# ---------------------------------------------------------------- pcf map

def test_pcf_values(homog_modes):
    zb = np.linspace(0, 30e-6, 16)
    ts = np.array([0.0, 5e-3])
    field = variance_field(homog_modes, zb, ts)
    corr = pcf(field)
    np.testing.assert_allclose(corr[0], 1.0, atol=1e-12)  # t = 0
    assert corr.max() <= 1.0
    # exp map spot values
    field = ArrayField(zb, ts, field.rows())
    field.values[1, 3] = 2.0
    assert pcf(field)[1, 3] == pytest.approx(math.exp(-1.0), rel=1e-14)
    field.values[1, 3] = -0.1
    with pytest.raises(ConfigError):
        pcf(field)


def test_pcf_monotone(homog_modes):
    zb = np.linspace(0, 30e-6, 16)
    field = variance_field(homog_modes, zb, [4e-3])
    c1 = pcf(field)
    c2 = pcf(ArrayField(zb, field.times, field.rows() + 0.3))
    assert np.all(c2 < c1)


def test_prethermal_pcf_window_guard(homog_modes):
    with pytest.raises(ConfigError):
        prethermal_pcf(homog_modes, [45e-6])  # cone cannot reach in the window


def test_prethermal_pcf_refuses_a_cloud(trapped_modes):
    # it read the box's length, an AttributeError on a Legendre basis
    with pytest.raises(ConfigError, match="recurrence period, which a trapped cloud does not"):
        prethermal_pcf(trapped_modes, [5e-6])


# ---------------------------------------------------------- front + velocity

def _synthetic_step_field(c, l0, L=100e-6):
    """Exact-step variance: rate (2c/l0) inside zbar < 2ct, frozen outside."""
    z = np.arange(0.0, 40e-6, 0.1e-6)
    ts = np.arange(0.25e-3, 10.001e-3, 0.05e-3)
    tt, zz = np.meshgrid(ts, z, indexing="ij")
    values = (2 * c / l0) * np.maximum(0.0, tt - zz / (2 * c))
    return ArrayField(positions=z, times=ts, values=values, modes=grid_basis(z))


def test_velocity_on_synthetic_step():
    c = 1.7e-3
    field = _synthetic_step_field(c, 16e-6)
    trace = extract_front(field)
    fit = fit_velocity(trace)
    assert fit.speed == pytest.approx(2 * c, rel=1e-3)
    assert fit.n_points >= 100


def test_front_homogeneous(cone_modes, cone_params):
    # c = 1 mm/s: front at 10 um after 5 ms, slope 2c over the window
    p = cone_params
    dt = (pi / cone_modes.omega_max) / 20.0
    ts = np.arange(dt, 10e-3, dt)
    z = np.arange(0.0, 40e-6, p.xi_h / 4.0)
    field = variance_field(cone_modes, z, ts)
    trace = extract_front(field)
    fit = fit_velocity(trace)
    assert fit.speed == pytest.approx(2 * p.c, rel=0.02)
    at5 = np.interp(5e-3, trace.times, trace.positions)
    assert at5 == pytest.approx(10e-6, abs=p.xi_h)
    # detections move monotonically outward inside the window
    sel = trace.times <= 10e-3
    assert np.all(np.diff(trace.positions[sel]) > -1e-7)


def test_front_detectors_agree(cone_modes, cone_params):
    p = cone_params
    dt = (pi / cone_modes.omega_max) / 20.0
    ts = np.arange(dt, 8e-3, dt)
    z = np.arange(0.0, 35e-6, p.xi_h / 4.0)
    field = variance_field(cone_modes, z, ts)
    t_a = extract_front(field, method="mixed_derivative")
    t_b = extract_front(field, method="half_plateau")
    common_lo = max(t_a.times.min(), t_b.times.min(), 2e-3)
    sel = (t_a.times >= common_lo)
    pos_b = np.interp(t_a.times[sel], t_b.times, t_b.positions)
    assert np.max(np.abs(t_a.positions[sel] - pos_b)) < 2 * p.xi_h


def test_front_trapped_bends_near_edge(trapped_modes, trapped_params):
    from scipy.constants import hbar

    p = trapped_params
    c0 = trapped_modes.profile.sound_speed_peak
    xi = hbar / (p.mass * c0)
    dt = (pi / trapped_modes.omega_max) / 20.0
    ts = np.arange(dt, 16e-3, 2 * dt)
    z = np.arange(0.0, 0.985 * trapped_modes.radius, xi / 4.0)
    field = variance_field(trapped_modes, z, ts)
    trace = extract_front(field)
    fit = fit_velocity(trace, window=(0.0, 10e-3))
    assert fit.speed < 2 * p.c  # trap slows the front against the free gas
    # late detections fall below the early-time linear extrapolation
    late = trace.times > 12e-3
    assert late.any()
    predicted = fit.speed * trace.times[late] + fit.intercept
    assert np.mean(trace.positions[late] - predicted) < 0.0


def test_fit_velocity_needs_points():
    trace = FrontTrace(times=np.array([1e-3, 2e-3]), positions=np.array([1e-6, 2e-6]),
                       method="mixed_derivative")
    with pytest.raises(DetectionError):
        fit_velocity(trace)


def test_fit_velocity_needs_detections_at_distinct_times():
    trace = FrontTrace(times=np.full(3, 2e-3), positions=np.array([1e-6, 2e-6, 3e-6]),
                       method="mixed_derivative")
    with pytest.raises(DetectionError, match="all share one time"):
        fit_velocity(trace)


def test_extract_front_empty_when_featureless():
    z = np.arange(0.0, 30e-6, 0.2e-6)
    ts = np.linspace(1e-3, 5e-3, 30)
    flat = np.ones((ts.size, z.size))
    field = ArrayField(positions=z, times=ts, values=flat, modes=grid_basis(z))
    trace = extract_front(field)
    assert len(trace) == 0
    assert trace.diagnostics["dropped"] == ts.size


def test_front_is_the_tallest_peak_or_none():
    """A row whose tallest peak fails the prominence gate is dropped, even when a
    lower peak of the row is prominent enough to pass it."""
    from scipy.signal import find_peaks

    dz = 0.1e-6
    z = np.arange(200) * dz
    ts = np.linspace(1e-3, 5e-3, 5)

    def bump(at):
        return np.exp(-0.5 * ((z - at) / 1e-6) ** 2)

    # d2V/dt dz: a lone peak of 1.0, then a pedestal of 1.0 to the row's end
    # with the tallest peak, 1.2, on it, whose prominence is only about 0.2
    profile = bump(6e-6) + 1.0 / (1.0 + np.exp(-(z - 11e-6) / 0.3e-6)) + 0.2 * bump(15e-6)
    dVdt = np.cumsum(profile) * dz
    field = ArrayField(positions=z, times=ts, values=ts[:, None] * dVdt, modes=grid_basis(z))
    trace = extract_front(field)
    assert len(trace) == 0
    assert trace.diagnostics["dropped"] == ts.size

    # the lower peak is the row's most prominent one and passes the gate
    guard = trace.diagnostics["guard"]
    seg = np.abs(observables._gaussian_smooth(np.gradient(dVdt, z), 4.0))[guard:-guard]
    peaks, props = find_peaks(seg, prominence=(None, None))
    lower = peaks[np.argmax(props["prominences"])]
    assert seg[lower] < seg[peaks].max()
    assert props["prominences"].max() >= observables.DEFAULT_PROMINENCE_REL * np.ptp(seg)


def test_front_between_equal_peaks_is_the_leftmost():
    # integers on power-of-two steps: dV/dt, d2V/dt dz and the smoothing are exact
    # or round alike around both bumps, so the two smoothed peaks tie exactly
    dz = 2.0**-20
    z = np.arange(200) * dz
    ts = np.arange(1, 6) * 2.0**-10
    profile = np.zeros(z.size)
    for at in (60, 120):
        profile[at - 3:at + 3] = [1, 3, 6, 6, 3, 1]
    dVdt = np.cumsum(profile)
    field = ArrayField(positions=z, times=ts, values=ts[:, None] * dVdt, modes=grid_basis(z))
    trace = extract_front(field)
    assert len(trace) == ts.size
    assert np.all(np.abs(trace.positions - z[60]) < 2 * dz)


@pytest.mark.parametrize("method", ["mixed_derivative", "half_plateau"])
def test_extract_front_counts_rows_dropped_by_a_narrow_search(method):
    from splitgas.cli import _modes
    from splitgas.scenario import preset_scenario

    # 10 points to 0.98 R leave a search segment under 4 columns wide: no row
    # is searched, so all 30 are dropped
    sc = preset_scenario("fig4")
    modes = _modes(sc)
    field = variance_field(modes, np.linspace(0.0, 0.98 * modes.radius, 10),
                           np.linspace(1e-3, 10e-3, 30))
    trace = extract_front(field, method=method)
    assert len(trace) == 0
    assert trace.diagnostics["dropped"] == 30


FRONT_METHODS = ("mixed_derivative", "half_plateau")


@pytest.fixture(scope="module")
def preset_front_fields(tmp_path_factory):
    """Every field the ``front`` command hands the detector, over fig1-fig8."""
    from splitgas.cli import main
    from splitgas.scenario import PRESET_NAMES

    fields = []
    detect = observables.extract_front

    def spy(field, *args, **kwargs):
        fields.append(field)
        return detect(field, *args, **kwargs)

    out = tmp_path_factory.mktemp("front") / "front.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(observables, "extract_front", spy)
        for name in PRESET_NAMES:
            assert main(["front", "--preset", name, "--out", str(out)]) == 0
    return fields


def _whole_grid_blocks(field, rows):
    """The reference for the row blocks: slices of the whole grid and of one np.gradient."""
    values = field.rows()
    dVdt = np.gradient(values, field.times, axis=0)
    for lo in range(0, field.times.size, rows):
        yield lo, values[lo:lo + rows], dVdt[lo:lo + rows]


def _assert_blocks_and_traces_match_whole_grid(field, rows, monkeypatch):
    values = field.rows()
    whole = np.gradient(values, field.times, axis=0)
    blocks = list(_time_derivative_blocks(field, rows))
    assert [lo for lo, _, _ in blocks] == list(range(0, field.times.size, rows))
    assert np.array_equal(np.concatenate([v for _, v, _ in blocks]), values)
    assert np.array_equal(np.concatenate([d for _, _, d in blocks]), whole)

    # a budget of exactly ``rows`` rows of the grid
    monkeypatch.setattr(observables, "_FRONT_BLOCK_BYTES", rows * 8 * field.positions.size)
    traces = [extract_front(field, method=m) for m in FRONT_METHODS]
    monkeypatch.setattr(observables, "_time_derivative_blocks", _whole_grid_blocks)
    for method, trace in zip(FRONT_METHODS, traces):
        ref = extract_front(field, method=method)
        assert len(trace) > 0
        assert np.array_equal(trace.times, ref.times), method
        assert np.array_equal(trace.positions, ref.positions), method
        assert trace.diagnostics == ref.diagnostics
    monkeypatch.undo()


def _materialised(field):
    """The whole grid of a field, all its rows read at once, with its basis."""
    return ArrayField(field.positions, field.times, field.rows(), field.modes)


def test_front_derivative_blocks_bit_equal_on_preset_grids(preset_front_fields, monkeypatch):
    # fig5 scans three atom numbers, fig6 compares three regimes
    assert len(preset_front_fields) == 12
    for field in map(_materialised, preset_front_fields):
        default = max(1, _FRONT_BLOCK_BYTES // (8 * field.positions.size))
        for rows in (default, 7):
            _assert_blocks_and_traces_match_whole_grid(field, rows, monkeypatch)


def test_streamed_front_bit_equal_to_materialised_grid(preset_front_fields):
    """The command's field never holds its grid, yet detects what the grid does."""
    assert len(preset_front_fields) == 12
    for field in preset_front_fields:
        assert isinstance(field, VarianceField)
        whole = _materialised(field)
        for method in FRONT_METHODS:
            streamed, ref = extract_front(field, method=method), extract_front(whole, method=method)
            assert len(streamed) > 0
            assert np.array_equal(streamed.times, ref.times), method
            assert np.array_equal(streamed.positions, ref.positions), method
            assert streamed.diagnostics["dropped"] == ref.diagnostics["dropped"], method


@pytest.mark.parametrize("grid", ["uniform_block", "uniform"])
def test_front_derivative_blocks_bit_equal_on_a_partly_uniform_grid(
        grid, cone_modes, cone_params, monkeypatch):
    """Exactly uniform inside the first blocks, but not overall.

    np.gradient picks its uniform-spacing formula for such a slice, which
    rounds differently from the three-point weights the whole grid uses.
    """
    h = 3 * 2.0**-14          # ~0.18 ms; its multiples are exact, 1/h is not
    ts = np.arange(1, 61) * h
    if grid == "uniform_block":
        ts[40:] += 2.0**-14   # one longer step between rows 39 and 40
    dt = np.diff(ts)
    assert np.all(dt[:33] == h) and np.all(dt == h) == (grid == "uniform")
    z = np.arange(0.0, 35e-6, cone_params.xi_h / 4.0)
    field = variance_field(cone_modes, z, ts)
    if grid == "uniform_block":
        # the pitfall is live: per-block np.gradient is not the whole grid's
        naive = np.gradient(field.rows(0, 17), ts[:17], axis=0)[1:16]
        whole = np.gradient(field.rows(), ts, axis=0)[1:16]
        assert not np.array_equal(naive, whole)
    _assert_blocks_and_traces_match_whole_grid(field, 16, monkeypatch)


# ------------------------------------------------------------- contrast

def test_contrast_t0_is_one(homog_modes, trapped_modes):
    for modes in (homog_modes, trapped_modes):
        tr = contrast_evaluator(modes, 20e-6)([0.0, 3e-3])
        assert tr[0] == pytest.approx(1.0, abs=1e-12)
        assert tr[1] < 1.0


def test_contrast_matches_prethermal_closed_form(homog_params):
    """Double integral of exp(-|z-z'|/l0) over [-L/2, L/2]^2.

    Oracle 1: adaptive 2D quadrature.  Oracle 2: the closed form
    2 (l0/L)^2 (L/l0 - 1 + exp(-L/l0)).  The trapezoidal integrator must
    agree with both on a synthetic prethermal correlation field.
    """
    l0 = homog_params.l0_effective
    L = 40e-6
    closed = 2 * (l0 / L) ** 2 * (L / l0 - 1 + math.exp(-L / l0))
    # reduce the double integral over the separation u = |z - z'| (smooth)
    quad_val, _ = quad(lambda u: (L - u) * math.exp(-u / l0), 0.0, L,
                       epsabs=1e-16, epsrel=1e-12)
    assert 2 * quad_val / L**2 == pytest.approx(closed, rel=1e-10)
    z = np.linspace(-L / 2, L / 2, 401)
    C = np.exp(-np.abs(z[:, None] - z[None, :]) / l0)
    assert window_contrast(C, z) == pytest.approx(closed, rel=2e-4)


def test_contrast_small_window_limit(homog_modes):
    # L -> 0: the window degenerates to C(0, 0, t) = 1
    tr = contrast_evaluator(homog_modes, 1e-6)([5e-3])
    assert tr[0] == pytest.approx(1.0, abs=0.03)


def test_contrast_grid_refinement(homog_modes, trapped_modes, homog_params):
    ts = [2e-3, 6e-3]
    for modes, xi in ((homog_modes, homog_params.xi_h),):
        a = contrast_evaluator(modes, 40e-6, dz=xi / 2)(ts)
        b = contrast_evaluator(modes, 40e-6, dz=xi / 4)(ts)
        np.testing.assert_allclose(a, b, rtol=2e-3)


def test_contrast_ordering_in_length(trapped_modes):
    # during initial dephasing more modes fit into a larger window
    ts = [5e-3]
    vals = [contrast_evaluator(trapped_modes, L)(ts)[0]
            for L in (5e-6, 20e-6, 50e-6, 90e-6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_contrast_window_exceeding_cloud(trapped_modes):
    with pytest.raises(ConfigError):
        contrast_evaluator(trapped_modes, 2.5 * trapped_modes.radius)([1e-3])


@pytest.fixture(scope="module")
def quasi1d_modes(quasi1d_config):
    from splitgas import derive_params

    return build_trapped_modes(derive_params(quasi1d_config))


@pytest.mark.parametrize("regime", ["thomas_fermi", "quasi_1d"])
@pytest.mark.parametrize("L,n", [(20e-6, 41), (20e-6, 42), (90e-6, 91), (90e-6, 92),
                                 (50e-6, None), (90e-6, None)])
def test_contrast_evaluator_matches_dense_pair_field(trapped_modes, quasi1d_modes,
                                                     regime, L, n):
    """Triangle-panel kernel against the dense (z, z') reference on the same grid.

    ``n=None`` takes the default grid step.  Those grids span several row
    panels: n = 242/435 (Thomas-Fermi) and 211/380 (quasi-1D) points, odd and
    even, and none of their half grids splits evenly into the panels.
    """
    modes = trapped_modes if regime == "thomas_fermi" else quasi1d_modes
    ts = np.array([0.0, 1e-3, 7.5e-3, 60e-3, 202e-3])
    t0_tol = 1e-14
    if n is None:
        evaluate = contrast_evaluator(modes, L)
        n = round(L / (modes.xi_h / 2)) + 1
        assert (n + 1) // 2 > _CONTRAST_PANEL_ROWS
    else:
        evaluate = contrast_evaluator(modes, L, dz=L / (n - 1))
    dense = dense_contrast(modes, L, n, ts)
    np.testing.assert_allclose(evaluate(ts), dense, rtol=1e-12, atol=0)
    assert evaluate(ts)[0] == pytest.approx(1.0, abs=t0_tol)


@pytest.mark.parametrize("geometry,L", [
    pytest.param(geometry, L, id=f"{L!r}" if geometry == "trapped" else f"homogeneous-{L!r}")
    for geometry, lengths in (("trapped", (5e-6, 20e-6, 50e-6, 90e-6)),
                              ("homogeneous", (5e-6, 20e-6, 50e-6, 90e-6, 100e-6)))
    for L in lengths])
def test_contrast_bulk_equals_single_time_calls(trapped_modes, homog_modes, geometry, L):
    # recurrence refinement compares single-time values with bulk samples
    modes = trapped_modes if geometry == "trapped" else homog_modes
    ts = np.arange(0.0, 40e-3, 0.5e-3)       # several kernel blocks, a partial last one
    evaluate = contrast_evaluator(modes, L)
    if geometry == "trapped":
        m = (round(L / (modes.xi_h / 2)) + 2) // 2          # half-grid points
        panels = {5e-6: 1, 20e-6: 2, 50e-6: 3, 90e-6: 5}[L]
        assert -(-m // _CONTRAST_PANEL_ROWS) == panels
    bulk = evaluate(ts)
    single = np.array([evaluate([t])[0] for t in ts])
    assert np.array_equal(bulk, single)


def test_contrast_memory_bounded_per_window():
    import tracemalloc

    from splitgas import derive_params
    from splitgas.scenario import preset_scenario

    sc = preset_scenario("fig8")
    modes = build_trapped_modes(derive_params(sc.config), sc.j_max)
    times = np.arange(0.0, 300.25e-3, 0.5e-3)
    assert times.size == 601
    tracemalloc.start()
    try:
        contrast_evaluator(modes, 90e-6)(times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_front_memory_bounded_on_largest_preset_grid():
    import tracemalloc

    from dataclasses import replace

    from splitgas.cli import _modes
    from splitgas.scenario import preset_scenario

    sc = preset_scenario("fig5")
    modes = _modes(sc, replace(sc.config, atom_number_total=9000, peak_density_per_gas=None))
    dt = (pi / modes.omega_max) / 20.0
    times = np.arange(dt, sc.fit_window[1] + 0.5 * dt, dt)
    field = variance_field(modes, np.arange(0.0, 0.985 * modes.radius, modes.xi_h / 4.0),
                           times)
    assert field.rows().shape == (318, 636)
    tracemalloc.start()
    try:
        trace = extract_front(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) > 300
    assert peak < 6e6


@pytest.mark.parametrize("method", FRONT_METHODS)
def test_front_memory_does_not_grow_with_the_time_rows(method):
    import tracemalloc

    from dataclasses import replace

    from splitgas.cli import _modes
    from splitgas.scenario import preset_scenario

    sc = preset_scenario("fig5")
    modes = _modes(sc, replace(sc.config, atom_number_total=9000, peak_density_per_gas=None))
    dt = (pi / modes.omega_max) / 20.0
    z = np.arange(0.0, 0.985 * modes.radius, modes.xi_h / 4.0)
    peaks = []
    for rows in (318, 4 * 318):
        field = variance_field(modes, z, np.linspace(dt, 318 * dt, rows))
        tracemalloc.start()
        try:
            trace = extract_front(field, method=method)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(trace) > 0.9 * rows
    assert peaks[1] <= 1.1 * peaks[0]


def test_front_command_memory_does_not_grow_with_the_time_rows(monkeypatch):
    """From mode basis to fitted trace, the front never holds its (time x position) grid."""
    import tracemalloc

    from dataclasses import replace

    from splitgas import modes as mode_sums
    from splitgas.cli import _front_for_system, _modes
    from splitgas.scenario import preset_scenario

    sc = preset_scenario("fig5")
    modes = _modes(sc, replace(sc.config, atom_number_total=9000, peak_density_per_gas=None))
    step = mode_sums.default_rate_step(modes)
    peaks = []
    for refine in (1, 4):   # 318 and 1272 time rows of 636 points; the first grid is 1.6 MB
        monkeypatch.setattr(mode_sums, "default_rate_step", lambda m: step / refine)
        tracemalloc.start()
        try:
            trace, _ = _front_for_system(modes, sc.fit_window)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(trace) > 0.9 * 318 * refine
    assert peaks[1] <= 1.1 * peaks[0]
    assert max(peaks) < 2e6


def test_contrast_window_needs_two_grid_points(homog_modes, trapped_modes):
    for modes in (homog_modes, trapped_modes):
        with pytest.raises(ConfigError, match="fewer than 2 grid points"):
            contrast_evaluator(modes, 1e-6, dz=3e-6)


@pytest.mark.parametrize("length,dz,name", [(40e-6, 0.0, "dz"), (40e-6, math.nan, "dz"),
                                             (40e-6, math.inf, "dz"), (40e-6, "1e-7", "dz"),
                                             (math.nan, None, "integration length"),
                                             (math.inf, None, "integration length"),
                                             ("5e-5", None, "integration length")])
def test_contrast_evaluator_refuses_bad_arguments(homog_modes, trapped_modes, length, dz,
                                                  name):
    for modes in (homog_modes, trapped_modes):
        with pytest.raises(ConfigError, match=name):
            contrast_evaluator(modes, length, dz=dz)


@pytest.mark.parametrize("times", [[math.nan], [math.inf], [-1e-3], [1e-3, math.nan]])
def test_contrast_evaluator_refuses_bad_times(homog_modes, trapped_modes, times):
    # variance_field refuses these times; the contrast kernel used to return
    # nan for nan, nan with a RuntimeWarning for inf, and a value for t < 0
    for modes in (homog_modes, trapped_modes):
        evaluate = contrast_evaluator(modes, 20e-6)
        with pytest.raises(ConfigError, match="evolution times must be finite and non-negative"):
            evaluate(times)


def test_contrast_window_longer_than_box(homog_modes):
    contrast_evaluator(homog_modes, homog_modes.L)      # the whole ring is fine
    with pytest.raises(ConfigError, match="periodic box"):
        contrast_evaluator(homog_modes, 1.5 * homog_modes.L)


# ------------------------------------------------------------ recurrences

def test_recurrence_scan_homogeneous(homog_modes, homog_params):
    t_rev = recurrence_time(homog_modes.L, homog_params.c)
    times = np.arange(0.0, 90e-3, 0.5e-3)
    contrast = contrast_evaluator(homog_modes, 50e-6)
    values = contrast(times)

    def refine(t):
        return float(contrast([t])[0])

    found = recurrence_scan(times, values, refine_fn=refine)
    assert len(found) >= 3
    # every full rephasing is recovered at a multiple of L/2c with strength 1
    for rank, (t_r, s_r) in enumerate(found[:3]):
        k = round(t_r / t_rev)
        assert k >= 1
        assert abs(t_r - k * t_rev) < 0.5e-3
        assert s_r == pytest.approx(1.0, abs=1e-10)


def test_recurrence_scan_trapped(trapped_modes):
    times = np.arange(0.0, 0.3 + 1e-9, 0.5e-3)
    contrast = contrast_evaluator(trapped_modes, 50e-6)
    values = contrast(times)

    def refine(t):
        return float(contrast([t])[0])

    found = recurrence_scan(times, values, refine_fn=refine)
    t_best, s_best = found[0]
    assert t_best == pytest.approx(202e-3, abs=5e-3)
    assert s_best < 0.999  # never a full recurrence in the trap
    assert all(s < 0.999 for _, s in found)


def test_recurrence_scan_empty_without_turnup(trapped_modes):
    times = np.arange(0.0, 3e-3, 0.5e-3)
    contrast = contrast_evaluator(trapped_modes, 50e-6)
    assert recurrence_scan(times, contrast(times), lambda t: float(contrast([t])[0])) == []


def test_recurrence_rank_ties_on_printed_strength():
    # two sampled peaks, at 4 and 8 ms; the later one refines one ulp stronger
    times = np.arange(11) * 1e-3
    values = np.array([1.0, 0.5, 0.2, 0.5, 0.8, 0.5, 0.2, 0.5, 0.8, 0.5, 0.2])
    strong = np.nextafter(0.9, 1.0)

    found = recurrence_scan(times, values, refine_fn=lambda t: 0.9 if t < 6e-3 else strong)
    assert [s for _, s in found] == [0.9, strong]   # raw strengths are kept
    assert format(found[0][1], ".10g") == format(found[1][1], ".10g")
    assert 3e-3 <= found[0][0] <= 5e-3 and 7e-3 <= found[1][0] <= 9e-3


# fig7's ranked recurrences as golden-section search (bracket 1e-12 relative)
# found them: (t in s, strength).  Brent's times are held to the refinement's
# bracket, which is also the printed 1e-6 ms: C^2 resolves a peak time only to
# about sqrt(eps) t (3e-6 ms at 0.2 s), so two searches on the same kernel
# already differ by 2.2e-7 ms at the 7th recurrence while their strengths agree
_FIG7_GOLDEN = [
    (0.20210179909502507, 0.8286886614832586),
    (0.29439769383945347, 0.6200469351952781),
    (0.14628535275980914, 0.6024751675057743),
    (0.06047444423586998, 0.5214844314414845),
    (0.08855802094647722, 0.48986162230276564),
    (0.2215061145232411, 0.4772160943491156),
    (0.2647493048071528, 0.4462505733149593),
    (0.16835438449663903, 0.41487754664060716),
]


@pytest.fixture(scope="module")
def fig7_refined():
    from splitgas.cli import _contrast_times, _modes
    from splitgas.scenario import preset_scenario

    sc = preset_scenario("fig7")
    modes = _modes(sc)
    contrast = contrast_evaluator(modes, sc.contrast_lengths[0])
    times = _contrast_times(sc)
    calls = []

    def refine(t):
        calls.append(t)
        return float(contrast([t])[0])

    return recurrence_scan(times, contrast(times), refine_fn=refine), calls


def test_recurrence_refinement_calls_fig7(fig7_refined):
    found, calls = fig7_refined
    assert len(found) == len(_FIG7_GOLDEN)
    assert len(calls) <= 120


def test_recurrence_refinement_matches_golden_section_fig7(fig7_refined):
    found, _ = fig7_refined
    for (t, s), (t_gold, s_gold) in zip(found, _FIG7_GOLDEN):
        assert abs(t - t_gold) <= _REFINE_BRACKET_S
        assert abs(s - s_gold) <= 1e-12


@pytest.mark.parametrize("centre", [0.2, 0.2 + 0.37e-3, 0.2 + 0.5e-3, 0.2 - 0.5e-3])
@pytest.mark.parametrize("width", [2e-4, 1e-3])
def test_brent_max_finds_a_known_peak(centre, width):
    from splitgas.observables import _brent_max

    lo, hi = 0.2 - 0.5e-3, 0.2 + 0.5e-3
    seen = {}

    def f(t):
        u = (t - centre) / width
        seen[t] = math.exp(-u * u) * (1.0 + 0.3 * u)     # a skewed peak
        return seen[t]

    # d/du [exp(-u^2)(1 + a u)] = 0 at u = (sqrt(1 + 2 a^2) - 1) / (2 a)
    u_star = (math.sqrt(1.0 + 2.0 * 0.3**2) - 1.0) / 0.6
    argmax = min(centre + width * u_star, hi)
    t, s = _brent_max(f, lo, hi)
    assert abs(t - argmax) <= 1e-9
    assert seen[t] == s == max(seen.values())
    assert all(lo <= x <= hi for x in seen)


def test_brent_max_degenerate_bracket():
    from splitgas.observables import _brent_max

    seen = []

    def f(t):
        seen.append(t)
        return 0.5

    assert _brent_max(f, 0.125, 0.125) == (0.125, 0.5)
    assert seen == [0.125]


# ------------------------------------------------------- mode amplitudes

def test_mode_amplitudes(trapped_modes, homog_modes):
    om = trapped_modes.params.config.omega_long
    t = np.linspace(0, 0.3, 4001)
    amp = trapped_modes.time_factors(t).T
    assert amp.shape == (trapped_modes.j_max, t.size)
    # zeros of mode j at multiples of pi/omega_j; fifth zero of j = 2
    t5 = 5 * pi / (om * math.sqrt(3.0))
    assert t5 == pytest.approx(206.2e-3, abs=0.5e-3)
    j2 = (np.sin(trapped_modes.omega[1] * t5) / trapped_modes.omega[1]) ** 2
    assert j2 < 1e-30
    # envelope: the mode weight, proportional to 1/omega_j^2, decreases with j
    peaks = amp.max(axis=1)
    assert np.all(np.diff(peaks) < 0)
    weights = trapped_modes.weights()
    np.testing.assert_allclose(peaks, weights, rtol=1e-3)
    np.testing.assert_allclose(weights * trapped_modes.omega**2, weights[0] * om**2, rtol=1e-13)
    # homogeneous flavour works off the plane-wave frequencies
    amp_h = homog_modes.time_factors(t[:100]).T
    assert amp_h.shape == (homog_modes.p_max, 100)
