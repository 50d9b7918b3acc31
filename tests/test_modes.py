"""The shared mode basis: one pointwise sum, one field, one doubling check."""

import numpy as np
import pytest

from splitgas import build_trapped_modes, derive_params
from splitgas.errors import ConfigError
from splitgas.modes import (covariance_rate, default_rate_step, initial_phase_variance, pcf,
                            phase_covariance, pointwise_variance, variance_field)
from splitgas.observables import contrast_evaluator
from splitgas.oracle import EnsembleSpec, estimate_pcf
from splitgas.params import hbar, k_B, pi
from splitgas.trapped import legendre_f_table

from reference import ArrayField, dense_contrast

TIMES = np.array([0.0, 1e-3, 4e-3, 7.5e-3])


@pytest.fixture(params=["homogeneous", "thomas_fermi", "quasi_1d"])
def basis(request):
    """(modes, points, zprime, domain bound) for each geometry."""
    if request.param == "homogeneous":
        modes = request.getfixturevalue("homog_modes")
        return modes, np.linspace(0.0, 30e-6, 31), 0.0, modes.L
    if request.param == "thomas_fermi":
        modes = request.getfixturevalue("trapped_modes")
    else:
        modes = build_trapped_modes(derive_params(request.getfixturevalue("quasi1d_config")))
    R = modes.radius
    return modes, np.linspace(-0.9 * R, 0.9 * R, 37), 5e-6, R


def test_variance_field_equals_pointwise_sum(basis):
    modes, z, zprime, _ = basis
    field = variance_field(modes, z, TIMES, zprime)
    assert field.rows().shape == (TIMES.size, z.size)
    assert field.modes is modes
    direct = pointwise_variance(z[None, :], zprime, TIMES[:, None], modes)
    np.testing.assert_allclose(field.rows(), direct, rtol=1e-12, atol=0)


def test_convergence_check_is_the_doubled_recomputation(basis):
    modes, z, zprime, _ = basis
    doubled = modes.doubled()
    assert doubled.truncation == 2 * modes.truncation
    field = variance_field(modes, z, TIMES, zprime, check_convergence=True)
    dev = field.doubling_dev
    coarse = variance_field(modes, z, TIMES, zprime).rows()
    fine = variance_field(doubled, z, TIMES, zprime).rows()
    mask = np.abs(z - zprime) >= 2.0 * modes.xi_h
    assert dev == float(np.max(np.abs(fine - coarse)[:, mask]) / np.abs(fine).max())
    assert np.array_equal(field.rows(), coarse)


def test_pair_rows_sum_to_the_pair_terms(basis):
    """Each mode's pair term is the sum over its pair rows of the squared row
    difference, and mirroring a point flips the sign of the odd rows only."""
    modes, z, zprime, _ = basis
    g, mode, even, odd = modes.pair_functions(np.append(z, zprime))
    summed = np.zeros((modes.truncation, z.size))
    np.add.at(summed, mode, (g[:, :-1] - g[:, -1:]) ** 2)
    terms = modes.pair_terms(z, np.array([zprime]))
    # 1 - cos(k zbar) rounds to 0 where k zbar is a multiple of 2 pi; the rows keep sin^2
    np.testing.assert_allclose(summed, terms, rtol=1e-12, atol=1e-15 * terms.max())
    mirrored = modes.pair_functions(-z)[0]
    np.testing.assert_allclose(mirrored[even], g[even, :-1], rtol=1e-14, atol=0)
    np.testing.assert_allclose(mirrored[odd], -g[odd, :-1], rtol=1e-14, atol=0)


def _closed_forms(modes, T):
    """(split field variance per mode, thermal field variance per mode) on mode rows of
    unit norm, as each geometry writes them: pi^2 n xi_n^2/(2 K^2 k^2) and
    2/(lambda_T k^2), lambda_T = hbar^2 n/(m k_B T), per plane-wave row sqrt(2/L) cos kz
    for the box (the coefficient 2 pi^2 n xi_n^2/(L K^2) of (1 - cos kz)/k^2 over the
    4/L of a row pair), xi_n^2 n_peak pi^2 v_N^2/(2 omega_j^2) and
    pi v_N k_B T/(hbar omega_j^2) per Legendre row f_j(z/R)/sqrt(R) for the cloud."""
    p = modes.params
    if modes.radius is None:
        k2 = modes.k**2
        lambda_T = hbar**2 * p.n_peak / (p.mass * k_B * T)
        return (pi**2 * p.n_peak * p.squeezing / (2.0 * p.K**2 * k2),
                2.0 / (lambda_T * k2))
    v_N, omega2 = modes.v_N, modes.omega**2
    return (p.squeezing * modes.profile.n_peak * pi**2 * v_N**2 / (2.0 * omega2),
            pi * v_N * k_B * T / (hbar * omega2))


def test_pair_rows_synthesise_the_mode_sum_coefficient(basis):
    """A unit amplitude on a pair row adds that row, of unit norm, to the field, so
    the split state's field variance per mode, the weight of every mode sum, is the
    closed-form mode-sum coefficient of each geometry."""
    modes = basis[0]
    np.testing.assert_allclose(modes.weights(), _closed_forms(modes, 30e-9)[0], rtol=1e-13)


@pytest.mark.parametrize("T", [5e-9, 30e-9])
def test_thermal_phase_variance_is_the_closed_form(basis, T):
    """Equipartition, phi_amplitude^2 times the thermal density variance, puts into
    the field, on rows of unit norm, the thermal phase variance each geometry writes
    in closed form."""
    modes = basis[0]
    np.testing.assert_allclose(modes.thermal_phase_variance(T), _closed_forms(modes, T)[1],
                               rtol=1e-13)


def test_pair_rows_have_unit_norm(basis):
    """Every pair row is a mode function of unit norm in z: a fine trapezoid of g_r^2
    over the box [0, L), or over the cloud [-R, R] on nodes z = -R cos(theta) that
    crowd its edges, where f_j(z/R)^2 is steepest, is 1 to 1e-6."""
    modes = basis[0]
    theta = np.linspace(0.0, pi, 30001)
    if modes.radius is None:
        z, dz_dtheta = modes.L * theta / pi, modes.L / pi
    else:
        z, dz_dtheta = -modes.radius * np.cos(theta), modes.radius * np.sin(theta)
    g = modes.pair_functions(z)[0]
    norms = np.trapezoid(np.square(g, out=g) * dz_dtheta, theta, axis=1)
    assert norms.size == modes.truncation * (2 if modes.radius is None else 1)
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-6)


def test_split_state_has_a_quarter_quantum_per_mode(basis):
    """On modes of unit norm the split state's quadrature variances multiply to 1/4
    in both geometries (the cloud's multiplied to 1/(4 R^2) on modes of norm sqrt(R))."""
    modes = basis[0]
    np.testing.assert_allclose(modes.split_density_variance() * modes.split_phase_variance(),
                               0.25, rtol=1e-14)


@pytest.mark.parametrize("T", [5e-9, 30e-9])
def test_split_state_is_the_minimum_uncertainty_partner(basis, T):
    """split_n * split_phi / (thermal_n * thermal_phi) = (hbar omega/(2 k_B T))^2 per
    mode: the split state has a quarter of the quantum of action the thermal state
    has k_B T/(hbar omega) of, squared."""
    modes = basis[0]
    ratio = (modes.split_density_variance() * modes.split_phase_variance()
             / (modes.thermal_density_variance(T) * modes.thermal_phase_variance(T)))
    np.testing.assert_allclose(ratio, (hbar * modes.omega / (2.0 * k_B * T)) ** 2, rtol=1e-12)


def test_pair_field_symmetric_and_non_negative(basis):
    modes, z, _, _ = basis
    pf = pointwise_variance(z[:, None], z[None, :], TIMES[:, None, None], modes)
    assert pf.shape == (TIMES.size, z.size, z.size)
    assert pf.min() >= 0.0
    assert np.all(np.diagonal(pf, axis1=1, axis2=2) == 0.0)
    np.testing.assert_allclose(pf, np.swapaxes(pf, 1, 2), rtol=1e-12, atol=0)
    column = variance_field(modes, z, TIMES, z[-2]).rows()
    np.testing.assert_allclose(pf[:, :, -2], column, rtol=1e-12, atol=0)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda m: variance_field(m, [NAN], [1e-3]),
    lambda m: variance_field(m, [0.0], [1e-3], zprime=NAN),
    lambda m: pointwise_variance(NAN, 0.0, 1e-3, m),
    lambda m: estimate_pcf(EnsembleSpec(10, 1), m, [NAN], [1e-3]),
    lambda m: pcf(ArrayField(np.zeros(1), np.array([1e-3]), np.full((1, 1), NAN))),
    lambda m: legendre_f_table(2, NAN),
], ids=["field_z", "field_zprime", "pointwise", "oracle", "pcf", "legendre_f"])
def test_nan_fails_every_domain_check(basis, call):
    # every domain check is written so that NaN fails it, as "outside" does
    with pytest.raises(ConfigError):
        call(basis[0])


@pytest.mark.parametrize("method", ["thermal_density_variance", "thermal_phase_variance"])
@pytest.mark.parametrize("T", [NAN, float("inf"), -1e-8, 0.0, True, "1e-8"])
def test_thermal_variances_refuse_what_the_ensemble_refuses(basis, method, T):
    # one temperature rule for both thermal quadratures
    with pytest.raises(ConfigError, match="temperature must be finite and strictly positive"):
        getattr(basis[0], method)(T)


def test_every_mode_sum_refuses_unresolved_phases(basis):
    """Doubles near 2**33 rad lie 2**-19 rad apart, more than the 1e-6 rad a mode
    sum accepts, and 2**-20 rad apart just below it; every path to sin^2(omega t)
    draws the line there."""
    modes, z, zprime, _ = basis
    z = z[:3]
    near = 2.0**33 / modes.omega_max
    calls = [
        lambda t: modes.time_factors(np.array([0.0, t])),
        lambda t: pointwise_variance(z, zprime, t, modes),
        lambda t: variance_field(modes, z, [t], zprime).terms,   # refused before any row
        lambda t: variance_field(modes, z, [t], zprime).rows(),
        lambda t: contrast_evaluator(modes, 5e-6)([t]),
        lambda t: estimate_pcf(EnsembleSpec(10, 1), modes, z, [t], zprime).mean,
    ]
    for call in calls:
        assert np.all(np.isfinite(call(0.99 * near)))
        with pytest.raises(ConfigError, match="beyond the mode sums' resolution"):
            call(1.01 * near)


def test_check_points_refuses_out_of_domain(basis):
    modes, _, _, bound = basis
    modes.check_points(np.array([-bound, 0.0, bound]))
    outside = 1.01 * bound
    with pytest.raises(ConfigError):
        modes.check_points(np.array([0.0, -outside]))
    with pytest.raises(ConfigError):
        variance_field(modes, [0.0, outside], TIMES)
    with pytest.raises(ConfigError):
        pointwise_variance(outside, 0.0, 1e-3, modes)
    with pytest.raises(ConfigError):
        pointwise_variance(0.0, -outside, 1e-3, modes)


@pytest.mark.parametrize("preset", ["fig3", "fig4"])
def test_rates_are_the_exact_time_derivatives(preset):
    """The covariance rate against a Richardson extrapolation, (4 D(h) - D(2h))/3, of
    the central difference D(h) of the covariance, at h = dt/32, on the box and the
    cloud at t = 5 ms; at t = 0 every sin(2 omega_m t) is 0."""
    from splitgas.cli import _modes
    from splitgas.scenario import preset_scenario

    modes = _modes(preset_scenario(preset))
    z = np.linspace(0.0, 0.45 * modes.L if modes.radius is None else 0.95 * modes.radius, 301)
    t, h = 5e-3, default_rate_step(modes) / 32

    def central(step):
        return (phase_covariance(z, t + step, modes) - phase_covariance(z, t - step, modes)) \
            / (2 * step)
    richardson = (4 * central(h) - central(2 * h)) / 3
    exact = covariance_rate(z, t, modes)
    assert np.max(np.abs(exact - richardson)) < 1e-9 * np.max(np.abs(exact))
    assert np.all(covariance_rate(z, 0.0, modes) == 0.0)


# the two point paths of a mode sum against the origin: pair terms (the initial phase
# noise) and covariance rows
PHASE_NOISE = [lambda z, m: initial_phase_variance(z, m),
               lambda z, m: phase_covariance(z, 5e-3, m)]
PHASE_NOISE_IDS = ["initial", "covariance"]


@pytest.mark.parametrize("variance", PHASE_NOISE, ids=PHASE_NOISE_IDS)
def test_phase_noise_variances_refuse_a_separation_beyond_the_box(variance):
    from splitgas.cli import _modes
    from splitgas.scenario import preset_scenario

    modes = _modes(preset_scenario("fig3"))   # the 100 um box
    with pytest.raises(ConfigError, match="separation 1e[+]06 um exceeds the periodic box"):
        variance(1.0, modes)


@pytest.mark.parametrize("variance", PHASE_NOISE, ids=PHASE_NOISE_IDS)
def test_phase_noise_variances_refuse_nan(basis, variance):
    with pytest.raises(ConfigError):
        variance(np.array([0.0, NAN]), basis[0])


@pytest.mark.parametrize("variance", PHASE_NOISE, ids=PHASE_NOISE_IDS)
def test_phase_noise_variances_name_a_point_outside_the_cloud(trapped_modes, variance):
    R = trapped_modes.radius
    with pytest.raises(ConfigError, match=f"point {1.5 * R / 1e-6:.6g} um lies outside the "
                                          f"cloud [(]R = {R / 1e-6:.6g} um[)]"):
        variance(1.5 * R, trapped_modes)


@pytest.mark.parametrize("t", [-1e-3, float("nan"), float("inf")])
def test_variance_field_refuses_bad_times(basis, t):
    modes, z, zprime, _ = basis
    with pytest.raises(ConfigError, match="finite and non-negative"):
        variance_field(modes, z, [0.0, t], zprime)


@pytest.mark.parametrize("t", [-1e-3, float("nan")])
def test_pointwise_variance_refuses_bad_times(basis, t):
    # the rule of variance_field: no NaN result, and no value before t = 0
    modes, z, zprime, _ = basis
    with pytest.raises(ConfigError, match="finite and non-negative"):
        pointwise_variance(z[1], zprime, t, modes)


@pytest.mark.parametrize("L,n", [(5e-6, None), (20e-6, None), (50e-6, None), (90e-6, None),
                                 (100e-6, None), (20e-6, 41), (20e-6, 42), (100e-6, 101),
                                 (100e-6, 102)])
def test_homogeneous_lag_path_matches_dense_pair_field(homog_modes, L, n):
    """The contrast kernel on the box against the dense (z, z') reference on
    the same grid.

    ``n=None`` takes the default grid step, which does not divide L; the
    window grid must still span exactly L.
    """
    if n is None:
        evaluate = contrast_evaluator(homog_modes, L)
        n = round(L / (homog_modes.xi_h / 2)) + 1
    else:
        evaluate = contrast_evaluator(homog_modes, L, dz=L / (n - 1))
    dense = dense_contrast(homog_modes, L, n, TIMES)
    np.testing.assert_allclose(evaluate(TIMES), dense, rtol=1e-12, atol=0)
    assert evaluate(TIMES)[0] == pytest.approx(1.0, abs=1e-14)


def _legendre_reference(j_max, x):
    P = [np.ones_like(x), x]
    for n in range(1, j_max):
        P.append(((2 * n + 1) * x * P[n] - n * P[n - 1]) / (n + 1))
    return np.sqrt(np.arange(1, j_max + 1) + 0.5)[:, None] * np.array(P[1:])


def _front_grid(preset):
    """The front command's basis and (z, t) grid: fig5 at N = 9000, fig3's box."""
    from dataclasses import replace

    from splitgas.cli import _modes
    from splitgas.modes import default_rate_step
    from splitgas.scenario import preset_scenario

    sc = preset_scenario(preset)
    config = None
    if preset == "fig5":
        config = replace(sc.config, atom_number_total=9000, peak_density_per_gas=None)
    modes = _modes(sc, config)
    dt = default_rate_step(modes)
    times = np.arange(dt, sc.fit_window[1] + 0.5 * dt, dt)
    z_hi = 0.45 * modes.L if modes.radius is None else 0.985 * modes.radius
    return modes, np.arange(0.0, z_hi, modes.xi_h / 4.0), times


@pytest.fixture(scope="module", params=["fig5", "fig3"])
def front_grid(request):
    return _front_grid(request.param)


def _single_time_rows_are_bulk_rows(modes, z, times, zprime=0.0) -> bool:
    """Every row of a single-time variance_field, and every row of the field read
    alone, is bit-equal to the same row of ``rows()``."""
    field = variance_field(modes, z, times, zprime)
    bulk = field.rows()
    return all(np.array_equal(variance_field(modes, z, times[i:i + 1], zprime).rows()[0], bulk[i])
               and np.array_equal(field.rows(i, i + 1)[0], bulk[i])
               for i in range(times.size))


def test_single_time_field_rows_are_bulk_rows(front_grid):
    assert _single_time_rows_are_bulk_rows(*front_grid)
    modes, z, times = front_grid
    assert np.array_equal(pcf(variance_field(modes, z, times[:20])),
                          pcf(variance_field(modes, z, times))[:20])


def test_rows_read_alone_are_bulk_rows_at_any_zprime(basis):
    # 5 um off the centre on the clouds: the pair terms are taken against zprime
    modes, z, zprime, _ = basis
    times = np.linspace(0.0, 12e-3, 37)
    assert _single_time_rows_are_bulk_rows(modes, z, times, zprime)
    field = variance_field(modes, z, times, zprime)
    assert np.array_equal(field.rows(5, 21), field.rows()[5:21])


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("preset", ["fig5", "fig3"])
def test_single_time_field_rows_are_bulk_rows_at_fixed_blas_threads(tmp_path, preset, threads):
    """A fresh process per BLAS thread count: a row must not depend on how the
    BLAS splits the other rows' work between threads."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import splitgas

    if not Path("/proc/self/status").exists():
        pytest.skip("the child's thread count is read from /proc/self/status")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    env["SPLITGAS_THREADS"] = threads
    paths = [Path(splitgas.__file__).resolve().parents[1], Path(__file__).resolve().parent]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [*map(str, paths), env.get("PYTHONPATH")]))
    child = (
        "import splitgas\n"   # caps the BLAS pool before test_modes imports numpy
        "from test_modes import _front_grid, _single_time_rows_are_bulk_rows\n"
        f"print(_single_time_rows_are_bulk_rows(*_front_grid({preset!r})))\n"
        "for line in open('/proc/self/status'):\n"
        "    if line.startswith('Threads:'):\n"
        "        print(line.split()[1])\n"
    )
    out = subprocess.run([sys.executable, "-c", child], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout.split() == ["True", threads]


def test_in_place_builders_bit_equal_to_the_formulas(front_grid):
    """Mode tables, time factors and the field are built in their own arrays;
    each is bit-equal to the out-of-place formula."""
    modes, z, times = front_grid
    zprime = np.array([0.0])
    zz = np.broadcast_arrays(z[::8, None], z[None, ::8])
    if modes.radius is None:
        def rows(x):
            kx = modes.k[:, None] * x.ravel()
            g = np.stack([np.cos(kx), -np.sin(kx)], axis=1)
            return (g * np.sqrt(2.0 / modes.L)).reshape(-1, 2, *x.shape)

        def reference(a, b):
            d = (rows(a) - rows(b)) ** 2
            return d[:, 0] + d[:, 1]
    else:
        assert np.array_equal(legendre_f_table(modes.j_max, z / modes.radius),
                              _legendre_reference(modes.j_max, z / modes.radius))

        def reference(a, b):
            x, xp = a.ravel() / modes.radius, b.ravel() / modes.radius
            f = (_legendre_reference(modes.j_max, x) / np.sqrt(modes.radius)).reshape(-1, *a.shape)
            fp = (_legendre_reference(modes.j_max, xp) / np.sqrt(modes.radius)).reshape(-1, *b.shape)
            return (f - fp) ** 2
    terms = reference(z, zprime)
    assert np.array_equal(modes.pair_terms(z, zprime), terms)
    assert np.array_equal(modes.pair_terms(*zz), reference(*zz))
    weights = modes.split_density_variance() * modes.phi_amplitude() ** 2
    amp = np.sin(modes.omega[None, :] * times[:, None]) ** 2 * weights
    assert np.array_equal(modes.time_factors(times), amp)
    # one vector-matrix product per time (a single matrix product rounds a row
    # by its place in the BLAS kernel's tiles)
    values = np.array([a @ terms for a in amp])
    assert np.array_equal(variance_field(modes, z, times).rows(), values)
