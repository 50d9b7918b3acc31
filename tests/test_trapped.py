"""Legendre mode model, density profiles and trapped phase dynamics."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.constants import hbar, pi
from scipy.integrate import quad
from scipy.special import eval_legendre

from splitgas import (
    ConfigError,
    TrapConfig,
    build_trapped_modes,
    derive_params,
    mode_frequency,
    quasi1d_profile,
)
from splitgas.homogeneous import build_modes
from splitgas.modes import (covariance_rate, pointwise_variance, stationary_variance,
                            variance_field)
from splitgas.trapped import legendre_f_table


def test_mode_frequencies(trapped_config):
    om = trapped_config.omega_long
    assert mode_frequency(1, om) == om  # exact, not approximate
    assert mode_frequency(2, om) == pytest.approx(om * math.sqrt(3.0), rel=1e-15)
    assert mode_frequency(2, om) / mode_frequency(1, om) == pytest.approx(
        math.sqrt(3.0), rel=1e-14)
    with pytest.raises(ConfigError):
        mode_frequency(0, om)


@pytest.mark.parametrize("omega", [math.nan, math.inf, -3.0, 0.0, "3"])
def test_mode_frequency_refuses_a_bad_scale(omega):
    with pytest.raises(ConfigError, match="omega must be finite and strictly positive"):
        mode_frequency(2, omega)


def test_legendre_values():
    assert legendre_f_table(1, 0.5)[-1] == pytest.approx(math.sqrt(1.5) * 0.5, rel=1e-14)
    assert legendre_f_table(1, 0.5)[-1] == pytest.approx(0.6124, abs=1e-4)
    assert legendre_f_table(2, 0.5)[-1] == pytest.approx(math.sqrt(2.5) * (-0.125), rel=1e-14)
    assert legendre_f_table(2, 0.5)[-1] == pytest.approx(-0.1976, abs=1e-4)
    for j in (1, 2, 5, 12):
        assert legendre_f_table(j, 1.0)[-1] == pytest.approx(math.sqrt(j + 0.5), rel=1e-13)
        assert legendre_f_table(j, -1.0)[-1] == pytest.approx(
            (-1.0) ** j * math.sqrt(j + 0.5), rel=1e-13)
    with pytest.raises(ConfigError):
        legendre_f_table(1, 1.5)
    with pytest.raises(ConfigError):
        legendre_f_table(0, 0.3)


@pytest.mark.parametrize("call,name", [(mode_frequency, "mode index j"),
                                       (legendre_f_table, "j_max")],
                         ids=["frequency", "function"])
@pytest.mark.parametrize("j", [math.nan, math.inf, 1.5, 2.5, -1, True])
def test_mode_index_must_be_a_whole_number_of_at_least_1(call, name, j):
    with pytest.raises(ConfigError, match=f"{name} must be an integer of at least 1"):
        call(j, 0.5)


def test_legendre_against_scipy():
    x = np.linspace(-1, 1, 201)
    table = legendre_f_table(40, x)
    for j in (1, 3, 10, 25, 40):
        np.testing.assert_allclose(
            table[j - 1], math.sqrt(j + 0.5) * eval_legendre(j, x),
            rtol=1e-10, atol=1e-12)


def test_legendre_orthonormality():
    # Gauss-Legendre quadrature is exact for these polynomial products
    x, w = np.polynomial.legendre.leggauss(64)
    f = legendre_f_table(10, x)
    gram = (f * w) @ f.T
    np.testing.assert_allclose(gram, np.eye(10), atol=1e-10)


def test_thomas_fermi_profile(trapped_params):
    prof = build_trapped_modes(trapped_params).profile
    assert prof.radius == pytest.approx(56e-6, rel=0.02)
    # independent quadrature of the parabola recovers N/2 = 3500
    total, _ = quad(lambda z: trapped_params.n_peak * (1 - (z / prof.radius) ** 2),
                    -prof.radius, prof.radius)
    assert total == pytest.approx(3500.0, rel=1e-9)


def test_quasi1d_profile(quasi1d_config, trapped_params):
    prof = quasi1d_profile(derive_params(quasi1d_config))
    assert prof.n_peak / trapped_params.n_peak == pytest.approx(1.10, abs=0.03)
    assert prof.radius / trapped_params.R == pytest.approx(0.96, abs=0.02)
    # the radially integrated equation of state softens the sound speed
    assert prof.sound_speed_peak < trapped_params.c


def test_quasi1d_reduces_to_tf_for_weak_interactions(quasi1d_config):
    # shrinking the scattering length linearises the equation of state
    weak = dataclasses.replace(quasi1d_config, scattering_length=5.2e-12)
    prof = quasi1d_profile(derive_params(weak))
    tf = derive_params(dataclasses.replace(weak, regime="thomas_fermi"))
    assert prof.n_peak == pytest.approx(tf.n_peak, rel=2e-3)
    assert prof.radius == pytest.approx(tf.R, rel=2e-3)
    assert prof.eos_slope_peak == pytest.approx(tf.g, rel=2e-3)


def test_quasi1d_requires_regime(trapped_config):
    with pytest.raises(ConfigError):
        quasi1d_profile(derive_params(trapped_config))


def test_trapped_mode_set(trapped_modes, trapped_params):
    m = trapped_modes
    assert m.omega[0] == trapped_params.config.omega_long  # anchored exactly
    assert hbar * m.omega[-1] <= trapped_params.mu
    assert m.v_N == pytest.approx(2 * trapped_params.g / (pi * hbar), rel=1e-14)
    # splitting loads every mode of unit norm with the same density noise n_peak/2
    np.testing.assert_allclose(m.split_density_variance(), trapped_params.n_peak / 2,
                               rtol=1e-14)


def test_build_trapped_modes_refuses_fractional_truncation(trapped_modes):
    # j_max = 2.5 would build 3 modes but store j_max = 2
    with pytest.raises(ConfigError, match="j_max must be an integer"):
        build_trapped_modes(trapped_modes.params, 2.5)


def test_variance_zeros_and_bounds(trapped_modes):
    assert pointwise_variance(12e-6, 12e-6, 8e-3, trapped_modes) == 0.0
    assert pointwise_variance(12e-6, -7e-6, 0.0, trapped_modes) == 0.0
    v = pointwise_variance(12e-6, -7e-6, 8e-3, trapped_modes)
    assert v > 0
    with pytest.raises(ConfigError):
        pointwise_variance(trapped_modes.radius * 1.01, 0.0, 1e-3, trapped_modes)


def test_variance_parity(trapped_modes):
    rng = np.random.default_rng(21)
    R = trapped_modes.radius
    z = rng.uniform(-0.95 * R, 0.95 * R, 40)
    zp = rng.uniform(-0.95 * R, 0.95 * R, 40)
    t = rng.uniform(0, 50e-3, 40)
    v1 = pointwise_variance(z, zp, t, trapped_modes)
    v2 = pointwise_variance(-z, -zp, t, trapped_modes)
    np.testing.assert_allclose(v1, v2, rtol=1e-10, atol=1e-14)
    assert np.all(v1 >= 0)


def test_termwise_nonnegative(trapped_modes):
    # adding modes can only increase the variance
    smaller = build_trapped_modes(trapped_modes.params, trapped_modes.j_max - 20)
    rng = np.random.default_rng(8)
    R = trapped_modes.radius
    z = rng.uniform(-0.9 * R, 0.9 * R, 30)
    t = rng.uniform(0, 30e-3, 30)
    assert np.all(
        pointwise_variance(z, 0.0, t, trapped_modes)
        >= pointwise_variance(z, 0.0, t, smaller) - 1e-15)


def test_short_time_quadratic_law(trapped_modes):
    t = np.geomspace(1e-6, 1e-5, 8)  # well below 1/omega_max ~ 0.24 ms
    pairs = [(10e-6, 25e-6), (-20e-6, 5e-6), (0.0, 30e-6)]
    for z, zp in pairs:
        v = pointwise_variance(z, zp, t, trapped_modes)
        slope = np.polyfit(np.log(t), np.log(v), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.02)


def test_no_exact_recurrence(trapped_modes):
    # incommensurate mode frequencies: the variance never fully rephases
    ts = np.arange(0.5e-3, 0.3, 0.5e-3)
    z = np.linspace(-0.9, 0.9, 41) * trapped_modes.radius
    field = variance_field(trapped_modes, z, ts)
    worst = field.values.max(axis=1)   # max over positions, per time
    assert worst.min() > 0.05


def test_early_growth_matches_homogeneous(trapped_modes, trapped_params, homog_modes):
    # same peak density: before the cone feels the trap the variance agrees
    for t in (2e-3, 3e-3, 5e-3):
        zb = np.array([4e-6, 7e-6, 10e-6])
        v_t = pointwise_variance(zb, 0.0, t, trapped_modes)
        v_h = pointwise_variance(zb, 0.0, t, build_modes(trapped_params, 100e-6))
        np.testing.assert_allclose(v_t, v_h, rtol=0.10)


def test_trapped_convergence_and_fields(trapped_modes):
    R = trapped_modes.radius
    z = np.linspace(0, 0.98 * R, 41)
    ts = np.linspace(0, 10e-3, 6)
    field = variance_field(trapped_modes, z, ts, check_convergence=True)
    assert field.values.shape == (6, 41)
    dev0 = field.doubling_dev
    assert 0 < dev0 < 0.05
    # the doubling deviation keeps falling as the cutoff is raised
    fine = build_trapped_modes(trapped_modes.params, 4 * trapped_modes.j_max)
    fine_field = variance_field(fine, z, ts, check_convergence=True)
    assert fine_field.doubling_dev < min(5e-3, dev0)


@pytest.mark.parametrize("t", [4e-3, 8e-3, 10e-3, 12e-3, 14e-3])
def test_trap_slows_the_light_cone(trapped_modes, t):
    """The covariance rate's edge follows the local-density cone: dz/dt = 2c(z) with
    c(z) = c0*sqrt(1 - z^2/R^2) gives z(t) = R*sin(2*c0*t/R), behind the box's 2*c0*t."""
    R, c0 = trapped_modes.radius, trapped_modes.profile.sound_speed_peak
    z = np.linspace(0.0, 0.98 * R, 981)
    rate = covariance_rate(z, t, trapped_modes)
    edge = z[np.argmax(rate < 0.5 * rate[z <= c0 * t].mean())]
    assert abs(edge - R * math.sin(2 * c0 * t / R)) < 2 * trapped_modes.xi_h
    if t >= 10e-3:   # the box's cone lies outside twice that band
        assert edge < 2 * c0 * t - 2e-6


def test_stationary_variance_is_the_time_average(trapped_modes):
    # the cloud's frequencies are incommensurate: a long random sample of times
    # averages each sin^2(omega_j t) to 1/2
    z = np.linspace(0.1, 0.9, 5) * trapped_modes.radius
    times = np.random.default_rng(7).uniform(0.0, 20.0, 4000)
    mean = variance_field(trapped_modes, z, times).values.mean(axis=0)
    np.testing.assert_allclose(mean, stationary_variance(z, trapped_modes), rtol=0.02)


def test_quasi1d_mode_scale(quasi1d_config):
    params = derive_params(quasi1d_config)
    prof = quasi1d_profile(params)
    modes = build_trapped_modes(params)
    # frequency ladder follows the EOS sound speed on the effective parabola
    expected = math.sqrt(2.0) * prof.sound_speed_peak / prof.radius
    assert modes.omega[0] == pytest.approx(expected, rel=1e-12)
    assert modes.omega[0] < quasi1d_config.omega_long * 1.0  # softer than the trap
