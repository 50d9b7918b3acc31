"""Plane-wave mode model: spectra, variance dynamics, rates, recurrences."""

import math

import numpy as np
import pytest
from scipy.constants import hbar, pi

from splitgas import ConfigError, build_modes, recurrence_time
from splitgas.homogeneous import prethermal_variance
from splitgas.modes import (covariance_rate, initial_phase_variance, phase_covariance,
                            pointwise_variance, stationary_variance, thermal_variance,
                            variance_field, variance_rate)
from splitgas.observables import prethermal_pcf


def test_mode_grid(homog_modes, homog_params):
    m = homog_modes
    assert m.p_max == 39  # ceil(L / (2 pi xi_h)) for the reference box
    assert m.k[0] == pytest.approx(2 * pi / m.L, rel=1e-14)
    assert m.k[0] == pytest.approx(0.0628e6, rel=1e-3)
    np.testing.assert_allclose(m.omega, homog_params.c * m.k, rtol=1e-14)


def test_box_profile_is_uniform(homog_modes, homog_params):
    """The box's profile is the uniform gas of params: the peak healing length is
    params' bit for bit, there is no radius, and the phase amplitude pi*v_N/omega is
    the box's closed form pi/(k K)."""
    m = homog_modes
    assert m.radius is None
    assert m.xi_h == homog_params.xi_h
    np.testing.assert_allclose(m.phi_amplitude(), pi / (m.k * homog_params.K), rtol=1e-14)


def test_build_modes_validation(homog_params):
    with pytest.raises(ConfigError):
        build_modes(homog_params, 100e-6, p_max=0)
    with pytest.raises(ConfigError):
        build_modes(homog_params, 0.0)


def test_variance_zeros(homog_modes, homog_params):
    assert pointwise_variance(0.0, 0.0, 5e-3, homog_modes) == 0.0
    assert pointwise_variance(17e-6, 0.0, 0.0, homog_modes) == 0.0
    t_rev = recurrence_time(homog_modes.L, homog_params.c)
    zb = np.linspace(0, 50e-6, 40)
    v = pointwise_variance(zb, 0.0, t_rev, homog_modes)
    assert np.all(np.abs(v) < 1e-20)
    # the correlation function returns to 1 at the revival
    assert np.all(np.exp(-v / 2) > 1 - 1e-10)


def test_variance_even_and_nonnegative(homog_modes):
    rng = np.random.default_rng(11)
    zb = rng.uniform(-50e-6, 50e-6, 64)
    t = rng.uniform(0, 60e-3, 64)
    v_pos = pointwise_variance(np.abs(zb), 0.0, t, homog_modes)
    v_sym = pointwise_variance(-np.abs(zb), 0.0, t, homog_modes)
    assert np.array_equal(v_pos, v_sym)  # bit-exact symmetry
    assert np.all(v_pos >= 0)


def test_variance_periodicity(homog_modes, homog_params):
    t_rev = recurrence_time(homog_modes.L, homog_params.c)
    zb = np.array([3e-6, 11e-6, 27e-6])
    for t in (1.3e-3, 6.7e-3, 13.9e-3):
        v1 = pointwise_variance(zb, 0.0, t, homog_modes)
        v2 = pointwise_variance(zb, 0.0, t + t_rev, homog_modes)
        np.testing.assert_allclose(v1, v2, rtol=1e-9, atol=1e-12)


def test_monotone_truncation(homog_params, homog_modes):
    # every added mode contributes a non-negative term
    bigger = build_modes(homog_params, homog_modes.L, homog_modes.p_max + 7)
    rng = np.random.default_rng(5)
    zb = rng.uniform(0, 40e-6, 32)
    t = rng.uniform(0, 30e-3, 32)
    assert np.all(pointwise_variance(zb, 0.0, t, bigger)
                  >= pointwise_variance(zb, 0.0, t, homog_modes) - 1e-15)


def test_trapezoid_structure(homog_modes, homog_params):
    """Inside the cone the variance sits on the prethermal ramp, outside on
    the growing plateau 4ct/l0; checked against the closed forms well above
    the healing-length cutoff."""
    p = homog_params
    t = 10e-3
    inside = np.array([8e-6, 12e-6, 16e-6])
    outside = np.array([42e-6, 46e-6, 50e-6])
    v_in = pointwise_variance(inside, 0.0, t, homog_modes)
    np.testing.assert_allclose(v_in, 2 * inside / p.l0, rtol=0.05)
    v_out = pointwise_variance(outside, 0.0, t, homog_modes)
    np.testing.assert_allclose(v_out, 4 * p.c * t / p.l0, rtol=0.05)


def test_prethermal_variance(homog_params):
    l0_eff = homog_params.l0_effective
    assert prethermal_variance(l0_eff, homog_params) == pytest.approx(2.0, rel=1e-14)
    assert prethermal_variance(0.0, homog_params) == 0.0
    assert math.exp(-prethermal_variance(l0_eff, homog_params) / 2) == pytest.approx(
        math.exp(-1), rel=1e-12)


def test_prethermal_matches_windowed_average(homog_modes, homog_params):
    zb = np.arange(0.0, 25.1e-6, 2.5e-6)
    C_avg = prethermal_pcf(homog_modes, zb)
    var_avg = -2.0 * np.log(C_avg[1:])
    target = prethermal_variance(zb[1:], homog_params)
    np.testing.assert_allclose(np.exp(-var_avg / 2), np.exp(-target / 2), rtol=0.02)


def test_stationary_variance_closed_form(homog_params):
    # sin^2 -> 1/2 average of the infinite sum is 2 zbar (L - zbar) / (l0 L);
    # verified at 16x the default truncation where the tail is negligible
    L = homog_params.config.system_length
    modes = build_modes(homog_params, L, 32 * 39)
    zb = np.array([10e-6, 25e-6, 40e-6])
    expected = 2 * zb * (L - zb) / (homog_params.l0_effective * L)
    np.testing.assert_allclose(stationary_variance(zb, modes), expected, rtol=2e-3)


def test_covariance_variance_identity(homog_modes):
    zb = np.array([4e-6, 12e-6, 31e-6])
    t = 7.3e-3
    lhs = pointwise_variance(zb, 0.0, t, homog_modes)
    rhs = 2 * (phase_covariance(0.0, t, homog_modes) - phase_covariance(zb, t, homog_modes))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-14)


def test_phase_covariance_closed_form(homog_modes):
    # the box's pair rows sum to 1/2 * coef * sum_p sin^2(omega_p t) cos(k_p zbar) / k_p^2
    # with coef = 2 pi^2 n xi_n^2 / (L K^2)
    m, p = homog_modes, homog_modes.params
    coef = 2.0 * pi**2 * p.n_peak * p.squeezing / (m.L * p.K**2)
    zb = np.array([0.0, 4e-6, -12e-6, 31e-6, 77e-6])
    t = np.array([[0.4e-3], [2.1e-3], [7.3e-3]])
    s2 = np.sin(m.omega * t[..., None]) ** 2
    expected = 0.5 * coef * np.sum(s2 * np.cos(m.k * zb[:, None]) / m.k**2, axis=-1)
    np.testing.assert_allclose(phase_covariance(zb, t, m), expected, rtol=1e-12)


@pytest.mark.parametrize("call,match", [
    (lambda m: phase_covariance(5e-6, float("nan"), m), "evolution times must be finite"),
    (lambda m: phase_covariance(1.0, -1e-3, m), "evolution times must be finite"),
    (lambda m: stationary_variance(1.0, m), "exceeds the periodic box"),
    (lambda m: covariance_rate(1.0, 5e-3, m), "exceeds the periodic box"),
], ids=["covariance-nan-time", "covariance-negative-time", "stationary-1m", "rate-1m"])
def test_covariance_sums_refuse_what_pointwise_variance_refuses(homog_modes, call, match):
    with pytest.raises(ConfigError, match=match):
        call(homog_modes)


def test_rate_step_structure(cone_modes, cone_params):
    """Light-cone rates at c = 1 mm/s, t = 5 ms in a wide box.

    d<dphi^2>/dt vanishes inside the cone and is 4c/l0 outside; the
    covariance rate is the complementary step 2c/l0 inside, zero outside.
    """
    p = cone_params
    t = 5e-3
    xi = p.xi_h
    cone = 2 * p.c * t
    rate0 = 2 * p.c / p.l0
    inside = np.linspace(2 * xi, cone - 3 * xi, 25)
    outside = np.linspace(cone + 3 * xi, 35e-6, 25)
    v_in = variance_rate(inside, t, cone_modes)
    v_out = variance_rate(outside, t, cone_modes)
    assert np.all(np.abs(v_in) < 0.05 * 2 * rate0)
    np.testing.assert_allclose(v_out, 2 * rate0, rtol=0.05)
    c_in = covariance_rate(inside, t, cone_modes)
    c_out = covariance_rate(outside, t, cone_modes)
    np.testing.assert_allclose(c_in, rate0, rtol=0.05)
    assert np.all(np.abs(c_out) < 0.05 * rate0)
    # single spot checks from the cone geometry: 5 um is inside, 15 um outside
    assert covariance_rate(5e-6, t, cone_modes) == pytest.approx(rate0, rel=0.05)
    assert abs(covariance_rate(15e-6, t, cone_modes)) < 0.05 * rate0


def test_rate_plateau_flatness(cone_modes, cone_params):
    # inside-cone covariance rate is flat in both zbar and t at the 5% level
    p = cone_params
    rate0 = 2 * p.c / p.l0
    vals = []
    for t in (4e-3, 5e-3, 6e-3):
        zb = np.linspace(2 * p.xi_h, 2 * p.c * t - 3 * p.xi_h, 15)
        vals.append(covariance_rate(zb, t, cone_modes) / rate0)
    vals = np.concatenate(vals)
    assert np.abs(vals - 1.0).max() < 0.05


def test_rate_requires_valid_time(cone_modes):
    with pytest.raises(ConfigError):
        variance_rate(5e-6, 0.0, cone_modes)


@pytest.mark.parametrize("rate", [variance_rate, covariance_rate])
@pytest.mark.parametrize("dt", [0.0, float("nan")])
def test_rate_refuses_bad_step(cone_modes, rate, dt):
    # dt = 0 would divide by zero and dt = nan would return nan
    with pytest.raises(ConfigError, match="dt must be finite and strictly positive"):
        rate(5e-6, 5e-3, cone_modes, dt=dt)


def test_build_modes_refuses_fractional_truncation(homog_params):
    # p_max = 2.5 would build 3 modes but store p_max = 2
    with pytest.raises(ConfigError, match="p_max must be an integer"):
        build_modes(homog_params, 100e-6, p_max=2.5)


def test_build_modes_refuses_nonfinite_box(homog_params):
    with pytest.raises(ConfigError, match="box size L must be finite"):
        build_modes(homog_params, float("nan"))


def test_thermal_variance(homog_modes, homog_params):
    assert thermal_variance(0.0, 30e-9, homog_modes) == 0.0
    zb = np.linspace(0, homog_modes.L / 2, 64)
    v1 = thermal_variance(zb, 15e-9, homog_modes)
    v2 = thermal_variance(zb, 30e-9, homog_modes)
    np.testing.assert_allclose(v2, 2 * v1, rtol=1e-12)  # linear in T
    assert np.all(np.diff(v1) >= -1e-15)                # monotone on [0, L/2]
    # finite-box closed form at high truncation: 2 zbar (L - zbar) / (lambda_T L)
    fine = build_modes(homog_params, homog_modes.L, 16 * homog_modes.p_max)
    lam = homog_params.lambda_T(30e-9)
    zb2 = np.array([5e-6, 20e-6, 45e-6])
    expected = 2 * zb2 * (homog_modes.L - zb2) / (lam * homog_modes.L)
    np.testing.assert_allclose(thermal_variance(zb2, 30e-9, fine), expected, rtol=5e-3)


def test_recurrence_time(homog_params):
    t_rev = recurrence_time(100e-6, 1.8e-3)
    assert t_rev == pytest.approx(27.8e-3, rel=0.01)
    assert recurrence_time(200e-6, 1.8e-3) == pytest.approx(2 * t_rev, rel=1e-14)
    bad = (-1.0, math.nan, math.inf, -math.inf)
    for args in [(b, 1.8e-3) for b in bad] + [(100e-6, b) for b in bad]:
        with pytest.raises(ConfigError, match="finite and strictly positive"):
            recurrence_time(*args)


def test_parseval_identity(homog_params, trapped_params, cone_params):
    # pi^2 n / K^2 = 4 m g / hbar^2: the bridge between mode sum and ramp
    for p in (homog_params, trapped_params, cone_params):
        assert pi**2 * p.n_peak / p.K**2 == pytest.approx(
            4 * p.mass * p.g / hbar**2, rel=1e-12)


def test_variance_field_and_convergence(homog_modes, homog_params):
    zb = np.linspace(0, 30e-6, 31)
    ts = np.linspace(0, 10e-3, 6)
    fld = variance_field(homog_modes, zb, ts, check_convergence=True)
    assert fld.values.shape == (6, 31)
    assert 5e-3 <= fld.doubling_dev  # physical cutoff sensitivity ~1/p_max
    assert 0 < fld.doubling_dev < 0.05
    # at 4x the default truncation the doubling deviation is inside 0.5%
    fine = build_modes(homog_params, homog_modes.L, 4 * homog_modes.p_max)
    fine_field = variance_field(fine, zb, ts, check_convergence=True)
    assert fine_field.doubling_dev < 5e-3


def test_initial_phase_variance_small(homog_modes, homog_params):
    # the neglected t = 0 shot-noise phase variance is tiny for xi_n^2 = 1
    v0 = initial_phase_variance(np.array([10e-6, 25e-6]), homog_modes)
    assert np.all(v0 > 0)
    assert np.all(v0 < 0.05 * prethermal_variance(np.array([10e-6, 25e-6]), homog_params))
