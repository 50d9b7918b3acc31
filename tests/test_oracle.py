"""Monte-Carlo sampler: statistics, reproducibility, analytic agreement."""

import dataclasses

import numpy as np
import pytest

from splitgas import (
    ConfigError,
    EnsembleSpec,
    build_modes,
    derive_params,
    estimate_pcf,
    recurrence_time,
    sample_realization,
)
from splitgas.homogeneous import initial_phase_variance, phase_covariance, thermal_variance
from splitgas.modes import pointwise_variance


SEED = 20260809


def test_spec_validation():
    with pytest.raises(ConfigError):
        EnsembleSpec(realizations=1, master_seed=1)
    with pytest.raises(ConfigError):
        EnsembleSpec(realizations=100, master_seed=1, kind="thermal")
    with pytest.raises(ConfigError):
        EnsembleSpec(realizations=100, master_seed=1, kind="wigner")


@pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf, -1e-8, 0.0, True, "3e-8"])
def test_spec_refuses_a_non_finite_temperature(T):
    with pytest.raises(ConfigError, match="finite positive temperature"):
        EnsembleSpec(realizations=10, master_seed=1, kind="thermal", temperature=T)


@pytest.mark.parametrize("n", [2.5, 10.0, np.float64(4.0), "10"])
def test_spec_refuses_non_integer_realizations(n):
    with pytest.raises(ConfigError, match="integer of at least 2 realizations"):
        EnsembleSpec(realizations=n, master_seed=1)


@pytest.mark.parametrize("t", [np.nan, np.inf, -1e-3])
@pytest.mark.parametrize("sample", [True, False], ids=["sample_realization", "estimate_pcf"])
def test_oracle_refuses_the_times_variance_field_refuses(homog_modes, sample, t):
    spec = EnsembleSpec(realizations=4, master_seed=SEED)
    z = np.linspace(0, 40e-6, 7)
    with pytest.raises(ConfigError, match="evolution times"):
        if sample:
            sample_realization(0, spec, homog_modes, z, [1e-3, t])
        else:
            estimate_pcf(spec, homog_modes, z, [1e-3, t])


def test_phase_field_starts_flat(homog_modes):
    spec = EnsembleSpec(realizations=16, master_seed=SEED)
    z = np.linspace(0, 40e-6, 7)
    for i in (0, 7, 15):
        fld = sample_realization(i, spec, homog_modes, z, [0.0])
        np.testing.assert_allclose(fld, 0.0, atol=1e-30)


def test_phase_field_rephases_at_recurrence(homog_modes, homog_params):
    spec = EnsembleSpec(realizations=4, master_seed=SEED)
    t_rev = recurrence_time(homog_modes.L, homog_params.c)
    z = np.linspace(0, 40e-6, 7)
    fld = sample_realization(2, spec, homog_modes, z, [t_rev])
    scale = np.abs(sample_realization(2, spec, homog_modes, z, [0.3 * t_rev])).max()
    assert np.abs(fld).max() < 1e-10 * scale


def test_reproducibility_bit_identical(homog_modes):
    spec = EnsembleSpec(realizations=300, master_seed=SEED)
    z = np.array([5e-6, 15e-6])
    ts = np.array([2e-3, 6e-3])
    a = estimate_pcf(spec, homog_modes, z, ts)
    b = estimate_pcf(spec, homog_modes, z, ts)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.stderr, b.stderr)
    # different seed, different ensemble
    c = estimate_pcf(dataclasses.replace(spec, master_seed=SEED + 1),
                     homog_modes, z, ts)
    assert not np.array_equal(a.mean, c.mean)


def test_single_mode_quadrature_variance(homog_params):
    """One-mode ensemble: the sampled phase amplitude variance must follow
    (pi/(k K))^2 (xi^2 n/2) sin^2(omega t)."""
    modes = build_modes(homog_params, homog_params.config.system_length, p_max=1)
    n_real = 60000
    spec = EnsembleSpec(realizations=n_real, master_seed=SEED)
    k = modes.k[0]
    L = modes.L
    # sample the field at z = 0 and z = pi/(2k): phi0 = 2 Re(phi_k)/sqrt(L),
    # phi1 = -2 Im(phi_k)/sqrt(L)
    z = np.array([0.0, np.pi / (2 * k)])
    t = 4e-3
    re = np.empty(n_real)
    im = np.empty(n_real)
    for i in range(n_real):
        fld = sample_realization(i, spec, modes, z, [t])
        re[i] = fld[0, 0] * np.sqrt(L) / 2
        im[i] = -fld[0, 1] * np.sqrt(L) / 2
    target = (np.pi / (k * homog_params.K)) ** 2 \
        * homog_params.n_peak / 2 * np.sin(modes.omega[0] * t) ** 2
    # each quadrature carries half the complex variance; chi^2 statistics
    rel_err = 3 * np.sqrt(2.0 / n_real)
    assert re.var() == pytest.approx(target / 2, rel=rel_err)
    assert im.var() == pytest.approx(target / 2, rel=rel_err)
    assert (re.var() + im.var()) == pytest.approx(target, rel=rel_err)


def test_degenerate_point_is_exact(homog_modes):
    spec = EnsembleSpec(realizations=200, master_seed=SEED)
    stats = estimate_pcf(spec, homog_modes, np.array([0.0, 10e-6]),
                         np.array([3e-3]))
    assert stats.mean[0, 0] == 1.0
    assert stats.stderr[0, 0] == 0.0
    assert stats.stderr[0, 1] > 0.0
    assert np.all(np.abs(stats.mean) <= 1.0)


def test_homogeneous_oracle_agreement(homog_modes):
    spec = EnsembleSpec(realizations=10000, master_seed=SEED)
    z = np.linspace(2e-6, 30e-6, 12)
    ts = np.linspace(1e-3, 12e-3, 9)
    stats = estimate_pcf(spec, homog_modes, z, ts)
    analytic = np.exp(-pointwise_variance(z[None, :], 0.0, ts[:, None], homog_modes) / 2)
    zscores = (stats.mean - analytic) / stats.stderr
    assert np.mean(np.abs(zscores) < 3.0) >= 0.99
    # the imaginary channel must be pure noise
    imag_z = stats.imag_mean / np.where(stats.imag_stderr > 0, stats.imag_stderr, 1)
    assert np.mean(np.abs(imag_z) < 3.0) >= 0.99


def test_covariance_channel_agreement(homog_modes):
    """The sampled fields also reproduce <phi(z) phi(0)>, validating the
    light-cone covariance observable independently."""
    spec = EnsembleSpec(realizations=20000, master_seed=SEED + 3)
    z = np.array([4e-6, 10e-6, 18e-6])
    t = 5e-3
    pts = np.concatenate([z, [0.0]])
    acc = np.zeros(3)
    acc2 = np.zeros(3)
    for i in range(spec.realizations):
        fld = sample_realization(i, spec, homog_modes, pts, [t])[0]
        prod = fld[:3] * fld[3]
        acc += prod
        acc2 += prod**2
    mean = acc / spec.realizations
    stderr = np.sqrt((acc2 / spec.realizations - mean**2) / (spec.realizations - 1))
    target = phase_covariance(z, t, homog_modes)
    assert np.all(np.abs(mean - target) < 3 * stderr)


def test_trapped_oracle_agreement(trapped_modes):
    spec = EnsembleSpec(realizations=10000, master_seed=SEED)
    R = trapped_modes.radius
    z = R * np.linspace(0.05, 0.75, 10)
    ts = np.linspace(1e-3, 12e-3, 10)
    stats = estimate_pcf(spec, trapped_modes, z, ts)
    analytic = np.exp(
        -pointwise_variance(z[None, :], 0.0, ts[:, None], trapped_modes) / 2)
    zscores = (stats.mean - analytic) / stats.stderr
    assert np.mean(np.abs(zscores) < 3.0) >= 0.99


def test_stderr_scaling(homog_modes):
    z = np.linspace(3e-6, 25e-6, 8)
    ts = np.array([2e-3, 5e-3])
    big = estimate_pcf(EnsembleSpec(8000, SEED), homog_modes, z, ts)
    small = estimate_pcf(EnsembleSpec(2000, SEED), homog_modes, z, ts)
    ratio = np.median(small.stderr / big.stderr)
    assert ratio == pytest.approx(2.0, rel=0.15)


def test_thermal_ensemble(homog_modes):
    T = 30e-9
    spec = EnsembleSpec(realizations=8000, master_seed=SEED, kind="thermal",
                        temperature=T)
    z = np.array([5e-6, 12e-6, 24e-6])
    ts = np.array([0.0, 4e-3, 9e-3])
    stats = estimate_pcf(spec, homog_modes, z, ts)
    # stationary: every time slice agrees with the static thermal variance
    analytic = np.exp(-thermal_variance(z, T, homog_modes) / 2)
    for it in range(len(ts)):
        zsc = (stats.mean[it] - analytic) / stats.stderr[it]
        assert np.all(np.abs(zsc) < 3.5)
    # and the time slices agree with each other within errors
    diff = np.abs(stats.mean[1] - stats.mean[2])
    assert np.all(diff < 3 * (stats.stderr[1] + stats.stderr[2]))


def test_initial_phase_noise_channel(homog_modes):
    spec = EnsembleSpec(realizations=20000, master_seed=SEED,
                        include_initial_phase_noise=True)
    z = np.array([5e-6, 15e-6, 30e-6])
    stats = estimate_pcf(spec, homog_modes, z, np.array([0.0]))
    expected = np.exp(-initial_phase_variance(z, homog_modes) / 2)
    zsc = (stats.mean[0] - expected) / stats.stderr[0]
    assert np.all(np.abs(zsc) < 3.5)
    # the neglected noise is a percent-level effect on C at t = 0
    assert np.all(expected > 0.95)


def test_realization_index_bounds(homog_modes):
    spec = EnsembleSpec(realizations=4, master_seed=SEED)
    with pytest.raises(ConfigError):
        sample_realization(4, spec, homog_modes, [1e-6], [1e-3])
