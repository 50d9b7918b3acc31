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
)
from splitgas.modes import initial_phase_variance, phase_covariance, pointwise_variance
from splitgas.observables import contrast_evaluator
from splitgas.oracle import _BLOCK, _basis, _generator, _rekey


SEED = 20260809


def test_spec_validation():
    with pytest.raises(ConfigError):
        EnsembleSpec(realizations=1, master_seed=1)


@pytest.mark.parametrize("n", [2.5, 10.0, np.float64(4.0), "10"])
def test_spec_refuses_non_integer_realizations(n):
    with pytest.raises(ConfigError, match="integer of at least 2 realizations"):
        EnsembleSpec(realizations=n, master_seed=1)


@pytest.mark.parametrize("t", [np.nan, np.inf, -1e-3])
def test_oracle_refuses_the_times_variance_field_refuses(homog_modes, t):
    spec = EnsembleSpec(realizations=4, master_seed=SEED)
    z = np.linspace(0, 40e-6, 7)
    with pytest.raises(ConfigError, match="evolution times"):
        estimate_pcf(spec, homog_modes, z, [1e-3, t])


def test_phase_field_starts_flat(homog_modes):
    # without the initial phase noise every realization's field is 0 at t = 0
    stats = estimate_pcf(EnsembleSpec(realizations=16, master_seed=SEED), homog_modes,
                         np.linspace(0, 40e-6, 7), [0.0])
    assert np.all(stats.mean == 1.0)
    assert np.all(stats.stderr == 0.0)


def test_phase_field_rephases_at_recurrence(homog_modes, homog_params):
    spec = EnsembleSpec(realizations=64, master_seed=SEED)
    t_rev = recurrence_time(homog_modes.L, homog_params.c)
    z = np.linspace(0, 40e-6, 7)
    stats = estimate_pcf(spec, homog_modes, z, [t_rev, 0.3 * t_rev])
    np.testing.assert_allclose(stats.mean[0], 1.0, rtol=0, atol=1e-15)
    assert stats.mean[1, -1] < 0.9   # dephased in between


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
    # the oracle's synthesis against its undifferenced basis: each realization
    # draws from its own keyed stream
    basis = _basis(spec, modes, z, np.array([t]))
    gen = _generator()
    fld = np.array([_rekey(gen, SEED, i).standard_normal(basis.shape[0]) @ basis
                    for i in range(n_real)])
    re = fld[:, 0] * np.sqrt(L) / 2
    im = -fld[:, 1] * np.sqrt(L) / 2
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
    basis = _basis(spec, homog_modes, pts, np.array([t]))
    gen = _generator()
    acc = np.zeros(3)
    acc2 = np.zeros(3)
    for i in range(spec.realizations):
        fld = _rekey(gen, spec.master_seed, i).standard_normal(basis.shape[0]) @ basis
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


def _sampled_contrast(modes, length, times, spec):
    """<|sum_a w_a exp(i phi_a)|^2> / L^2 and its standard error at each time.

    phi is synthesised from the oracle's undifferenced basis and per-index
    Philox streams on the contrast kernel's window grid: n = round(L/(xi_h/2))
    + 1 points, step L/(n - 1), trapezoid weights w.  Nothing here shares the
    kernel's parity split, its h, or its exp(-V/2).
    """
    n = int(round(length / (modes.xi_h / 2.0))) + 1
    step = length / (n - 1)
    z = (np.arange(n) - (n - 1) / 2.0) * step
    w = np.full(n, step)
    w[[0, -1]] = step / 2.0
    basis = _basis(spec, modes, z, times)
    gen = _generator()
    samples = np.empty((spec.realizations, times.size))
    for lo in range(0, spec.realizations, _BLOCK):
        idx = range(lo, min(lo + _BLOCK, spec.realizations))
        x = np.stack([_rekey(gen, spec.master_seed, i).standard_normal(basis.shape[0])
                      for i in idx])
        phi = (x @ basis).reshape(len(idx), times.size, n)
        samples[lo:lo + len(idx)] = (np.cos(phi) @ w) ** 2 + (np.sin(phi) @ w) ** 2
    samples /= length**2
    return samples.mean(axis=0), samples.std(axis=0, ddof=1) / np.sqrt(spec.realizations)


@pytest.mark.parametrize("geometry", ["trapped", "homogeneous"])
def test_contrast_kernel_agrees_with_sampled_phases(trapped_modes, homog_modes, geometry):
    """The oracle judges the contrast kernel: for Gaussian phases the double
    integral of exp(-V/2) is the mean squared modulus of the window integral of
    exp(i phi), which a sampled ensemble estimates directly (Kitagawa et al.,
    NJP 13, 073018 (2011)).  Odd and even window grids, before the box's first
    rephasing at about 29 ms."""
    modes = trapped_modes if geometry == "trapped" else homog_modes
    spec = EnsembleSpec(realizations=4000, master_seed=SEED)
    times = np.array([0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0]) * 1e-3
    for length in (20e-6, 51e-6, 90e-6):
        mean, stderr = _sampled_contrast(modes, length, times, spec)
        zscores = (contrast_evaluator(modes, length)(times) - mean) / stderr
        assert np.all(np.abs(zscores) < 4.0), (length, zscores)


def test_stderr_scaling(homog_modes):
    z = np.linspace(3e-6, 25e-6, 8)
    ts = np.array([2e-3, 5e-3])
    big = estimate_pcf(EnsembleSpec(8000, SEED), homog_modes, z, ts)
    small = estimate_pcf(EnsembleSpec(2000, SEED), homog_modes, z, ts)
    ratio = np.median(small.stderr / big.stderr)
    assert ratio == pytest.approx(2.0, rel=0.15)


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


def test_trapped_initial_phase_noise_channel(trapped_modes):
    spec = EnsembleSpec(realizations=20000, master_seed=SEED,
                        include_initial_phase_noise=True)
    z = trapped_modes.radius * np.array([0.1, 0.3, 0.5])
    stats = estimate_pcf(spec, trapped_modes, z, np.array([0.0]))
    expected = np.exp(-initial_phase_variance(z, trapped_modes) / 2)
    zsc = (stats.mean[0] - expected) / stats.stderr[0]
    assert np.all(np.abs(zsc) < 3.5)
    # percent level, as in the box: the shot noise's minimum-uncertainty partner
    assert np.all((expected > 0.95) & (expected < 0.995))

