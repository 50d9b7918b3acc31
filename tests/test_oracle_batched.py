"""Batched oracle synthesis against plain per-realization references."""

import numpy as np
import pytest
from scipy.constants import pi

from splitgas import EnsembleSpec, estimate_pcf, sample_realization
from splitgas.trapped import legendre_f_table


SEED = 20260809


def _geometry(request, name):
    modes = request.getfixturevalue(name)
    if name == "homog_modes":
        return modes, np.array([0.0, 3e-6, 11e-6, 24e-6]), 0.0
    R = modes.radius
    return modes, R * np.array([0.1, 0.3, 0.5, 0.8]), 0.2 * R


def _loop_estimate(spec, modes, z, times, zprime):
    """<cos/sin dphi> from one sample_realization call per realization."""
    pts = np.concatenate([z, [zprime]])
    cos, sin = [], []
    for i in range(spec.realizations):
        fld = sample_realization(i, spec, modes, pts, times)
        dphi = fld[:, :-1] - fld[:, -1:]
        cos.append(np.cos(dphi))
        sin.append(np.sin(dphi))
    n = spec.realizations
    cos, sin = np.array(cos), np.array(sin)
    return (cos.mean(axis=0), cos.std(axis=0, ddof=1) / np.sqrt(n),
            sin.mean(axis=0), sin.std(axis=0, ddof=1) / np.sqrt(n))


@pytest.mark.parametrize("geometry", ["homog_modes", "trapped_modes"])
@pytest.mark.parametrize("phase_noise", [False, True])
@pytest.mark.parametrize("n", [300, 513])
def test_batched_estimate_matches_loop(request, geometry, phase_noise, n):
    modes, z, zprime = _geometry(request, geometry)
    times = np.array([0.0, 1.5e-3, 4e-3, 9e-3])
    spec = EnsembleSpec(realizations=n, master_seed=SEED,
                        include_initial_phase_noise=phase_noise)
    stats = estimate_pcf(spec, modes, z, times, zprime=zprime)
    mean, stderr, imag_mean, imag_stderr = _loop_estimate(spec, modes, z, times, zprime)
    np.testing.assert_allclose(stats.mean, mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(stats.stderr, stderr, rtol=0, atol=1e-12)
    np.testing.assert_allclose(stats.imag_mean, imag_mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(stats.imag_stderr, imag_stderr, rtol=0, atol=1e-12)


def _per_mode_field(index, spec, modes, z, times):
    """The per-mode synthesis the draw order is documented against."""
    key = np.array([spec.master_seed, index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    noise = spec.include_initial_phase_noise
    if hasattr(modes, "p_max"):
        P = modes.p_max
        sig_n = np.sqrt(modes.split_density_variance())
        xn = rng.standard_normal((P, 2)) * (sig_n[:, None] / np.sqrt(2.0))
        wt = modes.omega[:, None] * times[None, :]
        amp = modes.phi_amplitude()[:, None]
        re = -amp * xn[:, :1] * np.sin(wt)
        im = -amp * xn[:, 1:] * np.sin(wt)
        if noise:
            sig_phi = np.sqrt(modes.split_phase_variance())
            xphi = rng.standard_normal((P, 2)) * (sig_phi[:, None] / np.sqrt(2.0))
            re = re + xphi[:, :1] * np.cos(wt)
            im = im + xphi[:, 1:] * np.cos(wt)
        kz = modes.k[None, :] * z[:, None]
        field = (2.0 / np.sqrt(modes.L)) * (np.cos(kz) @ re - np.sin(kz) @ im)
        return field.T
    J = modes.j_max
    xn = rng.standard_normal(J) * np.sqrt(modes.split_density_variance())
    wt = modes.omega_j[:, None] * times[None, :]
    phi_t = -(pi * modes.v_N / modes.omega_j[:, None]) * xn[:, None] * np.sin(wt)
    if noise:
        xphi = rng.standard_normal(J) * np.sqrt(modes.split_phase_variance())
        phi_t = phi_t + xphi[:, None] * np.cos(wt)
    return phi_t.T @ legendre_f_table(J, z / modes.radius)


@pytest.mark.parametrize("geometry", ["homog_modes", "trapped_modes"])
@pytest.mark.parametrize("phase_noise", [False, True])
def test_draw_order_pinned(request, geometry, phase_noise):
    modes, z, zprime = _geometry(request, geometry)
    pts = np.concatenate([z, [zprime]])
    times = np.array([0.0, 2e-3, 7e-3])
    spec = EnsembleSpec(realizations=4, master_seed=SEED,
                        include_initial_phase_noise=phase_noise)
    for i in range(4):
        got = sample_realization(i, spec, modes, pts, times)
        want = _per_mode_field(i, spec, modes, pts, times)
        assert got.shape == (times.size, pts.size)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())


def test_rekeyed_generator_equals_fresh_philox():
    from splitgas.oracle import _generator, _rekey

    gen = _generator()
    for seed in (0, 1, 2**64 - 1):
        for index in (0, 1, 255, 9999, 2**40):
            got = _rekey(gen, seed, index)
            key = np.array([seed, index], dtype=np.uint64)
            want = np.random.Generator(np.random.Philox(key=key))
            assert np.array_equal(got.standard_normal(7), want.standard_normal(7))
            assert np.array_equal(got.integers(0, 1000, 5, dtype=np.uint32),
                                  want.integers(0, 1000, 5, dtype=np.uint32))
            assert np.array_equal(got.random(3), want.random(3))
            # leave a partly used Philox block and a cached 32-bit half behind
            gen.integers(0, 1000, dtype=np.uint32)
            gen.standard_normal(2)


def test_rekeyed_generators_do_not_share_state():
    from splitgas.oracle import _generator, _rekey

    def fresh(seed, index):
        key = np.array([seed, index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    a, b = _generator(), _generator()
    _rekey(a, 1, 3)
    _rekey(b, 2**64 - 1, 2**40)        # re-keying b must leave a where it was
    want_a, want_b = fresh(1, 3), fresh(2**64 - 1, 2**40)
    assert np.array_equal(a.standard_normal(9), want_a.standard_normal(9))
    assert np.array_equal(b.standard_normal(9), want_b.standard_normal(9))
    _rekey(a, 7, 0)                    # and re-keying a again leaves b alone
    want_a = fresh(7, 0)
    assert np.array_equal(b.standard_normal(5), want_b.standard_normal(5))
    assert np.array_equal(a.standard_normal(5), want_a.standard_normal(5))
    assert a.bit_generator.state["state"]["key"].tolist() == [7, 0]
    assert b.bit_generator.state["state"]["key"].tolist() == [2**64 - 1, 2**40]
