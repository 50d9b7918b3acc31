"""The shared mode basis: one field, one doubling check, one pair field."""

import numpy as np
import pytest

from splitgas import build_trapped_modes, derive_params, quasi1d_profile
from splitgas.errors import ConfigError
from splitgas.modes import (
    CONVERGENCE_RTOL,
    convergence_check,
    pair_variance_field,
    pointwise_variance,
    variance_field,
)
from splitgas.observables import contrast_evaluator, mean_squared_contrast, pcf

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
        config = request.getfixturevalue("quasi1d_config")
        params = derive_params(config)
        modes = build_trapped_modes(quasi1d_profile(config, params), params)
    R = modes.radius
    return modes, np.linspace(-0.9 * R, 0.9 * R, 37), 5e-6, R


def test_variance_field_equals_pointwise_sum(basis):
    modes, z, zprime, _ = basis
    field = variance_field(modes, z, TIMES, zprime)
    assert field.values.shape == (TIMES.size, z.size)
    assert field.regime == modes.regime and field.truncation == modes.truncation
    direct = pointwise_variance(z[None, :], zprime, TIMES[:, None], modes)
    np.testing.assert_allclose(field.values, direct, rtol=1e-12, atol=0)


def test_convergence_check_is_the_doubled_recomputation(basis):
    modes, z, zprime, _ = basis
    doubled = modes.doubled()
    assert doubled.truncation == 2 * modes.truncation
    ok, dev = convergence_check(modes, z, TIMES, zprime)
    coarse = variance_field(modes, z, TIMES, zprime).values
    fine = variance_field(doubled, z, TIMES, zprime).values
    mask = np.abs(z - zprime) >= 2.0 * modes.xi_h
    assert dev == float(np.max(np.abs(fine - coarse)[:, mask]) / np.abs(fine).max())
    assert ok == (dev < CONVERGENCE_RTOL)
    field = variance_field(modes, z, TIMES, zprime, check_convergence=True)
    assert field.meta["doubling_dev"] == dev and field.converged == ok


def test_pair_field_symmetric_and_non_negative(basis):
    modes, z, _, _ = basis
    pf = pair_variance_field(modes, z, z, TIMES)
    assert pf.values.shape == (TIMES.size, z.size, z.size)
    assert pf.values.min() >= 0.0
    assert np.all(np.diagonal(pf.values, axis1=1, axis2=2) == 0.0)
    np.testing.assert_allclose(pf.values, np.swapaxes(pf.values, 1, 2), rtol=1e-12, atol=0)
    direct = pointwise_variance(z[3], z[-2], TIMES[2], modes)
    assert pf.values[2, 3, -2] == pytest.approx(direct, rel=1e-12)


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
        pair_variance_field(modes, [0.0], [-outside], TIMES)


@pytest.mark.parametrize("t", [-1e-3, float("nan"), float("inf")])
def test_variance_field_refuses_bad_times(basis, t):
    modes, z, zprime, _ = basis
    with pytest.raises(ConfigError, match="finite and non-negative"):
        variance_field(modes, z, [0.0, t], zprime)


@pytest.mark.parametrize("L,n", [(5e-6, None), (20e-6, None), (50e-6, None), (90e-6, None),
                                 (100e-6, None), (20e-6, 41), (20e-6, 42), (100e-6, 101),
                                 (100e-6, 102)])
def test_homogeneous_lag_path_matches_dense_pair_field(homog_modes, L, n):
    """Lag-collapsed kernel against the full (z, z') pair field on the same grid.

    ``n=None`` takes the default grid step, which does not divide L; the
    window grid must still span exactly L.
    """
    if n is None:
        evaluate = contrast_evaluator(homog_modes, L)
        n = round(L / evaluate.meta["dz"]) + 1
    else:
        evaluate = contrast_evaluator(homog_modes, L, dz=L / (n - 1))
    assert evaluate.meta["dz"] * (n - 1) == pytest.approx(L, rel=1e-15)
    zg = np.linspace(-L / 2, L / 2, n)
    corr = pcf(pair_variance_field(homog_modes, zg, zg, TIMES))
    dense = [mean_squared_contrast(corr, L, t) for t in TIMES]
    np.testing.assert_allclose(evaluate(TIMES), dense, rtol=1e-12, atol=0)
    assert evaluate(TIMES)[0] == pytest.approx(1.0, abs=1e-14)
