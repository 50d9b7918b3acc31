"""The shared mode basis: one pointwise sum, one field, one doubling check."""

import numpy as np
import pytest

from splitgas import build_trapped_modes, derive_params
from splitgas.errors import ConfigError
from splitgas.modes import VarianceField, pointwise_variance, variance_field
from splitgas.observables import contrast_evaluator, pcf
from splitgas.oracle import EnsembleSpec, estimate_pcf
from splitgas.trapped import legendre_f_table

from reference import dense_contrast

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
    assert field.values.shape == (TIMES.size, z.size)
    assert field.modes is modes
    direct = pointwise_variance(z[None, :], zprime, TIMES[:, None], modes)
    np.testing.assert_allclose(field.values, direct, rtol=1e-12, atol=0)


def test_convergence_check_is_the_doubled_recomputation(basis):
    modes, z, zprime, _ = basis
    doubled = modes.doubled()
    assert doubled.truncation == 2 * modes.truncation
    field = variance_field(modes, z, TIMES, zprime, check_convergence=True)
    dev = field.doubling_dev
    coarse = variance_field(modes, z, TIMES, zprime).values
    fine = variance_field(doubled, z, TIMES, zprime).values
    mask = np.abs(z - zprime) >= 2.0 * modes.xi_h
    assert dev == float(np.max(np.abs(fine - coarse)[:, mask]) / np.abs(fine).max())
    assert np.array_equal(field.values, coarse)


def test_pair_field_symmetric_and_non_negative(basis):
    modes, z, _, _ = basis
    pf = pointwise_variance(z[:, None], z[None, :], TIMES[:, None, None], modes)
    assert pf.shape == (TIMES.size, z.size, z.size)
    assert pf.min() >= 0.0
    assert np.all(np.diagonal(pf, axis1=1, axis2=2) == 0.0)
    np.testing.assert_allclose(pf, np.swapaxes(pf, 1, 2), rtol=1e-12, atol=0)
    column = variance_field(modes, z, TIMES, z[-2]).values
    np.testing.assert_allclose(pf[:, :, -2], column, rtol=1e-12, atol=0)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda m: variance_field(m, [NAN], [1e-3]),
    lambda m: variance_field(m, [0.0], [1e-3], zprime=NAN),
    lambda m: pointwise_variance(NAN, 0.0, 1e-3, m),
    lambda m: estimate_pcf(EnsembleSpec(10, 1), m, [NAN], [1e-3]),
    lambda m: pcf(VarianceField([0.0], [1e-3], [[NAN]], modes=m)),
    lambda m: legendre_f_table(2, NAN),
], ids=["field_z", "field_zprime", "pointwise", "oracle", "pcf", "legendre_f"])
def test_nan_fails_every_domain_check(basis, call):
    # every domain check is written so that NaN fails it, as "outside" does
    with pytest.raises(ConfigError):
        call(basis[0])


@pytest.mark.parametrize("method", ["thermal_density_variance", "thermal_phase_variance"])
@pytest.mark.parametrize("T", [NAN, float("inf"), -1e-8, 0.0, True, "1e-8"])
def test_thermal_variances_refuse_what_the_ensemble_refuses(basis, method, T):
    # one temperature rule for EnsembleSpec, lambda_T and every thermal method
    with pytest.raises(ConfigError, match="finite positive temperature"):
        getattr(basis[0], method)(T)


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
