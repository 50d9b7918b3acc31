"""Scalar parameter derivations and interferometry criteria."""

import math

import numpy as np
import pytest
from scipy.constants import hbar, k as k_B, pi
from scipy.optimize import brentq

from splitgas import (
    RB87,
    ConfigError,
    TrapConfig,
    dephasing_times,
    derive_params,
    multimode_condition,
    peak_density_from_atom_number,
    squeezing_limit,
    squeezing_map,
)


def test_reference_anchors(trapped_params):
    p = trapped_params
    assert p.c == pytest.approx(1.8e-3, rel=0.03)
    assert p.n_peak == pytest.approx(46e6, rel=0.03)
    assert p.R == pytest.approx(56e-6, rel=0.02)


def test_derived_scalars_closed_form(trapped_params):
    # independent evaluation of every closed form from raw constants
    m, a = RB87.mass, RB87.scattering_length
    om_perp = 2 * pi * 1400.0
    g = 2 * hbar * om_perp * a
    n = trapped_params.n_peak
    assert trapped_params.g == pytest.approx(g, rel=1e-14)
    assert trapped_params.c == pytest.approx(math.sqrt(g * n / m), rel=1e-14)
    assert trapped_params.K == pytest.approx((hbar * pi / 2) * math.sqrt(n / (m * g)), rel=1e-14)
    assert trapped_params.mu == pytest.approx(g * n, rel=1e-14)
    assert trapped_params.xi_h == pytest.approx(hbar / (m * trapped_params.c), rel=1e-14)
    # frozen hand-computed values for the reference scenario
    assert trapped_params.l0 == pytest.approx(15.975e-6, rel=1e-3)
    assert trapped_params.T_eff == pytest.approx(16.20e-9, rel=1e-3)


def test_density_scaling_laws(homog_config):
    p1 = derive_params(homog_config)
    doubled = TrapConfig(
        atomic_mass=homog_config.atomic_mass,
        scattering_length=homog_config.scattering_length,
        omega_perp=homog_config.omega_perp,
        peak_density_per_gas=2 * homog_config.peak_density_per_gas,
        system_length=homog_config.system_length, regime="homogeneous",
    )
    p2 = derive_params(doubled)
    assert p2.c == pytest.approx(math.sqrt(2) * p1.c, rel=1e-12)
    assert p2.K == pytest.approx(math.sqrt(2) * p1.K, rel=1e-12)
    assert p2.l0 == p1.l0  # bit identical: density never enters


def test_sound_speed_consistency(trapped_params, homog_params):
    for p in (trapped_params, homog_params):
        assert p.c == pytest.approx(math.sqrt(p.mu / p.mass), rel=1e-12)
        assert p.v_N * p.v_J == pytest.approx(p.c**2, rel=1e-12)
        assert p.v_N == pytest.approx(p.c / p.K, rel=1e-12)
        assert p.v_J == pytest.approx(p.c * p.K, rel=1e-12)


def test_l0_identity(trapped_params, homog_params, cone_params):
    for p in (trapped_params, homog_params, cone_params):
        assert p.l0 * p.mass * p.g == pytest.approx(2 * hbar**2, rel=1e-14)


def test_peak_density_matches_iterative_root_solve(trapped_config):
    # iterative oracle: solve N/2 = (4/3) n R(n) by bracketing
    g = derive_params(trapped_config).g
    m, om = trapped_config.atomic_mass, trapped_config.omega_long
    n_total = trapped_config.atom_number_total

    def residual(n):
        R = math.sqrt(2 * g * n / m) / om
        return (4.0 / 3.0) * n * R - n_total / 2.0

    n_oracle = brentq(residual, 1e4, 1e10, rtol=1e-13)
    assert peak_density_from_atom_number(n_total, trapped_config) == pytest.approx(
        n_oracle, rel=1e-10)


def test_peak_density_atom_number_scaling(trapped_config):
    n1 = peak_density_from_atom_number(7000, trapped_config)
    n2 = peak_density_from_atom_number(14000, trapped_config)
    assert n2 / n1 == pytest.approx(2 ** (2.0 / 3.0), rel=1e-12)
    assert n2 == pytest.approx(73e6, rel=0.02)  # 46 * 2^(2/3)
    # N -> 0+ limit: density vanishes as N^(2/3)
    tiny = peak_density_from_atom_number(1e-9, trapped_config)
    assert tiny == pytest.approx(n1 * (1e-9 / 7000) ** (2.0 / 3.0), rel=1e-9)
    assert tiny < 1.0  # far below one atom per metre


def test_atom_number_round_trip(trapped_config, trapped_params):
    n_back = (8.0 / 3.0) * trapped_params.n_peak * trapped_params.R
    assert n_back == pytest.approx(trapped_config.atom_number_total, rel=1e-9)


def test_peak_density_requires_trapped(homog_config):
    with pytest.raises(ConfigError):
        peak_density_from_atom_number(7000, homog_config)


def test_dephasing_times(trapped_params):
    tau0, tau = dephasing_times(trapped_params, 100e-6)
    # closed forms evaluated independently
    p = trapped_params
    assert tau0 == pytest.approx((hbar / p.g) * math.sqrt(100e-6 / p.n_peak), rel=1e-14)
    assert tau == pytest.approx(8 * p.K**2 / (pi**2 * p.n_peak * p.c), rel=1e-14)
    assert tau0 == pytest.approx(16e-3, rel=0.08)
    assert tau == pytest.approx(9e-3, rel=0.05)
    # quadrupling L doubles tau0 and leaves tau untouched
    tau0_4, tau_4 = dephasing_times(trapped_params, 400e-6)
    assert tau0_4 == pytest.approx(2 * tau0, rel=1e-12)
    assert tau_4 == tau


def test_dephasing_ratio_density_independent(trapped_config):
    import dataclasses

    base = derive_params(trapped_config)
    denser = derive_params(dataclasses.replace(trapped_config, atom_number_total=14000))
    r1 = np.divide(*dephasing_times(base, 100e-6))
    r2 = np.divide(*dephasing_times(denser, 100e-6))
    assert r1 == pytest.approx(r2, rel=1e-12)
    # both times scale as n^(-1/2) at fixed L
    t0a, ta = dephasing_times(base, 100e-6)
    t0b, tb = dephasing_times(denser, 100e-6)
    scale = math.sqrt(base.n_peak / denser.n_peak)
    assert t0b == pytest.approx(t0a * scale, rel=1e-12)
    assert tb == pytest.approx(ta * scale, rel=1e-12)


def test_squeezing_never_enters_dephasing_times(trapped_config):
    import dataclasses

    squeezed = dataclasses.replace(trapped_config, squeezing=0.1)
    assert dephasing_times(derive_params(squeezed), 1e-4) == \
        dephasing_times(derive_params(trapped_config), 1e-4)


def test_multimode_condition(trapped_params):
    # reference numbers: l0 ~ 16 um against L/2 = 50 um
    assert multimode_condition(trapped_params, 100e-6, 1.0) is True
    # strong squeezing inflates the effective correlation length
    assert multimode_condition(trapped_params, 100e-6, 0.1) is False
    # exact boundary is excluded by the strict inequality
    assert multimode_condition(trapped_params, 2 * trapped_params.l0, 1.0) is False


def test_squeezing_limit_reference():
    lim, db = squeezing_limit(2 * pi * 1400.0, 100e-6, RB87.mass, RB87.scattering_length)
    assert lim == pytest.approx(0.32, rel=0.01)
    assert db == pytest.approx(-5.0, abs=0.06)
    half, half_db = squeezing_limit(2 * pi * 1400.0, 50e-6, RB87.mass, RB87.scattering_length)
    assert half == pytest.approx(2 * lim, rel=1e-12)
    assert half_db - db == pytest.approx(10 * math.log10(2), rel=1e-9)


def test_squeezing_limit_invariant():
    rng = np.random.default_rng(3)
    const = 2 * hbar / (RB87.mass * RB87.scattering_length)
    for _ in range(25):
        om = 2 * pi * rng.uniform(100, 5000)
        L = rng.uniform(10, 500) * 1e-6
        lim, _ = squeezing_limit(om, L, RB87.mass, RB87.scattering_length)
        assert lim * om * L == pytest.approx(const, rel=1e-12)


def test_squeezing_map():
    om = 2 * pi * np.linspace(500, 2000, 7)
    ll = np.linspace(20e-6, 200e-6, 9)
    db = squeezing_map(om, ll, RB87.mass, RB87.scattering_length)
    assert db.shape == (7, 9)
    assert np.all(np.diff(db, axis=0) < 0)
    assert np.all(np.diff(db, axis=1) < 0)
    # degenerate 1x1 grid reduces to the scalar operation, bit for bit
    lone = squeezing_map([om[3]], [ll[4]], RB87.mass, RB87.scattering_length)
    _, db_ref = squeezing_limit(om[3], ll[4], RB87.mass, RB87.scattering_length)
    assert lone[0, 0] == db_ref
    with pytest.raises(ConfigError):
        squeezing_map([], ll, RB87.mass, RB87.scattering_length)
    with pytest.raises(ConfigError):
        squeezing_map(om[::-1], ll, RB87.mass, RB87.scattering_length)


_M, _A = RB87.mass, RB87.scattering_length


_NON_FINITE_CALLS = {
    "dephasing_times": lambda p, cfg, x: dephasing_times(p, x),
    "multimode_length": lambda p, cfg, x: multimode_condition(p, x, 1.0),
    "multimode_squeezing": lambda p, cfg, x: multimode_condition(p, 100e-6, x),
    "limit_omega": lambda p, cfg, x: squeezing_limit(x, 100e-6, _M, _A),
    "limit_mass": lambda p, cfg, x: squeezing_limit(2 * pi * 1400, 100e-6, x, _A),
    "peak_density": lambda p, cfg, x: peak_density_from_atom_number(x, cfg),
    "lambda_T": lambda p, cfg, x: p.lambda_T(x),
    "map_omega": lambda p, cfg, x: squeezing_map([x], [100e-6], _M, _A),
    "map_length": lambda p, cfg, x: squeezing_map([1e3], [20e-6, x], _M, _A),
    "map_scattering_length": lambda p, cfg, x: squeezing_map([1e3], [20e-6], _M, x),
}
_GRID_ROWS = ("map_omega", "map_length")   # numpy parses a numeric string in a grid


@pytest.mark.parametrize("call,bad", [
    pytest.param(call, bad, id=f"{name}-{bad}")
    for name, call in _NON_FINITE_CALLS.items() for bad in (math.nan, math.inf, "1e-4")
    if not (isinstance(bad, str) and name in _GRID_ROWS)])
def test_params_functions_refuse_non_finite(trapped_params, trapped_config, call, bad):
    with pytest.raises(ConfigError, match="finite"):
        call(trapped_params, trapped_config, bad)


def test_effective_temperature_with_squeezing(trapped_config):
    import dataclasses

    p1 = derive_params(trapped_config)
    p2 = derive_params(dataclasses.replace(trapped_config, squeezing=0.5))
    assert p2.T_eff == pytest.approx(0.5 * p1.T_eff, rel=1e-12)
    assert p1.T_eff == pytest.approx(p1.config.squeezing * p1.n_peak * p1.g / (2 * k_B), rel=1e-14)


def test_lambda_T(homog_params):
    lam = homog_params.lambda_T(30e-9)
    assert lam == pytest.approx(
        hbar**2 * homog_params.n_peak / (homog_params.mass * k_B * 30e-9), rel=1e-14)
    # at the effective temperature the thermal length equals l0/xi_n^2
    lam_eff = homog_params.lambda_T(homog_params.T_eff)
    assert lam_eff == pytest.approx(homog_params.l0_effective, rel=1e-12)
    with pytest.raises(ConfigError):
        homog_params.lambda_T(0.0)


def test_config_validation():
    base = dict(atomic_mass=RB87.mass, scattering_length=RB87.scattering_length,
                omega_perp=2 * pi * 1400.0)
    with pytest.raises(ConfigError):  # neither density input
        TrapConfig(**base, system_length=1e-4, regime="homogeneous")
    with pytest.raises(ConfigError):  # both density inputs
        TrapConfig(**base, atom_number_total=7000, peak_density_per_gas=46e6,
                   system_length=1e-4, regime="homogeneous")
    with pytest.raises(ConfigError):  # homogeneous with a longitudinal trap
        TrapConfig(**base, omega_long=1.0, atom_number_total=7000,
                   system_length=1e-4, regime="homogeneous")
    with pytest.raises(ConfigError):  # trapped without a trap frequency
        TrapConfig(**base, atom_number_total=7000, regime="thomas_fermi")
    with pytest.raises(ConfigError):  # non-positive dimensional field
        TrapConfig(**{**base, "omega_perp": -1.0}, atom_number_total=7000,
                   omega_long=1.0, regime="thomas_fermi")


@pytest.mark.parametrize("trap", [
    dict(atom_number_total=float("nan"), omega_long=2 * pi * 7.0, regime="thomas_fermi"),
    dict(atom_number_total=7000.0, omega_long=float("inf"), regime="thomas_fermi"),
    dict(atom_number_total=7000.0, omega_long=float("nan"), regime="quasi_1d"),
    dict(atom_number_total=10**400, omega_long=2 * pi * 7.0, regime="thomas_fermi"),
    dict(atomic_mass=float("nan"), peak_density_per_gas=46e6,
         system_length=float("inf"), regime="homogeneous"),
    dict(peak_density_per_gas=46e6, system_length=float("-inf"), regime="homogeneous"),
    dict(squeezing=float("inf"), peak_density_per_gas=46e6, system_length=1e-4,
         regime="homogeneous"),
])
def test_config_rejects_nonfinite(trap):
    base = dict(atomic_mass=RB87.mass, scattering_length=RB87.scattering_length,
                omega_perp=2 * pi * 1400.0)
    with pytest.raises(ConfigError, match="finite"):
        TrapConfig(**{**base, **trap})


def test_config_zero_fields_stay_valid():
    # omega_long = 0 (homogeneous) and system_length = 0 (trapped) are the defaults
    base = dict(atomic_mass=RB87.mass, scattering_length=RB87.scattering_length,
                omega_perp=2 * pi * 1400.0)
    TrapConfig(**base, omega_long=0.0, peak_density_per_gas=46e6,
               system_length=1e-4, regime="homogeneous")
    TrapConfig(**base, omega_long=2 * pi * 7.0, atom_number_total=7000.0,
               system_length=0.0, regime="thomas_fermi")
