"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.constants import hbar, pi

from splitgas import (
    RB87,
    EnsembleSpec,
    TrapConfig,
    build_modes,
    build_trapped_modes,
    contrast_trace,
    derive_params,
    estimate_pcf,
    extract_front,
    fit_velocity,
    mode_frequency,
    pcf,
    pointwise_variance,
    quasi1d_profile,
    recurrence_scan,
    recurrence_time,
    squeezing_limit,
    variance_field,
)
from splitgas.cli import main
from splitgas.homogeneous import covariance_rate, default_p_max
from splitgas.observables import prethermal_pcf

SEED = 20260809


def _report(num: int, label: str, ok: bool, started: float, budget: float):
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{label}]: {status} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"acceptance criterion {num} failed"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def _reference_trapped():
    return TrapConfig(
        atomic_mass=RB87.mass, scattering_length=RB87.scattering_length,
        omega_perp=2 * pi * 1400.0, omega_long=2 * pi * 7.0,
        atom_number_total=7000.0, regime="thomas_fermi",
    )


def _reference_homog(density=46.0e6, L=100e-6):
    return TrapConfig(
        atomic_mass=RB87.mass, scattering_length=RB87.scattering_length,
        omega_perp=2 * pi * 1400.0, peak_density_per_gas=density,
        system_length=L, regime="homogeneous",
    )


def test_criterion_1_parameter_anchors():
    started = time.time()
    p = derive_params(_reference_trapped())
    ok = (
        abs(p.c / 1.8e-3 - 1) < 0.03
        and abs(p.n_peak / 46e6 - 1) < 0.03
        and abs(p.R / 56e-6 - 1) < 0.02
    )
    _report(1, "parameter anchors", ok, started, 1.0)


def test_criterion_2_prethermal_pcf():
    started = time.time()
    params = derive_params(_reference_homog())
    modes = build_modes(params, 100e-6)          # default truncation
    assert modes.p_max == default_p_max(params, 100e-6)
    # separations sampled at 2.5 um ~ 6 xi_h steps: inside the phononic
    # resolution of the mode model, covering [0, L/4] end to end
    zb = np.arange(0.0, 25.01e-6, 2.5e-6)
    C_avg = prethermal_pcf(modes, zb)
    target = np.exp(-zb / params.l0_effective)
    rel = np.abs(C_avg / target - 1)
    ok = bool(np.max(rel) < 0.02)
    _report(2, "prethermalized PCF within 2%", ok, started, 5.0)


def test_criterion_3_light_cone_step():
    started = time.time()
    # c = 1 mm/s exactly; box and truncation chosen so the finite-size droop
    # (4ct/L) and step-edge ringing stay inside the 5% bands
    g = 2.0 * hbar * (2 * pi * 1400.0) * RB87.scattering_length
    params = derive_params(_reference_homog(RB87.mass * 1e-6 / g, L=1600e-6))
    modes = build_modes(params, 1600e-6, 4 * default_p_max(params, 1600e-6))
    t = 5e-3
    cone = 2 * params.c * t
    rate0 = 2 * params.c / params.l0
    inside = np.linspace(2 * params.xi_h, cone - 3 * params.xi_h, 60)
    outside = np.linspace(cone + 3 * params.xi_h, 40e-6, 60)
    r_in = covariance_rate(inside, t, modes)
    r_out = covariance_rate(outside, t, modes)
    ok = (
        bool(np.max(np.abs(r_in / rate0 - 1)) < 0.05)
        and bool(np.max(np.abs(r_out / rate0)) < 0.05)
    )
    _report(3, "light-cone rate step 2c/l0", ok, started, 10.0)


def _fit_front(params, modes, trapped: bool):
    dt = (pi / modes.omega_max) / 20.0
    ts = np.arange(dt, 10e-3, dt)
    if trapped:
        c_peak = modes.profile.sound_speed_peak
        xi = hbar / (params.mass * c_peak)
        z = np.arange(0.0, 0.985 * modes.radius, xi / 4.0)
        field = variance_field(modes, z, ts)
    else:
        z = np.arange(0.0, 45e-6, params.xi_h / 4.0)
        field = variance_field(modes, z, ts)
    return fit_velocity(extract_front(field)).speed


def test_criterion_4_velocity_fits():
    started = time.time()
    cfg_t = _reference_trapped()
    params_t = derive_params(cfg_t)
    modes_t = build_trapped_modes(params_t)
    v_tf = _fit_front(params_t, modes_t, trapped=True)

    # homogeneous twin at the same peak density, in a wide box
    params_h = derive_params(_reference_homog(params_t.n_peak, L=800e-6))
    modes_h = build_modes(params_h, 800e-6)
    v_h = _fit_front(params_h, modes_h, trapped=False)

    cfg_q = dataclasses.replace(cfg_t, regime="quasi_1d")
    params_q = derive_params(cfg_q)
    modes_q = build_trapped_modes(params_q)
    v_q = _fit_front(params_q, modes_q, trapped=True)

    gap = (v_tf - v_q) / v_tf
    ok = (
        abs(v_h / (2 * params_h.c) - 1) < 0.02   # homogeneous front at 2c
        and v_tf < v_h                            # trap strictly slows it
        and 0.05 <= gap <= 0.15                   # quasi-1D 10 +- 5 points lower
    )
    print(f"  velocities mm/s: homog {v_h*1e3:.3f} (2c={2*params_h.c*1e3:.3f}), "
          f"TF {v_tf*1e3:.3f}, quasi-1D {v_q*1e3:.3f} (gap {gap*100:.1f}pp)")
    _report(4, "front velocities", ok, started, 120.0)


def test_criterion_5_quasi1d_profile():
    started = time.time()
    cfg = dataclasses.replace(_reference_trapped(), regime="quasi_1d")
    params = derive_params(cfg)
    prof = quasi1d_profile(params)
    r_ratio = prof.radius / params.R
    n_ratio = prof.n_peak / params.n_peak
    ok = abs(r_ratio - 0.96) <= 0.02 and abs(n_ratio - 1.10) <= 0.03
    print(f"  R_eff/R_TF = {r_ratio:.4f}, n_eff/n_TF = {n_ratio:.4f}")
    _report(5, "quasi-1D profile ratios", ok, started, 10.0)


def test_criterion_6_recurrences():
    started = time.time()
    # homogeneous: exact analytic zeros at multiples of L/(2c)
    params_h = derive_params(_reference_homog())
    modes_h = build_modes(params_h, 100e-6)
    t_rev = recurrence_time(100e-6, params_h.c)
    zb = np.linspace(0.0, 50e-6, 41)
    C_rev = np.exp(-pointwise_variance(zb, 0.0, t_rev, modes_h) / 2)
    homog_ok = bool(np.all(np.abs(C_rev - 1.0) < 1e-10))

    # trapped: strongest partial recurrence at 202 +- 5 ms, never full
    params_t = derive_params(_reference_trapped())
    modes_t = build_trapped_modes(params_t)
    times = np.arange(0.0, 0.3 + 1e-9, 0.5e-3)
    values = contrast_trace(modes_t, 50e-6, times)

    def refine(t):
        return float(contrast_trace(modes_t, 50e-6, [t])[0])

    found = recurrence_scan(times, values, refine_fn=refine)
    t_best, s_best = found[0]
    trapped_ok = (
        abs(t_best - 202e-3) <= 5e-3
        and all(s < 1.0 - 1e-6 for _, s in found)
    )
    print(f"  homogeneous C(zbar, t_rev) - 1 max: {np.abs(C_rev - 1).max():.2e}; "
          f"trapped best {t_best*1e3:.1f} ms @ {s_best:.4f}")
    _report(6, "recurrences", homog_ok and trapped_ok, started, 120.0)


def test_criterion_7_oracle_equivalence():
    started = time.time()
    # homogeneous ensemble
    params_h = derive_params(_reference_homog())
    modes_h = build_modes(params_h, 100e-6)
    z_h = np.linspace(2e-6, 30e-6, 12)
    ts = np.linspace(1e-3, 12e-3, 9)
    spec = EnsembleSpec(realizations=10000, master_seed=SEED)
    stats_h = estimate_pcf(spec, modes_h, z_h, ts)
    C_h = np.exp(-pointwise_variance(z_h[None, :], 0.0, ts[:, None], modes_h) / 2)
    cover_h = np.mean(np.abs(stats_h.mean - C_h) < 3 * stats_h.stderr)

    # trapped ensemble
    params_t = derive_params(_reference_trapped())
    modes_t = build_trapped_modes(params_t)
    z_t = modes_t.radius * np.linspace(0.05, 0.75, 10)
    stats_t = estimate_pcf(spec, modes_t, z_t, ts)
    C_t = np.exp(-pointwise_variance(z_t[None, :], 0.0, ts[:, None], modes_t) / 2)
    cover_t = np.mean(np.abs(stats_t.mean - C_t) < 3 * stats_t.stderr)

    # stderr halves when the ensemble quadruples
    small = estimate_pcf(EnsembleSpec(2500, SEED), modes_h, z_h, ts[:3])
    big = estimate_pcf(EnsembleSpec(10000, SEED), modes_h, z_h, ts[:3])
    ratio = float(np.median(small.stderr / big.stderr))

    ok = cover_h >= 0.99 and cover_t >= 0.99 and abs(ratio - 2.0) <= 0.3
    print(f"  coverage homog {cover_h:.3f}, trapped {cover_t:.3f}, "
          f"stderr ratio {ratio:.3f}")
    _report(7, "Monte-Carlo oracle equivalence", ok, started, 120.0)


def test_criterion_8_property_suite(tmp_path):
    started = time.time()
    checks = []

    # Legendre orthonormality to 1e-10 up to j = 10
    from splitgas.trapped import legendre_f_table

    x, w = np.polynomial.legendre.leggauss(64)
    gram = (legendre_f_table(10, x) * w) @ legendre_f_table(10, x).T
    checks.append(np.abs(gram - np.eye(10)).max() < 1e-10)

    # omega_1 = omega exactly
    om = 2 * pi * 7.0
    checks.append(mode_frequency(1, om) == om)

    # variance symmetry and non-negativity over randomized grids
    params_h = derive_params(_reference_homog())
    modes_h = build_modes(params_h, 100e-6)
    params_t = derive_params(_reference_trapped())
    modes_t = build_trapped_modes(params_t)
    rng = np.random.default_rng(17)
    zb = rng.uniform(-45e-6, 45e-6, 128)
    tt = rng.uniform(0.0, 60e-3, 128)
    v = pointwise_variance(zb, 0.0, tt, modes_h)
    checks.append(np.array_equal(v, pointwise_variance(-zb, 0.0, tt, modes_h)))
    checks.append(bool(np.all(v >= 0.0)))
    zt = rng.uniform(-0.9, 0.9, 128) * modes_t.radius
    zt2 = rng.uniform(-0.9, 0.9, 128) * modes_t.radius
    vt = pointwise_variance(zt, zt2, tt, modes_t)
    vt_flip = pointwise_variance(-zt, -zt2, tt, modes_t)
    checks.append(bool(np.allclose(vt, vt_flip, rtol=1e-10, atol=1e-14)))
    checks.append(bool(np.all(vt >= 0.0)))

    # l0 never moves with density
    l0s = {derive_params(_reference_homog(density=d)).l0
           for d in (10e6, 46e6, 150e6)}
    checks.append(len(l0s) == 1)

    # squeezing_limit * omega_perp * L is a species constant
    const = 2 * hbar / (RB87.mass * RB87.scattering_length)
    prods = []
    for om_p, L in ((2 * pi * 700, 60e-6), (2 * pi * 1400, 100e-6),
                    (2 * pi * 2800, 350e-6)):
        lim, _ = squeezing_limit(om_p, L, RB87.mass, RB87.scattering_length)
        prods.append(lim * om_p * L)
    checks.append(bool(np.allclose(prods, const, rtol=1e-12)))

    # byte-identical CLI reruns
    cfg = tmp_path / "ref.yaml"
    cfg.write_text(
        "trap:\n  species: rb87\n  nu_perp_hz: 1400.0\n  nu_long_hz: 7.0\n"
        "  regime: thomas_fermi\n  atom_number_total: 7000\n")
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["params", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["params", "--config", str(cfg), "--out", str(out2)]) == 0
    checks.append(out1.read_bytes() == out2.read_bytes())

    _report(8, "property suite", all(checks), started, 30.0)
