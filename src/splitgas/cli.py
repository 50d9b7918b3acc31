"""Scenario-driven command line front end.

    splitgas {params|pcf|front|recurrence|contrast|squeezing-map|oracle}
             (--config FILE | --preset figK) [--out PATH] [--json]
             [--times MS ...] [--t-max MS] [--realizations N --seed S]

Every command is a pure function of (scenario, flags, tool version):
rerunning writes byte-identical artifacts.  Exit codes: 0 success,
2 configuration error, 3 numerical non-convergence, 4 detection failure.
Set SPLITGAS_THREADS to cap the linear-algebra thread pool.
"""

from __future__ import annotations

import argparse
import sys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_DETECTION = 4

UM = 1e-6
MS = 1e-3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitgas",
        description="Relaxation of a coherently split 1D Bose gas: "
                    "correlation functions, light-cone fronts, recurrences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML scenario file")
    common.add_argument("--preset", help="built-in scenario (fig1..fig8)")
    common.add_argument("--out", help="output CSV path (default: stdout)")
    common.add_argument("--json", action="store_true",
                        help="also write a JSON mirror next to --out")

    sub.add_parser("params", parents=[common],
                   help="derived physical scalars and interferometry criteria")
    p_pcf = sub.add_parser("pcf", parents=[common],
                           help="phase correlation function on a position grid")
    p_pcf.add_argument("--times", type=float, nargs="+", metavar="MS",
                       help="evolution times in ms (overrides the scenario)")
    sub.add_parser("front", parents=[common],
                   help="correlation-front positions and fitted velocity")
    p_rec = sub.add_parser("recurrence", parents=[common],
                           help="contrast trace plus ranked recurrences")
    p_rec.add_argument("--t-max", type=float, metavar="MS",
                       help="scan horizon in ms (overrides the scenario)")
    p_con = sub.add_parser("contrast", parents=[common],
                           help="mean squared contrast for each window length")
    p_con.add_argument("--t-max", type=float, metavar="MS")
    sub.add_parser("squeezing-map", parents=[common],
                   help="required number squeezing over (nu_perp, L)")
    p_orc = sub.add_parser("oracle", parents=[common],
                           help="Monte-Carlo validation of the analytic PCF")
    p_orc.add_argument("--realizations", type=int)
    p_orc.add_argument("--seed", type=int)
    return parser


def _load_scenario(args):
    from .errors import ConfigError
    from .scenario import load_scenario, preset_scenario

    if bool(args.config) == bool(args.preset):
        raise ConfigError("exactly one of --config or --preset is required")
    return load_scenario(args.config) if args.config else preset_scenario(args.preset)


def _provenance(command: str, sc, extra=()):
    from . import __version__

    rows = [("splitgas", __version__), ("command", command),
            ("config_sha256", sc.sha256())]
    rows.extend(extra)
    return rows


def _emit(table, args) -> None:
    from .tables import write_table

    if args.json and not args.out:
        from .errors import ConfigError

        raise ConfigError("--json requires --out")
    if args.out:
        write_table(table, args.out, json_mirror=args.json)
    else:
        sys.stdout.write(table.to_csv())


def _fmt_ms(t_s: float) -> str:
    return format(t_s / MS, ".6g")


def _analysis_length(sc, params) -> float:
    if sc.length is not None:
        return sc.length
    if params.R is not None:
        return 2.0 * params.R
    return sc.config.system_length


def _homogeneous_modes(sc, params):
    from .homogeneous import build_modes

    return build_modes(params, sc.config.system_length, sc.p_max)


def _trapped_model(sc, params, j_max=None):
    from .params import Regime
    from .trapped import build_trapped_modes, quasi1d_profile, tf_profile

    if sc.config.regime is Regime.QUASI_1D:
        profile = quasi1d_profile(sc.config, params)
    else:
        profile = tf_profile(params)
    return profile, build_trapped_modes(profile, params, j_max or sc.j_max)


def _cmd_params(sc, args) -> int:
    import numpy as np

    from .params import (dephasing_times, derive_params, multimode_condition,
                         squeezing_limit)
    from .tables import ResultTable

    params = derive_params(sc.config)
    length = _analysis_length(sc, params)
    tau0, tau = dephasing_times(params, length)
    xi2 = sc.config.squeezing
    lim, lim_db = squeezing_limit(sc.config.omega_perp, length,
                                  sc.config.atomic_mass,
                                  sc.config.scattering_length)
    columns = [
        "g_Jm", "n_peak_per_um", "c_mm_per_s", "K", "mu_J", "xi_h_um",
        "l0_um", "T_eff_nK", "v_N_mm_per_s", "v_J_mm_per_s", "R_um",
        "analysis_length_um", "tau0_ms", "tau_ms", "multimode_1d",
        "xi2_lim", "xi2_lim_db",
    ]
    row = [
        params.g, params.n_peak * UM, params.c / 1e-3, params.K, params.mu,
        params.xi_h / UM, params.l0 / UM, params.T_eff / 1e-9,
        params.v_N / 1e-3, params.v_J / 1e-3,
        (params.R / UM) if params.R is not None else float("nan"),
        length / UM, tau0 / MS, tau / MS,
        float(multimode_condition(params, length, xi2)), lim, lim_db,
    ]
    table = ResultTable(columns, [row], _provenance(
        "params", sc, [("regime", sc.config.regime.value)]))
    _emit(table, args)
    return EXIT_OK


def _pcf_grids(sc, params, modes, args):
    import numpy as np

    if getattr(args, "times", None):
        times = np.asarray(sorted(args.times), dtype=float) * MS
    elif sc.times is not None:
        times = sc.times
    else:
        times = np.linspace(0.0, 10.0, 11) * MS
    if sc.zbar is not None:
        z = sc.zbar
    elif params.R is not None:
        z = np.linspace(0.0, 0.999 * modes.radius, 241)
    else:
        z = np.linspace(0.0, sc.config.system_length / 4.0, 201)
    return z, times


def _cmd_pcf(sc, args) -> int:
    from .observables import pcf
    from .params import derive_params
    from .tables import ResultTable

    params = derive_params(sc.config)
    if sc.config.regime.trapped:
        profile, modes = _trapped_model(sc, params)
        z, times = _pcf_grids(sc, params, modes, args)
        from .trapped import trapped_variance_field

        field = trapped_variance_field(modes, z, times, zprime=0.0,
                                       check_convergence=True)
        pos_name = "z_um"
        trunc = ("truncation", f"j_max={modes.j_max}")
    else:
        modes = _homogeneous_modes(sc, params)
        z, times = _pcf_grids(sc, params, modes, args)
        from .homogeneous import variance_field

        field = variance_field(modes, z, times, check_convergence=True)
        pos_name = "zbar_um"
        trunc = ("truncation", f"p_max={modes.p_max}")
    corr = pcf(field)
    columns = [pos_name] + [f"C_t{_fmt_ms(t)}ms" for t in times]
    rows = [[z[i] / UM] + [corr.values[j, i] for j in range(len(times))]
            for i in range(len(z))]
    table = ResultTable(columns, rows, _provenance(
        "pcf", sc, [("regime", sc.config.regime.value), trunc,
                    ("zprime_um", "0" if sc.config.regime.trapped else "-"),
                    ("truncation_doubling_rel",
                     format(field.meta["doubling_dev"], ".3g")),
                    ("truncation_converged", str(field.converged).lower())]))
    _emit(table, args)
    return EXIT_OK


def _front_for_system(params, modes, fit_window, homogeneous: bool, L=None):
    import numpy as np

    from .errors import DetectionError
    from .homogeneous import variance_field
    from .observables import extract_front, fit_velocity
    from .params import hbar, pi
    from .trapped import trapped_variance_field

    t_hi = fit_window[1]
    dt = (pi / modes.omega_max) / 20.0
    times = np.arange(dt, t_hi + 0.5 * dt, dt)
    if homogeneous:
        xi_h = params.xi_h
        z_hi = min(0.45 * L, 2.0 * params.c * t_hi * 1.4 + 20.0 * xi_h)
        z = np.arange(0.0, z_hi, xi_h / 4.0)
        field = variance_field(modes, z, times)
    else:
        c_peak = modes.profile.sound_speed_peak
        xi_h = hbar / (params.mass * c_peak)
        z = np.arange(0.0, 0.985 * modes.radius, xi_h / 4.0)
        field = trapped_variance_field(modes, z, times)
    trace = extract_front(field)
    if len(trace) == 0:
        raise DetectionError("no correlation front detected "
                             f"(diagnostics: {trace.diagnostics})")
    fit = fit_velocity(trace, fit_window)
    return trace, fit


def _cmd_front(sc, args) -> int:
    from .params import derive_params
    from .tables import ResultTable

    if sc.compare_regimes:
        return _cmd_front_compare(sc, args)
    prov_extra = [("regime", sc.config.regime.value),
                  ("fit_window_ms",
                   f"({_fmt_ms(sc.fit_window[0])}, {_fmt_ms(sc.fit_window[1])}]")]
    if sc.scan_atom_numbers:
        if not sc.config.regime.trapped:
            from .errors import ConfigError

            raise ConfigError("analysis.scan_atom_numbers requires a trapped regime")
        columns = ["atom_number", "t_ms", "zc_um", "R_half_um"]
        rows = []
        for n_total in sc.scan_atom_numbers:
            cfg = sc.config.with_atom_number(n_total)
            params = derive_params(cfg)
            scn = type(sc)(raw=sc.raw, config=cfg, j_max=sc.j_max)
            profile, modes = _trapped_model(scn, params)
            trace, fit = _front_for_system(params, modes, sc.fit_window, False)
            prov_extra.append(
                (f"velocity_N{int(n_total)}_mm_per_s", format(fit.speed / 1e-3, ".12g")))
            half = modes.radius / 2.0
            rows.extend([[n_total, t / MS, zc / UM, half / UM]
                         for t, zc in zip(trace.times, trace.positions)])
        table = ResultTable(columns, rows, _provenance("front", sc, prov_extra))
        _emit(table, args)
        return EXIT_OK

    params = derive_params(sc.config)
    if sc.config.regime.trapped:
        profile, modes = _trapped_model(sc, params)
        trace, fit = _front_for_system(params, modes, sc.fit_window, False)
        half = modes.radius / 2.0
        columns = ["t_ms", "zc_um", "R_half_um"]
        rows = [[t / MS, zc / UM, half / UM]
                for t, zc in zip(trace.times, trace.positions)]
    else:
        modes = _homogeneous_modes(sc, params)
        trace, fit = _front_for_system(params, modes, sc.fit_window, True,
                                       L=sc.config.system_length)
        columns = ["t_ms", "zc_um"]
        rows = [[t / MS, zc / UM] for t, zc in zip(trace.times, trace.positions)]
    prov_extra.extend([
        ("velocity_mm_per_s", format(fit.speed / 1e-3, ".12g")),
        ("velocity_residual_rms_um", format(fit.residual_rms / UM, ".12g")),
        ("detector", trace.method),
    ])
    table = ResultTable(columns, rows, _provenance("front", sc, prov_extra))
    _emit(table, args)
    return EXIT_OK


def _cmd_front_compare(sc, args) -> int:
    from .errors import ConfigError
    from .params import Regime, TrapConfig, derive_params
    from .scenario import Scenario
    from .tables import ResultTable

    if not sc.config.regime.trapped:
        raise ConfigError("analysis.compare_regimes requires a trapped scenario")
    base = sc.config
    params_tf = derive_params(
        TrapConfig(base.atomic_mass, base.scattering_length, base.omega_perp,
                   base.omega_long, base.atom_number_total,
                   base.peak_density_per_gas, 0.0, base.squeezing,
                   Regime.THOMAS_FERMI))
    # homogeneous twin at the trapped peak density, box wide enough for the fit
    L_box = max(8.0 * params_tf.R, 400e-6)
    cfg_h = TrapConfig(base.atomic_mass, base.scattering_length, base.omega_perp,
                       0.0, None, params_tf.n_peak, L_box, base.squeezing,
                       Regime.HOMOGENEOUS)
    params_h = derive_params(cfg_h)
    sc_h = Scenario(raw=sc.raw, config=cfg_h, p_max=sc.p_max)
    modes_h = _homogeneous_modes(sc_h, params_h)
    _, fit_h = _front_for_system(params_h, modes_h, sc.fit_window, True, L=L_box)

    sc_tf = Scenario(raw=sc.raw, config=params_tf.config, j_max=sc.j_max)
    _, modes_tf = _trapped_model(sc_tf, params_tf)
    _, fit_tf = _front_for_system(params_tf, modes_tf, sc.fit_window, False)

    cfg_q = TrapConfig(base.atomic_mass, base.scattering_length, base.omega_perp,
                       base.omega_long, base.atom_number_total,
                       base.peak_density_per_gas, 0.0, base.squeezing,
                       Regime.QUASI_1D)
    params_q = derive_params(cfg_q)
    sc_q = Scenario(raw=sc.raw, config=cfg_q, j_max=sc.j_max)
    _, modes_q = _trapped_model(sc_q, params_q)
    _, fit_q = _front_for_system(params_q, modes_q, sc.fit_window, False)

    columns = ["velocity_homogeneous_mm_per_s", "velocity_thomas_fermi_mm_per_s",
               "velocity_quasi_1d_mm_per_s", "sound_speed_mm_per_s"]
    rows = [[fit_h.speed / 1e-3, fit_tf.speed / 1e-3, fit_q.speed / 1e-3,
             params_tf.c / 1e-3]]
    table = ResultTable(columns, rows, _provenance("front", sc, [
        ("comparison", "homogeneous vs thomas_fermi vs quasi_1d"),
        ("fit_window_ms",
         f"({_fmt_ms(sc.fit_window[0])}, {_fmt_ms(sc.fit_window[1])}]"),
    ]))
    _emit(table, args)
    return EXIT_OK


def _contrast_times(sc, args):
    import numpy as np

    t_max = sc.t_max
    if args.t_max is not None:
        if not 0.0 < args.t_max < float("inf"):
            from .errors import ConfigError

            raise ConfigError(f"--t-max must be a positive number of ms, got {args.t_max}")
        t_max = args.t_max * MS
    return np.arange(0.0, t_max + 0.25 * MS, 0.5 * MS)


def _contrast_model(sc):
    from .params import derive_params

    params = derive_params(sc.config)
    if sc.config.regime.trapped:
        _, modes = _trapped_model(sc, params)
    else:
        modes = _homogeneous_modes(sc, params)
    return params, modes


def _cmd_recurrence(sc, args) -> int:
    from .errors import DetectionError
    from .observables import contrast_evaluator, recurrence_scan
    from .tables import ResultTable

    params, modes = _contrast_model(sc)
    length = sc.contrast_lengths[0] if sc.contrast_lengths else 50e-6
    times = _contrast_times(sc, args)
    contrast = contrast_evaluator(modes, length)
    trace = contrast.trace(times)
    found = recurrence_scan(trace, refine_fn=lambda t: float(contrast([t])[0]))
    if not found:
        raise DetectionError("no recurrence found in the scan range")
    prov = [("regime", sc.config.regime.value),
            ("integration_length_um", format(length / UM, ".12g"))]
    for rank, (t_r, s_r) in enumerate(found[:10], start=1):
        prov.append((f"recurrence_{rank}",
                     f"t_ms={format(t_r / MS, '.6f')} strength={format(s_r, '.10g')}"))
    columns = ["t_ms", "C2"]
    rows = [[t / MS, v] for t, v in zip(trace.times, trace.values)]
    table = ResultTable(columns, rows, _provenance("recurrence", sc, prov))
    _emit(table, args)
    return EXIT_OK


def _cmd_contrast(sc, args) -> int:
    from .observables import contrast_trace
    from .tables import ResultTable

    params, modes = _contrast_model(sc)
    lengths = sc.contrast_lengths or [50e-6]
    times = _contrast_times(sc, args)
    traces = [contrast_trace(modes, L, times) for L in lengths]
    columns = ["t_ms"] + [f"C2_L{format(L / UM, '.6g')}um" for L in lengths]
    rows = [[times[i] / MS] + [tr.values[i] for tr in traces]
            for i in range(len(times))]
    table = ResultTable(columns, rows, _provenance(
        "contrast", sc, [("regime", sc.config.regime.value)]))
    _emit(table, args)
    return EXIT_OK


def _cmd_squeezing_map(sc, args) -> int:
    import numpy as np

    from .params import pi, squeezing_map
    from .tables import ResultTable

    omegas = sc.map_nu_perp
    lengths = sc.map_lengths
    if omegas is None:
        omegas = 2.0 * pi * np.linspace(200.0, 3000.0, 57)
    if lengths is None:
        lengths = np.linspace(20.0, 200.0, 61) * UM
    db = squeezing_map(omegas, lengths, sc.config.atomic_mass,
                       sc.config.scattering_length)
    lin = 10.0 ** (db / 10.0)
    columns = ["nu_perp_hz", "length_um", "xi2_lim", "xi2_lim_db"]
    rows = []
    for i, om in enumerate(omegas):
        for j, L in enumerate(lengths):
            rows.append([om / (2.0 * pi), L / UM, lin[i, j], db[i, j]])
    table = ResultTable(columns, rows, _provenance("squeezing-map", sc, []))
    _emit(table, args)
    return EXIT_OK


def _cmd_oracle(sc, args) -> int:
    import numpy as np

    from .homogeneous import recurrence_time, variance_field
    from .oracle import EnsembleSpec, estimate_pcf
    from .params import derive_params
    from .tables import ResultTable
    from .trapped import trapped_variance_field

    params = derive_params(sc.config)
    realizations = (args.realizations if args.realizations is not None
                    else sc.oracle_realizations)
    seed = args.seed if args.seed is not None else sc.oracle_seed
    spec = EnsembleSpec(realizations=realizations, master_seed=seed,
                        include_initial_phase_noise=sc.oracle_phase_noise)
    if sc.config.regime.trapped:
        _, modes = _trapped_model(sc, params)
        R = modes.radius
        z = sc.oracle_zbar if sc.oracle_zbar is not None \
            else R * np.array([0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75])
        times = sc.oracle_times if sc.oracle_times is not None \
            else np.array([1.0, 2.0, 4.0, 6.0, 10.0]) * MS
        analytic_field = trapped_variance_field(modes, z, times)
        pos_name = "z_um"
    else:
        modes = _homogeneous_modes(sc, params)
        L = sc.config.system_length
        z = sc.oracle_zbar if sc.oracle_zbar is not None \
            else L * np.array([0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.20, 0.25])
        t_rev = recurrence_time(L, params.c)
        times = sc.oracle_times if sc.oracle_times is not None \
            else t_rev * np.array([0.04, 0.08, 0.12, 0.20, 0.30])
        analytic_field = variance_field(modes, z, times)
        pos_name = "zbar_um"
    stats = estimate_pcf(spec, modes, z, times, zprime=0.0)
    analytic = np.exp(-analytic_field.values / 2.0)
    se, imag_se = stats.stderr, stats.imag_stderr
    z_score = np.zeros_like(se)
    np.divide(stats.mean - analytic, se, out=z_score, where=se > 0)
    imag_z = np.abs(stats.imag_mean[imag_se > 0] / imag_se[imag_se > 0])
    columns = [pos_name, "t_ms", "C_analytic", "C_mc", "stderr", "z_score"]
    rows = [[z[iz] / UM, times[it] / MS, analytic[it, iz], stats.mean[it, iz],
             se[it, iz], z_score[it, iz]]
            for it in range(len(times)) for iz in range(len(z))]
    table = ResultTable(columns, rows, _provenance("oracle", sc, [
        ("regime", sc.config.regime.value),
        ("seed", str(seed)),
        ("realizations", str(realizations)),
        ("rng", "philox4x64 keyed by (seed, realization)"),
        ("z_abs_lt3_frac", format(np.mean(np.abs(z_score) < 3.0), ".12g")),
        ("max_abs_z", format(np.max(np.abs(z_score)), ".12g")),
        ("max_imag_z", format(imag_z.max(initial=0.0), ".12g")),
    ]))
    _emit(table, args)
    return EXIT_OK


_COMMANDS = {
    "params": _cmd_params,
    "pcf": _cmd_pcf,
    "front": _cmd_front,
    "recurrence": _cmd_recurrence,
    "contrast": _cmd_contrast,
    "squeezing-map": _cmd_squeezing_map,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    from .errors import ConfigError, ConvergenceError, DetectionError

    try:
        sc = _load_scenario(args)
        return _COMMANDS[args.command](sc, args)
    except ConfigError as exc:
        print(f"splitgas: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"splitgas: non-convergence: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except DetectionError as exc:
        print(f"splitgas: detection failure: {exc}", file=sys.stderr)
        return EXIT_DETECTION


if __name__ == "__main__":
    sys.exit(main())
