"""Scenario-driven command line front end.

    splitgas {params|pcf|front|recurrence|contrast|squeezing-map|oracle}
             (--config FILE | --preset figK) [--out PATH] [--json]
             [--times MS ...] [--t-max MS] [--realizations N --seed S]

Each of --times, --t-max, --realizations and --seed overrides one scenario
key (see ``_FLAGS``) and is parsed by that key's rule, so every command
is a pure function of (scenario, tool version): rerunning writes
byte-identical artifacts.  Exit codes: 0 success, else the error type's
``exit_code`` (2 configuration error, 3 non-convergence, 4 detection failure).
Set SPLITGAS_THREADS to cap the linear-algebra thread pool.
"""

from __future__ import annotations

import argparse
import os
import sys

UM = 1e-6
MS = 1e-3

# value flags: {flag: (section, key it overrides, argparse options)}, in the
# order they are applied, so the first fault reported is stable
_FLAGS = {
    "--times": ("grids", "times_ms", {"type": float, "nargs": "+", "metavar": "MS"}),
    "--t-max": ("analysis", "t_max_ms", {"type": float, "metavar": "MS"}),
    "--realizations": ("oracle", "realizations", {"type": int}),
    "--seed": ("oracle", "seed", {"type": int}),
}


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
    for name, (_, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=help_text)
        for flag in flags:
            section, key, options = _FLAGS[flag]
            command.add_argument(flag, help=f"overrides {section}.{key}", **options)
    return parser


def _load_scenario(args):
    from .errors import ConfigError
    from .scenario import load_scenario, preset_scenario

    if bool(args.config) == bool(args.preset):
        raise ConfigError("exactly one of --config or --preset is required")
    sc = load_scenario(args.config) if args.config else preset_scenario(args.preset)
    for flag, (section, key, _) in _FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            sc.override(section, key, value, flag)
    return sc


def _check_out(path: str, json_mirror: bool) -> None:
    """Refuse an output path in a missing directory, or naming a directory,
    before anything is computed."""
    from .errors import ConfigError

    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"cannot write {path}: no directory {directory}")
    for target in (path, path + ".json") if json_mirror else (path,):
        if os.path.isdir(target):
            raise ConfigError(f"cannot write {target}: it is a directory")


def _write(sc, args, columns, rows, extra) -> None:
    """Stamp a command's table (columns, rows, extra provenance lines) and write it."""
    from . import __version__
    from .errors import ConfigError
    from .tables import ResultTable, write_table

    table = ResultTable(columns, rows, [
        ("splitgas", __version__), ("command", args.command),
        ("config_sha256", sc.sha256()), *extra])
    if args.out:
        try:
            write_table(table, args.out, json_mirror=args.json)
        except OSError as exc:
            raise ConfigError(f"cannot write {exc.filename or args.out}: "
                              f"{exc.strerror or exc}") from None
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


def _modes(sc, config=None):
    """The mode basis of ``config`` (default: the scenario's) at its truncation."""
    from .params import derive_params

    config = config or sc.config
    params = derive_params(config)
    if not config.regime.trapped:
        from .homogeneous import build_modes

        return build_modes(params, config.system_length, sc.p_max)
    from .trapped import build_trapped_modes

    return build_trapped_modes(params, sc.j_max)


def _cmd_params(sc):
    import math

    from .errors import ConfigError
    from .params import (dephasing_times, derive_params, multimode_condition,
                         squeezing_limit)

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
    for name, value in zip(columns, row):
        if not math.isfinite(value) and name != "R_um":   # a box has no radius
            raise ConfigError(f"{name}: the trap's numbers put it beyond the range of doubles")
    return columns, [row], [("regime", sc.config.regime.value)]


def _cmd_pcf(sc):
    import numpy as np

    from .modes import pcf, variance_field
    from .scenario import time_column

    modes = _modes(sc)
    times = sc.times
    if sc.zbar is not None:
        z = sc.zbar
    elif sc.config.regime.trapped:
        z = np.linspace(0.0, 0.999 * modes.radius, 241)
    else:
        z = np.linspace(0.0, sc.config.system_length / 4.0, 201)
    field = variance_field(modes, z, times, check_convergence=True)
    trapped = sc.config.regime.trapped
    corr = pcf(field)
    columns = ["z_um" if trapped else "zbar_um"] + [time_column(t) for t in times]
    rows = [[z[i] / UM, *corr[:, i]] for i in range(len(z))]
    return columns, rows, [
        ("regime", sc.config.regime.value),
        ("truncation", f"{modes.truncation_name}={modes.truncation}"),
        ("zprime_um", "0" if trapped else "-"),
        ("truncation_doubling_rel", format(field.doubling_dev, ".3g"))]


def _front_for_system(modes, fit_window):
    import numpy as np

    from .errors import DetectionError
    from .modes import default_rate_step, variance_field
    from .observables import extract_front, fit_velocity

    t_hi = fit_window[1]
    dt = default_rate_step(modes)
    times = np.arange(dt, t_hi + 0.5 * dt, dt)
    xi_h = modes.xi_h
    if modes.radius is None:
        z_hi = min(0.45 * modes.L, 2.0 * modes.params.c * t_hi * 1.4 + 20.0 * xi_h)
    else:
        z_hi = 0.985 * modes.radius
    # the detector reads the field's rows a block of times at a time
    field = variance_field(modes, np.arange(0.0, z_hi, xi_h / 4.0), times)
    z = field.positions
    trace = extract_front(field)
    fit = fit_velocity(trace, fit_window)
    # a front that stands still (e.g. a truncation too coarse to carry one)
    # fits a rounding-level slope; report it instead of a velocity
    fitted = f"fitted front velocity {fit.speed / 1e-3:.6g} mm/s"
    if not fit.speed > 0.0:
        raise DetectionError(f"{fitted} is not positive")
    sel = (trace.times > fit_window[0]) & (trace.times <= fit_window[1])
    travel = float(np.ptp(trace.positions[sel]))
    if travel < z[1] - z[0]:
        raise DetectionError(
            f"{fitted}: the detected front moves {travel / UM:.3g} um over the fit "
            f"window, less than one grid step ({(z[1] - z[0]) / UM:.3g} um)")
    # a peak within guard samples of the searched segment's end may be the edge's, not the front's
    guard = trace.diagnostics["guard"]
    edge = trace.diagnostics["search_max"] - 2 * guard * (z[1] - z[0])
    late = trace.positions[sel] >= edge
    if late.any():
        raise DetectionError(
            f"{fitted}: the detected front reaches {edge / UM:.4g} um, within {guard} samples "
            f"of the end of its search range, at t = {trace.times[sel][late][0] / MS:.6g} ms")
    return trace, fit


def _cmd_front(sc):
    from dataclasses import replace

    from .params import Regime
    from .scenario import velocity_key

    window = ("fit_window_ms", f"({_fmt_ms(sc.fit_window[0])}, {_fmt_ms(sc.fit_window[1])}]")
    if sc.compare_regimes:
        base = sc.config
        modes_tf = _modes(sc, replace(base, system_length=0.0, regime=Regime.THOMAS_FERMI))
        params_tf = modes_tf.params
        # homogeneous twin at the trapped peak density, box wide enough for the fit
        L_box = max(8.0 * params_tf.R, 400e-6)
        cfg_h = replace(base, omega_long=0.0, atom_number_total=None,
                        peak_density_per_gas=params_tf.n_peak, system_length=L_box,
                        regime=Regime.HOMOGENEOUS)
        cfg_q = replace(base, system_length=0.0, regime=Regime.QUASI_1D)
        fit_h, fit_tf, fit_q = [_front_for_system(modes, sc.fit_window)[1]
                                for modes in (_modes(sc, cfg_h), modes_tf, _modes(sc, cfg_q))]
        columns = ["velocity_homogeneous_mm_per_s", "velocity_thomas_fermi_mm_per_s",
                   "velocity_quasi_1d_mm_per_s", "sound_speed_mm_per_s"]
        rows = [[fit_h.speed / 1e-3, fit_tf.speed / 1e-3, fit_q.speed / 1e-3,
                 params_tf.c / 1e-3]]
        return columns, rows, [("comparison", "homogeneous vs thomas_fermi vs quasi_1d"),
                               window]
    prov_extra = [("regime", sc.config.regime.value), window]
    if sc.scan_atom_numbers:
        columns = ["atom_number", "t_ms", "zc_um", "R_half_um"]
        rows = []
        for n_total in sc.scan_atom_numbers:
            modes = _modes(sc, replace(sc.config, atom_number_total=n_total,
                                       peak_density_per_gas=None))
            trace, fit = _front_for_system(modes, sc.fit_window)
            prov_extra.append((velocity_key(n_total), format(fit.speed / 1e-3, ".12g")))
            half = modes.radius / 2.0
            rows.extend([[n_total, t / MS, zc / UM, half / UM]
                         for t, zc in zip(trace.times, trace.positions)])
        return columns, rows, prov_extra

    modes = _modes(sc)
    trace, fit = _front_for_system(modes, sc.fit_window)
    columns = ["t_ms", "zc_um"]
    rows = [[t / MS, zc / UM] for t, zc in zip(trace.times, trace.positions)]
    if sc.config.regime.trapped:
        columns.append("R_half_um")
        rows = [row + [modes.radius / 2.0 / UM] for row in rows]
    prov_extra.extend([
        ("velocity_mm_per_s", format(fit.speed / 1e-3, ".12g")),
        ("velocity_residual_rms_um", format(fit.residual_rms / UM, ".12g")),
        ("detector", trace.method),
    ])
    return columns, rows, prov_extra


def _contrast_times(sc):
    import numpy as np

    return np.arange(0.0, sc.t_max + 0.25 * MS, 0.5 * MS)


def _cmd_recurrence(sc):
    from .errors import DetectionError
    from .observables import contrast_evaluator, recurrence_scan

    modes = _modes(sc)
    length = sc.contrast_lengths[0]
    times = _contrast_times(sc)
    contrast = contrast_evaluator(modes, length)
    values = contrast(times)
    found = recurrence_scan(times, values, refine_fn=lambda t: float(contrast([t])[0]))
    if not found:
        raise DetectionError("no recurrence found in the scan range")
    prov = [("regime", sc.config.regime.value),
            ("integration_length_um", format(length / UM, ".12g"))]
    for rank, (t_r, s_r) in enumerate(found[:10], start=1):
        prov.append((f"recurrence_{rank}",
                     f"t_ms={format(t_r / MS, '.6f')} strength={format(s_r, '.10g')}"))
    columns = ["t_ms", "C2"]
    rows = [[t / MS, v] for t, v in zip(times, values)]
    return columns, rows, prov


def _cmd_contrast(sc):
    from .observables import contrast_evaluator
    from .scenario import contrast_column

    modes = _modes(sc)
    lengths = sc.contrast_lengths
    times = _contrast_times(sc)
    evaluators = [contrast_evaluator(modes, L) for L in lengths]   # each window refused first
    traces = [contrast(times) for contrast in evaluators]
    columns = ["t_ms"] + [contrast_column(L) for L in lengths]
    rows = [[times[i] / MS] + [tr[i] for tr in traces]
            for i in range(len(times))]
    return columns, rows, [("regime", sc.config.regime.value)]


def _cmd_squeezing_map(sc):
    from .params import pi, squeezing_limit

    mass, a = sc.config.atomic_mass, sc.config.scattering_length
    # Python floats, so that a refusal quotes 0.0, not np.float64(0.0)
    rows = [[om / (2.0 * pi), L / UM, *squeezing_limit(om, L, mass, a)]
            for om in sc.map_nu_perp.tolist() for L in sc.map_lengths.tolist()]
    return ["nu_perp_hz", "length_um", "xi2_lim", "xi2_lim_db"], rows, []


def _cmd_oracle(sc):
    import numpy as np

    from .modes import pcf, variance_field
    from .oracle import EnsembleSpec, estimate_pcf

    modes = _modes(sc)
    spec = EnsembleSpec(realizations=sc.oracle_realizations, master_seed=sc.oracle_seed,
                        include_initial_phase_noise=sc.oracle_phase_noise)
    if sc.config.regime.trapped:
        z = modes.radius * np.array([0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75])
        times = np.array([1.0, 2.0, 4.0, 6.0, 10.0]) * MS
    else:
        from .homogeneous import recurrence_time

        z = modes.L * np.array([0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.20, 0.25])
        times = recurrence_time(modes.L, modes.params.c) * np.array([0.04, 0.08, 0.12, 0.20, 0.30])
    z = sc.oracle_zbar if sc.oracle_zbar is not None else z
    times = sc.oracle_times if sc.oracle_times is not None else times
    analytic = pcf(variance_field(modes, z, times))
    stats = estimate_pcf(spec, modes, z, times, zprime=0.0)
    se, imag_se = stats.stderr, stats.imag_stderr
    z_score = np.zeros_like(se)
    np.divide(stats.mean - analytic, se, out=z_score, where=se > 0)
    imag_z = np.abs(stats.imag_mean[imag_se > 0] / imag_se[imag_se > 0])
    columns = ["z_um" if sc.config.regime.trapped else "zbar_um", "t_ms", "C_analytic",
               "C_mc", "stderr", "z_score"]
    rows = [[z[iz] / UM, times[it] / MS, analytic[it, iz], stats.mean[it, iz],
             se[it, iz], z_score[it, iz]]
            for it in range(len(times)) for iz in range(len(z))]
    return columns, rows, [
        ("regime", sc.config.regime.value),
        ("seed", str(sc.oracle_seed)),
        ("realizations", str(sc.oracle_realizations)),
        ("rng", "philox4x64 keyed by (seed, realization)"),
        ("z_abs_lt3_frac", format(np.mean(np.abs(z_score) < 3.0), ".12g")),
        ("max_abs_z", format(np.max(np.abs(z_score)), ".12g")),
        ("max_imag_z", format(imag_z.max(initial=0.0), ".12g")),
    ]


# {command: (function, help, value flags)}
_COMMANDS = {
    "params": (_cmd_params, "derived physical scalars and interferometry criteria", ()),
    "pcf": (_cmd_pcf, "phase correlation function on a position grid", ("--times",)),
    "front": (_cmd_front, "correlation-front positions and fitted velocity", ()),
    "recurrence": (_cmd_recurrence, "contrast trace plus ranked recurrences", ("--t-max",)),
    "contrast": (_cmd_contrast, "mean squared contrast for each window length", ("--t-max",)),
    "squeezing-map": (_cmd_squeezing_map, "required number squeezing over (nu_perp, L)", ()),
    "oracle": (_cmd_oracle, "Monte-Carlo validation of the analytic PCF",
               ("--realizations", "--seed")),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    from .errors import ConfigError, SplitGasError

    try:
        if args.json and not args.out:
            raise ConfigError("--json requires --out")
        if args.out:
            _check_out(args.out, args.json)
        sc = _load_scenario(args)
        _write(sc, args, *_COMMANDS[args.command][0](sc))
        return 0
    except SplitGasError as exc:
        print(f"splitgas: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        print(f"splitgas: {ConfigError.label}: the scenario's grids are too large "
              f"to allocate ({exc})", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())
