"""Scenario files: schema validation, unit conversion and built-in presets.

A scenario is a nested key/value document (YAML).  Frequencies are given
as nu = omega/(2*pi) in Hz, lengths in micron, times in ms; everything is
converted to SI on ingestion.  Unknown keys are rejected with their dotted
location so typos cannot silently change the physics.

The ``fig1`` .. ``fig8`` presets carry the reference parameters behind the
standard figures (Rb-87, omega_perp = 2*pi*1400 Hz, omega = 2*pi*7 Hz,
N = 7000 or the stated variants) so each one is a single command.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ConfigError
from .params import RB87, Regime, SpeciesPreset, TrapConfig, hbar, pi

__all__ = ["Scenario", "load_scenario", "preset_scenario", "PRESET_NAMES"]

_SPECIES = {"rb87": RB87}

UM = 1e-6
MS = 1e-3
NM = 1e-9


def _require_number(value, where, positive=True, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:   # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    if integer and int(value) != value:
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(f"{where}: must be strictly positive, got {value!r}")
    return float(value)


def _require_mapping(value, where):
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping")
    return value


def _check_keys(mapping: dict, allowed: set, where: str):
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}: unknown key")


def _grid(value, where, scale=1.0, nonnegative=False):
    """Accept an explicit list of numbers or {start, stop, num}."""
    if isinstance(value, list):
        if not value:
            raise ConfigError(f"{where}: grid list must be non-empty")
        vals = [
            _require_number(v, f"{where}[{i}]", positive=False)
            for i, v in enumerate(value)
        ]
        if nonnegative and min(vals) < 0:
            raise ConfigError(f"{where}: times must be non-negative, got {min(vals)!r}")
        return np.asarray(vals, dtype=float) * scale
    if isinstance(value, dict):
        _check_keys(value, {"start", "stop", "num"}, where)
        for key in ("start", "stop", "num"):
            if key not in value:
                raise ConfigError(f"{where}.{key}: required for a range grid")
        start = _require_number(value["start"], f"{where}.start", positive=False)
        if nonnegative and start < 0:
            raise ConfigError(f"{where}.start: times must be non-negative, got {start!r}")
        stop = _require_number(value["stop"], f"{where}.stop", positive=False)
        num = int(_require_number(value["num"], f"{where}.num", integer=True))
        if stop <= start:
            raise ConfigError(f"{where}: stop must exceed start")
        if num < 2:
            raise ConfigError(f"{where}.num: need at least 2 points")
        return np.linspace(start, stop, num) * scale
    raise ConfigError(f"{where}: expected a list or a start/stop/num mapping")


_TRAP_KEYS = {
    "species", "mass_kg", "scattering_length_nm", "nu_perp_hz", "nu_long_hz",
    "regime", "atom_number_total", "peak_density_per_um", "system_length_um",
    "squeezing",
}
_GRID_KEYS = {"zbar_um", "times_ms"}
_TRUNC_KEYS = {"p_max", "j_max"}
_ANALYSIS_KEYS = {
    "length_um", "contrast_lengths_um", "fit_window_ms", "t_max_ms",
    "scan_atom_numbers", "compare_regimes",
}
_ORACLE_KEYS = {"realizations", "seed", "include_initial_phase_noise",
                "zbar_um", "times_ms"}
_MAP_KEYS = {"nu_perp_hz", "length_um"}
_TOP_KEYS = {"trap", "grids", "truncation", "analysis", "oracle", "squeezing_map"}


@dataclass
class Scenario:
    """Validated scenario: resolved raw document plus typed pieces."""

    raw: dict
    config: TrapConfig
    zbar: np.ndarray | None = None      # m
    times: np.ndarray | None = None     # s
    p_max: int | None = None
    j_max: int | None = None
    length: float | None = None         # interferometry window, m
    contrast_lengths: list = field(default_factory=list)  # m
    fit_window: tuple = (0.0, 10e-3)    # s
    t_max: float = 0.3                  # s
    scan_atom_numbers: list = field(default_factory=list)
    compare_regimes: bool = False
    oracle_realizations: int = 10000
    oracle_seed: int = 20260809
    oracle_phase_noise: bool = False
    oracle_zbar: np.ndarray | None = None
    oracle_times: np.ndarray | None = None
    map_nu_perp: np.ndarray | None = None   # rad/s grid
    map_lengths: np.ndarray | None = None   # m

    def sha256(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()
        ).hexdigest()


def _build_config(trap: dict) -> TrapConfig:
    _require_mapping(trap, "trap")
    _check_keys(trap, _TRAP_KEYS, "trap")
    species: SpeciesPreset | None = None
    if "species" in trap:
        name = str(trap["species"]).lower()
        if name not in _SPECIES:
            raise ConfigError(
                f"trap.species: unknown species {trap['species']!r} "
                f"(available: {', '.join(sorted(_SPECIES))})"
            )
        species = _SPECIES[name]
    mass = (_require_number(trap["mass_kg"], "trap.mass_kg")
            if "mass_kg" in trap else (species.mass if species else None))
    if mass is None:
        raise ConfigError("trap.mass_kg: required when no species preset is given")
    a_s = (_require_number(trap["scattering_length_nm"], "trap.scattering_length_nm") * NM
           if "scattering_length_nm" in trap
           else (species.scattering_length if species else None))
    if a_s is None:
        raise ConfigError(
            "trap.scattering_length_nm: required when no species preset is given")
    if "nu_perp_hz" not in trap:
        raise ConfigError("trap.nu_perp_hz: required")
    omega_perp = 2.0 * pi * _require_number(trap["nu_perp_hz"], "trap.nu_perp_hz")
    nu_long = trap.get("nu_long_hz", 0.0)
    if nu_long != 0:
        nu_long = _require_number(nu_long, "trap.nu_long_hz")
    if "regime" not in trap:
        raise ConfigError("trap.regime: required")
    try:
        regime = Regime(str(trap["regime"]))
    except ValueError:
        raise ConfigError(
            f"trap.regime: expected one of {[r.value for r in Regime]}, "
            f"got {trap['regime']!r}"
        ) from None
    n_total = trap.get("atom_number_total")
    if n_total is not None:
        n_total = _require_number(n_total, "trap.atom_number_total")
    density = trap.get("peak_density_per_um")
    if density is not None:
        density = _require_number(density, "trap.peak_density_per_um") / UM
    length = trap.get("system_length_um", 0.0)
    if length != 0:
        length = _require_number(length, "trap.system_length_um") * UM
    squeezing = _require_number(trap.get("squeezing", 1.0), "trap.squeezing")
    return TrapConfig(
        atomic_mass=mass, scattering_length=a_s, omega_perp=omega_perp,
        omega_long=2.0 * pi * nu_long, atom_number_total=n_total,
        peak_density_per_gas=density, system_length=length,
        squeezing=squeezing, regime=regime,
    )


def _build_scenario(doc: dict) -> Scenario:
    _require_mapping(doc, "scenario")
    _check_keys(doc, _TOP_KEYS, "scenario")
    if "trap" not in doc:
        raise ConfigError("trap: required section")
    config = _build_config(doc["trap"])
    sc = Scenario(raw=copy.deepcopy(doc), config=config)

    grids = _require_mapping(doc.get("grids", {}), "grids")
    _check_keys(grids, _GRID_KEYS, "grids")
    if "zbar_um" in grids:
        sc.zbar = _grid(grids["zbar_um"], "grids.zbar_um", scale=UM)
    if "times_ms" in grids:
        sc.times = _grid(grids["times_ms"], "grids.times_ms", scale=MS, nonnegative=True)

    trunc = _require_mapping(doc.get("truncation", {}), "truncation")
    _check_keys(trunc, _TRUNC_KEYS, "truncation")
    if "p_max" in trunc:
        sc.p_max = int(_require_number(trunc["p_max"], "truncation.p_max", integer=True))
    if "j_max" in trunc:
        sc.j_max = int(_require_number(trunc["j_max"], "truncation.j_max", integer=True))

    ana = _require_mapping(doc.get("analysis", {}), "analysis")
    _check_keys(ana, _ANALYSIS_KEYS, "analysis")
    if "length_um" in ana:
        sc.length = _require_number(ana["length_um"], "analysis.length_um") * UM
    if "contrast_lengths_um" in ana:
        raw_ls = ana["contrast_lengths_um"]
        if not isinstance(raw_ls, list) or not raw_ls:
            raise ConfigError("analysis.contrast_lengths_um: expected a non-empty list")
        sc.contrast_lengths = [
            _require_number(v, f"analysis.contrast_lengths_um[{i}]") * UM
            for i, v in enumerate(raw_ls)
        ]
    if "fit_window_ms" in ana:
        win = ana["fit_window_ms"]
        if not isinstance(win, list) or len(win) != 2:
            raise ConfigError("analysis.fit_window_ms: expected [t_min, t_max]")
        lo = _require_number(win[0], "analysis.fit_window_ms[0]", positive=False)
        hi = _require_number(win[1], "analysis.fit_window_ms[1]")
        if hi <= lo:
            raise ConfigError("analysis.fit_window_ms: t_max must exceed t_min")
        sc.fit_window = (lo * MS, hi * MS)
    if "t_max_ms" in ana:
        sc.t_max = _require_number(ana["t_max_ms"], "analysis.t_max_ms") * MS
    if "scan_atom_numbers" in ana:
        raw_ns = ana["scan_atom_numbers"]
        if not isinstance(raw_ns, list) or not raw_ns:
            raise ConfigError("analysis.scan_atom_numbers: expected a non-empty list")
        sc.scan_atom_numbers = [
            _require_number(v, f"analysis.scan_atom_numbers[{i}]")
            for i, v in enumerate(raw_ns)
        ]
    if "compare_regimes" in ana:
        if not isinstance(ana["compare_regimes"], bool):
            raise ConfigError("analysis.compare_regimes: expected true/false")
        sc.compare_regimes = ana["compare_regimes"]

    orc = _require_mapping(doc.get("oracle", {}), "oracle")
    _check_keys(orc, _ORACLE_KEYS, "oracle")
    if "realizations" in orc:
        sc.oracle_realizations = int(
            _require_number(orc["realizations"], "oracle.realizations", integer=True))
    if "seed" in orc:
        seed = orc["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError("oracle.seed: expected a non-negative integer")
        sc.oracle_seed = seed
    if "include_initial_phase_noise" in orc:
        if not isinstance(orc["include_initial_phase_noise"], bool):
            raise ConfigError("oracle.include_initial_phase_noise: expected true/false")
        sc.oracle_phase_noise = orc["include_initial_phase_noise"]
    if "zbar_um" in orc:
        sc.oracle_zbar = _grid(orc["zbar_um"], "oracle.zbar_um", scale=UM)
    if "times_ms" in orc:
        sc.oracle_times = _grid(orc["times_ms"], "oracle.times_ms", scale=MS, nonnegative=True)

    smap = _require_mapping(doc.get("squeezing_map", {}), "squeezing_map")
    _check_keys(smap, _MAP_KEYS, "squeezing_map")
    if "nu_perp_hz" in smap:
        sc.map_nu_perp = 2.0 * pi * _grid(smap["nu_perp_hz"], "squeezing_map.nu_perp_hz")
    if "length_um" in smap:
        sc.map_lengths = _grid(smap["length_um"], "squeezing_map.length_um", scale=UM)
    return sc


def load_scenario(path: str) -> Scenario:
    """Parse and validate a YAML scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"scenario file is not valid YAML: {exc}") from None
    if doc is None:
        raise ConfigError("scenario file is empty")
    return _build_scenario(doc)


def _reference_trap(regime: str, **extra) -> dict:
    trap = {
        "species": "rb87",
        "nu_perp_hz": 1400.0,
        "regime": regime,
    }
    trap.update(extra)
    return trap


def _presets() -> dict:
    fig2_density = RB87.mass * 1e-6 / (2.0 * hbar * 2.0 * pi * 1400.0 * 5.2e-9) * UM
    homog_ref = _reference_trap(
        "homogeneous", peak_density_per_um=46.0, system_length_um=100.0)
    trapped_ref = _reference_trap(
        "thomas_fermi", nu_long_hz=7.0, atom_number_total=7000)
    return {
        "fig1": {
            "trap": dict(homog_ref),
            "squeezing_map": {
                "nu_perp_hz": {"start": 200.0, "stop": 3000.0, "num": 57},
                "length_um": {"start": 20.0, "stop": 200.0, "num": 61},
            },
        },
        "fig2": {
            "trap": _reference_trap(
                "homogeneous", peak_density_per_um=fig2_density,
                system_length_um=800.0),
            "grids": {
                "zbar_um": {"start": 0.0, "stop": 30.0, "num": 301},
                "times_ms": [5.0],
            },
        },
        "fig3": {
            "trap": dict(homog_ref),
            "grids": {
                "zbar_um": {"start": 0.0, "stop": 30.0, "num": 241},
                "times_ms": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            },
        },
        "fig4": {
            "trap": dict(trapped_ref),
            "grids": {
                "times_ms": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            },
        },
        "fig5": {
            "trap": _reference_trap(
                "thomas_fermi", nu_long_hz=7.0, atom_number_total=6000),
            "analysis": {"scan_atom_numbers": [3000, 6000, 9000]},
        },
        "fig6": {
            "trap": dict(trapped_ref),
            "analysis": {"compare_regimes": True},
        },
        "fig7": {
            "trap": dict(trapped_ref),
            "analysis": {"t_max_ms": 300.0, "contrast_lengths_um": [50.0]},
        },
        "fig8": {
            "trap": dict(trapped_ref),
            "analysis": {"t_max_ms": 300.0,
                         "contrast_lengths_um": [5.0, 20.0, 50.0, 90.0]},
        },
    }


PRESET_NAMES = tuple(sorted(_presets()))


def preset_scenario(name: str) -> Scenario:
    """Built-in scenario behind one of the standard figures."""
    presets = _presets()
    if name not in presets:
        raise ConfigError(
            f"unknown preset {name!r} (available: {', '.join(PRESET_NAMES)})")
    return _build_scenario(presets[name])
