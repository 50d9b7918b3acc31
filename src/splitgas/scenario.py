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
import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ConfigError
from .params import RB87, Regime, SpeciesPreset, TrapConfig, _is_finite, hbar, pi

__all__ = ["Scenario", "load_scenario", "preset_scenario", "PRESET_NAMES",
           "contrast_column", "time_column", "velocity_key"]

_SPECIES = {"rb87": RB87}

UM = 1e-6
MS = 1e-3
NM = 1e-9


def _quote(value) -> str:
    """repr(value) cut to 60 characters, so refusing a long list or integer stays short."""
    text = repr(value)
    return text if len(text) <= 60 else text[:60] + "..."


def _require_number(value, where, positive=True, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {_quote(value)}")
    if not _is_finite(value):
        raise ConfigError(f"{where}: expected a finite number, got {_quote(value)}")
    if integer and int(value) != value:
        raise ConfigError(f"{where}: expected an integer, got {_quote(value)}")
    if positive and value <= 0:
        raise ConfigError(f"{where}: must be strictly positive, got {_quote(value)}")
    return float(value)


def _require_mapping(value, where):
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping")
    return value


def _check_keys(mapping: dict, allowed, where: str):
    unknown = sorted(set(mapping).difference(allowed))
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


def _integer(value, where):
    return int(_require_number(value, where, integer=True))


def _flag(value, where):
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true/false")
    return value


def contrast_column(length: float) -> str:
    """Table column of the contrast trace for a window ``length`` in m."""
    return f"C2_L{format(length / UM, '.6g')}um"


def time_column(t: float) -> str:
    """Table column of the correlation function at time ``t`` in s."""
    return f"C_t{format(t / MS, '.6g')}ms"


def velocity_key(atom_number: float) -> str:
    """Provenance key of the front velocity of an atom-number scan entry."""
    return f"velocity_N{format(atom_number, '.12g')}_mm_per_s"


def _refuse_repeats(where, values, names):
    """Refuse, at load, two entries that would name one column or provenance line."""
    seen = {}
    for v, name in zip(values, names):
        if name in seen:
            raise ConfigError(f"{where}: {_quote(v)} repeats {_quote(seen[name])} "
                              f"(duplicate {name})")
        seen[name] = v


def _nonempty_list(item, table_name=None):
    """Parse a non-empty list; with ``table_name(parsed entry)``, refuse repeats."""
    def parse(value, where):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where}: expected a non-empty list")
        parsed = [item(v, f"{where}[{i}]") for i, v in enumerate(value)]
        if table_name is not None:
            _refuse_repeats(where, value, map(table_name, parsed))
        return parsed
    return parse


def _fit_window(win, where):
    if not isinstance(win, list) or len(win) != 2:
        raise ConfigError(f"{where}: expected [t_min, t_max]")
    lo = _require_number(win[0], f"{where}[0]", positive=False)
    hi = _require_number(win[1], f"{where}[1]")
    if hi <= lo:
        raise ConfigError(f"{where}: t_max must exceed t_min")
    return (lo * MS, hi * MS)


def _seed(seed, where):
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError(f"{where}: expected an integer in [0, 2**64), got {_quote(seed)}")
    return seed


def _realizations(value, where):
    n = int(_require_number(value, where, positive=False, integer=True))
    if n < 2:
        raise ConfigError(f"{where}: need at least 2 realizations, got {n}")
    return n


def _length(value, where):
    return _require_number(value, where) * UM


_positions = partial(_grid, scale=UM)


def _times(value, where):
    """A time grid in time order, so table columns and rows run forward."""
    return np.sort(_grid(value, where, scale=MS, nonnegative=True))


def _column_times(value, where):
    """A time grid of one table column per time, so no two may print alike."""
    ms = np.sort(_grid(value, where, nonnegative=True))
    _refuse_repeats(where, ms.tolist(), [f"column {time_column(t * MS)!r}" for t in ms])
    return ms * MS


def _species(value, where) -> SpeciesPreset:
    name = str(value).lower()
    if name not in _SPECIES:
        raise ConfigError(f"{where}: unknown species {_quote(value)} "
                          f"(available: {', '.join(sorted(_SPECIES))})")
    return _SPECIES[name]


def _regime(value, where) -> Regime:
    try:
        return Regime(str(value))
    except ValueError:
        raise ConfigError(f"{where}: expected one of {[r.value for r in Regime]}, "
                          f"got {_quote(value)}") from None


def _zero_or_positive(value, where):
    """0, and only 0, stands for "none" in the two optional trap numbers."""
    return _require_number(value, where, positive=value != 0)


# The trap section: {key: (TrapConfig field, parser(value, dotted key))}, parsed
# in this order.  A key left out is required (nu_perp_hz, regime), taken from
# the species (mass_kg, scattering_length_nm) or left at its TrapConfig default.
_TRAP = {
    "species": ("species", _species),
    "mass_kg": ("atomic_mass", _require_number),
    "scattering_length_nm": ("scattering_length",
                             lambda v, where: _require_number(v, where) * NM),
    "nu_perp_hz": ("omega_perp", lambda v, where: 2.0 * pi * _require_number(v, where)),
    "nu_long_hz": ("omega_long", lambda v, where: 2.0 * pi * _zero_or_positive(v, where)),
    "regime": ("regime", _regime),
    "atom_number_total": ("atom_number_total", lambda v, where:   # null: not given
                          None if v is None else _require_number(v, where)),
    "peak_density_per_um": ("peak_density_per_gas", lambda v, where:
                            None if v is None else _require_number(v, where) / UM),
    "system_length_um": ("system_length", lambda v, where: _zero_or_positive(v, where) * UM),
    "squeezing": ("squeezing", _require_number),
}

# Optional sections: {section: {key: (Scenario attribute, parser(value, dotted key))}}.
# Keys are parsed in this order, so the first fault reported is stable.
_SECTIONS = {
    "grids": {"zbar_um": ("zbar", _positions), "times_ms": ("times", _column_times)},
    "truncation": {"p_max": ("p_max", _integer), "j_max": ("j_max", _integer)},
    "analysis": {
        "length_um": ("length", _length),
        "contrast_lengths_um": ("contrast_lengths", _nonempty_list(
            _length, lambda L: f"column {contrast_column(L)!r}")),
        "fit_window_ms": ("fit_window", _fit_window),
        "t_max_ms": ("t_max", lambda v, where: _require_number(v, where) * MS),
        "scan_atom_numbers": ("scan_atom_numbers", _nonempty_list(
            _require_number, lambda n: f"provenance key {velocity_key(n)!r}")),
        "compare_regimes": ("compare_regimes", _flag),
    },
    "oracle": {
        "realizations": ("oracle_realizations", _realizations),
        "seed": ("oracle_seed", _seed),
        "include_initial_phase_noise": ("oracle_phase_noise", _flag),
        "zbar_um": ("oracle_zbar", _positions),
        "times_ms": ("oracle_times", _times),
    },
    "squeezing_map": {
        "nu_perp_hz": ("map_nu_perp", lambda v, where: 2.0 * pi * _grid(v, where)),
        "length_um": ("map_lengths", _positions),
    },
}


@dataclass
class Scenario:
    """Validated scenario: resolved raw document plus typed pieces."""

    raw: dict
    config: TrapConfig
    zbar: np.ndarray | None = None      # m; None: the mode basis picks the grid
    times: np.ndarray = field(default_factory=lambda: np.linspace(0.0, 10.0, 11) * MS)  # s
    p_max: int | None = None
    j_max: int | None = None
    length: float | None = None         # interferometry window, m
    contrast_lengths: list = field(default_factory=lambda: [50e-6])  # m
    fit_window: tuple = (0.0, 10e-3)    # s
    t_max: float = 0.3                  # s
    scan_atom_numbers: list = field(default_factory=list)
    compare_regimes: bool = False
    oracle_realizations: int = 10000
    oracle_seed: int = 20260809
    oracle_phase_noise: bool = False
    oracle_zbar: np.ndarray | None = None   # None: the mode basis picks the grid
    oracle_times: np.ndarray | None = None
    map_nu_perp: np.ndarray = field(
        default_factory=lambda: 2.0 * pi * np.linspace(200.0, 3000.0, 57))   # rad/s
    map_lengths: np.ndarray = field(default_factory=lambda: np.linspace(20.0, 200.0, 61) * UM)

    def override(self, section: str, key: str, value, where: str) -> None:
        """Set ``section.key`` to ``value``, parsed as in a scenario document.

        Faults name ``where`` (a command line flag, say) in place of the
        dotted key.  ``raw``, and so :meth:`sha256`, keep the document.
        """
        attr, parse = _SECTIONS[section][key]
        setattr(self, attr, parse(value, where))

    def sha256(self) -> str:
        return _sha256()(json.dumps(self.raw, sort_keys=True).encode()).hexdigest()


def _sha256():
    """The interpreter's built-in SHA-256, which hashlib falls back to: the same
    digest without importing hashlib, which maps OpenSSL (about 3.4 MB of RSS)."""
    try:
        from _sha2 import sha256          # CPython >= 3.12
    except ImportError:
        try:
            from _sha256 import sha256    # CPython 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return sha256


def _build_config(trap: dict) -> TrapConfig:
    _require_mapping(trap, "trap")
    _check_keys(trap, _TRAP, "trap")
    values = {}
    for key, (name, parse) in _TRAP.items():
        if key in trap:
            values[name] = parse(trap[key], f"trap.{key}")
        elif key in ("nu_perp_hz", "regime"):
            raise ConfigError(f"trap.{key}: required")
        elif key in ("mass_kg", "scattering_length_nm"):
            if "species" not in values:
                raise ConfigError(f"trap.{key}: required when no species preset is given")
            species = values["species"]
            values[name] = species.mass if key == "mass_kg" else species.scattering_length
    values.pop("species", None)
    return TrapConfig(**values)


def _build_scenario(doc: dict) -> Scenario:
    _require_mapping(doc, "scenario")
    _check_keys(doc, {"trap", *_SECTIONS}, "scenario")
    if "trap" not in doc:
        raise ConfigError("trap: required section")
    config = _build_config(doc["trap"])
    sc = Scenario(raw=copy.deepcopy(doc), config=config)
    for name, schema in _SECTIONS.items():
        section = doc.get(name)
        # a section holding only comments reads as null
        section = _require_mapping({} if section is None else section, name)
        _check_keys(section, schema, name)
        for key in schema:
            if key in section:
                sc.override(name, key, section[key], f"{name}.{key}")
    # a box has plane waves and one atom number and regime; a cloud has Legendre
    # modes and, with compare_regimes, a box twin
    if config.regime.trapped:
        unread = [] if sc.compare_regimes else ["truncation.p_max"]
    else:
        unread = ["truncation.j_max", "analysis.scan_atom_numbers", "analysis.compare_regimes"]
    for name, key in (dotted.split(".") for dotted in unread):
        if key in (doc.get(name) or {}):
            raise ConfigError(f"{name}.{key}: no command reads it for a "
                              f"{config.regime.value} scenario")
    return sc


def _refuse_repeated_keys(node, where: str, walked: set) -> None:
    """Refuse a mapping key given twice under the YAML ``node`` (PyYAML keeps the last),
    naming its dotted key and both lines; an alias's node is walked once."""
    if id(node) in walked or not isinstance(node.value, list):   # or a scalar
        return
    walked.add(id(node))
    first = {}
    for i, item in enumerate(node.value):
        key, item = item if isinstance(item, tuple) else (None, item)   # mapping pairs
        name = f"{where}.{key.value}".lstrip(".") if key else f"{where}[{i}]"
        if key and isinstance(key.value, str) and first.setdefault(key.value, key) is not key:
            raise ConfigError(f"{name}: repeated key at line {key.start_mark.line + 1} "
                              f"(first given at line {first[key.value].start_mark.line + 1})")
        _refuse_repeated_keys(item, name, walked)


def load_scenario(path: str) -> Scenario:
    """Parse and validate a YAML scenario file."""
    import re

    import yaml   # only scenario files need PyYAML; presets never load it

    class Loader(yaml.SafeLoader):
        """YAML 1.1 safe loading plus the floats of YAML 1.2 (7e3, 1.5e3, -.5);
        the added resolver runs after 1.1's, so what 1.1 resolves reads as before."""

        def construct_document(self, node):
            _refuse_repeated_keys(node, "", set())
            return super().construct_document(node)

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^(?=.*[.eE])[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
        list("-+.0123456789"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=Loader)
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(
            f"cannot read scenario file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"scenario file {path} is not UTF-8 text: {exc.reason} "
            f"at byte {exc.start}") from None
    except ValueError as exc:   # an integer past int()'s digit limit, a date past the calendar
        raise ConfigError(f"scenario file {path}: {str(exc).split(';')[0]}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"scenario file is not valid YAML: {exc}") from None
    except RecursionError:   # PyYAML composes nested collections recursively
        raise ConfigError(f"scenario file {path} nests collections too deeply") from None
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
