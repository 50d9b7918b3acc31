"""Relaxation dynamics of a coherently split 1D Bose gas.

Library layout:

- :mod:`splitgas.params` - scalar physics of a scenario (coupling, sound
  speed, Luttinger parameter, interferometry criteria).
- :mod:`splitgas.modes` - the mode basis, and the one home of the mode sums
  (pointwise variance, variance field) of both geometries.
- :mod:`splitgas.homogeneous` - plane-wave modes and phase statistics of
  the boxed gas.
- :mod:`splitgas.trapped` - density profiles and Legendre modes of the
  harmonically trapped gas.
- :mod:`splitgas.observables` - correlation functions, light-cone front,
  contrast and recurrences.
- :mod:`splitgas.oracle` - Monte-Carlo sampling of the same statistics.
- :mod:`splitgas.cli` - scenario-driven command line front end.

The exported names are imported on first use, not by ``import splitgas``.

Set SPLITGAS_THREADS to cap the linear-algebra thread pool; the cap is
applied here, before numpy is first imported, and never overrides an
explicit OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, MKL_NUM_THREADS or
NUMEXPR_NUM_THREADS.
"""


def _cap_threads() -> None:
    import os

    cap = os.environ.get("SPLITGAS_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


_cap_threads()

# Each public name and the module that defines it.  A name is imported on
# first access (PEP 562), so a command loads only the modules it runs.
_EXPORTS = {
    "errors": ("ConfigError", "ConvergenceError", "DetectionError", "SplitGasError"),
    "params": (
        "RB87", "PhysicalParams", "Regime", "SpeciesPreset", "TrapConfig",
        "dephasing_times", "derive_params", "multimode_condition",
        "peak_density_from_atom_number", "squeezing_limit", "squeezing_map",
    ),
    "modes": ("pointwise_variance", "variance_field"),
    "homogeneous": (
        "PlaneWaveModeSet", "build_modes", "covariance_rate", "phase_covariance",
        "prethermal_variance", "recurrence_time", "thermal_variance", "variance_rate",
    ),
    "trapped": (
        "DensityProfile", "LegendreModeSet", "build_trapped_modes", "legendre_f",
        "mode_frequency", "quasi1d_profile", "tf_profile",
    ),
    "observables": (
        "contrast_evaluator", "contrast_trace", "extract_front", "fit_velocity",
        "pcf", "prethermal_pcf", "recurrence_scan",
    ),
    "oracle": ("EnsembleSpec", "EnsembleStats", "estimate_pcf", "sample_realization"),
}
_SUBMODULES = ("errors", "homogeneous", "modes", "observables", "oracle", "params",
               "trapped")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name):
    from importlib import import_module

    if name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return __all__
