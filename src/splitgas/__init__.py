"""Relaxation dynamics of a coherently split 1D Bose gas.

Library layout:

- :mod:`splitgas.params` - scalar physics of a scenario (coupling, sound
  speed, Luttinger parameter, interferometry criteria).
- :mod:`splitgas.modes` - the mode basis and mode sums both geometries share.
- :mod:`splitgas.homogeneous` - plane-wave modes and phase statistics of
  the boxed gas.
- :mod:`splitgas.trapped` - density profiles and Legendre modes of the
  harmonically trapped gas.
- :mod:`splitgas.observables` - correlation functions, light-cone front,
  contrast and recurrences.
- :mod:`splitgas.oracle` - Monte-Carlo sampling of the same statistics.
- :mod:`splitgas.cli` - scenario-driven command line front end.

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

from .errors import ConfigError, ConvergenceError, DetectionError, SplitGasError
from .params import (
    RB87,
    PhysicalParams,
    Regime,
    SpeciesPreset,
    TrapConfig,
    dephasing_times,
    derive_params,
    multimode_condition,
    peak_density_from_atom_number,
    squeezing_limit,
    squeezing_map,
)
from .homogeneous import (
    PlaneWaveModeSet,
    build_modes,
    covariance_rate,
    phase_covariance,
    phase_variance,
    prethermal_variance,
    recurrence_time,
    thermal_variance,
    variance_field,
    variance_rate,
)
from .trapped import (
    DensityProfile,
    LegendreModeSet,
    build_trapped_modes,
    legendre_f,
    mode_frequency,
    quasi1d_profile,
    tf_profile,
    trapped_phase_variance,
    trapped_variance_field,
)
from .observables import (
    contrast_evaluator,
    contrast_trace,
    extract_front,
    fit_velocity,
    mean_squared_contrast,
    mode_amplitude_trace,
    pcf,
    prethermal_pcf,
    recurrence_scan,
)
from .oracle import EnsembleSpec, EnsembleStats, estimate_pcf, sample_realization

__version__ = "0.1.0"
