"""Physical parameters of a coherently split 1D Bose gas.

Everything downstream (mode models, observables, Monte-Carlo sampling) is
driven by the scalar quantities derived here: the 1D coupling g = 2*hbar*
omega_perp*a, the speed of sound c = sqrt(g*n/m), the Luttinger parameter
K = (hbar*pi/2)*sqrt(n/(m*g)), the healing length xi_h = hbar/(m*c), the
prethermal correlation length l0 = 2*hbar^2/(m*g) and the effective
temperature k_B*T_eff = xi_n^2*n*g/2 imprinted by the splitting shot noise.

All quantities are SI; unit conversion happens at the CLI boundary only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ConfigError

__all__ = [
    "pi",
    "hbar",
    "k_B",
    "Regime",
    "SpeciesPreset",
    "RB87",
    "TrapConfig",
    "PhysicalParams",
    "derive_params",
    "peak_density_from_atom_number",
    "dephasing_times",
    "multimode_condition",
    "squeezing_limit",
]


#: Physical constants.  h = 6.62607015e-34 J s and k_B = 1.380649e-23 J/K
#: are exact in the SI since 2019.
pi = math.pi
hbar = 6.62607015e-34 / (2 * pi)
k_B = 1.380649e-23


class Regime(str, enum.Enum):
    """Longitudinal confinement regime of the gas."""

    HOMOGENEOUS = "homogeneous"
    THOMAS_FERMI = "thomas_fermi"
    QUASI_1D = "quasi_1d"

    @property
    def trapped(self) -> bool:
        return self is not Regime.HOMOGENEOUS


@dataclass(frozen=True)
class SpeciesPreset:
    """Atomic species constants (SI)."""

    name: str
    mass: float               # kg
    scattering_length: float  # m


#: Rubidium-87 with the scattering length used throughout the reference
#: scenarios (a = 5.2 nm).
RB87 = SpeciesPreset(name="Rb87", mass=1.44316e-25, scattering_length=5.2e-9)


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):   # an integer beyond the float range, a non-number
        return False


def _check_positive(value, name: str) -> None:
    """The rule for a physical scalar: a number, not a bool, finite and strictly
    positive, else a ConfigError that names the argument and its value."""
    if isinstance(value, bool) or not (_is_finite(value) and value > 0):
        raise ConfigError(f"{name} must be finite and strictly positive, got {value!r}")


# The most modes a basis may have.  A basis's arrays grow as modes x points, so
# 10,000 modes on a 600-point grid take 48 MB per array; the presets and tests
# ask for at most 1,396 (a 698-mode box, doubled by the truncation check).
_MAX_MODES = 10_000


def _mode_count(value, name: str) -> int:
    """A mode truncation: a whole number from 1 to ``_MAX_MODES``, as an int."""
    if isinstance(value, bool) or not (_is_finite(value) and value >= 1 and int(value) == value):
        raise ConfigError(f"{name} must be an integer of at least 1, got {value!r}")
    if value > _MAX_MODES:
        raise ConfigError(f"{name} = {value:.6g} exceeds the ceiling of {_MAX_MODES} modes")
    return int(value)


@dataclass(frozen=True)
class TrapConfig:
    """User-facing description of one physical scenario.

    Exactly one of ``atom_number_total`` (atoms before splitting; each gas
    ends up with N/2 on average) or ``peak_density_per_gas`` must be given.
    ``omega_long`` must be zero if and only if the regime is homogeneous, and
    ``system_length`` if and only if it is trapped.
    """

    atomic_mass: float                       # kg
    scattering_length: float                 # m
    omega_perp: float                        # rad/s
    omega_long: float = 0.0                  # rad/s, 0 for homogeneous
    atom_number_total: float | None = None   # atoms before splitting
    peak_density_per_gas: float | None = None  # atoms/m in each gas
    system_length: float = 0.0               # m, homogeneous box size
    squeezing: float = 1.0                   # number squeezing xi_n^2
    regime: Regime = Regime.HOMOGENEOUS

    def __post_init__(self):
        object.__setattr__(self, "regime", Regime(self.regime))
        for name in ("omega_long", "system_length"):
            value = getattr(self, name)
            if isinstance(value, bool) or not _is_finite(value):
                raise ConfigError(f"TrapConfig.{name} must be finite, got {value!r}")
        given = [name for name in ("atom_number_total", "peak_density_per_gas")
                 if getattr(self, name) is not None]
        if len(given) != 1:
            raise ConfigError(
                "exactly one of atom_number_total / peak_density_per_gas must be set"
            )
        for name in ("atomic_mass", "scattering_length", "omega_perp", "squeezing", *given):
            _check_positive(getattr(self, name), f"TrapConfig.{name}")
        if self.regime is Regime.HOMOGENEOUS:
            if self.omega_long != 0.0:
                raise ConfigError("homogeneous regime requires omega_long = 0")
            if self.system_length <= 0:
                raise ConfigError("homogeneous regime requires system_length > 0")
        elif self.omega_long <= 0:
            raise ConfigError("trapped regimes require omega_long > 0")
        elif self.system_length != 0.0:
            raise ConfigError("trapped regimes require system_length = 0: the trap sets "
                              "the cloud's length")


@dataclass(frozen=True)
class PhysicalParams:
    """Derived scalar quantities (SI) for one scenario.

    ``R`` is the Thomas-Fermi radius and is ``None`` for homogeneous
    systems.  ``l0`` is the density-independent prethermal correlation
    length 2*hbar^2/(m*g); squeezing rescales it to l0/xi_n^2 wherever the
    dephased state is concerned.
    """

    config: TrapConfig
    g: float         # 1D coupling, J m
    n_peak: float    # linear density per gas, atoms/m
    c: float         # speed of sound, m/s
    K: float         # Luttinger parameter
    mu: float        # chemical potential, J
    xi_h: float      # healing length, m
    l0: float        # prethermal correlation length, m
    T_eff: float     # effective temperature, K
    v_N: float       # density velocity c/K, m/s
    v_J: float       # phase velocity c*K, m/s
    R: float | None  # Thomas-Fermi radius, m (trapped only)

    @property
    def mass(self) -> float:
        return self.config.atomic_mass

    @property
    def squeezing(self) -> float:
        return self.config.squeezing

    @property
    def l0_effective(self) -> float:
        """Decay length of the dephased correlation function, l0/xi_n^2."""
        return self.l0 / self.config.squeezing


def coupling_1d(omega_perp: float, scattering_length: float) -> float:
    """1D interaction strength g = 2*hbar*omega_perp*a."""
    return 2.0 * hbar * omega_perp * scattering_length


def peak_density_from_atom_number(n_total: float, config: TrapConfig) -> float:
    """Peak linear density per gas in a harmonically trapped system.

    Inverts the Thomas-Fermi normalisation N/2 = (4/3)*n_peak*R with
    R = sqrt(2)*c(n_peak)/omega.  Eliminating R gives the closed form

        n_peak = [3*(N/2)*omega*sqrt(m/g) / (4*sqrt(2))]^(2/3)

    so no iterative solve is needed (n_peak grows as N^(2/3)).
    """
    if not config.regime.trapped:
        raise ConfigError("peak density inversion applies to trapped regimes only")
    _check_positive(n_total, "atom number")
    g = coupling_1d(config.omega_perp, config.scattering_length)
    m = config.atomic_mass
    base = 3.0 * (n_total / 2.0) * config.omega_long * math.sqrt(m / g) / (4.0 * math.sqrt(2.0))
    return base ** (2.0 / 3.0)


def derive_params(config: TrapConfig) -> PhysicalParams:
    """Populate every derived scalar for the given scenario.

    For trapped regimes the peak density and Thomas-Fermi radius are made
    mutually consistent with the atom number.  The quasi-1D regime is
    derived at the Thomas-Fermi level here; the corrected effective profile
    lives in :func:`splitgas.trapped.quasi1d_profile`.
    """
    try:   # in-range inputs whose products leave the doubles
        g = coupling_1d(config.omega_perp, config.scattering_length)
        m = config.atomic_mass

        if config.peak_density_per_gas is not None:
            n_peak = config.peak_density_per_gas
        elif config.regime.trapped:
            n_peak = peak_density_from_atom_number(config.atom_number_total, config)
        else:
            n_peak = (config.atom_number_total / 2.0) / config.system_length

        c = math.sqrt(g * n_peak / m)
        K = (hbar * pi / 2.0) * math.sqrt(n_peak / (m * g))
        R = math.sqrt(2.0) * c / config.omega_long if config.regime.trapped else None
        params = PhysicalParams(
            config=config,
            g=g,
            n_peak=n_peak,
            c=c,
            K=K,
            mu=g * n_peak,
            xi_h=hbar / (m * c),
            l0=2.0 * hbar**2 / (m * g),
            T_eff=config.squeezing * n_peak * g / (2.0 * k_B),
            v_N=c / K,
            v_J=c * K,
            R=R,
        )
    except (ZeroDivisionError, OverflowError):
        raise ConfigError("the trap's numbers put a derived scalar beyond the range "
                          "of doubles") from None
    for name in ("g", "n_peak", "c", "K", "mu", "xi_h", "l0", "T_eff", "v_N", "v_J", "R"):
        value = getattr(params, name)
        if value is not None:   # R of a box
            _check_positive(value, f"derived {name}")
    return params


def dephasing_times(params: PhysicalParams, length: float) -> tuple[float, float]:
    """Interferometric decoherence timescales (tau0, tau).

    tau0 = (hbar/g)*sqrt(L/n) is the global phase-diffusion time of the
    zero-momentum mode; tau = 8K^2/(pi^2*n*c) is the multimode dephasing
    time of all other modes.  Both scale as n^(-1/2) at fixed L, so their
    ratio is density independent.
    """
    _check_positive(length, "length")
    tau0 = (hbar / params.g) * math.sqrt(length / params.n_peak)
    tau = 8.0 * params.K**2 / (pi**2 * params.n_peak * params.c)
    return tau0, tau


def multimode_condition(params: PhysicalParams, length: float, xi_n2: float) -> bool:
    """True when dephasing is dominated by 1D multimode effects.

    The criterion is l0/xi_n^2 < L/2 with strict inequality; on the exact
    boundary the condition is False.
    """
    _check_positive(length, "length")
    _check_positive(xi_n2, "squeezing xi_n2")
    return params.l0 / xi_n2 < length / 2.0


def squeezing_limit(
    omega_perp: float, length: float, mass: float, scattering_length: float
) -> tuple[float, float]:
    """Largest number squeezing xi_n^2 for which 3D phase diffusion dominates.

    Returns ``(xi2_lim, xi2_lim_db)`` with

        xi_n^2|lim = 2*hbar / (m * omega_perp * a * L)

    which is independent of the linear density.
    """
    for name, value in (("omega_perp", omega_perp), ("length", length), ("mass", mass),
                        ("scattering_length", scattering_length)):
        _check_positive(value, name)
    product = mass * omega_perp * scattering_length * length
    _check_positive(product, "mass * omega_perp * scattering_length * length")
    lim = 2.0 * hbar / product
    _check_positive(lim, "xi2_lim")
    return lim, 10.0 * math.log10(lim)

