"""Legendre phonon modes and phase statistics of the trapped gas.

On an inverted-parabola density background n0(z) = n_peak*(1 - z^2/R^2) the
phonon wave equation separates in x = z/R with Legendre solutions

    f_j(x) = sqrt(j + 1/2) * P_j(x),   omega_j = omega * sqrt(j*(j+1)/2),

orthonormal on [-1, 1], so the modes f_j(z/R)/sqrt(R) have unit norm in z.
On them the split state is the box's, and the weight of mode j in every mode
sum (:mod:`splitgas.modes`) falls as 1/omega_j^2.  The mode frequencies are
mutually incommensurate (ratios like sqrt(3)), so unlike the homogeneous box
the variance never returns to zero exactly.

The quasi-1D regime integrates out the radial cloud profile through the
equation of state mu_eos(n) = hbar*omega_perp*(sqrt(1 + 4*n*a) - 1); the
resulting longitudinal profile is flatter and slightly narrower than
Thomas-Fermi.  Its dynamics reuse the parabolic machinery with the
effective peak density and radius, with the frequency scale set by the
quasi-1D sound speed c^2 = n * dmu_eos/dn / m at the centre.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError
from .modes import DensityProfile, ModeBasis
from .params import PhysicalParams, Regime, TrapConfig, _check_positive, _mode_count, hbar

__all__ = [
    "mode_frequency",
    "legendre_f_table",
    "DensityProfile",
    "quasi1d_profile",
    "LegendreModeSet",
    "build_trapped_modes",
]


def mode_frequency(j: int, omega: float):
    """Breathing-ladder eigenfrequency omega * sqrt(j*(j+1)/2), j = 1, 2, ..."""
    j_arr = np.asarray(j)
    for value in j_arr.ravel().tolist():
        _mode_count(value, "mode index j")
    _check_positive(omega, "omega")
    out = omega * np.sqrt(j_arr * (j_arr + 1.0) / 2.0)
    return out if out.ndim else float(out)


def legendre_f_table(j_max: int, x) -> np.ndarray:
    """Normalised Legendre modes f_j(x), rows j = 1..j_max.

    Upward three-term recurrence (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1},
    stable on [-1, 1] for any order used here.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.abs(x) <= 1.0 + 1e-12):   # NaN included
        raise ConfigError("mode functions are defined on |x| <= 1")
    x = np.clip(x, -1.0, 1.0)
    j_max = _mode_count(j_max, "j_max")
    P = np.empty((j_max + 1, x.size))
    P[0] = 1.0
    P[1] = x
    for n in range(1, j_max):
        P[n + 1] = ((2 * n + 1) * x * P[n] - n * P[n - 1]) / (n + 1)
    f = P[1:]
    f *= np.sqrt(np.arange(1, j_max + 1) + 0.5)[:, None]
    return f


def tf_profile(params: PhysicalParams) -> DensityProfile:
    """Inverted-parabola profile n(z) = n_peak*(1 - z^2/R^2)."""
    if not params.config.regime.trapped:
        raise ConfigError("a Thomas-Fermi profile needs a trapped regime")
    return DensityProfile(n_peak=params.n_peak, radius=params.R, mu=params.mu,
                          eos_slope_peak=params.g, mass=params.mass)


def _quasi1d_density(z, mu, config: TrapConfig):
    """Local-density profile for mu_eos(n) = hbar*om_perp*(sqrt(1+4na)-1)."""
    hw = hbar * config.omega_perp
    v = mu - 0.5 * config.atomic_mass * config.omega_long**2 * np.asarray(z, dtype=float) ** 2
    w = np.clip(v, 0.0, None) / hw
    return ((1.0 + w) ** 2 - 1.0) / (4.0 * config.scattering_length)


def quasi1d_profile(params: PhysicalParams) -> DensityProfile:
    """Longitudinal profile with the radial extension integrated out.

    Solves mu - V(z) = mu_eos(n(z)) with the global mu fixed by the atom
    number via bisection.  With w = (mu - V(z))/(hbar*omega_perp) the
    density is (2w + w^2)/(4a) and w is a parabola of peak w0 = mu/(hbar*
    omega_perp) and half-width Z = sqrt(2*mu/(m*omega^2)), so the atom
    count integrates in closed form to Z/(4a) * (8/3*w0 + 16/15*w0^2).
    Compared to Thomas-Fermi at the same atom number the peak density comes
    out ~10% higher and the radius ~4-5% smaller for the reference trap.
    """
    config = params.config
    if config.regime is not Regime.QUASI_1D:
        raise ConfigError("quasi-1D profile requires regime = quasi_1d")
    if config.atom_number_total is not None:
        target = config.atom_number_total / 2.0
    else:   # the Thomas-Fermi count of the given peak density
        target = (4.0 / 3.0) * params.n_peak * params.R

    m, om = config.atomic_mass, config.omega_long
    hw, a = hbar * config.omega_perp, config.scattering_length

    def atoms(mu: float) -> float:
        Z = math.sqrt(2.0 * mu / (m * om**2))
        w0 = mu / hw
        return Z / (4.0 * a) * (8.0 / 3.0 * w0 + 16.0 / 15.0 * w0**2)

    lo = 0.0
    hi = params.mu
    for _ in range(200):
        if atoms(hi) >= target:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("could not bracket the chemical potential")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if atoms(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    mu = 0.5 * (lo + hi)

    R_eff = math.sqrt(2.0 * mu / (m * om**2))
    n_peak_eff = float(_quasi1d_density(0.0, mu, config))
    # radially integrated EOS slope at the peak density
    slope = config.scattering_length * 2.0 * hbar * config.omega_perp \
        / math.sqrt(1.0 + 4.0 * n_peak_eff * config.scattering_length)
    return DensityProfile(n_peak=n_peak_eff, radius=R_eff, mu=mu, eos_slope_peak=slope, mass=m)


@dataclass(frozen=True)
class LegendreModeSet(ModeBasis):
    """Discrete Legendre excitation basis on a parabolic background."""

    params: PhysicalParams
    profile: DensityProfile
    j_max: int
    omega: np.ndarray       # (j_max,), rad/s, omega_1 * sqrt(j(j+1)/2)

    truncation_name = "j_max"

    def pair_functions(self, x):
        """Rows f_j(x/R)/sqrt(R), of unit norm in x, in j order, each row's mode, even
        rows j = 2, 4, ... and odd rows j = 1, 3, ...: the pair term is the squared row
        difference."""
        f = legendre_f_table(self.j_max, x / self.radius)
        f /= math.sqrt(self.radius)
        return f, np.arange(self.j_max), slice(1, None, 2), slice(0, None, 2)

    def check_points(self, points) -> None:
        if not np.all(np.abs(points) <= self.radius):   # NaN included
            raise ConfigError(f"point {np.max(np.abs(points)) / 1e-6:.6g} um lies outside "
                              f"the cloud (R = {self.radius / 1e-6:.6g} um)")

    def doubled(self) -> "LegendreModeSet":
        return build_trapped_modes(self.params, 2 * self.j_max)


def default_j_max(mu: float, omega_1: float) -> int:
    """Largest j with hbar*omega_j <= mu (phononic validity)."""
    try:   # an underflowed hbar * omega_1, or a quotient whose square overflows
        r = mu / (hbar * omega_1)
        j = int(math.floor((-1.0 + math.sqrt(1.0 + 8.0 * r * r)) / 2.0))
    except (ZeroDivisionError, OverflowError):
        raise ConfigError("the trap's numbers put the mode cutoff's quotient "
                          "mu / (hbar * omega_1) beyond the range of doubles") from None
    return max(j, 1)


def build_trapped_modes(params: PhysicalParams, j_max: int | None = None) -> LegendreModeSet:
    """Legendre mode basis on the density profile of ``params``' regime.

    A Thomas-Fermi cloud is its own parabola, and its frequency ladder is
    anchored to the trap frequency exactly (omega_1 = omega).  A quasi-1D
    cloud is replaced by its effective parabola, whose scale follows from
    the wave equation on it, omega_1 = sqrt(2) * c_peak / R_eff with
    the EOS sound speed.
    """
    if params.config.regime is Regime.QUASI_1D:
        profile = quasi1d_profile(params)
        omega_1 = math.sqrt(2.0) * profile.sound_speed_peak / profile.radius
    else:
        profile = tf_profile(params)
        omega_1 = params.config.omega_long
    mu_cap = profile.n_peak * profile.eos_slope_peak  # = m * c_peak^2
    j_max = _mode_count(default_j_max(mu_cap, omega_1) if j_max is None else j_max,
                        "j_max")
    omega = mode_frequency(np.arange(1, j_max + 1), omega_1)
    return LegendreModeSet(params=params, profile=profile, j_max=j_max, omega=omega)
