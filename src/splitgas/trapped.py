"""Legendre phonon modes and phase statistics of the trapped gas.

On an inverted-parabola density background n0(z) = n_peak*(1 - z^2/R^2) the
phonon wave equation separates in x = z/R with Legendre solutions

    f_j(x) = sqrt(j + 1/2) * P_j(x),   omega_j = omega * sqrt(j*(j+1)/2),

orthonormal on [-1, 1].  Splitting loads every mode with the same density
noise <n_j^2> = xi_n^2 * n_peak/(2R), which dephases into the two-point
variance

    <dphi(z, z', t)^2> = coef * sum_j sin^2(omega_j t)/omega_j^2
                                * [f_j(z/R) - f_j(z'/R)]^2,

coef = xi_n^2 * n_peak * pi^2 * v_N^2 / (2R).  The mode frequencies are
mutually incommensurate (ratios like sqrt(3)), so unlike the homogeneous
box the variance never returns to zero exactly.

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
from .modes import ModeBasis
from .params import (PhysicalParams, Regime, TrapConfig, _mode_count,
                     atom_number_from_peak_density, derive_params, hbar, k_B, pi)

__all__ = [
    "mode_frequency",
    "legendre_f",
    "legendre_f_table",
    "DensityProfile",
    "tf_profile",
    "quasi1d_profile",
    "LegendreModeSet",
    "build_trapped_modes",
]


def mode_frequency(j: int, omega: float):
    """Breathing-ladder eigenfrequency omega * sqrt(j*(j+1)/2), j = 1, 2, ..."""
    j_arr = np.asarray(j)
    for value in j_arr.ravel().tolist():
        _mode_count(value, "mode index j")
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
    norm = np.sqrt(np.arange(1, j_max + 1) + 0.5)
    return norm[:, None] * P[1:]


def legendre_f(j: int, x):
    """Single normalised mode function sqrt(j + 1/2) * P_j(x)."""
    _mode_count(j, "mode index j")
    scalar = np.ndim(x) == 0
    out = legendre_f_table(j, x)[-1]
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class DensityProfile:
    """Longitudinal density profile of one gas after splitting."""

    kind: str                 # "thomas_fermi" or "quasi_1d"
    n_peak: float             # atoms/m at the centre
    radius: float             # m, density zero crossing
    mu: float                 # J, global chemical potential
    atoms_per_gas: float      # N/2
    eos_slope_peak: float     # dmu/dn at the centre (J m); g for Thomas-Fermi
    mass: float               # kg

    @property
    def sound_speed_peak(self) -> float:
        """Sound speed at the trap centre, c^2 = n * dmu/dn / m."""
        return math.sqrt(self.n_peak * self.eos_slope_peak / self.mass)


def tf_profile(params: PhysicalParams) -> DensityProfile:
    """Inverted-parabola profile n(z) = n_peak*(1 - z^2/R^2)."""
    if not params.config.regime.trapped:
        raise ConfigError("density profiles exist for trapped regimes only")
    return DensityProfile(
        kind="thomas_fermi", n_peak=params.n_peak, radius=params.R, mu=params.mu,
        atoms_per_gas=(4.0 / 3.0) * params.n_peak * params.R,
        eos_slope_peak=params.g, mass=params.mass,
    )


def _quasi1d_density(z, mu, config: TrapConfig):
    """Local-density profile for mu_eos(n) = hbar*om_perp*(sqrt(1+4na)-1)."""
    hw = hbar * config.omega_perp
    v = mu - 0.5 * config.atomic_mass * config.omega_long**2 * np.asarray(z, dtype=float) ** 2
    w = np.clip(v, 0.0, None) / hw
    return ((1.0 + w) ** 2 - 1.0) / (4.0 * config.scattering_length)


def quasi1d_profile(config: TrapConfig, params: PhysicalParams | None = None) -> DensityProfile:
    """Longitudinal profile with the radial extension integrated out.

    Solves mu - V(z) = mu_eos(n(z)) with the global mu fixed by the atom
    number via bisection.  With w = (mu - V(z))/(hbar*omega_perp) the
    density is (2w + w^2)/(4a) and w is a parabola of peak w0 = mu/(hbar*
    omega_perp) and half-width Z = sqrt(2*mu/(m*omega^2)), so the atom
    count integrates in closed form to Z/(4a) * (8/3*w0 + 16/15*w0^2).
    Compared to Thomas-Fermi at the same atom number the peak density comes
    out ~10% higher and the radius ~4-5% smaller for the reference trap.
    """
    if config.regime is not Regime.QUASI_1D:
        raise ConfigError("quasi-1D profile requires regime = quasi_1d")
    if params is None:
        params = derive_params(config)
    if config.atom_number_total is not None:
        target = config.atom_number_total / 2.0
    else:
        target = atom_number_from_peak_density(params.n_peak, config) / 2.0

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
    return DensityProfile(
        kind="quasi_1d", n_peak=n_peak_eff, radius=R_eff, mu=mu,
        atoms_per_gas=target, eos_slope_peak=slope, mass=m,
    )


@dataclass(frozen=True)
class LegendreModeSet(ModeBasis):
    """Discrete Legendre excitation basis on a parabolic background."""

    params: PhysicalParams
    profile: DensityProfile
    j_max: int
    omega_scale: float      # rad/s
    omega: np.ndarray       # (j_max,), rad/s, omega_scale * sqrt(j(j+1)/2)
    v_N: float              # density velocity at the centre, m/s
    coefficient: float      # xi_n^2 * n_peak * pi^2 * v_N^2 / (2R)

    truncation_name = "j_max"
    synthesis_scale = 1.0

    @property
    def radius(self) -> float:
        return self.profile.radius

    @property
    def time_norm(self) -> np.ndarray:
        return self.omega**2

    @property
    def xi_h(self) -> float:
        """Healing length at the cloud centre."""
        return hbar / (self.profile.mass * self.profile.sound_speed_peak)

    def functions(self, points) -> np.ndarray:
        """f_j(z/R), shape (modes, 1, *points)."""
        f = legendre_f_table(self.j_max, points.ravel() / self.radius)
        return f.reshape(self.j_max, 1, *points.shape)

    def pair_terms(self, z, zprime) -> np.ndarray:
        """(f_j(z/R) - f_j(z'/R))^2, shape (modes, *points)."""
        return (self.functions(z)[:, 0] - self.functions(zprime)[:, 0]) ** 2

    def phi_amplitude(self) -> np.ndarray:
        """|phase amplitude| per unit initial density amplitude, pi*v_N/omega_j."""
        return pi * self.v_N / self.omega

    def check_points(self, points) -> None:
        if not np.all(np.abs(points) <= self.radius):   # NaN included
            raise ConfigError(f"point {np.max(np.abs(points)) / 1e-6:.6g} um lies outside "
                              f"the cloud (R = {self.radius / 1e-6:.6g} um)")

    def doubled(self) -> "LegendreModeSet":
        return build_trapped_modes(self.profile, self.params, 2 * self.j_max)

    def split_density_variance(self) -> np.ndarray:
        """<n_j^2> right after splitting: uniform xi_n^2*n_peak/(2R)."""
        xi_n2 = self.params.squeezing
        return np.full(self.j_max, xi_n2 * self.profile.n_peak / (2.0 * self.radius))

    def split_phase_variance(self) -> np.ndarray:
        """Minimum-uncertainty partner of the density shot noise."""
        xi_n2 = self.params.squeezing
        return np.full(self.j_max, self.radius / (2.0 * xi_n2 * self.profile.n_peak))

    def thermal_density_variance(self, temperature: float) -> np.ndarray:
        val = k_B * temperature / (pi * hbar * self.v_N * self.radius)
        return np.full(self.j_max, val)

    def thermal_phase_variance(self, temperature: float) -> np.ndarray:
        return pi * self.v_N * k_B * temperature / (hbar * self.radius * self.omega**2)


def default_j_max(mu: float, omega_scale: float) -> int:
    """Largest j with hbar*omega_j <= mu (phononic validity)."""
    r = mu / (hbar * omega_scale)
    j = int(math.floor((-1.0 + math.sqrt(1.0 + 8.0 * r * r)) / 2.0))
    return max(j, 1)


def build_trapped_modes(
    profile: DensityProfile, params: PhysicalParams, j_max: int | None = None
) -> LegendreModeSet:
    """Legendre mode basis for a (possibly effective) parabolic profile.

    For a Thomas-Fermi profile the frequency ladder is anchored to the trap
    frequency exactly (omega_1 = omega).  For a quasi-1D effective parabola
    the scale follows from the wave equation on that parabola,
    omega_scale = sqrt(2) * c_peak / R_eff with the EOS sound speed.
    """
    m = params.mass
    c_peak = math.sqrt(profile.n_peak * profile.eos_slope_peak / m)
    if profile.kind == "thomas_fermi":
        omega_scale = params.config.omega_long
    else:
        omega_scale = math.sqrt(2.0) * c_peak / profile.radius
    v_N = 2.0 * profile.eos_slope_peak / (pi * hbar)
    mu_cap = profile.n_peak * profile.eos_slope_peak  # = m * c_peak^2
    j_max = _mode_count(default_j_max(mu_cap, omega_scale) if j_max is None else j_max,
                        "j_max")
    omega = mode_frequency(np.arange(1, j_max + 1), omega_scale)
    coefficient = params.squeezing * profile.n_peak * pi**2 * v_N**2 / (2.0 * profile.radius)
    return LegendreModeSet(
        params=params, profile=profile, j_max=j_max,
        omega_scale=omega_scale, omega=omega, v_N=v_N,
        coefficient=coefficient,
    )
