"""Plane-wave phonon modes and phase statistics of the homogeneous gas.

The relative phase and density of the split pair are expanded in periodic
plane waves k = 2*pi*p/L (p = +-1..+-p_max, k = 0 excluded).  Splitting
loads each density quadrature with shot noise <|n_k|^2> = xi_n^2*n/2 while
the phase quadrature starts empty; each mode then oscillates harmonically
at omega_k = c|k|, converting density noise into phase noise.  The
two-point phase variance is the mode sum

    <dphi(zbar, t)^2> = coef * sum_p sin^2(omega_p t) (1 - cos(k_p zbar)) / k_p^2

with coef = 2*pi^2*n*xi_n^2/(L*K^2); +k and -k are folded into one term.
All mode frequencies are commensurate (omega_p = p * 2*pi*c/L), so the
variance is exactly periodic with period L/(2c) and vanishes identically
at multiples of it.

Initial phase fluctuations are dropped throughout (the same approximation
the analytic treatment makes for t > h/mu); the Monte-Carlo oracle can
re-enable them to quantify the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import modes as basis
from .errors import ConfigError
from .modes import ModeBasis
from .params import PhysicalParams, _check_temperature, _is_finite, _mode_count, hbar, k_B, pi

__all__ = [
    "PlaneWaveModeSet",
    "build_modes",
    "phase_covariance",
    "prethermal_variance",
    "stationary_variance",
    "thermal_variance",
    "initial_phase_variance",
    "variance_rate",
    "covariance_rate",
    "recurrence_time",
]


@dataclass(frozen=True)
class PlaneWaveModeSet(ModeBasis):
    """Discrete plane-wave excitation basis of a box of size L.

    Arrays hold the positive-k half of the spectrum; the mirror modes are
    folded into the coefficient of every mode sum.  Positions are
    separations zbar = z - z'.
    """

    params: PhysicalParams
    L: float                # box size, m
    p_max: int
    k: np.ndarray           # (p_max,), 1/m
    omega: np.ndarray       # (p_max,), rad/s, c*k
    S_k: np.ndarray         # (p_max,), structure factor hbar*k/(2*m*c)
    coefficient: float      # 2*pi^2*n*xi_n^2 / (L*K^2)

    truncation_name = "p_max"
    time_norm = 1.0

    @property
    def xi_h(self) -> float:
        return self.params.xi_h

    @property
    def synthesis_scale(self) -> float:
        """(2/sqrt(L)) / sqrt(2): Re and Im parts each carry half the variance."""
        return 2.0 / np.sqrt(self.L) / np.sqrt(2.0)

    def pair_terms(self, z, zprime) -> np.ndarray:
        """(1 - cos(k zbar))/k^2 at zbar = |z - z'|, shape (modes, *points)."""
        zbar = np.abs(z - zprime)
        return np.moveaxis((1.0 - np.cos(self.k * zbar[..., None])) / self.k**2, -1, 0)

    def pair_functions(self, x):
        """Rows (cos kx, sin kx)/(sqrt(2) k) at x >= 0, each row's mode, even and odd rows:
        1 - cos k(a - b) = [(cos ka - cos kb)^2 + (sin ka - sin kb)^2]/2 per mode."""
        kx = self.k[:, None] * x
        g = np.vstack([np.cos(kx), np.sin(kx)] / (np.sqrt(2.0) * self.k[:, None]))
        return g, np.tile(np.arange(self.p_max), 2), slice(self.p_max), slice(self.p_max, None)

    def functions(self, points) -> np.ndarray:
        """(cos kz, -sin kz), shape (modes, 2, points): the factors of Re and Im
        phi_p in phi(z) = (2/sqrt(L)) sum_p [cos(kz) Re phi_p - sin(kz) Im phi_p]."""
        kz = self.k[:, None] * points[None, :]
        return np.stack([np.cos(kz), -np.sin(kz)], axis=1)

    def check_points(self, points) -> None:
        if not np.all(np.abs(points) <= self.L):   # NaN included
            raise ConfigError(f"separation {np.max(np.abs(points)) / 1e-6:.6g} um exceeds "
                              f"the periodic box ({self.L / 1e-6:.6g} um)")

    def doubled(self) -> "PlaneWaveModeSet":
        return build_modes(self.params, self.L, 2 * self.p_max)

    def phi_amplitude(self) -> np.ndarray:
        """|phase amplitude| per unit initial density amplitude, pi/(k*K)."""
        return pi / (self.k * self.params.K)

    def split_density_variance(self) -> np.ndarray:
        """<|n_k|^2> right after splitting (local shot noise)."""
        return np.full_like(self.k, self.params.squeezing * self.params.n_peak / 2.0)

    def split_phase_variance(self) -> np.ndarray:
        """<|phi_k|^2> right after splitting (minimum-uncertainty partner)."""
        return np.full_like(self.k, 1.0 / (2.0 * self.params.squeezing * self.params.n_peak))

    def thermal_density_variance(self, temperature: float) -> np.ndarray:
        _check_temperature(temperature)
        return np.full_like(self.k, k_B * temperature / (2.0 * self.params.g))

    def thermal_phase_variance(self, temperature: float) -> np.ndarray:
        lam = self.params.lambda_T(temperature)
        return 2.0 / (lam * self.k**2)


def default_p_max(params: PhysicalParams, L: float) -> int:
    """Phononic truncation: modes up to k ~ 1/xi_h."""
    return int(math.ceil(L / (2.0 * pi * params.xi_h)))


def build_modes(params: PhysicalParams, L: float, p_max: int | None = None) -> PlaneWaveModeSet:
    """Build the plane-wave basis for a box of size L.

    ``p_max`` defaults to ceil(L/(2*pi*xi_h)), i.e. the phononic cutoff at
    the healing length.
    """
    if not (_is_finite(L) and L > 0):
        raise ConfigError(f"box size L must be finite and strictly positive, got {L!r}")
    p_max = _mode_count(default_p_max(params, L) if p_max is None else p_max, "p_max")
    p = np.arange(1, p_max + 1, dtype=float)
    k = 2.0 * pi * p / L
    omega = params.c * k
    S_k = hbar * k / (2.0 * params.mass * params.c)
    coefficient = 2.0 * pi**2 * params.n_peak * params.squeezing / (L * params.K**2)
    return PlaneWaveModeSet(
        params=params, L=L, p_max=p_max, k=k, omega=omega,
        S_k=S_k, coefficient=coefficient,
    )


def phase_covariance(zbar, t, modes: PlaneWaveModeSet):
    """Two-point phase covariance <phi(z) phi(z')> at separation zbar.

    Complements :func:`splitgas.modes.pointwise_variance`:  variance(zbar) =
    2*[covariance(0) - covariance(zbar)].  Its time derivative is the
    light-cone observable: correlations build at rate 2c/l0 * xi_n^2 inside
    the cone zbar < 2ct and stay put outside (up to O(ct/L) finite-size
    corrections).
    """
    zbar = np.abs(np.asarray(zbar, dtype=float))
    t = np.asarray(t, dtype=float)
    s2 = np.sin(modes.omega * t[..., None]) ** 2
    w = np.cos(modes.k * zbar[..., None]) / modes.k**2
    out = 0.5 * modes.coefficient * np.sum(s2 * w, axis=-1)
    return out if out.ndim else float(out)


def prethermal_variance(zbar, params: PhysicalParams):
    """Variance in the dephased state: 2*|zbar| / (l0/xi_n^2).

    The continuum long-time limit of the mode sum; the corresponding
    correlation function is exp(-|zbar| * xi_n^2 / l0).
    """
    zbar = np.abs(np.asarray(zbar, dtype=float))
    out = 2.0 * zbar / params.l0_effective
    return out if out.ndim else float(out)


def stationary_variance(zbar, modes: PlaneWaveModeSet):
    """Exact discrete time average of the variance (sin^2 -> 1/2).

    In a finite box this is 2*zbar*(L - zbar)/(l0_eff*L) as the truncation
    is lifted, i.e. the infinite-system ramp 2*zbar/l0_eff times a
    finite-size factor (1 - zbar/L).
    """
    zbar = np.abs(np.asarray(zbar, dtype=float))
    w = (1.0 - np.cos(modes.k * zbar[..., None])) / modes.k**2
    out = 0.5 * modes.coefficient * np.sum(w, axis=-1)
    return out if out.ndim else float(out)


def thermal_variance(zbar, temperature: float, modes: PlaneWaveModeSet):
    """Two-point phase variance of the thermal reference state.

    Thermal occupations equipartition the two quadratures, so the state is
    stationary and the variance time independent: sum of 2*(1 - cos k zbar)
    * <|phi_k|^2>_th * 2/L over positive modes, with <|phi_k|^2>_th =
    2/(lambda_T k^2).  Grows linearly with T and monotonically with |zbar|
    on [0, L/2].
    """
    return _phase_noise_variance(zbar, modes.thermal_phase_variance(temperature), modes)


def initial_phase_variance(zbar, modes: PlaneWaveModeSet):
    """Variance of the relative phase at t = 0 from splitting shot noise.

    This is the contribution the analytic fields drop; the oracle adds it
    back when ``include_initial_phase_noise`` is set.
    """
    return _phase_noise_variance(zbar, modes.split_phase_variance(), modes)


def _phase_noise_variance(zbar, var_phi: np.ndarray, modes: PlaneWaveModeSet):
    """(4/L) * sum_p var_phi_p * (1 - cos k_p zbar): the variance of a
    stationary state with phase-quadrature variances var_phi."""
    zbar = np.abs(np.asarray(zbar, dtype=float))
    w = 1.0 - np.cos(modes.k * zbar[..., None])
    out = (4.0 / modes.L) * np.sum(var_phi * w, axis=-1)
    return out if out.ndim else float(out)


def default_rate_step(modes: ModeBasis) -> float:
    """Finite-difference step: one twentieth of the fastest half period."""
    return (pi / modes.omega_max) / 20.0


def variance_rate(zbar, t, modes: PlaneWaveModeSet, dt: float | None = None):
    """Central finite difference d<dphi^2>/dt.

    The exact rate is a step: zero inside the light cone (zbar < 2ct,
    where the variance has saturated at its prethermal value) and
    4c/l0 * xi_n^2 outside (two not-yet-connected points diffusing
    independently).
    """
    return _central_rate(lambda tt: basis.pointwise_variance(zbar, 0.0, tt, modes), t, modes, dt)


def covariance_rate(zbar, t, modes: PlaneWaveModeSet, dt: float | None = None):
    """Central finite difference d<phi(z) phi(z')>/dt: the light-cone step.

    Equals 2c/l0 * xi_n^2 inside the cone (zbar < 2ct) and vanishes
    outside, up to truncation ripple and a finite-size droop of relative
    size 4ct/L.
    """
    return _central_rate(lambda tt: phase_covariance(zbar, tt, modes), t, modes, dt)


def _central_rate(f, t, modes: PlaneWaveModeSet, dt: float | None):
    """(f(t + dt) - f(t - dt)) / (2 dt), dt defaulting to :func:`default_rate_step`."""
    if dt is None:
        dt = default_rate_step(modes)
    elif not (_is_finite(dt) and dt > 0):
        raise ConfigError(f"dt must be finite and strictly positive, got {dt!r}")
    t = np.asarray(t, dtype=float)
    if not np.all((t >= dt) & (t < np.inf)):
        raise ConfigError("t must be finite and exceed the finite-difference step")
    return (f(t + dt) - f(t - dt)) / (2.0 * dt)


def recurrence_time(L: float, c: float) -> float:
    """Full rephasing period L/(2c) of the commensurate spectrum."""
    if not (_is_finite(L) and L > 0 and _is_finite(c) and c > 0):
        raise ConfigError(f"L and c must be finite and strictly positive, got {L!r}, {c!r}")
    return L / (2.0 * c)
