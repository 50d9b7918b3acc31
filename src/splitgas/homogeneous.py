"""Plane-wave phonon modes and phase statistics of the homogeneous gas.

The relative phase and density of the split pair are expanded in the
periodic plane waves sqrt(2/L) cos(kz) and sqrt(2/L) sin(kz) of unit norm,
k = 2*pi*p/L (p = 1..p_max, k = 0 excluded), on the uniform profile n_peak.
Each mode oscillates harmonically at omega_k = c*k, converting the density
shot noise of splitting into phase noise; the state and the mode sums are
those of every basis (:mod:`splitgas.modes`), and every mode weighs the same.
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
from .params import PhysicalParams, _check_positive, _mode_count, pi

__all__ = [
    "PlaneWaveModeSet",
    "build_modes",
    "prethermal_variance",
    "recurrence_time",
]


@dataclass(frozen=True)
class PlaneWaveModeSet(basis.ModeBasis):
    """Discrete plane-wave excitation basis of a box of size L.

    Arrays hold the positive-k half of the spectrum; the mirror modes are
    folded into the weight of every mode.  Positions are separations
    zbar = z - z'.
    """

    params: PhysicalParams
    profile: basis.DensityProfile   # uniform: n_peak everywhere, no radius
    L: float                # box size, m
    p_max: int
    k: np.ndarray           # (p_max,), 1/m
    omega: np.ndarray       # (p_max,), rad/s, c*k

    truncation_name = "p_max"

    @property
    def synthesis_scale(self) -> np.ndarray:
        """Field per unit amplitude on a pair row, 2k/sqrt(L)."""
        return 2.0 * self.k / np.sqrt(self.L)

    def pair_functions(self, x):
        """Rows (cos kx, -sin kx)/(sqrt(2) k) mode by mode, the factors of Re and Im phi_p,
        each row's mode, even and odd rows: 1 - cos k(a - b) = [(cos ka - cos kb)^2 +
        (sin ka - sin kb)^2]/2 per mode."""
        g = np.empty((self.p_max, 2, np.size(x)))
        kx = np.multiply(self.k[:, None], x, out=g[:, 0])
        np.negative(np.sin(kx, out=g[:, 1]), out=g[:, 1])
        np.cos(kx, out=kx)
        g /= np.sqrt(2.0) * self.k[:, None, None]
        return g.reshape(2 * self.p_max, -1), np.repeat(np.arange(self.p_max), 2), \
            slice(0, None, 2), slice(1, None, 2)

    def check_points(self, points) -> None:
        if not np.all(np.abs(points) <= self.L):   # NaN included
            raise ConfigError(f"separation {np.max(np.abs(points)) / 1e-6:.6g} um exceeds "
                              f"the periodic box ({self.L / 1e-6:.6g} um)")

    def doubled(self) -> "PlaneWaveModeSet":
        return build_modes(self.params, self.L, 2 * self.p_max)


def default_p_max(params: PhysicalParams, L: float) -> int:
    """Phononic truncation: modes up to k ~ 1/xi_h."""
    return int(math.ceil(L / (2.0 * pi * params.xi_h)))


def build_modes(params: PhysicalParams, L: float, p_max: int | None = None) -> PlaneWaveModeSet:
    """Build the plane-wave basis for a box of size L.

    ``p_max`` defaults to ceil(L/(2*pi*xi_h)), i.e. the phononic cutoff at
    the healing length.
    """
    _check_positive(L, "box size L")
    p_max = _mode_count(default_p_max(params, L) if p_max is None else p_max, "p_max")
    p = np.arange(1, p_max + 1, dtype=float)
    k = 2.0 * pi * p / L
    profile = basis.DensityProfile(n_peak=params.n_peak, radius=None, mu=params.mu,
                                   atoms_per_gas=params.n_peak * L, eos_slope_peak=params.g,
                                   mass=params.mass)
    return PlaneWaveModeSet(params=params, profile=profile, L=L, p_max=p_max, k=k,
                            omega=params.c * k)


def prethermal_variance(zbar, params: PhysicalParams):
    """Variance in the dephased state: 2*|zbar| / (l0/xi_n^2).

    The continuum long-time limit of the mode sum; the corresponding
    correlation function is exp(-|zbar| * xi_n^2 / l0).
    """
    zbar = np.abs(np.asarray(zbar, dtype=float))
    out = 2.0 * zbar / params.l0_effective
    return out if out.ndim else float(out)


def recurrence_time(L: float, c: float) -> float:
    """Full rephasing period L/(2c) of the commensurate spectrum."""
    _check_positive(L, "L")
    _check_positive(c, "c")
    return L / (2.0 * c)
