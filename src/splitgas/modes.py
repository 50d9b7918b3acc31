"""One harmonic mode basis for the boxed and the trapped gas.

Every two-point statistic of both geometries is the mode sum

    <dphi(z, z', t)^2> = sum_m w_m sin^2(omega_m t) d_m(z, z')

with pair terms d_m = sum_r (g_r(z) - g_r(z'))^2 over the mode's rows of its
basis's one table of mode functions, each of unit norm in z: two plane-wave
rows per mode, so d_p = (4/L)(1 - cos(k_p (z - z'))), for the box; one
Legendre row f_j(z/R)/sqrt(R) per mode for the trapped cloud (Stringari, PRA
58, 2385 (1998); Petrov, Shlyapnikov & Walraven, PRL 85, 3745 (2000)); the
covariance <phi(z) phi(0)> sums g_r(z) g_r(0) instead.  The weight w_m is
the split state's density shot noise dephased into the field,
:meth:`ModeBasis.weights`.  These sums, pointwise, as a field with its
truncation doubling check, as the covariance's exact light-cone rate (each
sin^2 term's derivative is omega_m sin(2 omega_m t)) and as the split
state's initial phase noise, are written once here against
:class:`ModeBasis`, under the only public names of these sums.  The field
is a :class:`VarianceField`, built only by :func:`variance_field`: it keeps
the basis that made it and its pair terms, and :meth:`VarianceField.rows`
computes the rows a reader asks for, each its own (1 x modes) @ (modes x nz)
product, so a row does not depend on the other rows read with it.
:func:`pcf` reads them all into the Gaussian exponential C = exp(-variance/2);
the front detector reads them a block of times at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .params import _check_positive, hbar, k_B, pi

__all__ = [
    "ModeBasis",
    "VarianceField",
    "covariance_rate",
    "initial_phase_variance",
    "pcf",
    "phase_covariance",
    "pointwise_variance",
    "variance_field",
]

# largest spacing of doubles at the fastest phase omega_max*t that a mode sum
# accepts, in rad: each sin^2 term, and the variance relative to its scale,
# then moves by at most about this much between neighbouring times
_MAX_PHASE_ERROR = 1e-6


@dataclass(frozen=True)
class DensityProfile:
    """Longitudinal density profile of one gas after splitting."""

    n_peak: float             # atoms/m at the centre (everywhere in a box)
    radius: float | None      # m, density zero crossing; None for the box
    mu: float                 # J, global chemical potential
    eos_slope_peak: float     # dmu/dn at the centre (J m); g for Thomas-Fermi and the box
    mass: float               # kg

    @property
    def sound_speed_peak(self) -> float:
        """Sound speed at the trap centre, c^2 = n * dmu/dn / m."""
        return math.sqrt(self.n_peak * self.eos_slope_peak / self.mass)


class ModeBasis:
    """Shared part of the plane-wave and Legendre mode sets.

    Each geometry supplies ``params``, its density ``profile``, ``omega``,
    ``truncation_name``, ``pair_functions``, ``check_points`` and ``doubled``.
    ``pair_functions`` is the one table of mode functions g_r, each of unit
    norm in z: every mode has the same number of rows, adjacent and in mode
    order, its pair term sums (g_r(z) - g_r(z'))^2 over them, and a unit
    amplitude on row r adds g_r to the field.  The state of each mode is local
    physics at the profile's peak, written once here, as are the mode weights
    of every sum.
    ``radius`` is None for the box, whose positions are separations.
    """

    @property
    def radius(self) -> float | None:
        return self.profile.radius

    @property
    def xi_h(self) -> float:
        """Healing length hbar/(m c) at the density peak."""
        return hbar / (self.profile.mass * self.profile.sound_speed_peak)

    @property
    def v_N(self) -> float:
        """Density velocity 2 dmu/dn/(pi hbar) at the density peak, m/s."""
        return 2.0 * self.profile.eos_slope_peak / (pi * hbar)

    @property
    def truncation(self) -> int:
        return getattr(self, self.truncation_name)

    @property
    def omega_max(self) -> float:
        return float(self.omega[-1])

    def phi_amplitude(self) -> np.ndarray:
        """|phase amplitude| per unit initial density amplitude, pi*v_N/omega_m."""
        return pi * self.v_N / self.omega

    def split_density_variance(self) -> np.ndarray:
        """Density quadrature variance right after splitting: shot noise xi_n^2*n_peak/2."""
        return np.full(self.truncation, self.params.squeezing * self.profile.n_peak / 2.0)

    def split_phase_variance(self) -> np.ndarray:
        """Its minimum-uncertainty partner, 1/(2*xi_n^2*n_peak)."""
        return np.full(self.truncation, 1.0 / (2.0 * self.params.squeezing * self.profile.n_peak))

    def thermal_density_variance(self, temperature: float) -> np.ndarray:
        """Equipartition of the density quadrature, k_B*T/(2 dmu/dn)."""
        _check_positive(temperature, "temperature")
        return np.full(self.truncation, k_B * temperature / (2.0 * self.profile.eos_slope_peak))

    def weights(self) -> np.ndarray:
        """Weight w_m = <n_m^2> phi_amplitude_m^2 of each mode in every mode sum: the
        split state's density shot noise dephased into the field through the mode's
        phase amplitude (Kitagawa et al., NJP 13, 073018 (2011))."""
        return self.split_density_variance() * self.phi_amplitude() ** 2

    def thermal_phase_variance(self, temperature: float) -> np.ndarray:
        """Equipartition: phi_amplitude_m^2 times the thermal density variance."""
        return self.phi_amplitude() ** 2 * self.thermal_density_variance(temperature)

    def pair_terms(self, z, zprime) -> np.ndarray:
        """sum_r (g_r(z) - g_r(z'))^2 over each mode's rows, shape (modes, *z.shape);
        z' broadcasts to z."""
        terms = self.pair_functions(z.ravel())[0].reshape(-1, *z.shape)
        terms -= self.pair_functions(zprime.ravel())[0].reshape(-1, *zprime.shape)
        return self._sum_rows(np.square(terms, out=terms))

    def _sum_rows(self, rows: np.ndarray) -> np.ndarray:
        """Each mode's rows added into its first, in place; shape (modes, ...)."""
        rows = rows.reshape(self.truncation, -1, *rows.shape[1:])
        for r in range(1, rows.shape[1]):
            rows[:, 0] += rows[:, r]
        return rows[:, 0]

    def check_phases(self, times: np.ndarray) -> None:
        """Refuse times at which doubles near omega_max t lie more than
        ``_MAX_PHASE_ERROR`` rad apart: sin^2(omega_m t) would then carry rounding, not
        the phase, and the neighbouring double would give another table."""
        t = float(np.max(np.abs(times), initial=0.0))
        gap = math.ulp(self.omega_max * t)
        if not gap <= _MAX_PHASE_ERROR:   # NaN and inf included
            raise ConfigError(f"evolution time {t / 1e-3:.6g} ms is beyond the mode sums' "
                              f"resolution at {self.truncation_name} = {self.truncation}: doubles "
                              f"near omega_max*t ({self.omega_max:.6g} rad/s * t) lie {gap:.3g} "
                              f"rad apart, more than {_MAX_PHASE_ERROR:g} rad")

    def time_factors(self, times: np.ndarray) -> np.ndarray:
        """w_m sin^2(omega_m t), shape (*times.shape, modes); times past :meth:`check_phases`."""
        self.check_phases(times)
        s = np.sin(self.omega * times[..., None])
        np.square(s, out=s)
        s *= self.weights()
        return s

    def rate_factors(self, times: np.ndarray) -> np.ndarray:
        """d/dt of :meth:`time_factors`, w_m omega_m sin(2 omega_m t), in its shape."""
        self.check_phases(times)
        return np.sin(2.0 * self.omega * times[..., None]) * (self.omega * self.weights())


@dataclass
class VarianceField:
    """Two-point relative-phase variance on a (time x position) grid, zprime fixed.

    It holds the basis and its pair terms, never the grid: :meth:`rows`
    computes the rows a reader asks for, each its own vector-matrix product,
    so a row read alone is bit-equal to the same row read with the others.
    """

    positions: np.ndarray   # m; z with fixed zprime (separations from it in a box)
    times: np.ndarray       # s
    modes: ModeBasis        # the basis that made it
    terms: np.ndarray       # (modes, len(positions)), the pair terms between z and zprime
    doubling_dev: float | None = None   # doubling-test deviation, None = not checked

    def rows(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """The variance at times[lo:hi], shape (len(times[lo:hi]), len(positions))."""
        return _variance_rows(self.modes, self.terms, self.times[lo:hi])


def _check_times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t < np.inf)):
        raise ConfigError("evolution times must be finite and non-negative")
    return t


def pointwise_variance(z, zprime, t, modes: ModeBasis):
    """Two-point phase variance between z and z' at time t.

    Broadcasts over all three arguments (for the box z - z' is the
    separation).  Zero at z = z' and at t = 0; every summand is non-negative.
    """
    return _mode_sum(modes, modes.time_factors(_check_times(t)), z, zprime)


def phase_covariance(z, t, modes: ModeBasis):
    """Two-point phase covariance <phi(z) phi(0)> at time t, z broadcast against t.

    sum_m time_factors_m(t) * sum_r g_r(z) g_r(0) over the pair rows; in the
    box (z the separation) the variance is 2*(covariance(0) - covariance(z)).
    """
    return _mode_sum(modes, modes.time_factors(_check_times(t)), z)


def _mode_sum(modes: ModeBasis, factors: np.ndarray, z, zprime=None):
    """sum_m factors_m * terms_m with the factors' leading axes first: the pair terms
    between z and z' (broadcast), or with zprime None the covariance rows
    sum_r g_r(z) g_r(0)."""
    z = np.asarray(z, dtype=float)
    if zprime is None:
        modes.check_points(np.append(z, 0.0))
        rows = modes.pair_functions(z.ravel())[0]
        rows *= modes.pair_functions(np.zeros(1))[0]
        terms = modes._sum_rows(rows).reshape(-1, *z.shape)
    else:
        z, zprime = np.broadcast_arrays(z, np.asarray(zprime, dtype=float))
        modes.check_points(np.concatenate([z.ravel(), zprime.ravel()]))
        terms = modes.pair_terms(z, zprime)
    out = np.sum(factors * np.moveaxis(terms, 0, -1), axis=-1)
    return out if out.ndim else float(out)


def variance_field(
    modes: ModeBasis,
    z,
    times,
    zprime: float = 0.0,
    check_convergence: bool = False,
) -> VarianceField:
    """Variance on a (times x z) grid with the second point fixed at zprime.

    For the box z - zprime is the separation.  With ``check_convergence``
    the grid is recomputed at twice the truncation, and the deviation
    max|fine - coarse| relative to the field maximum lands in
    ``field.doubling_dev``; no verdict is drawn from it.  It is taken
    over point separations above twice the healing length (at the cloud
    centre for trapped gases).  Below it the mode sum is genuinely
    cutoff-dominated (each extra mode contributes ~zbar^2), so pointwise
    ratios there measure the physical cutoff, not numerical convergence.
    At the default phononic truncation the deviation is at the percent
    level and falls off as the inverse truncation.  Times, points and phases
    are refused here; no row is computed until a reader asks for it.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    times = _check_times(np.atleast_1d(times))
    modes.check_points(np.append(z, zprime))
    modes.check_phases(times)
    field = VarianceField(z, times, modes, modes.pair_terms(z, np.array([zprime])))
    if check_convergence:
        try:   # the doubled basis has about twice omega_max
            fine = variance_field(modes.doubled(), z, times, zprime).rows()
        except ConfigError as exc:
            raise ConfigError(f"truncation doubling check: {exc}") from None
        mask = np.abs(z - zprime) >= 2.0 * modes.xi_h
        if not mask.any():
            mask = np.ones_like(z, dtype=bool)
        scale = max(float(np.abs(fine).max()), 1e-300)
        field.doubling_dev = float(np.max(np.abs(fine - field.rows())[:, mask]) / scale)
    return field


def _variance_rows(modes: ModeBasis, terms: np.ndarray, times: np.ndarray) -> np.ndarray:
    """time_factors(t) @ terms, shape (times, nz), one (1 x modes) @ (modes x nz)
    product per time: a row does not depend on the other times of the call, which a
    single matrix product does not promise (its rows round by their place in the
    BLAS kernel's tiles)."""
    return np.matmul(modes.time_factors(times)[:, None, :], terms)[:, 0]


def initial_phase_variance(z, modes: ModeBasis):
    """Variance of phi(z) - phi(0) at t = 0 from splitting shot noise.

    This is the contribution the analytic fields drop; the oracle adds it
    back when ``include_initial_phase_noise`` is set.
    """
    return _mode_sum(modes, modes.split_phase_variance(), z, 0.0)


def default_rate_step(modes: ModeBasis) -> float:
    """The front's time step: one twentieth of the fastest half period."""
    return (pi / modes.omega_max) / 20.0


def covariance_rate(z, t, modes: ModeBasis):
    """d<phi(z) phi(0)>/dt, exact, the light-cone step: in the box 2c/l0 * xi_n^2
    inside the cone zbar < 2ct and 0 outside; in a Thomas-Fermi cloud the local
    sound speed c0*sqrt(1 - z^2/R^2) bends the edge to R*sin(2*c0*t/R)."""
    return _mode_sum(modes, modes.rate_factors(_check_times(t)), z)


def pcf(variance: VarianceField) -> np.ndarray:
    """Correlation C = exp(-variance/2), element-wise on the field's rows."""
    values = variance.rows()
    if not np.all(values >= 0):   # NaN included
        raise ConfigError("variance must be non-negative")
    return np.exp(-values / 2.0)
