"""One harmonic mode basis for the boxed and the trapped gas.

Every two-point statistic of both geometries is the mode sum

    <dphi(z, z', t)^2> = coef * sum_m sin^2(omega_m t)/time_norm_m * d_m(z, z')

with pair terms d_m >= 0: plane waves, d_p = (1 - cos(k_p (z - z')))/k_p^2
and time_norm = 1, for the box; Legendre modes f_j(z/R), d_j = (f_j(z/R) -
f_j(z'/R))^2 and time_norm = omega_j^2, for the trapped cloud (Stringari,
PRA 58, 2385 (1998); Petrov, Shlyapnikov & Walraven, PRL 85, 3745 (2000)).
The pointwise sum and the field with its truncation doubling check are
written once here against :class:`ModeBasis`; they are the only public
names of these sums, for both geometries.  The field is a
:class:`VarianceField`, which keeps the basis that made it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .params import hbar, k_B

__all__ = [
    "ModeBasis",
    "VarianceField",
    "CONVERGENCE_RTOL",
    "pointwise_variance",
    "variance_field",
]

#: relative tolerance of the truncation doubling test
CONVERGENCE_RTOL = 5e-3


class ModeBasis:
    """Shared part of the plane-wave and Legendre mode sets.

    Each geometry supplies ``params``, ``omega``, ``coefficient``,
    ``truncation_name``, ``xi_h``, ``time_norm``, ``synthesis_scale``,
    ``pair_terms``, ``functions``, ``phi_amplitude``, ``check_points`` and
    ``doubled``.  Results keep the basis that made them and read these
    facts from it.
    """

    @property
    def truncation(self) -> int:
        return getattr(self, self.truncation_name)

    @property
    def omega_max(self) -> float:
        return float(self.omega[-1])

    def occupation(self) -> np.ndarray:
        """Mode occupation k_B*T_eff/(hbar*omega_m) imprinted by splitting."""
        return k_B * self.params.T_eff / (hbar * self.omega)

    def time_factors(self, times: np.ndarray) -> np.ndarray:
        """sin^2(omega_m t) / time_norm_m, shape (times, modes)."""
        return np.sin(self.omega[None, :] * times[:, None]) ** 2 / self.time_norm


@dataclass
class VarianceField:
    """Two-point relative-phase variance on a (time x position) grid."""

    positions: np.ndarray   # m; z with fixed zprime (separations from it in a box)
    times: np.ndarray       # s
    values: np.ndarray      # (len(times), len(positions)), dimensionless
    converged: bool | None = None       # doubling-test verdict, None = not checked
    doubling_dev: float | None = None   # doubling-test deviation, None = not checked
    modes: ModeBasis | None = None      # the basis that made it, None = synthetic

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.times.size, self.positions.size):
            raise ValueError("values must have shape (n_times, n_positions)")


def _check_times(t) -> None:
    if not np.all((t >= 0.0) & (t < np.inf)):
        raise ConfigError("evolution times must be finite and non-negative")


def pointwise_variance(z, zprime, t, modes: ModeBasis):
    """Two-point phase variance between z and z' at time t.

    Broadcasts over all three arguments (for the box z - z' is the
    separation).  Zero at z = z' and at t = 0; every summand is non-negative.
    """
    z, zprime = np.broadcast_arrays(np.asarray(z, dtype=float), np.asarray(zprime, dtype=float))
    t = np.asarray(t, dtype=float)
    _check_times(t)
    modes.check_points(np.concatenate([z.ravel(), zprime.ravel()]))
    terms = np.moveaxis(modes.pair_terms(z, zprime), 0, -1)         # (*points, M)
    amp = modes.time_factors(t.ravel()).reshape(*t.shape, -1)      # (*t, M)
    out = modes.coefficient * np.sum(amp * terms, axis=-1)
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
    the grid is recomputed at twice the truncation; the deviation
    max|fine - coarse| relative to the field maximum lands in
    ``field.doubling_dev`` and the verdict ``deviation <
    CONVERGENCE_RTOL`` in ``field.converged``.  The deviation is taken
    over point separations above twice the healing length (at the cloud
    centre for trapped gases).  Below it the mode sum is genuinely
    cutoff-dominated (each extra mode contributes ~zbar^2), so pointwise
    ratios there measure the physical cutoff, not numerical convergence.
    At the default phononic truncation the deviation is at the percent
    level and falls off as the inverse truncation.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    _check_times(times)
    modes.check_points(np.append(z, zprime))
    terms = modes.pair_terms(z, np.array([zprime]))                   # (M, nz)
    values = modes.coefficient * (modes.time_factors(times) @ terms)  # (nt, nz)
    converged = None
    dev = None
    if check_convergence:
        fine = variance_field(modes.doubled(), z, times, zprime).values
        mask = np.abs(z - zprime) >= 2.0 * modes.xi_h
        if not mask.any():
            mask = np.ones_like(z, dtype=bool)
        scale = max(float(np.abs(fine).max()), 1e-300)
        dev = float(np.max(np.abs(fine - values)[:, mask]) / scale)
        converged = dev < CONVERGENCE_RTOL
    return VarianceField(positions=z, times=times, values=values,
                         converged=converged, doubling_dev=dev, modes=modes)

