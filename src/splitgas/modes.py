"""One harmonic mode basis for the boxed and the trapped gas.

Every two-point statistic of both geometries is the mode sum

    <dphi(z, z', t)^2> = coef * sum_m sin^2(omega_m t)/time_norm_m * d_m(z, z')

with pair terms d_m >= 0: plane waves, d_p = (1 - cos(k_p (z - z')))/k_p^2
and time_norm = 1, for the box; Legendre modes f_j(z/R), d_j = (f_j(z/R) -
f_j(z'/R))^2 and time_norm = omega_j^2, for the trapped cloud (Stringari,
PRA 58, 2385 (1998); Petrov, Shlyapnikov & Walraven, PRL 85, 3745 (2000)).
The field, the truncation doubling check and the pair field are written
once here against :class:`ModeBasis`.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ConvergenceError
from .fields import PairVarianceField, VarianceField

__all__ = [
    "ModeBasis",
    "CONVERGENCE_RTOL",
    "pointwise_variance",
    "variance_field",
    "convergence_check",
    "pair_variance_field",
]

#: relative tolerance of the truncation doubling test
CONVERGENCE_RTOL = 5e-3

# pair-field terms are evaluated in z' column blocks of about this many floats
_PAIR_BLOCK_ELEMENTS = 2**21


class ModeBasis:
    """Shared part of the plane-wave and Legendre mode sets.

    Each geometry supplies ``params``, ``omega``, ``coefficient``,
    ``truncation_name``, ``regime``, ``xi_h``, ``time_norm``,
    ``synthesis_scale``, ``pair_terms``, ``functions``, ``phi_amplitude``,
    ``check_points``, ``doubled`` and ``field_meta``.
    """

    @property
    def truncation(self) -> int:
        return getattr(self, self.truncation_name)

    @property
    def omega_max(self) -> float:
        return float(self.omega[-1])

    @property
    def xi_n2(self) -> float:
        return self.params.squeezing

    def time_factors(self, times: np.ndarray) -> np.ndarray:
        """sin^2(omega_m t) / time_norm_m, shape (times, modes)."""
        return np.sin(self.omega[None, :] * times[:, None]) ** 2 / self.time_norm


def pointwise_variance(z, zprime, t, modes: ModeBasis):
    """Two-point phase variance between z and z' at time t.

    Broadcasts over all three arguments (for the box z - z' is the
    separation).  Zero at z = z' and at t = 0; every summand is non-negative.
    """
    z, zprime = np.broadcast_arrays(np.asarray(z, dtype=float), np.asarray(zprime, dtype=float))
    t = np.asarray(t, dtype=float)
    modes.check_points(np.concatenate([z.ravel(), zprime.ravel()]))
    terms = np.moveaxis(modes.pair_terms(z, zprime), 0, -1)         # (*points, M)
    amp = modes.time_factors(t.ravel()).reshape(*t.shape, -1)      # (*t, M)
    out = modes.coefficient * np.sum(amp * terms, axis=-1)
    return out if out.ndim else float(out)


def convergence_check(
    modes: ModeBasis, z, times, zprime: float = 0.0, rtol: float = CONVERGENCE_RTOL
) -> tuple[bool, float]:
    """Doubling test: recompute the grid at twice the truncation and compare.

    The deviation is max|fine - coarse| over the grid relative to the
    field maximum, restricted to point separations above twice the
    healing length (at the cloud centre for trapped gases).  Below it the
    mode sum is genuinely cutoff-dominated (each extra mode contributes
    ~zbar^2), so pointwise ratios there measure the physical cutoff, not
    numerical convergence.  At the default phononic truncation the
    deviation is at the percent level and falls off as the inverse
    truncation.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    coarse = variance_field(modes, z, times, zprime).values
    fine = variance_field(modes.doubled(), z, times, zprime).values
    mask = np.abs(z - zprime) >= 2.0 * modes.xi_h
    if not mask.any():
        mask = np.ones_like(z, dtype=bool)
    scale = max(float(np.abs(fine).max()), 1e-300)
    dev = float(np.max(np.abs(fine - coarse)[:, mask]) / scale)
    return dev < rtol, dev


def variance_field(
    modes: ModeBasis,
    z,
    times,
    zprime: float = 0.0,
    check_convergence: bool = False,
    strict: bool = False,
) -> VarianceField:
    """Variance on a (times x z) grid with the second point fixed at zprime.

    For the box z - zprime is the separation.  With
    ``check_convergence`` the truncation doubling test runs and its
    verdict lands in ``field.converged``; ``strict`` escalates a failed
    test to :class:`ConvergenceError`.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all((times >= 0.0) & (times < np.inf)):
        raise ConfigError("evolution times must be finite and non-negative")
    modes.check_points(np.append(z, zprime))
    terms = modes.pair_terms(z, np.array([zprime]))                   # (M, nz)
    values = modes.coefficient * (modes.time_factors(times) @ terms)  # (nt, nz)
    converged = None
    dev = None
    if check_convergence:
        converged, dev = convergence_check(modes, z, times, zprime)
        if strict and not converged:
            raise ConvergenceError(
                f"variance not converged at {modes.truncation_name}={modes.truncation}: "
                f"doubling deviation {dev:.2e} exceeds {CONVERGENCE_RTOL:.1e}"
            )
    return VarianceField(
        positions=z, times=times, values=values,
        regime=modes.regime, truncation=modes.truncation, zprime=zprime,
        converged=converged, meta={**modes.field_meta(), "doubling_dev": dev},
    )


def pair_variance_field(modes: ModeBasis, z, zprime, times) -> PairVarianceField:
    """Variance on a full (times x z x z') grid.

    Every entry is a sum of non-negative mode terms, so the field is
    non-negative and zero on z = z'.  The pair terms are evaluated in
    blocks of z' columns, the mode functions of z once per block.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    zprime = np.atleast_1d(np.asarray(zprime, dtype=float))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    modes.check_points(np.concatenate([z, zprime]))
    amp = modes.time_factors(times)                                   # (nt, M)
    values = np.empty((times.size, z.size, zprime.size))
    width = max(1, _PAIR_BLOCK_ELEMENTS // max(amp.shape[1] * z.size, 1))
    for start in range(0, zprime.size, width):
        terms = modes.pair_terms(z[:, None], zprime[None, start:start + width])
        values[:, :, start:start + width] = modes.coefficient * np.tensordot(amp, terms, 1)
    return PairVarianceField(
        z=z, zprime=zprime, times=times, values=values,
        regime=modes.regime, truncation=modes.truncation, meta=modes.field_meta(),
    )
