"""Monte-Carlo validation of the analytic phase statistics.

Each realization draws Gaussian mode amplitudes from the stated initial
conditions (splitting shot noise or a thermal state), evolves every mode
harmonically, synthesises the relative-phase field on the requested grid
and estimates the correlation function as <cos(phi(z) - phi(z'))>.  For
Gaussian phases this expectation equals exp(-variance/2), so the estimator
checks the analytic mode sums end to end; the ensemble mean of
sin(phi - phi') must vanish and is recorded as a sanity channel.

The field is linear in the draws, so each ensemble builds one basis of
shape (M, nt*nz): row m is the field that a unit value of draw m produces
on the flattened (t, z) grid, with the draw's standard deviation, its
harmonic factor sin or cos(omega t) and the mode function folded in.  For
the estimator the mode functions are differenced against z' inside the
basis, so the degenerate point z = z' is exactly zero.  Realizations are
synthesised in blocks of ``_BLOCK``: the block's draws X (B x M) times the
basis give all its phase differences in one matrix product; the block mean
and centred sum of squares of cos and sin are then merged into the running
totals in index order with the pairwise update of Chan, Golub & LeVeque
(1983).  ``sample_realization`` is one row of the same synthesis against
the undifferenced basis.

Randomness is counter-based and splittable: realization ``i`` of an
ensemble with master seed ``s`` uses a Philox stream keyed by (s, i), and
draws its M mode amplitudes from that stream in a fixed documented order
(density quadrature first, then the phase quadrature when present, both
ordered by mode index; for plane waves the real part of each mode before
its imaginary part).  The draws are therefore the same however
realizations are grouped, and reruns at a fixed seed, spec, grid and
linear-algebra thread count are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .modes import _check_times
from .params import _check_temperature

__all__ = ["EnsembleSpec", "EnsembleStats", "sample_realization", "estimate_pcf"]

_BLOCK = 256
_SEED_END = 2**64   # Philox keys are unsigned 64-bit words


@dataclass(frozen=True)
class EnsembleSpec:
    """What to sample: ensemble size, seed and initial conditions."""

    realizations: int
    master_seed: int
    kind: str = "split"                    # "split" or "thermal"
    temperature: float | None = None       # K, thermal kind only
    include_initial_phase_noise: bool = False

    def __post_init__(self):
        n, seed = self.realizations, self.master_seed
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
            raise ConfigError("need an integer of at least 2 realizations for a "
                              f"standard error, got {n!r}")
        if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
                or not 0 <= seed < _SEED_END):
            raise ConfigError(
                f"master seed must be an integer in [0, 2**64), got {seed!r}")
        if self.kind not in ("split", "thermal"):
            raise ConfigError(f"unknown initial-condition kind: {self.kind!r}")
        if self.kind == "thermal":
            _check_temperature(self.temperature, "thermal ensembles")


@dataclass
class EnsembleStats:
    """Monte-Carlo correlation estimate with per-point standard errors."""

    mean: np.ndarray         # (nt, nz), <cos dphi>
    stderr: np.ndarray       # (nt, nz)
    imag_mean: np.ndarray    # (nt, nz), <sin dphi>, should vanish
    imag_stderr: np.ndarray


def _rekey(gen: np.random.Generator, seed: int, index: int) -> np.random.Generator:
    """Restart ``gen`` at the head of the Philox stream keyed by (seed, index).

    Zero counter and empty buffer: the draws equal those of a fresh
    ``Generator(Philox(key=[seed, index]))``, without building a bit
    generator per realization (each build reads OS entropy for a seed
    sequence that the key leaves unused).  The state is given as plain
    Python ints, which the Philox setter reads directly, so no array is
    allocated per realization.  The dict is built anew on each call, so no
    two generators ever share a mutable state.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, index)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def _generator() -> np.random.Generator:
    """A Philox generator to be positioned by :func:`_rekey`."""
    return np.random.Generator(np.random.Philox(0))


def _quadrature_sigmas(spec: EnsembleSpec, modes) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-mode standard deviations of the initial (density, phase) amplitudes."""
    if spec.kind == "split":
        var_n = modes.split_density_variance()
        var_phi = modes.split_phase_variance() if spec.include_initial_phase_noise else None
    else:
        var_n = modes.thermal_density_variance(spec.temperature)
        var_phi = modes.thermal_phase_variance(spec.temperature)
    return np.sqrt(var_n), None if var_phi is None else np.sqrt(var_phi)


def _basis(spec: EnsembleSpec, modes, z, times, zprime: float | None = None) -> np.ndarray:
    """Field per unit draw, shape (M, nt*nz), rows in draw order.

    With ``zprime`` every mode function is differenced against its value at
    zprime, so the rows synthesise phi(z, t) - phi(zprime, t).
    """
    pts = z if zprime is None else np.concatenate([z, [zprime]])
    _check_times(times)
    modes.check_points(pts)
    sig_n, sig_phi = _quadrature_sigmas(spec, modes)
    u = modes.functions(pts)                                  # (M, components, npts)
    omega = modes.omega
    amp_n = -modes.phi_amplitude() * sig_n * modes.synthesis_scale
    amp_phi = None if sig_phi is None else sig_phi * modes.synthesis_scale
    if zprime is not None:
        u = u[..., :-1] - u[..., -1:]
    wt = omega[:, None] * times[None, :]
    harmonics = [amp_n[:, None] * np.sin(wt)]
    if amp_phi is not None:
        harmonics.append(amp_phi[:, None] * np.cos(wt))
    rows = [h[:, None, :, None] * u[:, :, None, :] for h in harmonics]
    return np.concatenate(rows).reshape(-1, times.size * z.size)


def sample_realization(index: int, spec: EnsembleSpec, modes, z, times) -> np.ndarray:
    """Relative-phase field phi(z, t) of one realization, shape (nt, nz)."""
    if not 0 <= index < spec.realizations:
        raise ConfigError("realization index out of range")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    basis = _basis(spec, modes, z, times)
    draws = _rekey(_generator(), spec.master_seed, index).standard_normal(basis.shape[0])
    return (draws @ basis).reshape(times.size, z.size)


def _merge(mean: np.ndarray, m2: np.ndarray, n_a: int, block: np.ndarray) -> None:
    """Fold the rows of ``block`` into the running (mean, m2) of ``n_a`` samples.

    Pairwise update of Chan, Golub & LeVeque; ``block`` is overwritten.
    """
    n_b = block.shape[0]
    n = n_a + n_b
    mean_b = block.mean(axis=0)
    block -= mean_b
    block *= block
    delta = mean_b - mean
    mean += delta * (n_b / n)
    m2 += block.sum(axis=0) + delta**2 * (n_a * n_b / n)


def estimate_pcf(spec: EnsembleSpec, modes, z, times, zprime: float = 0.0) -> EnsembleStats:
    """Ensemble estimate of C(z, zprime, t) = <cos(phi(z) - phi(zprime))>.

    Realizations are generated independently from their per-index streams
    and accumulated in fixed blocks, so the result depends only on
    (master_seed, spec, grid).
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    basis = _basis(spec, modes, z, times, zprime)
    n = spec.realizations
    cells = basis.shape[1]
    mean_cos, m2_cos = np.zeros(cells), np.zeros(cells)
    mean_sin, m2_sin = np.zeros(cells), np.zeros(cells)
    rows = min(_BLOCK, n)
    draws = np.empty((rows, basis.shape[0]))
    dphi_buf, cos_buf = np.empty((rows, cells)), np.empty((rows, cells))
    gen = _generator()
    for start in range(0, n, _BLOCK):
        b = min(_BLOCK, n - start)
        x, dphi, cos = draws[:b], dphi_buf[:b], cos_buf[:b]
        for r in range(b):
            _rekey(gen, spec.master_seed, start + r).standard_normal(out=x[r])
        np.matmul(x, basis, out=dphi)
        np.cos(dphi, out=cos)
        sin = np.sin(dphi, out=dphi)
        _merge(mean_cos, m2_cos, start, cos)
        _merge(mean_sin, m2_sin, start, sin)
    shape = (times.size, z.size)
    return EnsembleStats(
        mean=mean_cos.reshape(shape),
        stderr=np.sqrt(m2_cos / (n - 1) / n).reshape(shape),
        imag_mean=mean_sin.reshape(shape),
        imag_stderr=np.sqrt(m2_sin / (n - 1) / n).reshape(shape),
    )
