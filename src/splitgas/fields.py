"""Grid-valued results: variance/correlation fields, front traces, contrast.

Two grid layouts are used.  A plain field holds values on (time x position)
where "position" is a point z with the second point pinned at ``zprime``
(for the homogeneous gas z - zprime is the separation z-bar).  A pair field
holds values on (time x z x z') and feeds the contrast integrals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "VarianceField",
    "CorrelationField",
    "PairVarianceField",
    "PairCorrelationField",
    "FrontTrace",
    "VelocityFit",
    "ContrastTrace",
]


@dataclass
class VarianceField:
    """Two-point relative-phase variance on a (time x position) grid."""

    positions: np.ndarray   # m; z with fixed zprime (separations from it in a box)
    times: np.ndarray       # s
    values: np.ndarray      # (len(times), len(positions)), dimensionless
    regime: str
    truncation: int
    zprime: float | None = None     # fixed second point
    converged: bool | None = None   # doubling-test verdict, None = not checked
    meta: dict = field(default_factory=dict)  # c, l0, xi_h, R_eff, ...

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.times.size, self.positions.size):
            raise ValueError("values must have shape (n_times, n_positions)")


@dataclass
class CorrelationField:
    """Phase correlation function C = exp(-variance/2) on the same grid."""

    positions: np.ndarray
    times: np.ndarray
    values: np.ndarray
    regime: str
    truncation: int
    zprime: float | None = None
    meta: dict = field(default_factory=dict)


@dataclass
class PairVarianceField:
    """Variance on a full (time x z x z') grid, for contrast integrals."""

    z: np.ndarray
    zprime: np.ndarray
    times: np.ndarray
    values: np.ndarray      # (n_times, len(z), len(zprime))
    regime: str
    truncation: int
    meta: dict = field(default_factory=dict)


@dataclass
class PairCorrelationField:
    z: np.ndarray
    zprime: np.ndarray
    times: np.ndarray
    values: np.ndarray
    regime: str
    truncation: int
    meta: dict = field(default_factory=dict)


@dataclass
class FrontTrace:
    """Detected correlation-front positions, one per usable time sample."""

    times: np.ndarray       # s
    positions: np.ndarray   # m, non-decreasing inside the fit window
    method: str             # "mixed_derivative" or "half_plateau"
    smoothing_sigma: float  # m, Gaussian width applied along the position axis
    prominence_rel: float
    diagnostics: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class VelocityFit:
    """Least-squares slope of front position versus time."""

    speed: float          # m/s
    intercept: float      # m
    residual_rms: float   # m
    window: tuple         # (t_min, t_max) in s, detections with t_min < t <= t_max
    n_points: int


@dataclass
class ContrastTrace:
    """Mean squared contrast integrated over a window of length L."""

    length: float         # m
    times: np.ndarray     # s
    values: np.ndarray    # C^2(t) in (0, 1]
    regime: str
    meta: dict = field(default_factory=dict)
