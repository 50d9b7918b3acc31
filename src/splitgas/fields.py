"""Grid-valued results: the variance field, front traces, velocity fits.

A variance field holds values on a (time x position) grid, where "position"
is a point z with the second point pinned (for the homogeneous gas z - z'
is the separation z-bar), together with the mode basis that made it; the
facts of the gas (healing length, cloud radius, ...) are read from that
basis.  The correlation function and the contrast are plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .modes import ModeBasis

__all__ = [
    "VarianceField",
    "FrontTrace",
    "VelocityFit",
]


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


@dataclass
class FrontTrace:
    """Detected correlation-front positions, one per usable time sample."""

    times: np.ndarray       # s
    positions: np.ndarray   # m, non-decreasing inside the fit window
    method: str             # "mixed_derivative" or "half_plateau"
    diagnostics: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class VelocityFit:
    """Least-squares slope of front position versus time."""

    speed: float          # m/s
    intercept: float      # m
    residual_rms: float   # m
    n_points: int
