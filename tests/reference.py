"""Test references: the dense 2-D trapezoid contrast on the full window grid, and a
field of given values for the readers of variance fields."""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from splitgas.modes import variance_field


@dataclass
class ArrayField:
    """A (time x position) grid of given variances, read as a variance field is read.

    ``modes`` None suits the readers that never look at the basis (``pcf``); the
    front detector reads its ``xi_h`` and ``radius``, which ``grid_basis`` stubs.
    """

    positions: np.ndarray
    times: np.ndarray
    values: np.ndarray
    modes: object = None

    def rows(self, lo=0, hi=None):
        return self.values[lo:hi]


def grid_basis(positions):
    """A stub basis for a synthetic field: a healing length of 4 grid steps and, as a
    box has, no radius, so the front detector searches to the last point."""
    return SimpleNamespace(xi_h=4.0 * float(positions[1] - positions[0]), radius=None)


def window_contrast(C, z):
    """(1/span^2) times the 2-D trapezoid of C over the last two axes, both on grid z."""
    return np.trapezoid(np.trapezoid(C, z, axis=-1), z, axis=-1) / (z[-1] - z[0]) ** 2


def dense_contrast(modes, L, n, times):
    """C^2(t) on n points spanning [-L/2, L/2]: one variance_field column per z'."""
    z = np.linspace(-L / 2, L / 2, n)
    var = np.stack([variance_field(modes, z, times, zp).rows() for zp in z], axis=-1)
    assert var.min() >= 0.0
    return window_contrast(np.exp(-var / 2.0), z)
