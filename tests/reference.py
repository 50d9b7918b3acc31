"""Dense reference for the contrast kernels: the 2-D trapezoid rule on the full window grid."""

import numpy as np

from splitgas.modes import variance_field


def window_contrast(C, z):
    """(1/span^2) times the 2-D trapezoid of C over the last two axes, both on grid z."""
    return np.trapezoid(np.trapezoid(C, z, axis=-1), z, axis=-1) / (z[-1] - z[0]) ** 2


def dense_contrast(modes, L, n, times):
    """C^2(t) on n points spanning [-L/2, L/2]: one variance_field column per z'."""
    z = np.linspace(-L / 2, L / 2, n)
    var = np.stack([variance_field(modes, z, times, zp).values for zp in z], axis=-1)
    assert var.min() >= 0.0
    return window_contrast(np.exp(-var / 2.0), z)
