"""Shared reference scenarios for the test suite."""

import numpy as np
import pytest
from scipy.constants import pi

from splitgas import (
    RB87,
    TrapConfig,
    build_modes,
    build_trapped_modes,
    derive_params,
)


@pytest.fixture(scope="session")
def trapped_config():
    """Reference trapped scenario: Rb-87, 1400/7 Hz, 7000 atoms."""
    return TrapConfig(
        atomic_mass=RB87.mass, scattering_length=RB87.scattering_length,
        omega_perp=2 * pi * 1400.0, omega_long=2 * pi * 7.0,
        atom_number_total=7000.0, regime="thomas_fermi",
    )


@pytest.fixture(scope="session")
def trapped_params(trapped_config):
    return derive_params(trapped_config)


@pytest.fixture(scope="session")
def trapped_modes(trapped_params):
    return build_trapped_modes(trapped_params)


@pytest.fixture(scope="session")
def quasi1d_config():
    return TrapConfig(
        atomic_mass=RB87.mass, scattering_length=RB87.scattering_length,
        omega_perp=2 * pi * 1400.0, omega_long=2 * pi * 7.0,
        atom_number_total=7000.0, regime="quasi_1d",
    )


@pytest.fixture(scope="session")
def homog_config():
    """Homogeneous twin of the reference scenario: 46 atoms/um, 100 um box."""
    return TrapConfig(
        atomic_mass=RB87.mass, scattering_length=RB87.scattering_length,
        omega_perp=2 * pi * 1400.0, peak_density_per_gas=46.0e6,
        system_length=100e-6, regime="homogeneous",
    )


@pytest.fixture(scope="session")
def homog_params(homog_config):
    return derive_params(homog_config)


@pytest.fixture(scope="session")
def homog_modes(homog_params):
    return build_modes(homog_params, homog_params.config.system_length)


@pytest.fixture(scope="session")
def cone_config():
    """Wide box with c = 1 mm/s exactly, for light-cone rate structure.

    The box is much wider than the cone so the finite-size droop of the
    diffusion rate (relative size 4ct/L) stays inside the tolerances.
    """
    g = 2.0 * 1.054571817e-34 * (2 * pi * 1400.0) * RB87.scattering_length
    density = RB87.mass * (1e-3) ** 2 / g
    return TrapConfig(
        atomic_mass=RB87.mass, scattering_length=RB87.scattering_length,
        omega_perp=2 * pi * 1400.0, peak_density_per_gas=density,
        system_length=1600e-6, regime="homogeneous",
    )


@pytest.fixture(scope="session")
def cone_params(cone_config):
    return derive_params(cone_config)


@pytest.fixture(scope="session")
def cone_modes(cone_params):
    # 4x the phononic cutoff keeps step-edge ringing below the 5% bands
    from splitgas.homogeneous import default_p_max

    L = cone_params.config.system_length
    return build_modes(cone_params, L, 4 * default_p_max(cone_params, L))
