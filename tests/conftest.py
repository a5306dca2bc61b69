import numpy as np
import pytest

import convolve_hf as chf


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture(scope="session")
def grid32():
    return chf.GridSpec(points_per_axis=32, extent=8.0)


@pytest.fixture(scope="session")
def grid48():
    return chf.GridSpec(points_per_axis=48, extent=10.0)


@pytest.fixture(scope="session")
def grid64():
    return chf.GridSpec(points_per_axis=64, extent=10.0)


@pytest.fixture(scope="session")
def he_system():
    return chf.MolecularSystem(nuclei=((2.0, (0.0, 0.0, 0.0)),))


@pytest.fixture(scope="session")
def he_result_96(he_system):
    """Converged He ground state at the acceptance scale (N=96, L=12).

    Shared across the acceptance criteria that need a converged orbital;
    this is the expensive fixture of the suite (about 5 s on a 2-core host).
    """
    grid = chf.GridSpec(points_per_axis=96, extent=12.0)
    config = chf.ScfConfig(
        max_iterations=200,
        mixing=0.6,
        energy_tolerance=1e-7,
        orbital_tolerance=1e-6,
    )
    return chf.solve(he_system, grid, config)


@pytest.fixture(scope="session")
def he_result_48(he_system):
    """Cheap converged He ground state for unit-level checks."""
    grid = chf.GridSpec(points_per_axis=48, extent=12.0)
    config = chf.ScfConfig(max_iterations=200, mixing=0.6)
    return chf.solve(he_system, grid, config)
