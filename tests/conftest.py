import numpy as np
import pytest

from critsqg.solver import SolverConfig, _Stepper
from critsqg.spectral import SpectralField, TorusGrid


@pytest.fixture(scope="session")
def grid64():
    return TorusGrid(2, 64)


@pytest.fixture(scope="session")
def grid32():
    return TorusGrid(2, 32)


def cos_x1(grid: TorusGrid, mult: int = 1, amplitude: float = 1.0) -> SpectralField:
    x = grid.coords
    if grid.dim == 1:
        return SpectralField.from_values(grid, amplitude * np.cos(mult * x))
    X, _ = np.meshgrid(x, x, indexing="ij")
    return SpectralField.from_values(grid, amplitude * np.cos(mult * X))


def meshes(grid: TorusGrid):
    x = grid.coords
    return np.meshgrid(x, x, indexing="ij")


def step(theta: SpectralField, config: SolverConfig, force: SpectralField) -> SpectralField:
    """One CFL-checked step of ``config.dt`` of forced SQG (critical Burgers on a 1D grid)."""
    stepper = _Stepper(theta.grid, config, force)
    return stepper.advance(theta, stepper.cfl_dt(theta, config.dt))
