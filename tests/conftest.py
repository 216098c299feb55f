import pytest

from ladderdown.constants import MU_K39RB87
from ladderdown.curves import krb_standin_dipole, krb_standin_potential
from ladderdown.dvr import RadialGrid, sdme_map, solve_bound_states


@pytest.fixture(scope="session")
def standin_potential():
    return krb_standin_potential()


@pytest.fixture(scope="session")
def standin_dipole():
    return krb_standin_dipole()


@pytest.fixture(scope="session")
def desk_grid():
    return RadialGrid(r_min=8.0, r_max=68.0, n_points=1024, mu=MU_K39RB87)


@pytest.fixture(scope="session")
def desk_spectrum(desk_grid, standin_potential):
    return solve_bound_states(desk_grid, standin_potential)


@pytest.fixture(scope="session")
def desk_sdme(desk_spectrum, standin_dipole):
    return sdme_map(desk_spectrum, standin_dipole)


@pytest.fixture(scope="session")
def production_grid():
    return RadialGrid(r_min=6.0, r_max=146.0, n_points=5600, mu=MU_K39RB87)


@pytest.fixture(scope="session")
def production_spectrum(production_grid, standin_potential):
    return solve_bound_states(production_grid, standin_potential)
