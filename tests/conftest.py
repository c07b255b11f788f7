import pytest
from hypothesis import settings

from vcdfuel.extraction import run_vcd
from vcdfuel.semi_principled import build_semi_model
from vcdfuel.simplified import fit_simplified
from vcdfuel.synthetic import builtin_cycles, default_vehicle

# fixed seed and no example database: every run draws the same examples
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def vehicle():
    return default_vehicle()


@pytest.fixture(scope="session")
def cycles():
    return list(builtin_cycles().values())


@pytest.fixture(scope="session")
def dataset(vehicle, cycles):
    return run_vcd(vehicle, cycles, dt=0.1)


@pytest.fixture(scope="session")
def semi_model(vehicle, cycles):
    return build_semi_model(vehicle, cycles, dt=0.1)


@pytest.fixture(scope="session")
def simplified_model(semi_model):
    return fit_simplified(semi_model)
