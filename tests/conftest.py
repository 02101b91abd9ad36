import pytest

from eh2marg import NoiseParams, WorldConstants, nominal_model, synthesize_gain


@pytest.fixture(scope="session")
def world():
    return WorldConstants()


@pytest.fixture(scope="session")
def noise():
    return NoiseParams()


@pytest.fixture(scope="session")
def model(noise, world):
    return nominal_model(noise, world)


@pytest.fixture(scope="session")
def cert(model):
    return synthesize_gain(model)

