import numpy as np
import pytest

from jacobispec import verify


@pytest.fixture(scope="session")
def m1():
    return verify.golden_m1()


@pytest.fixture(scope="session")
def m1_seq():
    return verify._seq("m1", 5000)


@pytest.fixture(scope="session")
def m1_sol():
    return verify._sol("m1", 5000)


@pytest.fixture(scope="session")
def m1_seq_2000():
    return verify._seq("m1", 2000)


@pytest.fixture(scope="session")
def m1_sol_2000():
    return verify._sol("m1", 2000)


@pytest.fixture(scope="session")
def m3():
    return verify.golden_m3()


@pytest.fixture(scope="session")
def m3_seq():
    return verify._seq("m3", 10002)


@pytest.fixture(scope="session")
def m3_sol():
    return verify._sol("m3", 10002)


@pytest.fixture(scope="session")
def m4():
    return verify.golden_m4()


@pytest.fixture(scope="session")
def free_seq():
    return verify.golden_m5_sequence(5000)


@pytest.fixture(scope="session")
def free_sol():
    return verify._sol("m5", 5000)


@pytest.fixture(scope="session")
def m1_b_zeros():
    return verify._m1_routes()[0]


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
