import numpy as np
import pytest

from hfh import bloch, checks, medium
from hfh.fourier import Cell, FourierField

COS = {1: 0.5, -1: 0.5}  # cos(2 pi x / T)
SIN = {1: -0.5j, -1: 0.5j}  # sin(2 pi x / T)


@pytest.fixture(autouse=True)
def fresh_galerkin_parts():
    """Each test starts with no Galerkin parts kept, so a test that patches a constant the build
    reads (``bloch.LANCZOS_MIN_SIZE``) or asserts on a first build sees its own build."""
    bloch._galerkin.cache_clear()


def signal(period, harmonics):
    """1D field of period ``period`` with the {n: c} coefficients of e^{2 pi i n x / period}."""
    return FourierField.from_terms(Cell((period,)), max(map(abs, harmonics), default=0), harmonics)


@pytest.fixture(scope="session")
def cell1d():
    return Cell((1.0,))


@pytest.fixture(scope="session")
def const_medium(cell1d):
    return medium.build_scalar_medium(1.0, 1.0, cell1d, 1)


@pytest.fixture(scope="session")
def two_phase():
    # a: 1 on [0, 0.5), 4 on [0.5, 1); b = 1
    return checks._two_phase_medium(16)


@pytest.fixture(scope="session")
def two_phase_coarse():
    # same phases, lower band limit; used for the fine-grid time-domain runs
    return checks._two_phase_medium(8)


@pytest.fixture(scope="session")
def mathieu_blocks():
    # V(x) = 2 cos(2 pi x), m = 1/2, e = 1, no magnetic potential
    return checks._mathieu_blocks(16)


@pytest.fixture(scope="session")
def vector_medium(cell1d):
    # coupled two-component 1D medium: symmetric positive stiffness with
    # off-diagonal coupling, constant coupled density
    a_terms = {
        (0, 0, 0, 0): medium.cosine(2.0, [((1,), 0.5)]),
        (1, 0, 1, 0): medium.cosine(1.0, [((1,), 0.3)]),
        (0, 0, 1, 0): medium.cosine(0.25, [((1,), 0.1)]),
        (1, 0, 0, 0): medium.cosine(0.25, [((1,), 0.1)]),
    }
    b = [[1.0, 0.15], [0.15, 1.0]]
    return medium.build_vector_medium(2, a_terms, b, cell1d, 8)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
