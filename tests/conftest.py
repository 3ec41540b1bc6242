"""Shared fixtures.

Basis sets and transfer matrices are session scoped and shared across
test modules; generating a basis set is the costly step, and the frame
identity is checked once per `BetaMatrix`, when it is constructed.
Tests must not mutate them; the basis arrays and the transfer matrix's
projector frame and dual frame are flagged read-only at construction,
which enforces that. The dense `matrix` and
`pinv` of a transfer matrix are rebuilt on every read (`pinv` is an SVD
of up to 900x900 at D=5).
"""

import numpy as np
import pytest

from mubqpt import build_beta, generate_mub


@pytest.fixture(scope="session")
def set_d2():
    return generate_mub(2)


@pytest.fixture(scope="session")
def set_d3():
    return generate_mub(3)


@pytest.fixture(scope="session")
def set_d4():
    return generate_mub(4)


@pytest.fixture(scope="session")
def set_d5():
    return generate_mub(5)


@pytest.fixture(scope="session")
def beta_d2(set_d2):
    return build_beta(set_d2)


@pytest.fixture(scope="session")
def beta_d3(set_d3):
    return build_beta(set_d3)


@pytest.fixture(scope="session")
def beta_d4(set_d4):
    return build_beta(set_d4)


@pytest.fixture(scope="session")
def beta_d5(set_d5):
    return build_beta(set_d5)


@pytest.fixture()
def rng():
    return np.random.default_rng(0xA5A5)
