import pytest

from biaxpot import Curve, Params


@pytest.fixture(scope="session")
def params():
    return Params(0.25, 0.25)


@pytest.fixture(scope="session")
def curve():
    # stock domain used throughout: quarter superellipse x^3 + y^3 = 1
    return Curve(1.0, 1.0, 3.0)
