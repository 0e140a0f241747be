"""Session-scoped Cayley balls shared across test modules."""

import pytest

from convexlab.ball_engine import build_ball
from convexlab.bs_arith import BsGroupModel, BsParams
from convexlab.stallings import StallingsModel


@pytest.fixture(scope="session")
def ball_bs2_r8():
    return build_ball(BsGroupModel(BsParams(2)), 8)


@pytest.fixture(scope="session")
def ball_bs2_r9():
    return build_ball(BsGroupModel(BsParams(2)), 9)


@pytest.fixture(scope="session")
def ball_bs2_r10():
    return build_ball(BsGroupModel(BsParams(2)), 10)


@pytest.fixture(scope="session")
def ball_bs2_r11():
    return build_ball(BsGroupModel(BsParams(2)), 11)


@pytest.fixture(scope="session")
def ball_bs7_r6():
    return build_ball(BsGroupModel(BsParams(7)), 6)


@pytest.fixture(scope="session")
def ball_st_r4():
    return build_ball(StallingsModel(), 4)


@pytest.fixture(scope="session")
def ball_st_r5():
    return build_ball(StallingsModel(), 5)
