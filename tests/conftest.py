import pytest

from defram import enumerate_class, enumerate_levels
from defram.classes import GraphClass


@pytest.fixture(scope="session")
def all_levels_7():
    """Every graph of order 0..7, one per isomorphism class."""
    return enumerate_levels(GraphClass.ALL, 7)


@pytest.fixture(scope="session")
def all_levels_6(all_levels_7):
    return all_levels_7[:7]


@pytest.fixture(scope="session")
def all_graphs_8():
    """Every graph of order 8 (12346 classes); built only when needed."""
    return enumerate_class(GraphClass.ALL, 8, budget=8)
