import pytest

from tamari.counting import enumerate_maximal_chains


@pytest.fixture(scope="session")
def chains_by_order():
    """All maximal chains as tableaux, for orders small enough to keep around."""
    return {n: list(enumerate_maximal_chains(n)) for n in range(1, 7)}
