import pytest

from loewy import build_nakayama, default_corpus, linear_quiver_algebra


@pytest.fixture(scope="session")
def n32():
    """Truncated cyclic algebra, 3 vertices, Loewy length 3 (not symmetric)."""
    return build_nakayama(3, 2)


@pytest.fixture(scope="session")
def n22():
    """Truncated cyclic algebra, 2 vertices, Loewy length 3 (symmetric)."""
    return build_nakayama(2, 2)


@pytest.fixture(scope="session")
def a3():
    """Linear quiver 0 -> 1 -> 2, truncated at length 3."""
    return linear_quiver_algebra(3, 3)


@pytest.fixture(scope="session")
def corpus0():
    """default_corpus(seed=0): 42 algebras, 20 of them random presentations."""
    return default_corpus(seed=0)
