import numpy as np
import pytest

from loewy import Algebra, build_nakayama, default_corpus, linear_quiver_algebra


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
def a3_rebased(a3):
    """a3 on the basis e0, e1, e2, b0 + b0*b1, b1, b0*b1, and the change of
    basis q (row i: new basis element i in the old coordinates).  It is not
    a path basis: the arrow b0 + b0*b1 has two blocks, e0 * it * e1 = b0 and
    e0 * it * e2 = b0*b1."""
    p = a3.p
    q = np.eye(a3.dim, dtype=np.int64)
    q[3, 5] = 1
    q_inv = np.eye(a3.dim, dtype=np.int64)
    q_inv[3, 5] = p - 1
    table = np.einsum("ia,jb,abc,cf->ijf", q, q, a3.table, q_inv) % p
    return Algebra(a3.field, table, a3.labels, a3.path_lengths, a3.num_vertices), q


@pytest.fixture(scope="session")
def corpus0():
    """default_corpus(seed=0): 42 algebras, 20 of them random presentations."""
    return default_corpus(seed=0)
