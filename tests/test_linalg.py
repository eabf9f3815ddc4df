import numpy as np
import pytest

from loewy.linalg import (
    PrimeField,
    Subspace,
    kernel,
    rank,
    rref,
)

P = 5


def _ref_rank(m, p):
    # Independent rank computation: plain forward elimination, no
    # normalization, counting nonzero rows at the end.
    m = [list(int(x) % p for x in row) for row in m]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(row + 1, nrows):
            if m[r][col]:
                f = m[r][col] * pow(m[row][col], p - 2, p) % p
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[row])]
        row += 1
    return row


def test_rref_hand_example():
    r, pivots = rref(np.array([[2, 4], [1, 2]]), P)
    assert pivots == [0]
    assert r.tolist() == [[1, 2], [0, 0]]


def test_rref_identity_block():
    m = np.array([[0, 1, 3], [2, 0, 1], [1, 1, 0]])  # det = 2 mod 5
    r, pivots = rref(m, P)
    assert pivots == [0, 1, 2]
    assert np.array_equal(r, np.eye(3, dtype=np.int64))


def test_rank_matches_independent_elimination():
    rng = np.random.default_rng(11)
    for _ in range(40):
        shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        m = rng.integers(0, P, size=shape)
        assert rank(m, P) == _ref_rank(m, P)


def test_rank_nullity():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = rng.integers(0, P, size=(int(rng.integers(1, 8)), int(rng.integers(1, 8))))
        assert rank(m, P) + kernel(m, P).dim == m.shape[1]


def test_kernel_vectors_annihilate():
    rng = np.random.default_rng(2)
    m = rng.integers(0, P, size=(4, 6))
    ker = kernel(m, P)
    for row in ker.basis:
        assert not ((m @ row) % P).any()


def test_subspace_membership_and_reduce():
    s = Subspace.from_rows(np.array([[1, 2, 0], [0, 0, 1]]), 3, P)
    assert s.dim == 2
    assert s.contains_vector(np.array([2, 4, 3]))
    assert not s.contains_vector(np.array([0, 1, 0]))
    assert not s.reduce(np.array([[1, 2, 0], [3, 6, 2]])).any()


def test_subspace_canonical_under_row_operations():
    rng = np.random.default_rng(7)
    rows = rng.integers(0, P, size=(3, 6))
    s = Subspace.from_rows(rows, 6, P)
    for _ in range(10):
        # random invertible change of generating set
        while True:
            g = rng.integers(0, P, size=(3, 3))
            if rank(g, P) == 3:
                break
        t = Subspace.from_rows((g @ rows) % P, 6, P)
        assert t == s
        assert hash(t) == hash(s)


def test_subspace_hash_is_cached_and_equal_on_equal_subspaces():
    rows = np.array([[1, 2, 0, 3, 4], [0, 1, 4, 1, 2]])
    s = Subspace.from_rows(rows, 5, P)
    # the same plane from other, redundant spanning rows, in another order
    t = Subspace.from_rows([rows[1], (rows[0] + rows[1]) % P, 2 * rows[0] % P, [0] * 5], 5, P)
    assert s is not t and s == t
    assert hash(s) == hash(t)
    assert {s: "plane"}[t] == "plane"
    # computed on the first call and kept: the basis is read-only
    assert s.__dict__["_hash"] == hash(s) == hash((5, P, s.basis.tobytes()))
    assert Subspace.from_rows(rows[:1], 5, P) != s


def test_sum_intersection_dimension_formula():
    rng = np.random.default_rng(13)
    for _ in range(20):
        s = Subspace.from_rows(rng.integers(0, P, size=(3, 7)), 7, P)
        t = Subspace.from_rows(rng.integers(0, P, size=(3, 7)), 7, P)
        both = Subspace.from_rows(np.vstack([s.basis, t.basis]), 7, P)
        meet = s.intersect(t)
        assert both.dim + meet.dim == s.dim + t.dim
        assert both.contains(s) and both.contains(t)
        assert s.contains(meet) and t.contains(meet)


def test_zero_and_full():
    z = Subspace.zero(4, P)
    f = Subspace.full(4, P)
    assert z.dim == 0 and f.dim == 4
    assert f.contains(z)
    assert Subspace.from_rows(np.vstack([z.basis, f.basis]), 4, P) == f
    assert z.intersect(f) == z


def test_zero_ambient_edge_cases():
    z = Subspace.full(0, P)
    assert z.dim == 0
    assert z.contains(Subspace.zero(0, P))
    assert Subspace.from_rows(np.zeros((0, 0), dtype=np.int64), 0, P).dim == 0


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    assert PrimeField(7).p == 7


def test_incompatible_subspaces_rejected():
    s = Subspace.from_rows(np.array([[1, 0]]), 2, P)
    t = Subspace.from_rows(np.array([[1, 0, 0]]), 3, P)
    with pytest.raises(ValueError, match="ambient mismatch"):
        s.intersect(t)
