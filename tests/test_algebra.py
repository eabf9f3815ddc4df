import numpy as np
import pytest

from loewy import (
    Algebra,
    Arrow,
    Quiver,
    Relation,
    build_nakayama,
    build_path_algebra,
    default_corpus,
    is_symmetric,
    linear_quiver_algebra,
)
from loewy import algebra as algebra_module
from loewy.linalg import PrimeField, Subspace, matmul_mod

P = 5


def _unit(i, d):
    v = np.zeros(d, dtype=np.int64)
    v[i] = 1
    return v


def _mul(a, x, y):
    """x * y read off the structure table: the sum of x_i y_j table[i, j]."""
    return np.einsum("i,j,ijf->f", x, y, a.table) % a.p


def _walk_count(quiver, max_len):
    """Independent dimension oracle for relation-free truncated path algebras:
    total number of walks of length < max_len, via adjacency matrix powers."""
    k = quiver.vertex_count
    adj = np.zeros((k, k), dtype=np.int64)
    for a in quiver.arrows:
        adj[a.source, a.target] += 1
    total = 0
    power = np.eye(k, dtype=np.int64)
    for _ in range(max_len):
        total += int(power.sum())
        power = power @ adj
    return total


@pytest.mark.parametrize(
    "quiver,trunc",
    [
        (Quiver(1, [Arrow("x", 0, 0)]), 4),
        (Quiver(2, [Arrow("a", 0, 1), Arrow("b", 1, 0)]), 3),
        (Quiver(3, [Arrow("a", 0, 1), Arrow("b", 1, 2), Arrow("c", 0, 2)]), 3),
        (Quiver(2, [Arrow("a", 0, 1), Arrow("b", 0, 1)]), 2),
    ],
)
def test_dimension_matches_walk_count(quiver, trunc):
    a = build_path_algebra(quiver, [], trunc, P)
    assert a.dim == _walk_count(quiver, trunc)


def test_basis_order_and_labels(n32):
    assert n32.labels == ["e0", "e1", "e2", "a0", "a1", "a2", "a0*a1", "a1*a2", "a2*a0"]
    assert n32.path_lengths.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    # trivial path i sits at basis index i
    assert np.array_equal(n32.idempotents[1], _unit(1, 9))


def test_products_follow_path_composition(n32):
    d = n32.dim
    # a0 then a1 is the length-two basis path, the other order is dead
    assert np.array_equal(n32.table[3, 4], _unit(6, d))
    assert not n32.table[4, 3].any()
    # trivial paths act as source/target units
    assert np.array_equal(n32.table[0, 3], _unit(3, d))
    assert np.array_equal(n32.table[3, 1], _unit(3, d))
    assert not n32.table[3, 0].any()
    # truncation kills length three
    assert not n32.table[6, 5].any()


def test_one_is_two_sided_identity(a3):
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.integers(0, P, size=a3.dim)
        assert np.array_equal(_mul(a3, a3.one, x), x % P)
        assert np.array_equal(_mul(a3, x, a3.one), x % P)


def test_associativity_all_triples():
    # brute force on a small commutative-square algebra with one relation
    q = Quiver(4, [Arrow("a", 0, 1), Arrow("b", 1, 3), Arrow("c", 0, 2), Arrow("d", 2, 3)])
    rel = Relation.of((1, ("a", "b")), (-1, ("c", "d")))
    alg = build_path_algebra(q, [rel], 3, P)
    assert alg.dim == 9  # 4 + 4 + 2 paths, one length-two pair identified
    d = alg.dim
    for x in range(d):
        for y in range(d):
            xy = alg.table[x, y]
            for z in range(d):
                lhs = _mul(alg, xy, _unit(z, d))
                rhs = _mul(alg, _unit(x, d), alg.table[y, z])
                assert np.array_equal(lhs, rhs)


def test_monomial_relation_kills_product():
    q = Quiver(3, [Arrow("a", 0, 1), Arrow("b", 1, 2)])
    alg = build_path_algebra(q, [Relation.of((1, ("a", "b")))], 3, P)
    assert alg.dim == 5
    assert not alg.table[3, 4].any()


def test_radical_chain_of_truncated_polynomials():
    loop = build_path_algebra(Quiver(1, [Arrow("x", 0, 0)]), [], 3, P)
    assert loop.dim == 3
    assert loop.loewy_length == 3
    assert loop.radical_power(0).dim == 3
    assert loop.radical_power(1).dim == 2  # span of x, x^2
    assert loop.radical_power(2).dim == 1
    assert loop.radical_power(3).dim == 0
    assert loop.radical_power(99).dim == 0
    assert loop.radical_power(1).contains_vector(_unit(1, 3))
    assert loop.radical_power(2).contains_vector(_unit(2, 3))


def test_radical_chain_on_a_basis_that_is_not_of_paths(a3, a3_rebased):
    b, q = a3_rebased
    assert b.arrow_ends == [(3, 0, 1), (3, 0, 2), (4, 1, 2)]
    assert b.loewy_length == a3.loewy_length
    for n in range(a3.loewy_length + 2):
        # a vector x in the new coordinates is x·q in the old ones
        carried = Subspace.from_rows(b.radical_power(n).basis @ q, b.dim, b.p)
        assert carried == a3.radical_power(n)


def test_left_and_right_mult_matrices(n22):
    rng = np.random.default_rng(1)
    x = rng.integers(0, P, size=n22.dim)
    y = rng.integers(0, P, size=n22.dim)
    right_mult = np.einsum("j,ijf->if", y, n22.table) % P  # z -> z * y
    left_mult = np.einsum("i,ijf->jf", x, n22.table) % P  # z -> x * z
    assert np.array_equal((x @ right_mult) % P, _mul(n22, x, y))
    assert np.array_equal((y @ left_mult) % P, _mul(n22, x, y))


def test_opposite_reverses_products(n32):
    opp = n32.opposite()
    assert opp.opposite() is n32
    rng = np.random.default_rng(4)
    x = rng.integers(0, P, size=n32.dim)
    y = rng.integers(0, P, size=n32.dim)
    assert np.array_equal(_mul(opp, x, y), _mul(n32, y, x))
    assert opp.loewy_length == n32.loewy_length


@pytest.mark.parametrize("name", ["n32", "n22", "a3", "loop", "relations"])
def test_opposite_matches_a_fresh_build(name, n32, n22, a3, monkeypatch):
    if name == "loop":
        a = build_path_algebra(Quiver(1, [Arrow("x", 0, 0), Arrow("y", 0, 0)]), [], 3, P)
    elif name == "relations":
        q = Quiver(2, [Arrow("a", 0, 1), Arrow("b", 1, 0), Arrow("c", 0, 1)])
        rels = [Relation.of((1, ("a", "b")), (3, ("c", "b"))), Relation.of((2, ("b", "c")),)]
        a = build_path_algebra(q, rels, 4, P)
    else:
        a = {"n32": n32, "n22": n22, "a3": a3}[name]
    fresh = Algebra(a.field, a.table.transpose(1, 0, 2), a.labels, a.path_lengths,
                    a.num_vertices)
    inits = []
    original = Algebra.__init__
    monkeypatch.setattr(Algebra, "__init__",
                        lambda self, *args, **kw: inits.append(1) or original(self, *args, **kw))
    opp = a.opposite()
    assert inits == []  # reuses the verified parent
    assert opp.opposite() is a
    assert np.array_equal(opp.table, fresh.table)
    assert opp.loewy_length == fresh.loewy_length
    assert opp.radical == fresh.radical
    for n in range(fresh.loewy_length + 2):
        assert np.array_equal(opp.radical_power(n).basis, fresh.radical_power(n).basis)
    assert np.array_equal(opp.one, fresh.one)
    assert opp.arrow_ends == fresh.arrow_ends


def test_generator_indices(n32):
    assert n32.generator_indices().tolist() == [0, 1, 2, 3, 4, 5]


def test_radical_is_the_span_of_the_basis_elements_of_length_at_least_one(a3_rebased):
    # default_corpus holds the Nakayama grid k, ell <= 4.  An opposite shares
    # its parent's chain, so each is also rebuilt from the transposed table.
    algebras = [a for _, a in default_corpus(seed=2)] + [a3_rebased[0]]
    for a in algebras:
        fresh = Algebra(a.field, a.table.transpose(1, 0, 2), a.labels, a.path_lengths,
                        a.num_vertices)
        want = Subspace.from_rows(np.eye(a.dim, dtype=np.int64)[a.num_vertices:], a.dim, a.p)
        for b in (a, a.opposite(), fresh):
            assert b.radical == want


@pytest.mark.parametrize("lengths", [[0, 0, 0, 1, 2, 2], [0, 1, 1, 1, 2, 2], [0, 0, 1, 1, 2, -1]],
                         ids=["zero-after-the-vertices", "nonzero-on-a-vertex", "negative"])
def test_path_lengths_must_be_zero_on_exactly_the_vertices(n22, lengths):
    with pytest.raises(ValueError, match="path lengths"):
        Algebra(n22.field, n22.table, n22.labels, np.array(lengths), n22.num_vertices)


def test_symmetric_truncated_polynomial_algebra():
    loop = build_path_algebra(Quiver(1, [Arrow("x", 0, 0)]), [], 3, P)
    res = is_symmetric(loop)
    assert res.status == "yes"
    lam = res.form
    # re-check the witness from scratch: trace form vanishing on commutators
    t = loop.table
    for a in range(3):
        for b in range(3):
            comm = (t[a, b] - t[b, a]) % P
            assert int(comm @ lam) % P == 0
    gram = np.tensordot(t, lam, axes=([2], [0])) % P
    assert np.linalg.matrix_rank(gram.astype(float)) == 3


def test_symmetric_grid_cases():
    assert is_symmetric(build_nakayama(2, 2)).status == "yes"
    assert is_symmetric(build_nakayama(3, 2)).status == "no"
    assert is_symmetric(build_nakayama(3, 3)).status == "yes"


def test_hereditary_a2_is_not_symmetric():
    a2 = linear_quiver_algebra(2, 2)
    res = is_symmetric(a2)
    # soc(A_A) is <e1, b0>: soc(A_A) e0 = 0 and soc(A_A) e1 is a plane, so
    # A_2 is not Frobenius, let alone symmetric
    assert res.status == "no"
    assert res.form is None


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(2, [Arrow("a", 0, 1), Arrow("a", 1, 0)])
    with pytest.raises(ValueError):
        Quiver(2, [Arrow("a", 0, 2)])
    with pytest.raises(ValueError):
        Quiver(1).arrow_index("missing")


def test_relation_validation():
    q = Quiver(2, [Arrow("a", 0, 1), Arrow("b", 1, 0)])
    with pytest.raises(ValueError, match="length"):
        build_path_algebra(q, [Relation.of((1, ("a",)))], 3, P)
    with pytest.raises(ValueError, match="compose"):
        build_path_algebra(q, [Relation.of((1, ("a", "a")))], 3, P)
    with pytest.raises(ValueError, match="parallel"):
        build_path_algebra(q, [Relation.of((1, ("a", "b")), (1, ("b", "a")))], 3, P)
    with pytest.raises(ValueError, match="empty"):
        build_path_algebra(q, [Relation(())], 3, P)
    with pytest.raises(ValueError, match="unknown arrow"):
        build_path_algebra(q, [Relation.of((1, ("a", "z")))], 3, P)


def test_truncation_validation():
    q = Quiver(1, [Arrow("x", 0, 0)])
    with pytest.raises(ValueError):
        build_path_algebra(q, [], 0, P)
    with pytest.raises(ValueError):
        build_path_algebra(q, [Relation.of((1, ("x", "x")))], 1, P)
    with pytest.raises(ValueError):
        build_path_algebra(Quiver(0), [], 2, P)


def test_corrupted_table_is_rejected(n22):
    bad = n22.table.copy()
    bad[0, 0, 0] = (bad[0, 0, 0] + 1) % P
    with pytest.raises(ValueError):
        Algebra(n22.field, bad, n22.labels, n22.path_lengths, n22.num_vertices)


@pytest.mark.parametrize("dim", [3, 42], ids=["dim3", "dim42"])
def test_non_associative_table_is_rejected(dim):
    # One product changed from 0 to a basis element, so that identity,
    # idempotents and the radical grading still check out:
    # - dim 3: F[x]/(x^3) with x^2 * x = x^2, so (x x) x != x (x x);
    # - dim 42: build_nakayama(6, 6) with a0 * (a1*a2*a3*a4*a5*a0) = a0, so
    #   (a0 * that) * a1 != a0 * (that * a1), at the sizes of the float64
    #   tier of matmul_mod.
    # The table is first rescaled, b_i -> s_i b_i, so that it has entries
    # other than 0 and 1; it is accepted before the change.
    if dim == 3:
        a = build_path_algebra(Quiver(1, [Arrow("x", 0, 0)]), [], 3, P)
        x, y, z = a.labels.index("x*x"), a.labels.index("x"), a.labels.index("x*x")
    else:
        a = build_nakayama(6, 6, P)
        x, y, z = a.labels.index("a0"), a.labels.index("a1*a2*a3*a4*a5*a0"), a.labels.index("a0")
    assert a.dim == dim and not a.table[x, y].any()
    s = np.random.default_rng(dim).integers(1, P, size=dim)
    s[: a.num_vertices] = 1
    inv = np.array([pow(int(v), P - 2, P) for v in s])
    table = a.table * s[:, None, None] * s[None, :, None] * inv % P
    Algebra(a.field, table, a.labels, a.path_lengths, a.num_vertices)
    table[x, y] = _unit(z, dim)
    with pytest.raises(ValueError, match="associativity"):
        Algebra(a.field, table, a.labels, a.path_lengths, a.num_vertices)


def _dense_associative(t, gens, p):
    """The reference for the constructor's check: (a*b)*g = a*(b*g) for
    every pair of basis elements a, b and each generator g, as two dense
    d x d x d products per generator, with no zero row skipped."""
    d = len(t)
    by_right = t.transpose(1, 0, 2).reshape(d, d * d)  # [c, (a, e)] = (a*c)_e
    for r_g in t[:, gens, :].transpose(1, 0, 2):
        lhs = matmul_mod(t.reshape(d * d, d), r_g, p).reshape(d, d, d)  # [a, b] = (a*b)*g
        rhs = matmul_mod(r_g, by_right, p).reshape(d, d, d)  # [b, a] = a*(b*g)
        if not np.array_equal(lhs, rhs.transpose(1, 0, 2)):
            return False
    return True


def _relations_algebra(p):
    """Dim 13, with a two-term relation whose coefficients are near p."""
    q = Quiver(2, [Arrow("a0", 1, 0), Arrow("a1", 1, 0), Arrow("a2", 1, 1), Arrow("a3", 0, 1)])
    return build_path_algebra(q, [Relation.of((p - 9723458, ("a2", "a1")), (p - 3, ("a2", "a0")))],
                              3, p)


def _rescaled(a, rng):
    """a's table on the basis b_i -> s_i b_i, s_i random units, 1 on the
    vertices: the same algebra, with entries spread over [0, p)."""
    p = a.p
    s = rng.integers(1, p, size=a.dim)
    s[: a.num_vertices] = 1
    inv = np.array([pow(int(v), p - 2, p) for v in s])
    return a.table * s[:, None, None] % p * s[None, :, None] % p * inv % p


def _rebased(a, rng):
    """a's table on the basis b'_i = b_i + sum_{j > i} q_ij b_j, the q_ij
    random on the radical: the same algebra, with few zero products."""
    p, d, k = a.p, a.dim, a.num_vertices
    nil = np.triu(rng.integers(0, p, size=(d, d)), 1)
    nil[:k] = nil[:, :k] = 0
    q = (np.eye(d, dtype=np.int64) + nil) % p
    q_inv, term, minus = np.eye(d, dtype=np.int64), np.eye(d, dtype=np.int64), (p - nil) % p
    for _ in range(d):  # (1 + N)^-1 = sum of (-N)^n, and N^d = 0
        term = matmul_mod(term, minus, p)
        q_inv = (q_inv + term) % p
    t = matmul_mod(q, a.table.reshape(d, d * d), p).reshape(d, d, d)
    t = matmul_mod(q, t.transpose(1, 0, 2).reshape(d, d * d), p).reshape(d, d, d)
    return np.ascontiguousarray(matmul_mod(t.transpose(1, 0, 2), q_inv, p))


@pytest.mark.parametrize("budget", [None, 1, 1 << 8, 1 << 14],
                         ids=["default", "one-a", "2^8", "2^14"])
def test_associativity_check_agrees_with_the_dense_loop(budget, n22, n32, a3_rebased,
                                                        monkeypatch):
    # Each algebra on two bases, then single-entry corruptions of radical
    # products, which leave identity, idempotents and grading intact.  The
    # constructor must reject with "associativity" exactly when the dense
    # loop finds a failing triple.  The algebras cover the three tiers of
    # matmul_mod: float64 at dim 42, int64 at p = 33554393 and the split
    # products at p = 2**31 - 1.  Small budgets cut the a's into blocks.
    cases = [(n22, 20), (n32, 20), (a3_rebased[0], 20), (build_nakayama(6, 6), 4),
             (_relations_algebra(33554393), 15), (_relations_algebra(2**31 - 1), 15)]
    if budget is not None:
        monkeypatch.setattr(algebra_module, "_ASSOC_BLOCK_ENTRIES", budget)
    rng = np.random.default_rng(2016)
    seen = []
    for a, count in cases:
        k, d, p, gens = a.num_vertices, a.dim, a.p, a.generator_indices()
        for table in (_rescaled(a, rng), _rebased(a, rng)):
            assert _dense_associative(table, gens, p)
            Algebra(a.field, table, a.labels, a.path_lengths, k)
            for _ in range(count):
                bad = table.copy()
                x, y, z = rng.integers(k, d, size=3)
                bad[x, y, z] = (bad[x, y, z] + rng.integers(1, p)) % p
                try:
                    Algebra(a.field, bad, a.labels, a.path_lengths, k)
                    associates = True
                except ValueError as err:  # a later check may reject it too
                    associates = "associativity" not in str(err)
                assert associates == _dense_associative(bad, gens, p), (a, x, y, z)
                seen.append(associates)
    assert True in seen and False in seen


@pytest.mark.parametrize("budget,blocks", [(None, 1), (1 << 14, 9), (1, 42)],
                         ids=["default", "2^14", "one-a"])
def test_associativity_check_runs_in_blocks_of_a(budget, blocks, monkeypatch):
    # Nakayama (6, 6) is one block at the default budget; each block is one
    # product per side.  The identity check adds up rows of the table and
    # makes no product.
    if budget is not None:
        monkeypatch.setattr(algebra_module, "_ASSOC_BLOCK_ENTRIES", budget)
    calls = []
    monkeypatch.setattr(algebra_module, "matmul_mod",
                        lambda x, y, p: calls.append(x.shape) or matmul_mod(x, y, p))
    a = build_nakayama(6, 6)
    calls.clear()
    a._verify_structure()
    assert len(calls) == 2 * blocks


def test_failure_seen_only_where_a_product_is_zero_is_rejected():
    # Basis e, x, y, z, w with y * y = z, x * z = w and every other product of
    # radical elements zero.  Every triple with a * b != 0 associates, so
    # only the right side at x * y = 0 sees (x y) y = 0 != w = x (y y).
    t = np.zeros((5, 5, 5), dtype=np.int64)
    for i in range(5):
        t[0, i, i] = t[i, 0, i] = 1
    t[2, 2, 3] = t[1, 3, 4] = 1
    for a in range(5):
        for b in range(5):
            if t[a, b].any():
                for g in range(3):  # e, x and y generate
                    assert np.array_equal(t[a, b] @ t[:, g] % P, t[b, g] @ t[a] % P)
    assert not _dense_associative(t, np.arange(3), P)
    with pytest.raises(ValueError, match="associativity"):
        Algebra(PrimeField(P), t, ["e0", "x", "y", "z", "w"], np.array([0, 1, 1, 2, 3]), 1)


@pytest.mark.parametrize("side", ["left", "right"])
def test_identity_failing_on_one_side_is_rejected(n32, side):
    # e0 * a0 (left) or a0 * e1 (right) gains a term.  1 * b adds up the
    # rows e_i * b and a * 1 the rows a * e_i, so only the entries with a
    # vertex on that side of a radical element move 1 * a0 or a0 * 1 alone.
    x = n32.labels.index("a0")
    bad = n32.table.copy()
    entry = (0, x) if side == "left" else (x, 1)
    bad[entry] = (bad[entry] + _unit(x, n32.dim)) % P
    one = n32.one
    for y in range(n32.dim):
        left_ok = np.array_equal(np.einsum("i,j,ijf->f", one, _unit(y, n32.dim), bad) % P,
                                 _unit(y, n32.dim))
        right_ok = np.array_equal(np.einsum("i,j,ijf->f", _unit(y, n32.dim), one, bad) % P,
                                  _unit(y, n32.dim))
        assert (left_ok, right_ok) == ((y != x, True) if side == "left" else (True, y != x))
    with pytest.raises(ValueError, match=r"^identity check failed$"):
        Algebra(n32.field, bad, n32.labels, n32.path_lengths, n32.num_vertices)


def test_idempotent_failure_names_the_first_pair(n32):
    # e1 * e0 = v, balanced by e2 * e0 = -v, e1 * e2 = -v and e2 * e2 = e2 + v,
    # so that 1 is still a two-sided identity; e0 * e_j are all intact.
    bad = n32.table.copy()
    v = _unit(3, n32.dim)
    for i, j, sign in [(1, 0, 1), (2, 0, -1), (1, 2, -1), (2, 2, 1)]:
        bad[i, j] = (bad[i, j] + sign * v) % P
    with pytest.raises(ValueError, match=r"^idempotent check failed at e1 \* e0$"):
        Algebra(n32.field, bad, n32.labels, n32.path_lengths, n32.num_vertices)


def test_table_not_generated_in_length_one_is_rejected():
    # Basis e, x, y, z, w with y * y = z, z * y = w and every other product
    # of radical elements zero.  Everything times the generators e and x
    # associates, yet (y y) y = w != 0 = y (y y); only the check that e and
    # x generate the algebra sees it.
    t = np.zeros((5, 5, 5), dtype=np.int64)
    for i in range(5):
        t[0, i, i] = t[i, 0, i] = 1
    t[2, 2, 3] = t[3, 2, 4] = 1
    with pytest.raises(ValueError, match="do not generate"):
        Algebra(PrimeField(P), t, ["e0", "x", "y", "z", "w"], np.array([0, 1, 2, 2, 3]), 1)


def test_non_nilpotent_radical_is_rejected():
    # Basis e, x with x * x = x: the identity, idempotent, degree-zero,
    # generation and associativity checks all pass, but rad^n = F x for all n.
    t = np.zeros((2, 2, 2), dtype=np.int64)
    t[0, 0, 0] = t[0, 1, 1] = t[1, 0, 1] = t[1, 1, 1] = 1
    with pytest.raises(ValueError, match="radical chain fails to shrink"):
        Algebra(PrimeField(P), t, ["e0", "x"], np.array([0, 1]), 1)


def test_describe_mentions_shape(n32):
    text = n32.describe()
    assert "dim 9" in text and "GF(5)" in text
