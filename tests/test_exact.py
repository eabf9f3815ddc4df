"""Exactness on the whole prime range p < 2**31.

Every modular product goes through linalg.matmul_mod.  The property tests
compare it, on its float64, int64 and split tiers, and the eliminations
built on it, with Python-int references; the regression tests run modules
and checkers at p = 2**31 - 1, where an unreduced int64 product of two
entries already overflows after two terms.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewy import (
    Algebra,
    Arrow,
    Module,
    Quiver,
    Relation,
    a_dual,
    build_nakayama,
    build_path_algebra,
    default_corpus,
    expected_delta_table,
    expected_nakayama_shift,
    f_dual,
    find_isomorphism,
    hom_space,
    layer_table,
    nakayama,
    projective,
    radical_n,
    regular_module,
    run_corpus,
    socle_n,
    spec_to_algebra,
    verify_adjunction,
    verify_duality_lemmas,
    verify_landrock,
    verify_main_theorem,
    verify_nakayama_identity,
)
from loewy import linalg
from loewy.linalg import _BLAS_MIN_WORK, Subspace, kernel, matmul_mod, rref

P_MAX = 2**31 - 1
# Small, mid-size and near-2**31 primes: inner * (p - 1)**2 crosses 2**63 at
# inner = 2 for the last two, at 8193 for 33554393, and never for the rest.
# It reaches 2**53 - p, where matmul_mod leaves float64 for int64, at
# inner = 1 for the last two, at 9 for 33554393, at 2098177 for 65521, and
# only past 5 * 10**14 inner terms for 2 and 5.
PRIMES = [2, 5, 65521, 33554393, 2147483629, P_MAX]

exact = settings(max_examples=60, deadline=None, database=None, derandomize=True)


def _ref_matmul(x, y, p):
    """(x @ y) mod p in Python integers."""
    out = (np.asarray(x).astype(object) @ np.asarray(y).astype(object)) % p
    return np.asarray(out, dtype=np.int64)


def _ref_rref(m, p):
    """Gauss-Jordan elimination in Python integers: (rows, pivots)."""
    m = [[int(x) % p for x in row] for row in m]
    ncols = len(m[0]) if m else 0
    pivots, lead = [], 0
    for col in range(ncols):
        piv = next((r for r in range(lead, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[lead], m[piv] = m[piv], m[lead]
        inv = pow(m[lead][col], p - 2, p)
        m[lead] = [x * inv % p for x in m[lead]]
        for r in range(len(m)):
            if r != lead and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[lead])]
        pivots.append(col)
        lead += 1
    return m, pivots


def _operand(rng, p, shape, extreme):
    """Entries in [0, p); with extreme, about half of them are p - 1."""
    x = rng.integers(0, p, size=shape, dtype=np.int64)
    if extreme:
        x[rng.random(shape) < 0.5] = p - 1
    return x


@exact
@given(p=st.sampled_from(PRIMES), n=st.integers(0, 4), inner=st.integers(0, 12),
       m=st.integers(0, 4), seed=st.integers(0, 2**32 - 1), extreme=st.booleans())
def test_matmul_mod_matches_python_integers(p, n, inner, m, seed, extreme):
    rng = np.random.default_rng(seed)
    x = _operand(rng, p, (n, inner), extreme)
    y = _operand(rng, p, (inner, m), extreme)
    assert np.array_equal(matmul_mod(x, y, p), _ref_matmul(x, y, p))


@exact
@given(p=st.sampled_from(PRIMES), seed=st.integers(0, 2**32 - 1), extreme=st.booleans())
def test_matmul_mod_keeps_matmul_semantics(p, seed, extreme):
    rng = np.random.default_rng(seed)
    stack = _operand(rng, p, (3, 2, 5), extreme)
    mat = _operand(rng, p, (5, 4), extreme)
    vec = _operand(rng, p, (5,), extreme)
    cases = [(stack, mat), (mat.T, stack.transpose(0, 2, 1)), (vec, mat), (stack, vec), (vec, vec),
             (stack[:, None], stack.transpose(0, 2, 1)[None])]
    for x, y in cases:
        got = matmul_mod(x, y, p)
        want = (x.astype(object) @ y.astype(object)) % p
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, np.asarray(want, dtype=np.int64))


@pytest.mark.parametrize("p", [33554393, 2147483629, P_MAX])
@pytest.mark.parametrize("inner", [8192, 8193, 65536, 65537, 2 * 65536 + 3])
def test_matmul_mod_long_inner_dimension(p, inner):
    # Both sides of the 2**63 bound at p = 33554393, and more inner terms
    # than one int64 chunk of the split path holds.
    rng = np.random.default_rng(inner)
    x = _operand(rng, p, (2, inner), extreme=True)
    y = _operand(rng, p, (inner, 3), extreme=True)
    assert np.array_equal(matmul_mod(x, y, p), _ref_matmul(x, y, p))


# (p, inner) on the float64 tier, and at 33554393 on both sides of its
# 2**53 bound: inner 8 is the last on float64, inner 9 runs in int64.
TIER_CASES = [(2, 40), (5, 40), (65521, 40), (33554393, 8), (33554393, 9)]


# (leading axes of x, leading axes of y): x of ndim 1, 2 and 3 against a
# matrix y; then against a stacked y, x 2-D, 3-D and 1-D, and a pair that
# numpy broadcasts to the leading axes (3, 4).
TIER_LAYOUTS = [((), ()), ((2,), ()), ((3, 2), ()),
                ((2,), (3,)), ((3, 2), (3,)), ((), (3,)), ((3, 1, 2), (4,))]


@settings(exact, max_examples=60)
@given(case=st.sampled_from(TIER_CASES), layout=st.sampled_from(TIER_LAYOUTS),
       extra=st.integers(0, 20), seed=st.integers(0, 2**32 - 1), extreme=st.booleans())
def test_matmul_mod_float_tier_matches_python_integers(case, layout, extra, seed, extreme):
    # At least _BLAS_MIN_WORK multiply-adds in x.size * cols alone, so that
    # the first four cases run on the float64 tier in every layout.
    p, inner = case
    x_lead, y_lead = layout
    cols = -(-_BLAS_MIN_WORK // (int(np.prod(x_lead)) * inner)) + extra
    rng = np.random.default_rng(seed)
    x = _operand(rng, p, x_lead + (inner,), extreme)
    y = _operand(rng, p, y_lead + (inner, cols), extreme)
    got, want = matmul_mod(x, y, p), _ref_matmul(x, y, p)
    assert got.shape == want.shape and got.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("inner", [8, 9])
def test_matmul_mod_at_the_float64_bound(inner):
    # At p = 33554393 a sum of 9 products of entries near p is above 2**53,
    # where float64 would round half of such sums.
    p = 33554393
    rng = np.random.default_rng(inner)
    x = rng.integers(p - 64, p, size=(64, inner), dtype=np.int64)
    y = rng.integers(p - 64, p, size=(inner, 200), dtype=np.int64)
    assert np.array_equal(matmul_mod(x, y, p), _ref_matmul(x, y, p))


@pytest.mark.parametrize("p", [5, 33554393])
def test_matmul_mod_zero_size_rows_and_columns(p):
    rng = np.random.default_rng(p)
    y = _operand(rng, p, (8, 1200), extreme=True)
    for x in (np.zeros((0, 8), dtype=np.int64), np.zeros((3, 0, 8), dtype=np.int64)):
        assert matmul_mod(x, y, p).shape == x.shape[:-1] + (1200,)
    x = _operand(rng, p, (3, 1100, 8), extreme=True)
    assert matmul_mod(x, y[:, :0], p).shape == (3, 1100, 0)
    empty = matmul_mod(np.zeros((1100, 0), dtype=np.int64), np.zeros((0, 8), dtype=np.int64), p)
    assert np.array_equal(empty, np.zeros((1100, 8), dtype=np.int64))


STRUCTURES = ["dependent", "sparse 0/1", "reduced", "repeated rows", "unit pivots",
              "out of range"]


def _structured(rng, p, shape, extreme, structure):
    """A matrix of the given structure; rref shortcuts pivots that are 1,
    pivot columns with no other nonzero, and entries already in [0, p)."""
    rows, cols = shape
    m = _operand(rng, p, shape, extreme)
    if structure == "dependent" and rows > 1:
        m[-1] = _ref_matmul(_operand(rng, p, (rows - 1,), extreme), m[:-1], p)
    elif structure == "sparse 0/1":
        m = (rng.random(shape) < 0.3).astype(np.int64)
    elif structure == "reduced":
        m = np.array(_ref_rref(m, p)[0], dtype=np.int64).reshape(shape)
    elif structure == "repeated rows" and rows:
        m = m[rng.integers(0, max(1, rows // 2), size=rows)]
    elif structure == "unit pivots" and cols:
        for i, lead in enumerate(rng.integers(0, cols, size=rows)):
            m[i, :lead], m[i, lead] = 0, 1
    elif structure == "out of range":
        m = rng.integers(-3 * p, 3 * p, size=shape, dtype=np.int64)
    return m


@settings(exact, max_examples=240)
@given(p=st.sampled_from(PRIMES), rows=st.integers(0, 7), cols=st.integers(0, 7),
       seed=st.integers(0, 2**32 - 1), extreme=st.booleans(),
       structure=st.sampled_from(STRUCTURES))
def test_rref_and_kernel_match_python_integers(p, rows, cols, seed, extreme, structure):
    rng = np.random.default_rng(seed)
    m = _structured(rng, p, (rows, cols), extreme, structure)
    r, pivots = rref(m, p)
    ref, ref_pivots = _ref_rref(m, p)
    assert pivots == ref_pivots
    assert r.tolist() == ref
    ker = kernel(m, p)
    assert ker.basis.shape == (cols - len(ref_pivots), cols)
    assert not _ref_matmul(m, ker.basis.T, p).any()
    # The basis is the canonical one: its own reduced row-echelon form.
    assert (ker.basis.tolist(), ker.pivots) == _ref_rref(ker.basis, p)


@pytest.mark.parametrize("p", [5, P_MAX])
def test_rref_leaves_a_read_only_argument_unchanged(p):
    rng = np.random.default_rng(p)
    basis = Subspace.from_rows(_operand(rng, p, (4, 6), extreme=False), 6, p).basis
    raw = rng.integers(-p, 2 * p, size=(5, 6), dtype=np.int64)
    raw.flags.writeable = False
    for m in (basis, raw):  # reduced and in [0, p), then neither
        before = m.copy()
        r, pivots = rref(m, p)
        assert np.array_equal(m, before) and not m.flags.writeable
        assert r.flags.writeable and not np.shares_memory(r, m)
        assert (r.tolist(), pivots) == _ref_rref(m, p)


@exact
@given(p=st.sampled_from(PRIMES), dim=st.integers(0, 5), ambient=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), extreme=st.booleans())
def test_reduce_matches_python_integers(p, dim, ambient, seed, extreme):
    rng = np.random.default_rng(seed)
    s = Subspace.from_rows(_operand(rng, p, (dim, ambient), extreme), ambient, p)
    v = _operand(rng, p, (6, ambient), extreme)
    want = [[int(x) for x in row] for row in v]
    for row in want:
        for i, c in enumerate(s.pivots):
            f = row[c]
            row[:] = [(a - f * int(b)) % p for a, b in zip(row, s.basis[i])]
    assert s.reduce(v).tolist() == want
    inside = _ref_matmul(_operand(rng, p, (6, s.dim), extreme), s.basis, p)
    assert not s.reduce(inside).any()
    assert all(s.contains_vector(w) for w in inside)


@exact
@given(p=st.sampled_from(PRIMES), ambient=st.integers(1, 7), ds=st.integers(0, 5),
       dt=st.integers(0, 5), shared=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       extreme=st.booleans())
def test_intersect_matches_python_integers(p, ambient, ds, dt, shared, seed, extreme):
    rng = np.random.default_rng(seed)
    common = _operand(rng, p, (shared, ambient), extreme)
    s_rows = np.vstack([common, _operand(rng, p, (ds, ambient), extreme)])
    t_rows = np.vstack([_ref_matmul(_operand(rng, p, (shared, shared), extreme), common, p),
                        _operand(rng, p, (dt, ambient), extreme)])
    s, t = Subspace.from_rows(s_rows, ambient, p), Subspace.from_rows(t_rows, ambient, p)
    meet = s.intersect(t)
    rank_sum = len(_ref_rref(np.vstack([s.basis, t.basis]), p)[1])
    assert meet.dim == s.dim + t.dim - rank_sum
    for w in (s, t):
        assert len(_ref_rref(np.vstack([w.basis, meet.basis]), p)[1]) == w.dim


def _ref_inverse(m, p):
    d = len(m)
    aug, pivots = _ref_rref(np.hstack([m, np.eye(d, dtype=np.int64)]), p)
    assert pivots[:d] == list(range(d))
    return np.array([row[d:] for row in aug], dtype=np.int64)


def test_regular_cube_in_a_random_basis_at_the_largest_prime():
    a = build_nakayama(1, 1, P_MAX)  # F[x]/(x^2)
    d = 3 * a.dim
    action = np.zeros((a.dim, d, d), dtype=np.int64)
    for b in range(3):
        action[:, 2 * b:2 * b + 2, 2 * b:2 * b + 2] = regular_module(a).action
    rng = np.random.default_rng(3)
    q = _operand(rng, P_MAX, (d, d), extreme=False)
    q_inv = _ref_inverse(q, P_MAX)
    conjugated = np.array([_ref_matmul(_ref_matmul(q_inv, g, P_MAX), q, P_MAX) for g in action])
    v = Module(a, conjugated)
    assert len(hom_space(v, v)) == 9 * a.dim  # End(A^3) = M_3(A)


def test_contains_vector_has_no_false_negatives_at_the_largest_prime():
    rng = np.random.default_rng(0)
    s = Subspace.from_rows(_operand(rng, P_MAX, (4, 8), extreme=False), 8, P_MAX)
    assert s.dim == 4
    probes = _ref_matmul(_operand(rng, P_MAX, (100, 4), extreme=False), s.basis, P_MAX)
    assert all(s.contains_vector(v) for v in probes)


def test_nakayama_family_at_the_largest_prime():
    k, ell = 2, 2
    a = build_nakayama(k, ell, P_MAX)
    for check in (verify_main_theorem, verify_landrock, verify_nakayama_identity,
                  verify_adjunction, verify_duality_lemmas):
        assert check(a).status == "pass", check.__name__
    projectives = [projective(a, j) for j in range(k)]
    assert layer_table(projectives, "radical") == expected_delta_table(k, ell)
    for j in range(k):
        shifted = projectives[expected_nakayama_shift(k, ell, j)]
        assert find_isomorphism(nakayama(projectives[j]), shifted).status == "yes"


def _rebased(v, rng):
    """v in a random basis, as a checked Module: actions q^-1 M q."""
    p = v.algebra.p
    while True:
        q = _operand(rng, p, (v.dim, v.dim), extreme=False)
        if len(_ref_rref(q, p)[1]) == v.dim:
            break
    q_inv = _ref_inverse(q, p)
    return Module(v.algebra, [_ref_matmul(_ref_matmul(q_inv, g, p), q, p) for g in v.action])


def test_a_module_in_a_random_basis_takes_the_elimination_route():
    a = build_nakayama(3, 3)
    rng = np.random.default_rng(11)
    for v in (projective(a, 1), f_dual(projective(a, 2)), a_dual(projective(a, 0)),
              regular_module(a)):
        w = _rebased(v, rng)
        assert v._vertex_basis()[2] is not None and w._vertex_basis()[2] is None
        for kind in ("radical", "socle"):
            assert layer_table([w], kind) == layer_table([v], kind)


@pytest.mark.parametrize("p", [2, 5, P_MAX])
def test_layer_table_matches_python_ranks_in_bases_not_adapted_to_the_vertices(p):
    # Two vertices, a double arrow, a loop and a two-term relation: dim 13.
    quiver = Quiver(2, [Arrow("a0", 1, 0), Arrow("a1", 1, 0), Arrow("a2", 1, 1),
                        Arrow("a3", 0, 1)])
    a = build_path_algebra(quiver, [Relation.of((1, ["a2", "a1"]), (1, ["a2", "a0"]))], 3, p)
    rng = np.random.default_rng(p)
    regular = _rebased(regular_module(a), rng)
    p1 = projective(a, 1)
    sum_action = np.zeros((a.dim, 2 * p1.dim, 2 * p1.dim), dtype=np.int64)
    sum_action[:, :p1.dim, :p1.dim] = sum_action[:, p1.dim:, p1.dim:] = p1.action
    modules = [regular, a_dual(regular), f_dual(regular), _rebased(Module(a, sum_action), rng)]
    for v in modules:
        for kind, term in (("radical", radical_n), ("socle", socle_n)):
            # dims[j][n] = dim(term_n e_j), by Python-int ranks
            dims = np.array([[len(_ref_rref(_ref_matmul(term(v, n).basis, e, p), p)[1])
                              for n in range(a.loewy_length + 1)] for e in v.action[:2]])
            steps = np.diff(dims, axis=1)
            want = -steps if kind == "radical" else steps
            assert np.array_equal(layer_table([v], kind).table[0], want), (v, kind)


LARGE_SPEC = {  # dim 13 over GF(33554393), with a two-term relation
    "field": {"p": 33554393},
    "quiver": {"vertices": 2, "arrows": [
        {"name": "a0", "source": 1, "target": 0}, {"name": "a1", "source": 1, "target": 0},
        {"name": "a2", "source": 1, "target": 1}, {"name": "a3", "source": 0, "target": 1}]},
    "relations": [[{"coeff": 9723458, "path": ["a2", "a1"]},
                   {"coeff": 31088404, "path": ["a2", "a0"]}]],
    "truncation": 3,
}


def _tier_reports():
    """run_corpus on algebras built afresh, so that no cache carries over."""
    entries = [e for e in default_corpus(seed=2) if e[0].startswith("random-0")]
    entries += [("nakayama-4-4", build_nakayama(4, 4)),
                ("nakayama-3-3-large", build_nakayama(3, 3, 33554393))]
    return [r.to_dict() for r in run_corpus(entries)]


def test_the_float64_tier_changes_no_result(monkeypatch):
    # Every product in float64 where it is exact, then every product in
    # int64: the builds and all five checkers report the same.
    monkeypatch.setattr(linalg, "_BLAS_MIN_WORK", 1)
    on_float64 = _tier_reports()
    monkeypatch.setattr(linalg, "_BLAS_MIN_WORK", 2**62)
    assert _tier_reports() == on_float64


def test_every_product_keeps_its_operands_in_range(monkeypatch, a3_rebased):
    # The float64 tier of matmul_mod is exact only for int64 entries in
    # [0, p), its documented precondition.  Every binding of it in loewy is
    # wrapped, and whole runs over three algebras build and check them.
    def checked(x, y, p):
        for v in (x, y):
            assert v.dtype == np.int64, v.dtype
            assert not v.size or (v.min() >= 0 and v.max() < p), (v.min(), v.max(), p)
        return matmul_mod(x, y, p)

    bound = [m for name, m in sys.modules.items()
             if name.startswith("loewy.") and getattr(m, "matmul_mod", None) is matmul_mod]
    assert {m.__name__ for m in bound} >= {"loewy.linalg", "loewy.algebra", "loewy.modules"}
    for m in bound:
        monkeypatch.setattr(m, "matmul_mod", checked)
    rebased = a3_rebased[0]
    entries = [("nakayama-6-6", build_nakayama(6, 6)),
               ("large-prime", spec_to_algebra(LARGE_SPEC)),
               ("a3-rebased", Algebra(rebased.field, rebased.table, rebased.labels,
                                      rebased.path_lengths, rebased.num_vertices))]
    assert "fail" not in [r.status for r in run_corpus(entries)]
