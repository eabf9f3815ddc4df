"""is_symmetric against an enumerating reference and the Nakayama closed form.

The reference is the search is_symmetric replaced: try every form that
vanishes on commutators and rank-test its Gram matrix.  It is definitive
only when the p**m forms can all be tried, so agreement is asserted there.
Every "yes" witness is re-checked with Python-int arithmetic.
"""

import numpy as np
import pytest

from loewy import build_nakayama, default_corpus, is_symmetric, linear_quiver_algebra
from loewy import algebra as algebra_module
from loewy.linalg import kernel, rref

REFERENCE_LIMIT = 4096


def reference_status(a, limit=REFERENCE_LIMIT):
    """"yes"/"no" by trying all forms vanishing on commutators, or None when
    there are more than limit of them."""
    p, d, t = a.p, a.dim, a.table
    cand = kernel((t - t.transpose(1, 0, 2)).reshape(d * d, d) % p, p)
    m = cand.dim
    if p**m > limit:
        return None

    def nondegenerate(lam):
        return len(rref(np.tensordot(t, lam, axes=([2], [0])) % p, p)[1]) == d

    for coeffs in np.ndindex(*([p] * m)):
        c = np.array(coeffs, dtype=np.int64)
        if c.any() and nondegenerate((c @ cand.basis) % p):
            return "yes"
    return "no"


def exact_rank(rows, p):
    """Rank over GF(p) by Gaussian elimination on Python ints."""
    m = [[int(x) % p for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        lead = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], lead)]
        m[rank] = lead
        rank += 1
    return rank


def check_witness(a, form):
    """form(xy) = form(yx) on basis pairs, and its Gram matrix has full rank."""
    p, d = a.p, a.dim
    lam = [int(x) for x in form]
    t = a.table.tolist()
    gram = [[sum(c * l for c, l in zip(t[x][y], lam)) % p for y in range(d)] for x in range(d)]
    assert all(gram[x][y] == gram[y][x] for x in range(d) for y in range(d))
    assert exact_rank(gram, p) == d


def decide(a):
    res = is_symmetric(a)
    assert res.status in ("yes", "no")
    if res.status == "yes":
        check_witness(a, res.form)
    else:
        assert res.form is None
    return res.status


@pytest.fixture(scope="module")
def algebras():
    """default_corpus(seed=2) and the Nakayama algebras with k, ell <= 4."""
    return ([a for _, a in default_corpus(seed=2)]
            + [build_nakayama(k, ell) for k in range(1, 5) for ell in range(1, 5)])


def test_agrees_with_enumeration(algebras):
    compared = 0
    for a in algebras:
        want = reference_status(a)
        if want is not None:
            assert decide(a) == want
            compared += 1
    assert compared >= 30


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_nakayama_closed_form(p):
    # k > p included: there the line search may fail and the image of phi
    # is enumerated
    for k in range(1, 7):
        for ell in range(1, 7):
            assert decide(build_nakayama(k, ell, p)) == ("yes" if ell % k == 0 else "no")


def test_corpus_seed0_is_decided(corpus0):
    statuses = {name: decide(a) for name, a in corpus0}
    # the random trials answered "unknown" on these
    for t in (0, 3, 7, 8, 10, 11, 15):
        assert statuses[f"random-{t:02d}"] in ("yes", "no")


def _reference_socle(a):
    """soc(A_A) as the x with x * r = 0 for every radical basis element r."""
    p, d, k, t = a.p, a.dim, a.num_vertices, a.table
    return kernel(t[:, k:, :].transpose(1, 2, 0).reshape((d - k) * d, d), p)


def _socle_lines(a):
    """dim soc(A_A) e_j for each vertex j."""
    socle, p, t = _reference_socle(a), a.p, a.table
    return [len(rref(socle.basis @ t[:, j, :] % p, p)[1]) for j in range(a.num_vertices)]


def test_socle_from_the_arrow_blocks_is_the_socle_from_the_radical(algebras, a3_rebased):
    for a in algebras + [a3_rebased[0]]:  # the last is not on a path basis
        assert algebra_module._right_socle(a) == _reference_socle(a)


def test_no_when_the_socle_repeats_or_misses_a_simple(monkeypatch):
    a2 = linear_quiver_algebra(2, 2)
    assert _socle_lines(a2) == [0, 2]
    monkeypatch.setattr(algebra_module, "_nonvanishing_combination", None)
    assert is_symmetric(a2).status == "no"


def test_no_when_every_symmetric_form_kills_a_socle_line(monkeypatch):
    # Nakayama (3, 2) is self-injective: each soc(A_A) e_j is a line s_j F,
    # but s_j = e_i * path * e_j with i != j is a commutator, so phi_j = 0
    n32 = build_nakayama(3, 2)
    assert _socle_lines(n32) == [1, 1, 1]
    monkeypatch.setattr(algebra_module, "_nonvanishing_combination", None)
    assert is_symmetric(n32).status == "no"


def test_nonvanishing_combination_falls_back_to_enumeration(monkeypatch):
    find = algebra_module._nonvanishing_combination
    # over GF(2) the line search fixes column 0 with row 0 and then breaks it
    # again with row 1; rows 0 + 2 give (1, 1)
    phi = np.array([[1, 0], [1, 1], [0, 1]])
    for points in (1 << 16, 2):  # one block of points, then one point per block
        monkeypatch.setattr(algebra_module, "_GRID_POINTS", points)
        c = find(phi, 2)
        assert ((c @ phi) % 2).all()
    # (c0 + c1, c1, c0) has a zero entry for every c over GF(2) ...
    phi = np.array([[1, 0, 1], [1, 1, 0]])
    assert find(phi, 2) is None
    # ... but not over GF(3)
    assert ((find(phi, 3) @ phi) % 3).all()
