"""Theorems that hold for every basic algebra, asserted over default_corpus(seed=0),
the checkers on a weakly symmetric algebra that is not symmetric,
symmetry decided once per algebra, with A^op symmetric exactly when A is,
and the stacked duality checker against the explicit duality maps."""

import itertools

import numpy as np
import pytest

from loewy import (
    build_nakayama,
    dual_layer_iso,
    dual_socle_capital_iso,
    f_dual,
    find_isomorphism,
    hom_space,
    injective,
    is_symmetric,
    layer_table,
    nakayama,
    projective,
    radical_n,
    regular_module,
    run_corpus,
    simple,
    socle_n,
    spec_to_algebra,
    subquotient,
    verify_duality_lemmas,
)
from loewy.linalg import Subspace, matmul_mod, rank
from loewy.series import _dual_of_quotient
from loewy.verify import _decide_duality
from test_exact import LARGE_SPEC


def test_nakayama_functor_sends_projectives_to_injectives(corpus0):
    for name, a in corpus0:
        for i in range(a.num_vertices):
            nu_p, inj = nakayama(projective(a, i)), injective(a, i)
            res = find_isomorphism(nu_p, inj)
            assert res.status == "yes", (name, i)
            w = res.witness
            assert w.source is nu_p and w.target is inj
            assert w.is_isomorphism()
            for g in range(a.dim):
                assert np.array_equal(nu_p.action[g] @ w.matrix % a.p,
                                      w.matrix @ inj.action[g] % a.p), (name, i, g)


def test_projectives_add_up_to_the_algebra(corpus0):
    for name, a in corpus0:
        assert sum(projective(a, i).dim for i in range(a.num_vertices)) == a.dim, name


def test_endomorphisms_of_the_regular_module(corpus0):
    # End(A_A) is A acting by left multiplication
    for name, a in corpus0:
        reg = regular_module(a)
        assert len(hom_space(reg, reg)) == a.dim, name


def test_cartan_matrix_from_idempotents(corpus0):
    # c_ij = dim e_i A e_j, from the structure tensor
    for name, a in corpus0:
        k, p, t = a.num_vertices, a.p, a.table
        cartan = np.array([[rank(t[i] @ t[:, j, :] % p, p) for j in range(k)]
                           for i in range(k)])
        ps = [projective(a, i) for i in range(k)]
        assert np.array_equal(layer_table(ps, "radical").cartan(), cartan), name


def _quantum_exterior_plane(q, p=5):
    """F<x, y>/(x^2, y^2, xy - q yx) over GF(p), of dim 4 with basis 1, x, y, xy."""
    loops = [{"name": n, "source": 0, "target": 0} for n in ("x", "y")]
    relations = [[{"coeff": 1, "path": ["x", "x"]}], [{"coeff": 1, "path": ["y", "y"]}],
                 [{"coeff": 1, "path": ["x", "y"]}, {"coeff": (p - q) % p, "path": ["y", "x"]}]]
    return spec_to_algebra({"field": {"p": p}, "quiver": {"vertices": 1, "arrows": loops},
                            "relations": relations, "truncation": 3})


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_quantum_exterior_plane_is_weakly_symmetric_and_symmetric_only_at_q_1(q):
    # One vertex, so nu(P_0) = P_0 for every q.  The Nakayama automorphism
    # scales x and y by q and 1/q, which for q != 1 no inner automorphism
    # does on rad A / rad^2 A, so the algebra is not symmetric.
    a = _quantum_exterior_plane(q)
    assert a.dim == 4
    assert is_symmetric(a).status == ("yes" if q == 1 else "no")
    p0 = projective(a, 0)
    res = find_isomorphism(nakayama(p0), p0)
    assert res.status == "yes" and res.witness.is_isomorphism()
    [report] = run_corpus([("quantum-exterior-plane", a)])
    symmetric = "pass" if q == 1 else "unknown"
    assert {c.name: c.status for c in report.checks} == {
        "main-theorem": "pass", "landrock": symmetric, "nakayama-id": symmetric,
        "adjunction": "pass", "duality": "pass"}


def test_symmetry_is_decided_once_per_algebra_and_agrees_on_the_opposite(monkeypatch):
    import loewy.algebra as algebra_module

    entries = [(f"nakayama-k{k}-l{ell}", build_nakayama(k, ell), ell % k == 0)
               for k in range(1, 5) for ell in range(1, 5)]
    entries += [(f"quantum-exterior-plane-q{q}", _quantum_exterior_plane(q), q == 1)
                for q in range(1, 5)]
    decided = []
    original = algebra_module._right_socle
    monkeypatch.setattr(algebra_module, "_right_socle",
                        lambda a: decided.append(a) or original(a))  # holding a keeps ids distinct
    run_corpus([(name, a) for name, a, _ in entries])
    results = [is_symmetric(a) for _, a, _ in entries]
    assert sorted(map(id, decided)) == sorted(id(a) for _, a, _ in entries)
    for (name, a, symmetric), res in zip(entries, results):
        assert res.status == ("yes" if symmetric else "no"), name
        assert is_symmetric(a) is res
        opp = a.opposite()
        res_opp = is_symmetric(opp)
        assert res_opp.status == res.status and is_symmetric(opp) is res_opp, name
        if symmetric:
            # l(x y) = l(y x) is the same condition over A^op, with the
            # transposed Gram matrix: the same form works for both.
            assert not res.form.flags.writeable
            assert rank(matmul_mod(opp.table, res.form, a.p), a.p) == a.dim
    assert len(decided) == 2 * len(entries)


def _iso_outcome(iso, u, n, *expected):
    """(d_lhs, d_rhs, good) for the maps eta, xi = iso(u, n): the dimensions
    of eta's source and target, and whether both equal every expected one.
    (-1, -1, False) when iso raises."""
    try:
        eta, _xi = iso(u, n)
    except ValueError:
        return -1, -1, False
    d_lhs, d_rhs = eta.source.dim, eta.target.dim
    return d_lhs, d_rhs, d_lhs == d_rhs and all(d_rhs == e for e in expected)


def _explicit_duality_rows(a):
    """verify_duality_lemmas's evidence rows from the explicit maps, one
    dual_socle_capital_iso or dual_layer_iso call per row."""
    k, L = a.num_vertices, a.loewy_length
    family = [(f"S{i}", simple(a, i)) for i in range(k)]
    family += [(f"P{i}", projective(a, i)) for i in range(k)]
    family += [(f"I{i}", injective(a, i)) for i in range(k)]
    rows = []
    for label, u in family:
        du = f_dual(u)
        for n in range(L + 1):
            rows.append((label, "socle-capital", n, *_iso_outcome(
                dual_socle_capital_iso, u, n, u.dim - radical_n(u, n).dim)))
        for n in range(1, L + 1):
            rows.append((label, "layer", n, *_iso_outcome(
                dual_layer_iso, u, n, socle_n(u, n).dim - socle_n(u, n - 1).dim,
                radical_n(du, n - 1).dim - radical_n(du, n).dim)))
    return rows


def test_stacked_duality_checker_matches_the_explicit_maps(corpus0, a3_rebased):
    # The large prime keeps every product in int64; a3_rebased is not
    # vertex-adapted; the quantum exterior plane has one vertex and two loops.
    entries = [(f"nakayama-{k}-{ell}", build_nakayama(k, ell))
               for k in range(1, 5) for ell in range(1, 5)]
    entries += list(corpus0)
    entries += [("large-prime", spec_to_algebra(LARGE_SPEC)),
                ("nakayama-3-3-large", build_nakayama(3, 3, 33554393))]
    entries.append(("a3-rebased", a3_rebased[0]))
    entries += [(f"quantum-exterior-plane-q{q}", _quantum_exterior_plane(q)) for q in (1, 2)]
    for name, a in entries:
        check = verify_duality_lemmas(a).checks[0]
        want = _explicit_duality_rows(a)
        assert check.evidence == want, name
        assert check.status == "pass" and all(row[-1] for row in want), name


def _explicit_outcome(item):
    """The row that dual_socle_capital_iso or dual_layer_iso would give if
    the series returned the terms (W, W', V, V') of item: checked subquotients
    W/W' of U and V/V' of DU, the maps between them, and for a layer the
    annihilator test first."""
    kind, u, du, (w, w1, v, v1) = item
    expected = [w.dim - w1.dim]
    try:
        if kind == "layer":
            expected.append(v.dim - v1.dim)
            for soc, rad in ((w1, v), (w, v1)):
                if soc.dim + rad.dim != u.dim or matmul_mod(soc.basis, rad.basis.T, u.algebra.p).any():
                    raise ValueError("dual radical series does not annihilate the socle series")
        forward, backward = _dual_of_quotient(subquotient(u, w, w1), subquotient(du, v, v1))
    except ValueError:
        return -1, -1, False
    eta = forward if kind == "layer" else backward
    d_lhs, d_rhs = eta.source.dim, eta.target.dim
    return d_lhs, d_rhs, d_lhs == d_rhs and all(d_rhs == e for e in expected)


def _invariant_subspaces_and_a_line(v):
    """Every subspace of v that the generators map into itself, found by
    running over the reduced row-echelon forms (pivots, then the entries
    right of each pivot off the other pivots), then a coordinate line that
    is none of them."""
    d, p = v.dim, v.algebra.p
    gens = v.action[v.algebra.generator_indices()]
    found = []
    for r in range(d + 1):
        for pivots in itertools.combinations(range(d), r):
            free = [(i, c) for i, pc in enumerate(pivots) for c in range(pc + 1, d) if c not in pivots]
            for values in itertools.product(range(p), repeat=len(free)):
                basis = np.eye(d, dtype=np.int64)[list(pivots)]
                for (i, c), x in zip(free, values):
                    basis[i, c] = x
                w = Subspace.from_rows(basis, d, p)
                if not r or w.contains_vector(matmul_mod(basis, gens, p).reshape(-1, d)):
                    found.append(w)
    eye = np.eye(d, dtype=np.int64)
    lines = (Subspace.from_rows(eye[[c]], d, p) for c in range(d))
    return found + [next(line for line in lines if line not in found)]


def test_stacked_duality_checker_matches_the_explicit_maps_on_every_tuple_of_terms(n22, a3_rebased):
    # Tuples of invariant subspaces, a line that is not invariant and a
    # subspace of the wrong size, with quotients of equal dimension.  Most
    # are not the terms of a duality isomorphism, and each test of the
    # explicit maps rejects some that pass every other: on A_A of Nakayama
    # (2, 1) over GF(2) some maps are mutually inverse but do not
    # intertwine, and some layers fail only the pairing of soc^m U with
    # rad^m DU.  The stacked pass must reject the same.
    for u in (projective(n22, 0), projective(_quantum_exterior_plane(2), 0),
              projective(a3_rebased[0], 0), regular_module(build_nakayama(2, 1, 2))):
        du = f_dual(u)
        ours = _invariant_subspaces_and_a_line(u) + [Subspace.zero(u.dim + 1, u.algebra.p)]
        duals = _invariant_subspaces_and_a_line(du)
        items = [(kind, u, du, (w, w1, v, v1))
                 for kind in ("socle-capital", "layer")
                 for w in ours for w1 in ours for v in duals for v1 in duals
                 if w.dim - w1.dim == v.dim - v1.dim]
        rows = _decide_duality(u.algebra, items)
        assert rows == [_explicit_outcome(item) for item in items]
        assert {row[-1] for row in rows} == {True, False}
