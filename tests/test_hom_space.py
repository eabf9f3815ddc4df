"""hom_space against a reference solver that constrains every basis element.

The reference is the direct method: one Kronecker constraint
x F - F y = 0 per basis element of the algebra, over all dim U * dim V
entries of F, with the kernels intersected in basis order.  Its products
go through matmul_mod, which tests/test_exact.py pins to Python integers,
so it is exact up to p = 2**31 - 1.  It needs no
assumption about which elements generate the algebra, so it checks the
graded, arrows-only solve of hom_space matrix for matrix, also
on an algebra whose basis is not of paths and on modules in random bases,
whose vertex spaces are not spanned by coordinate vectors, and the closed
forms out of the standard projectives and into the standard injectives on
those same families, with the general solve shut off.  The action
of a_dual is checked in the same way, against the coordinates of each
left multiple F_b table[c] in the reference basis of Hom(v, A), solved by
a Python-int elimination.

The general solve, one kernel in graded coordinates, is also checked
against reference_solve_hom, the vertex-by-vertex solve it replaced,
frozen here: they span the same space on every ordered pair of many
families, and the solve makes as many products and kernels on every
quiver.
"""

import numpy as np
import pytest

from loewy import modules
from loewy import (
    Module,
    a_dual,
    build_nakayama,
    default_corpus,
    f_dual,
    hom_space,
    injective,
    linear_quiver_algebra,
    projective,
    radical_layer,
    regular_module,
    simple,
    socle_layer,
    spec_to_algebra,
)
from loewy.linalg import Subspace, kernel, matmul_mod, rref
from loewy.modules import _solve_hom
from loewy.verify import _sample_family
from test_exact import LARGE_SPEC, P_MAX, _rebased, _ref_matmul, _ref_rref
from test_modules import _direct_sum
from test_oracles import _quantum_exterior_plane


def reference_hom_basis(u, v) -> np.ndarray:
    """Reduced row-echelon basis of Hom(u, v), flattened row-major."""
    p = u.algebra.p
    du, dv = u.dim, v.dim
    n = du * dv
    if n == 0:
        return np.zeros((0, n), dtype=np.int64)
    eye_u = np.eye(du, dtype=np.int64)
    eye_v = np.eye(dv, dtype=np.int64)
    basis = None  # None means the full space of matrices
    for c in range(u.algebra.dim):
        constraint = (np.kron(u.action[c], eye_v) - np.kron(eye_u, v.action[c].T)) % p
        if not constraint.any():
            continue
        if basis is None:
            basis = kernel(constraint, p).basis
        else:
            sol = kernel(matmul_mod(constraint, basis.T, p), p)
            if sol.dim == basis.shape[0]:
                continue
            basis = rref(matmul_mod(sol.basis, basis, p), p)[0][: sol.dim]
        if basis.shape[0] == 0:
            break
    return np.eye(n, dtype=np.int64) if basis is None else basis


def _family(a):
    """Over a: simples, projectives, injectives, the regular module and every
    radical and socle layer of those.  Over the opposite algebra: a_dual(P_i),
    the simples and the linear duals of the projectives, injectives and the
    regular module."""
    k, L = a.num_vertices, a.loewy_length
    parents = [projective(a, i) for i in range(k)] + [injective(a, i) for i in range(k)]
    parents.append(regular_module(a))
    own = [simple(a, i) for i in range(k)] + parents
    for v in parents:
        own += [layer(v, n) for layer in (radical_layer, socle_layer) for n in range(1, L + 1)]
    dual = [a_dual(projective(a, i)) for i in range(k)]
    dual += [simple(a.opposite(), i) for i in range(k)] + [f_dual(v) for v in parents]
    return own, dual


def _distinct(mods):
    """One module per action tensor: many layers repeat a simple."""
    seen, out = set(), []
    for v in mods:
        key = (v.action.shape, v.action.tobytes())
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def _rebased_family(a, rng):
    """Over a: the projectives, the regular module and P_0 + P_1 (P_0 + P_0
    on one vertex), each beside a copy in a random basis, and rad A / rad^2 A
    of both regular modules.  With one vertex every basis is adapted to it,
    so a is meant to have two or more.  Over the opposite algebra: the simples and
    both duals of the rebased regular module and P_0 + P_1."""
    k = a.num_vertices
    p0, p1 = projective(a, 0), projective(a, min(1, k - 1))
    d0 = p0.dim
    sum_action = np.zeros((a.dim, d0 + p1.dim, d0 + p1.dim), dtype=np.int64)
    sum_action[:, :d0, :d0], sum_action[:, d0:, d0:] = p0.action, p1.action
    aligned = [projective(a, i) for i in range(k)] + [regular_module(a), Module(a, sum_action)]
    rebased = [_rebased(v, rng) for v in aligned]
    regular, summed = rebased[-2:]
    own = aligned + rebased + [radical_layer(aligned[-2], 2), radical_layer(regular, 2)]
    dual = [simple(a.opposite(), i) for i in range(k)]
    dual += [f(v) for v in (regular, summed) for f in (a_dual, f_dual)]
    return own, dual


def _assert_matches_reference(a, families=None) -> int:
    """Compare every ordered pair of each family, by default of _family(a);
    return how many Homs are 0."""
    zeros = 0
    for mods in families or _family(a):
        mods = _distinct(mods)
        for u in mods:
            for v in mods:
                got = hom_space(u, v)
                want = reference_hom_basis(u, v)
                assert len(got) == want.shape[0]
                for f, row in zip(got, want):
                    assert f.source is u and f.target is v
                    assert np.array_equal(f.matrix, row.reshape(u.dim, v.dim))
                zeros += not got
    return zeros


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_hom_space_matches_reference_on_nakayama(k, ell):
    zeros = _assert_matches_reference(build_nakayama(k, ell))
    assert zeros > 0 or k == 1


def _spec(p, vertices, arrows, relations, truncation):
    return {
        "field": {"p": p},
        "quiver": {
            "vertices": vertices,
            "arrows": [{"name": n, "source": s, "target": t} for n, s, t in arrows],
        },
        "relations": [
            [{"coeff": c, "path": list(path)} for c, path in rel] for rel in relations
        ],
        "truncation": truncation,
    }


def _two_vertex_spec(p):
    """Two vertices, a double arrow, a loop and a two-term relation: dim 13."""
    return _spec(p, 2, [("a0", 1, 0), ("a1", 1, 0), ("a2", 1, 1), ("a3", 0, 1)],
                 [[(1, ["a2", "a1"]), (1, ["a2", "a0"])]], 3)


# Random presentations of default_corpus(seed=2) that carry relations, the
# large-prime benchmark's random-27 (workload seed 1) over the largest prime
# below 2**25, and the dim-13 algebra of the a_dual cases below at 2**31 - 1.
WITH_RELATIONS = {
    "random-03": _spec(
        5, 3, [("a0", 2, 1), ("a1", 1, 1), ("a2", 1, 1)],
        [[(4, ["a0", "a1"])], [(3, ["a0", "a1"])]], 3),
    "random-09": _spec(
        5, 4, [("a0", 1, 0), ("a1", 1, 1), ("a2", 2, 1), ("a3", 2, 2), ("a4", 2, 2)],
        [[(3, ["a4", "a2"]), (3, ["a3", "a2"])], [(1, ["a4", "a3"])]], 3),
    "random-13": _spec(
        5, 2, [("a0", 1, 0), ("a1", 0, 1)], [[(1, ["a1", "a0", "a1"])]], 4),
    "large-random-27": _spec(
        33554393, 2, [("a0", 1, 0), ("a1", 1, 0), ("a2", 1, 1), ("a3", 0, 1)],
        [[(9723458, ["a2", "a1"]), (31088404, ["a2", "a0"])]], 3),
    "two-vertex-p-max": _two_vertex_spec(P_MAX),
}


@pytest.mark.parametrize("name", sorted(WITH_RELATIONS))
def test_hom_space_matches_reference_with_relations(name):
    a = spec_to_algebra(WITH_RELATIONS[name])
    assert a.relations
    _assert_matches_reference(a)



def test_hom_space_matches_reference_on_a_basis_that_is_not_of_paths(a3_rebased):
    a = a3_rebased[0]
    _assert_matches_reference(a)
    _assert_matches_reference(a, _rebased_family(a, np.random.default_rng(3)))


@pytest.mark.parametrize("build", [
    lambda: build_nakayama(2, 2),
    lambda: build_nakayama(3, 2, 2),
    lambda: spec_to_algebra(WITH_RELATIONS["random-09"]),
    lambda: spec_to_algebra(WITH_RELATIONS["large-random-27"]),
    lambda: spec_to_algebra(WITH_RELATIONS["two-vertex-p-max"]),
], ids=["nakayama-k2-l2", "nakayama-k3-l2-p2", "random-09", "large-random-27", "two-vertex-p-max"])
def test_hom_space_matches_reference_in_random_module_bases(build):
    a = build()
    assert _assert_matches_reference(a, _rebased_family(a, np.random.default_rng(5))) > 0


def _assert_closed_forms_match_reference(monkeypatch, families) -> int:
    """hom_space out of each standard projective and into each standard
    injective of every family's algebra, against the family's members and
    each other, equals the reference.  These are the tagged modules
    themselves, which _distinct can drop when a P_i has the action of an
    earlier simple.  kernel fails if called, so only a closed form can
    answer.  Returns the number of pairs compared."""
    def no_kernel(*args):
        raise AssertionError("hom_space solved where a closed form applies")

    pairs = []
    for mods in families:
        b, k = mods[0].algebra, mods[0].algebra.num_vertices
        ps = [projective(b, i) for i in range(k)]
        injs = [injective(b, i) for i in range(k)]
        others = _distinct(mods) + ps + injs
        pairs += [(u, v) for u in ps for v in others] + [(u, v) for v in injs for u in others]
    with monkeypatch.context() as m:
        m.setattr(modules, "kernel", no_kernel)
        got = [hom_space(u, v) for u, v in pairs]
    for (u, v), maps in zip(pairs, got):
        want = reference_hom_basis(u, v)
        assert len(maps) == want.shape[0]
        for f, row in zip(maps, want):
            assert f.source is u and f.target is v
            assert np.array_equal(f.matrix, row.reshape(u.dim, v.dim))
    return len(pairs)


CLOSED_FORM_CASES = {
    "nakayama-k1-l3": lambda: build_nakayama(1, 3),
    "nakayama-k3-l2": lambda: build_nakayama(3, 2),
    "nakayama-k2-l2-p2": lambda: build_nakayama(2, 2, 2),
    "linear-3": lambda: linear_quiver_algebra(3, 3),
    "random-09": lambda: spec_to_algebra(WITH_RELATIONS["random-09"]),
    "two-vertex-p-max": lambda: spec_to_algebra(WITH_RELATIONS["two-vertex-p-max"]),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CASES))
def test_closed_forms_match_reference(monkeypatch, name):
    a = CLOSED_FORM_CASES[name]()
    families = [*_family(a), *_rebased_family(a, np.random.default_rng(11))]
    assert _assert_closed_forms_match_reference(monkeypatch, families) > 0


def test_closed_forms_match_reference_on_a_basis_that_is_not_of_paths(monkeypatch, a3_rebased):
    a = a3_rebased[0]
    families = [*_family(a), *_rebased_family(a, np.random.default_rng(13))]
    assert _assert_closed_forms_match_reference(monkeypatch, families) > 0


def test_closed_forms_are_empty_where_v_e_i_is_zero(n32):
    k = n32.num_vertices
    for i in range(k):
        for j in range(k):
            # S_j e_i = 0, and Hom(S_j, I_i) is dual to S_j e_i.
            want = 1 if i == j else 0
            assert len(hom_space(projective(n32, i), simple(n32, j))) == want
            assert len(hom_space(simple(n32, j), injective(n32, i))) == want


def test_closed_forms_agree_with_the_solve_where_p_i_or_i_i_is_simple():
    # On 0 -> 1 -> 2, P_2 = S_2 and I_0 = S_0 as modules; the simples are
    # untagged, so hom_space solves for them.
    a = linear_quiver_algebra(3, 3)
    own = _family(a)[0]
    pairs = [(projective(a, 2), simple(a, 2)), (injective(a, 0), simple(a, 0))]
    for tagged, plain in pairs:
        assert np.array_equal(tagged.action, plain.action)
    for v in own:
        assert ([f.matrix.tolist() for f in hom_space(projective(a, 2), v)]
                == [f.matrix.tolist() for f in hom_space(simple(a, 2), v)])
        assert ([f.matrix.tolist() for f in hom_space(v, injective(a, 0))]
                == [f.matrix.tolist() for f in hom_space(v, simple(a, 0))])


def test_closed_forms_still_reject_modules_over_different_algebras(n32):
    # Where V e_i = 0 the closed forms would otherwise return [] unasked.
    other = build_nakayama(3, 2)
    cases = [(projective(n32, 0), projective(n32.opposite(), 0)),
             (projective(n32, 0), simple(other, 1)),
             (simple(other, 1), injective(n32, 0)),
             (injective(n32.opposite(), 1), injective(n32, 1))]
    for u, v in cases:
        with pytest.raises(ValueError, match="modules live over different algebras"):
            hom_space(u, v)


def reference_a_dual_action(v) -> np.ndarray:
    """action[c][b, q]: the coordinate at F_q of F_b table[c], for the basis
    F_b of Hom(v, A) from reference_hom_basis, solved in Python integers."""
    a, p = v.algebra, v.algebra.p
    basis = reference_hom_basis(v, regular_module(a))
    m = basis.shape[0]
    if m == 0:
        return np.zeros((a.dim, 0, 0), dtype=np.int64)
    moved = [_ref_matmul(f.reshape(v.dim, a.dim), a.table[c], p).reshape(-1)
             for c in range(a.dim) for f in basis]
    # x basis = y for every moved y at once: the columns of [basis^T | moved^T].
    reduced, pivots = _ref_rref(np.hstack([basis.T, np.array(moved).T]), p)
    assert pivots == list(range(m))  # the basis is independent and spans every y
    coords = np.array([row[m:] for row in reduced[:m]], dtype=np.int64)  # [q, c * m + b]
    return coords.T.reshape(a.dim, m, m)


def _assert_a_dual_matches_reference(a, rng) -> list:
    """a_dual(v).action equals the reference for the zero module, the simples,
    projectives and injectives, the regular module, and the regular module
    and P_0 + P_1 in random bases; returns the v with Hom(v, A) = 0."""
    k = a.num_vertices
    mods = [Module(a, np.zeros((a.dim, 0, 0), dtype=np.int64)), regular_module(a)]
    mods += [f(a, i) for f in (simple, projective, injective) for i in range(k)]
    mods += [_rebased(v, rng) for v in
             (regular_module(a), _direct_sum(projective(a, 0), projective(a, min(1, k - 1))))]
    zero_duals = []
    for v in mods:
        want = reference_a_dual_action(v)
        got = a_dual(v)
        assert got.algebra is a.opposite()
        assert got.action.shape == want.shape and np.array_equal(got.action, want), v
        if got.dim == 0:
            zero_duals.append(v)
    return zero_duals


@pytest.mark.parametrize("p", [2, 5, P_MAX])
def test_a_dual_matches_python_integers(p):
    a = spec_to_algebra(_two_vertex_spec(p))
    zero_duals = _assert_a_dual_matches_reference(a, np.random.default_rng(p))
    assert [v.dim for v in zero_duals] == [0]


def test_a_dual_matches_python_integers_on_a_basis_that_is_not_of_paths(a3_rebased):
    a = a3_rebased[0]
    zero_duals = _assert_a_dual_matches_reference(a, np.random.default_rng(7))
    # soc(A_A) is S_2^3 for 0 -> 1 -> 2, so Hom(S_j, A) = 0 for j = 0, 1.
    assert zero_duals[0].dim == 0 and simple(a, 0) in zero_duals and simple(a, 1) in zero_duals


def reference_solve_hom(u, v) -> np.ndarray:
    """The general solve of hom_space before it ran in graded coordinates,
    kept as it was: a stack of maps spanning Hom(u, v).

    On the vertex bases R_i = V e_i and C_i = action[i][:, R_i.pivots], an
    intertwiner is F = sum_i C_i(u) P_i R_i(v) for free blocks P_i, and an
    arrow g with e_s g e_t != 0 asks X P_t = P_s Y, where
    X = R_s(u) g C_t(u) and Y = R_s(v) g C_t(v)."""
    a = u.algebra
    p = a.p
    du, dv = u.dim, v.dim
    ru, rv = ([Subspace.from_rows(e, w.dim, p) for e in w.action[: a.num_vertices]]
              for w in (u, v))
    cu, cv = ([e[:, r.pivots] for e, r in zip(w.action, rw)] for w, rw in ((u, ru), (v, rv)))
    offsets = np.cumsum([0] + [eu.dim * ev.dim for eu, ev in zip(ru, rv)])
    m = int(offsets[-1])
    if m == 0:
        return np.zeros((0, du, dv), dtype=np.int64)
    constraints = []
    for g, s, t in a.arrow_ends:
        cs, rt = ru[s].dim, rv[t].dim
        if cs * rt == 0:
            continue
        x, y = (matmul_mod(matmul_mod(r[s].basis, w.action[g], p), c[t], p)
                for w, r, c in ((u, ru, cu), (v, rv, cv)))
        block = np.zeros((cs, rt, m), dtype=np.int64)
        # Coefficient of P_t[c, d] in (X P_t)[a, b] is X[a, c] when b == d.
        block[:, :, offsets[t]:offsets[t + 1]] += np.einsum(
            "ac,bd->abcd", x, np.eye(rt, dtype=np.int64)).reshape(cs, rt, -1)
        # Coefficient of P_s[c, d] in (P_s Y)[a, b] is Y[d, b] when a == c.
        block[:, :, offsets[s]:offsets[s + 1]] -= np.einsum(
            "ac,db->abcd", np.eye(cs, dtype=np.int64), y).reshape(cs, rt, -1)
        constraints.append(block.reshape(cs * rt, m))
    if constraints:
        params = kernel(np.concatenate(constraints), p).basis
    else:
        params = np.eye(m, dtype=np.int64)
    n = params.shape[0]
    if n == 0:
        return np.zeros((0, du, dv), dtype=np.int64)
    maps = np.zeros((n, du, dv), dtype=np.int64)
    for i, (c, r) in enumerate(zip(cu, rv)):
        block = params[:, offsets[i]:offsets[i + 1]].reshape(n, c.shape[1], r.dim)
        maps = (maps + matmul_mod(matmul_mod(c, block, p), r.basis, p)) % p
    return maps


def _one_vertex_loops(p=5):
    """Two loops x, y at one vertex, with xy = yx, truncated at length 4."""
    return spec_to_algebra(_spec(p, 1, [("x", 0, 0), ("y", 0, 0)],
                                 [[(1, ["x", "y"]), (p - 1, ["y", "x"])]], 4))


def _assert_solve_matches_reference(mods) -> list:
    """_solve_hom spans the reference's space, with independent maps, on
    every ordered pair of mods, closed forms aside; returns the dimensions
    of the modules compared."""
    for u in mods:
        for v in mods:
            got, want = _solve_hom(u, v), reference_solve_hom(u, v)
            p, size = u.algebra.p, u.dim * v.dim
            assert got.shape == want.shape
            assert np.array_equal(rref(got.reshape(len(got), size), p)[0],
                                  rref(want.reshape(len(want), size), p)[0])
    return [v.dim for v in mods]


SOLVE_ALGEBRAS = {
    "corpus-seed-0": lambda: [a for _, a in default_corpus(seed=0)],
    "corpus-seed-1": lambda: [a for _, a in default_corpus(seed=1)],
    "corpus-seed-2": lambda: [a for _, a in default_corpus(seed=2)],
    "nakayama-k-l-6": lambda: [build_nakayama(k, ell) for k in range(1, 7) for ell in range(1, 7)],
    "one-vertex-loops": lambda: [_quantum_exterior_plane(1), _quantum_exterior_plane(2),
                                 _one_vertex_loops()],
    "large-primes": lambda: [build_nakayama(3, 3, 33554393), spec_to_algebra(LARGE_SPEC),
                             build_nakayama(2, 2, P_MAX),
                             spec_to_algebra(WITH_RELATIONS["two-vertex-p-max"])],
}


@pytest.mark.parametrize("name", sorted(SOLVE_ALGEBRAS))
def test_graded_solve_spans_the_reference_on_the_sampled_family(name):
    dims = []
    for a in SOLVE_ALGEBRAS[name]():
        dims += _assert_solve_matches_reference([v for _, v in _sample_family(a)])
    # A second radical layer rad_2(P) is 0 where P has Loewy length 1, as
    # P_2 = S_2 of linear-A3 in the corpus.
    assert 0 in dims or not name.startswith("corpus")


@pytest.mark.parametrize("build", [
    lambda a3_rebased: a3_rebased[0],
    lambda a3_rebased: build_nakayama(3, 2),
    lambda a3_rebased: spec_to_algebra(WITH_RELATIONS["random-09"]),
    lambda a3_rebased: spec_to_algebra(WITH_RELATIONS["large-random-27"]),
    lambda a3_rebased: spec_to_algebra(WITH_RELATIONS["two-vertex-p-max"]),
], ids=["a3-rebased", "nakayama-k3-l2", "random-09", "large-random-27", "two-vertex-p-max"])
def test_graded_solve_spans_the_reference_in_random_module_bases(a3_rebased, build):
    a = build(a3_rebased)
    own, dual = _rebased_family(a, np.random.default_rng(17))
    assert any(v._vertex_basis()[0] is not None for v in own)  # graded by elimination
    _assert_solve_matches_reference(own)
    _assert_solve_matches_reference(dual)


def test_a_solve_makes_as_many_products_and_kernels_on_every_quiver(monkeypatch, a3_rebased):
    """The calls of matmul_mod and kernel in one solve depend only on which
    of the two modules are vertex-adapted, not on the vertices or arrows."""
    algebras = [build_nakayama(k, 3) for k in (1, 2, 5)] + [a3_rebased[0]]
    algebras += [spec_to_algebra(WITH_RELATIONS[n]) for n in ("random-09", "large-random-27")]
    calls = {}
    for name in ("matmul_mod", "kernel"):
        original = getattr(modules, name)
        monkeypatch.setattr(modules, name, lambda *args, name=name, original=original: (
            calls.__setitem__(name, calls.get(name, 0) + 1) or original(*args)))
    counts = {}  # (u adapted, v adapted) -> the set of (products, kernels)
    rng = np.random.default_rng(19)
    for a in algebras:
        p0, p1 = projective(a, 0), projective(a, a.num_vertices - 1)
        mods = [Module(a, p0.action), Module(a, p1.action), _rebased(p0, rng), _rebased(p1, rng)]
        for u in mods:
            for v in mods:
                _solve_hom(u, v)  # the vertex bases and arrow ends, computed once
                calls.clear()
                _solve_hom(u, v)
                route = (u._vertex_basis()[0] is None, v._vertex_basis()[0] is None)
                counts.setdefault(route, set()).add((calls.get("matmul_mod", 0), calls["kernel"]))
    assert counts == {(True, True): {(0, 1)}, (True, False): {(3, 1)},
                      (False, True): {(3, 1)}, (False, False): {(6, 1)}}
