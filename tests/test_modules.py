import itertools

import numpy as np
import pytest

from loewy import (
    Algebra,
    Arrow,
    Module,
    ModuleMap,
    Quiver,
    a_dual,
    build_nakayama,
    build_path_algebra,
    capital_n,
    default_corpus,
    f_dual,
    f_dual_map,
    find_isomorphism,
    hom_space,
    injective,
    layer_table,
    nakayama,
    projective,
    quotient_module,
    regular_module,
    simple,
    submodule,
)
from loewy.linalg import Subspace, kernel, rank, rref

P = 5
LARGE_P = 33554393


def _direct_sum(u, v):
    d = u.dim + v.dim
    act = np.zeros((u.algebra.dim, d, d), dtype=np.int64)
    act[:, : u.dim, : u.dim] = u.action
    act[:, u.dim :, u.dim :] = v.action
    return Module(u.algebra, act)


def test_projective_dims_partition_the_algebra(n32, a3):
    for alg in (n32, a3):
        assert sum(projective(alg, i).dim for i in range(alg.num_vertices)) == alg.dim
        assert sum(injective(alg, i).dim for i in range(alg.num_vertices)) == alg.dim


def test_simple_action(n32):
    s1 = simple(n32, 1)
    assert s1.dim == 1
    assert s1.action[1].tolist() == [[1]]
    assert s1.action[0].tolist() == [[0]]
    assert not s1.action[3:].any()  # arrows act as zero


def test_regular_module_is_right_multiplication(n22):
    reg = regular_module(n22)
    rng = np.random.default_rng(6)
    x = rng.integers(0, P, size=n22.dim)
    y = rng.integers(0, P, size=n22.dim)
    assert np.array_equal((x @ reg.act(y)) % P, np.einsum("i,j,ijf->f", x, y, n22.table) % P)


def test_hom_from_projective_counts_weight_space(n32, a3):
    # dim Hom(P_i, V) equals the rank of the idempotent e_i acting on V.
    for alg in (n32, a3):
        mods = [regular_module(alg)]
        mods += [simple(alg, j) for j in range(alg.num_vertices)]
        mods += [projective(alg, j) for j in range(alg.num_vertices)]
        mods += [injective(alg, j) for j in range(alg.num_vertices)]
        for i in range(alg.num_vertices):
            p_i = projective(alg, i)
            for v in mods:
                assert len(hom_space(p_i, v)) == rank(v.action[i], P)


def test_hom_from_regular_is_the_module_itself(n32):
    reg = regular_module(n32)
    for v in (simple(n32, 0), projective(n32, 1), injective(n32, 2)):
        assert len(hom_space(reg, v)) == v.dim


def test_hom_between_distinct_simples_is_zero(n32):
    assert hom_space(simple(n32, 0), simple(n32, 1)) == []
    assert len(hom_space(simple(n32, 0), simple(n32, 0))) == 1


def test_hom_space_closed_under_composition(a3):
    p0 = projective(a3, 0)
    reg = regular_module(a3)
    i2 = injective(a3, 2)
    for f in hom_space(p0, reg):
        for g in hom_space(reg, i2):
            h = f.compose(g)  # constructor re-checks intertwining
            assert h.source is p0 and h.target is i2


def test_compose_rejects_a_different_middle_module():
    a = build_nakayama(2, 1)
    s0, s1 = simple(a, 0), simple(a, 1)
    id_s1 = ModuleMap(s1, s1, np.eye(1, dtype=np.int64))
    for scalar in (0, 1):
        with pytest.raises(ValueError, match="maps do not compose"):
            ModuleMap(s0, s0, np.full((1, 1), scalar)).compose(id_s1)


def test_compose_accepts_rewrapped_series_quotients(n32):
    p0 = projective(n32, 0)
    first, again = capital_n(p0, 2), capital_n(p0, 2)
    assert first is not again
    f = hom_space(p0, first)[0]
    h = f.compose(ModuleMap(again, again, np.eye(again.dim, dtype=np.int64)))
    assert h.source is p0 and h.target is again


def test_module_map_rejects_non_intertwiner(n32):
    p0 = projective(n32, 0)
    s1 = simple(n32, 1)
    bad = np.ones((p0.dim, 1), dtype=np.int64)
    with pytest.raises(ValueError):
        ModuleMap(p0, s1, bad)


def _commutant(mats, d, p):
    """Basis of the d x d matrices F with M F = F M for every M in mats."""
    eye = np.eye(d, dtype=np.int64)
    rows = [np.kron(m, eye) - np.kron(eye, m.T) for m in mats]
    return kernel(np.concatenate(rows) % p, p).basis.reshape(-1, d, d)


@pytest.mark.parametrize("name", ["kronecker", "a3", "n22"])
def test_module_map_rejects_a_matrix_that_misses_one_arrow(name, a3, n22):
    # _intertwines tests only the idempotents and arrows.  For each arrow,
    # some matrix commutes with every other generator, and with every
    # product of them, yet not with that arrow; it must be rejected.
    kronecker = build_path_algebra(Quiver(2, [Arrow("a", 0, 1), Arrow("b", 0, 1)]), [], 2, P)
    alg = {"kronecker": kronecker, "a3": a3, "n22": n22}[name]
    reg = regular_module(alg)
    gens = list(alg.generator_indices())
    for g in gens[alg.num_vertices:]:
        others = [reg.action[h] for h in gens if h != g]
        missing = [f for f in _commutant(others, reg.dim, alg.p)
                   if ((reg.action[g] @ f - f @ reg.action[g]) % alg.p).any()]
        assert missing, alg.labels[g]
        with pytest.raises(ValueError, match="does not intertwine"):
            ModuleMap(reg, reg, missing[0])


@pytest.mark.parametrize("k, ell, entry", [(2, 2, ("a1", "e0", "e0")),
                                           (6, 6, ("a1", "a0", "a0"))], ids=["dim6", "dim42"])
def test_module_verification_catches_broken_action(k, ell, entry):
    # One product of the regular action gains a term, e0 * a1 = e0 or
    # a0 * a1 = a0*a1 + a0, on a rescaled basis b_i -> s_i b_i, so that the
    # action has entries other than 0 and 1; it is accepted before the
    # change.  build_nakayama(6, 6) (dim 42) runs at the sizes of the
    # float64 tier of matmul_mod.
    a = build_nakayama(k, ell, P)
    s = np.random.default_rng(a.dim).integers(1, P, size=a.dim)
    inv = np.array([pow(int(v), P - 2, P) for v in s])
    act = regular_module(a).action * s[None, :, None] * inv[None, None, :] % P
    Module(a, act)
    c, i, j = (a.labels.index(label) for label in entry)
    act[c, i, j] = (act[c, i, j] + 1) % P
    with pytest.raises(ValueError, match="not multiplicative"):
        Module(a, act)


def test_module_verification_checks_the_products_that_vanish():
    # In F[x]/(x^2) over GF(5), x·x = 0.  Letting x act as 1 keeps 1·x = x·1
    # = x, so only the pair (x, x), whose row in the structure table is zero,
    # tells that the action is not multiplicative; so it does for x acting
    # as diag(2, 0).  A nilpotent x is accepted.
    a = build_nakayama(1, 1, P)
    x = a.labels.index("a0")
    assert not a.table[x, x].any()
    for action in (np.ones((a.dim, 1, 1), dtype=np.int64),
                   np.array([np.eye(2, dtype=np.int64), [[2, 0], [0, 0]]])):
        with pytest.raises(ValueError, match="not multiplicative against basis element 'a0'"):
            Module(a, action)
    Module(a, np.array([np.eye(2, dtype=np.int64), [[0, 1], [0, 0]]]))  # x acts as a nilpotent


def test_submodule_requires_invariance():
    loop = build_nakayama(1, 2)  # F[x]/(x^3)
    reg = regular_module(loop)
    with pytest.raises(ValueError):
        submodule(reg, Subspace.from_rows(np.array([[1, 0, 0]]), 3, P))
    # span{x, x^2} is invariant
    rad = submodule(reg, Subspace.from_rows(np.array([[0, 1, 0], [0, 0, 1]]), 3, P))
    assert rad.dim == 2
    top = quotient_module(reg, Subspace.from_rows(np.array([[0, 1, 0], [0, 0, 1]]), 3, P))
    assert top.dim == 1


def test_subquotient_lift_proj_identities(n32):
    p0 = projective(n32, 0)
    assert np.array_equal(
        (p0.lift @ p0.proj) % P, np.eye(p0.dim, dtype=np.int64)
    )
    i1 = injective(n32, 1)
    assert i1.dim == 3
    # lift then act in the parent matches acting then lifting
    reg = regular_module(n32)
    for c in range(n32.dim):
        direct = (p0.action[c] @ p0.lift) % P
        via_parent = (p0.lift @ reg.action[c]) % P
        assert np.array_equal(direct, via_parent)


def test_f_dual_is_an_involution(n32):
    for v in (projective(n32, 0), injective(n32, 2), simple(n32, 1)):
        dd = f_dual(f_dual(v))
        assert dd.algebra is v.algebra
        assert np.array_equal(dd.action, v.action)


def test_f_dual_map_reverses_composition(a3):
    p0 = projective(a3, 0)
    reg = regular_module(a3)
    i2 = injective(a3, 2)
    fs = hom_space(p0, reg)
    gs = hom_space(reg, i2)
    f, g = fs[0], gs[0]
    lhs = f_dual_map(f.compose(g))
    rhs = f_dual_map(g).compose(f_dual_map(f))
    assert np.array_equal(lhs.matrix, rhs.matrix)


def test_f_dual_swaps_projectives_and_injectives(n32):
    # the linear dual of a projective over the opposite is an injective here
    opp = n32.opposite()
    for i in range(3):
        d = f_dual(projective(opp, i))
        r = find_isomorphism(d, injective(n32, i))
        assert r.status == "yes"


def test_a_dual_dimensions(n32):
    # Hom(e_i A, A) has the dimension of A e_i: paths ending at vertex i.
    for i in range(3):
        ap = a_dual(projective(n32, i))
        assert ap.algebra is n32.opposite()
        assert ap.dim == rank(n32.table[:, i, :], P)  # z -> z * e_i


def test_a_dual_of_zero_module(n32):
    zero = Module(n32, np.zeros((n32.dim, 0, 0), dtype=np.int64))
    assert a_dual(zero).dim == 0
    assert nakayama(zero).dim == 0


def test_a_dual_rejects_a_hom_basis_that_is_not_reduced_or_not_closed(n22, monkeypatch):
    import loewy.modules as modules

    v, regular = projective(n22, 0), regular_module(n22)
    maps = hom_space(v, regular)
    assert len(maps) >= 2
    # The same space, with one row added to another: not in reduced form.
    summed = [ModuleMap(v, regular, maps[0].matrix + maps[1].matrix)] + maps[1:]
    # The inclusion e_0 A -> A spans a line that the idempotents keep and the
    # arrows move, so left multiplication does not preserve it.
    inclusion = ModuleMap(v, regular, v.lift)
    for e in range(n22.num_vertices):
        moved = v.lift @ n22.table[e] % P  # z -> e z on each image
        assert np.array_equal(moved, v.lift if e == 0 else np.zeros_like(moved))
    for basis in (summed, [inclusion]):
        stack = np.array([f.matrix for f in basis])
        monkeypatch.setattr(modules, "_hom_stack", lambda u, w, stack=stack: stack)
        with pytest.raises(ValueError):
            modules._build_a_dual(v)


def test_nakayama_shifts_projectives():
    for k, ell in [(2, 1), (3, 2), (2, 2), (4, 2)]:
        alg = build_nakayama(k, ell)
        for j in range(k):
            target = projective(alg, (j - ell) % k)
            r = find_isomorphism(nakayama(projective(alg, j)), target)
            assert r.status == "yes"
            assert r.witness.is_isomorphism()


def test_nakayama_fixes_regular_module_of_symmetric_algebra():
    loop = build_nakayama(1, 2)
    reg = regular_module(loop)
    assert find_isomorphism(nakayama(reg), reg).status == "yes"


def test_find_isomorphism_permuted_sum(n32):
    s0, s1 = simple(n32, 0), simple(n32, 1)
    r = find_isomorphism(_direct_sum(s0, s1), _direct_sum(s1, s0))
    assert r.status == "yes"
    assert r.witness.is_isomorphism()


def test_find_isomorphism_distinguishes_multiplicity(n32):
    s0, s1 = simple(n32, 0), simple(n32, 1)
    r = find_isomorphism(_direct_sum(s0, s0), _direct_sum(s0, s1))
    assert r.status == "no"  # same dimension, different tops


def test_find_isomorphism_dimension_mismatch(n32):
    r = find_isomorphism(simple(n32, 0), projective(n32, 0))
    assert r.status == "no"
    assert r.witness is None


def test_find_isomorphism_nonisomorphic_projectives():
    alg = build_nakayama(2, 1)
    r = find_isomorphism(projective(alg, 0), projective(alg, 1))
    assert r.status == "no"


def test_find_isomorphism_exact_at_large_prime():
    alg = build_nakayama(2, 2, LARGE_P)
    p0, p1 = projective(alg, 0), projective(alg, 1)
    assert find_isomorphism(p0, p1).status == "no"  # different tops
    reg = regular_module(alg)
    for u, v in ((nakayama(reg), reg), (_direct_sum(p0, p1), _direct_sum(p1, p0))):
        r = find_isomorphism(u, v)
        assert r.status == "yes"
        assert r.witness.source is u and r.witness.target is v
        assert r.witness.is_isomorphism()


def reference_isomorphism(u, v):
    """"yes"/"no" by trying every combination of the basis of Hom(u, v): the
    search find_isomorphism replaced, definitive but exponential in the
    dimension of the Hom space."""
    if u.dim != v.dim:
        return "no"
    if u.dim == 0:
        return "yes"
    p = u.algebra.p
    maps = hom_space(u, v)
    stacked = np.array([f.matrix for f in maps], dtype=np.int64).reshape(-1, u.dim, v.dim)
    for coeffs in np.ndindex(*([p] * len(maps))):
        c = np.array(coeffs, dtype=np.int64)
        if c.any() and len(rref(np.tensordot(c, stacked, axes=(0, 0)) % p, p)[1]) == u.dim:
            return "yes"
    return "no"


def _iso_family(a):
    """Modules that are and are not isomorphic in many ways, indices mod k."""
    k = a.num_vertices
    ps = [projective(a, i) for i in range(k)]
    ss = [simple(a, i) for i in range(k)]
    reg = regular_module(a)
    family = [(f"P{i}", m) for i, m in enumerate(ps)]
    family += [(f"I{i}", injective(a, i)) for i in range(k)]
    family += [(f"S{i}", m) for i, m in enumerate(ss)]
    family += [(f"nu(P{i})", nakayama(m)) for i, m in enumerate(ps)]
    family += [("A", reg), ("nu(A)", nakayama(reg))]
    family += [(f"S{i}+S{j}", _direct_sum(ss[i], ss[j]))
               for i in range(k) for j in range(i, k)]
    family += [("P0+P1", _direct_sum(ps[0], ps[1 % k])),
               ("P0+I1", _direct_sum(ps[0], injective(a, 1 % k))),
               ("P0+S0", _direct_sum(ps[0], ss[0])),
               ("S0+P0", _direct_sum(ss[0], ps[0]))]
    return family


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k, ell", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_find_isomorphism_matches_enumeration(k, ell, p):
    # A "yes" is proved by its witness; a "no" must match the enumeration.
    # At p = 2 the enumeration is cheap enough for the undecided pairs too,
    # and answers "yes" on each: the case that needs a Krull-Schmidt split.
    alg = build_nakayama(k, ell, p)
    for (lu, u), (lv, v) in itertools.product(_iso_family(alg), repeat=2):
        if u.dim != v.dim:
            continue
        r = find_isomorphism(u, v)
        if r.status == "yes":
            assert r.witness.source is u and r.witness.target is v
            assert r.witness.is_isomorphism(), (lu, lv)
        elif r.status == "no":
            assert reference_isomorphism(u, v) == "no", (lu, lv)
        else:
            assert r.status == "unknown" and r.note and r.witness is None
            tops = layer_table([u, v], "radical").table[:, :, 0]
            socles = layer_table([u, v], "socle").table[:, :, 0]
            assert tops.max(axis=1).min() > 1 and socles.max(axis=1).min() > 1, (lu, lv)
            if p == 2:
                assert reference_isomorphism(u, v) == "yes", (lu, lv)


def _kronecker_module(alg, t):
    """The two-dimensional module F -> F of the Kronecker quiver on which the
    arrows act as 1 and t: top S_0, socle S_1, pairwise non-isomorphic."""
    action = np.zeros((alg.dim, 2, 2), dtype=np.int64)
    action[0, 0, 0] = action[1, 1, 1] = action[2, 0, 1] = 1
    action[3, 0, 1] = t
    return Module(alg, action)


def test_find_isomorphism_over_the_kronecker_quiver():
    # Non-uniserial modules: maps that kill the top, tops that repeat while
    # the socle does not (decided on the duals), and distinct modules whose
    # top and socle both repeat (undecided, with a note).
    alg = build_path_algebra(Quiver(2, [Arrow("a", 0, 1), Arrow("b", 0, 1)]), [], 2, P)
    m0, m1, m2 = (_kronecker_module(alg, t) for t in range(3))
    s0, s1 = simple(alg, 0), simple(alg, 1)
    cases = [
        (m0, m1, "no"),  # Hom = 0
        (_direct_sum(m0, s1), _direct_sum(m1, s1), "no"),  # top S0 + S1, every map kills S0
        (_direct_sum(m0, s1), _direct_sum(s1, m0), "yes"),
        (_direct_sum(m0, s0), _direct_sum(m1, s0), "no"),  # socle S0 + S1, on the duals
        (_direct_sum(m0, s0), _direct_sum(s0, m0), "yes"),
        (_direct_sum(m0, m1), _direct_sum(projective(alg, 0), s0), "no"),  # socles differ
        (_direct_sum(m0, m1), _direct_sum(m0, m2), "unknown"),
        (_direct_sum(m0, m1), _direct_sum(m1, m0), "unknown"),
    ]
    for u, v, expected in cases:
        r = find_isomorphism(u, v)
        assert r.status == expected
        if expected == "yes":
            assert r.witness.is_isomorphism()
        elif expected == "no":
            assert reference_isomorphism(u, v) == "no"
        else:
            assert r.note == "the top and the socle both repeat a simple"


# -- the standard family read off the table --------------------------------------


def _family_arrays(a):
    """For each vertex i: P_i's action, lift, proj, top and bot, I_i's action
    and lift of e_i A^op, and the action of a_dual(P_i)."""
    out = []
    for i in range(a.num_vertices):
        v, w = projective(a, i), injective(a, i)
        out.append((v.action, v.lift, v.proj, v.top.basis, v.bot.basis,
                    w.action, w._injective_at[1], a_dual(v).action))
    return out


def _route_algebras(group):
    if group == "nakayama":
        return [build_nakayama(k, ell) for k in range(1, 7) for ell in range(1, 7)]
    return [a for _, a in default_corpus(seed=int(group[-1]))]


@pytest.mark.parametrize("group", ["corpus-0", "corpus-1", "corpus-2", "nakayama"])
def test_the_family_read_off_the_table_equals_the_general_route(monkeypatch, group):
    algebras = _route_algebras(group)
    gathered = []
    for a in algebras:
        assert a._peirce is not None  # every path basis is a Peirce basis
        gathered.append(_family_arrays(a))
    monkeypatch.setattr(Algebra, "_peirce", property(lambda a: None))
    for a, want in zip(algebras, gathered):
        b = Algebra(a.field, a.table, a.labels, a.path_lengths, a.num_vertices)
        got = _family_arrays(b)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert all(map(np.array_equal, x, y))
        # The general route's I_i keeps no array of the e_i A^op it is built from.
        assert all("f_dual" not in b._standard_records["I", i][2] for i in range(b.num_vertices))


def test_arrow_blocks_read_off_a_peirce_basis_equal_the_products(monkeypatch, corpus0):
    # On a Peirce basis arrow_ends and _block_actions take no product.  With
    # _peirce hidden, a new build of each algebra takes the product route,
    # which a basis that is not of paths takes (a3_rebased).
    cases = []
    for a in [a for _, a in corpus0] + [build_nakayama(3, 3, LARGE_P)]:
        assert a._peirce is not None and a.opposite()._peirce is not None
        family = [f(a, i) for f in (simple, projective, injective) for i in range(a.num_vertices)]
        family += [f_dual(v) for v in family]  # over the opposite
        blocks = [v.algebra._block_actions(v.action) for v in family]
        cases.append((a, a.arrow_ends, a.opposite().arrow_ends, family, blocks))
    monkeypatch.setattr(Algebra, "_peirce", property(lambda a: None))
    for a, ends, opposite_ends, family, blocks in cases:
        b = Algebra(a.field, a.table, a.labels, a.path_lengths, a.num_vertices)
        assert b.arrow_ends == ends and b.opposite().arrow_ends == opposite_ends
        for v, want in zip(family, blocks):
            over = b if v.algebra is a else b.opposite()
            assert np.array_equal(over._block_actions(v.action), want)


def _rebased_algebra(a, rng):
    """a on the basis b_c + (random multiples of the longer basis elements):
    the same algebra, not on a path basis once the sums cross vertices."""
    p, d, lengths = a.p, a.dim, a.path_lengths
    q = np.eye(d, dtype=np.int64)
    longer = (lengths[:, None] >= 1) & (lengths[None, :] > lengths[:, None])
    q[longer] = rng.integers(0, p, size=int(longer.sum()))
    q_inv = rref(np.hstack([q, np.eye(d, dtype=np.int64)]), p)[0][:, d:]
    table = np.einsum("ia,abc->ibc", q, a.table) % p
    table = np.einsum("jb,ibc->ijc", q, table) % p
    return Algebra(a.field, table @ q_inv % p, a.labels, lengths, a.num_vertices)


def test_a_basis_that_is_not_of_paths_takes_the_general_route(monkeypatch, a3, a3_rebased):
    import loewy.modules as modules

    rng = np.random.default_rng(4)
    b = a3_rebased[0]  # a new copy: the fixture's records may be built already
    pairs = [(a3, Algebra(b.field, b.table, b.labels, b.path_lengths, b.num_vertices))]
    pairs += [(a, _rebased_algebra(a, rng))
              for a in (build_nakayama(3, 2), build_nakayama(2, 3), build_path_algebra(
                  Quiver(2, [Arrow("a", 0, 1), Arrow("b", 0, 1), Arrow("c", 1, 0)]), [], 3, P))]
    built = []
    original = modules.regular_module
    monkeypatch.setattr(modules, "regular_module", lambda a: built.append(a) or original(a))
    for a, b in pairs:
        assert a._peirce is not None and b._peirce is None
        k = a.num_vertices
        for algebra in (a, b):
            projective(algebra, 0), injective(algebra, 0), a_dual(projective(algebra, 0))
        assert a not in built and b in built and b.opposite() in built
        for kind in ("radical", "socle"):
            families = [[projective(x, i) for i in range(k)] + [injective(x, i) for i in range(k)]
                        + [a_dual(projective(x, i)) for i in range(k)] for x in (a, b)]
            tables = [layer_table(f[: 2 * k], kind) for f in families]
            assert tables[0] == tables[1]
            duals = [layer_table(f[2 * k:], kind) for f in families]
            assert duals[0] == duals[1]


def test_the_family_of_a_peirce_algebra_builds_no_regular_module(monkeypatch):
    import loewy.modules as modules

    built = []
    original = modules.regular_module
    monkeypatch.setattr(modules, "regular_module", lambda a: built.append(a) or original(a))
    for a in (build_nakayama(3, 2), build_nakayama(1, 3), default_corpus(seed=1)[-1][1]):
        for i in range(a.num_vertices):
            v = projective(a, i)
            injective(a, i)
            nakayama(v)
            assert v._vertex_basis()[0] is None  # vertex-adapted coordinates
    assert built == []


@pytest.mark.parametrize("build", ["projective", "injective", "a_dual"])
def test_a_corrupted_entry_of_a_gathered_slice_is_rejected(build):
    a = build_nakayama(3, 3)
    left, right = a._peirce  # decided on the true table
    i, g = 1, int(a.generator_indices()[a.num_vertices])  # an arrow
    held = projective(a, i) if build == "a_dual" else None  # built on the true table
    table = a.table.copy()
    if build == "projective":
        # b * g for b in e_i A gains a term outside e_i A.
        outside = next(y for y in range(a.dim) if y not in left[i])
        table[left[i][-1], g, outside] = 1
    else:
        # g * b for b in A e_i gains a term outside A e_i.
        outside = next(y for y in range(a.dim) if y not in right[i])
        table[g, right[i][-1], outside] = 1
    a.table = table
    message = "does not preserve the hom space" if build == "a_dual" else "not invariant"
    with pytest.raises(ValueError, match=message):
        a_dual(held) if build == "a_dual" else {"projective": projective,
                                               "injective": injective}[build](a, i)
