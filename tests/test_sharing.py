"""Modules are built once and shared, through caches that form no cycle.

The standard modules are cached weakly on their algebra, a_dual and
f_dual on their module, and the verified data of every layer, capital
and socle submodule on its parent.  Each standard projective and
injective also leaves a record on its algebra, from which it is wrapped
again once freed, and the action and data of a module's A-dual are kept
with its plain data, as a linear dual keeps those of the module it
dualizes.  These tests check that repeated requests return
the shared result, that what is shared cannot be written, that
run_corpus builds each subquotient and its vertex basis once, that a
standard module wrapped again derives nothing again, its A-dual
included, and that its record reaches no module, that layer_table
eliminates the series of a module once, that subquotient still rejects
what it must, and that an algebra and every module cached over it are
freed by reference counting alone.  They also
check that what subquotient, hom_space and f_dual_map build unchecked
passes the checks it skips, that the maps carrying the adjunction
checker's claims are still checked, that verify_adjunction solves each
Hom pair once and none on a capital or socle submodule, and that
verify_duality_lemmas decides each module's tuple of terms once.  Last,
that the structure tensor is held once: the opposite's table, A_A and
every linear dual are read-only views, an algebra keeps its own reduced
copy of a caller's table, and tracemalloc sees one d^3 int64 array.
"""

import gc
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from loewy import (
    Algebra,
    Module,
    ModuleMap,
    SubquotientModule,
    a_dual,
    build_nakayama,
    capital_n,
    default_corpus,
    f_dual,
    hom_space,
    injective,
    layer_table,
    linear_quiver_algebra,
    nakayama,
    projective,
    radical_layer,
    radical_n,
    regular_module,
    run_corpus,
    simple,
    socle_layer,
    socle_n,
    socle_submodule,
    spec_to_algebra,
    subquotient,
    submodule,
    verify_adjunction,
    verify_duality_lemmas,
)
from loewy.linalg import Subspace

# Two vertices, a double arrow, a loop and one two-term relation: dim 13.
RELATIONS_SPEC = {
    "field": {"p": 7},
    "quiver": {
        "vertices": 2,
        "arrows": [
            {"name": "a0", "source": 1, "target": 0},
            {"name": "a1", "source": 1, "target": 0},
            {"name": "a2", "source": 1, "target": 1},
            {"name": "a3", "source": 0, "target": 1},
        ],
    },
    "relations": [
        [{"coeff": 2, "path": ["a2", "a1"]}, {"coeff": 3, "path": ["a2", "a0"]}]
    ],
    "truncation": 3,
}


def test_standard_modules_and_duals_are_shared_while_held():
    a = build_nakayama(3, 2)
    for build in (projective, injective, simple):
        for i in range(a.num_vertices):
            assert build(a, i) is build(a, i)
    assert regular_module(a) is regular_module(a)
    v = projective(a, 0)
    assert a_dual(v) is a_dual(v)
    assert nakayama(v) is nakayama(v) is f_dual(a_dual(v))
    # Not held, a module is freed and built again on the next request.
    dropped = weakref.ref(projective(a, 1))
    assert dropped() is None
    assert np.array_equal(projective(a, 1).action, projective(build_nakayama(3, 2), 1).action)


def test_f_dual_of_an_f_dual_wraps_the_original():
    a = build_nakayama(3, 2)
    p0 = projective(a, 0)
    for v in (p0, injective(a, 1), simple(a, 2), radical_layer(p0, 2), a_dual(p0)):
        twice = f_dual(f_dual(v))
        # D D V = V: the same action array and plain data, so its vertex
        # basis and series are not derived again.
        assert twice.action is v.action and twice._data is v._data
        assert twice.algebra is v.algebra and f_dual(f_dual(v)) is twice
    # Hom into I_i reads f_dual of nu(P_i), which is the A-dual of P_i again.
    assert f_dual(nakayama(p0)).action is a_dual(p0).action
    assert f_dual(nakayama(p0))._data is a_dual(p0)._data


def test_injective_does_not_keep_the_opposite_projective_alive():
    # I_i is the f_dual of e_i A^op, which caches I_i; a link back would
    # keep that module and all its caches alive for as long as I_i, and a
    # record of it on the opposite for as long as the algebra.
    a = build_nakayama(3, 2)
    v = injective(a, 1)
    assert a.opposite()._standard_records == {}
    assert a.opposite()._standard_modules.get(("A", 0)) is None
    # hom_space into I_1 reads only the lift of e_1 A^op, which I_1 keeps.
    assert len(hom_space(simple(a, 1), v)) == 1
    assert a.opposite()._standard_records == {}


def test_series_quotients_are_wrapped_around_one_verified_build():
    v = projective(build_nakayama(2, 3), 0)
    first, again = radical_layer(v, 2), radical_layer(v, 2)
    assert first is not again and again.parent is v
    assert again.lift is first.lift and again.proj is first.proj
    assert np.array_equal(again.action, first.action)
    # V / rad V is both the capital at level 1 and the first radical layer.
    assert capital_n(v, 1).lift is radical_layer(v, 1).lift
    # Past the Loewy length of V every level names the same pair of terms.
    assert capital_n(v, 4).proj is capital_n(v, 9).proj
    # Two wrappers of one pair share what is derived from it, nested
    # quotients included.
    assert f_dual(first) is f_dual(again) and a_dual(first) is a_dual(again)
    assert radical_n(first, 1) is radical_n(again, 1)
    nested, nested_again = capital_n(first, 1), capital_n(again, 1)
    assert nested.parent is first and nested_again.parent is again
    assert nested_again.lift is nested.lift and nested_again.proj is nested.proj
    assert np.array_equal(nested_again.action, nested.action)
    assert nested_again._vertex_basis() is nested._vertex_basis()
    # A rewrap takes the cached action as it is, read-only and C-contiguous.
    assert capital_n(v, 1).action is capital_n(v, 1).action
    assert again.action is first.action and nested_again.action is nested.action
    for w in (first, again, nested, nested_again):
        assert not w.action.flags.writeable and w.action.flags.c_contiguous


def test_shared_arrays_are_read_only():
    a = build_nakayama(2, 2)
    v = projective(a, 0)
    lay = radical_layer(v, 1)
    # The cached series terms key the cache of layers, so their bases are
    # read-only too.
    for array in (v.action, v.lift, v.proj, lay.action, lay.lift, lay.proj,
                  a_dual(v).action, regular_module(a).action, simple(a, 1).action,
                  radical_n(v, 1).basis, socle_n(v, 1).basis, lay.top.basis):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_subquotient_still_rejects_a_subspace_moved_by_one_arrow():
    a = linear_quiver_algebra(3, 3)  # 0 -> 1 -> 2
    p0 = projective(a, 0)
    # e_0 spans a subspace that every idempotent keeps, but the arrow
    # 0 -> 1 moves it out.
    top_element = Subspace.from_rows(np.eye(p0.dim, dtype=np.int64)[:1], p0.dim, a.p)
    for e in range(a.num_vertices):
        moved = (top_element.basis @ p0.action[e]) % a.p
        assert top_element.contains(Subspace.from_rows(moved, p0.dim, a.p))
    with pytest.raises(ValueError, match="not invariant"):
        submodule(p0, top_element)
    rad = Subspace.from_rows(np.eye(p0.dim, dtype=np.int64)[1:], p0.dim, a.p)
    assert submodule(p0, rad).dim == p0.dim - 1
    with pytest.raises(ValueError, match="bot <= top"):
        subquotient(p0, rad, Subspace.full(p0.dim, a.p))


def test_run_corpus_builds_each_subquotient_once(monkeypatch):
    import loewy.modules as modules

    original = modules.subquotient
    built = []

    def counting(v, top, bot):
        built.append((v, top, bot))  # holding v keeps the ids distinct
        return original(v, top, bot)

    for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "loewy"]:
        if getattr(mod, "subquotient", None) is original:
            monkeypatch.setattr(mod, "subquotient", counting)
    reports = run_corpus([("nakayama-k3-l3", build_nakayama(3, 3)),
                          ("relations", spec_to_algebra(RELATIONS_SPEC))])
    assert [r.status for r in reports] == ["pass", "unknown"]
    keys = [(id(v), top, bot) for v, top, bot in built]
    assert keys and len(set(keys)) == len(keys)


def test_run_corpus_eliminates_the_vertex_blocks_of_each_subquotient_once(monkeypatch):
    original = Module._vertex_basis
    computed, dualized = [], []

    def key(v):
        return (id(v.parent), v.top, v.bot) if isinstance(v, SubquotientModule) else id(v)

    def counting(v):
        if "vertex" not in v._data:
            computed.append((v, key(v)))  # holding v keeps the ids distinct
        return original(v)

    def dualizing(v):
        if "f_dual" not in v._cache:
            dualized.append((v, key(v)))
        return f_dual(v)

    monkeypatch.setattr(Module, "_vertex_basis", counting)
    _rebind(monkeypatch, f_dual, dualizing)
    reports = run_corpus([("nakayama-k3-l3", build_nakayama(3, 3)),
                          ("relations", spec_to_algebra(RELATIONS_SPEC))])
    assert [r.status for r in reports] == ["pass", "unknown"]
    for built in (computed, dualized):
        keys = [k for _, k in built]
        assert keys and len(set(keys)) == len(keys)
    # A rewrapped series quotient reads the vertex basis of the first build.
    v = projective(build_nakayama(2, 3), 0)
    assert radical_layer(v, 2)._vertex_basis() is radical_layer(v, 2)._vertex_basis()


def test_layer_table_eliminates_the_series_of_a_module_once(monkeypatch):
    a = spec_to_algebra(RELATIONS_SPEC)
    family = [projective(a, i) for i in range(a.num_vertices)]
    family += [regular_module(a), nakayama(family[0])]
    first = {kind: layer_table(family, kind) for kind in ("radical", "socle")}
    calls = []
    for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "loewy"]:
        original = getattr(mod, "rref", None)
        if original is not None:
            monkeypatch.setattr(mod, "rref", lambda m, p, rref=original: calls.append(1) or rref(m, p))
    for kind in ("radical", "socle"):
        assert layer_table(family, kind) == first[kind]
    assert calls == []


def _standard_family(a):
    k = a.num_vertices
    return [projective(a, i) for i in range(k)] + [injective(a, i) for i in range(k)]


def _record_arrays(v):
    """The arrays a standard module's record keeps of it."""
    if isinstance(v, SubquotientModule):
        return v.action, v.lift, v.proj
    return v.action, v._injective_at[1]


def test_a_freed_standard_module_is_wrapped_again_from_its_record():
    a = spec_to_algebra(RELATIONS_SPEC)
    first = _standard_family(a)
    arrays = [_record_arrays(v) for v in first]
    copies = [[x.copy() for x in group] for group in arrays]
    alive = [weakref.ref(v) for v in first]
    del first
    assert [r() for r in alive] == [None] * len(alive)
    again = _standard_family(a)
    fresh = _standard_family(spec_to_algebra(RELATIONS_SPEC))
    for v, w, group, copy in zip(again, fresh, arrays, copies):
        got = _record_arrays(v)
        # The arrays of the first build, unchanged, and equal to a new build's.
        assert all(x is y for x, y in zip(got, group))
        assert all(map(np.array_equal, got, copy))
        assert all(map(np.array_equal, got, _record_arrays(w)))
        assert type(v) is type(w) and v.algebra is a
    for i, v in enumerate(again[: a.num_vertices]):
        assert v._projective_at[0] == i and v._projective_at[1] is v.lift
        assert (v.top, v.bot) == (fresh[i].top, fresh[i].bot)
    # Read off the table: no A_A was built for the family, and P_i's parent
    # is built only when asked for.
    assert a._standard_modules.get(("A", 0)) is None
    assert again[0].parent is regular_module(a)
    # Shared while held, and the maps read off the records agree.
    assert all(x is y for x, y in zip(again, _standard_family(a)))
    k = a.num_vertices
    for i in range(k):
        for j in range(k):
            got = [f.matrix for f in hom_space(again[i], again[k + j])]
            want = [f.matrix for f in hom_space(fresh[i], fresh[k + j])]
            assert len(got) == len(want) and all(map(np.array_equal, got, want))


def test_layer_table_on_a_family_wrapped_again_eliminates_nothing(monkeypatch):
    a = spec_to_algebra(RELATIONS_SPEC)
    first = {kind: layer_table(_standard_family(a), kind) for kind in ("radical", "socle")}
    run_corpus([("relations", a)])  # builds and releases the family again
    calls = []
    for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "loewy"]:
        original = getattr(mod, "rref", None)
        if original is not None:
            monkeypatch.setattr(mod, "rref", lambda m, p, rref=original: calls.append(1) or rref(m, p))
    for kind in ("radical", "socle"):
        assert layer_table(_standard_family(a), kind) == first[kind]
    assert calls == []


@pytest.mark.parametrize("name", ["relations", "nakayama-k3-l2"])
def test_a_freed_projective_wraps_its_a_dual_again_from_its_record(monkeypatch, name):
    import loewy.modules as modules

    def build():
        return spec_to_algebra(RELATIONS_SPEC) if name == "relations" else build_nakayama(3, 2)

    a = build()
    gathered, solved_duals, regular = [], [], []
    original = modules._peirce_slice
    monkeypatch.setattr(modules, "_peirce_slice",
                        lambda *args: gathered.append(args[3]) or original(*args))
    monkeypatch.setattr(modules, "_build_a_dual", lambda v: solved_duals.append(v))
    _rebind(monkeypatch, regular_module, lambda b: regular.append(b) or regular_module(b))
    run_corpus([(name, a)])  # builds and releases the family
    k = a.num_vertices
    # Each A-dual is gathered from the table: no Hom(P_i, A) is solved and
    # no A_A is built.
    assert gathered.count("left multiplication does not preserve the hom space") == k
    assert solved_duals == [] and regular == []
    first = [a._standard_records["P", i][5]["a_dual"][0] for i in range(k)]
    fresh = build()
    want = [nakayama(projective(fresh, i)).action for i in range(k)]
    solved = []
    _rebind(monkeypatch, hom_space, lambda u, v: solved.append(1) or hom_space(u, v))
    for i in range(k):
        v = projective(a, i)
        assert a_dual(v).action is first[i] and a_dual(v) is a_dual(v)
        assert a_dual(v).algebra is a.opposite()
        assert np.array_equal(nakayama(v).action, want[i])
    assert solved == [] and solved_duals == [] and regular == []


def _reachable(root):
    """Every object reachable from root through containers, subspaces and
    array bases."""
    seen, stack = {}, [root]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen[id(x)] = x
        if isinstance(x, dict):
            stack += [*x.keys(), *x.values()]
        elif isinstance(x, (tuple, list)):
            stack += x
        elif isinstance(x, Subspace):
            stack += vars(x).values()
        elif isinstance(x, np.ndarray) and x.base is not None:
            stack.append(x.base)
    return list(seen.values())


def test_records_and_plain_data_reach_no_module():
    a = spec_to_algebra(RELATIONS_SPEC)
    run_corpus([("relations", a)])
    family = _standard_family(a)
    for v in family:
        nakayama(v)
        layer_table([v], "socle")
        capital_n(v, 1)
    roots = [a._standard_records, a.opposite()._standard_records]
    roots += [v._data for v in family] + [radical_layer(v, 1)._data for v in family]
    assert len(a._standard_records) == 2 * a.num_vertices
    assert len(a.opposite()._standard_records) == 0  # e_i A^op leaves no record
    plain = (dict, tuple, list, Subspace, np.ndarray, np.generic, int, str, type(None))
    for root in roots:
        found = _reachable(root)
        assert not [x for x in found if not isinstance(x, plain)]


def test_algebra_and_its_cached_modules_are_freed_without_the_cycle_collector():
    gc.disable()
    try:
        a = spec_to_algebra(RELATIONS_SPEC)
        opp = a.opposite()
        mods = [projective(a, 0), projective(a, 1), injective(a, 0), simple(a, 1),
                regular_module(a)]
        for v in mods:
            nakayama(v)
            capital_n(v, 1)
            socle_submodule(v, 1)
            radical_layer(v, 2)
            socle_layer(f_dual(v), 1)
            # Derived data of rewraps, kept in the dict they share.
            f_dual(capital_n(v, 1))
            a_dual(radical_layer(v, 1))
            capital_n(radical_layer(v, 2), 1)
        reports = run_corpus([("relations", a)])
        alive = [weakref.ref(x) for x in (a, opp, *mods, a_dual(mods[0]))]
        del a, opp, mods, v
        assert reports and [r() for r in alive] == [None] * len(alive)
    finally:
        gc.enable()


def _rebind(monkeypatch, original, replacement):
    """Replace every binding of original in the loewy modules."""
    name = original.__name__
    for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "loewy"]:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


def _recording(original, out):
    def record(*args):
        result = original(*args)
        out.extend(result if isinstance(result, (list, tuple)) else [result])
        return result
    return record


def _recording_stacks(out):
    """modules._hom_stack, recording each map of the stacks it returns as an
    unchecked ModuleMap."""
    from loewy.modules import _hom_stack

    def record(u, v):
        result = _hom_stack(u, v)
        out.extend(ModuleMap(u, v, f, check=False) for f in result)
        return result
    return record


# subquotient, hom_space and f_dual_map build without checking what their
# construction proves; these algebras run every checker over them.
GUARD_ALGEBRAS = {
    "corpus-part": lambda request: [(n, a) for n, a in default_corpus(seed=2)
                                    if n.startswith("random-") or n == "linear-A4-N3"],
    "a3-rebased": lambda request: [("a3-rebased", request.getfixturevalue("a3_rebased")[0])],
    "nakayama-k6-l6": lambda request: [("nakayama-k6-l6", build_nakayama(6, 6))],
    "relations-large-prime": lambda request: [
        ("relations", spec_to_algebra(dict(RELATIONS_SPEC, field={"p": 33554393})))],
}


@pytest.mark.parametrize("name", sorted(GUARD_ALGEBRAS))
def test_unchecked_constructions_pass_the_checks_they_skip(monkeypatch, request, name):
    import loewy.modules as modules

    built, maps = [], []
    _rebind(monkeypatch, modules.subquotient, _recording(modules.subquotient, built))
    _rebind(monkeypatch, modules.hom_space, _recording(modules.hom_space, maps))
    _rebind(monkeypatch, modules._hom_stack, _recording_stacks(maps))
    _rebind(monkeypatch, modules.f_dual_map, _recording(modules.f_dual_map, maps))
    reports = run_corpus(GUARD_ALGEBRAS[name](request))
    assert reports and "fail" not in {r.status for r in reports}
    for f in list(maps):  # run_corpus dualizes no map itself
        modules.f_dual_map(f)
    assert built and maps
    for v in built:
        v._verify()  # raises unless 1 acts as 1 and the action is multiplicative
    assert all(f._intertwines() for f in maps)


def test_run_corpus_checks_once(monkeypatch):
    import loewy.modules as modules
    import loewy.verify as verify

    verified, intertwined, hom_maps, stacked, claims = [], [], [], [], []
    module_verify, intertwines = Module._verify, ModuleMap._intertwines
    monkeypatch.setattr(Module, "_verify", lambda v: verified.append(v) or module_verify(v))
    monkeypatch.setattr(ModuleMap, "_intertwines",
                        lambda f: intertwined.append(f) or intertwines(f))
    _rebind(monkeypatch, modules.hom_space, _recording(modules.hom_space, hom_maps))
    _rebind(monkeypatch, modules._hom_stack, _recording_stacks(stacked))
    # The maps that carry the adjunction, with their checks.  Neither
    # verify_adjunction nor verify_duality_lemmas builds a map: they decide
    # stacks of padded matrices.
    def recording(original):
        def record(*args):
            claims.append(original(*args))  # (maps, checks)
            return claims[-1]
        return record

    for name in ("_forward", "_backward"):
        monkeypatch.setattr(verify, name, recording(getattr(verify, name)))
    # The symmetric algebra's shift witness is a hom_space call.
    reports = run_corpus([("nakayama-k3-l2", build_nakayama(3, 2)),
                          ("nakayama-k3-l3", build_nakayama(3, 3))])
    assert [r.status for r in reports] == ["unknown", "pass"]  # k3-l2: Landrock skipped
    assert verified and not any(isinstance(v, SubquotientModule) for v in verified)
    checked = {id(f) for f in intertwined}  # each f is held by a list above
    # The Hom bases are solved as stacks, and hom_space's maps are not checked.
    assert hom_maps and stacked and not any(id(f) in checked for f in hom_maps)
    # Each stack of maps was checked to intertwine, map by map, and passed.
    assert claims and any(len(maps) for maps, _ in claims)
    assert all(any(message == verify._NOT_INTERTWINING and ok.shape == (len(maps),) and ok.all()
                   for ok, message in checks) for maps, checks in claims)


@pytest.mark.parametrize("seed", range(4))
def test_verify_adjunction_solves_each_hom_pair_once(monkeypatch, seed):
    from loewy.modules import _hom_stack

    pairs = []

    def key(v):
        # A series quotient is rewrapped on every request; its data is not.
        if isinstance(v, SubquotientModule):
            return id(v.parent), v.top, v.bot
        return id(v)

    def solving(u, v):
        pairs.append((u, v, key(u), key(v)))  # holding u and v keeps the ids distinct
        return _hom_stack(u, v)

    _rebind(monkeypatch, _hom_stack, solving)
    report = verify_adjunction(build_nakayama(3, 2), sample_size=6, seed=seed)
    assert report.status == "pass"
    keys = [(ku, kv) for _, _, ku, kv in pairs]
    assert keys and len(set(keys)) == len(keys)
    # The capital and socle Hom bases are read off Hom(U, V): the only
    # subquotients solved are the projectives and their second radical
    # layers, members of the sampled family.
    subquotients = [w for u, v, _, _ in pairs for w in (u, v) if isinstance(w, SubquotientModule)]
    assert any(w._projective_at is None for w in subquotients)
    for w in subquotients:
        if w._projective_at is None:
            assert w.parent._projective_at is not None
            assert (w.top, w.bot) == (radical_n(w.parent, 1), radical_n(w.parent, 2))


def test_verify_duality_lemmas_decides_each_tuple_of_terms_once(monkeypatch):
    import loewy.verify as verify

    calls = []
    decide = verify._decide_duality

    def recording(a, items):
        calls.extend((kind, id(u), terms) for kind, u, _, terms in items)
        return decide(a, items)

    monkeypatch.setattr(verify, "_decide_duality", recording)
    a = build_nakayama(3, 2)
    report = verify_duality_lemmas(a)  # holds the family throughout: one id, one module
    assert report.status == "pass"
    rows = report.checks[0].evidence
    assert len(rows) == 3 * a.num_vertices * (2 * a.loewy_length + 1)
    # The simples have Loewy length 1 < 3, so their later levels repeat.
    assert len(set(calls)) == len(calls) < len(rows)


@pytest.mark.parametrize("name", ["nakayama-k3-l2", "a3-rebased"])
def test_transposed_uses_of_the_table_and_actions_are_read_only_views(request, name):
    if name == "a3-rebased":  # not a Peirce basis: I_i is solved over the opposite
        b = request.getfixturevalue("a3_rebased")[0]
        a = Algebra(b.field, b.table, b.labels, b.path_lengths, b.num_vertices)
    else:
        a = build_nakayama(3, 2)
    assert (a._peirce is None) == (name == "a3-rebased")
    v, opp = projective(a, 0), a.opposite()
    views = [(opp.table, a.table, (1, 0, 2)), (regular_module(a).action, a.table, (1, 0, 2)),
             (f_dual(v).action, v.action, (0, 2, 1))]
    # I_i is the linear dual of e_i A^op, a view of the action it was read off.
    views += [(injective(a, i).action, injective(a, i).action.base, (0, 2, 1))
              for i in range(a.num_vertices)]
    for view, source, axes in views:
        assert np.shares_memory(view, source) and np.array_equal(view, source.transpose(axes))
        assert source.flags.c_contiguous and not view.flags.owndata
        with pytest.raises(ValueError, match="read-only"):
            view[...] = 0
    for i in range(a.num_vertices):
        want = projective(opp, i).action.transpose(0, 2, 1)
        assert np.array_equal(injective(a, i).action, want)


def test_algebra_keeps_its_own_reduced_copy_of_a_callers_table():
    a = build_nakayama(3, 2)
    p, shape = a.p, a.table.shape
    shifts = np.random.default_rng(0).integers(-3, 4, size=shape)
    inputs = [a.table + p * shifts, a.table - p, a.table.tolist()]
    inputs += [a.table.astype(dtype) for dtype in (np.uint8, np.int16, np.uint32, np.uint64)]
    for table in inputs:
        b = Algebra(a.field, table, a.labels, a.path_lengths, a.num_vertices)
        assert b.table.dtype == np.int64 and b.table.flags.c_contiguous
        assert np.array_equal(b.table, a.table) and not b.table.flags.writeable
        assert not np.shares_memory(b.table, np.asarray(table))
    # A later write to the caller's array does not reach the algebra.
    table = a.table.copy()
    b = Algebra(a.field, table, a.labels, a.path_lengths, a.num_vertices)
    table[...] = 0
    assert np.array_equal(b.table, a.table)


def test_run_corpus_keeps_one_structure_tensor_alive():
    # The opposite's table is a view: what a checked algebra keeps holds one
    # d^3 int64 array, however many duals the checkers took over A^op.
    run_corpus([("nakayama-k2-l2", build_nakayama(2, 2))])  # imports and first-use caches
    tracemalloc.start()
    try:
        a = build_nakayama(4, 6)
        reports = run_corpus([("nakayama-k4-l6", a)])
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert reports[0].status != "fail"
    size = a.dim ** 3 * 8
    assert [t.size for t in snapshot.traces if t.size >= size] == [size]


def test_building_the_table_holds_one_int64_table(monkeypatch):
    # _Presentation.build fills the table in the smallest dtype holding p - 1
    # and Algebra reduces it into one int64 array.  The peak is taken where
    # the table is complete and the checks begin: the associativity check
    # runs in blocks of up to _ASSOC_BLOCK_ENTRIES entries, more than d^3 at
    # this size.
    peaks = []
    check = Algebra._verify_structure
    monkeypatch.setattr(Algebra, "_verify_structure",
                        lambda a: peaks.append(tracemalloc.get_traced_memory()[1]) or check(a))
    build_nakayama(2, 2)
    tracemalloc.start()
    try:
        a = build_nakayama(6, 6)
    finally:
        tracemalloc.stop()
    assert a.dim == 42 and peaks[-1] < 1.5 * a.dim ** 3 * 8
