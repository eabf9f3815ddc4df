"""Modules are built once and shared, through caches that form no cycle.

The standard modules are cached weakly on their algebra, a_dual and
f_dual on their module, and the verified data of every layer, capital
and socle submodule on its parent.  These tests check that repeated
requests return the shared result, that what is shared cannot be
written, that run_corpus builds each subquotient and its vertex basis
once, that layer_table eliminates the series of a module once, that
subquotient still rejects what it must, and that an algebra and every
module cached over it are freed by reference counting alone.  They also
check that what subquotient, hom_space and f_dual_map build unchecked
passes the checks it skips, that the maps carrying the checkers' claims
are still checked, and that verify_adjunction solves each Hom pair once.
"""

import gc
import sys
import weakref

import numpy as np
import pytest

from loewy import (
    Module,
    ModuleMap,
    SubquotientModule,
    a_dual,
    build_nakayama,
    capital_n,
    default_corpus,
    f_dual,
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
    computed = []

    def counting(v):
        if not v._vertex:
            # holding v keeps the ids distinct
            key = (id(v.parent), v.top, v.bot) if isinstance(v, SubquotientModule) else id(v)
            computed.append((v, key))
        return original(v)

    monkeypatch.setattr(Module, "_vertex_basis", counting)
    reports = run_corpus([("nakayama-k3-l3", build_nakayama(3, 3)),
                          ("relations", spec_to_algebra(RELATIONS_SPEC))])
    assert [r.status for r in reports] == ["pass", "unknown"]
    keys = [key for _, key in computed]
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

    verified, intertwined, hom_maps, claims = [], [], [], []
    module_verify, intertwines = Module._verify, ModuleMap._intertwines
    monkeypatch.setattr(Module, "_verify", lambda v: verified.append(v) or module_verify(v))
    monkeypatch.setattr(ModuleMap, "_intertwines",
                        lambda f: intertwined.append(f) or intertwines(f))
    _rebind(monkeypatch, modules.hom_space, _recording(modules.hom_space, hom_maps))
    # The maps that carry the adjunction and the duality isomorphisms.
    for original in (verify.adjunction_forward, verify.adjunction_backward,
                     verify.dual_socle_capital_iso, verify.dual_layer_iso):
        _rebind(monkeypatch, original, _recording(original, claims))
    reports = run_corpus([("nakayama-k3-l2", build_nakayama(3, 2))])
    assert [r.status for r in reports] == ["unknown"]  # not symmetric: Landrock skipped
    assert verified and not any(isinstance(v, SubquotientModule) for v in verified)
    checked = {id(f) for f in intertwined}  # each f is held by a list above
    assert hom_maps and not any(id(f) in checked for f in hom_maps)
    assert claims and all(id(f) in checked for f in claims)


@pytest.mark.parametrize("seed", range(4))
def test_verify_adjunction_solves_each_hom_pair_once(monkeypatch, seed):
    from loewy.modules import hom_space

    pairs = []

    def key(v):
        # A series quotient is rewrapped on every request; its data is not.
        if isinstance(v, SubquotientModule):
            return id(v.parent), v.top, v.bot
        return id(v)

    def solving(u, v):
        pairs.append((u, v, key(u), key(v)))  # holding u and v keeps the ids distinct
        return hom_space(u, v)

    _rebind(monkeypatch, hom_space, solving)
    report = verify_adjunction(build_nakayama(3, 2), sample_size=6, seed=seed)
    assert report.status == "pass"
    keys = [(ku, kv) for _, _, ku, kv in pairs]
    assert keys and len(set(keys)) == len(keys)
