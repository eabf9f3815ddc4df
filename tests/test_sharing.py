"""Modules are built once and shared, through caches that form no cycle.

The standard modules are cached weakly on their algebra, a_dual and
f_dual on their module, and the verified data of every layer, capital
and socle submodule on its parent.  These tests check that repeated
requests return the shared result, that what is shared cannot be
written, that run_corpus builds each subquotient and its vertex basis
once, that layer_table eliminates the series of a module once, that
subquotient still rejects what it must, and that an algebra and every
module cached over it are freed by reference counting alone.
"""

import gc
import sys
import weakref

import numpy as np
import pytest

from loewy import (
    Module,
    SubquotientModule,
    a_dual,
    build_nakayama,
    capital_n,
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
