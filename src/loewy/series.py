"""Socle and radical series, layers, and the maps relating them to duals.

For a right module V, rad^n V is the span of rad^{n-1} V * g and soc^n V
holds the x with x * g in soc^{n-1} V, over the arrow blocks
g = e_s * (arrow) * e_t, which generate rad A on both sides.  Each
whole series is computed once per module by linalg.radical_chain or
linalg.socle_chain and kept in its plain data as a list, indexed clipped
to its end.  Modules and their subspaces never change after construction,
so layers, capitals, socle submodules, the adjunction and the duality
maps all read the same terms.  layer_table counts the simples in each
layer as dim(W e_j) - dim(W' e_j) without building the layer: W is the
direct sum of the W e_j, so once each V e_j lies on its own block of
coordinates, the pivots of W in block j number dim(W e_j).  On a
vertex-adapted module, such as a standard module of a path basis, its
own coordinates are blocked so and the pivots are read with no
elimination.  Otherwise graded coordinates, read off the module's vertex
basis, block them, and one elimination of a term W counts every
dim(W e_j).  The counts are kept with the series.  A standard
projective or injective wrapped again from its algebra's record shares
that plain data, so its series and counts are not derived again.
Layers are explicit subquotient modules that remember projection/section
coordinate maps into the parent, which makes the capital/socle
adjunction and the two duality isomorphisms exact matrix identities
rather than approximate constructions.

Layers, capitals and socle submodules are quotients W/W' of two terms
of one series, and each pair of terms is built by subquotient once per
module, whichever series and levels name it.  The module's cache keeps
under (W, W') the read-only (action, lift, proj) and the subquotient's
own two dicts, never the subquotient, which holds its parent.  Later
requests wrap them, as they are, in a new SubquotientModule, so all
wrappers of one pair share its action, its vertex basis, series, duals
and nested quotients, and nothing is reduced, tested or eliminated
again.  The maps built here carry the adjunction and the duality
isomorphisms, and every one of them is checked to intertwine.  They are
the explicit-map API: the checkers in verify decide the same maps, with
the same checks, in stacked products of padded matrices, and the tests
compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Subspace, matmul_mod, radical_chain, rref, socle_chain
from .modules import (
    Module,
    ModuleMap,
    SubquotientModule,
    f_dual,
    subquotient,
)

__all__ = [
    "LayerTable",
    "socle_n",
    "radical_n",
    "capital_n",
    "socle_submodule",
    "socle_layer",
    "radical_layer",
    "capital_map",
    "socle_map",
    "adjunction_forward",
    "adjunction_backward",
    "dual_socle_capital_iso",
    "dual_layer_iso",
    "layer_table",
]

@dataclass(eq=False)
class LayerTable:
    """Layer multiplicities m[i][j][n-1] for a module family against the simples."""

    kind: str
    table: np.ndarray  # shape (len(family), num_simples, loewy_length)
    loewy_length: int

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LayerTable)
            and other.kind == self.kind
            and other.loewy_length == self.loewy_length
            and np.array_equal(other.table, self.table)
        )

    def cartan(self) -> np.ndarray:
        return self.table.sum(axis=2)


def socle_n(v: Module, n: int) -> Subspace:
    """The subspace soc^n V = {x : x * rad^n A = 0}; soc^0 V = 0."""
    return _term(v, "socle", n)


def radical_n(v: Module, n: int) -> Subspace:
    """The subspace rad^n V = V * rad^n A; rad^0 V = V."""
    return _term(v, "radical", n)


def _series(v: Module, kind: str) -> list[Subspace]:
    """v's whole radical or socle series, computed once."""
    if kind not in v._data:
        chain = radical_chain if kind == "radical" else socle_chain
        v._data[kind] = chain(v.algebra._block_actions(v.action), v.algebra.p)
    return v._data[kind]


def _term(v: Module, kind: str, n: int) -> Subspace:
    """The n-th term of v's radical or socle series, clipped to the last."""
    if n < 0:
        raise ValueError("n must be >= 0")
    terms = _series(v, kind)
    return terms[min(n, len(terms) - 1)]


_TERMS = {"radical": radical_n, "socle": socle_n}


def _series_quotient(v: Module, kind: str, upper: int, lower: int) -> SubquotientModule:
    """W_upper / W_lower for the terms W_n = rad^n V (radical kind) or
    soc^n V (socle kind), built by subquotient once per module and pair
    of terms.  Later wrappers share the first build's arrays and dicts."""
    term = _TERMS[kind]
    top, bot = term(v, upper), term(v, lower)
    data = v._cache.get((top, bot))
    if data is None:
        sub = subquotient(v, top, bot)
        v._cache[top, bot] = (sub.action, sub.lift, sub.proj, sub._data, sub._cache)
        return sub
    return SubquotientModule._rewrap_of(v, top, bot, *data)


def capital_n(v: Module, n: int) -> SubquotientModule:
    """The quotient V / rad^n V."""
    return _series_quotient(v, "radical", 0, n)


def socle_submodule(v: Module, n: int) -> SubquotientModule:
    """soc^n V as a submodule."""
    return _series_quotient(v, "socle", n, 0)


def socle_layer(v: Module, n: int) -> SubquotientModule:
    """The semisimple layer soc^n V / soc^{n-1} V, n >= 1."""
    if n < 1:
        raise ValueError("layers are indexed from 1")
    return _series_quotient(v, "socle", n, n - 1)


def radical_layer(v: Module, n: int) -> SubquotientModule:
    """The semisimple layer rad^{n-1} V / rad^n V, n >= 1."""
    if n < 1:
        raise ValueError("layers are indexed from 1")
    return _series_quotient(v, "radical", n - 1, n)


def capital_map(f: ModuleMap, n: int) -> ModuleMap:
    """The map induced by f on the capitals V/rad^n V (functor on morphisms)."""
    src = capital_n(f.source, n)
    tgt = capital_n(f.target, n)
    p = f.source.algebra.p
    return ModuleMap(src, tgt, matmul_mod(matmul_mod(src.lift, f.matrix, p), tgt.proj, p))


def socle_map(f: ModuleMap, n: int) -> ModuleMap:
    """The restriction of f to the n-th socles."""
    src = socle_submodule(f.source, n)
    tgt = socle_submodule(f.target, n)
    p = f.source.algebra.p
    moved = matmul_mod(src.lift, f.matrix, p)
    if not tgt.top.contains_vector(moved):
        raise ValueError("map does not carry the socle into the socle")
    return ModuleMap(src, tgt, matmul_mod(moved, tgt.proj, p))


def adjunction_forward(f: ModuleMap, n: int) -> ModuleMap:
    """Turn f: V/rad^n V -> W into the corresponding map V -> soc^n W.

    The source of f must be a capital produced by capital_n(V, n); the
    image automatically lands in soc^n W, which the construction verifies.
    """
    src = f.source
    if not isinstance(src, SubquotientModule):
        raise ValueError("source of f is not a capital subquotient")
    parent = src.parent
    p = parent.algebra.p
    if src.bot != radical_n(parent, n):
        raise ValueError(f"source of f is not the capital at level n={n}")
    target = socle_submodule(f.target, n)
    through = matmul_mod(src.proj, f.matrix, p)  # parent -> W coordinates
    if not target.top.contains_vector(through):
        raise ValueError("image does not lie in the n-th socle")
    return ModuleMap(parent, target, matmul_mod(through, target.proj, p))


def adjunction_backward(g: ModuleMap, n: int) -> ModuleMap:
    """Turn g: V -> soc^n W into the corresponding map V/rad^n V -> W."""
    tgt = g.target
    if not isinstance(tgt, SubquotientModule):
        raise ValueError("target of g is not a socle submodule")
    parent_w = tgt.parent
    p = parent_w.algebra.p
    if tgt.top != socle_n(parent_w, n):
        raise ValueError(f"target of g is not the socle at level n={n}")
    src = capital_n(g.source, n)
    if src.bot.dim and matmul_mod(src.bot.basis, g.matrix, p).any():
        raise ValueError("map does not kill rad^n of its source")
    return ModuleMap(src, parent_w, matmul_mod(matmul_mod(src.lift, g.matrix, p), tgt.lift, p))


def dual_socle_capital_iso(u: Module, n: int) -> tuple[ModuleMap, ModuleMap]:
    """Mutually inverse maps soc^n(f_dual U) <-> f_dual(U/rad^n U).

    Forward sends a functional vanishing on rad^n U to the functional it
    induces on the capital; backward pulls a functional on the capital
    back along the projection.  Both are linear over the opposite algebra
    and the construction checks they invert each other exactly.
    """
    to_soc, from_soc = _dual_of_quotient(capital_n(u, n), socle_submodule(f_dual(u), n))
    return from_soc, to_soc


def dual_layer_iso(u: Module, n: int) -> tuple[ModuleMap, ModuleMap]:
    """Mutually inverse maps f_dual(soc_n U) <-> rad_n(f_dual U), n >= 1.

    soc_n U is the n-th socle layer and rad_n(f_dual U) the n-th radical
    layer of the dual; the maps transport a functional on the layer to the
    class of any extension, and conversely restrict representatives.
    """
    if n < 1:
        raise ValueError("layers are indexed from 1")
    du = f_dual(u)
    p = u.algebra.p
    # rad^m of the dual is the annihilator of soc^m U; the layer maps below
    # are well defined exactly because of this.  It is, exactly when it pairs
    # to zero with soc^m U and has the complementary dimension.
    for m in (n - 1, n):
        soc, rad = socle_n(u, m), radical_n(du, m)
        if soc.dim + rad.dim != u.dim or matmul_mod(soc.basis, rad.basis.T, p).any():
            raise ValueError("dual radical series does not annihilate the socle series")
    return _dual_of_quotient(socle_layer(u, n), radical_layer(du, n))


def _dual_of_quotient(quo: SubquotientModule,
                      dual_quo: SubquotientModule) -> tuple[ModuleMap, ModuleMap]:
    """Checked mutually inverse maps f_dual(quo) <-> dual_quo, for quo = W/W'
    of U and dual_quo = ann W' / ann W of f_dual(U): forward extends a
    functional along quo.proj, backward restricts a representative to quo.lift."""
    p = quo.algebra.p
    dual = f_dual(quo)
    forward = ModuleMap(dual, dual_quo, matmul_mod(quo.proj.T, dual_quo.proj, p))
    backward = ModuleMap(dual_quo, dual, matmul_mod(dual_quo.lift, quo.lift.T, p))
    _check_mutually_inverse(forward, backward)
    return forward, backward


def _check_mutually_inverse(f: ModuleMap, g: ModuleMap) -> None:
    p = f.source.algebra.p
    d1, d2 = f.source.dim, g.source.dim
    if not np.array_equal(matmul_mod(f.matrix, g.matrix, p), np.eye(d1, dtype=np.int64)):
        raise ValueError("maps are not mutually inverse")
    if not np.array_equal(matmul_mod(g.matrix, f.matrix, p), np.eye(d2, dtype=np.int64)):
        raise ValueError("maps are not mutually inverse")


def layer_table(family: list[Module], kind: str) -> LayerTable:
    """Multiplicity table m[i][j][n-1] of S_j in the n-th layer of family[i].

    n runs from 1 to the algebra's Loewy length.  A layer W/W' of either
    series is semisimple, and over a basic algebra End(S_j) = F, so
    dim Hom(W/W', S_j) = dim Hom(S_j, W/W') = dim(W e_j) - dim(W' e_j).
    The dim(W e_j) are counted by _vertex_dims on the cached terms
    rad^n V (radical kind) or soc^n V (socle kind); no layer module is
    built.
    """
    if kind not in _TERMS:
        raise ValueError(f"kind must be one of {tuple(_TERMS)}, got {kind!r}")
    if not family:
        raise ValueError("family must not be empty")
    a = family[0].algebra
    if any(v.algebra is not a for v in family):
        raise ValueError("family members live over different algebras")
    L = a.loewy_length
    dims = np.array([_vertex_dims(v, kind, L) for v in family], dtype=np.int64)
    steps = np.diff(dims, axis=2)  # rad^n V shrinks with n, soc^n V grows
    return LayerTable(kind, -steps if kind == "radical" else steps, L)


def _vertex_dims(v: Module, kind: str, levels: int) -> np.ndarray:
    """dims[j][n] = dim(W_n e_j) for the terms W_n, n = 0 .. levels, of v's
    series of this kind, kept with the series.

    A term W is a submodule, so W is the direct sum of the W e_j.  When
    these lie on disjoint blocks of coordinates, the reduced echelon form
    of W is the union of the blocks' forms, so its pivots in block j
    number dim(W e_j).  On a vertex-adapted module (Module._vertex_basis)
    the blocks are those of its own coordinates, so the counts are read
    off each term's pivots with no elimination.  Otherwise each distinct
    term is eliminated once in the graded coordinates x·graded = (x·C_j)_j,
    for the vertex basis (R_j, C_j): they are the coordinates of each x e_j
    in the basis R_j of V e_j, so each V e_j lands injectively on its own
    block of columns.
    """
    counts = v._data.get((kind, "dims"))
    if counts is None:
        p = v.algebra.p
        rows, cols, block = v._vertex_basis()
        if block is None:
            graded = np.hstack(cols)  # d x d
            block = np.repeat(np.arange(len(rows)), [r.dim for r in rows])  # block of each column
            pivots = [rref(matmul_mod(w.basis, graded, p), p)[1] for w in _series(v, kind)]
        else:
            pivots = [w.pivots for w in _series(v, kind)]
        counts = v._data[kind, "dims"] = np.array(
            [np.bincount(block[piv], minlength=len(rows)) for piv in pivots])
    return counts[np.minimum(np.arange(levels + 1), len(counts) - 1)].T
