"""Finite-dimensional right modules over a basic algebra.

A module of dimension d stores one d x d action matrix per algebra basis
element; elements are row vectors and act on the right, v -> v·M.
Module maps are intertwiners in the same convention, so composition of
maps is matrix multiplication in application order.

The two duality functors both land over the opposite algebra: f_dual is
the linear dual (transposed actions) and a_dual is Hom into the regular
module with the action induced by left multiplication.  Their composite
is the Nakayama functor.

A module never changes after construction: its action matrices, and the
lift and proj of a subquotient, are read-only arrays.  What is derived
from a module is therefore computed once and shared.  The standard
modules of an algebra are kept on it weakly, so regular_module,
projective, injective and simple return the same object for as long as
some caller holds it.  What else is derived from a module is kept in two
dicts under a key per entry: the plain data (vertex basis, series and
their vertex dimensions, the action and _data of the A-dual) in
Module._data, and the derived modules (duals and series quotients) in
Module._cache.  A rewrapped series quotient adopts both dicts of its
first build.

On a Peirce basis (Algebra._peirce), such as a path basis, the standard
projectives P_i = e_i A and injectives I_i = D(A e_i) and the A-duals
Hom(P_i, A) = A e_i are gathers of the structure table, with no A_A, Hom
solve or subquotient.  On any other basis they are built the general way.

P_i and I_i are built once per algebra.  The algebra keeps a record of
each, strongly: its read-only arrays and subspaces and its _data, never
a module.  When the module itself has been freed, projective and
injective wrap the record again, so nothing is reduced, checked or
derived a second time.  The A-dual is plain data in _data, so a
rewrapped P_i wraps its A-dual again too, and nakayama(P_i) is one
transposed copy of it.  f_dual keeps the module it dualizes as plain
data too, so the dual of a dual wraps the original again.  The rest is
built again on request: series quotients, which are wrapped around their
parent, and A_A, whose d^3 action must not outlive its holders; P_i's
parent is A_A, built only when asked for.  No cached value or record
points back at a module's owner, so an algebra and every module built
over it are freed by reference counting alone.

Each module keeps one vertex basis (Module._vertex_basis), on which
hom_space solves, layer_table counts and find_isomorphism reads tops.  On
a vertex-adapted module, such as the standard modules of a Peirce basis,
it is read off the coordinates without elimination.  Out of a standard
projective P_i and into a standard injective I_i, hom_space reads the
basis off V e_i in closed form instead of solving: projective and
injective tag the modules they build with their vertex and the lift of
e_i A, never with another module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, _nonvanishing_combination
from .linalg import Subspace, complement_basis, kernel, matmul_mod, rank, rref

__all__ = [
    "Module",
    "SubquotientModule",
    "ModuleMap",
    "IsoSearchResult",
    "regular_module",
    "simple",
    "projective",
    "injective",
    "hom_space",
    "f_dual",
    "f_dual_map",
    "a_dual",
    "ADualModule",
    "nakayama",
    "subquotient",
    "submodule",
    "quotient_module",
    "find_isomorphism",
]

class Module:
    """A right module given by its read-only action matrices on a fixed basis."""

    # Set by projective on P_i and by injective on I_i = f_dual(e_i A^op):
    # (i, lift), where the rows of lift are a basis of e_i A (of e_i A^op for
    # I_i) in the coordinates of the algebra.  hom_space reads them.
    _projective_at: tuple[int, np.ndarray] | None = None
    _injective_at: tuple[int, np.ndarray] | None = None

    def __init__(self, algebra: Algebra, action: np.ndarray, check: bool = True):
        self.algebra = algebra
        self.action = np.asarray(action, dtype=np.int64) % algebra.p
        if self.action.ndim != 3 or self.action.shape[0] != algebra.dim \
                or self.action.shape[1] != self.action.shape[2]:
            raise ValueError(f"action tensor has shape {self.action.shape}")
        self.dim = self.action.shape[1]
        self.action.flags.writeable = False
        # Plain data by key: "vertex"; "a_dual", the action and _data of the
        # A-dual; from series, each series by kind and its terms' vertex
        # dimensions by (kind, "dims").  A standard module's record holds
        # this dict, so it holds no module.
        self._data: dict = {}
        # Derived modules by key: "f_dual", "a_dual"; from series, each pair
        # of terms by (top, bot) as (action, lift, proj, _data, _cache).
        self._cache: dict = {}
        if check:
            self._verify()

    @classmethod
    def _rewrap(cls, algebra: Algebra, action: np.ndarray, data: dict,
                cache: dict | None = None) -> "Module":
        """Another wrapper of a read-only action built and checked before,
        with the dicts derived from it, as they are: nothing is reduced,
        copied or checked again.  It sets every attribute that __init__ sets."""
        v = cls.__new__(cls)
        v.algebra, v.action, v.dim = algebra, action, action.shape[1]
        v._data, v._cache = data, {} if cache is None else cache
        return v

    def _verify(self) -> None:
        a, p, d = self.algebra, self.algebra.p, self.dim
        one = self.action[: a.num_vertices].sum(axis=0) % p  # 1 = e_0 + ... + e_{k-1}
        if not np.array_equal(one, np.eye(d, dtype=np.int64)):
            raise ValueError("identity does not act as the identity matrix")
        # Multiplicativity against the generators pins down the whole action:
        # Algebra checks that they generate A.  action[c·g] is taken only
        # where c·g != 0, mostly a few of the (c, g) on a path basis; where
        # c·g = 0 it is 0, and action[c]·action[g] is compared with 0.
        gens, n = a.generator_indices(), a.dim
        nonzero, rows = a._generator_products
        prod = np.zeros((n, len(gens), d, d), dtype=np.int64)
        prod[nonzero] = matmul_mod(rows, self.action.reshape(n, d * d), p).reshape(len(rows), d, d)
        # [c, g] = action[c]·action[g], as one 2-D product (c, i) x (g, j).
        direct = matmul_mod(self.action.reshape(n * d, d),
                            self.action[gens].transpose(1, 0, 2).reshape(d, len(gens) * d), p)
        direct = direct.reshape(n, d, len(gens), d).transpose(0, 2, 1, 3)
        bad = (prod != direct).any(axis=(0, 2, 3))
        if bad.any():
            g = gens[int(np.argmax(bad))]
            raise ValueError(
                f"action is not multiplicative against basis element {a.labels[g]!r}"
            )

    def _vertex_basis(self) -> tuple[list[Subspace], list[np.ndarray], np.ndarray | None]:
        """(R, C, block): R[i] = V e_i and C[i] = action[i][:, R[i].pivots]
        for each vertex i, so action[i] = C[i]·R[i].basis and R[j].basis·C[i]
        is 1 if j == i, else 0.  Computed once per action, which nothing
        reassigns, and kept in _data, which every wrapper of the action shares.

        On a vertex-adapted module, whose idempotents act on its coordinates
        as 0/1 diagonals (every standard module of a Peirce basis), R[i] is
        the identity's rows where e_i is 1, read with no elimination, and
        block[x] is the vertex of coordinate x.  Otherwise each R[i] is
        eliminated and block is None.
        """
        if "vertex" not in self._data:
            a, d = self.algebra, self.dim
            idem = self.action[: a.num_vertices]
            diag = idem[:, np.arange(d), np.arange(d)]
            # Each coordinate has one 1 on the diagonals, and nothing lies off them.
            if (diag.sum(axis=0) == 1).all() and np.count_nonzero(idem) == d:
                block = diag.argmax(axis=0)
                eye = np.eye(d, dtype=np.int64)
                rows = [Subspace(eye[on], d, a.p, np.flatnonzero(on).tolist()) for on in diag == 1]
                block.flags.writeable = False
            else:
                block = None
                rows = [Subspace.from_rows(e, d, a.p) for e in idem]
            cols = [e[:, r.pivots] for e, r in zip(self.action, rows)]
            for c in cols:
                c.flags.writeable = False
            self._data["vertex"] = (rows, cols, block)
        return self._data["vertex"]

    def act(self, x: np.ndarray) -> np.ndarray:
        """Action matrix of an arbitrary algebra element (row convention)."""
        x = np.asarray(x, dtype=np.int64) % self.algebra.p
        flat = self.action.reshape(self.algebra.dim, -1)
        return matmul_mod(x, flat, self.algebra.p).reshape(self.dim, self.dim)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class SubquotientModule(Module):
    """top/bot for invariant subspaces bot <= top of a parent module.

    lift (dim x parent.dim) sends coordinates to representatives inside the
    parent; proj (parent.dim x dim) reduces modulo bot and extracts
    coordinates, and lift·proj is the identity.  Both are read-only.
    """

    def __init__(self, algebra, action, parent: Module, top: Subspace, bot: Subspace,
                 lift: np.ndarray, proj: np.ndarray, check: bool = True):
        super().__init__(algebra, action, check=check)
        self.parent = parent
        self.top = top
        self.bot = bot
        self.lift = lift
        self.proj = proj
        lift.flags.writeable = proj.flags.writeable = False

    @classmethod
    def _rewrap_of(cls, parent: Module, top: Subspace, bot: Subspace, action: np.ndarray,
                   lift: np.ndarray, proj: np.ndarray, data: dict,
                   cache: dict | None = None) -> "SubquotientModule":
        """Module._rewrap of top/bot of parent, with the read-only lift and
        proj of its first build."""
        sub = cls._rewrap(parent.algebra, action, data, cache)
        sub.parent, sub.top, sub.bot, sub.lift, sub.proj = parent, top, bot, lift, proj
        return sub


class ModuleMap:
    """A module homomorphism source -> target as a matrix on row vectors."""

    def __init__(self, source: Module, target: Module, matrix: np.ndarray, check: bool = True):
        if source.algebra is not target.algebra:
            raise ValueError("source and target live over different algebras")
        self.source = source
        self.target = target
        p = source.algebra.p
        self.matrix = np.asarray(matrix, dtype=np.int64).reshape(source.dim, target.dim) % p
        if check and not self._intertwines():
            raise ValueError("matrix does not intertwine the algebra actions")

    def _intertwines(self) -> bool:
        """Whether the matrix commutes with the idempotents and arrows.  Their
        products span A, so this is exact for multiplicative actions, as in
        subquotient."""
        a = self.source.algebra
        gens = a.generator_indices()
        lhs = matmul_mod(self.source.action[gens], self.matrix, a.p)
        rhs = matmul_mod(self.matrix, self.target.action[gens], a.p)
        return np.array_equal(lhs, rhs)

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self followed by other.  The middle modules must be one object, or
        have equal actions over one algebra, as rewrapped series quotients do."""
        mid, start = self.target, other.source
        if start is not mid and not (start.algebra is mid.algebra
                                     and np.array_equal(start.action, mid.action)):
            raise ValueError("maps do not compose")
        return ModuleMap(self.source, other.target,
                         matmul_mod(self.matrix, other.matrix, self.source.algebra.p))

    def is_isomorphism(self) -> bool:
        if self.source.dim != self.target.dim:
            return False
        return rank(self.matrix, self.source.algebra.p) == self.source.dim

    def __repr__(self) -> str:
        return f"ModuleMap({self.source.dim} -> {self.target.dim})"


def regular_module(a: Algebra) -> Module:
    """The algebra as a right module over itself, shared while held."""
    v = a._standard_modules.get(("A", 0))
    if v is None:
        v = Module(a, a.table.transpose(1, 0, 2), check=False)
        a._standard_modules[("A", 0)] = v
    return v


def simple(a: Algebra, i: int) -> Module:
    """The simple module S_i concentrated at vertex i, shared while held."""
    if not (0 <= i < a.num_vertices):
        raise ValueError(f"vertex index {i} out of range")
    v = a._standard_modules.get(("S", i))
    if v is None:
        action = np.zeros((a.dim, 1, 1), dtype=np.int64)
        action[i, 0, 0] = 1
        v = Module(a, action)
        a._standard_modules[("S", i)] = v
    return v


def subquotient(v: Module, top: Subspace, bot: Subspace) -> SubquotientModule:
    """The module top/bot for invariant subspaces bot <= top of v.

    Invariance is tested against the idempotents and arrows only: their
    products span A, so this is exact when the action of v is
    multiplicative.  Module._verify checks that for an action given from
    outside; the regular module, f_dual of a module and every subquotient
    are multiplicative by construction.

    The induced action A'_c = lift·A_c·proj is a module by the same
    argument, so it is built unchecked.  For y in top, y·proj·lift - y lies
    in bot, and bot·proj = 0.  As top and bot are invariant,
    A'_a·A'_b = lift·A_a·A_b·proj = A'_ab when v is multiplicative, and
    lift·proj = 1 makes 1 act as 1."""
    p, d = v.algebra.p, v.dim
    generators = v.action[v.algebra.generator_indices()]
    for w in (top, bot):
        if w.ambient != d or w.p != p:
            raise ValueError("subspace does not live in the module's coordinate space")
        moved = matmul_mod(w.basis, generators, p)  # (generators, w.dim, d)
        if w.dim and moved.size and not w.contains_vector(moved.reshape(-1, d)):
            raise ValueError("subspace is not invariant under the algebra action")
    complement = complement_basis(top, bot)  # raises unless bot <= top
    lift = complement.basis
    # Row r of lift has a 1 at its pivot and every other row a 0 there, so
    # reading the residues modulo bot at the pivots inverts lift.
    proj = bot.reduce(np.eye(d, dtype=np.int64))[:, complement.pivots]
    action = matmul_mod(matmul_mod(lift, v.action, p), proj, p)  # lift·action[c]·proj
    return SubquotientModule(v.algebra, action, v, top, bot, lift, proj, check=False)


def submodule(v: Module, w: Subspace) -> SubquotientModule:
    return subquotient(v, w, Subspace.zero(v.dim, v.algebra.p))


def quotient_module(v: Module, w: Subspace) -> SubquotientModule:
    return subquotient(v, Subspace.full(v.dim, v.algebra.p), w)


class _ProjectiveModule(SubquotientModule):
    """The standard projective P_i = e_i A, a submodule of A_A whose lift
    and proj are in the algebra's coordinates.  Its parent, A_A, is built
    only when asked for."""

    @property
    def parent(self) -> Module:
        return regular_module(self.algebra)


def projective(a: Algebra, i: int) -> SubquotientModule:
    """The projective P_i = e_i A as a submodule of the regular module,
    shared while held.  Built once per algebra: when it has been freed,
    its record is wrapped again.

    On a Peirce basis (Algebra._peirce) e_i A is spanned by the basis
    elements in L = L[i], so its reduced basis, the lift, is the rows of
    the identity at L, and proj is its columns there.  subquotient's
    lift·(right multiplication by c)·proj is then the gather
    action[c][x, y] = table[L[x], c, L[y]], taken with no A_A or
    elimination; invariance is tested on the table slice.  Otherwise P_i
    is a subquotient of regular_module(a)."""
    if not (0 <= i < a.num_vertices):
        raise ValueError(f"vertex index {i} out of range")
    v = a._standard_modules.get(("P", i))
    if v is None:
        record = a._standard_records.get(("P", i))
        if record is None:
            record = a._standard_records["P", i] = _projective_record(a, i)
        top, bot, action, lift, proj, data = record
        v = _ProjectiveModule._rewrap(a, action, data)
        v.top, v.bot, v.lift, v.proj = top, bot, lift, proj
        v._projective_at = (i, lift)
        a._standard_modules[("P", i)] = v
    return v


def _projective_record(a: Algebra, i: int) -> tuple:
    """(top, bot, action, lift, proj, _data) of a new build of P_i."""
    if a._peirce is None:
        sub = submodule(regular_module(a), Subspace.from_rows(a.table[i], a.dim, a.p))
        return sub.top, sub.bot, sub.action, sub.lift, sub.proj, sub._data
    span = a._peirce[0][i]
    lift = np.eye(a.dim, dtype=np.int64)[span]
    proj = lift.T.copy()
    proj.flags.writeable = False
    return (Subspace(lift, a.dim, a.p, span), Subspace.zero(a.dim, a.p),
            _peirce_slice(a, span, "right", "subspace is not invariant under the algebra action"),
            lift, proj, {})


def injective(a: Algebra, i: int) -> Module:
    """The injective I_i, the linear dual of e_i A^op, shared while held and
    built once per algebra, as projective is.  I_i keeps only the lift of
    e_i A^op, for hom_space, and no module over the opposite.

    On a Peirce basis e_i A^op is A e_i, spanned by the basis elements in
    R = R[i], and I_i's action is the transpose of its gather,
    action[c][x, y] = table[c, R[y], R[x]]; invariance, that A e_i is a
    left ideal, is tested on the table slice.  Otherwise e_i A^op is a
    subquotient of the opposite's regular module, which nothing keeps."""
    if not (0 <= i < a.num_vertices):
        raise ValueError(f"vertex index {i} out of range")
    v = a._standard_modules.get(("I", i))
    if v is None:
        record = a._standard_records.get(("I", i))
        if record is None:
            record = a._standard_records["I", i] = _injective_record(a, i)
        v = Module._rewrap(a, record[0], record[2])
        v._injective_at = (i, record[1])
        a._standard_modules[("I", i)] = v
    return v


def _injective_record(a: Algebra, i: int) -> tuple:
    """(action, lift of e_i A^op, _data) of a new build of I_i."""
    if a._peirce is None:
        opp = a.opposite()
        q = submodule(regular_module(opp), Subspace.from_rows(opp.table[i], a.dim, a.p))
        action, lift = q.action.transpose(0, 2, 1).copy(), q.lift
    else:
        span = a._peirce[1][i]
        action = _peirce_slice(a, span, "left", "subspace is not invariant under the algebra action")
        action = action.transpose(0, 2, 1).copy()
        lift = np.eye(a.dim, dtype=np.int64)[span]
        lift.flags.writeable = False
    action.flags.writeable = False
    return action, lift, {}


def _peirce_slice(a: Algebra, span: list[int], side: str, message: str) -> np.ndarray:
    """The action of A on the span of the basis elements in span by
    multiplication on the given side, as a slice of the table:
    [c, x, y] = coefficient of b_span[y] in c * b_span[x] ("left") or in
    b_span[x] * c ("right").  Raises ValueError(message) unless every
    generator keeps the span, which makes it a left or a right ideal."""
    t, gens = a.table, a.generator_indices()
    outside = np.ones(a.dim, dtype=bool)
    outside[span] = False
    rows = t[:, span] if side == "left" else t[span].transpose(1, 0, 2)  # [c, x, :]
    if rows[gens][:, :, outside].any():
        raise ValueError(message)
    action = np.ascontiguousarray(rows[:, :, span])
    action.flags.writeable = False
    return action


def f_dual(v: Module) -> Module:
    """Linear dual of v as a module over the opposite algebra.

    Actions are transposed, and D D V = V on the nose: the dual keeps v's
    action and _data as plain data in its own _data, and f_dual of the
    dual wraps them again, so it shares v's vertex basis, series and
    A-dual.  The dual is built once per module and cached on it, so its
    own filtrations are computed once too.
    """
    if "f_dual" not in v._cache:
        record = v._data.get("f_dual")
        if record is None:
            # % p keeps its operand's strides: without the copy the action is not C-contiguous.
            dual = Module(v.algebra.opposite(), v.action.transpose(0, 2, 1).copy(), check=False)
            dual._data["f_dual"] = (v.action, v._data)
        else:
            dual = Module._rewrap(v.algebra.opposite(), *record)
        v._cache["f_dual"] = dual
    return v._cache["f_dual"]


def f_dual_map(f: ModuleMap) -> ModuleMap:
    """The dual of a map, between the duals in the opposite direction.

    Unchecked: f.matrix intertwines the actions, so its transpose
    intertwines the transposed ones."""
    return ModuleMap(f_dual(f.target), f_dual(f.source), f.matrix.T.copy(), check=False)


def hom_space(u: Module, v: Module) -> list[ModuleMap]:
    """Basis of Hom(u, v), canonical for the given coordinate systems: the
    reduced row-echelon basis of the space of intertwiners, flattened
    row-major.  Any spanning set of the space, row-reduced, gives it, so
    the three ways below return the same matrices.

    Out of the standard projective P_i = e_i A (u from projective):
    P_i is generated by e_i, so f -> f(e_i) is an isomorphism
    Hom(P_i, V) -> V e_i, with inverse x -> (y -> x y) (Auslander, Reiten
    and Smalo, Representation Theory of Artin Algebras, I.4).  For each
    row x of the basis of V e_i from Module._vertex_basis, the map in P_i's
    coordinates is lift·M_x, where lift is P_i's basis of e_i A and row c
    of M_x is x·action[c].

    Into the standard injective I_j = f_dual(e_j A^op) (v from injective):
    F intertwines u and I_j exactly when its transpose intertwines e_j A^op
    and f_dual(u), whose actions are the transposed ones.  So the maps are
    the transposes of those out of e_j A^op into f_dual(u) over the
    opposite algebra, read in the same closed form.

    Otherwise the space is solved on the vertex bases (R_i, C_i) of
    Module._vertex_basis.  An intertwiner F commutes with every
    idempotent, so F = sum_i C_i(u) P_i R_i(v), where P_i = R_i(u) F C_i(v)
    is a free dim(U e_i) x dim(V e_i) block of parameters.  Only the
    arrows constrain the blocks: an arrow g with e_s g e_t != 0 asks
    X P_t = P_s Y, where X = R_s(u) g C_t(u) and Y = R_s(v) g C_t(v).  The
    longer basis elements are products of generators, so this assumes the
    action is multiplicative, which Module checks for an action given from
    outside and the constructions preserve (see subquotient).  One kernel
    over all arrow constraints gives the parameters, mapped back to
    matrices.

    The basis maps are built unchecked, as they intertwine by
    construction.  In closed form, y -> x y is A-linear on e_i A.  When
    solved, each commutes with the idempotents by its form and the kernel
    makes it commute with every arrow block.  The last elimination only
    combines such maps.  That is all that ModuleMap._intertwines would
    test.
    """
    if u.algebra is not v.algebra:
        raise ValueError("modules live over different algebras")
    p = u.algebra.p
    if u._projective_at is not None:
        maps = _maps_from_projective(*u._projective_at, v)
    elif v._injective_at is not None:
        maps = _maps_from_projective(*v._injective_at, f_dual(u)).transpose(0, 2, 1)
    else:
        maps = _solve_hom(u, v)
    if len(maps) == 0:
        return []
    basis = rref(maps.reshape(len(maps), -1), p)[0]
    return [ModuleMap(u, v, row.reshape(u.dim, v.dim), check=False) for row in basis]


def _maps_from_projective(i: int, lift: np.ndarray, v: Module) -> np.ndarray:
    """The maps y -> x y out of e_i A, with basis lift, into v, one for each
    row x of the basis of v e_i: a stack (dim v e_i, len(lift), v.dim)."""
    p = v.algebra.p
    rows = v._vertex_basis()[0][i].basis
    moved = matmul_mod(rows, v.action, p)  # [c, x] = x·action[c]
    return matmul_mod(lift, moved.transpose(1, 0, 2), p)  # [x] = lift·moved[:, x]


def _solve_hom(u: Module, v: Module) -> np.ndarray:
    """The general solve of hom_space: a stack of maps spanning Hom(u, v)."""
    a = u.algebra
    p = a.p
    du, dv = u.dim, v.dim
    (ru, cu, _), (rv, cv, _) = u._vertex_basis(), v._vertex_basis()
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


class ADualModule(Module):
    """Hom(v, regular) over the opposite algebra.  Coordinate c stands for
    the c-th map of the basis hom_space(v, regular_module(A))."""


def a_dual(v: Module) -> ADualModule:
    """Hom_A(v, A) as a right module over the opposite algebra.

    The space is hom_space(v, regular), and the opposite action composes a
    map with left multiplication.  Checking it on the generators suffices,
    as it is multiplicative.  Built once per action: the dual is cached on
    v, and its action and _data are kept as plain data in v._data["a_dual"].
    A wrapper of v that finds them, such as a standard projective wrapped
    again from its record, wraps them again without building A_A, solving
    Hom(v, A) or checking anything.

    On a Peirce basis (Algebra._peirce) the A-dual of a standard P_i is
    the gather action[c][x, y] = table[c, R[x], R[y]] over the basis
    elements R = R[i] of A e_i, with no A_A or Hom solve.  The reduced
    basis of Hom(P_i, A) is the maps F_x: y -> b_R[x] y: F_x sends e_i,
    P_i's first basis element, to b_R[x], so its first nonzero is a 1 at
    (0, R[x]), where every other F_y is 0.  _build_a_dual reads these
    pivots, and c * b_R[x] gives the same action.  The closure test, that
    A e_i is a left ideal, runs on the table slice; ADualModule checks the
    module.
    """
    if "a_dual" not in v._cache:
        record = v._data.get("a_dual")
        if record is None:
            a = v.algebra
            if v._projective_at is None or a._peirce is None:
                dual = _build_a_dual(v)
            else:
                span = a._peirce[1][v._projective_at[0]]
                dual = ADualModule(a.opposite(), _peirce_slice(
                    a, span, "left", "left multiplication does not preserve the hom space"))
            v._data["a_dual"] = (dual.action, dual._data)
        else:
            dual = ADualModule._rewrap(v.algebra.opposite(), *record)
        v._cache["a_dual"] = dual
    return v._cache["a_dual"]


def _build_a_dual(v: Module) -> ADualModule:
    """The action read at the pivots (r_q, c_q) of the reduced basis F_b of
    hom_space(v, regular): action[c][b, q] = (F_b table[c])[r_q, c_q], where
    table[c] is left multiplication by c.  Closure is checked on the
    generators only, which is exact: ADualModule checks that 1 acts as 1,
    forcing F_b[r_q, c_q] = delta_bq, and that the action is multiplicative,
    so it agrees with left multiplication on products of generators."""
    a = v.algebra
    maps = hom_space(v, regular_module(a))
    m = len(maps)
    if m == 0:
        return ADualModule(a.opposite(), np.zeros((a.dim, 0, 0), dtype=np.int64))
    stacked = np.array([f.matrix for f in maps], dtype=np.int64)  # (m, v.dim, a.dim)
    rows, cols = np.divmod([int(np.flatnonzero(f)[0]) for f in stacked.reshape(m, -1)], a.dim)
    action = matmul_mod(stacked[:, rows].transpose(1, 0, 2),
                        a.table[:, :, cols].transpose(2, 1, 0), a.p).transpose(2, 1, 0).copy()
    gens = a.generator_indices()
    # moved[g, b] = F_b table[g]
    moved = matmul_mod(stacked.reshape(-1, a.dim), a.table[gens], a.p).reshape(len(gens), m, -1)
    if not np.array_equal(moved, matmul_mod(action[gens], stacked.reshape(m, -1), a.p)):
        raise ValueError("left multiplication does not preserve the hom space")
    return ADualModule(a.opposite(), action)


def nakayama(v: Module) -> Module:
    """The Nakayama functor: linear dual of the algebra dual."""
    return f_dual(a_dual(v))


@dataclass(eq=False)
class IsoSearchResult:
    """Tri-state outcome of an isomorphism search: yes / no / unknown.

    An "unknown" states its reason in note."""

    status: str
    witness: ModuleMap | None = None
    note: str = ""


def find_isomorphism(u: Module, v: Module, seed: int = 0) -> IsoSearchResult:
    """Decide whether u and v are isomorphic, with an isomorphism as witness.

    A map f: u -> v between modules of the same dimension is an isomorphism
    exactly when it is onto, which by Nakayama's lemma holds exactly when
    it induces an isomorphism of the tops u/rad u -> v/rad v.  The basis of
    Hom(u, v) is scanned first.  Then the answer is "no" when the tops or
    the socles differ.  When no simple repeats in the top, the induced map
    is one scalar lambda_j(f) per simple S_j of the top, linear in f, and an
    isomorphism exists exactly when some combination of the Hom basis makes
    every lambda_j nonzero, which algebra._nonvanishing_combination decides.
    When the socle is multiplicity-free instead, the same is done for the
    dual maps f_dual(v) -> f_dual(u), as the top of f_dual(v) is the dual
    of soc v.  When both the top and the socle repeat a simple the answer
    is "unknown", with the reason in its note: that case needs a
    Krull-Schmidt splitting (Brooksbank-Luks, "Testing isomorphism of
    modules", J. Algebra 320, 2008).  Nothing is drawn at random.

    seed is accepted for compatibility and has no effect.
    """
    from .series import layer_table  # series builds on this module

    if u.algebra is not v.algebra:
        raise ValueError("modules live over different algebras")
    p = u.algebra.p
    if u.dim != v.dim:
        return IsoSearchResult("no")
    if u.dim == 0:
        return IsoSearchResult("yes", ModuleMap(u, v, np.zeros((0, 0), dtype=np.int64)))
    maps = hom_space(u, v)
    if not maps:
        return IsoSearchResult("no")
    for f in maps:
        if f.is_isomorphism():
            return IsoSearchResult("yes", f)
    stacked = np.array([f.matrix for f in maps], dtype=np.int64)
    tops = layer_table([u, v], "radical").table[:, :, 0]
    if not np.array_equal(tops[0], tops[1]):
        return IsoSearchResult("no")
    if tops.max() <= 1:
        phi = _top_scalars(stacked, u, v)
    else:
        socles = layer_table([u, v], "socle").table[:, :, 0]
        if not np.array_equal(socles[0], socles[1]):
            return IsoSearchResult("no")
        if socles.max() > 1:
            return IsoSearchResult("unknown", note="the top and the socle both repeat a simple")
        # f_dual_map(f) has the matrix f.matrix.T.
        phi = _top_scalars(stacked.transpose(0, 2, 1), f_dual(v), f_dual(u))
    if not phi.any(axis=0).all():
        return IsoSearchResult("no")
    c = _nonvanishing_combination(phi, p)
    if c is None:
        return IsoSearchResult("no")
    witness = ModuleMap(u, v, matmul_mod(c, stacked.reshape(len(maps), -1), p))
    if not witness.is_isomorphism():
        raise RuntimeError("the combination found does not induce an isomorphism of the tops")
    return IsoSearchResult("yes", witness)


def _top_scalars(mats: np.ndarray, u: Module, v: Module) -> np.ndarray:
    """phi[b, j] = lambda_j(mats[b]) up to a nonzero factor per column.

    mats is a stack of maps u -> v, and u and v have the same
    multiplicity-free top.  For each simple S_j of the top, x_j in u e_j
    lies outside rad u, and the images of v e_j modulo rad v form a line;
    lambda_j(f) is the coordinate of x_j f modulo rad v on that line.
    """
    from .series import radical_n  # series builds on this module

    p = u.algebra.p
    rad_u, rad_v = radical_n(u, 1), radical_n(v, 1)
    xs, cols = [], []
    for eu, ev in zip(u._vertex_basis()[0], v._vertex_basis()[0]):
        outside = np.nonzero(rad_u.reduce(eu.basis).any(axis=1))[0]
        if outside.size:
            xs.append(eu.basis[outside[0]])
            cols.append(np.argwhere(rad_v.reduce(ev.basis))[0, 1])
    images = matmul_mod(np.array(xs), mats, p)  # (len(mats), len(xs), v.dim)
    reduced = rad_v.reduce(images.reshape(-1, v.dim)).reshape(images.shape)
    return reduced[:, np.arange(len(xs)), cols]
