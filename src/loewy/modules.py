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
some caller holds it.  Each module keeps its f_dual and a_dual, and
series.py keeps the data of its layers, capitals and socle submodules on
it.  None of these caches points back at its owner, so an algebra and
every module built over it are freed by reference counting alone.

Each module keeps one vertex basis (Module._vertex_basis), on which
hom_space solves, layer_table counts and find_isomorphism reads tops.
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

    def __init__(self, algebra: Algebra, action: np.ndarray, check: bool = True):
        self.algebra = algebra
        self.action = np.asarray(action, dtype=np.int64) % algebra.p
        if self.action.ndim != 3 or self.action.shape[0] != algebra.dim \
                or self.action.shape[1] != self.action.shape[2]:
            raise ValueError(f"action tensor has shape {self.action.shape}")
        self.dim = self.action.shape[1]
        self.action.flags.writeable = False
        # Filled by series: each series by kind, its terms' vertex dimensions,
        # and the subquotient of each pair of terms as (action, lift, proj,
        # _vertex); the duals by f_dual and a_dual; the vertex basis by
        # _vertex_basis, into a list that series can share among wrappers
        # before it is filled.
        self._series: dict[str, list[Subspace]] = {}
        self._series_dims: dict[str, np.ndarray] = {}
        self._subquotients: dict[tuple[Subspace, Subspace], tuple] = {}
        self._vertex: list[tuple[list[Subspace], list[np.ndarray]]] = []
        self._f_dual: Module | None = None
        self._a_dual: ADualModule | None = None
        if check:
            self._verify()

    def _verify(self) -> None:
        a, p, d = self.algebra, self.algebra.p, self.dim
        if not np.array_equal(self.act(a.one), np.eye(d, dtype=np.int64)):
            raise ValueError("identity does not act as the identity matrix")
        # Multiplicativity against the generators, all in one product, pins
        # down the whole action: Algebra checks that they generate A.
        gens, n = a.generator_indices(), a.dim
        flat = self.action.reshape(n, d * d)
        prod = matmul_mod(a.table[:, gens, :], flat, p).reshape(n, len(gens), d, d)
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

    def _vertex_basis(self) -> tuple[list[Subspace], list[np.ndarray]]:
        """(R, C): R[i] = V e_i and C[i] = action[i][:, R[i].pivots] for each
        vertex i, so action[i] = C[i]·R[i].basis and R[j].basis·C[i] is 1 if
        j == i, else 0.  Computed once per action, which nothing reassigns;
        series shares _vertex among the wrappers of one cached subquotient."""
        if not self._vertex:
            p = self.algebra.p
            rows = [Subspace.from_rows(e, self.dim, p)
                    for e in self.action[: self.algebra.num_vertices]]
            cols = [e[:, r.pivots] for e, r in zip(self.action, rows)]
            for c in cols:
                c.flags.writeable = False
            self._vertex.append((rows, cols))
        return self._vertex[0]

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
    lift = complement_basis(top, bot)  # raises unless bot <= top
    # lift is in reduced echelon form: each row's first nonzero is its pivot.
    piv_c = [int(np.flatnonzero(row)[0]) for row in lift]
    proj = bot.reduce(np.eye(d, dtype=np.int64))[:, piv_c]
    # lift·action[c]·proj for every c, the first product as one 2-D product.
    n, q = v.algebra.dim, len(lift)
    lifted = matmul_mod(lift, v.action.transpose(1, 0, 2).reshape(d, n * d), p)
    action = matmul_mod(lifted.reshape(q, n, d).transpose(1, 0, 2), proj, p)  # (dimA, q, q)
    return SubquotientModule(v.algebra, action, v, top, bot, lift, proj, check=False)


def submodule(v: Module, w: Subspace) -> SubquotientModule:
    return subquotient(v, w, Subspace.zero(v.dim, v.algebra.p))


def quotient_module(v: Module, w: Subspace) -> SubquotientModule:
    return subquotient(v, Subspace.full(v.dim, v.algebra.p), w)


def projective(a: Algebra, i: int) -> SubquotientModule:
    """The projective P_i = e_i A as a submodule of the regular module,
    shared while held."""
    if not (0 <= i < a.num_vertices):
        raise ValueError(f"vertex index {i} out of range")
    v = a._standard_modules.get(("P", i))
    if v is None:
        span = Subspace.from_rows(a.table[i] % a.p, a.dim, a.p)
        v = submodule(regular_module(a), span)
        a._standard_modules[("P", i)] = v
    return v


def injective(a: Algebra, i: int) -> Module:
    """The injective I_i, the linear dual of the opposite projective at i,
    shared while held."""
    v = a._standard_modules.get(("I", i))
    if v is None:
        v = f_dual(projective(a.opposite(), i))
        a._standard_modules[("I", i)] = v
    return v


def f_dual(v: Module) -> Module:
    """Linear dual of v as a module over the opposite algebra.

    Actions are transposed; applying f_dual twice returns the original
    action tensor on the nose.  The dual is built once per module and
    cached on it, so its own filtrations are computed once too.
    """
    if v._f_dual is None:
        v._f_dual = Module(v.algebra.opposite(), v.action.transpose(0, 2, 1).copy(), check=False)
    return v._f_dual


def f_dual_map(f: ModuleMap) -> ModuleMap:
    """The dual of a map, between the duals in the opposite direction.

    Unchecked: f.matrix intertwines the actions, so its transpose
    intertwines the transposed ones."""
    return ModuleMap(f_dual(f.target), f_dual(f.source), f.matrix.T.copy(), check=False)


def hom_space(u: Module, v: Module) -> list[ModuleMap]:
    """Basis of Hom(u, v), canonical for the given coordinate systems.

    Solved on the vertex bases (R_i, C_i) of Module._vertex_basis.  An
    intertwiner F commutes with every idempotent, so F = sum_i C_i(u) P_i
    R_i(v), where P_i = R_i(u) F C_i(v) is a free dim(U e_i) x dim(V e_i)
    block of parameters.  Only the arrows constrain the blocks: an arrow g
    with e_s g e_t != 0 asks X P_t = P_s Y, where X = R_s(u) g C_t(u) and
    Y = R_s(v) g C_t(v).  The longer basis elements are products of
    generators, so this assumes the action is multiplicative, which Module
    checks for an action given from outside and the constructions
    preserve (see subquotient).  One kernel over all arrow
    constraints gives the parameters; mapped back to matrices and
    row-reduced they give the reduced row-echelon basis of the space of
    intertwiners, flattened row-major.

    The basis maps are built unchecked, as they intertwine by
    construction: each commutes with the idempotents by its form, the
    kernel makes it commute with every arrow block, and the last
    elimination only combines such maps.  That is all that
    ModuleMap._intertwines would test.
    """
    if u.algebra is not v.algebra:
        raise ValueError("modules live over different algebras")
    a = u.algebra
    p = a.p
    du, dv = u.dim, v.dim
    (ru, cu), (rv, cv) = u._vertex_basis(), v._vertex_basis()
    offsets = np.cumsum([0] + [eu.dim * ev.dim for eu, ev in zip(ru, rv)])
    m = int(offsets[-1])
    if m == 0:
        return []
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
        return []
    maps = np.zeros((n, du, dv), dtype=np.int64)
    for i, (c, r) in enumerate(zip(cu, rv)):
        block = params[:, offsets[i]:offsets[i + 1]].reshape(n, c.shape[1], r.dim)
        maps = (maps + matmul_mod(matmul_mod(c, block, p), r.basis, p)) % p
    basis = rref(maps.reshape(-1, du * dv), p)[0]
    return [ModuleMap(u, v, row.reshape(du, dv), check=False) for row in basis]


class ADualModule(Module):
    """Hom(v, regular) over the opposite algebra.  Coordinate c stands for
    the c-th map of the basis hom_space(v, regular_module(A))."""


def a_dual(v: Module) -> ADualModule:
    """Hom_A(v, A) as a right module over the opposite algebra.

    The space is hom_space(v, regular), and the opposite action composes a
    map with left multiplication.  Checking it on the generators suffices,
    as it is multiplicative.  Built once and cached on v, as f_dual is.
    """
    if v._a_dual is None:
        v._a_dual = _build_a_dual(v)
    return v._a_dual


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
    moved = matmul_mod(stacked, a.table[gens][:, None], a.p).reshape(len(gens), m, -1)
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
