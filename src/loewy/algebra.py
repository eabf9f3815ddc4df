"""Finite-dimensional basic algebras presented by quivers with relations.

An algebra is the quotient of a path algebra FQ over GF(p) by admissible
relations together with all paths of length >= N (the truncation), so the
result is always finite dimensional.  Paths compose left to right: the
product of q: u -> v and r: v -> w is the concatenation q r.  The basis
consists of the surviving path representatives ordered by length and then
lexicographically by arrow index sequence; in particular the first k basis
elements are the trivial paths e_0 ... e_{k-1}, the primitive idempotents.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import PrimeField, Subspace, kernel, matmul_mod, radical_chain, rank, rref

__all__ = [
    "Arrow",
    "Quiver",
    "Relation",
    "Algebra",
    "SymmetryResult",
    "build_path_algebra",
    "is_symmetric",
]


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


class Quiver:
    """A finite quiver with named arrows on vertices 0 .. vertex_count - 1."""

    def __init__(self, vertex_count: int, arrows=()):
        if vertex_count < 0:
            raise ValueError("vertex_count must be >= 0")
        self.vertex_count = vertex_count
        self.arrows: list[Arrow] = []
        self._index: dict[str, int] = {}
        for a in arrows:
            if not isinstance(a, Arrow):
                a = Arrow(*a)
            if a.name in self._index:
                raise ValueError(f"duplicate arrow name {a.name!r}")
            if not (0 <= a.source < vertex_count and 0 <= a.target < vertex_count):
                raise ValueError(f"arrow {a.name!r} has endpoints outside the vertex range")
            self._index[a.name] = len(self.arrows)
            self.arrows.append(a)

    def arrow_index(self, name: str) -> int:
        if name not in self._index:
            raise ValueError(f"unknown arrow name {name!r}")
        return self._index[name]

    def reverse(self) -> "Quiver":
        return Quiver(
            self.vertex_count,
            [Arrow(a.name, a.target, a.source) for a in self.arrows],
        )

    def __repr__(self) -> str:
        return f"Quiver(vertices={self.vertex_count}, arrows={len(self.arrows)})"


@dataclass(frozen=True)
class Relation:
    """A linear combination of parallel paths, each of length >= 2.

    terms is a tuple of (coefficient, path) pairs where a path is a tuple of
    arrow names in composition order (left to right).
    """

    terms: tuple[tuple[int, tuple[str, ...]], ...]

    @classmethod
    def of(cls, *terms) -> "Relation":
        return cls(tuple((int(c), tuple(path)) for c, path in terms))


class _Path:
    __slots__ = ("arrows", "source", "target")

    def __init__(self, arrows: tuple[int, ...], source: int, target: int):
        self.arrows = arrows
        self.source = source
        self.target = target


def _enumerate_paths(quiver: Quiver, max_len: int) -> list[_Path]:
    """All paths of length < max_len, sorted by length then arrow sequence."""
    trivial = [_Path((), v, v) for v in range(quiver.vertex_count)]
    out_arrows: dict[int, list[int]] = {v: [] for v in range(quiver.vertex_count)}
    for i, a in enumerate(quiver.arrows):
        out_arrows[a.source].append(i)
    layers = [trivial]
    while len(layers) < max_len:
        prev = layers[-1]
        nxt = []
        for path in prev:
            for i in out_arrows[path.target]:
                nxt.append(_Path(path.arrows + (i,), path.source, quiver.arrows[i].target))
        if not nxt:
            break
        nxt.sort(key=lambda q: q.arrows)
        layers.append(nxt)
    return [q for layer in layers for q in layer]


def _path_label(path: _Path, quiver: Quiver) -> str:
    if not path.arrows:
        return f"e{path.source}"
    return "*".join(quiver.arrows[i].name for i in path.arrows)


def _validate_relation(rel: Relation, quiver: Quiver, p: int) -> list[tuple[int, tuple[int, ...], int, int]]:
    """Check one relation and return reduced terms as (coeff, arrow indices, source, target)."""
    if not rel.terms:
        raise ValueError("empty relation")
    endpoints = None
    reduced = []
    for coeff, path in rel.terms:
        if len(path) < 2:
            raise ValueError(f"relation path {path!r} has length {len(path)} < 2")
        idx = tuple(quiver.arrow_index(name) for name in path)
        for a, b in zip(idx, idx[1:]):
            if quiver.arrows[a].target != quiver.arrows[b].source:
                raise ValueError(f"relation path {path!r} does not compose")
        src = quiver.arrows[idx[0]].source
        tgt = quiver.arrows[idx[-1]].target
        if endpoints is None:
            endpoints = (src, tgt)
        elif endpoints != (src, tgt):
            raise ValueError(f"relation mixes non-parallel paths: {endpoints} vs {(src, tgt)}")
        coeff = int(coeff) % p
        if coeff:
            reduced.append((coeff, idx, src, tgt))
    return reduced


class _Presentation:
    """Stage one of build_path_algebra: the paths below the truncation and
    the relation ideal, validated.  The quotient dimension is known here,
    before the structure tensor is built, so callers can reject by size."""

    def __init__(self, quiver: Quiver, relations, truncation: int, p: int):
        self.field = PrimeField(p)
        self.quiver = quiver
        self.relations = tuple(relations)
        self.truncation = truncation
        if quiver.vertex_count == 0:
            raise ValueError("algebra needs at least one vertex")
        if truncation < 1:
            raise ValueError("truncation must be >= 1")
        if self.relations and truncation < 2:
            raise ValueError("truncation must be >= 2 when relations are present")

        self.paths = _enumerate_paths(quiver, truncation)
        n_paths = len(self.paths)
        self.index = {(q.source, q.arrows): i for i, q in enumerate(self.paths)}

        # Span of u * rel * v over all path pairs, with length >= N terms
        # dropped.  The terms of a relation are parallel, so only u ending at
        # its source and v starting at its target can contribute, and only
        # while the shortest term still fits below the truncation (the paths
        # are sorted by length).
        ideal_rows = []
        for rel in self.relations:
            terms = _validate_relation(rel, quiver, p)
            if not terms:
                continue
            _, _, src, tgt = terms[0]
            shortest = min(len(idx) for _, idx, _, _ in terms)
            for u in self.paths:
                if len(u.arrows) + shortest >= truncation:
                    break
                if u.target != src:
                    continue
                for v in self.paths:
                    if len(u.arrows) + shortest + len(v.arrows) >= truncation:
                        break
                    if v.source != tgt:
                        continue
                    row = np.zeros(n_paths, dtype=np.int64)
                    for coeff, idx, _, _ in terms:
                        full = u.arrows + idx + v.arrows
                        if len(full) < truncation:
                            c = self.index[(u.source, full)]
                            row[c] = (row[c] + coeff) % p
                    if row.any():
                        ideal_rows.append(row)
        if ideal_rows:
            self.ideal = Subspace.from_rows(np.array(ideal_rows), n_paths, p)
        else:
            self.ideal = Subspace.zero(n_paths, p)
        # Admissible relations only touch coordinates of paths of length >= 2.
        if any(c < quiver.vertex_count + len(quiver.arrows) for c in self.ideal.pivots):
            raise ValueError("relations are not admissible: they reach below path length 2")

    @property
    def dim(self) -> int:
        return len(self.paths) - self.ideal.dim

    def build(self) -> "Algebra":
        """Stage two: the structure tensor on the surviving paths, verified."""
        truncation = self.truncation
        n_paths = len(self.paths)
        pivot_set = set(self.ideal.pivots)
        free = [i for i in range(n_paths) if i not in pivot_set]
        # n_paths x dim: coordinates of each path modulo the ideal.
        proj = self.ideal.reduce(np.eye(n_paths, dtype=np.int64))[:, free]
        basis_paths = [self.paths[i] for i in free]
        dim = len(basis_paths)
        labels = [_path_label(q, self.quiver) for q in basis_paths]
        lengths = np.array([len(q.arrows) for q in basis_paths], dtype=np.int64)

        table = np.zeros((dim, dim, dim), dtype=np.int64)
        for a, qa in enumerate(basis_paths):
            for b, qb in enumerate(basis_paths):
                if qa.target != qb.source:
                    continue
                full = qa.arrows + qb.arrows
                if len(full) >= truncation:
                    continue
                table[a, b] = proj[self.index[(qa.source, full)]]

        return Algebra(
            self.field,
            table,
            labels,
            lengths,
            self.quiver.vertex_count,
            quiver=self.quiver,
            relations=self.relations,
            truncation=truncation,
        )


def build_path_algebra(quiver: Quiver, relations, truncation: int, p: int = 5) -> "Algebra":
    """Build FQ / (<relations> + R**truncation) over GF(p).

    Args:
        quiver: quiver with at least one vertex.
        relations: iterable of Relation (may be empty).
        truncation: N >= 1; all paths of length >= N are killed.  N >= 2 is
            required when relations are present.
        p: prime field modulus.

    Returns:
        the finite-dimensional Algebra, verified fail-fast.
    """
    return _Presentation(quiver, relations, truncation, p).build()


# The associativity check in Algebra._verify_structure runs over the a's in
# blocks whose two products have at most this many output entries each, at
# least one a per block.  That is one block for Nakayama (6, 6), dimension
# 42, and keeps the check's arrays well below the d**3 entries of the table
# at dimension 156 and above.
_ASSOC_BLOCK_ENTRIES = 1 << 20


class Algebra:
    """A basic algebra with a path-representative basis and dense structure constants.

    table[a, b] holds the coordinates of basis_a * basis_b.  The first
    num_vertices basis elements are the primitive idempotents; the radical is
    the span of the basis paths of length >= 1.  The constructor verifies
    identity, idempotent and associativity laws, computes the radical chain,
    checks that it reaches 0 from a first term of codimension num_vertices,
    which makes the paths of length <= 1 generate, and fails fast on a violation.
    """

    # Set by the first is_symmetric, on an opposite too: an algebra never
    # changes, so it is decided once.
    _symmetry: "SymmetryResult | None" = None

    def __init__(
        self,
        field: PrimeField,
        table: np.ndarray,
        labels: list[str],
        path_lengths: np.ndarray,
        num_vertices: int,
        quiver: Quiver | None = None,
        relations=(),
        truncation: int | None = None,
    ):
        self.field = field
        self.p = field.p
        self.table = np.asarray(table, dtype=np.int64) % field.p
        self.dim = self.table.shape[0]
        self.labels = list(labels)
        self.path_lengths = np.asarray(path_lengths, dtype=np.int64)
        self.num_vertices = num_vertices
        self.quiver = quiver
        self.relations = relations
        self.truncation = truncation
        self._opp: "Algebra | None" = None
        # Set on an opposite: a weak link back to the algebra it was built
        # from, so the pair forms no reference cycle.
        self._opp_of: "weakref.ref[Algebra] | None" = None
        # The regular, simple, projective and injective modules, filled by
        # loewy.modules.  Held weakly: each module links to its algebra, so
        # a strong cache would form a reference cycle.
        self._standard_modules: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        # One record per standard projective and injective, filled by
        # loewy.modules, which wraps a freed one again from it.  Held
        # strongly: a record holds arrays, subspaces and plain data only,
        # never a module.
        self._standard_records: dict = {}

        if self.table.shape != (self.dim, self.dim, self.dim):
            raise ValueError(f"structure table has shape {self.table.shape}")
        if len(self.labels) != self.dim or len(self.path_lengths) != self.dim:
            raise ValueError("basis bookkeeping does not match the dimension")
        k = self.num_vertices
        if not (1 <= k <= self.dim):
            raise ValueError(f"bad vertex count {k} for dimension {self.dim}")
        if self.path_lengths[:k].any() or (self.path_lengths[k:] < 1).any():
            raise ValueError(f"path lengths must be 0 on the first {k} basis elements, then >= 1")
        self._generators = np.nonzero(self.path_lengths <= 1)[0]
        self._generators.flags.writeable = False

        self.idempotents = np.eye(k, self.dim, dtype=np.int64)
        self.one = self.idempotents.sum(axis=0) % self.p
        self._verify_structure()

        # rad^n A = rad^{n-1} A * (arrow blocks) reaches 0 iff rad A is nilpotent.
        right_mult = self._block_actions(self.table.transpose(1, 0, 2))  # on A_A
        self._radical_chain = radical_chain(right_mult, self.p)
        if self._radical_chain[-1].dim:
            raise ValueError("radical chain fails to shrink")
        # rad A lies in the span of the basis elements of length >= 1 by the
        # degree-zero check; codimension k gives A = span(e_i) + rad A, so by
        # Nakayama's lemma the trivial paths and arrows generate A.
        if self._radical_chain[1].dim != self.dim - k:
            raise ValueError("the trivial paths and arrows do not generate the algebra")
        self.radical = self._radical_chain[1]
        self.loewy_length = len(self._radical_chain) - 1

    # -- construction-time checks -------------------------------------------------

    def _verify_structure(self) -> None:
        p, d, k = self.p, self.dim, self.num_vertices
        t = self.table
        ident = np.eye(d, dtype=np.int64)
        # identity element: 1 = e_0 + ... + e_{k-1}, so 1*b and a*1 add up k
        # rows of the table, each entry below p.
        left = t[:k].sum(axis=0) % p  # [b] = 1*b
        right = t[:, :k].sum(axis=1) % p  # [a] = a*1
        if not (np.array_equal(left, ident) and np.array_equal(right, ident)):
            raise ValueError("identity check failed")
        # orthogonal idempotents on the trivial paths: e_i * e_j = delta_ij e_i
        expect = np.zeros((k, k, d), dtype=np.int64)
        expect[range(k), range(k), range(k)] = 1
        bad = (t[:k, :k] != expect).any(axis=2)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(f"idempotent check failed at e{i} * e{j}")
        # radical coordinates never produce idempotent components
        if t[:, k:, :k].any() or t[k:, :, :k].any():
            raise ValueError("products of radical elements leak into degree zero")
        # associativity: (a*b)*g = a*(b*g) for basis elements a, b and each
        # generator g.  Then (x*y)*(w*g) = ((x*y)*w)*g = (x*(y*w))*g = x*(y*(w*g))
        # by induction on the length of w, a product of generators, so all of A
        # associates: __init__ reads off the radical chain that they generate.
        #
        # Only products that can be nonzero are computed.  A zero row a*b
        # gives (a*b)*g = 0 for every g, and a zero row b*g gives a*(b*g) = 0
        # for every a.  So the left side is one product of the nonzero rows
        # a*b against all generators at once, and the right side one product
        # of the nonzero rows b*g against all a at once.  On a row a*b != 0 the
        # left side must equal the right side at (b, g), or 0 where b*g = 0.
        # At a pair with a*b = 0 every right-side entry must be 0; where
        # b*g = 0 too, both sides are 0.  That is every (a, b, g) equation.
        # The a's run in consecutive blocks (_ASSOC_BLOCK_ENTRIES): the left
        # side on the rows a*b of the block, the right side on t[lo:hi].
        gens = self.generator_indices()
        n = len(gens)
        bg, bg_rows = self._generator_products
        rb, rg = np.nonzero(bg)  # the nonzero b*g
        by_gens = t[:, gens, :].reshape(d, n * d)  # [c, (g, x)] = (c*g)_x
        ab = t.any(axis=2)  # a*b != 0
        la, lb = np.nonzero(ab)  # the nonzero a*b, ordered by a
        row_of = np.full((d, n), -1)  # the row of b*g in bg_rows, or -1 where b*g = 0
        row_of[rb, rg] = np.arange(len(rb))
        l_start = np.concatenate(([0], np.cumsum(ab.sum(axis=1))))  # left rows before each a
        l_rows = _ASSOC_BLOCK_ENTRIES // (n * d)
        # Each b = b*1 = sum of b*e_i has a nonzero b*e_i, so len(rb) >= d.
        a_step = _ASSOC_BLOCK_ENTRIES // (len(rb) * d)  # a's per right-side block
        lo = 0
        while lo < d:
            hi = int(np.searchsorted(l_start, l_start[lo] + l_rows, "right")) - 1
            hi = max(min(hi, lo + a_step), lo + 1)
            ls = slice(l_start[lo], l_start[hi])
            a_of, at = la[ls], row_of[lb[ls]]
            rhs = matmul_mod(bg_rows, t[lo:hi], p)  # [a, (b, g)] = a*(b*g)
            # The right side, the larger product, runs first, while the block holds
            # no other product: that lowers the peak memory.
            lhs = matmul_mod(t[a_of, lb[ls]], by_gens, p).reshape(-1, n, d)  # [(a, b), g] = (a*b)*g
            want = rhs[a_of[:, None] - lo, at]
            want[at < 0] = 0
            if not np.array_equal(lhs, want) or (rhs.any(axis=2) & ~ab[lo:hi, rb]).any():
                raise ValueError("associativity check failed")
            lo = hi

    def radical_power(self, n: int) -> Subspace:
        """The subspace rad^n, with rad^0 the whole algebra."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return self._radical_chain[min(n, self.loewy_length)]

    def generator_indices(self) -> np.ndarray:
        """Basis indices of the trivial paths and arrows present in the basis, read-only."""
        return self._generators

    @cached_property
    def _generator_products(self) -> tuple[np.ndarray, np.ndarray]:
        """(nonzero, rows): nonzero[c, g] tells whether basis element c times
        generator g is nonzero, and rows holds those products c*g, in the
        order of np.nonzero(nonzero).  Both are read-only."""
        by_gen = self.table[:, self.generator_indices(), :]
        nonzero = by_gen.any(axis=2)
        rows = by_gen[nonzero]
        nonzero.flags.writeable = rows.flags.writeable = False
        return nonzero, rows

    @cached_property
    def arrow_ends(self) -> list[tuple[int, int, int]]:
        """(g, s, t) for every arrow g of the basis and every pair of vertices
        with e_s * g * e_t != 0: one pair per arrow, its source and target,
        on a path basis.  On a Peirce basis (_peirce) e_s * g * e_t is g when
        g lies in L[s] and R[t], else 0, so the pairs are read off L and R
        with no product."""
        k, p, t, d = self.num_vertices, self.p, self.table, self.dim
        arrows = self.generator_indices()[k:]
        if self._peirce is not None:  # b -> the s with b in L[s], and in R[s]
            left, right = ({b: s for s, span in enumerate(spans) for b in span}
                           for spans in self._peirce)
            return [(int(g), left[g], right[g]) for g in arrows]
        # [g, s, (t, :)] = e_s * g * e_t, from [g, s, :] = e_s * g and [f, (t, :)] = f * e_t
        sandwiched = matmul_mod(t[:k, arrows].transpose(1, 0, 2), t[:, :k].reshape(d, k * d), p)
        nonzero = sandwiched.reshape(len(arrows), k, k, d).any(axis=3)
        return [(int(arrows[i]), int(s), int(e)) for i, s, e in np.argwhere(nonzero)]

    @cached_property
    def _peirce(self) -> tuple[list[list[int]], list[list[int]]] | None:
        """(L, R) when every e_i acts on both sides of the basis as a 0/1
        diagonal, as on a path basis, else None: L[i] lists the basis
        elements b with e_i * b = b and R[i] those with b * e_i = b, in
        increasing order.  Then e_i A is spanned by the b in L[i] and A e_i
        by those in R[i] (Assem, Simson and Skowronski, Elements of the
        Representation Theory of Associative Algebras 1, I.4), so the
        standard modules are slices of the table (loewy.modules)."""
        k, d, t = self.num_vertices, self.dim, self.table
        sides = []
        for side in (t[:k], t[:, :k].transpose(1, 0, 2)):  # [i, b] = e_i * b, b * e_i
            diag = side[:, np.arange(d), np.arange(d)]
            if (diag > 1).any() or np.count_nonzero(side) != np.count_nonzero(diag):
                return None
            sides.append([np.flatnonzero(row).tolist() for row in diag])
        return sides[0], sides[1]

    def _block_actions(self, action: np.ndarray) -> np.ndarray:
        """The matrices of the blocks e_s * g * e_t of arrow_ends on a module with
        this action tensor.  Products of consecutive blocks span rad A, so the
        blocks generate it as a left and as a right ideal.  On a Peirce basis
        each block is its arrow g, and the action, multiplicative as every
        module's is (checked, or by construction), gives e_s·g·e_t the matrix
        of g itself."""
        g, s, t = np.array(self.arrow_ends, dtype=np.int64).reshape(-1, 3).T
        if self._peirce is not None:
            return action[g]
        return matmul_mod(matmul_mod(action[s], action[g], self.p), action[t], self.p)

    def opposite(self) -> "Algebra":
        """The opposite algebra, sharing labels and basis order; an involution.

        It is built from this verified algebra without a second check: the
        transposed table satisfies the same laws, and rad^n is a two-sided
        ideal, so the radical chain is the same list of subspaces.  An
        opposite holds its parent only weakly and rebuilds it if it is gone;
        then no module over the old parent can be alive either."""
        parent = self._opp_of() if self._opp_of is not None else None
        if parent is not None:
            return parent
        if self._opp is None:
            opp = Algebra.__new__(Algebra)
            opp.field, opp.p, opp.dim = self.field, self.p, self.dim
            opp.table = self.table.transpose(1, 0, 2).copy()
            opp.labels, opp.path_lengths = self.labels, self.path_lengths
            opp._generators = self._generators
            opp.num_vertices = self.num_vertices
            opp.quiver = self.quiver.reverse() if self.quiver is not None else None
            opp.relations = tuple(
                Relation(tuple((c, tuple(reversed(path))) for c, path in rel.terms))
                for rel in self.relations
            )
            opp.truncation = self.truncation
            opp.idempotents, opp.one = self.idempotents, self.one
            opp.radical, opp._radical_chain = self.radical, self._radical_chain
            opp.loewy_length = self.loewy_length
            opp._opp = None
            opp._opp_of = weakref.ref(self)
            opp._standard_modules = weakref.WeakValueDictionary()
            opp._standard_records = {}
            self._opp = opp
        return self._opp

    def describe(self) -> str:
        return (
            f"dim {self.dim} algebra on {self.num_vertices} vertices over GF({self.p}), "
            f"Loewy length {self.loewy_length}"
        )

    def __repr__(self) -> str:
        return f"Algebra(dim={self.dim}, vertices={self.num_vertices}, p={self.p})"


@dataclass(frozen=True, eq=False)
class SymmetryResult:
    """Outcome of the symmetry decision: "yes" with a read-only symmetrizing
    form, or "no"."""

    status: str
    form: np.ndarray | None = None


def is_symmetric(a: Algebra, seed: int = 0) -> SymmetryResult:
    """Decide whether a is symmetric, with a symmetrizing form as witness.

    A witness is a linear form l with l(xy) = l(yx) whose Gram matrix
    l(basis_a * basis_b) is nondegenerate.  The decision is exact and
    enumerates no forms.  The radical of the bilinear form of l is the
    largest right ideal inside ker l, and every nonzero right ideal contains
    a minimal one, a simple submodule of soc(A_A).  A basic algebra with a
    nondegenerate form is Frobenius, so each soc(A_A) e_j is a line s_j F,
    and then l is nondegenerate exactly when l(s_j) != 0 for every j
    (Skowronski-Yamagata, Frobenius Algebras I, EMS 2011).  So the answer
    is "no" when some soc(A_A) e_j is not a line, or when no form vanishing
    on commutators is nonzero on every s_j.

    Decided once per algebra, which never changes: the result is kept on a
    and returned again, so its form is read-only.  A and A^op are decided
    apart, each once, with the same status, as a form symmetrizing A also
    symmetrizes A^op.

    seed is accepted for compatibility and has no effect.
    """
    if a._symmetry is None:
        a._symmetry = _decide_symmetry(a)
    return a._symmetry


def _decide_symmetry(a: Algebra) -> SymmetryResult:
    p, d, k, t = a.p, a.dim, a.num_vertices, a.table
    diffs = (t - t.transpose(1, 0, 2)).reshape(d * d, d) % p
    cand = kernel(diffs, p)  # forms vanishing on commutators, as rows
    socle = _right_socle(a)
    lines = []
    for j in range(k):
        part = Subspace.from_rows(matmul_mod(socle.basis, t[:, j, :], p), d, p)  # soc(A_A) e_j
        if part.dim != 1:
            return SymmetryResult("no")
        lines.append(part.basis[0])
    phi = matmul_mod(cand.basis, np.array(lines).T, p)  # phi[:, j] = values on s_j
    if not phi.any(axis=0).all():
        return SymmetryResult("no")
    c = _nonvanishing_combination(phi, p)
    if c is None:
        return SymmetryResult("no")
    lam = matmul_mod(c, cand.basis, p)
    gram = matmul_mod(t, lam, p)
    if rank(gram, p) != d:
        raise RuntimeError("the symmetrizing form found has a degenerate Gram matrix")
    lam.flags.writeable = False
    return SymmetryResult("yes", lam)


def _right_socle(a: Algebra) -> Subspace:
    """soc(A_A), the x with x * g = 0 for every arrow block g: the first
    step of linalg.socle_chain on A_A, without the later ones."""
    blocks = a._block_actions(a.table.transpose(1, 0, 2))  # right multiplications
    return kernel(blocks.transpose(0, 2, 1).reshape(-1, a.dim), a.p)


# The enumeration in _nonvanishing_combination handles this many points at once.
_GRID_POINTS = 1 << 16


def _nonvanishing_combination(phi: np.ndarray, p: int) -> np.ndarray | None:
    """A c with every entry of c·phi nonzero mod p, or None if there is none.

    No column of phi may be zero.  A line search fixes one column at a time,
    along a direction on which that column does not vanish; each column
    already fixed rules out at most one step, so it succeeds whenever phi
    has fewer than p columns.  Otherwise the image of phi, of dimension
    r <= k for k columns, is enumerated: p**r <= k**k points.
    """
    m, k = phi.shape
    c = np.zeros(m, dtype=np.int64)
    values = np.zeros(k, dtype=np.int64)  # c·phi
    for j in range(k):
        if values[j]:
            continue
        row = int(np.nonzero(phi[:, j])[0][0])
        for step in range(1, p):
            trial = (values + step * phi[row]) % p
            if trial[: j + 1].all():
                c[row] = (c[row] + step) % p
                values = trial
                break
        else:
            break
    else:
        return c
    rows = rref(phi.T, p)[1]  # independent rows of phi, spanning its image
    r = len(rows)
    tail = r
    while p**tail > _GRID_POINTS:
        tail -= 1
    coeffs = np.empty((p**tail, r), dtype=np.int64)
    coeffs[:, r - tail:] = np.indices((p,) * tail).reshape(tail, -1).T
    for head in np.ndindex(*([p] * (r - tail))):
        coeffs[:, : r - tail] = head
        hits = np.nonzero(matmul_mod(coeffs, phi[rows], p).all(axis=1))[0]
        if hits.size:
            c[:] = 0
            c[rows] = coeffs[hits[0]]
            return c
    return None
