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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import PrimeField, Subspace, kernel, rref

__all__ = [
    "Arrow",
    "Quiver",
    "Relation",
    "Algebra",
    "SymmetryResult",
    "build_path_algebra",
    "is_symmetric",
]

# Full associativity check on all basis triples costs dim**5 scalar ops; above
# this bound the constructor falls back to the equivalent generator check.
_FULL_ASSOC_LIMIT = 48

EXHAUSTIVE_SEARCH_LIMIT = 4096


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
    field = PrimeField(p)
    relations = list(relations)
    if quiver.vertex_count == 0:
        raise ValueError("algebra needs at least one vertex")
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if relations and truncation < 2:
        raise ValueError("truncation must be >= 2 when relations are present")

    paths = _enumerate_paths(quiver, truncation)
    n_paths = len(paths)
    index = {(q.source, q.arrows): i for i, q in enumerate(paths)}

    # Span of u * rel * v over all path pairs, with length >= N terms dropped.
    ideal_rows = []
    for rel in relations:
        terms = _validate_relation(rel, quiver, p)
        if not terms:
            continue
        for u in paths:
            for v in paths:
                row = np.zeros(n_paths, dtype=np.int64)
                hit = False
                for coeff, idx, src, tgt in terms:
                    if u.target != src or tgt != v.source:
                        continue
                    full = u.arrows + idx + v.arrows
                    if len(full) >= truncation:
                        continue
                    row[index[(u.source, full)]] = (row[index[(u.source, full)]] + coeff) % p
                    hit = True
                if hit and row.any():
                    ideal_rows.append(row)
    if ideal_rows:
        ideal = Subspace.from_rows(np.array(ideal_rows), n_paths, p)
    else:
        ideal = Subspace.zero(n_paths, p)
    # Admissible relations only touch coordinates of paths of length >= 2.
    if any(c < quiver.vertex_count + len(quiver.arrows) for c in ideal.pivots):
        raise ValueError("relations are not admissible: they reach below path length 2")

    proj, _ = ideal.quotient_maps()  # n_paths x dim reduction map
    pivot_set = set(ideal.pivots)
    keep = [i for i in range(n_paths) if i not in pivot_set]
    dim = len(keep)
    basis_paths = [paths[i] for i in keep]
    labels = [_path_label(q, quiver) for q in basis_paths]
    lengths = np.array([len(q.arrows) for q in basis_paths], dtype=np.int64)

    table = np.zeros((dim, dim, dim), dtype=np.int64)
    for a, qa in enumerate(basis_paths):
        for b, qb in enumerate(basis_paths):
            if qa.target != qb.source:
                continue
            full = qa.arrows + qb.arrows
            if len(full) >= truncation:
                continue
            table[a, b] = proj[index[(qa.source, full)]]

    return Algebra(
        field,
        table,
        labels,
        lengths,
        quiver.vertex_count,
        quiver=quiver,
        relations=tuple(relations),
        truncation=truncation,
    )


class Algebra:
    """A basic algebra with a path-representative basis and dense structure constants.

    table[a, b] holds the coordinates of basis_a * basis_b.  The first
    num_vertices basis elements are the primitive idempotents; the radical is
    the span of the basis paths of length >= 1.  The constructor verifies
    identity, idempotent and associativity laws and computes the radical
    power chain, failing fast on any violation.
    """

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
        _opposite: "Algebra | None" = None,
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
        self._opp = _opposite

        if self.table.shape != (self.dim, self.dim, self.dim):
            raise ValueError(f"structure table has shape {self.table.shape}")
        if self.dim * (self.p - 1) ** 2 >= 2**63:
            raise ValueError("dim * (p-1)**2 exceeds the exact int64 range")
        if len(self.labels) != self.dim or len(self.path_lengths) != self.dim:
            raise ValueError("basis bookkeeping does not match the dimension")
        k = self.num_vertices
        if not (1 <= k <= self.dim):
            raise ValueError(f"bad vertex count {k} for dimension {self.dim}")

        self.idempotents = np.eye(k, self.dim, dtype=np.int64)
        self.one = self.idempotents.sum(axis=0) % self.p
        self._verify_structure()

        self.radical = Subspace.from_rows(
            np.eye(self.dim, dtype=np.int64)[k:], self.dim, self.p
        )
        self._radical_chain = self._compute_radical_chain()
        self.loewy_length = len(self._radical_chain) - 1

    # -- construction-time checks -------------------------------------------------

    def _verify_structure(self) -> None:
        p, d, k = self.p, self.dim, self.num_vertices
        t = self.table
        ident = np.eye(d, dtype=np.int64)
        # identity element
        left = np.tensordot(self.one, t, axes=(0, 0)) % p
        right = np.tensordot(self.one, t, axes=(0, 1)) % p
        if not (np.array_equal(left, ident) and np.array_equal(right, ident)):
            raise ValueError("identity check failed")
        # orthogonal idempotents on the trivial paths
        for i in range(k):
            for j in range(k):
                expect = ident[i] if i == j else np.zeros(d, dtype=np.int64)
                if not np.array_equal(t[i, j], expect):
                    raise ValueError(f"idempotent check failed at e{i} * e{j}")
        # radical coordinates never produce idempotent components
        if t[:, k:, :k].any() or t[k:, :, :k].any():
            raise ValueError("products of radical elements leak into degree zero")
        # associativity
        if d <= _FULL_ASSOC_LIMIT:
            lhs = (t.reshape(d * d, d) @ t.reshape(d, d * d)) % p
            rhs = np.tensordot(t, t, axes=([2], [1])) % p  # [b, c, a, f]
            rhs = rhs.transpose(2, 0, 1, 3).reshape(d * d, d * d)
            if not np.array_equal(lhs, rhs):
                raise ValueError("associativity check failed")
        else:
            # (a*b)*g = a*(b*g) against every generator g; bilinearity and the
            # path grading extend this to all basis triples.
            for g in np.nonzero(self.path_lengths <= 1)[0]:
                r_g = t[:, g, :]
                lhs = (t.reshape(d * d, d) @ r_g).reshape(d, d, d) % p
                rhs = np.tensordot(r_g, t, axes=([1], [1])) % p  # [b, a, f]
                if not np.array_equal(lhs, rhs.transpose(1, 0, 2)):
                    raise ValueError("associativity check failed")

    def _compute_radical_chain(self) -> list[Subspace]:
        chain = [Subspace.full(self.dim, self.p)]
        rad_idx = np.arange(self.num_vertices, self.dim)
        current = self.radical
        while current.dim > 0:
            chain.append(current)
            if len(chain) > self.dim + 1:
                raise ValueError("radical is not nilpotent")
            rows = np.concatenate([current.basis @ self.table[:, j, :] for j in rad_idx]) \
                if rad_idx.size else np.zeros((0, self.dim), dtype=np.int64)
            nxt = Subspace.from_rows(rows % self.p, self.dim, self.p)
            if nxt.dim >= current.dim and current.dim > 0:
                raise ValueError("radical chain fails to shrink")
            current = nxt
        chain.append(Subspace.zero(self.dim, self.p))
        # chain[n] = rad^n for n <= loewy_length
        return chain

    # -- arithmetic ---------------------------------------------------------------

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64) % self.p
        y = np.asarray(y, dtype=np.int64) % self.p
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError("operands must be coordinate vectors of the algebra")
        return np.tensordot(x, np.tensordot(y, self.table, axes=(0, 1)), axes=(0, 0)) % self.p

    def left_mult_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix of z -> x * z on row coordinate vectors (z @ result)."""
        return np.tensordot(np.asarray(x) % self.p, self.table, axes=(0, 0)) % self.p

    def right_mult_matrix(self, y: np.ndarray) -> np.ndarray:
        """Matrix of z -> z * y on row coordinate vectors."""
        return np.tensordot(np.asarray(y) % self.p, self.table, axes=(0, 1)) % self.p

    def radical_power(self, n: int) -> Subspace:
        """The subspace rad^n, with rad^0 the whole algebra."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return self._radical_chain[min(n, self.loewy_length)]

    def generator_indices(self) -> np.ndarray:
        """Basis indices of the trivial paths and arrows present in the basis."""
        return np.nonzero(self.path_lengths <= 1)[0]

    @cached_property
    def arrow_ends(self) -> list[tuple[int, int, int]]:
        """(g, s, t) for every arrow g of the basis and every pair of vertices
        with e_s * g * e_t != 0: one pair per arrow, its source and target,
        on a path basis."""
        k, p, t = self.num_vertices, self.p, self.table
        ends = []
        for g in self.generator_indices()[k:]:
            sandwiched = np.tensordot(t[:k, g], t[:, :k], axes=(1, 0)) % p  # [s, t, :]
            ends += [(int(g), int(s), int(e)) for s, e in np.argwhere(sandwiched.any(axis=2))]
        return ends

    def opposite(self) -> "Algebra":
        """The opposite algebra, sharing labels and basis order; an involution."""
        if self._opp is None:
            opp = Algebra(
                self.field,
                self.table.transpose(1, 0, 2).copy(),
                self.labels,
                self.path_lengths,
                self.num_vertices,
                quiver=self.quiver.reverse() if self.quiver is not None else None,
                relations=tuple(
                    Relation(tuple((c, tuple(reversed(path))) for c, path in rel.terms))
                    for rel in self.relations
                ),
                truncation=self.truncation,
                _opposite=self,
            )
            self._opp = opp
        return self._opp

    def describe(self) -> str:
        return (
            f"dim {self.dim} algebra on {self.num_vertices} vertices over GF({self.p}), "
            f"Loewy length {self.loewy_length}"
        )

    def __repr__(self) -> str:
        return f"Algebra(dim={self.dim}, vertices={self.num_vertices}, p={self.p})"


@dataclass(eq=False)
class SymmetryResult:
    """Outcome of the symmetric-algebra search: yes / no / unknown."""

    status: str
    form: np.ndarray | None = None


def is_symmetric(
    a: Algebra,
    trials: int = 512,
    seed: int = 0,
    exhaustive_limit: int = EXHAUSTIVE_SEARCH_LIMIT,
) -> SymmetryResult:
    """Search for a symmetrizing form on a.

    A witness is a linear form l with l(xy) = l(yx) whose Gram matrix
    l(basis_a * basis_b) is nondegenerate.  The symmetric candidates form a
    linear subspace; when p**dim of that space is at most exhaustive_limit
    the search is exhaustive and a negative answer is definitive ("no"),
    otherwise `trials` seeded random candidates are tried and failure is
    reported as "unknown".
    """
    p, d, t = a.p, a.dim, a.table
    diffs = (t - t.transpose(1, 0, 2)).reshape(d * d, d) % p
    cand = kernel(diffs, p)  # forms vanishing on commutators, as rows
    m = cand.dim
    if m == 0:
        return SymmetryResult("no")

    def nondegenerate(lam: np.ndarray) -> bool:
        gram = np.tensordot(t, lam, axes=([2], [0])) % p
        return len(rref(gram, p)[1]) == d

    for row in cand.basis:
        if nondegenerate(row):
            return SymmetryResult("yes", row.copy())
    if p**m <= exhaustive_limit:
        for coeffs in np.ndindex(*([p] * m)):
            c = np.array(coeffs, dtype=np.int64)
            if not c.any():
                continue
            lam = (c @ cand.basis) % p
            if nondegenerate(lam):
                return SymmetryResult("yes", lam)
        return SymmetryResult("no")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        c = rng.integers(0, p, size=m)
        if not c.any():
            continue
        lam = (c.astype(np.int64) @ cand.basis) % p
        if nondegenerate(lam):
            return SymmetryResult("yes", lam)
    return SymmetryResult("unknown")
