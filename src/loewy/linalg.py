"""Exact dense linear algebra over prime fields GF(p).

Matrices are numpy int64 arrays with entries reduced to [0, p).  Subspaces
keep their basis in reduced row-echelon form, so equal subspaces have
identical representations and comparison is a plain array equality.  All
routines are deterministic.

Every product that sums over an index goes through matmul_mod, exact for
every prime p < 2**31; elimination multiplies only pairs of entries.
matmul_mod runs large products, stacked ones too, as float64 BLAS products
when every partial sum is an integer below 2**53, and so is exact whatever
order BLAS sums in; all other products run in int64.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "PrimeField",
    "Subspace",
    "rref",
    "rank",
    "kernel",
    "complement_basis",
    "matmul_mod",
    "radical_chain",
    "socle_chain",
]


@lru_cache
def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """The prime field GF(p) for a prime p < 2**31."""

    def __init__(self, p: int):
        if not isinstance(p, (int, np.integer)):
            raise TypeError(f"modulus must be an integer, got {type(p).__name__}")
        p = int(p)
        if p >= 2**31:
            raise ValueError(f"modulus {p} too large, need p < 2**31")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


# Products of at least this many multiply-adds (rows * inner * cols, summed
# over a stack) go through float64 BLAS when it is exact.  Measured with one
# BLAS thread: float64 with its conversions and reduction overtakes int64
# between 2**12 (16 x 16 x 16: 7.0 against 5.6 us) and 2**13 (32 x 16 x 16:
# 7.2 against 9.2 us), and runs twice as fast from 2**14 on.
_BLAS_MIN_WORK = 1 << 13


def matmul_mod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """(x @ y) mod p, with numpy matmul semantics, for int64 operands with
    entries in [0, p); exact for every prime p < 2**31.

    Three tiers, chosen from the shapes and p alone:
    - when inner * (p - 1)**2 < 2**53 - p and the product has at least
      _BLAS_MIN_WORK multiply-adds, counted from below as
      max(x.size * cols, y.size * rows), it runs in float64, as one product
      over the flattened leading axes of x when y is a matrix or a vector.
      Each output entry is one sum whose partial sums are integers r with
      r + p <= 2**53, exact in any summation order and any layout.  A
      quotient r / p just below an integer m is at least 1 / p below it,
      more than half a float64 spacing as p * m < r + p <= 2**53, so it
      does not round up to m: floor(r / p) in floating point is the true
      quotient, and r - p * floor(r / p) is r mod p exactly;
    - otherwise, when inner * (p - 1)**2 < 2**63, the int64 product cannot
      overflow;
    - otherwise y = hi * 2**16 + lo is split into 16-bit halves, and each is
      multiplied in chunks of 2**16 inner terms below 2**47 before reducing.
    All three delay the reduction to the end of a sum, as in FFLAS-FFPACK
    (Dumas-Giorgi-Pernet, ACM TOMS 35(3), 2008).
    """
    inner = x.shape[-1]
    work = max(x.size * (y.shape[-1] if y.ndim > 1 else 1),
               y.size * (x.shape[-2] if x.ndim > 1 else 1))
    if inner * (p - 1) ** 2 < 2**53 - p and work >= _BLAS_MIN_WORK:
        if y.ndim > 2:
            r = x.astype(np.float64) @ y.astype(np.float64)
            shape = r.shape
        else:  # one 2-D product, whose result is never a scalar
            r = x.reshape(-1, inner).astype(np.float64) @ y.reshape(inner, -1).astype(np.float64)
            shape = x.shape[:-1] + y.shape[1:]
        q = r / p
        np.floor(q, out=q)
        q *= p
        r -= q
        return r.astype(np.int64).reshape(shape)
    if inner * (p - 1) ** 2 < 2**63:
        return (x @ y) % p
    lo, hi = y & 0xFFFF, y >> 16
    out = np.zeros((), dtype=np.int64)
    for start in range(0, inner, 1 << 16):
        cols = slice(start, start + (1 << 16))
        xs, rows = x[..., cols], cols if y.ndim == 1 else (Ellipsis, cols, slice(None))
        part = (xs @ hi[rows]) % p * (1 << 16) + (xs @ lo[rows]) % p
        out = (out + part) % p
    return out


def rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p).

    Returns (r, pivots) where r has unit leading entries, zeros above and
    below each pivot, and pivots lists the pivot columns in order.  Zero
    rows sink to the bottom.  m itself is never written to.
    """
    r = np.asarray(m, dtype=np.int64) % p  # a new array
    if r.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {r.shape}")
    nrows, ncols = r.shape
    pivots: list[int] = []
    lead = 0
    for col in range(ncols):
        if lead == nrows:
            break
        nz = r[lead:, col].nonzero()[0]
        if not nz.size:
            continue
        i = lead + int(nz[0])
        if i != lead:
            r[[lead, i]] = r[[i, lead]]
        pivot = int(r[lead, col])
        if pivot != 1:
            r[lead] = r[lead] * pow(pivot, p - 2, p) % p
        others = r[:, col].nonzero()[0]
        if others.size > 1:  # the pivot row is always one of them
            others = others[others != lead]
            r[others] = (r[others] - np.outer(r[others, col], r[lead])) % p
        pivots.append(col)
        lead += 1
    return r, pivots


def rank(m: np.ndarray, p: int) -> int:
    return len(rref(m, p)[1])


def kernel(m: np.ndarray, p: int) -> "Subspace":
    """Right null space {x : m·x = 0} as a Subspace of F^ncols, from one
    elimination.

    The columns are eliminated in reverse order.  A row of that echelon
    form has nonzeros only in its pivot column and in free columns to the
    right of it, so, back in the original order, the null vector of free
    column f has its 1 at f and its other nonzeros in pivot columns after
    f.  The free columns are then the pivots of these vectors, each the
    only nonzero of its column: listed by f, they are already the reduced
    row-echelon basis."""
    m = np.asarray(m, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    ncols = m.shape[1]
    r, rev_pivots = rref(m[:, ::-1], p)
    pivots = [ncols - 1 - c for c in rev_pivots]
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-r[: len(pivots), ::-1][:, free].T) % p
    return Subspace(basis, ncols, p, free)


class Subspace:
    """A subspace of F^ambient held as a reduced row-echelon basis."""

    _hash: int | None = None  # set by the first __hash__

    def __init__(self, basis: np.ndarray, ambient: int, p: int, pivots: list[int]):
        # Internal constructor for a basis already in reduced row-echelon
        # form with these pivots, as kernel builds it; otherwise use
        # from_rows/zero/full.  The basis is read-only: subspaces are hashed
        # by it and shared through caches.
        basis.flags.writeable = False
        self.basis = basis
        self.ambient = ambient
        self.p = p
        self.pivots = pivots

    @classmethod
    def from_rows(cls, rows: np.ndarray, ambient: int, p: int) -> "Subspace":
        rows = np.asarray(rows, dtype=np.int64)
        count = rows.size // ambient if ambient else 0
        rows = rows.reshape(count, ambient) % p
        r, pivots = rref(rows, p)
        return cls(r[: len(pivots)].copy(), ambient, p, pivots)

    @classmethod
    def zero(cls, ambient: int, p: int) -> "Subspace":
        return cls(np.zeros((0, ambient), dtype=np.int64), ambient, p, [])

    @classmethod
    def full(cls, ambient: int, p: int) -> "Subspace":
        return cls(np.eye(ambient, dtype=np.int64), ambient, p, list(range(ambient)))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def reduce(self, vectors: np.ndarray) -> np.ndarray:
        """Residue of row vectors modulo this subspace (zero iff contained)."""
        v = np.asarray(vectors, dtype=np.int64) % self.p
        squeeze = v.ndim == 1
        rows = 1 if squeeze else v.shape[0] if v.ndim else 0
        v = v.reshape(rows, self.ambient)
        if self.dim:
            v = (v - matmul_mod(v[:, self.pivots], self.basis, self.p)) % self.p
        return v[0] if squeeze else v

    def contains_vector(self, v: np.ndarray) -> bool:
        """Whether the row vector v, or every row of a 2-D v, lies in this subspace."""
        return not self.reduce(v).any()

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return not self.reduce(other.basis).any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and other.ambient == self.ambient
            and other.p == self.p
            and np.array_equal(other.basis, self.basis)
        )

    def __hash__(self) -> int:
        # The basis is read-only, so it is serialized and hashed once.
        if self._hash is None:
            self._hash = hash((self.ambient, self.p, self.basis.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, p={self.p})"

    def _check_compatible(self, other: "Subspace") -> None:
        if other.ambient != self.ambient or other.p != self.p:
            raise ValueError(
                f"ambient mismatch: ({self.ambient}, p={self.p}) vs "
                f"({other.ambient}, p={other.p})"
            )

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient, self.p)
        # (c, d) with c·self.basis = d·other.basis
        m = np.hstack([self.basis.T, (-other.basis.T) % self.p])
        combos = kernel(m, self.p)
        rows = matmul_mod(combos.basis[:, : self.dim], self.basis, self.p)
        return Subspace.from_rows(rows, self.ambient, self.p)


def complement_basis(top: Subspace, bot: Subspace) -> Subspace:
    """The complement of bot inside top that vanishes at bot's pivots, with
    its reduced row-echelon basis and pivots.

    Requires bot <= top.  The rows, taken together with bot, span top; they
    are canonical given the two subspaces, and found without elimination.
    The pivots of a subspace are the leading columns of its vectors, so
    bot's pivots are among top's.  The rows of top's basis with the other
    pivots are zero at every pivot of bot, so reducing them modulo bot
    leaves them as they are; there are dim top - dim bot of them, and they
    are already in reduced row-echelon form.  They are therefore the
    reduced basis of top modulo bot that rref(bot.reduce(top.basis)) gives.
    """
    top._check_compatible(bot)
    if not top.contains(bot):
        raise ValueError("complement_basis requires bot <= top")
    skip = set(bot.pivots)
    keep = [r for r, c in enumerate(top.pivots) if c not in skip]
    return Subspace(top.basis[keep], top.ambient, top.p, [top.pivots[r] for r in keep])


def radical_chain(mats: np.ndarray, p: int) -> list[Subspace]:
    """W_0 = F^d, W_n = span(W_{n-1}·M) over the d x d matrices M in mats,
    listed while they shrink: the last term is 0 or the one they stop at."""
    d = mats.shape[-1]
    chain = [Subspace.full(d, p)]
    while chain[-1].dim:
        nxt = Subspace.from_rows(matmul_mod(chain[-1].basis, mats, p).reshape(-1, d), d, p)
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    return chain


def socle_chain(mats: np.ndarray, p: int) -> list[Subspace]:
    """S_0 = 0, S_n = {x : x·M in S_{n-1} for every M in mats}, listed while
    they grow: the last term is F^d or the one they stop at."""
    d = mats.shape[-1]
    chain = [Subspace.zero(d, p)]
    while chain[-1].dim < d:
        # x·M lies in S exactly when x·(M modulo S, row by row) is 0.
        residues = chain[-1].reduce(mats.reshape(-1, d)).reshape(mats.shape)
        nxt = kernel(residues.transpose(0, 2, 1).reshape(-1, d), p)
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    return chain
