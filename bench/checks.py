"""Checks of loewy's outputs by arithmetic done outside the package.

Every product and rank here is computed with Python integers (numpy
object arrays or plain lists), never with the package's int64 kernels, so
an overflow or a wrong elimination inside loewy cannot hide itself.  A
wrong answer raises CheckFailure; the one fault the benchmark keeps, an
`is_symmetric` "unknown" where an exact test exists, is counted in the
Tally instead.
"""

from __future__ import annotations

import json

import numpy as np

# is_symmetric falls back to random trials when p**m exceeds this bound,
# m being the dimension of the space of forms vanishing on commutators.
EXHAUSTIVE_SEARCH_LIMIT = 4096


class CheckFailure(Exception):
    """An output of the program is wrong."""


class Tally:
    """Operations attempted and failed, over all rounds of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, failed: bool = False) -> None:
        self.attempted += 1
        self.failed += int(failed)


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


def exact(a) -> np.ndarray:
    """A copy with Python-int entries."""
    return np.array(np.asarray(a).tolist(), dtype=object)


def rank_mod(rows, p: int) -> int:
    """Rank over GF(p) by Gaussian elimination on Python ints."""
    m = [[int(x) % p for x in row] for row in rows]
    m = [row for row in m if any(row)]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        lead = [x * inv % p for x in m[rank]]
        for i in range(rank + 1, len(m)):
            f = m[i][col]
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], lead)]
        rank += 1
    return rank


def cartan_from_tensor(table, k: int, p: int) -> np.ndarray:
    """c_ij = dim e_i A e_j, from the structure tensor (e_i is basis index i)."""
    t = exact(table)
    d = t.shape[0]
    c = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        left = t[i] % p  # row b: coordinates of e_i * basis_b
        for j in range(k):
            c[i, j] = rank_mod(((left @ t[:, j, :]) % p).tolist(), p) if d else 0
    return c


def symmetric_form_dim(table, p: int) -> int:
    """Dimension of the space of linear forms vanishing on all commutators."""
    t = exact(table)
    d = t.shape[0]
    diffs = ((t - t.transpose(1, 0, 2)) % p).reshape(d * d, d)
    return d - rank_mod(diffs.tolist(), p)


def generators(algebra) -> list[int]:
    """Basis indices of the trivial paths and the arrows."""
    return [i for i, n in enumerate(algebra.path_lengths.tolist()) if n <= 1]


def check_isomorphism(witness, target, what: str) -> None:
    """The witness, a map into target, intertwines every generator's action
    and is invertible."""
    source = witness.source
    p = source.algebra.p
    m = exact(witness.matrix)
    require(m.shape == (source.dim, target.dim) and source.dim == target.dim,
            f"{what}: witness has shape {m.shape}")
    src, tgt = exact(source.action), exact(target.action)
    for g in generators(source.algebra):
        require(np.array_equal((src[g] @ m) % p, (m @ tgt[g]) % p),
                f"{what}: witness does not intertwine generator {g}")
    require(rank_mod(m.tolist(), p) == source.dim, f"{what}: witness is singular")


def check_symmetric_form(algebra, form, what: str) -> None:
    """lambda(xy) = lambda(yx) on basis pairs and the Gram matrix is invertible."""
    p, d = algebra.p, algebra.dim
    require(form is not None and np.shape(form) == (d,), f"{what}: no form of length {d}")
    gram = (exact(algebra.table) @ exact(form)) % p
    require(np.array_equal(gram, gram.T), f"{what}: form is not symmetric")
    require(rank_mod(gram.tolist(), p) == d, f"{what}: Gram matrix is degenerate")


def check_symmetry_verdict(algebra, result, tally: Tally, what: str,
                           closed_form: bool | None, cartan, dims_p, dims_i) -> str:
    """Check an is_symmetric result; returns its status.

    closed_form is the known answer (Nakayama family) or None.  A "yes" is
    re-checked through its witness and necessary conditions; an "unknown"
    must be the random-trial fallback, counted as a failed operation.
    """
    status = result.status
    if status == "yes":
        require(closed_form is not False, f"{what}: symmetric, closed form says no")
        check_symmetric_form(algebra, result.form, what)
        require(np.array_equal(cartan, cartan.T), f"{what}: symmetric with asymmetric Cartan")
        require(dims_p == dims_i, f"{what}: symmetric with dim P_i != dim I_i")
    elif status == "no":
        require(closed_form is not True, f"{what}: not symmetric, closed form says yes")
    else:
        require(status == "unknown", f"{what}: symmetry status {status!r}")
        m = symmetric_form_dim(algebra.table, algebra.p)
        require(algebra.p ** m > EXHAUSTIVE_SEARCH_LIMIT,
                f"{what}: unknown although the search space p**{m} is exhaustive")
    tally.op(failed=status == "unknown")
    return status


def nakayama_radical_table(k: int, ell: int) -> np.ndarray:
    """rad_n P_i = S_{i+n-1 mod k}, as m[i][j][n-1]."""
    t = np.zeros((k, k, ell + 1), dtype=np.int64)
    for i in range(k):
        for n in range(1, ell + 2):
            t[i, (i + n - 1) % k, n - 1] = 1
    return t


def nakayama_socle_table(k: int, ell: int) -> np.ndarray:
    """soc_n I_i = S_{i-n+1 mod k}, as m[i][j][n-1]."""
    t = np.zeros((k, k, ell + 1), dtype=np.int64)
    for i in range(k):
        for n in range(1, ell + 2):
            t[i, (i - n + 1) % k, n - 1] = 1
    return t


def check_layer_table(table, sums, what: str, closed_form=None) -> None:
    """Layer n = 1 is S_i alone (top of P_i, socle of I_i), the layers add
    up to the given composition multiplicities, and a closed form, when
    given, matches exactly."""
    table = np.asarray(table)
    k = sums.shape[0]
    require(table.ndim == 3 and table.shape[:2] == (k, k), f"{what}: shape {table.shape}")
    require(np.array_equal(table[:, :, 0], np.eye(k, dtype=np.int64)),
            f"{what}: first layer is not S_i")
    require(np.array_equal(table.sum(axis=2), sums), f"{what}: layers do not add up to Cartan")
    if closed_form is not None:
        require(np.array_equal(table, closed_form), f"{what}: differs from the closed form")


def check_module_dims(algebra, dims_p, dims_i, what: str) -> None:
    require(sum(dims_p) == algebra.dim == sum(dims_i),
            f"{what}: sum dim P_i = {sum(dims_p)}, dim A = {algebra.dim}, "
            f"sum dim I_i = {sum(dims_i)}")


def check_triples(rows, radical, what: str) -> None:
    """Every (i, j, n, d1, d2, d3) row has d1 = d2 = d3 = m[i][j][n-1]."""
    k, _, loewy = radical.shape
    require(len(rows) == k * k * loewy, f"{what}: {len(rows)} evidence rows")
    for i, j, n, d1, d2, d3 in rows:
        require(d1 == d2 == d3 == radical[i, j, n - 1],
                f"{what}: row {(i, j, n)} gives {(d1, d2, d3)}, table {radical[i, j, n - 1]}")


def check_report(checks: list[dict], symmetry: str, radical, tally: Tally, what: str,
                 expected=("main-theorem", "landrock", "nakayama-id", "adjunction",
                           "duality")) -> None:
    """Checker results of one algebra, as dicts of to_dict() form.

    Landrock and the Nakayama identity run only on certified symmetric
    algebras; when the certificate is "unknown" their "unknown" is the kept
    fault and counts as failed.
    """
    names = [c["name"] for c in checks]
    require(sorted(names) == sorted(expected), f"{what}: checks {names}")
    for c in checks:
        name, status, rows = c["name"], c["status"], c["evidence"]
        if name in ("landrock", "nakayama-id") and symmetry != "yes":
            require(status == "unknown" and c["note"] == f"skipped: symmetry status is "
                    f"{symmetry!r}", f"{what}: {name} {status} ({c['note']})")
            tally.op(failed=symmetry == "unknown")
            continue
        require(status == "pass", f"{what}: {name} {status}")
        if name in ("main-theorem", "landrock"):
            check_triples(rows, radical, f"{what} {name}")
        elif name == "nakayama-id":
            require(len(rows) == radical.shape[0] and all(r[2] == "yes" for r in rows),
                    f"{what}: nakayama-id rows {rows}")
        elif name == "adjunction":
            counts = dict(map(tuple, rows))
            require(counts.get("failures") == 0, f"{what}: adjunction {counts}")
        else:
            require(bool(rows) and all(r[5] for r in rows), f"{what}: duality rows {rows}")
        tally.op()


def report_checks(report) -> list[dict]:
    """The checks of a VerificationReport in the CLI's JSON form."""
    return json.loads(json.dumps(report.to_dict()))["checks"]


def parse_cli_table(text: str, k: int, what: str) -> np.ndarray:
    """The output of `loewy table --kind radical|socle` as m[i][j][n-1]."""
    layers = []
    lines = text.splitlines()
    while lines:
        head = lines.pop(0)
        require(head == f"n={len(layers) + 1}", f"{what}: unexpected line {head!r}")
        rows = [lines.pop(0).split() for _ in range(k)]
        layers.append([[int(x) for x in row] for row in rows])
    require(bool(layers), f"{what}: empty table")
    return np.array(layers, dtype=np.int64).transpose(1, 2, 0)


def parse_cli_matrix(text: str, what: str) -> np.ndarray:
    rows = [[int(x) for x in line.split()] for line in text.splitlines()]
    require(bool(rows), f"{what}: empty matrix")
    return np.array(rows, dtype=np.int64)
