"""Checkers that exercise the structural theorems on concrete algebras.

Each checker returns a VerificationReport whose checks carry a tri-state
status: "pass", "fail", or "unknown" when a precondition could not be
established (a skipped check never counts as passed).  Hom dimensions are
compared for every vertex pair and every layer index n from 1 to the
Loewy length of the algebra, which is recorded in the report.  Between a
layer and a simple they are layer multiplicities, which layer_table reads
as dim(W e_j) - dim(W' e_j) on the cached series: layers are semisimple
and End(S_j) = F for a basic algebra.  The main theorem and the Landrock
lemma share that sweep and differ only in the dual they apply to P_j.
_run_checks holds the standard family S_i, P_i, I_i while several checkers
run, so they share those modules and everything cached on them: P_j,
its two duals and the Nakayama functor on it, and the series, layers and
capitals of each.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra, is_symmetric
from .linalg import Subspace, kernel, matmul_mod, rref
from .modules import (
    Module,
    a_dual,
    f_dual,
    _hom_stack,
    find_isomorphism,
    hom_space,  # not called here: the benchmark's self-test reads it on this module
    injective,
    nakayama,
    projective,
    simple,
)
from .series import layer_table, radical_layer, radical_n, socle_n

__all__ = [
    "CheckResult",
    "VerificationReport",
    "verify_main_theorem",
    "verify_landrock",
    "verify_nakayama_identity",
    "verify_adjunction",
    "verify_duality_lemmas",
    "merge_reports",
    "run_corpus",
    "ALL_CHECKS",
]


@dataclass(eq=False)
class CheckResult:
    name: str
    status: str  # pass / fail / unknown
    evidence: list = field(default_factory=list)
    note: str = ""


@dataclass(eq=False)
class VerificationReport:
    description: str
    loewy_length: int
    checks: list[CheckResult]
    elapsed: float = 0.0

    @property
    def status(self) -> str:
        statuses = {c.status for c in self.checks}
        if "fail" in statuses:
            return "fail"
        if "unknown" in statuses:
            return "unknown"
        return "pass"

    def to_dict(self) -> dict:
        # elapsed is intentionally omitted: serialized reports are
        # byte-identical across runs with the same inputs and seed.
        return {
            "algebra": self.description,
            "loewy_length": self.loewy_length,
            "status": self.status,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "evidence": [list(row) for row in c.evidence],
                    "note": c.note,
                }
                for c in self.checks
            ],
        }


def _report(a: Algebra, check: CheckResult, t0: float) -> VerificationReport:
    return VerificationReport(a.describe(), a.loewy_length, [check], time.perf_counter() - t0)


def _layer_sweep(a: Algebra, name: str, dual) -> CheckResult:
    """Compare the three layer tables of the main theorem for the given dual.

    With D = dual(P_j) the rows are (i, j, n, d1, d2, d3): the multiplicity
    of S_j in rad_n P_i, of S_i in rad_n D (over the opposite), and of S_i
    in soc_n f_dual(D).
    """
    projectives = [projective(a, i) for i in range(a.num_vertices)]
    duals = [dual(pj) for pj in projectives]
    d1 = layer_table(projectives, "radical").table
    d2 = layer_table(duals, "radical").table.transpose(1, 0, 2)
    d3 = layer_table([f_dual(d) for d in duals], "socle").table.transpose(1, 0, 2)
    evidence = [
        (i, j, n + 1, int(d1[i, j, n]), int(d2[i, j, n]), int(d3[i, j, n]))
        for i, j, n in np.ndindex(d1.shape)
    ]
    ok = np.array_equal(d1, d2) and np.array_equal(d2, d3)
    return CheckResult(name, "pass" if ok else "fail", evidence)


def verify_main_theorem(a: Algebra) -> VerificationReport:
    """Dual symmetry and reciprocity of radical layers of the projectives.

    For all vertices i, j and 1 <= n <= L the three hom dimensions

        d1 = dim Hom(rad_n P_i, S_j)
        d2 = dim Hom(rad_n(a_dual P_j), f_dual S_i)   (over the opposite)
        d3 = dim Hom(S_i, soc_n(nakayama P_j))

    must agree; evidence rows are (i, j, n, d1, d2, d3).  Each is read from
    layer_table as a layer multiplicity dim(W e_j) - dim(W' e_j): the
    layers are semisimple and End(S_j) = F, so these equal the Hom
    dimensions.
    """
    t0 = time.perf_counter()
    return _report(a, _layer_sweep(a, "main-theorem", a_dual), t0)


def verify_landrock(a: Algebra) -> VerificationReport:
    """The symmetric-algebra specialization: f_dual replaces a_dual and the
    socle series of P_j itself (f_dual twice) replaces that of nakayama(P_j).

    Skipped with status "unknown" unless the algebra is symmetric.
    """
    t0 = time.perf_counter()
    sym = is_symmetric(a)
    if sym.status != "yes":
        note = f"skipped: symmetry status is {sym.status!r}"
        return _report(a, CheckResult("landrock", "unknown", [], note), t0)
    return _report(a, _layer_sweep(a, "landrock", f_dual), t0)


def verify_nakayama_identity(a: Algebra) -> VerificationReport:
    """On a certified symmetric algebra, nakayama(P_i) must be isomorphic to
    P_i for every i, with an explicit witness; find_isomorphism decides each
    exactly.  A check left "unknown" carries the note of the first
    undecided search."""
    t0 = time.perf_counter()
    sym = is_symmetric(a)
    if sym.status != "yes":
        note = f"skipped: symmetry status is {sym.status!r}"
        return _report(a, CheckResult("nakayama-id", "unknown", [], note), t0)
    evidence = []
    results = []
    for i in range(a.num_vertices):
        p_i = projective(a, i)
        result = find_isomorphism(nakayama(p_i), p_i)
        evidence.append((i, p_i.dim, result.status))
        results.append(result)
    statuses = {r.status for r in results}
    note = ""
    if "no" in statuses:
        status = "fail"
    elif "unknown" in statuses:
        status = "unknown"
        note = next(r.note for r in results if r.status == "unknown")
    else:
        status = "pass"
    return _report(a, CheckResult("nakayama-id", status, evidence, note), t0)


def _standard_family(a: Algebra) -> list[tuple[str, Module]]:
    """The simples, projectives and injectives, labelled S{i}, P{i}, I{i}."""
    k = a.num_vertices
    family: list[tuple[str, Module]] = [(f"S{i}", simple(a, i)) for i in range(k)]
    family += [(f"P{i}", projective(a, i)) for i in range(k)]
    family += [(f"I{i}", injective(a, i)) for i in range(k)]
    return family


def _sample_family(a: Algebra) -> list[tuple[str, Module]]:
    """The standard family and, when L >= 2, the second radical layers of
    the projectives."""
    family = _standard_family(a)
    if a.loewy_length >= 2:
        family += [(f"rad_2({label})", radical_layer(mod, 2))
                   for label, mod in family if label.startswith("P")]
    return family


def verify_adjunction(a: Algebra, sample_size: int = 3, seed: int = 0) -> VerificationReport:
    """Round trips and naturality of the capital/socle adjunction.

    For sampled pairs (U, V) and every n from 0 to the Loewy length, both
    round trips across Hom(U/rad^n U, V) <-> Hom(U, soc^n V) must be the
    identity on full hom bases; sampled naturality squares must commute.
    Hom(U, V) is solved once per call for each pair of family labels,
    however often the samples name it, and the bases of a level are read
    off it (_restricted_hom), once per series term they are cut at.  The
    maps of adjunction_forward, adjunction_backward, capital_map and
    socle_map are taken in stacked products of padded matrices
    (_adjunction_term), with every check those functions make, raising
    the same errors; no subquotient or ModuleMap is built.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    family = _sample_family(a)
    L = a.loewy_length
    p = a.p
    gens = a.generator_indices()
    solved: dict[tuple, np.ndarray] = {}  # (U label, V label, *term key) -> stack of maps
    terms: dict[tuple, tuple] = {}  # (label, kind, W) -> _adjunction_term

    def hom(u_label: str, u: Module, v_label: str, v: Module, term: tuple = ()) -> np.ndarray:
        """hom_space's basis of Hom(U, V) as a stack, or with the key of a
        term, the capital's or the socle submodule's Hom read off it."""
        key = (u_label, v_label, *term)
        if key not in solved:
            if term:
                solved[key] = _restricted_hom(hom(u_label, u, v_label, v), terms[term], term[1], p)
            else:
                solved[key] = _hom_stack(u, v)
        return solved[key]

    def term(label: str, v: Module, kind: str, n: int) -> tuple:
        """The key of rad^n V or soc^n V in terms, built and checked once."""
        key = (label, kind, radical_n(v, n) if kind == "radical" else socle_n(v, n))
        if key not in terms:
            terms[key] = _adjunction_term(v, key[2], kind)
        return key

    def draw(h: np.ndarray, u: Module, v: Module):
        """A random combination of the maps h, never zero, checked, as a stack of
        one; None if h is empty."""
        if not len(h):
            return None
        coeffs = rng.integers(0, p, size=len(h)).astype(np.int64)
        if not coeffs.any():
            coeffs[int(rng.integers(0, len(h)))] = 1
        f = matmul_mod(coeffs, h.reshape(len(h), -1), p).reshape(1, u.dim, v.dim)
        _raise_first([(_intertwines(u.action[gens], f, v.action[gens], p), _NOT_INTERTWINING)])
        return f

    pairs = []
    for _ in range(sample_size):
        u_label, u = family[int(rng.integers(0, len(family)))]
        v_label, v = family[int(rng.integers(0, len(family)))]
        pairs.append((u_label, u, v_label, v))
    round_trips = 0
    failures = 0
    for u_label, u, v_label, v in pairs:
        u_gens, v_gens = u.action[gens], v.action[gens]
        for n in range(L + 1):
            cap_key, soc_key = term(u_label, u, "radical", n), term(v_label, v, "socle", n)
            cap, soc = terms[cap_key], terms[soc_key]
            fs, gs = hom(u_label, u, v_label, v, cap_key), hom(u_label, u, v_label, v, soc_key)
            if len(fs):
                g, checks = _forward(fs, u_gens, cap, soc, p)
                back, more = _backward(g, v_gens, cap, soc, p)
                _raise_first(checks + more)
                failures += int((back != fs).any(axis=(1, 2)).sum())
            if len(gs):
                f, checks = _backward(gs, v_gens, cap, soc, p)
                back, more = _forward(f, u_gens, cap, soc, p)
                _raise_first(checks + more)
                failures += int((back != gs).any(axis=(1, 2)).sum())
            round_trips += len(fs) + len(gs)
    squares = 0
    attempts = 0
    square_target = 2 * sample_size
    while squares < square_target and attempts < 8 * sample_size:
        attempts += 1
        u_label, u, v_label, v = pairs[int(rng.integers(0, len(pairs)))]
        n = int(rng.integers(0, L + 1))
        u2_label, u2 = family[int(rng.integers(0, len(family)))]
        v2_label, v2 = family[int(rng.integers(0, len(family)))]
        map_u = draw(hom(u2_label, u2, u_label, u), u2, u)
        map_v = draw(hom(v_label, v, v2_label, v2), v, v2)
        if map_u is None or map_v is None:
            continue
        cap_key = term(u_label, u, "radical", n)
        hom_basis = hom(u_label, u, v_label, v, cap_key)
        if not len(hom_basis):
            continue
        f = hom_basis[int(rng.integers(0, len(hom_basis)))]
        cap, soc = terms[cap_key], terms[term(v_label, v, "socle", n)]
        cap2 = terms[term(u2_label, u2, "radical", n)]
        cap_u, checks = _capital_map(map_u, cap, cap2, p)
        _raise_first(checks)
        soc2 = terms[term(v2_label, v2, "socle", n)]
        soc_v, checks = _socle_map(map_v, soc, soc2, p)
        # route 1: transport f along the square, then take the adjoint
        transported = matmul_mod(matmul_mod(cap_u, f, p), map_v, p)
        lhs, more = _forward(transported, u2.action[gens], cap2, soc2, p)
        _raise_first(checks + [(_intertwines(cap2[3], transported, v2.action[gens], p),
                                _NOT_INTERTWINING)] + more)
        # route 2: take the adjoint, then transport along the square
        eta_f = matmul_mod(cap[1], f, p) * soc[2]
        rhs = matmul_mod(matmul_mod(map_u, eta_f, p), soc_v, p)
        if not np.array_equal(lhs, rhs):
            failures += 1
        squares += 1
    evidence = [
        ("pairs", len(pairs)),
        ("round_trips", round_trips),
        ("naturality_squares", squares),
        ("failures", failures),
    ]
    return _report(a, CheckResult("adjunction", "pass" if failures == 0 else "fail", evidence), t0)


_NOT_INTERTWINING = "matrix does not intertwine the algebra actions"


def _adjunction_term(v: Module, w: Subspace, kind: str) -> tuple:
    """(L_W, R_W, m, action on the generators) for the term W = rad^n V of
    the capital V/W (kind "radical") or W = soc^n V of the submodule W
    (kind "socle"), raising as subquotient would.

    As in _decide_block, L_W is the d x d matrix with W's reduced basis on
    its pivot rows and R_W = W.reduce(1) = (1 - L_W) mod p, and the
    subquotient's maps are padded by zeros to d x d at its positions m:
    - the capital sits off W's pivots, with lift diag(m), proj R_W·diag(m)
      and action diag(m)·g·R_W·diag(m);
    - the submodule sits at W's pivots, with lift L_W, proj diag(m) and
      action L_W·g·diag(m).
    Products of padded matrices are the padded products, so the maps of the
    adjunction are adjunction_forward's and adjunction_backward's, padded,
    and each of their checks is the same test on a stack.  W is invariant
    exactly when L_W·g·R_W = 0 for every generator g.
    """
    d, p = v.dim, v.algebra.p
    if w.ambient != d or w.p != p:
        raise ValueError("subspace does not live in the module's coordinate space")
    lift = np.zeros((d, d), dtype=np.int64)
    lift[w.pivots] = w.basis
    residue = (np.eye(d, dtype=np.int64) - lift) % p
    mask = np.zeros(d, dtype=bool)
    mask[w.pivots] = True
    gens = v.action[v.algebra.generator_indices()]
    if kind == "radical":
        mask = ~mask
        moved = matmul_mod(gens, residue, p)  # g·R_W
        image = matmul_mod(lift, moved, p)
        action = moved * mask[:, None] * mask
    else:
        moved = matmul_mod(lift, gens, p)  # L_W·g
        image = matmul_mod(moved, residue, p)
        action = moved * mask
    if image.any():
        raise ValueError("subspace is not invariant under the algebra action")
    return lift, residue, mask, action


def _restricted_hom(h: np.ndarray, term: tuple, kind: str, p: int) -> np.ndarray:
    """The padded basis of Hom(U/rad^n U, V) (kind "radical") or Hom(U, soc^n V)
    (kind "socle") read off the stack h of Hom(U, V), for the _adjunction_term
    of rad^n U or soc^n V.

    By the universal property of the quotient, Hom(U/W, V) is
    {x in span h : W·x = 0}, restricted to a complement of W (Auslander,
    Reiten and Smalo, Representation Theory of Artin Algebras, I.4), and
    Hom(U, W) is {x in span h : x·R_W = 0}.  The capital's lift diag(m) and
    the submodule's proj diag(m) make these diag(m)·x and x·diag(m), which
    determine x.  So one kernel on the coefficients of h spans the space,
    and rref of the flattened stack gives hom_space's canonical basis padded
    by zeros: zero columns do not change a reduced row-echelon form.
    """
    lift, residue, mask, _ = term
    if kind == "radical":
        zero, mask = matmul_mod(lift, h, p), mask[:, None]
    else:
        zero = matmul_mod(h, residue, p)
    m, rows = len(h), h.shape[1] * h.shape[2]
    if not m or not zero.any() and mask.all():
        return h  # none, or the whole Hom(U, V), already reduced
    coeffs = kernel(zero.reshape(m, rows).T, p).basis
    span = matmul_mod(coeffs, h.reshape(m, rows), p).reshape(len(coeffs), *h.shape[1:]) * mask
    return rref(span.reshape(len(coeffs), rows), p)[0].reshape(span.shape)


def _contained(x: np.ndarray, term: tuple, p: int) -> np.ndarray:
    """Per map of the stack x: whether its rows lie in the term's W."""
    return ~matmul_mod(x, term[1], p).any(axis=(1, 2))


def _intertwines(source: np.ndarray, maps: np.ndarray, target: np.ndarray, p: int) -> np.ndarray:
    """Per map of the stack: whether source[g]·map = map·target[g] for each generator g."""
    return (matmul_mod(source, maps[:, None], p)
            == matmul_mod(maps[:, None], target, p)).all(axis=(1, 2, 3))


def _forward(f: np.ndarray, u_gens: np.ndarray, cap: tuple, soc: tuple, p: int):
    """adjunction_forward on a stack of padded maps U/rad^n U -> V: the maps
    U -> soc^n V and its checks, in order, as (passed per map, message)."""
    through = matmul_mod(cap[1], f, p)  # the capital's proj·f, as f is 0 off its positions
    g = through * soc[2]  # ·the submodule's proj
    return g, [(_contained(through, soc, p), "image does not lie in the n-th socle"),
               (_intertwines(u_gens, g, soc[3], p), _NOT_INTERTWINING)]


def _backward(g: np.ndarray, v_gens: np.ndarray, cap: tuple, soc: tuple, p: int):
    """adjunction_backward on a stack of padded maps U -> soc^n V: the maps
    U/rad^n U -> V and its checks, in order."""
    f = matmul_mod(g, soc[0], p) * cap[2][:, None]  # the capital's lift·g·the submodule's lift
    killed = ~matmul_mod(cap[0], g, p).any(axis=(1, 2))  # rad^n U·g = 0
    return f, [(killed, "map does not kill rad^n of its source"),
               (_intertwines(cap[3], f, v_gens, p), _NOT_INTERTWINING)]


def _capital_map(maps: np.ndarray, cap: tuple, cap2: tuple, p: int):
    """capital_map on a stack of maps U2 -> U, for the terms rad^n U (cap) and
    rad^n U2 (cap2): the padded maps diag(m2)·map·R_W·diag(m) and its check."""
    moved = matmul_mod(maps, cap[1], p) * cap[2] * cap2[2][:, None]
    return moved, [(_intertwines(cap2[3], moved, cap[3], p), _NOT_INTERTWINING)]


def _socle_map(maps: np.ndarray, soc: tuple, soc2: tuple, p: int):
    """socle_map on a stack of maps V -> V2, for the terms soc^n V (soc) and
    soc^n V2 (soc2): the padded maps L_W·map·diag(m2) and its checks, in order."""
    moved = matmul_mod(soc[0], maps, p)
    restricted = moved * soc2[2]
    return restricted, [(_contained(moved, soc2, p), "map does not carry the socle into the socle"),
                        (_intertwines(soc[3], restricted, soc2[3], p), _NOT_INTERTWINING)]


def _raise_first(checks: list) -> None:
    """Raise the message of the first check, in order, that the first map
    failing any fails, as the maps taken one at a time would."""
    failed = ~np.array([ok for ok, _ in checks])  # [check, map]
    if failed.any():
        first = failed[:, int(failed.any(axis=0).argmax())]
        raise ValueError(checks[int(first.argmax())][1])


def verify_duality_lemmas(a: Algebra) -> VerificationReport:
    """The two duality isomorphisms on the standing module family.

    For every member U and every admissible n, soc^n(f_dual U) must match
    f_dual(U/rad^n U) and f_dual(soc_n U) must match rad_n(f_dual U), with
    mutually inverse intertwiners; rows record the dimensions compared.
    Each outcome depends on U and the series terms it compares only, and
    past the end of U's series the terms repeat, so it is decided once per
    module and tuple of terms.  _decide_duality decides them all in stacked
    products, with the checks of dual_socle_capital_iso and dual_layer_iso,
    and builds no module or map.
    """
    t0 = time.perf_counter()
    L = a.loewy_length
    items = []  # (kind, U, DU, terms), one per isomorphism to decide
    rows = []
    for label, u in _standard_family(a):
        du = f_dual(u)
        # (W, W', V, V') for U/rad^n U against soc^n DU / 0, and for
        # soc^n U / soc^{n-1} U against rad^{n-1} DU / rad^n DU
        levels = [("socle-capital", n, (radical_n(u, 0), radical_n(u, n),
                                        socle_n(du, n), socle_n(du, 0))) for n in range(L + 1)]
        levels += [("layer", n, (socle_n(u, n), socle_n(u, n - 1),
                                 radical_n(du, n - 1), radical_n(du, n))) for n in range(1, L + 1)]
        decided: dict[tuple, int] = {}  # (kind, *terms) -> index in items
        for kind, n, terms in levels:
            key = (kind, *terms)
            if key not in decided:
                decided[key] = len(items)
                items.append((kind, u, du, terms))
            rows.append((label, kind, n, decided[key]))
    outcomes = _decide_duality(a, items)
    evidence = [(label, kind, n, *outcomes[i]) for label, kind, n, i in rows]
    ok = all(row[-1] for row in evidence)
    return _report(a, CheckResult("duality", "pass" if ok else "fail", evidence), t0)


# _decide_duality stacks at most about this many entries in its largest
# array, (items, side, term, generator, d, d), at least one item per block.
# About five arrays of that size (128 KiB) are alive at once, so a block
# adds well under 1 MB to the peak memory.  With one BLAS thread, blocks of
# 2**20 entries were no faster on the corpus and 40% slower on Nakayama
# (14, 14), dim 196.
_DUALITY_BLOCK_ENTRIES = 1 << 14


def _decide_duality(a: Algebra, items: list[tuple]) -> list[tuple[int, int, bool]]:
    """(d_lhs, d_rhs, good) for each item (kind, U, DU, (W, W', V, V')), the
    quotient W/W' of U against V/V' of DU = f_dual(U), as the first map eta
    of dual_socle_capital_iso (kind "socle-capital") or dual_layer_iso
    (kind "layer") would give them, or (-1, -1, False) where it would raise.

    The items of one module dimension d are decided together, in blocks.
    A term W with reduced basis B and pivots P is held as L_W, the d x d
    zero matrix with L_W[P] = B; its residue matrix (1 - L_W) mod p is
    R_W = W.reduce(1).  The quotient W/W' occupies the positions m, the
    pivots of W that are not pivots of W' (those of complement_basis), so
    at them lift = diag(m)·L_W, proj = R_W'·diag(m), and the action of g
    on W/W' is diag(m)·L_W·g·R_W'·diag(m), subquotient's matrices padded by zeros.
    Products of padded matrices are the padded products, so every check
    of the explicit-map path is one stacked comparison:
    - each term is invariant, L_W·g·R_W = 0 for every generator g, and
      W' <= W, L_W'·R_W = 0, on both sides (subquotient);
    - forward = proj_Q^T·proj_S and backward = lift_S·lift_Q^T intertwine
      the actions (ModuleMap) and multiply to diag(m) both ways
      (_check_mutually_inverse), for Q = W/W' of U and S = V/V' of DU;
    - for a layer, soc^m U and rad^m DU annihilate each other and have
      complementary dimensions, m = n - 1, n (dual_layer_iso).
    """
    outcomes: list = [None] * len(items)
    groups: dict[int, list[int]] = {}
    for i, (_, u, _, _) in enumerate(items):
        groups.setdefault(u.dim, []).append(i)
    gens = a.generator_indices()
    for d, group in groups.items():
        step = max(1, _DUALITY_BLOCK_ENTRIES // (4 * len(gens) * d * d))
        for start in range(0, len(group), step):
            block = group[start:start + step]
            decided = _decide_block([items[i] for i in block], d, gens, a.p)
            for i, outcome in zip(block, decided):
                outcomes[i] = outcome
    return outcomes


def _decide_block(items: list[tuple], d: int, gens: np.ndarray,
                  p: int) -> list[tuple[int, int, bool]]:
    """_decide_duality on items whose modules have dimension d."""
    count = len(items)
    ok = np.ones(count, dtype=bool)
    lifts = np.zeros((count, 2, 2, d, d), dtype=np.int64)  # [item, side, term] = L_W
    for i, (_, _, _, terms) in enumerate(items):
        for j, w in enumerate(terms):
            if w.ambient != d or w.p != p:
                ok[i] = False  # subquotient: not in the module's coordinate space
            else:
                lifts[i, j // 2, j % 2, w.pivots] = w.basis
    residues = (np.eye(d, dtype=np.int64) - lifts) % p
    pivots = lifts[..., np.arange(d), np.arange(d)] == 1  # a reduced basis has 1 at its pivots
    mask = pivots[:, :, 0] & ~pivots[:, :, 1]  # [item, side]: the quotient's positions
    actions = np.stack([np.stack((u.action[gens], du.action[gens]))
                        for _, u, du, _ in items])  # [item, side, g]
    moved = matmul_mod(lifts[:, :, :, None], actions[:, :, None], p)  # L_W·g
    ok &= ~matmul_mod(moved, residues[:, :, :, None], p).any(axis=(1, 2, 3, 4, 5))
    ok &= ~matmul_mod(lifts[:, :, 1], residues[:, :, 0], p).any(axis=(1, 2, 3))
    quotient = matmul_mod(moved[:, :, 0], residues[:, :, 1, None], p) \
        * mask[:, :, None, :, None] * mask[:, :, None, None, :]  # [item, side, g]
    act_q, act_s = quotient[:, 0].swapaxes(-1, -2), quotient[:, 1]  # f_dual(Q), S
    proj = residues[:, :, 1] * mask[:, :, None, :]
    lift = lifts[:, :, 0] * mask[:, :, :, None]
    # [forward, backward] = [proj_Q^T·proj_S, lift_S·lift_Q^T]
    maps = matmul_mod(np.stack((proj[:, 0].swapaxes(-1, -2), lift[:, 1]), axis=1),
                      np.stack((proj[:, 1], lift[:, 0].swapaxes(-1, -2)), axis=1), p)
    sources, targets = np.stack((act_q, act_s), axis=1), np.stack((act_s, act_q), axis=1)
    ok &= (matmul_mod(sources, maps[:, :, None], p)
           == matmul_mod(maps[:, :, None], targets, p)).all(axis=(1, 2, 3, 4))
    ok &= (matmul_mod(maps, maps[:, ::-1], p)
           == np.eye(d, dtype=np.int64) * mask[:, :, None, :]).all(axis=(1, 2, 3))
    # [soc^{n-1} U against rad^{n-1} DU, soc^n U against rad^n DU]
    paired = matmul_mod(lifts[:, 0, ::-1], lifts[:, 1].swapaxes(-1, -2), p)
    dims = pivots.sum(axis=-1)  # [item, side, term]
    annihilate = ~paired.any(axis=(1, 2, 3)) & (dims[:, 0, ::-1] + dims[:, 1] == d).all(axis=1)
    layer = np.array([kind == "layer" for kind, _, _, _ in items])
    ok &= annihilate | ~layer
    sizes = mask.sum(axis=2).tolist()  # [item] = [dim Q, dim S]
    outcomes = []
    for (kind, _, _, terms), good, (dq, ds) in zip(items, ok.tolist(), sizes):
        if not good:
            outcomes.append((-1, -1, False))
            continue
        top, bot, dual_top, dual_bot = terms
        expected = [top.dim - bot.dim]
        # eta is backward S -> f_dual(Q) for a socle-capital, forward for a layer
        lhs, rhs = ds, dq
        if kind == "layer":
            expected.append(dual_top.dim - dual_bot.dim)
            lhs, rhs = dq, ds
        outcomes.append((lhs, rhs, lhs == rhs and all(rhs == e for e in expected)))
    return outcomes


ALL_CHECKS = {
    "main": verify_main_theorem,
    "landrock": verify_landrock,
    "nakayama-id": verify_nakayama_identity,
    "adjunction": verify_adjunction,
    "duality": verify_duality_lemmas,
}


def merge_reports(reports: list[VerificationReport]) -> VerificationReport:
    if not reports:
        raise ValueError("nothing to merge")
    first = reports[0]
    checks = [c for r in reports for c in r.checks]
    elapsed = sum(r.elapsed for r in reports)
    return VerificationReport(first.description, first.loewy_length, checks, elapsed)


def _run_checks(a: Algebra, names=tuple(ALL_CHECKS), seed: int = 0) -> VerificationReport:
    """Run the named checkers on a, in order, and merge their reports.

    seed goes to the adjunction check.  With more than one checker, the
    standard family is built first and held until they are done, so they
    share its modules (the standard modules are cached weakly on the
    algebra) and what is cached on those.  A single checker builds only
    what it reads: holding the family for it made the one-checker CLI
    calls of the large-prime benchmark about 9% slower in verify_s (on a
    2-core machine)."""
    family = _standard_family(a) if len(names) > 1 else []  # held, not read
    reports = [ALL_CHECKS[name](a, seed=seed) if name == "adjunction" else ALL_CHECKS[name](a)
               for name in names]
    return merge_reports(reports)


def run_corpus(entries: list[tuple[str, Algebra]], seed: int = 0) -> list[VerificationReport]:
    """Run every checker over (name, algebra) pairs, sorted by name.

    Returns one merged report per algebra; the per-algebra seeds are
    derived from the base seed and the sorted position, so results are
    reproducible."""
    reports = []
    for offset, (name, a) in enumerate(sorted(entries, key=lambda e: e[0])):
        merged = _run_checks(a, seed=seed + offset)
        merged.description = f"{name}: {merged.description}"
        reports.append(merged)
    return reports
