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
from .linalg import matmul_mod
from .modules import (
    Module,
    ModuleMap,
    a_dual,
    f_dual,
    find_isomorphism,
    hom_space,
    injective,
    nakayama,
    projective,
    simple,
)
from .series import (
    adjunction_backward,
    adjunction_forward,
    capital_map,
    capital_n,
    dual_layer_iso,
    dual_socle_capital_iso,
    layer_table,
    radical_layer,
    radical_n,
    socle_map,
    socle_n,
    socle_submodule,
)

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


def _random_hom(rng, basis: list[ModuleMap]):
    """A random combination of a Hom basis, never zero; None if it is empty."""
    if not basis:
        return None
    u, v = basis[0].source, basis[0].target
    p = u.algebra.p
    coeffs = rng.integers(0, p, size=len(basis)).astype(np.int64)
    if not coeffs.any():
        coeffs[int(rng.integers(0, len(basis)))] = 1
    stacked = np.array([f.matrix for f in basis]).reshape(len(basis), -1)
    return ModuleMap(u, v, matmul_mod(coeffs, stacked, p))


def verify_adjunction(a: Algebra, sample_size: int = 3, seed: int = 0) -> VerificationReport:
    """Round trips and naturality of the capital/socle adjunction.

    For sampled pairs (U, V) and every n from 0 to the Loewy length, both
    round trips across Hom(U/rad^n U, V) <-> Hom(U, soc^n V) must be the
    identity on full hom bases; sampled naturality squares must commute.
    Each Hom basis is solved once per call, however often the samples name
    it: it is kept under the family labels and, for a capital or a socle
    submodule, the series term it is cut at, which levels past the end of
    the series share.  The maps built from these bases stay checked.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    family = _sample_family(a)
    L = a.loewy_length
    p = a.p
    solved: dict[tuple, list[ModuleMap]] = {}

    def hom(key: tuple, u: Module, v: Module) -> list[ModuleMap]:
        if key not in solved:
            solved[key] = hom_space(u, v)
        return solved[key]

    pairs = []
    for _ in range(sample_size):
        u_label, u = family[int(rng.integers(0, len(family)))]
        v_label, v = family[int(rng.integers(0, len(family)))]
        pairs.append((u_label, u, v_label, v))
    round_trips = 0
    failures = 0
    for u_label, u, v_label, v in pairs:
        for n in range(L + 1):
            for f in hom(("capital", u_label, radical_n(u, n), v_label), capital_n(u, n), v):
                g = adjunction_forward(f, n)
                f_back = adjunction_backward(g, n)
                if not np.array_equal(f_back.matrix, f.matrix):
                    failures += 1
                round_trips += 1
            for g in hom(("socle", u_label, v_label, socle_n(v, n)), u, socle_submodule(v, n)):
                f = adjunction_backward(g, n)
                g_back = adjunction_forward(f, n)
                if not np.array_equal(g_back.matrix, g.matrix):
                    failures += 1
                round_trips += 1
    squares = 0
    attempts = 0
    square_target = 2 * sample_size
    while squares < square_target and attempts < 8 * sample_size:
        attempts += 1
        u_label, u, v_label, v = pairs[int(rng.integers(0, len(pairs)))]
        n = int(rng.integers(0, L + 1))
        u2_label, u2 = family[int(rng.integers(0, len(family)))]
        v2_label, v2 = family[int(rng.integers(0, len(family)))]
        map_u = _random_hom(rng, hom((u2_label, u_label), u2, u))
        map_v = _random_hom(rng, hom((v_label, v2_label), v, v2))
        if map_u is None or map_v is None:
            continue
        hom_basis = hom(("capital", u_label, radical_n(u, n), v_label), capital_n(u, n), v)
        if not hom_basis:
            continue
        f = hom_basis[int(rng.integers(0, len(hom_basis)))]
        cap_u = capital_map(map_u, n)
        soc_v = socle_map(map_v, n)
        # route 1: transport f along the square, then take the adjoint
        transported = matmul_mod(matmul_mod(cap_u.matrix, f.matrix, p), map_v.matrix, p)
        f2 = ModuleMap(capital_n(u2, n), v2, transported)
        lhs = adjunction_forward(f2, n).matrix
        # route 2: take the adjoint, then transport along the square
        eta_f = adjunction_forward(f, n)
        rhs = matmul_mod(matmul_mod(map_u.matrix, eta_f.matrix, p), soc_v.matrix, p)
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


def verify_duality_lemmas(a: Algebra) -> VerificationReport:
    """The two duality isomorphisms on the standing module family.

    For every member U and every admissible n, soc^n(f_dual U) must match
    f_dual(U/rad^n U) and f_dual(soc_n U) must match rad_n(f_dual U), with
    mutually inverse intertwiners; rows record the dimensions compared.
    """
    t0 = time.perf_counter()
    L = a.loewy_length
    evidence = []
    ok = True
    for label, u in _standard_family(a):
        du = f_dual(u)
        for n in range(L + 1):
            try:
                eta, _xi = dual_socle_capital_iso(u, n)
                d_lhs, d_rhs = eta.source.dim, eta.target.dim
                good = d_lhs == d_rhs == u.dim - radical_n(u, n).dim
            except ValueError:
                d_lhs = d_rhs = -1
                good = False
            evidence.append((label, "socle-capital", n, d_lhs, d_rhs, good))
            ok = ok and good
        for n in range(1, L + 1):
            try:
                eta, _xi = dual_layer_iso(u, n)
                d_lhs, d_rhs = eta.source.dim, eta.target.dim
                expected = socle_n(u, n).dim - socle_n(u, n - 1).dim
                good = d_lhs == d_rhs == expected
                good = good and d_rhs == radical_n(du, n - 1).dim - radical_n(du, n).dim
            except ValueError:
                d_lhs = d_rhs = -1
                good = False
            evidence.append((label, "layer", n, d_lhs, d_rhs, good))
            ok = ok and good
    return _report(a, CheckResult("duality", "pass" if ok else "fail", evidence), t0)


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
