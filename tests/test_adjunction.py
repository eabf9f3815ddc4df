"""The stacked adjunction checker against the explicit maps.

verify_adjunction decides the round trips and naturality squares of the
capital/socle adjunction Hom(U/rad^n U, V) = Hom(U, soc^n V) in stacked
products of padded matrices.  _explicit_adjunction draws the same samples
and builds one checked ModuleMap per map through capital_n,
socle_submodule, adjunction_forward, adjunction_backward, capital_map and
socle_map, as the checker once did.  These tests check that the two give
the same reports, that the capital and socle Hom bases read off one
Hom(U, V) are hom_space's bases padded by zeros, that a series term the
subquotient would reject raises the error the explicit maps raise, and
that a round trip that does not return its map fails the check.
"""

import numpy as np
import pytest

import loewy.series as series
import loewy.verify as verify
from loewy import (
    ModuleMap,
    build_nakayama,
    default_corpus,
    hom_space,
    injective,
    linear_quiver_algebra,
    projective,
    radical_n,
    socle_n,
    spec_to_algebra,
    verify_adjunction,
)
from loewy.linalg import Subspace, matmul_mod
from loewy.verify import _adjunction_term, _restricted_hom, _sample_family
from test_exact import LARGE_SPEC, P_MAX, _rebased
from test_oracles import _quantum_exterior_plane


def _random_hom(rng, basis):
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


def _explicit_adjunction(a, sample_size=3, seed=0):
    """(status, evidence) of verify_adjunction(a, sample_size, seed) from the
    explicit maps.  The series functions are looked up on loewy.series at
    call time, so a test can patch them."""
    rng = np.random.default_rng(seed)
    family = _sample_family(a)
    L = a.loewy_length
    p = a.p
    solved = {}

    def hom(key, u, v):
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
            capital = series.capital_n(u, n)
            for f in hom(("capital", u_label, series.radical_n(u, n), v_label), capital, v):
                g = series.adjunction_forward(f, n)
                f_back = series.adjunction_backward(g, n)
                if not np.array_equal(f_back.matrix, f.matrix):
                    failures += 1
                round_trips += 1
            socle = series.socle_submodule(v, n)
            for g in hom(("socle", u_label, v_label, series.socle_n(v, n)), u, socle):
                f = series.adjunction_backward(g, n)
                g_back = series.adjunction_forward(f, n)
                if not np.array_equal(g_back.matrix, g.matrix):
                    failures += 1
                round_trips += 1
    squares = 0
    attempts = 0
    while squares < 2 * sample_size and attempts < 8 * sample_size:
        attempts += 1
        u_label, u, v_label, v = pairs[int(rng.integers(0, len(pairs)))]
        n = int(rng.integers(0, L + 1))
        u2_label, u2 = family[int(rng.integers(0, len(family)))]
        v2_label, v2 = family[int(rng.integers(0, len(family)))]
        map_u = _random_hom(rng, hom((u2_label, u_label), u2, u))
        map_v = _random_hom(rng, hom((v_label, v2_label), v, v2))
        if map_u is None or map_v is None:
            continue
        hom_basis = hom(("capital", u_label, series.radical_n(u, n), v_label),
                        series.capital_n(u, n), v)
        if not hom_basis:
            continue
        f = hom_basis[int(rng.integers(0, len(hom_basis)))]
        cap_u = series.capital_map(map_u, n)
        soc_v = series.socle_map(map_v, n)
        transported = matmul_mod(matmul_mod(cap_u.matrix, f.matrix, p), map_v.matrix, p)
        f2 = ModuleMap(series.capital_n(u2, n), v2, transported)
        lhs = series.adjunction_forward(f2, n).matrix
        eta_f = series.adjunction_forward(f, n)
        rhs = matmul_mod(matmul_mod(map_u.matrix, eta_f.matrix, p), soc_v.matrix, p)
        if not np.array_equal(lhs, rhs):
            failures += 1
        squares += 1
    evidence = [("pairs", len(pairs)), ("round_trips", round_trips),
                ("naturality_squares", squares), ("failures", failures)]
    return "pass" if failures == 0 else "fail", evidence


def _a3_rebased(request):
    return request.getfixturevalue("a3_rebased")[0]


# The corpora and the Nakayama grid run at p = 5, in float64 products where
# they are large; the large primes keep every product in int64 or split it.
# a3_rebased is not vertex-adapted, and the quantum exterior plane has one
# vertex and two loops.
REPORT_ALGEBRAS = {
    "corpus-0": lambda request: request.getfixturevalue("corpus0"),
    "corpus-1": lambda request: default_corpus(seed=1),
    "corpus-2": lambda request: default_corpus(seed=2),
    "nakayama-grid": lambda request: [(f"nakayama-{k}-{ell}", build_nakayama(k, ell))
                                      for k in range(1, 5) for ell in range(1, 5)],
    "others": lambda request: [
        ("large-prime", spec_to_algebra(LARGE_SPEC)),
        ("nakayama-2-2-largest-prime", build_nakayama(2, 2, P_MAX)),
        ("a3-rebased", _a3_rebased(request)),
        ("quantum-exterior-plane-q1", _quantum_exterior_plane(1)),
        ("quantum-exterior-plane-q2", _quantum_exterior_plane(2))],
}


@pytest.mark.parametrize("name", sorted(REPORT_ALGEBRAS))
def test_stacked_adjunction_checker_matches_the_explicit_maps(request, name):
    entries = REPORT_ALGEBRAS[name](request)
    seeds = range(4) if name in ("nakayama-grid", "others") else [None]
    for offset, (label, a) in enumerate(entries):
        for seed in seeds:
            seed = offset if seed is None else seed
            check = verify_adjunction(a, seed=seed).checks[0]
            status, evidence = _explicit_adjunction(a, seed=seed)
            assert (check.status, check.evidence) == (status, evidence), (label, seed)
            assert status == "pass", (label, seed)


def _padded_bases(u, v, n):
    """hom_space on the capital U/rad^n U into V and on U into soc^n V, each
    map padded by zeros to dim U x dim V: the capital's lift is the rows of
    the identity off rad^n U's pivots, and the submodule's proj the columns
    at soc^n V's pivots."""
    capital, socle = series.capital_n(u, n), series.socle_submodule(v, n)
    caps = [capital.lift.T @ f.matrix for f in hom_space(capital, v)]
    socs = [g.matrix @ socle.proj.T for g in hom_space(u, socle)]
    return [np.array(maps, dtype=np.int64).reshape(len(maps), u.dim, v.dim)
            for maps in (caps, socs)]


BASIS_ALGEBRAS = {
    "nakayama-3-2": lambda request: build_nakayama(3, 2),
    "linear-A3-N3": lambda request: linear_quiver_algebra(3, 3),  # rad_2(P2) = 0
    "a3-rebased": _a3_rebased,
    "quantum-exterior-plane-q2": lambda request: _quantum_exterior_plane(2),
    "large-prime": lambda request: spec_to_algebra(LARGE_SPEC),
}


@pytest.mark.parametrize("name", sorted(BASIS_ALGEBRAS))
def test_capital_and_socle_bases_are_hom_space_padded(request, name):
    # With the family, P_0 and I_0 in a random basis, whose series terms
    # have reduced bases other than coordinate vectors: there the padded
    # capital maps are not in reduced echelon form before the last rref.
    a = BASIS_ALGEBRAS[name](request)
    family = [v for _, v in _sample_family(a)]
    assert name != "linear-A3-N3" or any(v.dim == 0 for v in family)
    rng = np.random.default_rng(len(name))
    family += [_rebased(projective(a, 0), rng), _rebased(injective(a, 0), rng)]
    for u in family:
        for v in family:
            maps = hom_space(u, v)
            h = np.array([f.matrix for f in maps], dtype=np.int64).reshape(len(maps), u.dim, v.dim)
            for n in range(a.loewy_length + 1):
                got = [_restricted_hom(h, _adjunction_term(w, term(w, n), kind), kind, a.p)
                       for w, term, kind in ((u, radical_n, "radical"), (v, socle_n, "socle"))]
                want = _padded_bases(u, v, n)
                assert all(np.array_equal(x, y) for x, y in zip(got, want)), (n, u, v)


def _not_invariant_line(v):
    """A coordinate line of v that some generator moves out of itself, or None."""
    p, gens = v.algebra.p, v.action[v.algebra.generator_indices()]
    for x in np.eye(v.dim, dtype=np.int64):
        line = Subspace.from_rows(x[None], v.dim, p)
        if not line.contains_vector(matmul_mod(x, gens, p)):
            return line
    return None


# soc^n V for n >= 1 replaced by a subspace that subquotient rejects, where
# there is one, or by a neighbouring term of the socle series: then some map
# into V does not land in the term, or some map into the term does not kill
# rad^n U.
BAD_TERMS = {
    "subspace is not invariant under the algebra action": lambda soc, v, n: _not_invariant_line(v),
    "subspace does not live in the module's coordinate space":
        lambda soc, v, n: Subspace.zero(v.dim + 1, v.algebra.p),
    "image does not lie in the n-th socle": lambda soc, v, n: soc(v, n - 1),
    "map does not kill rad^n of its source": lambda soc, v, n: soc(v, n + 1),
}


@pytest.mark.parametrize("message", sorted(BAD_TERMS))
def test_a_bad_socle_term_raises_as_the_explicit_maps_do(monkeypatch, message):
    # The term is replaced through verify's own binding of socle_n and the
    # series', which the explicit maps read.
    bad_term = BAD_TERMS[message]
    original = series.socle_n

    def patched(v, n):
        bad = bad_term(original, v, n) if n else None
        return original(v, n) if bad is None else bad

    for module in (verify, series):
        monkeypatch.setattr(module, "socle_n", patched)
    monkeypatch.setitem(series._TERMS, "socle", patched)
    # Where the explicit maps raise, the stacked checker raises the same;
    # elsewhere both report the same.
    raised = []
    for a in (build_nakayama(3, 2), linear_quiver_algebra(3, 3)):
        for seed in range(4):
            try:
                want = _explicit_adjunction(a, seed=seed)
            except ValueError as exc:
                raised.append(str(exc))
                with pytest.raises(ValueError) as stacked:
                    verify_adjunction(a, seed=seed)
                assert str(stacked.value) == str(exc)
                continue
            check = verify_adjunction(a, seed=seed).checks[0]
            assert (check.status, check.evidence) == want
    assert message in raised


def test_a_round_trip_that_does_not_return_its_map_fails(monkeypatch):
    # Backward maps scaled by 2: every round trip returns twice its map,
    # which no check of a single map rejects.  The naturality squares take
    # no backward map.
    def doubled(original):
        def scaled(*args):
            result = original(*args)
            if isinstance(result, ModuleMap):
                return ModuleMap(result.source, result.target, 2 * result.matrix)
            return (2 * result[0] % args[-1], result[1])
        return scaled

    monkeypatch.setattr(verify, "_backward", doubled(verify._backward))
    monkeypatch.setattr(series, "adjunction_backward", doubled(series.adjunction_backward))
    a = build_nakayama(3, 2)
    for seed in range(3):
        check = verify_adjunction(a, seed=seed).checks[0]
        counts = dict(check.evidence)
        assert counts["round_trips"] > 0
        assert counts["failures"] == counts["round_trips"]
        assert check.status == "fail"
        assert (check.status, check.evidence) == _explicit_adjunction(a, seed=seed)


def _first_failures(checks):
    """Per map of a stack: the message of its first failed check, or None."""
    failed = ~np.array([ok for ok, _ in checks])  # [check, map]
    return [checks[int(col.argmax())][1] if col.any() else None for col in failed.T]


def _explicit_outcomes(build, maps, source, target, n):
    """(message, None) where build(ModuleMap(source, target, m), n) raises, else
    (None, its matrix), for each matrix m of maps."""
    outcomes = []
    for m in maps:
        try:
            outcomes.append((None, build(ModuleMap(source, target, m, check=False), n).matrix))
        except ValueError as exc:
            outcomes.append((str(exc), None))
    return outcomes


def _candidates(rng, p, honest, shape, left=None, right=None):
    """A stack of maps of the given shape: hom_space's, three arbitrary ones
    and, with left or right, three of the form left·X or X·right."""
    stacks = [np.array([f.matrix for f in honest], dtype=np.int64).reshape(len(honest), *shape),
              rng.integers(0, p, size=(3, *shape))]
    if left is not None:
        stacks.append(matmul_mod(left, rng.integers(0, p, size=(3, left.shape[1], shape[1])), p))
    if right is not None:
        stacks.append(matmul_mod(rng.integers(0, p, size=(3, shape[0], right.shape[0])), right, p))
    return np.concatenate(stacks)


@pytest.mark.parametrize("name", sorted(BASIS_ALGEBRAS))
def test_stacked_maps_check_as_the_explicit_maps_do(request, name):
    # Each stacked map fails the first check that its explicit map fails,
    # or equals that map padded by zeros.  Besides hom_space's maps and
    # arbitrary ones, maps that pass the first check reach the later ones:
    # rows in soc^n V for adjunction_forward and socle_map, maps that kill
    # rad^n U, through the capital's proj, for adjunction_backward.
    a = BASIS_ALGEBRAS[name](request)
    p, gens, L = a.p, a.generator_indices(), a.loewy_length
    family = [v for _, v in _sample_family(a)]
    rng = np.random.default_rng(len(name))
    seen = set()
    for _ in range(30):
        u, v, u2, v2 = (family[int(i)] for i in rng.integers(0, len(family), size=4))
        n = int(rng.integers(0, L + 1))
        cap, cap2 = (_adjunction_term(w, radical_n(w, n), "radical") for w in (u, u2))
        soc, soc2 = (_adjunction_term(w, socle_n(w, n), "socle") for w in (v, v2))
        capital, capital2 = series.capital_n(u, n), series.capital_n(u2, n)
        socle, socle2 = series.socle_submodule(v, n), series.socle_submodule(v2, n)
        cases = [  # stacked, explicit, maps, source, target, padding in, padding out
            (lambda m: verify._forward(m, u.action[gens], cap, soc, p), series.adjunction_forward,
             _candidates(rng, p, hom_space(capital, v), (capital.dim, v.dim), right=socle.lift),
             capital, v, lambda m: capital.lift.T @ m, lambda m: m @ socle.proj.T),
            (lambda m: verify._backward(m, v.action[gens], cap, soc, p), series.adjunction_backward,
             _candidates(rng, p, hom_space(u, socle), (u.dim, socle.dim), left=capital.proj),
             u, socle, lambda m: m @ socle.proj.T, lambda m: capital.lift.T @ m),
            (lambda m: verify._capital_map(m, cap, cap2, p), series.capital_map,
             _candidates(rng, p, hom_space(u2, u), (u2.dim, u.dim)),
             u2, u, lambda m: m, lambda m: capital2.lift.T @ m @ capital.lift),
            (lambda m: verify._socle_map(m, soc, soc2, p), series.socle_map,
             _candidates(rng, p, hom_space(v, v2), (v.dim, v2.dim), right=socle2.lift),
             v, v2, lambda m: m, lambda m: socle.proj @ m @ socle2.proj.T),
        ]
        for stacked, explicit, maps, source, target, pad_in, pad_out in cases:
            out, checks = stacked(np.array([pad_in(m) for m in maps]))
            want = _explicit_outcomes(explicit, maps, source, target, n)
            assert _first_failures(checks) == [message for message, _ in want], explicit.__name__
            for got, (message, matrix) in zip(out, want):
                if message is None:
                    assert np.array_equal(got, pad_out(matrix)), explicit.__name__
            seen.update(message for message, _ in want)
    assert None in seen and len(seen) >= 4
