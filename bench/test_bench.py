"""Self-tests of the benchmark: every check catches a wrong answer, and the
traced counts repeat exactly.  Run with

    python3 -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import loewy as lw  # noqa: E402

import checks as ck  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


class _Result:
    def __init__(self, status, form=None):
        self.status = status
        self.form = form


@pytest.fixture(scope="module")
def n22():
    return lw.build_nakayama(2, 2, 5)


@pytest.fixture(scope="module")
def n21():
    return lw.build_nakayama(2, 1, 5)


def test_rank_and_cartan_match_closed_forms(n22):
    assert ck.rank_mod([[1, 2], [2, 4]], 5) == 1
    assert ck.rank_mod([[1, 2], [2, 3]], 5) == 2
    radical = ck.nakayama_radical_table(2, 2)
    assert np.array_equal(ck.cartan_from_tensor(n22.table, 2, 5), radical.sum(axis=2))


def test_layer_table_check_catches_wrong_tables(n22):
    cartan = ck.cartan_from_tensor(n22.table, 2, 5)
    good = lw.layer_table([lw.projective(n22, i) for i in range(2)], "radical").table
    closed = ck.nakayama_radical_table(2, 2)
    ck.check_layer_table(good, cartan, "good", closed)
    swapped = good.copy()
    swapped[:, :, [1, 2]] = swapped[:, :, [2, 1]]  # same sums, wrong order
    with pytest.raises(ck.CheckFailure, match="closed form"):
        ck.check_layer_table(swapped, cartan, "swapped", closed)
    extra = good.copy()
    extra[0, 1, 1] += 1
    with pytest.raises(ck.CheckFailure, match="add up"):
        ck.check_layer_table(extra, cartan, "extra")
    top = good.copy()
    top[:, :, 0] = top[::-1, :, 0]
    with pytest.raises(ck.CheckFailure, match="first layer"):
        ck.check_layer_table(top, cartan, "top")


def test_isomorphism_check_catches_wrong_witnesses(n22):
    p0 = lw.projective(n22, 0)
    nu = lw.nakayama(p0)
    res = lw.find_isomorphism(nu, p0)
    ck.check_isomorphism(res.witness, p0, "good")
    bent = res.witness.matrix.copy()
    bent[0, 0] = (bent[0, 0] + 1) % 5
    with pytest.raises(ck.CheckFailure, match="intertwine"):
        ck.check_isomorphism(lw.ModuleMap(nu, p0, bent, check=False), p0, "bent")
    zero = lw.ModuleMap(nu, p0, np.zeros_like(bent))
    with pytest.raises(ck.CheckFailure, match="singular"):
        ck.check_isomorphism(zero, p0, "zero")


def test_symmetry_checks_catch_wrong_verdicts(n22, n21):
    tally = ck.Tally()
    cartan22 = ck.cartan_from_tensor(n22.table, 2, 5)
    yes = lw.is_symmetric(n22)
    args = (cartan22, [3, 3], [3, 3])
    assert ck.check_symmetry_verdict(n22, yes, tally, "good", True, *args) == "yes"
    with pytest.raises(ck.CheckFailure, match="Gram"):
        ck.check_symmetry_verdict(n22, _Result("yes", np.zeros(6, dtype=np.int64)), tally,
                                  "zero form", None, *args)
    lopsided = np.zeros(6, dtype=np.int64)
    lopsided[n22.labels.index("a0")] = 1  # lambda(e0 a0) = 1 but lambda(a0 e0) = 0
    with pytest.raises(ck.CheckFailure):
        ck.check_symmetric_form(n22, lopsided, "lopsided")
    with pytest.raises(ck.CheckFailure, match="closed form says yes"):
        ck.check_symmetry_verdict(n22, _Result("no"), tally, "no", True, *args)
    with pytest.raises(ck.CheckFailure, match="closed form says no"):
        ck.check_symmetry_verdict(n21, _Result("yes", yes.form[:4]), tally, "yes", False,
                                  ck.cartan_from_tensor(n21.table, 2, 5), [2, 2], [2, 2])
    with pytest.raises(ck.CheckFailure, match="exhaustive"):
        ck.check_symmetry_verdict(n21, _Result("unknown"), tally, "unknown", False,
                                  ck.cartan_from_tensor(n21.table, 2, 5), [2, 2], [2, 2])
    assert (tally.attempted, tally.failed) == (1, 0)


def test_report_check_catches_wrong_evidence(n22):
    tally = ck.Tally()
    radical = ck.nakayama_radical_table(2, 2)
    reports = [lw.verify_main_theorem(n22), lw.verify_landrock(n22),
               lw.verify_nakayama_identity(n22), lw.verify_adjunction(n22),
               lw.verify_duality_lemmas(n22)]
    checks = ck.report_checks(lw.merge_reports(reports))
    ck.check_report(checks, "yes", radical, tally, "good")
    assert (tally.attempted, tally.failed) == (5, 0)

    def broken(name, **change):
        out = [dict(c) for c in checks]
        for c in out:
            if c["name"] == name:
                c.update(change)
        return out

    row = list(checks[0]["evidence"][0])
    row[5] += 1
    bad_rows = [row] + checks[0]["evidence"][1:]
    cases = [
        broken("main-theorem", evidence=bad_rows),
        broken("landrock", status="unknown"),
        broken("nakayama-id", evidence=[[0, 3, "yes"], [1, 3, "unknown"]]),
        broken("adjunction", evidence=[["failures", 1]]),
        broken("duality", status="fail"),
        checks[:4],
    ]
    for case in cases:
        with pytest.raises(ck.CheckFailure):
            ck.check_report(case, "yes", radical, ck.Tally(), "bad")
    with pytest.raises(ck.CheckFailure, match="landrock"):
        ck.check_report(checks, "unknown", radical, ck.Tally(), "unknown symmetry")


def test_cli_parsers_round_trip():
    text = "n=1\n1 0\n0 1\nn=2\n0 1\n1 0\n"
    table = ck.parse_cli_table(text, 2, "t")
    assert table.shape == (2, 2, 2) and table[0, 1, 1] == 1
    with pytest.raises(ck.CheckFailure):
        ck.parse_cli_table("n=2\n1 0\n0 1\n", 2, "t")
    assert ck.parse_cli_matrix("1 2\n3 4\n", "m").tolist() == [[1, 2], [3, 4]]


def test_large_prime_inputs():
    p = wl.LARGE_P
    assert p < 2**25 and all(p % d for d in range(2, int(p**0.5) + 1))
    assert all(any(q % d == 0 for d in range(2, int(q**0.5) + 1)) for q in range(p + 1, 2**25))
    shapes = wl.large_prime_shapes()
    assert len(shapes) == wl.LARGE_RANDOM_COUNT
    for s in shapes:
        assert s["k"] + len(wl._paths(s["k"], s["arrows"], s["truncation"])) <= 20
    first, again, other = (wl.large_prime_specs(seed) for seed in (3, 3, 4))
    assert first == again and first != other
    assert [s["quiver"] for _, s in first] == [s["quiver"] for _, s in other]


def _traced_counts(tracer, rounds):
    out = []
    for _ in range(rounds):
        mark = tracer.mark()
        inputs = {"params": [(2, 2), (3, 2)]}
        wl.grid_round(inputs, seed=7)
        lw.random_quiver_spec(np.random.default_rng(2))
        metrics = tracer.per_layer(mark, tracer.mark())
        out.append({k: v for k, v in metrics.items() if spans.metric_unit(k) == "count"})
    return out


def test_traced_counts_repeat_and_bindings_are_wrapped():
    original = lw.modules.hom_space
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert lw.verify.hom_space is lw.modules.hom_space is not original
        assert lw.verify.ALL_CHECKS["main"] is lw.verify.verify_main_theorem
        assert lw.algebra.rref is lw.linalg.rref is lw.rref
        first, second = _traced_counts(tracer, 2)
    finally:
        tracer.uninstall()
    assert lw.modules.hom_space is original and lw.verify.hom_space is original
    assert first == second
    assert first["modules.hom_space.calls"] > 0 and first["linalg.rref.cells"] > 0
    assert first["corpus.draws"] >= 1
    assert first["corpus.draws"] - first["corpus.draws_rejected"] == 1
