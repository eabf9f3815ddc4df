from loewy import (
    CheckResult,
    IsoSearchResult,
    VerificationReport,
    build_nakayama,
    linear_quiver_algebra,
    merge_reports,
    run_corpus,
    verify_adjunction,
    verify_duality_lemmas,
    verify_landrock,
    verify_main_theorem,
    verify_nakayama_identity,
)
from loewy import verify as verify_module


def test_main_theorem_on_cyclic_and_linear(n32, a3):
    for alg in (n32, a3):
        rep = verify_main_theorem(alg)
        assert rep.status == "pass"
        rows = rep.checks[0].evidence
        k, L = alg.num_vertices, alg.loewy_length
        assert len(rows) == k * k * L
        for i, j, n, d1, d2, d3 in rows:
            assert d1 == d2 == d3


def test_main_theorem_evidence_is_sorted(n22):
    rows = verify_main_theorem(n22).checks[0].evidence
    assert rows == sorted(rows)


def test_landrock_skips_nonsymmetric(n32):
    rep = verify_landrock(n32)
    assert rep.status == "unknown"
    assert "skipped" in rep.checks[0].note
    assert rep.checks[0].evidence == []


def test_landrock_on_symmetric(n22):
    rep = verify_landrock(n22)
    assert rep.status == "pass"
    assert len(rep.checks[0].evidence) == 2 * 2 * 3


def test_nakayama_identity(n22, n32):
    assert verify_nakayama_identity(n22).status == "pass"
    assert verify_nakayama_identity(n32).status == "unknown"


def test_nakayama_identity_states_why_it_is_unknown(n22, monkeypatch):
    notes = iter(["first reason", "second reason"])
    monkeypatch.setattr(verify_module, "find_isomorphism",
                        lambda u, v: IsoSearchResult("unknown", note=next(notes)))
    check = verify_nakayama_identity(n22).checks[0]
    assert check.status == "unknown"
    assert check.note == "first reason"
    assert [row[2] for row in check.evidence] == ["unknown", "unknown"]


def test_adjunction_counts(n32):
    rep = verify_adjunction(n32, sample_size=4, seed=1)
    assert rep.status == "pass"
    ev = dict(rep.checks[0].evidence)
    assert ev["failures"] == 0
    assert ev["round_trips"] > 0
    assert ev["naturality_squares"] > 0


def test_duality_lemmas(n32, a3):
    for alg in (n32, a3):
        rep = verify_duality_lemmas(alg)
        assert rep.status == "pass"
        for row in rep.checks[0].evidence:
            assert row[-1] is True
            assert row[3] == row[4]  # the two sides have equal dimension


def test_report_status_precedence():
    def rep(*statuses):
        return VerificationReport("x", 2, [CheckResult(f"c{i}", s) for i, s in enumerate(statuses)])

    assert rep("pass", "pass").status == "pass"
    assert rep("pass", "unknown").status == "unknown"
    assert rep("unknown", "fail", "pass").status == "fail"


def test_report_serialization_excludes_elapsed(n22):
    rep = verify_main_theorem(n22)
    assert rep.elapsed > 0
    d = rep.to_dict()
    assert "elapsed" not in d
    assert d["status"] == "pass"
    assert d["loewy_length"] == 3
    assert d["checks"][0]["name"] == "main-theorem"


def test_merge_reports(n22):
    a = verify_main_theorem(n22)
    b = verify_duality_lemmas(n22)
    merged = merge_reports([a, b])
    assert [c.name for c in merged.checks] == ["main-theorem", "duality"]
    assert merged.status == "pass"


def test_run_corpus_is_deterministic():
    entries = [
        ("tiny-cyclic", build_nakayama(2, 1)),
        ("tiny-linear", linear_quiver_algebra(2, 2)),
    ]
    first = run_corpus(entries, seed=3)
    second = run_corpus(entries, seed=3)
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]
    assert [r.description.split(":")[0] for r in first] == ["tiny-cyclic", "tiny-linear"]
    for r in first:
        assert r.status in ("pass", "unknown")
        failing = [c for c in r.checks if c.status == "fail"]
        assert failing == []
