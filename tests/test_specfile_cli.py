import json
from pathlib import Path

import numpy as np
import pytest

from loewy import (
    CheckResult,
    VerificationReport,
    algebra_to_spec,
    dump_spec,
    load_spec,
    nakayama_spec,
    spec_text,
    spec_to_algebra,
    validate_spec,
)
from loewy.cli import main
from loewy.specfile import SpecFileError

GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------- spec files


def test_dump_load_round_trip_is_byte_identical(tmp_path):
    spec = nakayama_spec(3, 2)
    path = tmp_path / "alg.json"
    dump_spec(spec, path)
    first = path.read_bytes()
    dump_spec(load_spec(path), path)
    assert path.read_bytes() == first
    assert first.endswith(b"\n")


def test_spec_text_is_canonical():
    spec = nakayama_spec(2, 1)
    scrambled = json.loads(json.dumps(spec))  # key order may differ after edits
    assert spec_text(spec) == spec_text(scrambled)


def test_algebra_spec_round_trip(n32):
    rebuilt = spec_to_algebra(algebra_to_spec(n32))
    assert np.array_equal(rebuilt.table, n32.table)
    assert rebuilt.labels == n32.labels


def test_relations_survive_the_round_trip():
    spec = {
        "field": {"p": 5},
        "quiver": {
            "vertices": 3,
            "arrows": [
                {"name": "a", "source": 0, "target": 1},
                {"name": "b", "source": 1, "target": 2},
            ],
        },
        "relations": [[{"coeff": 1, "path": ["a", "b"]}]],
        "truncation": 3,
    }
    alg = spec_to_algebra(spec)
    assert alg.dim == 5
    assert algebra_to_spec(alg)["relations"] == spec["relations"]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s.pop("field"),
        lambda s: s["field"].update(p="five"),
        lambda s: s["quiver"].pop("vertices"),
        lambda s: s["quiver"]["arrows"].append({"name": 3, "source": 0, "target": 0}),
        lambda s: s.__setitem__("relations", "none"),
        lambda s: s["relations"].append([{"coeff": "x", "path": []}]),
        lambda s: s.__setitem__("truncation", 2.5),
    ],
)
def test_validate_rejects_malformed_specs(mutate):
    spec = nakayama_spec(2, 2)
    mutate(spec)
    with pytest.raises(SpecFileError):
        validate_spec(spec)


def test_load_missing_and_invalid_files(tmp_path):
    with pytest.raises(SpecFileError):
        load_spec(tmp_path / "absent.json")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(SpecFileError):
        load_spec(garbled)


def test_algebra_without_presentation_cannot_be_serialized(n32):
    from loewy import Algebra

    bare = Algebra(n32.field, n32.table, n32.labels, n32.path_lengths, n32.num_vertices)
    with pytest.raises(SpecFileError):
        algebra_to_spec(bare)


# ----------------------------------------------------------------------- cli


def test_show_matches_golden(capsys):
    assert main(["show", "--nakayama", "3,2", "--module", "P0", "--series", "radical"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "show_cyclic3_p0_radical.txt").read_text()


def test_show_socle_series_prints_top_first(capsys):
    assert main(["show", "--nakayama", "3,2", "--module", "I0", "--series", "socle"]) == 0
    assert capsys.readouterr().out == "S_1\nS_2\nS_0\n"


def test_show_regular_module(capsys):
    assert main(["show", "--nakayama", "2,1", "--module", "A"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["S_0 + S_1", "S_0 + S_1"]


def test_table_cartan_matches_golden(capsys):
    assert main(["table", "--nakayama", "2,3", "--kind", "cartan"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "cartan_cyclic2_l3.txt").read_text()


def test_table_radical_layers(capsys):
    assert main(["table", "--nakayama", "2,1", "--kind", "radical"]) == 0
    assert capsys.readouterr().out == "n=1\n1 0\n0 1\nn=2\n0 1\n1 0\n"


def test_verify_pass_exit_code(capsys):
    assert main(["verify", "--nakayama", "2,2", "--check", "main"]) == 0
    out = capsys.readouterr().out
    assert "check main-theorem: pass" in out
    assert "overall: pass" in out


def test_verify_unknown_exit_code(capsys):
    assert main(["verify", "--nakayama", "3,2", "--check", "landrock"]) == 3
    out = capsys.readouterr().out
    assert "check landrock: unknown" in out


def test_verify_fail_exit_code(capsys, monkeypatch):
    import loewy.cli as cli

    def broken(a, **kw):
        return VerificationReport(a.describe(), a.loewy_length, [CheckResult("main-theorem", "fail")])

    monkeypatch.setitem(cli.ALL_CHECKS, "main", broken)
    assert main(["verify", "--nakayama", "2,1", "--check", "main"]) == 1
    assert "overall: fail" in capsys.readouterr().out


def test_verify_json_is_deterministic(capsys):
    argv = ["verify", "--nakayama", "2,2", "--format", "json", "--seed", "9"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["status"] == "pass"
    assert [c["name"] for c in payload["checks"]] == [
        "main-theorem",
        "landrock",
        "nakayama-id",
        "adjunction",
        "duality",
    ]


def test_verify_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("LOEWY_SEED", "4")
    assert main(["verify", "--nakayama", "2,2", "--check", "adjunction"]) == 0
    via_env = capsys.readouterr().out
    monkeypatch.delenv("LOEWY_SEED")
    assert main(["verify", "--nakayama", "2,2", "--check", "adjunction", "--seed", "4"]) == 0
    assert capsys.readouterr().out == via_env


def test_emit_writes_loadable_spec(tmp_path, capsys):
    out = tmp_path / "cyclic.json"
    assert main(["emit-nakayama", "--k", "3", "--l", "2", "--out", str(out)]) == 0
    assert spec_to_algebra(load_spec(out)).dim == 9
    # stdout emission is byte-identical to the file
    assert main(["emit-nakayama", "--k", "3", "--l", "2"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_emit_then_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "cyclic.json"
    assert main(["emit-nakayama", "--k", "2", "--l", "2", "--out", str(out)]) == 0
    assert main(["verify", "--algebra", str(out), "--check", "main"]) == 0
    capsys.readouterr()


def test_input_error_exit_codes(tmp_path, capsys):
    assert main(["show", "--nakayama", "3;2", "--module", "P0"]) == 2
    assert main(["show", "--nakayama", "3,2", "--module", "Q1"]) == 2
    assert main(["show", "--nakayama", "3,2", "--module", "P7"]) == 2
    assert main(["verify", "--algebra", str(tmp_path / "nope.json")]) == 2
    assert main(["emit-nakayama", "--k", "0", "--l", "2"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize(
    "k,mutate",
    [
        (2, lambda s: s["field"].update(p=True)),
        (1, lambda s: s["quiver"].update(vertices=True)),
        (2, lambda s: s["quiver"]["arrows"][0].update(source=True)),
        (2, lambda s: s["quiver"]["arrows"][0].update(target=True)),
        (2, lambda s: s.__setitem__("relations", [[{"coeff": True, "path": ["a0", "a1"]}]])),
        (2, lambda s: s.__setitem__("truncation", True)),
    ],
    ids=["p", "vertices", "source", "target", "coeff", "truncation"],
)
def test_json_booleans_are_not_integers(tmp_path, capsys, k, mutate):
    # json.loads reads true as True, an int subclass equal to 1.
    spec = nakayama_spec(k, 2)
    mutate(spec)
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(spec))
    assert main(["table", "--algebra", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_emit_to_an_unwritable_path_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["emit-nakayama", "--k", "2", "--l", "1", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SpecFileError):
        dump_spec(nakayama_spec(2, 1), out)


@pytest.mark.parametrize("p", [4, 1])
def test_emit_rejects_a_modulus_that_is_not_prime(tmp_path, capsys, p):
    out = tmp_path / "cyclic.json"
    assert main(["emit-nakayama", "--k", "2", "--l", "1", "--p", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: modulus {p} is not prime\n"
    assert not out.exists()
    with pytest.raises(ValueError, match=f"modulus {p} is not prime"):
        nakayama_spec(2, 1, p)


def test_verify_adjunction_exact_at_large_prime(tmp_path, capsys):
    # At p = 33554393 a product of three matrices exceeds int64 unless it is
    # reduced mod p between the two factors; this presentation and seed hit
    # that in the naturality squares.
    spec = {
        "field": {"p": 33554393},
        "quiver": {
            "vertices": 2,
            "arrows": [
                {"name": "a0", "source": 1, "target": 0},
                {"name": "a1", "source": 1, "target": 0},
                {"name": "a2", "source": 1, "target": 1},
                {"name": "a3", "source": 0, "target": 1},
            ],
        },
        "relations": [
            [{"coeff": 9723458, "path": ["a2", "a1"]}, {"coeff": 31088404, "path": ["a2", "a0"]}]
        ],
        "truncation": 3,
    }
    path = tmp_path / "large.json"
    dump_spec(spec, path)
    argv = ["verify", "--algebra", str(path), "--check", "adjunction", "--format", "json",
            "--seed", "1"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
