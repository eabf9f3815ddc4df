"""The cached radical and socle series against a per-element reference.

socle_n and radical_n compute each whole series once per module, by the
recursion over the arrow blocks e_s * g * e_t, and keep it on the module.
The reference below is the direct method: one action matrix per basis
element of rad^n A, stacked and row-reduced on every call.  It checks the
cached terms subspace for subspace, over every module a checker builds,
also on a basis that is not of paths, where an arrow has two blocks.
layer_table reads its multiplicities off those terms as dim(W e_j); the
reference for it counts Hom between each layer module and the simples.
The vertex bases and counts read off vertex-adapted coordinates are
compared with one elimination per vertex and one rank per term.
The same file pins the corpus reports and the large-prime CLI output, so
neither can change a single evidence row or byte of stdout, checks that
counting layers builds no layer module, and checks the batched Module
verification and that an algebra and its opposite are freed without the
cycle collector.
"""

import gc
import hashlib
import json
import sys
import weakref

import numpy as np
import pytest

from loewy import (
    Module,
    a_dual,
    build_nakayama,
    dump_spec,
    f_dual,
    hom_space,
    injective,
    layer_table,
    linear_quiver_algebra,
    projective,
    radical_layer,
    radical_n,
    regular_module,
    run_corpus,
    simple,
    socle_layer,
    socle_n,
    spec_to_algebra,
    verify_landrock,
    verify_main_theorem,
)
from loewy.cli import main
from loewy.linalg import Subspace, kernel, rank
from loewy.series import _vertex_dims


def reference_socle_n(v, n):
    a = v.algebra
    rad = a.radical_power(n)
    if rad.dim == 0 or v.dim == 0:
        return Subspace.full(v.dim, a.p)
    mats = np.array([v.act(r) for r in rad.basis], dtype=np.int64)
    return kernel(mats.transpose(0, 2, 1).reshape(-1, v.dim), a.p)


def reference_radical_n(v, n):
    a = v.algebra
    if n == 0:
        return Subspace.full(v.dim, a.p)
    rad = a.radical_power(n)
    if rad.dim == 0:
        return Subspace.zero(v.dim, a.p)
    rows = np.concatenate([v.act(r) for r in rad.basis])
    return Subspace.from_rows(rows, v.dim, a.p)


def reference_layer_table(v, kind):
    """m[j][n-1] = dim Hom(rad_n V, S_j) or dim Hom(S_j, soc_n V), from the
    layer modules themselves."""
    a = v.algebra
    simples = [simple(a, j) for j in range(a.num_vertices)]
    out = np.zeros((a.num_vertices, a.loewy_length), dtype=np.int64)
    for n in range(1, a.loewy_length + 1):
        lay = radical_layer(v, n) if kind == "radical" else socle_layer(v, n)
        for j, s in enumerate(simples):
            out[j, n - 1] = len(hom_space(lay, s) if kind == "radical" else hom_space(s, lay))
    return out


def reference_verify(v):
    """Module._verify one generator at a time: the label of the first
    generator the action is not multiplicative against, or None."""
    a, p = v.algebra, v.algebra.p
    for g in a.generator_indices():
        prod = np.tensordot(a.table[:, g, :], v.action, axes=([1], [0])) % p
        if not np.array_equal(prod, (v.action @ v.action[g]) % p):
            return a.labels[g]
    return None


def _family(a):
    """Simples, projectives, injectives, the regular module and a_dual(P_i),
    with every radical and socle layer of each."""
    k, L = a.num_vertices, a.loewy_length
    mods = [simple(a, i) for i in range(k)] + [projective(a, i) for i in range(k)]
    mods += [injective(a, i) for i in range(k)] + [regular_module(a)]
    mods += [a_dual(projective(a, i)) for i in range(k)]
    layers = [lay(v, n) for v in mods for lay in (radical_layer, socle_layer)
              for n in range(1, L + 1)]
    return mods + layers


def _assert_series_match_reference(a):
    family = _family(a)
    if a.loewy_length >= 2:
        assert any(v.dim == 0 for v in family)  # rad_2 of a simple
    for v in family:
        for m in (v, f_dual(v)):
            for n in range(m.algebra.loewy_length + 2):
                assert socle_n(m, n) == reference_socle_n(m, n)
                assert radical_n(m, n) == reference_radical_n(m, n)
                assert socle_n(m, n) is socle_n(m, n)
                assert radical_n(m, n) is radical_n(m, n)
            for kind in ("radical", "socle"):
                table = layer_table([m], kind)
                assert table.loewy_length == m.algebra.loewy_length
                assert np.array_equal(table.table[0], reference_layer_table(m, kind))
        assert f_dual(v) is f_dual(v)
        assert np.array_equal(f_dual(f_dual(v)).action, v.action)


def test_vertex_data_read_off_adapted_coordinates_equal_the_eliminated(
        monkeypatch, a3_rebased, corpus0):
    # Every module run_corpus reads the vertex data of: its vertex basis
    # against one elimination per vertex, and its counts dim(W e_j) against
    # one rank per term and vertex.
    seen = []
    original = Module._vertex_basis

    def recording(v):
        if "vertex" not in v._data:
            seen.append(v)
        return original(v)

    monkeypatch.setattr(Module, "_vertex_basis", recording)
    random = next(a for name, a in corpus0 if name.startswith("random-"))
    run_corpus([("nakayama-k3-l3", build_nakayama(3, 3)), ("a3-rebased", a3_rebased[0]),
                ("linear-A3-N3", linear_quiver_algebra(3, 3)), ("random", random)])
    monkeypatch.undo()
    adapted = 0
    for v in seen:
        a, d = v.algebra, v.dim
        rows, cols, block = v._vertex_basis()
        idem = v.action[: a.num_vertices]
        assert rows == [Subspace.from_rows(e, d, a.p) for e in idem]
        assert [r.pivots for r in rows] == [Subspace.from_rows(e, d, a.p).pivots for e in idem]
        assert all(np.array_equal(c, e[:, r.pivots]) for c, e, r in zip(cols, idem, rows))
        if block is not None:
            adapted += 1
            assert all(np.array_equal(e, np.diag(block == j)) for j, e in enumerate(idem))
        for kind, term in (("radical", radical_n), ("socle", socle_n)):
            want = [[rank(term(v, n).basis @ e % a.p, a.p) for n in range(a.loewy_length + 1)]
                    for e in idem]
            assert np.array_equal(_vertex_dims(v, kind, a.loewy_length), want)
    # Both routes ran: the standard modules of a path basis are adapted, the
    # modules of a3-rebased and most series quotients are not.
    assert 0 < adapted < len(seen)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_series_match_reference_on_nakayama(k, ell):
    _assert_series_match_reference(build_nakayama(k, ell))


def test_series_match_reference_on_a_basis_that_is_not_of_paths(a3_rebased):
    _assert_series_match_reference(a3_rebased[0])


def test_series_match_reference_with_relations(corpus0):
    with_relations = [a for name, a in corpus0 if name.startswith("random") and a.relations]
    assert len(with_relations) >= 3
    for a in with_relations[:3]:
        _assert_series_match_reference(a)


# The large-prime benchmark's random-27 (workload seed 1), over the largest
# prime below 2**25.
LARGE_SPEC = {
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


def test_series_match_reference_at_large_prime():
    _assert_series_match_reference(spec_to_algebra(LARGE_SPEC))


def test_negative_level_is_rejected():
    v = projective(build_nakayama(2, 2), 0)
    for series in (socle_n, radical_n):
        with pytest.raises(ValueError):
            series(v, -1)


def test_corrupted_arrow_is_named():
    a = linear_quiver_algebra(3, 3)  # b0: 0 -> 1, b1: 1 -> 2
    p0 = projective(a, 0)
    g = a.labels.index("b1")
    act = p0.action.copy()
    # Keep e_1 b1 e_2 = b1, so every idempotent still checks out and only the
    # products ending in b1 break.
    act[g] = (act[g] + act[1] @ np.ones_like(act[g]) @ act[2]) % a.p
    assert act[g].any() and not np.array_equal(act[g], p0.action[g])
    with pytest.raises(ValueError, match="against basis element 'b1'"):
        Module(a, act)


def test_batched_verification_names_the_first_failing_generator():
    rng = np.random.default_rng(0)
    algebras = [build_nakayama(3, 2), build_nakayama(2, 3), linear_quiver_algebra(3, 3),
                spec_to_algebra(LARGE_SPEC)]
    raised = 0
    for a in algebras:
        for v in [projective(a, i) for i in range(a.num_vertices)] + [regular_module(a)]:
            for g in a.generator_indices()[a.num_vertices:]:
                act = v.action.copy()
                r, c = rng.integers(0, v.dim, size=2)
                act[g, r, c] = (act[g, r, c] + 1) % a.p
                want = reference_verify(Module(a, act, check=False))
                if want is None:
                    Module(a, act)
                    continue
                raised += 1
                with pytest.raises(ValueError, match=f"against basis element '{want}'"):
                    Module(a, act)
    assert raised > 0


def test_algebra_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        a = build_nakayama(2, 2)
        opp = a.opposite()
        assert opp.opposite() is a
        mods = [projective(a, 0), injective(a, 1), f_dual(simple(a, 0)), simple(opp, 1)]
        for v in mods:
            socle_n(v, 1)
            radical_n(f_dual(v), 1)
        alive = weakref.ref(a), weakref.ref(opp)
        del a, opp, mods, v
        assert [r() for r in alive] == [None, None]
    finally:
        gc.enable()


def test_opposite_rebuilds_a_dropped_parent():
    opp = build_nakayama(3, 2).opposite()
    parent = opp.opposite()
    assert parent.opposite() is opp and opp.opposite() is parent
    assert np.array_equal(parent.table, build_nakayama(3, 2).table)
    assert parent.loewy_length == opp.loewy_length


# SHA-256 digests of outputs taken before the series were cached; those of
# show, whose layers here hold several simples, before its multiplicities
# were read off the series instead of the layer modules.
CORPUS0_REPORTS_SHA256 = "2104fd9496b16090d4ace2e09934984f09cd0c6b85a68a096e97e3508b19c02f"
LARGE_CLI_SHA256 = {
    ("verify", "--check", "all", "--format", "json"):
        "8dfcab79b473b0b050d14606f6c1ef23e5d5741af55848ab7057ce7c663b3f31",
    ("table", "--kind", "radical"):
        "f786dd81ad8260a6d24367556680a421f27c6e1e3c069e1c333985b5f5fd2ca7",
    ("table", "--kind", "socle"):
        "a74f5cc8217a1cf199e8a57836cdc03b9ff819cb36391574b4e98ebf641523cd",
    ("table", "--kind", "cartan"):
        "062c825d6566f4a678db7afd29ea8ced8ede4211a6430646dd9b5d0dafa175c8",
    ("show", "--module", "A", "--series", "radical"):
        "3e4b17289c457937f1d2866b3f882499e260cb531f1dbfd671828dea68a5b414",
    ("show", "--module", "A", "--series", "socle"):
        "3e4b17289c457937f1d2866b3f882499e260cb531f1dbfd671828dea68a5b414",
    ("show", "--module", "P0", "--series", "radical"):
        "45be7bcac80f2bce7ac52ce18425f481f04468e7303d359d1e5e05dcc95ac3e2",
    ("show", "--module", "P0", "--series", "socle"):
        "45be7bcac80f2bce7ac52ce18425f481f04468e7303d359d1e5e05dcc95ac3e2",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_corpus_reports_are_pinned(corpus0):
    text = json.dumps([r.to_dict() for r in run_corpus(corpus0)], sort_keys=True)
    assert _sha256(text) == CORPUS0_REPORTS_SHA256


def test_large_prime_cli_output_is_pinned(tmp_path, capsys):
    path = tmp_path / "large.json"
    dump_spec(LARGE_SPEC, path)
    for (command, *rest), digest in LARGE_CLI_SHA256.items():
        code = main([command, "--algebra", str(path), *rest])
        assert code == (3 if command == "verify" else 0)
        assert _sha256(capsys.readouterr().out) == digest, (command, rest)


def test_layer_counts_build_no_layer_module(tmp_path, monkeypatch, capsys):
    """layer_table, both layer checkers and show count multiplicities on the
    cached series: no hom_space and no subquotient call, apart from those
    inside projective, injective and a_dual, which build their modules that
    way."""
    import loewy.modules as modules

    allowed = {modules.projective.__code__, modules.injective.__code__,
               modules.a_dual.__code__}
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code not in allowed:
                frame = frame.f_back
            if frame is None:
                calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("hom_space", "subquotient"):
        original = getattr(modules, name)
        wrapper = counting(original)
        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "loewy"]:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper)

    symmetric, other = build_nakayama(2, 2), spec_to_algebra(LARGE_SPEC)
    radical_layer(projective(symmetric, 0), 1)
    assert calls == ["subquotient"]  # the wrappers see a layer being built
    calls.clear()

    path = tmp_path / "large.json"
    dump_spec(LARGE_SPEC, path)
    for a in (symmetric, other):
        family = [projective(a, i) for i in range(a.num_vertices)] + [regular_module(a)]
        for kind in ("radical", "socle"):
            layer_table(family, kind)
        assert verify_main_theorem(a).status == "pass"
        assert verify_landrock(a).status == ("pass" if a is symmetric else "unknown")
    for source in (["--nakayama", "2,2"], ["--algebra", str(path)]):
        for module in ("A", "P0", "I1", "S0"):
            for series in ("radical", "socle"):
                assert main(["show", *source, "--module", module, "--series", series]) == 0
    assert capsys.readouterr().out
    assert calls == []
