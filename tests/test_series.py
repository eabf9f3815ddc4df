"""Socle/radical filtrations checked against a one-step multiplication
oracle, plus the adjunction and the two duality isomorphisms."""

import numpy as np
import pytest

from loewy import (
    adjunction_backward,
    adjunction_forward,
    capital_map,
    capital_n,
    dual_layer_iso,
    dual_socle_capital_iso,
    f_dual,
    hom_space,
    injective,
    layer_table,
    projective,
    radical_layer,
    radical_n,
    regular_module,
    socle_layer,
    socle_map,
    socle_n,
    socle_submodule,
    subquotient,
    verify_duality_lemmas,
)
from loewy.linalg import Subspace, kernel
from loewy.modules import ModuleMap

P = 5


def _arrow_ideal_units(alg):
    # For relation-free truncated path algebras the radical is spanned by
    # the positive-length paths, which is independent ground truth.
    assert not alg.relations
    return np.eye(alg.dim, dtype=np.int64)[alg.path_lengths >= 1]


def _radical_oracle(v, n):
    w = Subspace.full(v.dim, P)
    units = _arrow_ideal_units(v.algebra)
    for _ in range(n):
        if w.dim == 0:
            break
        rows = np.concatenate([(w.basis @ v.act(j)) % P for j in units])
        w = Subspace.from_rows(rows, v.dim, P)
    return w


def _socle_oracle(v, n):
    alg = v.algebra
    assert not alg.relations
    sel = alg.path_lengths >= n  # spans rad^n for the relation-free case
    if not sel.any() or v.dim == 0:
        return Subspace.full(v.dim, P)
    units = np.eye(alg.dim, dtype=np.int64)[sel]
    return kernel(np.concatenate([v.act(j).T for j in units]), P)


@pytest.fixture(scope="module", params=["n32", "a3"])
def sample(request):
    return request.getfixturevalue(request.param)


def test_radical_filtration_matches_iteration_oracle(sample):
    mods = [regular_module(sample)] + [projective(sample, i) for i in range(sample.num_vertices)]
    mods += [injective(sample, i) for i in range(sample.num_vertices)]
    for v in mods:
        for n in range(sample.loewy_length + 2):
            assert radical_n(v, n) == _radical_oracle(v, n)


def test_socle_filtration_matches_annihilator_oracle(sample):
    mods = [regular_module(sample)] + [injective(sample, i) for i in range(sample.num_vertices)]
    for v in mods:
        for n in range(sample.loewy_length + 2):
            assert socle_n(v, n) == _socle_oracle(v, n)


def test_series_endpoints(n32):
    v = regular_module(n32)
    L = n32.loewy_length
    assert radical_n(v, 0).dim == v.dim
    assert radical_n(v, L).dim == 0
    assert socle_n(v, 0).dim == 0
    assert socle_n(v, L).dim == v.dim


def test_series_are_monotone_chains(n32):
    v = injective(n32, 0)
    L = n32.loewy_length
    rads = [radical_n(v, n) for n in range(L + 1)]
    socs = [socle_n(v, n) for n in range(L + 1)]
    for a, b in zip(rads, rads[1:]):
        assert a.contains(b)
    for a, b in zip(socs, socs[1:]):
        assert b.contains(a)


def test_layer_dimensions_partition_the_module(n32):
    v = regular_module(n32)
    L = n32.loewy_length
    assert sum(radical_layer(v, n).dim for n in range(1, L + 1)) == v.dim
    assert sum(socle_layer(v, n).dim for n in range(1, L + 1)) == v.dim


def test_layers_are_semisimple(n32):
    v = regular_module(n32)
    for n in range(1, n32.loewy_length + 1):
        for lay in (radical_layer(v, n), socle_layer(v, n)):
            assert radical_n(lay, 1).dim == 0


def test_capital_and_socle_functors_on_identity(n32):
    v = projective(n32, 0)
    ident = ModuleMap(v, v, np.eye(v.dim, dtype=np.int64))
    for n in range(n32.loewy_length + 1):
        cap = capital_map(ident, n)
        assert np.array_equal(cap.matrix, np.eye(cap.source.dim, dtype=np.int64))
        soc = socle_map(ident, n)
        assert np.array_equal(soc.matrix, np.eye(soc.source.dim, dtype=np.int64))


def test_socle_map_requires_socle_preservation(n32):
    # a map out of P0 need not restrict along arbitrary submodule choices,
    # but socle levels are functorial: this should always succeed
    p0, i0 = projective(n32, 0), injective(n32, 0)
    for f in hom_space(p0, i0):
        for n in range(n32.loewy_length + 1):
            g = socle_map(f, n)
            assert g.source.dim == socle_n(p0, n).dim


def test_adjunction_round_trip_both_ways(n32):
    u, v = projective(n32, 0), injective(n32, 1)
    for n in range(n32.loewy_length + 1):
        cap = capital_n(u, n)
        for f in hom_space(cap, v):
            g = adjunction_forward(f, n)
            assert g.source is u or g.source.dim == u.dim
            back = adjunction_backward(g, n)
            assert np.array_equal(back.matrix, f.matrix)
        soc = socle_submodule(v, n)
        for g in hom_space(u, soc):
            f = adjunction_backward(g, n)
            back = adjunction_forward(f, n)
            assert np.array_equal(back.matrix, g.matrix)


def test_adjunction_validates_level(n32):
    u, v = projective(n32, 0), injective(n32, 0)
    f = hom_space(capital_n(u, 1), v)[0]
    with pytest.raises(ValueError):
        adjunction_forward(f, 2)  # wrong level for this source


def test_dual_socle_capital_iso(sample):
    mods = [regular_module(sample)] + [projective(sample, i) for i in range(sample.num_vertices)]
    for u in mods:
        du = f_dual(u)
        for n in range(sample.loewy_length + 1):
            eta, xi = dual_socle_capital_iso(u, n)
            assert eta.source.dim == socle_n(du, n).dim
            assert eta.target.dim == u.dim - radical_n(u, n).dim
            assert eta.is_isomorphism() and xi.is_isomorphism()
            assert np.array_equal(
                (eta.matrix @ xi.matrix) % P, np.eye(eta.source.dim, dtype=np.int64)
            )
            assert np.array_equal(
                (xi.matrix @ eta.matrix) % P, np.eye(xi.source.dim, dtype=np.int64)
            )


def test_dual_layer_iso(sample):
    mods = [injective(sample, i) for i in range(sample.num_vertices)]
    for u in mods:
        du = f_dual(u)
        for n in range(1, sample.loewy_length + 1):
            eta, xi = dual_layer_iso(u, n)
            assert eta.source.dim == socle_layer(u, n).dim
            assert eta.target.dim == radical_layer(du, n).dim
            assert eta.is_isomorphism()
            assert np.array_equal(
                (eta.matrix @ xi.matrix) % P, np.eye(eta.source.dim, dtype=np.int64)
            )


@pytest.mark.parametrize("wrong", ["same dimension", "smaller"])
def test_dual_layer_iso_rejects_a_wrong_dual_radical(n22, monkeypatch, wrong):
    import loewy.series as series
    import loewy.verify as verify

    u = projective(n22, 0)  # uniserial of dimension 3
    du = f_dual(u)
    real = series.radical_n
    true_rad = real(du, 1)
    assert 0 < true_rad.dim < u.dim
    if wrong == "same dimension":
        # A coordinate subspace of the same dimension as rad^1(DU) but
        # different from it, so it cannot annihilate soc^1 U.
        d, r = u.dim, true_rad.dim
        windows = [Subspace.from_rows(np.eye(d, dtype=np.int64)[s:s + r], d, P) for s in (0, 1)]
        fake = next(w for w in windows if w != true_rad)
    else:
        # rad^2(DU) annihilates soc^1 U too, but is too small to be all of it.
        fake = real(du, 2)
        assert fake.dim < true_rad.dim
    clean = verify_duality_lemmas(n22).checks[0].evidence
    def wrong_radical_n(v, m):
        return fake if v is du and m == 1 else real(v, m)

    monkeypatch.setattr(series, "radical_n", wrong_radical_n)
    with pytest.raises(ValueError, match="dual radical series does not annihilate"):
        dual_layer_iso(u, 1)
    # The checker reads the terms through its own binding.  rad^1(DU) is a
    # term of the P0 layers at n = 1 and n = 2.
    monkeypatch.setattr(verify, "radical_n", wrong_radical_n)
    check = verify_duality_lemmas(n22).checks[0]
    assert check.status == "fail"
    affected = {("P0", "layer", 1), ("P0", "layer", 2)}
    assert len(check.evidence) == len(clean)
    for row, before in zip(check.evidence, clean):
        want = (-1, -1, False) if row[:3] in affected else before[3:]
        assert row[:3] == before[:3] and row[3:] == want, row


def test_verify_duality_lemmas_rejects_a_term_that_is_not_invariant(n22, monkeypatch):
    import loewy.verify as verify

    u = projective(n22, 0)
    real = verify.radical_n
    rad = real(u, 1)
    d = u.dim
    windows = [Subspace.from_rows(np.eye(d, dtype=np.int64)[s:s + rad.dim], d, P)
               for s in (0, 1)]
    fake = next(w for w in windows if w != rad)
    # The capital U / fake that dual_socle_capital_iso would build.
    with pytest.raises(ValueError, match="not invariant"):
        subquotient(u, Subspace.full(d, P), fake)
    clean = verify_duality_lemmas(n22).checks[0].evidence
    monkeypatch.setattr(verify, "radical_n",
                        lambda v, m: fake if v is u and m == 1 else real(v, m))
    check = verify_duality_lemmas(n22).checks[0]
    assert check.status == "fail"
    assert len(check.evidence) == len(clean)
    for row, before in zip(check.evidence, clean):
        failed = row[:3] == ("P0", "socle-capital", 1)
        assert row[:3] == before[:3] and row[3:] == ((-1, -1, False) if failed else before[3:])


def test_layer_table_of_linear_quiver(a3):
    t = layer_table([projective(a3, i) for i in range(3)], "radical")
    assert t.cartan().tolist() == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    # P_1 has layers S_1 then S_2
    assert t.table[1, 1, 0] == 1 and t.table[1, 2, 1] == 1
    assert t.table[1, :, 0].sum() == 1


def test_layer_table_rejects_mixed_algebras(n32, a3):
    with pytest.raises(ValueError):
        layer_table([projective(n32, 0), projective(a3, 0)], "radical")
    with pytest.raises(ValueError):
        layer_table([], "socle")
    with pytest.raises(ValueError):
        layer_table([projective(n32, 0)], "cartan")


def test_socle_table_of_injectives_matches_radical_table_of_projectives(n32):
    # both count the same composition factors in dual positions here
    rad = layer_table([projective(n32, i) for i in range(3)], "radical")
    soc = layer_table([injective(n32, i) for i in range(3)], "socle")
    assert rad.cartan().sum() == soc.cartan().sum()


def test_negative_layer_index_rejected(n32):
    v = projective(n32, 0)
    with pytest.raises(ValueError):
        radical_layer(v, 0)
    with pytest.raises(ValueError):
        socle_layer(v, 0)
    with pytest.raises(ValueError):
        radical_n(v, -1)
    with pytest.raises(ValueError):
        socle_n(v, -1)
