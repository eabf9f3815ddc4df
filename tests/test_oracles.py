"""Theorems that hold for every basic algebra, asserted over default_corpus(seed=0)."""

import numpy as np

from loewy import (
    find_isomorphism,
    hom_space,
    injective,
    layer_table,
    nakayama,
    projective,
    regular_module,
)
from loewy.linalg import rank


def test_nakayama_functor_sends_projectives_to_injectives(corpus0):
    for name, a in corpus0:
        for i in range(a.num_vertices):
            nu_p, inj = nakayama(projective(a, i)), injective(a, i)
            res = find_isomorphism(nu_p, inj)
            assert res.status == "yes", (name, i)
            w = res.witness
            assert w.source is nu_p and w.target is inj
            assert w.is_isomorphism()
            for g in range(a.dim):
                assert np.array_equal(nu_p.action[g] @ w.matrix % a.p,
                                      w.matrix @ inj.action[g] % a.p), (name, i, g)


def test_projectives_add_up_to_the_algebra(corpus0):
    for name, a in corpus0:
        assert sum(projective(a, i).dim for i in range(a.num_vertices)) == a.dim, name


def test_endomorphisms_of_the_regular_module(corpus0):
    # End(A_A) is A acting by left multiplication
    for name, a in corpus0:
        reg = regular_module(a)
        assert len(hom_space(reg, reg)) == a.dim, name


def test_cartan_matrix_from_idempotents(corpus0):
    # c_ij = dim e_i A e_j, from the structure tensor
    for name, a in corpus0:
        k, p, t = a.num_vertices, a.p, a.table
        cartan = np.array([[rank(t[i] @ t[:, j, :] % p, p) for j in range(k)]
                           for i in range(k)])
        ps = [projective(a, i) for i in range(k)]
        assert np.array_equal(layer_table(ps, "radical").cartan(), cartan), name
