"""The self-injective Nakayama family: truncated cyclic quiver algebras.

For k >= 1 vertices and ell >= 1 the algebra has the cyclic quiver with
arrows a_i: i -> i+1 (mod k) and no relations beyond the truncation at
path length ell + 1, so every indecomposable projective is uniserial of
length ell + 1.  These algebras have closed-form layer structure, which
makes them the standing test family: the n-th radical layer of P_i is
S_{i+n-1 mod k}, and the Nakayama functor sends P_j to P_{j-ell mod k}.
They are symmetric exactly when k divides ell.
"""

from __future__ import annotations

from .algebra import Algebra, Arrow, Quiver, build_path_algebra
from .linalg import PrimeField
from .series import LayerTable

import numpy as np

__all__ = [
    "cyclic_quiver",
    "build_nakayama",
    "nakayama_spec",
    "expected_delta_table",
    "expected_nakayama_shift",
]


def _check_params(k: int, ell: int) -> None:
    if k < 1 or ell < 1:
        raise ValueError(f"need k >= 1 and ell >= 1, got k={k}, ell={ell}")


def cyclic_quiver(k: int) -> Quiver:
    """The cyclic quiver with arrows a{i}: i -> (i+1) mod k."""
    if k < 1:
        raise ValueError("need k >= 1")
    return Quiver(k, [Arrow(f"a{i}", i, (i + 1) % k) for i in range(k)])


def build_nakayama(k: int, ell: int, p: int = 5) -> Algebra:
    """The truncated cyclic algebra with k vertices and Loewy length ell + 1."""
    _check_params(k, ell)
    return build_path_algebra(cyclic_quiver(k), [], ell + 1, p)


def nakayama_spec(k: int, ell: int, p: int = 5) -> dict:
    """The algebra spec (file-format dict) for the same presentation."""
    _check_params(k, ell)
    return {
        "field": {"p": PrimeField(p).p},
        "quiver": {
            "vertices": int(k),
            "arrows": [
                {"name": f"a{i}", "source": i, "target": (i + 1) % k} for i in range(k)
            ],
        },
        "relations": [],
        "truncation": int(ell + 1),
    }


def expected_delta_table(k: int, ell: int) -> LayerTable:
    """Closed-form radical layer table of the projectives: m[i][j][n-1] is
    1 exactly when j = i + (n - 1) mod k."""
    _check_params(k, ell)
    L = ell + 1
    table = np.zeros((k, k, L), dtype=np.int64)
    for i in range(k):
        for n in range(1, L + 1):
            table[i, (i + n - 1) % k, n - 1] = 1
    return LayerTable("radical", table, L)


def expected_nakayama_shift(k: int, ell: int, j: int) -> int:
    """Index t with nakayama(P_j) isomorphic to P_t, namely (j - ell) mod k."""
    _check_params(k, ell)
    if not (0 <= j < k):
        raise ValueError(f"vertex index {j} out of range")
    return (j - ell) % k
