"""Standing test corpus: Nakayama grid, truncated linear quivers, seeded
random quiver algebras.

The random generator stays inside fixed bounds (at most 4 vertices, 6
arrows, truncation 4, 2 admissible relations) and rejects draws whose
dimension exceeds a desk-scale cap so that downstream hom computations
stay fast.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, Arrow, Quiver, build_path_algebra
from .linalg import PrimeField
from .nakayama import build_nakayama
from .specfile import _presentation, spec_to_algebra

__all__ = [
    "linear_quiver_algebra",
    "random_quiver_spec",
    "default_corpus",
]

_DIM_CAP = 20


def linear_quiver_algebra(m: int, truncation: int, p: int = 5) -> Algebra:
    """The linear quiver 0 -> 1 -> ... -> m-1 truncated at the given length."""
    if m < 1:
        raise ValueError("need at least one vertex")
    quiver = Quiver(m, [Arrow(f"b{i}", i, i + 1) for i in range(m - 1)])
    return build_path_algebra(quiver, [], truncation, p)


def _random_path(rng, out_arrows, length: int):
    """A uniformly grown path of the exact length with its (start, end)
    vertices, or None if stuck."""
    starts = [v for v in out_arrows if out_arrows[v]]
    if not starts:
        return None
    start = v = starts[int(rng.integers(0, len(starts)))]
    path = []
    for _ in range(length):
        choices = out_arrows[v]
        if not choices:
            return None
        name, tgt = choices[int(rng.integers(0, len(choices)))]
        path.append(name)
        v = tgt
    return path, (start, v)


def random_quiver_spec(rng: np.random.Generator, p: int = 5, dim_cap: int = _DIM_CAP) -> dict:
    """A random admissible presentation within the corpus bounds.

    Draws are rejected (and redrawn) until the resulting algebra dimension
    is at most dim_cap, which keeps every draw desk scale.
    """
    return _random_presentation(rng, p, dim_cap)[0]


def _random_presentation(rng: np.random.Generator, p: int, dim_cap: int) -> tuple[dict, Algebra]:
    """random_quiver_spec together with the algebra built to accept it.

    A draw is rejected on the dimension of its relation quotient, before
    any structure tensor is built for it.  p is checked once, before any
    draw: a ValueError while building a draw only rejects that draw."""
    PrimeField(p)
    for _ in range(500):
        k = int(rng.integers(1, 5))
        n_arrows = int(rng.integers(1, 7))
        arrows = [
            {"name": f"a{t}", "source": int(rng.integers(0, k)), "target": int(rng.integers(0, k))}
            for t in range(n_arrows)
        ]
        truncation = int(rng.integers(2, 5))
        out_arrows: dict[int, list[tuple[str, int]]] = {v: [] for v in range(k)}
        for arr in arrows:
            out_arrows[arr["source"]].append((arr["name"], arr["target"]))
        relations = []
        if truncation >= 3:
            for _ in range(int(rng.integers(0, 3))):
                length = int(rng.integers(2, truncation))
                first = _random_path(rng, out_arrows, length)
                if first is None:
                    continue
                path1, ends1 = first
                terms = [{"coeff": int(rng.integers(1, p)), "path": path1}]
                # try to extend to a two-term relation with a parallel path
                second = _random_path(rng, out_arrows, int(rng.integers(2, truncation)))
                if second is not None:
                    path2, ends2 = second
                    if ends1 == ends2 and path1 != path2:
                        terms.append({"coeff": int(rng.integers(1, p)), "path": path2})
                relations.append(terms)
        spec = {
            "field": {"p": int(p)},
            "quiver": {"vertices": k, "arrows": arrows},
            "relations": relations,
            "truncation": truncation,
        }
        try:
            if _presentation(spec).dim > dim_cap:
                continue
            # Built through spec_to_algebra, whose calls bench/spans.py counts as draws.
            return spec, spec_to_algebra(spec)
        except ValueError:
            continue
    raise RuntimeError("random presentation rejected too many times")


def default_corpus(seed: int = 0, p: int = 5, random_count: int = 20) -> list[tuple[str, Algebra]]:
    """The standing corpus: the Nakayama grid k, ell <= 4, truncated linear
    quivers A_m for m <= 4, and seeded random quiver algebras."""
    entries: list[tuple[str, Algebra]] = []
    for k in range(1, 5):
        for ell in range(1, 5):
            entries.append((f"nakayama-k{k}-l{ell}", build_nakayama(k, ell, p)))
    for m in range(2, 5):
        for truncation in range(2, m + 1):
            entries.append((f"linear-A{m}-N{truncation}", linear_quiver_algebra(m, truncation, p)))
    rng = np.random.default_rng(seed)
    for t in range(random_count):
        entries.append((f"random-{t:02d}", _random_presentation(rng, p, _DIM_CAP)[1]))
    return entries
