import hashlib

import numpy as np
import pytest

from loewy import (
    Algebra,
    algebra_to_spec,
    default_corpus,
    linear_quiver_algebra,
    random_quiver_spec,
    spec_text,
    spec_to_algebra,
    validate_spec,
)


def test_linear_quiver_dimensions():
    # m vertices, arrows i -> i+1, truncation N: one path per (start, length)
    assert linear_quiver_algebra(3, 3).dim == 6
    assert linear_quiver_algebra(3, 2).dim == 5
    assert linear_quiver_algebra(4, 4).dim == 10
    assert linear_quiver_algebra(1, 2).dim == 1
    with pytest.raises(ValueError):
        linear_quiver_algebra(0, 2)


def test_random_spec_respects_bounds():
    rng = np.random.default_rng(42)
    for _ in range(15):
        spec = validate_spec(random_quiver_spec(rng))
        assert 1 <= spec["quiver"]["vertices"] <= 4
        assert 1 <= len(spec["quiver"]["arrows"]) <= 6
        assert 2 <= spec["truncation"] <= 4
        assert len(spec["relations"]) <= 2
        alg = spec_to_algebra(spec)
        assert alg.dim <= 20


def test_random_spec_is_seed_deterministic():
    a = [random_quiver_spec(np.random.default_rng(7)) for _ in range(3)]
    b = [random_quiver_spec(np.random.default_rng(7)) for _ in range(3)]
    assert a == b


@pytest.mark.parametrize("p", [4, 1])
def test_random_spec_rejects_a_modulus_that_is_not_prime_before_any_draw(p):
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"modulus {p} is not prime"):
        random_quiver_spec(rng, p=p)
    assert rng.bit_generator.state == state


def test_default_corpus_layout():
    corpus = default_corpus(seed=0, random_count=2)
    names = [name for name, _ in corpus]
    assert len(names) == len(set(names))
    assert names[0] == "nakayama-k1-l1"
    assert sum(n.startswith("nakayama-") for n in names) == 16
    assert sum(n.startswith("linear-") for n in names) == 6
    assert sum(n.startswith("random-") for n in names) == 2
    rng = np.random.default_rng(0)
    assert [spec_text(algebra_to_spec(a)) for n, a in corpus if n.startswith("random-")] \
        == [spec_text(random_quiver_spec(rng)) for _ in range(2)]
    again = default_corpus(seed=0, random_count=2)
    for (n1, a1), (n2, a2) in zip(corpus, again):
        assert n1 == n2
        assert np.array_equal(a1.table, a2.table)


def test_default_corpus_random_specs_are_pinned():
    # SHA-256 of the concatenated spec texts of the 20 random entries of
    # default_corpus(seed=2): reusing the algebra built to accept a draw
    # must leave the drawn presentations as they were.
    texts = [spec_text(algebra_to_spec(a)) for name, a in default_corpus(seed=2)
             if name.startswith("random-")]
    assert len(texts) == 20
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == \
        "364b7dedd6125a5cc4487afe24013c352152574a96f6e8ce274db71be5afd807"


def test_default_corpus_rejects_draws_before_building_them(monkeypatch):
    # default_corpus(seed=0) rejects draws of up to 128 paths; none of them
    # may reach the structure tensor and its checks
    from loewy import algebra

    inits, presented = [], []
    original_init, original_present = Algebra.__init__, algebra._Presentation.__init__
    monkeypatch.setattr(Algebra, "__init__",
                        lambda self, *args, **kw: inits.append(1) or original_init(self, *args, **kw))
    monkeypatch.setattr(algebra._Presentation, "__init__",
                        lambda self, *args: presented.append(1) or original_present(self, *args))
    corpus = default_corpus(seed=0)
    assert len(corpus) == 42
    assert len(inits) == 42
    assert len(presented) > 42  # some draws were rejected
