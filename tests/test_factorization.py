import random
from itertools import combinations

import pytest

from gmspace.factorization import (EmptySegment, all_factor_sequences,
                                   decompose_once, factorize, is_irreducible,
                                   left_partner)
from gmspace.segments import FinalSegment
from gmspace.words import PLUS_MINUS, all_words, is_antichain

from conftest import seg

A = PLUS_MINUS
ZERO = FinalSegment.zero(A)


def test_decompose_examples():
    assert decompose_once(seg("+-")) == ((seg("+"), seg("-")),)
    assert decompose_once(seg("+")) == ()
    assert decompose_once(seg("+-", "-+")) == ()
    with pytest.raises(EmptySegment):
        decompose_once(FinalSegment.empty(A))


def test_irreducible_examples():
    assert not is_irreducible(ZERO)
    assert is_irreducible(seg("-"))
    assert is_irreducible(FinalSegment.empty(A))
    assert not is_irreducible(seg("+-"))


def test_factorize_examples():
    assert factorize(seg("++")) == [seg("+"), seg("+")]
    assert factorize(seg("+")) == [seg("+")]
    assert factorize(seg("+-")) == [seg("+"), seg("-")]
    assert factorize(ZERO) == []
    with pytest.raises(EmptySegment):
        factorize(FinalSegment.empty(A))


def test_factorize_recomposes():
    rng = random.Random(61)
    pool = [x for x in all_words(A, 4) if len(x)]
    for _ in range(50):
        f = FinalSegment.of(A, rng.sample(pool, rng.randint(1, 3)))
        parts = factorize(f)
        out = ZERO
        for p in parts:
            out = out.oplus(p)
        assert out == f
        assert all(is_irreducible(p) for p in parts)


def test_partner_is_canonical():
    f = seg("+-+")
    for g, h in decompose_once(f):
        assert g.oplus(h) == f
        assert h == left_partner(f, g)
        assert not g.is_zero() and not h.is_zero()


def test_unique_factorization_small_exhaustive():
    pool = [v.code for v in all_words(A, 2)]
    for r in range(1, len(pool) + 1):
        for combo in combinations(pool, r):
            if not is_antichain(combo):
                continue
            f = FinalSegment.of(A, combo)
            seqs = all_factor_sequences(f)
            assert len(seqs) == 1, str(f)
            (only,) = seqs
            assert list(only) == factorize(f)


def test_antichain_monoid_is_a_monoid():
    # induced product on nonempty antichains: associative, neutral element
    rng = random.Random(62)
    pool = [x for x in all_words(A, 3) if len(x)]
    for _ in range(60):
        a = FinalSegment.of(A, rng.sample(pool, rng.randint(1, 3)))
        b = FinalSegment.of(A, rng.sample(pool, rng.randint(1, 3)))
        c = FinalSegment.of(A, rng.sample(pool, rng.randint(1, 3)))
        assert a.oplus(b).oplus(c) == a.oplus(b.oplus(c))
        assert a.oplus(ZERO) == a and ZERO.oplus(a) == a
