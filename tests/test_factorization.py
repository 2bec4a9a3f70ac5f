import json
import random
from itertools import combinations

import pytest

from gmspace.cli import dispatch
from gmspace.factorization import (EmptySegment, _splits, all_factor_sequences,
                                   decompose_once, factorize, is_irreducible)
from gmspace.segments import FinalSegment, residual
from gmspace.spaces import SizeGuard
from gmspace.words import PLUS_MINUS, all_words, sort_codes

from conftest import Budget, seg
from word_oracle import is_antichain

A = PLUS_MINUS
ZERO = FinalSegment.zero(A)
# The generator shapes of the benchmark's random antichains, and irreducibles
# whose products it factors.
SHAPES = [(3, 3, 4), (3, 4, 4), (4, 5), (3, 4, 5), (4, 4, 4), (5, 6)]
IRREDUCIBLE = [("+",), ("-",), ("+", "-"), ("+", "--"), ("-", "++"),
               ("+", "---"), ("-", "+++")]
# Eight random 10-letter generators: more than 1 << 16 prefix antichains.
GUARDED = ["++--++--++", "+-+------+", "+--++--+-+", "-+++-+----",
           "-++---+++-", "--++-+++++", "---+++-+++", "---+-+-+-+"]


# --- the oracle: every subset of the proper prefixes, partner by residual ----


def oracle_candidates(f):
    prefixes = sort_codes({g[:k] for g in f.generators for k in range(1, len(g))})
    for r in range(1, len(prefixes) + 1):
        for combo in combinations(prefixes, r):
            if is_antichain(combo):
                yield combo


def oracle_decompose(f):
    out = []
    for combo in oracle_candidates(f):
        g = FinalSegment(A, combo)
        h = residual(f, g, "left")
        if not (h.is_zero() or h.is_empty_set()) and g.oplus(h) == f:
            out.append((g, h))
    out.sort(key=lambda gh: tuple((len(w), w) for w in gh[0].generators))
    return tuple(out)


def oracle_factorize(f):
    """Leftmost decomposition: the first split whose left side is
    irreducible, then the right side in turn."""
    if f.is_zero():
        return []
    pairs = oracle_decompose(f)
    if not pairs:
        return [f]
    g, h = next((g, h) for g, h in pairs if not oracle_decompose(g))
    return [g] + oracle_factorize(h)


def exhaustive_inputs():
    """Every antichain of words of at most 3 letters."""
    pool = [v.code for v in all_words(A, 3)]
    return [FinalSegment(A, tuple(combo)) for r in range(1, len(pool) + 1)
            for combo in combinations(pool, r) if is_antichain(combo)]


def random_inputs(count=600, seed=17):
    """Random antichains of the benchmark's shapes, alternating with products
    of 2-4 irreducibles of at most 3 generators of length <= 6."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if len(out) % 2:
            shape = rng.choice(SHAPES)
            out.append(FinalSegment.of(A, ["".join(rng.choice("+-") for _ in
                                                   range(n)) for n in shape]))
            continue
        f = ZERO
        for _ in range(rng.randint(2, 4)):
            f = f.oplus(seg(*rng.choice(IRREDUCIBLE)))
        if len(f.generators) <= 3 and max(map(len, f.generators)) <= 6:
            out.append(f)
    return out


def agree_with_oracle(f):
    pairs = decompose_once(f)
    assert pairs == oracle_decompose(f), str(f)
    assert is_irreducible(f) == (not f.is_zero() and not pairs), str(f)
    assert factorize(f) == oracle_factorize(f), str(f)
    for g, h in pairs:
        assert h == residual(f, g, "left")


def test_exhaustive_small_agrees_with_oracle():
    inputs = exhaustive_inputs()
    assert len(inputs) == 355
    for f in inputs:
        agree_with_oracle(f)


def test_random_agrees_with_oracle():
    inputs = random_inputs()
    assert len(set(inputs)) > 300
    for f in inputs:
        agree_with_oracle(f)


def test_guard_counts_antichains_visited():
    for f in random_inputs(40, seed=18):
        visited = sum(1 for _ in oracle_candidates(f))
        assert len(list(_splits(f, guard=visited))) == len(decompose_once(f))
        with pytest.raises(SizeGuard):
            list(_splits(f, guard=visited - 1))


def test_long_principal_segment_factors_into_letters():
    f = seg("+-" * 500)
    with Budget("up((+-)^500) factors", 5):
        parts = factorize(f)
    assert parts == [seg("+"), seg("-")] * 500


def test_wide_input_raises_size_guard(tmp_path, capsys):
    f = seg(*GUARDED)
    with Budget("eight 10-letter generators hit the guard", 10):
        with pytest.raises(SizeGuard):
            factorize(f)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(GUARDED))
    assert dispatch(["freemon", "factor", str(path)]) == 3
    assert "candidate antichains" in capsys.readouterr().err


# --- examples and laws -----------------------------------------------------------


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
        assert h == residual(f, g, "left")
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
