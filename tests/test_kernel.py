"""The string word kernel against the tuple-of-letters kernel it replaced
(``word_oracle``), the quantale laws, and canonical form at construction."""
import random

import pytest
from hypothesis import given, strategies as st

import word_oracle as old
from gmspace._orders import canonical_distance
from gmspace.segments import SEGMENTS, FinalSegment, residual
from gmspace.words import PLUS_MINUS, Alphabet, Word, covers, minimize_words

WIDE = Alphabet.identity(["ab", "cd", "e"])
ALPHABETS = [PLUS_MINUS, WIDE]


def random_words(rng, alphabet, max_len=4, max_gens=4):
    """Letter tuples of a random set of words (not yet minimized)."""
    return [tuple(rng.choice(alphabet.letters) for _ in range(rng.randint(0, max_len)))
            for _ in range(rng.randint(0, max_gens))]


def both(alphabet, words):
    """The same upset in the string kernel and in the oracle."""
    new = FinalSegment.of(alphabet, [Word(alphabet, w) for w in words])
    ref = old.OldSegment.of(alphabet, [old.OldWord(alphabet, w) for w in words])
    return new, ref


def same(new: FinalSegment, ref: old.OldSegment) -> bool:
    """Equal generators in equal order, letter by letter."""
    return [new.alphabet.decode(g) for g in new.generators] == \
        [w.letters for w in ref.generators]


@pytest.mark.parametrize("alphabet", ALPHABETS, ids=["plus_minus", "wide"])
def test_kernel_matches_tuple_oracle(alphabet):
    rng = random.Random(81 if alphabet is PLUS_MINUS else 82)
    for _ in range(400):
        (p, rp), (q, rq) = (both(alphabet, random_words(rng, alphabet))
                            for _ in range(2))
        assert same(p, rp) and same(q, rq)
        assert p.leq(q) == rp.leq(rq)
        assert same(p.meet(q), rp.meet(rq))
        assert same(p.join(q), rp.join(rq))
        assert same(p.oplus(q), rp.oplus(rq))
        assert same(p.involute(), rp.involute())
        for side in ("left", "right"):
            assert same(residual(p, q, side), old.residual(rp, rq, side))
        assert same(canonical_distance(SEGMENTS, p, q),
                    old.residual_distance(rp, rq))


def test_minimize_and_subword_match_oracle():
    rng = random.Random(83)
    for alphabet in ALPHABETS:
        for _ in range(300):
            words = random_words(rng, alphabet, max_len=6, max_gens=8)
            codes = [alphabet.encode(w) for w in words]
            expect = old.minimize_words(old.OldWord(alphabet, w) for w in words)
            assert [alphabet.decode(c) for c in minimize_words(codes)] == \
                [w.letters for w in expect]
            for u, v in zip(words, words[1:]):
                assert covers((alphabet.encode(u),), alphabet.encode(v)) == \
                    old.subword_leq(old.OldWord(alphabet, u), old.OldWord(alphabet, v))


def test_multi_character_letters_round_trip():
    word = Word(WIDE, ("cd", "ab", "e"))
    assert word.code == "-+/" and Word.from_code(WIDE, word.code) == word
    seg = FinalSegment.of(WIDE, [word, Word(WIDE, ("ab",))])
    assert seg.to_json() == ["ab"] and str(seg) == "{ab}"
    assert FinalSegment.of(WIDE, [word]).to_json() == ["cdabe"]
    assert Alphabet.plus_minus() is PLUS_MINUS


segments = st.lists(st.text(alphabet="+-", max_size=5), max_size=4).map(
    lambda ws: FinalSegment.of(PLUS_MINUS, ws))
principal = st.text(alphabet="+-", max_size=5).map(
    lambda w: FinalSegment.of(PLUS_MINUS, [w]))


def canonical(z: FinalSegment) -> bool:
    """The public constructor accepts the generators: a sorted antichain."""
    return FinalSegment(z.alphabet, z.generators) == z


@given(segments, segments)
def test_results_are_sorted_antichains(p, q):
    for z in (p.meet(q), p.join(q), p.oplus(q), p.involute(),
              residual(p, q, "left"), residual(p, q, "right")):
        assert canonical(z)


@given(segments, segments)
def test_meet_is_idempotent_and_commutative(p, q):
    assert p.meet(p) == p
    assert p.meet(q) == q.meet(p)


@given(segments, segments, segments)
def test_oplus_is_associative(p, q, r):
    assert p.oplus(q).oplus(r) == p.oplus(q.oplus(r))


@given(segments, principal)
def test_principal_oplus_equals_minimized_products(p, w):
    (g,) = w.generators
    assert p.oplus(w) == FinalSegment.of(PLUS_MINUS, [h + g for h in p.generators])
    assert w.oplus(p) == FinalSegment.of(PLUS_MINUS, [g + h for h in p.generators])


@given(segments, segments)
def test_involute_is_an_anti_automorphism(p, q):
    assert p.involute().involute() == p
    assert p.oplus(q).involute() == q.involute().oplus(p.involute())
    assert p.meet(q).involute() == p.involute().meet(q.involute())
    assert p.join(q).involute() == p.involute().join(q.involute())
    assert p.leq(q) == p.involute().leq(q.involute())


@pytest.mark.parametrize("gens", [("+", "+-"), ("-", "+"), ("+", "+"),
                                  ("", "+"), ("+-", "-+", "+")])
def test_constructor_rejects_non_canonical_generators(gens):
    with pytest.raises(ValueError):
        FinalSegment(PLUS_MINUS, gens)


def test_constructor_rejects_foreign_generators():
    for gens in (["+"], (Word.parse("+"),), ("a",), ("/",)):
        with pytest.raises(ValueError):
            FinalSegment(PLUS_MINUS, gens)
    assert FinalSegment(WIDE, ("/",)).to_json() == ["e"]


def test_kernel_results_take_the_private_path(monkeypatch):
    p = FinalSegment(PLUS_MINUS, ("+-", "-+"))
    q = FinalSegment(PLUS_MINUS, ("++",))

    def refuse(self):
        raise AssertionError("the kernel re-validated a canonical result")

    monkeypatch.setattr(FinalSegment, "__post_init__", refuse)
    results = [p.meet(q), p.join(q), p.oplus(q), q.oplus(p), p.involute(),
               residual(p, q, "left"), canonical_distance(SEGMENTS, p, q),
               FinalSegment.of(PLUS_MINUS, ["-", "+"]),
               FinalSegment.zero(), FinalSegment.empty()]
    monkeypatch.undo()
    assert all(canonical(z) for z in results)
    # the private constructor trusts its caller and checks nothing
    trusted = FinalSegment._canonical(PLUS_MINUS, ("-", "+"))
    assert trusted.generators == ("-", "+")
