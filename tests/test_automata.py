import random
from itertools import combinations

import pytest

from gmspace import automata
from gmspace.automata import (NotUpwardClosed, complement, determinize,
                              enumerate_finite, insert_one_letter, intersect,
                              is_empty, is_finite, minimal_antichain)
from gmspace.words import PLUS_MINUS, Word, all_words, minimize_words

from conftest import (accepts, is_upward_closed, naive_upset_members,
                      upset_automaton, w, word_quotient)
from word_oracle import is_antichain

A = PLUS_MINUS


def up(*gens):
    return upset_automaton(A, [w(g) for g in gens])


def lang(aut, max_len):
    return [v for v in all_words(A, max_len) if accepts(aut, v)]


def test_upset_examples():
    aut = up("+")
    assert accepts(aut, w("+")) and accepts(aut, w("-+")) and accepts(aut, w("+-"))
    assert not accepts(aut, w("-")) and not accepts(aut, w(""))
    assert is_empty(up())
    assert lang(up(""), 2) == list(all_words(A, 2))


def test_upset_language_matches_naive_membership():
    rng = random.Random(1)
    pool = list(all_words(A, 3))
    for _ in range(30):
        gens = rng.sample(pool, rng.randint(1, 4))
        aut = upset_automaton(A, gens)
        minimal = [Word.from_code(A, c) for c in minimize_words(v.code for v in gens)]
        assert lang(aut, 4) == naive_upset_members(minimal, 4)


def test_insert_one_letter_examples():
    aut = insert_one_letter(up("+"))
    assert accepts(aut, w("+-")) and accepts(aut, w("++"))
    assert not accepts(aut, w("+"))  # deleting one letter leaves the empty word
    only_empty = upset_automaton(A, [w("")])
    trimmed = intersect(only_empty, complement(determinize(up("+", "-"))))
    ins = insert_one_letter(trimmed)  # language {empty} -> exactly 1-letter words
    assert sorted(map(str, lang(ins, 2))) == ["+", "-"]
    assert is_empty(insert_one_letter(up()))


def test_minimal_antichain_examples():
    assert minimal_antichain(up("+", "-+")) == (w("+"),)
    assert minimal_antichain(up("")) == (w(""),)
    assert minimal_antichain(up()) == ()


def test_minimal_antichain_requires_upward_closed():
    just_plus = automata.Automaton(
        A, 2, frozenset({(0, "+", 1)}), frozenset({0}), frozenset({1}))
    assert not is_upward_closed(just_plus)
    with pytest.raises(NotUpwardClosed):
        minimal_antichain(just_plus)


def test_word_quotient_examples():
    aut = up("+-")
    right = word_quotient(aut, w("-"), "right")
    assert minimal_antichain(right) == (w("+"),)
    assert lang(word_quotient(aut, w(""), "right"), 3) == lang(aut, 3)
    assert is_empty(word_quotient(up(), w("-"), "left"))


def test_boolean_ops_examples():
    both = intersect(up("+"), up("-"))
    got = {str(v) for v in lang(both, 4)}
    expect = {str(v) for v in all_words(A, 4)
              if "+" in str(v) and "-" in str(v)}
    assert got == expect
    assert is_empty(complement(determinize(up(""))))
    assert is_upward_closed(up("+-"))
    exactly_plus = automata.Automaton(
        A, 2, frozenset({(0, "+", 1)}), frozenset({0}), frozenset({1}))
    assert not is_upward_closed(exactly_plus)


def test_union_and_finiteness():
    assert not is_finite(up(""))
    fin = intersect(determinize(up("+")),
                    complement(determinize(insert_one_letter(up("+")))))
    assert is_finite(fin)
    assert enumerate_finite(fin) == [w("+")]


def all_antichains(max_len):
    pool = list(all_words(A, max_len))
    for r in range(len(pool) + 1):
        for combo in combinations(pool, r):
            if is_antichain(v.code for v in combo):
                yield combo


def test_roundtrip_exhaustive_words_up_to_3():
    # every antichain with words of length <= 3 survives the round trip,
    # and the upset automaton always passes the upward-closure check
    count = 0
    for chain in all_antichains(3):
        aut = upset_automaton(A, chain)
        assert is_upward_closed(aut)
        back = minimal_antichain(aut)
        assert back == tuple(sorted(chain, key=Word.sort_key))
        count += 1
    assert count == 356


def test_min_agrees_with_naive_minimality_on_random_upsets():
    rng = random.Random(42)
    pool = [v for v in all_words(A, 4) if len(v)]
    for _ in range(20):
        gens = [Word.from_code(A, c) for c in minimize_words(
            v.code for v in rng.sample(pool, rng.randint(1, 5)))]
        aut = upset_automaton(A, gens)
        members = set(naive_upset_members(gens, 6))
        naive_min = [v for v in sorted(members, key=Word.sort_key)
                     if not any(u <= v and u != v for u in members)]
        assert list(minimal_antichain(aut)) == naive_min



def test_enumerate_finite_of_a_long_word_needs_no_recursion():
    word = w("+-" * 600 + "+")
    chain = automata.Automaton(
        A, len(word) + 1,
        frozenset((i, a, i + 1) for i, a in enumerate(word.letters)),
        frozenset({0}), frozenset({len(word)}))
    assert enumerate_finite(chain) == [word]
