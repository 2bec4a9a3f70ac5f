import random

import pytest
from hypothesis import given, strategies as st

from gmspace.words import (Alphabet, AlphabetMismatch, PLUS_MINUS, Word,
                           all_words, greedy_prefix_match,
                           minimal_common_superwords, minimize_words,
                           subword_leq)

from conftest import w
from word_oracle import is_antichain

words8 = st.text(alphabet="+-", max_size=8).map(w)


def test_subword_examples():
    assert subword_leq(w(""), w("+-"))
    assert subword_leq(w("+-"), w("+-+"))
    assert not subword_leq(w("++"), w("+-"))


def test_involute_examples():
    assert str(w("++").involute()) == "--"
    assert str(w("+-").involute()) == "+-"
    assert w("").involute() == w("")


def test_concat_examples():
    assert w("+") + w("-") == w("+-")
    assert w("") + w("+") == w("+")
    assert w("+-") + w("-") == w("+--")


def test_alphabet_mismatch():
    other = Alphabet.identity(["a", "b"])
    with pytest.raises(AlphabetMismatch):
        subword_leq(w("+"), Word.parse("ab", other))
    with pytest.raises(AlphabetMismatch):
        w("+") + Word.parse("a", other)


@given(words8, words8, words8)
def test_subword_partial_order(u, v, x):
    assert u <= u
    if u <= v and v <= u:
        assert u == v
    if u <= v and v <= x:
        assert u <= x


@given(words8, words8)
def test_involution_antihomomorphism(u, v):
    assert (u + v).involute() == v.involute() + u.involute()
    assert u.involute().involute() == u


@given(words8, words8)
def test_subword_respects_involution(u, v):
    if u <= v:
        assert u.involute() <= v.involute()


@given(words8, words8)
def test_greedy_matches_quotient_semantics(x, g):
    # g + u contains x iff u contains the greedy remainder of x after g
    k = greedy_prefix_match(x.code, g.code)
    u = w("-+")
    assert (x <= g + u) == (x.suffix_from(k) <= u)


def test_ordered_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(("+",), (("+", "-"),))


def test_minimize_words():
    ws = ["+", "-+", "++", "-"]
    assert minimize_words(ws) == ("+", "-")
    assert minimize_words([]) == ()


def test_all_words_order():
    seq = [str(x) for x in all_words(PLUS_MINUS, 2)]
    assert seq == ["", "+", "-", "++", "+-", "-+", "--"]


def test_minimal_common_superwords():
    assert minimal_common_superwords("+", "-") == ("+-", "-+")
    assert minimal_common_superwords("+", "+") == ("+",)
    assert minimal_common_superwords("", "-+") == ("-+",)


def test_word_serialization():
    assert w("+-").to_json() == "+-"
    assert Word.from_json("+-") == w("+-")
    wide = Alphabet.identity(["ab", "cd"])
    word = Word(wide, ("ab", "cd"))
    assert word.to_json() == ["ab", "cd"]
    assert Word.from_json(["ab", "cd"], wide) == word


@given(words8.filter(lambda x: len(x) <= 4), words8.filter(lambda x: len(x) <= 4))
def test_merge_agrees_with_enumeration(a, b):
    merged = minimal_common_superwords(a.code, b.code)
    assert is_antichain(merged)
    # oracle: minimal members of the common-superword set, scanned directly
    bound = len(a) + len(b)
    members = [v.code for v in all_words(PLUS_MINUS, bound) if a <= v and b <= v]
    expected = minimize_words(members)
    assert merged == expected


def recursive_common_superwords(a, b):
    """Oracle: the memoized recursion over suffix pairs that the iterative
    merge replaces."""
    memo = {}

    def rec(i, j):
        got = memo.get((i, j))
        if got is not None:
            return got
        if i == len(a):
            out = (b[j:],)
        elif j == len(b):
            out = (a[i:],)
        else:
            x, y = a[i], b[j]
            if x == y:
                out = tuple(x + t for t in rec(i + 1, j + 1))
            else:
                branches = {x + t for t in rec(i + 1, j)}
                branches.update(y + t for t in rec(i, j + 1))
                out = tuple(branches)
        memo[(i, j)] = out
        return out

    return minimize_words(rec(0, 0))


def test_merge_matches_recursive_oracle():
    rng = random.Random(31)
    for _ in range(300):
        a = "".join(rng.choice("+-") for _ in range(rng.randint(0, 8)))
        b = "".join(rng.choice("+-") for _ in range(rng.randint(0, 8)))
        assert minimal_common_superwords(a, b) == recursive_common_superwords(a, b)


def test_merge_of_long_words_needs_no_recursion():
    u = "+-" * 600
    assert minimal_common_superwords(u, u) == (u,)
    assert minimal_common_superwords(u, "") == (u,)
    assert minimal_common_superwords(u + "+", u) == (u + "+",)
