import random
from collections import deque
from itertools import combinations

import pytest

from gmspace import automata
from gmspace._orders import canonical_distance, is_accessible
from gmspace.segments import (SEGMENTS, FinalSegment,
                              default_accessibility_candidates, in_macneille,
                              is_self_dual, principal_upsets, residual)
from gmspace.words import PLUS_MINUS, AlphabetMismatch, Word, all_words

from conftest import w, seg, random_segment, segment_automaton, word_quotient
from word_oracle import is_antichain

A = PLUS_MINUS
ZERO = FinalSegment.zero(A)
EMPTY = FinalSegment.empty(A)


def dist(p, q):
    return canonical_distance(SEGMENTS, p, q)


def test_order_and_lattice_examples():
    assert seg("+").meet(seg("-")) == seg("+", "-")
    assert seg("+").join(seg("-")) == seg("+-", "-+")
    assert seg("+").meet(ZERO) == ZERO
    assert seg("+").leq(seg("++"))
    assert not seg("++").leq(seg("+"))
    assert EMPTY.leq(EMPTY) and seg("+").leq(EMPTY)


def test_join_of_long_generators():
    u, v = "+-" * 600, "-+" * 600
    assert seg(u).join(seg(v)) == seg(u + "+", v + "-")


def test_oplus_examples():
    assert seg("+").oplus(seg("-")) == seg("+-")
    assert seg("+").oplus(ZERO) == seg("+")
    assert seg("+", "-").oplus(seg("+")) == seg("++", "-+")
    assert seg("+").oplus(EMPTY) == EMPTY


def test_involution_examples():
    assert seg("++").involute() == seg("--")
    assert seg("+-").involute() == seg("+-")
    assert ZERO.involute() == ZERO


def test_residual_examples():
    assert residual(seg("+-"), seg("-"), "right") == seg("+")
    assert residual(seg("+-"), ZERO, "right") == seg("+-")
    assert residual(ZERO, seg("-"), "right") == ZERO
    assert residual(seg("+-"), EMPTY, "right") == ZERO
    assert residual(EMPTY, seg("-"), "left") == EMPTY


def test_distance_examples():
    assert dist(seg("+"), seg("+")) == ZERO
    assert dist(ZERO, seg("-")) == seg("-")
    assert dist(seg("+"), seg("-")) == seg("-")
    assert dist(seg("-"), seg("+")) == seg("+")


def test_alphabet_mismatch():
    from gmspace.words import Alphabet
    other = FinalSegment.of(Alphabet.identity(["a"]), ["a"])
    with pytest.raises(AlphabetMismatch):
        seg("+").meet(other)


def _random_segments(count, rng, max_len=3):
    return [random_segment(rng, max_len=max_len) for _ in range(count)]


def test_distributivity_law():
    rng = random.Random(3)
    for _ in range(150):
        p, q, r = _random_segments(3, rng)
        assert p.meet(q).oplus(r) == p.oplus(r).meet(q.oplus(r))
        assert r.oplus(p.meet(q)) == r.oplus(p).meet(r.oplus(q))


def test_distance_triangle_and_involution_axioms():
    rng = random.Random(4)
    for _ in range(120):
        p, q, r = _random_segments(3, rng)
        dpr = dist(p, r)
        dpq = dist(p, q)
        dqr = dist(q, r)
        assert dpr.leq(dpq.oplus(dqr))
        assert dist(q, p) == dist(p, q).involute()
        assert dist(p, p) == ZERO


def test_residual_adjunction_and_minimality():
    rng = random.Random(5)
    shorts = [FinalSegment.of(A, [v]) for v in all_words(A, 2)]
    for _ in range(60):
        v, b = _random_segments(2, rng)
        r = residual(v, b, "right")
        assert v.leq(r.oplus(b))
        for cand in shorts:
            if v.leq(cand.oplus(b)):
                assert r.leq(cand)
        l = residual(v, b, "left")
        assert v.leq(b.oplus(l))
        for cand in shorts:
            if v.leq(b.oplus(cand)):
                assert l.leq(cand)


def test_distance_is_least_of_its_defining_set():
    rng = random.Random(6)
    shorts = [FinalSegment.of(A, [v]) for v in all_words(A, 2)]
    for _ in range(40):
        p, q = _random_segments(2, rng)
        d = dist(p, q)
        assert p.leq(q.oplus(d.involute())) and q.leq(p.oplus(d))
        for r in shorts:
            if p.leq(q.oplus(r.involute())) and q.leq(p.oplus(r)):
                assert d.leq(r)


def codes(words):
    return tuple(x.code for x in words)


def join_via_automata(p, q):
    """Oracle: minimal words of the product acceptor of the two upsets."""
    prod = automata.intersect(segment_automaton(p), segment_automaton(q))
    return FinalSegment(p.alphabet, codes(automata.minimal_antichain(prod)))


def residual_via_automata(v, b, side):
    """Oracle: minimal words of the intersected word-quotient acceptors."""
    if b.is_empty_set():
        return FinalSegment.zero(v.alphabet)
    aut = None
    for g in b.generators:
        quo = word_quotient(segment_automaton(v), Word.from_code(v.alphabet, g),
                            side)
        aut = quo if aut is None else automata.intersect(aut, quo)
    return FinalSegment(v.alphabet, codes(automata.minimal_antichain(aut)))


def test_antichain_routes_agree_with_automata_routes():
    rng = random.Random(7)
    for _ in range(80):
        p, q = _random_segments(2, rng)
        assert p.join(q) == join_via_automata(p, q)
        for side in ("left", "right"):
            assert residual(p, q, side) == residual_via_automata(p, q, side)


def all_segments_with_gens_up_to(max_len):
    pool = [v.code for v in all_words(A, max_len)]
    for r in range(len(pool) + 1):
        for combo in combinations(pool, r):
            if is_antichain(combo):
                yield FinalSegment.of(A, combo)


def brute_force_cancellation(z: FinalSegment, bound=4):
    plus, minus = w("+"), w("-")
    for u in all_words(A, bound):
        for v in all_words(A, bound):
            if z.contains(u + plus + v) and z.contains(u + minus + v) \
                    and not z.contains(u + v):
                return False, (u, v)
    return True, None


def test_macneille_examples():
    ok, _ = in_macneille(seg("+-"))
    assert ok
    ok, witness = in_macneille(seg("+", "-"))
    assert not ok and witness == (w(""), w(""))
    assert in_macneille(ZERO)[0]
    assert in_macneille(EMPTY)[0]


def test_macneille_agrees_with_brute_force_exhaustively():
    for z in all_segments_with_gens_up_to(2):
        got, witness = in_macneille(z)
        expect, _ = brute_force_cancellation(z)
        assert got == expect, str(z)
        if not got:
            u, v = witness
            assert z.contains(u + w("+") + v) and z.contains(u + w("-") + v)
            assert not z.contains(u + v)


def macneille_via_automata(z: FinalSegment):
    """Oracle: the 0-1 BFS of ``in_macneille`` run on the determinized
    acceptor of z, whose states are subsets of the generator tracks."""
    alpha = z.alphabet
    plus, minus = alpha.letters
    dfa = automata.determinize(segment_automaton(z))
    delta = {k: v[0] for k, v in dfa._delta.items()}
    (start,) = dfa.initial
    acc = dfa.accepting
    seen_pre = {start: ()}
    seen_post = {}
    queue = deque([("pre", start)])
    while queue:
        kind, node = queue.popleft()
        if kind == "pre":
            u = seen_pre[node]
            triple = (delta[(node, plus)], delta[(node, minus)], node)
            if triple not in seen_post:
                seen_post[triple] = (u, ())
                queue.appendleft(("post", triple))
            for a in alpha.letters:
                nxt = delta[(node, a)]
                if nxt not in seen_pre:
                    seen_pre[nxt] = u + (a,)
                    queue.append(("pre", nxt))
        else:
            u, v = seen_post[node]
            s1, s2, s0 = node
            if s1 in acc and s2 in acc and s0 not in acc:
                return False, (Word(alpha, u), Word(alpha, v))
            for a in alpha.letters:
                nt = (delta[(s1, a)], delta[(s2, a)], delta[(s0, a)])
                if nt not in seen_post:
                    seen_post[nt] = (u, v + (a,))
                    queue.append(("post", nt))
    return True, None


def test_macneille_matches_acceptor_search_on_small_antichains():
    for z in all_segments_with_gens_up_to(3):
        assert in_macneille(z) == macneille_via_automata(z), str(z)


def test_macneille_matches_acceptor_search_on_random_segments():
    rng = random.Random(11)
    seen = set()
    while len(seen) < 3000:
        gens = ["".join(rng.choice("+-") for _ in range(rng.randint(1, 7)))
                for _ in range(rng.randint(1, 6))]
        z = FinalSegment.of(A, gens)
        if z not in seen:
            seen.add(z)
            assert in_macneille(z) == macneille_via_automata(z), str(z)


def test_accessibility_examples():
    cands = principal_upsets(A, 2)
    assert not is_accessible(SEGMENTS, ZERO, cands)
    assert is_accessible(SEGMENTS, seg("+-"), cands)
    assert is_self_dual(seg("+-"))
    assert not is_self_dual(seg("+"))
    assert is_accessible(SEGMENTS, seg("+-"),
                         default_accessibility_candidates(seg("+-")))
    with pytest.raises(ValueError):
        is_accessible(SEGMENTS, ZERO, [])


def test_macneille_members_nonzero_nonempty_are_accessible():
    # desk-scale instance of the accessibility lemma for the completion
    for z in all_segments_with_gens_up_to(2):
        if z == ZERO or z.is_empty_set():
            continue
        if in_macneille(z)[0]:
            assert is_accessible(SEGMENTS, z,
                                 default_accessibility_candidates(z)), str(z)


def test_serialization_round_trip():
    for z in (ZERO, EMPTY, seg("+-", "-+"), seg("+")):
        assert FinalSegment.from_json(z.to_json(), A) == z
    assert ZERO.to_json() == [""]
    assert EMPTY.to_json() == []


def test_principal_segments_are_members():
    # the search finds no witness either: the shortcut skips nothing
    for v in all_words(A, 8):
        z = FinalSegment(A, (v.code,))
        assert in_macneille(z) == (True, None), str(z)
        assert macneille_via_automata(z) == (True, None), str(z)


def test_macneille_is_invariant_under_the_involution():
    rng = random.Random(12)
    plus, minus = w("+"), w("-")
    for _ in range(1500):
        gens = ["".join(rng.choice("+-") for _ in range(rng.randint(0, 6)))
                for _ in range(rng.randint(1, 5))]
        z = FinalSegment.of(A, gens)
        ok, witness = in_macneille(z)
        assert ok == in_macneille(z.involute())[0], str(z)
        if not ok:  # (u, v) for z mirrors to (inv(v), inv(u)) for inv(z)
            u, v = witness[1].involute(), witness[0].involute()
            iz = z.involute()
            assert iz.contains(u + plus + v) and iz.contains(u + minus + v)
            assert not iz.contains(u + v)
