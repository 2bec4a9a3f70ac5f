import random
import time
from typing import Optional

import pytest

from gmspace.automata import (Automaton, complement, determinize, insert_one_letter,
                              intersect, is_empty)
from gmspace.segments import FinalSegment
from gmspace.words import PLUS_MINUS, Alphabet, Word, all_words, minimize_words


@pytest.fixture
def pm():
    return PLUS_MINUS


def w(text: str) -> Word:
    return Word.parse(text, PLUS_MINUS)


def seg(*gens: str) -> FinalSegment:
    return FinalSegment.of(PLUS_MINUS, list(gens))


def random_segment(rng: random.Random, max_len: int = 3,
                   max_gens: int = 3) -> FinalSegment:
    pool = [x for x in all_words(PLUS_MINUS, max_len)]
    k = rng.randint(1, max_gens)
    return FinalSegment.of(PLUS_MINUS, rng.sample(pool, k))


def naive_upset_members(gens, max_len: int):
    """Oracle: membership by direct subword scan over all words."""
    return [v for v in all_words(PLUS_MINUS, max_len)
            if any(g <= v for g in gens)]


def reference_fpp_check(space) -> tuple[bool, Optional[dict]]:
    """The fixed-point search before `first_map`: plain backtracking over
    the points in order, each tried with the other points in order and
    checked against every assigned pair."""
    m, pts = space.monoid, space.points

    def extend(assign: dict, i: int) -> Optional[dict]:
        if i == len(pts):
            return dict(assign)
        x = pts[i]
        for v in pts:
            if v != x and all(m.leq(space.d(v, assign[y]), space.d(x, y))
                              and m.leq(space.d(assign[y], v), space.d(y, x))
                              for y in assign):
                assign[x] = v
                found = extend(assign, i + 1)
                if found:
                    return found
                del assign[x]
        return None

    witness = extend({}, 0)
    return witness is None, witness


def fpp_check(space) -> tuple[bool, Optional[dict]]:
    """space.fpp_check(), with the verdict, the witness and its key order
    checked against the reference search."""
    got, want = space.fpp_check(), reference_fpp_check(space)
    assert got == want, (space.points, got, want)
    assert list((got[1] or {}).items()) == list((want[1] or {}).items())
    return got


class Budget:
    """Times a block, prints a PASS/FAIL line and fails past the budget."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{self.name}: {verdict} in {elapsed:.1f}s "
              f"(budget {self.seconds}s)")
        assert elapsed < self.seconds, f"{self.name} exceeded its budget"


# Acceptor helpers: no production path uses them, so they live with the tests.


def upset_automaton(alphabet: Alphabet, words) -> Automaton:
    """Acceptor of the upward closure of the given words.

    The generator set is minimized first, so the construction is driven by a
    genuine antichain.  One track of states per generator; every state keeps
    a self-loop on every letter, and position i advances on the i-th letter
    of its generator.
    """
    gens = [alphabet.decode(g) for g in minimize_words(w.code for w in words)]
    trans: set[tuple[int, str, int]] = set()
    initial: set[int] = set()
    accepting: set[int] = set()
    base = 0
    for g in gens:
        n = len(g)
        initial.add(base)
        accepting.add(base + n)
        for i in range(n + 1):
            for a in alphabet.letters:
                trans.add((base + i, a, base + i))
                if i < n and g[i] == a:
                    trans.add((base + i, a, base + i + 1))
        base += n + 1
    return Automaton(alphabet, base, frozenset(trans), frozenset(initial),
                     frozenset(accepting))


def segment_automaton(z: FinalSegment) -> Automaton:
    """Acceptor of a final segment, built from its generator words."""
    return upset_automaton(z.alphabet, [Word.from_code(z.alphabet, g)
                                        for g in z.generators])


def accepts(aut: Automaton, w: Word) -> bool:
    states = aut.initial
    for a in w.letters:
        if not states:
            return False
        states = aut.step(states, a)
    return bool(states & aut.accepting)


def is_upward_closed(aut: Automaton) -> bool:
    """Decide L = up(L): every one-letter insertion into an accepted word
    must stay in the language."""
    bigger = insert_one_letter(aut)
    return is_empty(intersect(bigger, complement(determinize(aut))))


def word_quotient(aut: Automaton, w: Word, side: str) -> Automaton:
    """Right quotient {u : uw in L} or left quotient {u : wu in L}."""
    if side == "right":
        accepting = set()
        for p in range(aut.num_states):
            states = frozenset({p})
            for a in w.letters:
                states = aut.step(states, a)
            if states & aut.accepting:
                accepting.add(p)
        return Automaton(aut.alphabet, aut.num_states, aut.transitions,
                         aut.initial, frozenset(accepting))
    if side == "left":
        states = aut.initial
        for a in w.letters:
            states = aut.step(states, a)
        return Automaton(aut.alphabet, aut.num_states, aut.transitions,
                         frozenset(states), aut.accepting)
    raise ValueError("side must be 'left' or 'right'")
