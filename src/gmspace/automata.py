"""Finite-automata engine for upward-closed word languages.

Upward-closed languages are represented by acceptors; the finite antichain
of minimal words is extracted with the one-letter-insertion transform.
Higman's lemma guarantees the residual language is finite.  No production
path builds an acceptor: the tests use these routines as oracles for the
antichain kernel in ``words`` and ``segments``.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .words import Alphabet, Word


class NotUpwardClosed(ValueError):
    """The language of the automaton is not closed under superwords."""


@dataclass(frozen=True)
class Automaton:
    """Immutable NFA/DFA with integer states ``0..num_states-1``.

    A deterministic automaton may be partial (missing transitions reject);
    ``complement`` completes it with a sink first.
    """

    alphabet: Alphabet
    num_states: int
    transitions: frozenset[tuple[int, str, int]]
    initial: frozenset[int]
    accepting: frozenset[int]
    deterministic: bool = False
    _delta: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        delta: dict[tuple[int, str], list[int]] = {}
        for p, a, q in self.transitions:
            if not (0 <= p < self.num_states and 0 <= q < self.num_states):
                raise ValueError(f"transition {(p, a, q)} references unknown state")
            if a not in self.alphabet.letters:
                raise ValueError(f"transition letter {a!r} not in alphabet")
            delta.setdefault((p, a), []).append(q)
        for s in self.initial | self.accepting:
            if not 0 <= s < self.num_states:
                raise ValueError(f"state {s} out of range")
        if self.deterministic:
            if len(self.initial) != 1:
                raise ValueError("deterministic automaton needs one initial state")
            if any(len(v) > 1 for v in delta.values()):
                raise ValueError("nondeterministic transitions in a DFA")
        object.__setattr__(self, "_delta", delta)

    def step(self, states: frozenset[int], a: str) -> frozenset[int]:
        out: set[int] = set()
        for p in states:
            out.update(self._delta.get((p, a), ()))
        return frozenset(out)


def determinize(aut: Automaton) -> Automaton:
    """Subset construction; the result is a complete DFA."""
    letters = aut.alphabet.letters
    index: dict[frozenset[int], int] = {aut.initial: 0}
    order = [aut.initial]
    trans: set[tuple[int, str, int]] = set()
    queue = deque([aut.initial])
    while queue:
        sset = queue.popleft()
        p = index[sset]
        for a in letters:
            tset = aut.step(sset, a)
            q = index.get(tset)
            if q is None:
                q = index[tset] = len(order)
                order.append(tset)
                queue.append(tset)
            trans.add((p, a, q))
    accepting = frozenset(index[s] for s in order if s & aut.accepting)
    return Automaton(aut.alphabet, len(order), frozenset(trans), frozenset({0}),
                     accepting, deterministic=True)


def complement(aut: Automaton) -> Automaton:
    """Complement of a deterministic automaton (determinize first)."""
    if not aut.deterministic:
        raise ValueError("complement requires a deterministic automaton")
    aut = _complete(aut)
    accepting = frozenset(range(aut.num_states)) - aut.accepting
    return Automaton(aut.alphabet, aut.num_states, aut.transitions, aut.initial,
                     accepting, deterministic=True)


def _complete(aut: Automaton) -> Automaton:
    missing = [(p, a) for p in range(aut.num_states) for a in aut.alphabet.letters
               if (p, a) not in aut._delta]
    if not missing and aut.num_states:
        return aut
    sink = aut.num_states
    trans = set(aut.transitions)
    trans.update((p, a, sink) for p, a in missing)
    trans.update((sink, a, sink) for a in aut.alphabet.letters)
    initial = aut.initial or frozenset({sink})
    return Automaton(aut.alphabet, sink + 1, frozenset(trans), initial,
                     aut.accepting, deterministic=aut.deterministic)


def intersect(a: Automaton, b: Automaton) -> Automaton:
    """Product automaton; accepts the intersection of the two languages."""
    if not a.alphabet.same(b.alphabet):
        raise ValueError("alphabet mismatch")
    letters = a.alphabet.letters
    index: dict[tuple[int, int], int] = {}
    queue: deque[tuple[int, int]] = deque()
    for p in a.initial:
        for q in b.initial:
            if (p, q) not in index:
                index[(p, q)] = len(index)
                queue.append((p, q))
    initial = frozenset(index.values())
    trans: set[tuple[int, str, int]] = set()
    while queue:
        p, q = queue.popleft()
        s = index[(p, q)]
        for x in letters:
            for p2 in a._delta.get((p, x), ()):
                for q2 in b._delta.get((q, x), ()):
                    t = index.get((p2, q2))
                    if t is None:
                        t = index[(p2, q2)] = len(index)
                        queue.append((p2, q2))
                    trans.add((s, x, t))
    accepting = frozenset(s for (p, q), s in index.items()
                          if p in a.accepting and q in b.accepting)
    det = a.deterministic and b.deterministic
    return Automaton(a.alphabet, len(index), frozenset(trans), initial,
                     accepting, deterministic=det and len(initial) <= 1)


def _search_from(seeds, edges) -> set[int]:
    """States reachable from the seeds along (p, q) edges."""
    succ: dict[int, list[int]] = {}
    for p, q in edges:
        succ.setdefault(p, []).append(q)
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for q in succ.get(stack.pop(), ()):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def _reachable(aut: Automaton) -> set[int]:
    return _search_from(aut.initial, ((p, q) for p, _, q in aut.transitions))


def _coreachable(aut: Automaton) -> set[int]:
    return _search_from(aut.accepting, ((q, p) for p, _, q in aut.transitions))


def trim(aut: Automaton) -> Automaton:
    """Restrict to useful states (reachable and co-reachable)."""
    useful = sorted(_reachable(aut) & _coreachable(aut))
    remap = {s: i for i, s in enumerate(useful)}
    trans = frozenset((remap[p], a, remap[q]) for p, a, q in aut.transitions
                      if p in remap and q in remap)
    return Automaton(aut.alphabet, len(useful), trans,
                     frozenset(remap[s] for s in aut.initial if s in remap),
                     frozenset(remap[s] for s in aut.accepting if s in remap))


def is_empty(aut: Automaton) -> bool:
    return not (_reachable(aut) & set(aut.accepting))


def is_finite(aut: Automaton) -> bool:
    """A trimmed acceptor has an infinite language iff it has a cycle."""
    t = trim(aut)
    color = [0] * t.num_states  # 0 unvisited, 1 on stack, 2 done
    for start in range(t.num_states):
        if color[start]:
            continue
        stack = [(start, iter(t.alphabet.letters), iter(()))]
        color[start] = 1
        while stack:
            p, letters, targets = stack[-1]
            nxt = next(targets, None)
            if nxt is None:
                a = next(letters, None)
                if a is None:
                    color[p] = 2
                    stack.pop()
                    continue
                stack[-1] = (p, letters, iter(t._delta.get((p, a), ())))
                continue
            if color[nxt] == 1:
                return False
            if color[nxt] == 0:
                color[nxt] = 1
                stack.append((nxt, iter(t.alphabet.letters), iter(())))
    return True


def enumerate_finite(aut: Automaton) -> list[Word]:
    """All accepted words of a finite language, length-then-lex sorted."""
    if not is_finite(aut):
        raise ValueError("language is infinite")
    t = trim(aut)
    words: set[tuple[str, ...]] = set()
    stack = [(s, ()) for s in t.initial]  # every path is finite: no cycles
    while stack:
        state, prefix = stack.pop()
        if state in t.accepting:
            words.add(prefix)
        for a in t.alphabet.letters:
            for q in t._delta.get((state, a), ()):
                stack.append((q, prefix + (a,)))
    return sorted((Word(aut.alphabet, w) for w in words), key=Word.sort_key)


def insert_one_letter(aut: Automaton) -> Automaton:
    """Acceptor of the words that fall into the language after deleting one
    letter; equivalently, all one-letter insertions into accepted words.

    Two copies of the state graph: layer 0 before the skipped letter, layer 1
    after it.
    """
    n = aut.num_states
    trans = set(aut.transitions)
    for p in range(n):
        for a in aut.alphabet.letters:
            trans.add((p, a, p + n))  # the inserted letter, skipped by the run
            for q in aut._delta.get((p, a), ()):
                trans.add((p + n, a, q + n))
    return Automaton(aut.alphabet, 2 * n, frozenset(trans), aut.initial,
                     frozenset(q + n for q in aut.accepting))


def minimal_antichain(aut: Automaton) -> tuple[Word, ...]:
    """Antichain of minimal words of an upward-closed language.

    Computed as L minus its one-letter insertions; the residual is finite by
    Higman's lemma, so a cycle in the trimmed residual acceptor can only mean
    an engine bug and is raised as such.
    """
    dfa = determinize(aut)
    bigger = insert_one_letter(aut)
    if not is_empty(intersect(bigger, complement(dfa))):
        raise NotUpwardClosed("language is not upward-closed")
    residual = intersect(dfa, complement(determinize(bigger)))
    if not is_finite(residual):
        raise AssertionError("infinite set of minimal words: engine bug")
    return tuple(enumerate_finite(residual))
